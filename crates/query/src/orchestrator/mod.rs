//! The orchestration layer: elastic autoscaling, weighted-fair
//! multi-tenant admission, and fault injection with deterministic replay
//! recovery, in one control plane over [`QueryService`].
//!
//! ```text
//!        submit(tenant, plan)
//!              │
//!              ▼
//!   ┌─────────────────────┐  reject: UnknownTenant / TenantQueueFull
//!   │  WeightedAdmission   │  grant order: strict priority, then
//!   │  (DRR over tenants)  │  deficit-weighted round-robin
//!   └─────────┬───────────┘
//!             │ grant (ticket, queue time)
//!             ▼
//!   ┌─────────────────────┐   observe {queue depth, inflight, width,
//!   │  scaling tick        │──▶ rolling latency} → decide(spec, obs)
//!   │  (pure decide())     │   → resize ElasticPool, log ScalingEvent
//!   └─────────┬───────────┘
//!             │
//!             ▼
//!   ┌─────────────────────┐   FaultInjected error?
//!   │  QueryService        │──▶ replay the deterministic schedule on
//!   │  (plan cache + exec) │   the now-healthy crew, log RecoveryEvent
//!   └─────────┬───────────┘   (rows + edge_totals bit-identical)
//!             │
//!             ▼
//!        ServedQuery + per-tenant stats
//! ```
//!
//! That pipeline exists once: `serve_as` and `serve_iterative` are thin
//! callers of one private loop and differ only in how they prepare, how
//! they run one attempt, and what they wrap the result in. The gate at
//! the top is the serving stack's only one — a plain [`QueryService`]
//! admits through the same [`crate::admission`] scheduler with a single
//! implicit tenant.
//!
//! The three guarantees, and where they come from:
//!
//! - **No starvation.** Admission is deficit-weighted round-robin within
//!   strict priority classes ([`crate::admission`]): every backlogged
//!   tenant is visited once per DRR rotation, so a weight-`w` tenant in
//!   a system of total weight `W` waits at most ~`W/w` foreign grants
//!   per queued position — a structural bound, asserted by tests, that
//!   no adversarial burst can break.
//! - **Deterministic scaling log.** Every resize records the full
//!   [`ScalingObservation`] it was decided on, and
//!   [`decide`] is pure — replaying the log reproduces every decision
//!   (see [`scaling`]).
//! - **Bit-identical recovery.** Queries compile to deterministic
//!   exchange schedules, so after an injected fault
//!   ([`FaultPlan`] → typed
//!   [`QueryError::FaultInjected`]) the orchestrator simply re-executes
//!   the schedule on the (auto-disarmed, hence healthy) crew: rows *and*
//!   metered `edge_totals` equal the fault-free run by construction.
//!
//! # Serving three tenants
//!
//! ```
//! use tamp_query::prelude::*;
//! use tamp_topology::builders;
//!
//! let mut ctx = QueryContext::new(builders::star(4, 1.0)).with_seed(7);
//! let rows: Vec<Vec<u64>> = (0..90).map(|i| vec![i, i % 4, i * 3]).collect();
//! ctx.register(DistributedTable::round_robin(
//!     "t",
//!     Schema::new(vec!["id", "g", "x"]).unwrap(),
//!     rows,
//!     ctx.tree(),
//! ))
//! .unwrap();
//!
//! let orch = Orchestrator::builder(ctx)
//!     .tenant(TenantSpec::new("dashboards", 4, 16).with_priority(Priority::Interactive))
//!     .tenant(TenantSpec::new("analysts", 2, 16))
//!     .tenant(TenantSpec::new("batch", 1, 16))
//!     .scaling(ScalingSpec::new(1, 4))
//!     .build()
//!     .unwrap();
//!
//! let q = LogicalPlan::scan("t").aggregate("g", AggFunc::Sum, "x");
//! let served = orch.serve_as("analysts", &q).unwrap();
//! assert!(!served.result.rows(false).is_empty());
//! let stats = orch.stats();
//! assert_eq!(stats.len(), 3);
//! assert_eq!(stats.iter().find(|t| t.tenant == "analysts").unwrap().served, 1);
//! ```

pub mod chaos;
pub mod scaling;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tamp_runtime::{
    CheckpointSpec, CheckpointStats, CheckpointStore, ElasticPool, FaultEvent, FaultInjector,
    FaultKind, FaultPlan, PooledClusterBackend, RuntimeError,
};
use tamp_topology::{EdgeId, Tree};

use crate::admission::{Priority, SlotGuard, TenantSpec, WeightedAdmission};
use crate::context::QueryContext;
use crate::error::QueryError;
use crate::exec::QueryResult;
use crate::iterative::{IterativeJob, IterativeOutcome};
use crate::lock_ok;
use crate::plan::LogicalPlan;
use crate::service::{QueryService, ServedQuery, ServiceStats, Snapshot};

pub use scaling::{decide, ScaleDecision, ScalingEvent, ScalingObservation, ScalingSpec};

/// Recent queue waits feeding the rolling-latency scaling signal.
const ROLLING_WINDOW: usize = 32;

/// Backoff between recovery attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backoff {
    /// Retry immediately (the default — replay on the healthy crew is
    /// the recovery, there is usually nothing to wait out).
    #[default]
    None,
    /// A fixed delay before every retry.
    Fixed(Duration),
    /// `base · 2^(attempt-1)`: doubling delays for flaky environments
    /// where back-to-back retries would hit the same transient fault.
    Exponential {
        /// Delay before the first retry.
        base: Duration,
    },
}

impl Backoff {
    /// Delay before retry number `attempt` (1-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        match *self {
            Backoff::None => Duration::ZERO,
            Backoff::Fixed(d) => d,
            Backoff::Exponential { base } => base.saturating_mul(
                1u32.checked_shl(attempt.saturating_sub(1))
                    .unwrap_or(u32::MAX),
            ),
        }
    }
}

/// Bound and pacing for replay recovery — replaces the old hardcoded
/// four-recovery loop. `max_attempts` counts *total executions* (initial
/// run included), so an adversarial re-arming loop terminates with a
/// typed [`QueryError::RecoveryExhausted`] after exactly `max_attempts`
/// failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed per query (floored at 1).
    pub max_attempts: u32,
    /// Delay policy between attempts.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // The historical behavior: one initial run plus four recoveries.
        RetryPolicy {
            max_attempts: 5,
            backoff: Backoff::None,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total executions (floored at 1),
    /// with no backoff.
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: Backoff::None,
        }
    }
}

/// One recoverable fault hitting a served query, in arrival order. The
/// replay bookkeeping fields (`resumed_from`, `replayed_supersteps`,
/// `skipped_supersteps`) describe the *following* attempt and are filled
/// in when it succeeds; they stay empty/zero if that attempt also
/// faulted (the next fault gets its own event) or recovery was
/// exhausted.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// The tenant whose query was hit.
    pub tenant: String,
    /// The query's admission ticket.
    pub ticket: u64,
    /// The fault that killed the attempt (kind + attributed node +
    /// superstep).
    pub fault: FaultEvent,
    /// 1-based execution attempt that the fault killed.
    pub attempt: u32,
    /// Checkpoint superstep the successful replay resumed from (`None`
    /// for a from-scratch replay).
    pub resumed_from: Option<usize>,
    /// Supersteps the successful replay actually executed
    /// (`total - skipped`); with checkpointing enabled this is strictly
    /// fewer than a whole-query replay whenever a snapshot existed.
    pub replayed_supersteps: Option<usize>,
    /// Supersteps the successful replay skipped thanks to the checkpoint
    /// (= `resumed_from`, or 0 without one).
    pub skipped_supersteps: usize,
}

/// A served iterative fixpoint job: the [`IterativeOutcome`] (values,
/// per-iteration cost table, metered ledger) plus the same serving
/// telemetry a relational query gets. Iterative jobs are long
/// multi-round batch work — declare their tenant with
/// [`Priority::Batch`] so the weighted-fair admission keeps interactive
/// queries ahead of them.
#[derive(Clone, Debug)]
pub struct ServedIterative {
    /// The fixpoint result — bit-identical to a standalone
    /// `PreparedIterative::run_on` of the same job.
    pub outcome: IterativeOutcome,
    /// Queue/plan/exec timings and cache provenance: `plan` is the local
    /// fixpoint preparation on a miss, a plan-cache probe on a hit.
    pub stats: ServiceStats,
}

/// Per-tenant serving report returned by [`Orchestrator::stats`].
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Configured DRR weight.
    pub weight: u32,
    /// Configured priority class.
    pub priority: Priority,
    /// Queries served to completion.
    pub served: u64,
    /// Submits rejected at the tenant's quota.
    pub rejected: u64,
    /// Queries that needed replay recovery after an injected fault.
    pub recovered: u64,
    /// Straggler watchdog timeouts hit by this tenant's queries (each
    /// also counts toward `recovered` when the replay succeeds).
    pub timeouts: u64,
    /// Supersteps this tenant's replays skipped thanks to checkpoint
    /// resume (0 without checkpointing).
    pub supersteps_skipped: u64,
    /// Served queries and fixpoint jobs whose plan came from the cache.
    pub cache_hits: u64,
    /// Iterative jobs rejected because their fixpoint failed to converge
    /// within `max_iters` ([`QueryError::IterationLimit`]). These are
    /// deterministic non-convergences, not faults: they are never
    /// retried.
    pub iteration_limits: u64,
    /// Queries currently queued.
    pub queued_now: usize,
    /// Queries currently executing.
    pub running_now: usize,
    /// Median queue wait across served queries (from a log-bucket
    /// histogram: within 25 % below the exact value).
    pub queue_p50: Duration,
    /// 99th-percentile queue wait across served queries (same
    /// resolution; never below `queue_p50`).
    pub queue_p99: Duration,
    /// Total time spent planning (≈0 on cache hits).
    pub plan_total: Duration,
    /// Total time spent executing.
    pub exec_total: Duration,
    /// Largest number of foreign grants any of this tenant's queries
    /// waited through — the structural no-starvation bound.
    pub max_waited_grants: u64,
}

/// Queue waits in a fixed log-bucket histogram: four buckets per power
/// of two of microseconds (a reported quantile is within 25 % of the
/// exact one), constant memory however many queries are served.
struct WaitHistogram {
    counts: [u64; WaitHistogram::BUCKETS],
    total: u64,
}

impl Default for WaitHistogram {
    fn default() -> Self {
        WaitHistogram {
            counts: [0; WaitHistogram::BUCKETS],
            total: 0,
        }
    }
}

impl WaitHistogram {
    /// `bucket(u64::MAX) + 1`.
    const BUCKETS: usize = 252;

    /// 0‥3 µs map to themselves; above, the octave `e = ⌊log2 us⌋` and
    /// the two bits below its leading one pick the bucket.
    fn bucket(us: u64) -> usize {
        if us < 4 {
            return us as usize;
        }
        let e = 63 - us.leading_zeros() as usize;
        ((e - 1) << 2) | ((us >> (e - 2)) & 3) as usize
    }

    /// The smallest wait that lands in bucket `b` (inverse of `bucket`).
    fn floor_of(b: usize) -> u64 {
        if b < 4 {
            return b as u64;
        }
        (4 | (b as u64 & 3)) << ((b >> 2) - 1)
    }

    fn record(&mut self, wait: Duration) {
        self.counts[Self::bucket(wait.as_micros() as u64)] += 1;
        self.total += 1;
    }

    /// `p`-th percentile (nearest-rank on the inclusive index scale, as
    /// the floor of its bucket; zero for an empty histogram).
    fn percentile(&self, p: u64) -> Duration {
        let rank = self.total.saturating_sub(1) * p / 100;
        let mut seen = 0;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen > rank {
                return Duration::from_micros(Self::floor_of(b));
            }
        }
        Duration::ZERO
    }
}

/// Per-tenant timing accumulators (wall-clock side of [`TenantStats`]).
#[derive(Default)]
struct TenantTimings {
    queue: WaitHistogram,
    plan: Duration,
    exec: Duration,
    served: u64,
    recovered: u64,
    timeouts: u64,
    supersteps_skipped: u64,
    cache_hits: u64,
    iteration_limits: u64,
    max_waited_grants: u64,
}

struct ScalerState {
    tick: u64,
    ticks_since_change: u64,
    rolling: VecDeque<u64>,
    events: Vec<ScalingEvent>,
}

/// The orchestration control plane. Build one with
/// [`Orchestrator::builder`]; see the [module docs](self) for the
/// control-flow diagram and guarantees.
pub struct Orchestrator {
    service: QueryService,
    admission: WeightedAdmission,
    pool: Arc<ElasticPool>,
    injector: Arc<FaultInjector>,
    checkpoints: Option<Arc<CheckpointStore>>,
    retry: RetryPolicy,
    scaling: Option<ScalingSpec>,
    scaler: Mutex<ScalerState>,
    /// Straggler timeouts since the last scaling tick — drained into
    /// `ScalingObservation::recent_timeouts`.
    pending_timeouts: AtomicUsize,
    timings: Mutex<Vec<TenantTimings>>,
    recoveries: Mutex<Vec<RecoveryEvent>>,
}

impl std::fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("tenants", &self.admission.specs().len())
            .field("capacity", &self.admission.capacity())
            .field("pool_width", &self.pool.width())
            .field("scaling", &self.scaling)
            .finish()
    }
}

/// Builder for [`Orchestrator`] — declare tenants, the scaling policy
/// and the admission capacity, then [`build`](Self::build).
pub struct OrchestratorBuilder {
    ctx: QueryContext,
    tenants: Vec<TenantSpec>,
    scaling: Option<ScalingSpec>,
    capacity: Option<usize>,
    retry: RetryPolicy,
    checkpoint_every: Option<usize>,
    superstep_deadline: Option<Duration>,
}

impl OrchestratorBuilder {
    /// Declare one tenant (builder-style).
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Declare many tenants at once.
    pub fn tenants(mut self, specs: impl IntoIterator<Item = TenantSpec>) -> Self {
        self.tenants.extend(specs);
        self
    }

    /// Attach an autoscaling policy for the elastic crew. Without one
    /// the crew stays at its initial width.
    pub fn scaling(mut self, spec: ScalingSpec) -> Self {
        self.scaling = Some(spec);
        self
    }

    /// Global concurrent-queries bound across all tenants (defaults to
    /// the initial crew width, floored at 2).
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Replay-recovery bound and backoff (default:
    /// [`RetryPolicy::default`], five total executions, no backoff).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Enable superstep checkpointing: replay recovery resumes from the
    /// last `every`-th superstep boundary the aborted run passed instead
    /// of superstep 0 (floored at 1; see [`tamp_runtime::checkpoint`]).
    pub fn checkpoints(mut self, every: usize) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Arm the superstep watchdog: a superstep exceeding `deadline`
    /// aborts with a recoverable
    /// [`QueryError::SuperstepTimeout`] naming the straggler, feeding
    /// both the recovery loop and the scaling observation
    /// (`recent_timeouts`).
    pub fn superstep_deadline(mut self, deadline: Duration) -> Self {
        self.superstep_deadline = Some(deadline);
        self
    }

    /// Validate every spec and assemble the orchestrator: an
    /// [`ElasticPool`] crew, a [`FaultInjector`], a
    /// [`PooledClusterBackend`] wired to both, and a [`QueryService`]
    /// over that backend.
    pub fn build(self) -> Result<Orchestrator, QueryError> {
        if self.tenants.is_empty() {
            return Err(QueryError::InvalidTenantSpec(
                "an orchestrator needs at least one tenant".into(),
            ));
        }
        for (i, spec) in self.tenants.iter().enumerate() {
            spec.validate()?;
            if self.tenants[..i].iter().any(|s| s.name == spec.name) {
                return Err(QueryError::InvalidTenantSpec(format!(
                    "duplicate tenant name `{}`",
                    spec.name
                )));
            }
        }
        if let Some(scaling) = &self.scaling {
            scaling.validate()?;
        }
        if self.capacity == Some(0) {
            return Err(QueryError::InvalidAdmissionLimit);
        }
        let width = self.scaling.as_ref().map(|s| s.min).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        });
        let capacity = self.capacity.unwrap_or_else(|| width.max(2));
        let pool = Arc::new(ElasticPool::new(width));
        let injector = Arc::new(FaultInjector::new());
        let mut backend = PooledClusterBackend::with_elastic_pool(Arc::clone(&pool))
            .with_fault_injector(Arc::clone(&injector));
        backend.options.superstep_deadline = self.superstep_deadline;
        let checkpoints = self.checkpoint_every.map(|every| {
            (
                Arc::new(CheckpointStore::new()),
                CheckpointSpec::every(every),
            )
        });
        if let Some((store, spec)) = &checkpoints {
            backend = backend.with_checkpoints(Arc::clone(store), *spec);
        }
        let n_tenants = self.tenants.len();
        Ok(Orchestrator {
            service: QueryService::new(self.ctx, Arc::new(backend)),
            admission: WeightedAdmission::new(capacity, self.tenants),
            pool,
            injector,
            checkpoints: checkpoints.map(|(store, _)| store),
            retry: RetryPolicy {
                max_attempts: self.retry.max_attempts.max(1),
                ..self.retry
            },
            scaling: self.scaling,
            pending_timeouts: AtomicUsize::new(0),
            scaler: Mutex::new(ScalerState {
                tick: 0,
                ticks_since_change: 0,
                rolling: VecDeque::with_capacity(ROLLING_WINDOW),
                events: Vec::new(),
            }),
            timings: Mutex::new((0..n_tenants).map(|_| TenantTimings::default()).collect()),
            recoveries: Mutex::new(Vec::new()),
        })
    }
}

impl Orchestrator {
    /// Start declaring an orchestrator over `ctx` (see
    /// [`OrchestratorBuilder`]).
    pub fn builder(ctx: QueryContext) -> OrchestratorBuilder {
        OrchestratorBuilder {
            ctx,
            tenants: Vec::new(),
            scaling: None,
            capacity: None,
            retry: RetryPolicy::default(),
            checkpoint_every: None,
            superstep_deadline: None,
        }
    }

    /// Serve one query on behalf of `tenant`: weighted-fair admission →
    /// scaling tick → plan (cached) + execute, with replay recovery if
    /// an injected fault kills the run.
    ///
    /// Results are bit-identical (rows **and** metered `edge_totals`) to
    /// a fault-free single-session execution of the same plan.
    pub fn serve_as(&self, tenant: &str, plan: &LogicalPlan) -> Result<ServedQuery, QueryError> {
        let (result, stats) = self.serve_with(
            tenant,
            |pinned| self.service.plan_on(pinned, plan),
            |pinned, cached| self.service.run_plan(pinned, cached),
            |result: &QueryResult| (result.supersteps, result.resumed_from),
        )?;
        Ok(ServedQuery { result, stats })
    }

    /// Serve one iterative fixpoint job (see [`crate::iterative`]) on
    /// behalf of `tenant`, through the same control plane as relational
    /// queries: weighted-fair admission → scaling tick → plan (the local
    /// fixpoint, cached per job, tree and catalog generation) → schedule
    /// replay on the serving backend, with replay recovery if an injected
    /// fault kills the run: every retry replays the one pinned prepared
    /// job. With checkpointing enabled (`OrchestratorBuilder::checkpoints`
    /// at the job's `rounds_per_iteration`), a killed fixpoint resumes
    /// from the last iteration barrier instead of round 0.
    ///
    /// Iterative jobs are multi-round batch work: admit them under a
    /// [`Priority::Batch`] tenant so interactive queries keep jumping
    /// the queue. A fixpoint that does not converge surfaces as
    /// [`QueryError::IterationLimit`] — counted in the tenant's
    /// [`TenantStats::iteration_limits`]; it takes no cache slot and is
    /// never retried (replay would re-diverge identically).
    pub fn serve_iterative(
        &self,
        tenant: &str,
        job: &IterativeJob,
    ) -> Result<ServedIterative, QueryError> {
        let backend = self.service.backend();
        let (outcome, stats) = self.serve_with(
            tenant,
            |pinned| self.service.prepare_fixpoint_on(pinned, job),
            |pinned, prepared| prepared.run_on(pinned.ctx.tree(), backend),
            |outcome: &IterativeOutcome| (outcome.supersteps, outcome.resumed_from),
        )?;
        Ok(ServedIterative { outcome, stats })
    }

    /// The one serve loop behind [`serve_as`](Self::serve_as) and
    /// [`serve_iterative`](Self::serve_iterative) — the module-docs
    /// diagram, top to bottom: admit → fairness stat → scale tick → pin →
    /// `prepare` → `attempt` until it succeeds, a non-recoverable error
    /// ends it, or the [`RetryPolicy`] is exhausted → patch the replay
    /// bookkeeping (`replay_of` reads `(supersteps, resumed_from)` off the
    /// result) → roll up timings.
    ///
    /// The serving generation is pinned **once**: `prepare` and every
    /// `attempt` get the same [`Snapshot`], so each retry replays the
    /// same deterministic schedule on the same tree and catalog — and a
    /// checkpointed ledger resumes against the weights it was built on —
    /// even if a concurrent `register` / `degrade_link` swaps the serving
    /// generation mid-recovery. `prepare` also reports whether its plan
    /// came from the cache.
    fn serve_with<P, T>(
        &self,
        tenant: &str,
        prepare: impl FnOnce(&Snapshot) -> Result<(P, bool), QueryError>,
        mut attempt: impl FnMut(&Snapshot, &P) -> Result<T, QueryError>,
        replay_of: impl FnOnce(&T) -> (usize, Option<usize>),
    ) -> Result<(T, ServiceStats), QueryError> {
        let tenant_ix = self.admission.tenant_index(tenant)?;
        let grant = self.admission.acquire(tenant_ix)?;
        let _slot = SlotGuard {
            admission: &self.admission,
            tenant: tenant_ix,
        };
        {
            // The structural fairness metric: grants to other queries
            // between this one's enqueue and its own grant.
            let t = &mut lock_ok(&self.timings)[tenant_ix];
            t.max_waited_grants = t.max_waited_grants.max(grant.waited_grants);
        }
        self.scale_tick(grant.queued);

        let pinned = self.service.snapshot();
        // Whatever ends the query early also drops any fault plan still
        // armed for it, instead of leaking it into the next, unrelated
        // execution.
        let fail = |e: QueryError| {
            self.injector.clear_armed();
            Err(e)
        };
        let planning = Instant::now();
        let (prepared, cache_hit) = match prepare(&pinned) {
            Ok(p) => p,
            Err(e) => {
                if matches!(e, QueryError::IterationLimit { .. }) {
                    lock_ok(&self.timings)[tenant_ix].iteration_limits += 1;
                }
                return fail(e);
            }
        };
        let plan = planning.elapsed();

        let mut attempts = 1u32;
        let (output, exec) = loop {
            let executing = Instant::now();
            let e = match attempt(&pinned, &prepared) {
                Ok(output) => break (output, executing.elapsed()),
                Err(e) if e.is_recoverable() => e,
                Err(e) => return fail(e),
            };
            if matches!(e, QueryError::SuperstepTimeout { .. }) {
                self.pending_timeouts.fetch_add(1, Ordering::Relaxed);
                lock_ok(&self.timings)[tenant_ix].timeouts += 1;
            }
            lock_ok(&self.recoveries).push(RecoveryEvent {
                tenant: tenant.to_string(),
                ticket: grant.ticket,
                fault: fault_event_of(&e, pinned.ctx.tree()),
                attempt: attempts,
                resumed_from: None,
                replayed_supersteps: None,
                skipped_supersteps: 0,
            });
            if attempts >= self.retry.max_attempts {
                // Total loss (or an adversarial re-arming loop): give up
                // with a typed error after exactly `max_attempts`
                // executions.
                return fail(QueryError::RecoveryExhausted {
                    attempts,
                    last: Box::new(e),
                });
            }
            let delay = self.retry.backoff.delay(attempts);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            // The faulted run consumed its armed plan (FIFO one-shot), so
            // this replay sees the next armed plan if the chaos schedule
            // re-armed, or a healthy crew.
            attempts += 1;
        };

        let mut skipped = 0;
        if attempts > 1 {
            // Patch the replay bookkeeping onto this query's last fault
            // event, now that the successful attempt is known.
            let (supersteps, resumed_from) = replay_of(&output);
            skipped = resumed_from.unwrap_or(0);
            let mut recs = lock_ok(&self.recoveries);
            if let Some(last) = recs
                .iter_mut()
                .rev()
                .find(|r| r.ticket == grant.ticket && r.tenant == tenant)
            {
                last.resumed_from = resumed_from;
                last.replayed_supersteps = Some(supersteps - skipped);
                last.skipped_supersteps = skipped;
            }
        }
        let t = &mut lock_ok(&self.timings)[tenant_ix];
        t.served += 1;
        t.recovered += u64::from(attempts > 1);
        t.supersteps_skipped += skipped as u64;
        t.cache_hits += u64::from(cache_hit);
        t.queue.record(grant.queued);
        t.plan += plan;
        t.exec += exec;
        let stats = ServiceStats {
            ticket: grant.ticket,
            queued: grant.queued,
            plan,
            exec,
            cache_hit,
        };
        Ok((output, stats))
    }

    /// One pass of the autoscaling control loop (runs between a query's
    /// admission and its execution — never on the execution hot path of
    /// an already-running query).
    fn scale_tick(&self, last_queued: Duration) {
        let Some(spec) = &self.scaling else { return };
        let mut st = lock_ok(&self.scaler);
        st.tick += 1;
        if st.rolling.len() == ROLLING_WINDOW {
            st.rolling.pop_front();
        }
        st.rolling.push_back(last_queued.as_micros() as u64);
        let rolling_mean = st.rolling.iter().sum::<u64>() / st.rolling.len().max(1) as u64;
        let observation = ScalingObservation {
            tick: st.tick,
            queue_depth: self.admission.queue_depth(),
            inflight: self.admission.inflight(),
            width: self.pool.width(),
            ticks_since_change: st.ticks_since_change,
            rolling_queue_latency: Duration::from_micros(rolling_mean),
            recent_timeouts: self.pending_timeouts.swap(0, Ordering::Relaxed),
        };
        let (decision, reason) = scaling::decide(spec, &observation);
        match decision {
            ScaleDecision::Hold => {
                st.ticks_since_change = st.ticks_since_change.saturating_add(1);
            }
            ScaleDecision::Grow(width) | ScaleDecision::Shrink(width) => {
                self.pool.resize(width);
                st.ticks_since_change = 0;
                st.events.push(ScalingEvent {
                    observation,
                    decision,
                    reason,
                });
            }
        }
    }

    /// Arm a [`FaultPlan`] for the next query execution. Plans queue
    /// FIFO: arming several queues one per execution attempt, which is
    /// how the chaos harness re-arms faults across recovery retries.
    ///
    /// The plan is validated against the serving topology first — a
    /// kill/stall naming a router or out-of-range node, or a degrade
    /// naming an unknown edge, is a typed
    /// [`QueryError::InvalidFaultTarget`], never a silent no-op.
    pub fn inject_faults(&self, plan: FaultPlan) -> Result<(), QueryError> {
        plan.validate(self.service.context().tree())
            .map_err(|e| match e {
                RuntimeError::InvalidFaultTarget { fault } => QueryError::InvalidFaultTarget(fault),
                other => QueryError::Backend(other.to_string()),
            })?;
        self.injector.arm(plan);
        Ok(())
    }

    /// Degrade one link of the serving topology (divide both directed
    /// bandwidths of `edge` by `factor`): plan-cache invalidation via the
    /// topology fingerprint, catalog version bump, re-pricing on every
    /// subsequent query — see
    /// [`QueryService::degrade_link`]. Returns the new catalog version.
    pub fn degrade_link(&self, edge: EdgeId, factor: f64) -> Result<u64, QueryError> {
        self.service.degrade_link(edge, factor)
    }

    /// Checkpoint counters (saved/resumed/retained), when checkpointing
    /// is enabled via [`OrchestratorBuilder::checkpoints`].
    pub fn checkpoint_stats(&self) -> Option<CheckpointStats> {
        self.checkpoints.as_ref().map(|store| store.stats())
    }

    /// Every fault that actually fired, in firing order.
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        self.injector.fired()
    }

    /// Every replay recovery, in arrival order.
    pub fn recovery_events(&self) -> Vec<RecoveryEvent> {
        lock_ok(&self.recoveries).clone()
    }

    /// The resize event log. Deterministic in the sense of the
    /// [`scaling`] module docs: `decide(spec, event.observation)`
    /// reproduces every `(decision, reason)` pair.
    pub fn scaling_events(&self) -> Vec<ScalingEvent> {
        lock_ok(&self.scaler).events.clone()
    }

    /// The attached scaling policy, if any.
    pub fn scaling_spec(&self) -> Option<&ScalingSpec> {
        self.scaling.as_ref()
    }

    /// Current elastic crew width.
    pub fn pool_width(&self) -> usize {
        self.pool.width()
    }

    /// Global concurrent-queries bound.
    pub fn capacity(&self) -> usize {
        self.admission.capacity()
    }

    /// Queries currently queued across all tenants.
    pub fn queue_depth(&self) -> usize {
        self.admission.queue_depth()
    }

    /// The underlying serving layer (plan cache, catalog versioning,
    /// `register` / `register_strategy`).
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// Per-tenant serving report, in declaration order: queue/plan/exec
    /// timings, p50/p99 queue time, fairness and recovery counters.
    pub fn stats(&self) -> Vec<TenantStats> {
        let admission = self.admission.tenant_admission();
        let timings = lock_ok(&self.timings);
        self.admission
            .specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let adm = &admission[i];
                let t = &timings[i];
                TenantStats {
                    tenant: spec.name.clone(),
                    weight: spec.weight,
                    priority: spec.priority,
                    served: t.served,
                    rejected: adm.rejected,
                    recovered: t.recovered,
                    timeouts: t.timeouts,
                    supersteps_skipped: t.supersteps_skipped,
                    cache_hits: t.cache_hits,
                    iteration_limits: t.iteration_limits,
                    queued_now: adm.queued,
                    running_now: adm.running,
                    queue_p50: t.queue.percentile(50),
                    queue_p99: t.queue.percentile(99),
                    plan_total: t.plan,
                    exec_total: t.exec,
                    max_waited_grants: t.max_waited_grants,
                }
            })
            .collect()
    }
}

/// Translate a recoverable [`QueryError`] into the [`FaultEvent`]
/// recorded on its [`RecoveryEvent`]. Degradations attribute the deeper
/// endpoint of the edge, matching the runtime's own fired-event log.
fn fault_event_of(e: &QueryError, tree: &Tree) -> FaultEvent {
    match *e {
        QueryError::FaultInjected { node, round } => FaultEvent {
            node,
            round,
            kind: FaultKind::WorkerKilled,
        },
        QueryError::LinkDegraded {
            edge,
            round,
            factor,
        } => FaultEvent {
            node: tree.deeper_endpoint(edge),
            round,
            kind: FaultKind::LinkDegraded { edge, factor },
        },
        QueryError::SuperstepTimeout { node, round, .. } => FaultEvent {
            node,
            round,
            kind: FaultKind::Straggler,
        },
        _ => unreachable!("fault_event_of is only called on recoverable errors"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggFunc;
    use crate::schema::Schema;
    use crate::table::DistributedTable;
    use tamp_topology::{builders, NodeId};

    fn ctx() -> QueryContext {
        let tree = builders::star(4, 1.0);
        let mut ctx = QueryContext::new(tree.clone()).with_seed(5);
        let rows: Vec<Vec<u64>> = (0..80).map(|i| vec![i, i % 4, i * 7 % 90]).collect();
        ctx.register(DistributedTable::round_robin(
            "t",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            &tree,
        ))
        .unwrap();
        ctx
    }

    fn query() -> LogicalPlan {
        LogicalPlan::scan("t").aggregate("g", AggFunc::Sum, "x")
    }

    #[test]
    fn builder_validates_everything() {
        let no_tenants = Orchestrator::builder(ctx()).build();
        assert!(matches!(no_tenants, Err(QueryError::InvalidTenantSpec(_))));
        let dup = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .tenant(TenantSpec::new("a", 2, 4))
            .build();
        assert!(matches!(dup, Err(QueryError::InvalidTenantSpec(_))));
        let bad_scale = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .scaling(ScalingSpec::new(8, 2))
            .build();
        assert!(matches!(bad_scale, Err(QueryError::InvalidScalingSpec(_))));
        let zero_cap = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .capacity(0)
            .build();
        assert!(matches!(zero_cap, Err(QueryError::InvalidAdmissionLimit)));
    }

    #[test]
    fn serves_unknown_tenants_a_typed_error_and_known_ones_their_rows() {
        let orch = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .build()
            .unwrap();
        assert!(matches!(
            orch.serve_as("nobody", &query()),
            Err(QueryError::UnknownTenant(_))
        ));
        let want = ctx().prepare(&query()).unwrap().run().unwrap();
        let served = orch.serve_as("a", &query()).unwrap();
        assert_eq!(served.result.rows(false), want.rows(false));
        assert_eq!(served.result.cost.edge_totals, want.cost.edge_totals);
        let stats = orch.stats();
        assert_eq!(stats[0].served, 1);
        assert_eq!(stats[0].recovered, 0);
    }

    #[test]
    fn injected_faults_recover_bit_identically_and_are_logged() {
        let orch = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .build()
            .unwrap();
        let want = orch.serve_as("a", &query()).unwrap(); // fault-free
        let victim = orch.service().context().tree().compute_nodes()[1];
        orch.inject_faults(FaultPlan::new().kill_worker(victim, 0))
            .unwrap();
        let recovered = orch.serve_as("a", &query()).unwrap();
        assert_eq!(recovered.result.rows(false), want.result.rows(false));
        assert_eq!(
            recovered.result.cost.edge_totals,
            want.result.cost.edge_totals
        );
        let recs = orch.recovery_events();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].fault.node, victim);
        assert_eq!(recs[0].attempt, 1);
        // No checkpointing configured: the successful replay ran from
        // scratch and the bookkeeping says so.
        assert_eq!(recs[0].resumed_from, None);
        assert_eq!(recs[0].skipped_supersteps, 0);
        assert_eq!(
            recs[0].replayed_supersteps,
            Some(recovered.result.supersteps)
        );
        let fired = orch.fault_events();
        assert_eq!(
            fired,
            vec![FaultEvent {
                node: victim,
                round: 0,
                kind: FaultKind::WorkerKilled
            }]
        );
        assert_eq!(orch.stats()[0].recovered, 1);
    }

    #[test]
    fn invalid_fault_targets_are_typed_errors_not_silent_noops() {
        let orch = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .build()
            .unwrap();
        // star(4): node 4 is the hub — a router with no worker to kill.
        let hub = tamp_topology::NodeId(4);
        let err = orch
            .inject_faults(FaultPlan::new().kill_worker(hub, 0))
            .unwrap_err();
        assert!(matches!(err, QueryError::InvalidFaultTarget(_)), "{err}");
        assert!(err.to_string().contains("router"), "{err}");
        // Nothing was armed: the next serve runs fault-free.
        let served = orch.serve_as("a", &query()).unwrap();
        assert!(orch.fault_events().is_empty());
        assert!(!served.result.rows(false).is_empty());
    }

    #[test]
    fn recovery_exhausts_after_exactly_max_attempts() {
        let orch = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .retry(RetryPolicy::new(3))
            .build()
            .unwrap();
        let victim = orch.service().context().tree().compute_nodes()[0];
        // Queue more kill plans than the policy allows attempts: the
        // query must give up after exactly 3 executions, leaving no
        // armed plan behind to poison the next query.
        for _ in 0..5 {
            orch.inject_faults(FaultPlan::new().kill_worker(victim, 0))
                .unwrap();
        }
        let err = orch.serve_as("a", &query()).unwrap_err();
        match err {
            QueryError::RecoveryExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, QueryError::FaultInjected { .. }));
            }
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
        assert_eq!(orch.recovery_events().len(), 3);
        assert_eq!(orch.fault_events().len(), 3);
        // The two surplus plans were dropped with the failed query.
        let served = orch.serve_as("a", &query()).unwrap();
        assert!(!served.result.rows(false).is_empty());
        assert_eq!(orch.fault_events().len(), 3, "no leaked fault plans");
    }

    #[test]
    fn checkpointed_recovery_replays_strictly_fewer_supersteps() {
        // A multi-round query (aggregate + order_by) with checkpoints
        // every superstep: a kill late in the schedule must resume from
        // the last boundary and replay strictly fewer supersteps than a
        // whole-query replay — asserted from the RecoveryEvent, with rows
        // and edge_totals bit-identical to the fault-free run.
        let q = LogicalPlan::scan("t")
            .aggregate("g", AggFunc::Sum, "x")
            .order_by("sum_x");
        let orch = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .checkpoints(1)
            .build()
            .unwrap();
        let want = orch.serve_as("a", &q).unwrap();
        let total = want.result.supersteps;
        assert!(total >= 3, "need a multi-superstep schedule, got {total}");

        let victim = orch.service().context().tree().compute_nodes()[2];
        let kill_round = total - 2; // late: several boundaries behind it
        orch.inject_faults(FaultPlan::new().kill_worker(victim, kill_round))
            .unwrap();
        let recovered = orch.serve_as("a", &q).unwrap();
        assert_eq!(recovered.result.rows(false), want.result.rows(false));
        assert_eq!(
            recovered.result.cost.edge_totals,
            want.result.cost.edge_totals
        );
        let recs = orch.recovery_events();
        assert_eq!(recs.len(), 1);
        let rec = &recs[0];
        assert_eq!(rec.resumed_from, Some(kill_round));
        assert_eq!(rec.skipped_supersteps, kill_round);
        assert_eq!(rec.replayed_supersteps, Some(total - kill_round));
        assert!(
            rec.replayed_supersteps.unwrap() < total,
            "partial restart must replay strictly fewer supersteps than full replay"
        );
        let cp = orch.checkpoint_stats().unwrap();
        assert_eq!((cp.saved, cp.resumed, cp.retained), (1, 1, 0));
        assert_eq!(orch.stats()[0].supersteps_skipped, kill_round as u64);
    }

    #[test]
    fn checkpoint_resume_is_deterministic_across_strategy_paths() {
        // Exchange emission must be byte-identical across executions of
        // the same pinned plan (`drain_sorted` in the strategies):
        // otherwise the schedule-content checkpoint token differs per
        // attempt and the retry can never consume the snapshot its own
        // faulted run parked. A self-join and a grouped aggregate cover
        // the map-grouped emission paths; each must *resume*, not
        // merely recover.
        let plans = [
            LogicalPlan::scan("t").join_on(LogicalPlan::scan("t"), "id", "id"),
            LogicalPlan::scan("t")
                .aggregate("g", AggFunc::Sum, "x")
                .order_by("sum_x"),
        ];
        for q in plans {
            let orch = Orchestrator::builder(ctx())
                .tenant(TenantSpec::new("a", 1, 4))
                .checkpoints(1)
                .build()
                .unwrap();
            let want = orch.serve_as("a", &q).unwrap();
            let total = want.result.supersteps;
            if total < 2 {
                continue; // no boundary can sit behind the kill
            }
            let victim = orch.service().context().tree().compute_nodes()[0];
            orch.inject_faults(FaultPlan::new().kill_worker(victim, total - 1))
                .unwrap();
            let recovered = orch.serve_as("a", &q).unwrap();
            assert_eq!(recovered.result.rows(false), want.result.rows(false));
            assert_eq!(
                recovered.result.cost.edge_totals,
                want.result.cost.edge_totals
            );
            let recs = orch.recovery_events();
            let rec = recs.last().unwrap();
            assert_eq!(
                rec.resumed_from,
                Some(total - 1),
                "retry must hit the parked snapshot (token-stable schedule) for {q:?}"
            );
            let cp = orch.checkpoint_stats().unwrap();
            assert_eq!((cp.saved, cp.resumed, cp.retained), (1, 1, 0));
        }
    }

    #[test]
    fn scaling_events_replay_deterministically() {
        // min 1, aggressive targets and zero cooldown: a thread burst
        // must grow the crew, and the drain must shrink it back.
        let orch = Arc::new(
            Orchestrator::builder(ctx())
                .tenant(TenantSpec::new("a", 1, 64))
                .scaling(
                    ScalingSpec::new(1, 8)
                        .with_target_queue_depth(1)
                        .with_cooldown(0),
                )
                .capacity(4)
                .build()
                .unwrap(),
        );
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let orch = Arc::clone(&orch);
                scope.spawn(move || orch.serve_as("a", &query()).unwrap());
            }
        });
        // Serial tail with an empty queue: gives shrink a chance to fire.
        for _ in 0..4 {
            orch.serve_as("a", &query()).unwrap();
        }
        let events = orch.scaling_events();
        assert!(!events.is_empty(), "burst should trigger scaling");
        let spec = orch.scaling_spec().unwrap();
        for e in &events {
            assert_eq!(
                decide(spec, &e.observation),
                (e.decision, e.reason),
                "event log must replay: {e:?}"
            );
            let width = match e.decision {
                ScaleDecision::Grow(w) | ScaleDecision::Shrink(w) => w,
                ScaleDecision::Hold => unreachable!("only resizes are logged"),
            };
            assert!((spec.min..=spec.max).contains(&width));
        }
    }

    #[test]
    fn stats_report_all_tenants_with_percentiles() {
        let orch = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("fast", 4, 8).with_priority(Priority::Interactive))
            .tenant(TenantSpec::new("slow", 1, 8))
            .build()
            .unwrap();
        for _ in 0..5 {
            orch.serve_as("fast", &query()).unwrap();
        }
        orch.serve_as("slow", &query()).unwrap();
        let stats = orch.stats();
        assert_eq!(stats.len(), 2);
        let fast = &stats[0];
        assert_eq!((fast.served, fast.weight), (5, 4));
        assert_eq!(fast.priority, Priority::Interactive);
        assert!(fast.queue_p50 <= fast.queue_p99);
        assert_eq!(fast.cache_hits, 4); // first serve was the miss
        assert_eq!(stats[1].served, 1);
    }

    #[test]
    fn wait_histogram_is_constant_size_and_within_one_bucket_of_exact() {
        // Bucket arithmetic: contiguous, monotone, and `floor_of` is the
        // inverse of `bucket` over the whole `u64` range.
        assert_eq!(WaitHistogram::bucket(u64::MAX) + 1, WaitHistogram::BUCKETS);
        for b in 0..WaitHistogram::BUCKETS {
            let lo = WaitHistogram::floor_of(b);
            assert_eq!(WaitHistogram::bucket(lo), b);
            assert!(b == 0 || WaitHistogram::bucket(lo - 1) == b - 1);
        }
        let mut h = WaitHistogram::default();
        assert_eq!(h.percentile(99), Duration::ZERO);
        // 1M waits from a seeded LCG, log-uniform over ~1 µs‥1 s: the
        // structure is a fixed array (no heap, same size before and
        // after), and every reported quantile sits within one bucket of
        // the exact nearest-rank one.
        let before = std::mem::size_of_val(&h);
        let mut exact = Vec::with_capacity(1_000_000);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1_000_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let us = (x >> 33) >> ((x >> 8) % 30);
            h.record(Duration::from_micros(us));
            exact.push(us);
        }
        assert_eq!(std::mem::size_of_val(&h), before);
        assert_eq!(h.total, 1_000_000);
        exact.sort_unstable();
        for p in [0, 50, 90, 99, 100] {
            let want = exact[(exact.len() - 1) * p as usize / 100];
            let got = h.percentile(p).as_micros() as u64;
            let (wb, gb) = (WaitHistogram::bucket(want), WaitHistogram::bucket(got));
            assert!(wb.abs_diff(gb) <= 1, "p{p}: exact {want} vs reported {got}");
            assert!(got <= want, "a quantile is reported as its bucket's floor");
        }
        assert!(h.percentile(50) <= h.percentile(99));
    }

    #[test]
    fn every_attempt_runs_on_the_generation_pinned_at_admission() {
        // Drive the shared loop with an attempt that swaps the serving
        // generation — a `degrade_link` re-weights the live tree — and
        // then fails recoverably. The retry must still see the tree the
        // query was admitted on: re-reading `service.context()` per
        // attempt would meter the retry against different weights than
        // the ledger a checkpoint resumes.
        let orch = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .build()
            .unwrap();
        let admitted_on = orch.service().context().tree().fingerprint();
        let victim = orch.service().context().tree().compute_nodes()[0];
        let mut seen = Vec::new();
        let (attempts, stats) = orch
            .serve_with(
                "a",
                |pinned| Ok((pinned.ctx.tree().fingerprint(), false)),
                |pinned, prepared_on| {
                    seen.push(pinned.ctx.tree().fingerprint());
                    assert_eq!(seen.last(), Some(prepared_on));
                    if seen.len() == 1 {
                        orch.degrade_link(EdgeId(0), 4.0).unwrap();
                        return Err(QueryError::FaultInjected {
                            node: victim,
                            round: 0,
                        });
                    }
                    Ok(seen.len())
                },
                |_| (1, None),
            )
            .unwrap();
        assert_eq!(attempts, 2);
        assert_eq!(seen, vec![admitted_on, admitted_on]);
        // The swap did land — on the *next* query's generation.
        assert_ne!(orch.service().context().tree().fingerprint(), admitted_on);
        assert!(!stats.cache_hit);
        let recs = orch.recovery_events();
        assert_eq!(recs.len(), 1);
        assert_eq!((recs[0].attempt, recs[0].fault.node), (1, victim));
        assert_eq!(recs[0].replayed_supersteps, Some(1));
        assert_eq!(orch.stats()[0].recovered, 1);
    }

    /// A 6-cycle over the star's leaves (every vertex pair of adjacent
    /// owners exchanges), usable against the `ctx()` topology.
    fn cycle_graph(ctx: &QueryContext) -> (Vec<(u64, u64)>, Vec<NodeId>) {
        let vc = ctx.tree().compute_nodes().to_vec();
        let n = 6u64;
        let mut arcs = Vec::new();
        for u in 0..n {
            arcs.push((u, (u + 1) % n));
            arcs.push(((u + 1) % n, u));
        }
        let owners = (0..n).map(|u| vc[(u % 3) as usize]).collect();
        (arcs, owners)
    }

    #[test]
    fn serves_iterative_jobs_as_batch_sessions() {
        let c = ctx();
        let (arcs, owners) = cycle_graph(&c);
        let job = IterativeJob::bfs(
            arcs,
            owners,
            0,
            crate::iterative::IterativeSpec::frontier(10, 0.0),
        );
        let want = job.prepare(c.tree()).unwrap();

        let orch = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("graphs", 1, 4).with_priority(Priority::Batch))
            .build()
            .unwrap();
        assert!(matches!(
            orch.serve_iterative("nobody", &job),
            Err(QueryError::UnknownTenant(_))
        ));
        let served = orch.serve_iterative("graphs", &job).unwrap();
        // Bit-identical to a standalone run of the same prepared job.
        let standalone = want.run(c.tree()).unwrap();
        assert_eq!(served.outcome.values, standalone.values);
        assert_eq!(served.outcome.cost.edge_totals, standalone.cost.edge_totals);
        // The first serve prepares the fixpoint, the second finds it in
        // the plan cache — and replays to the same result.
        assert!(!served.stats.cache_hit, "first serve is the miss");
        let again = orch.serve_iterative("graphs", &job).unwrap();
        assert!(again.stats.cache_hit, "second serve is a hit");
        assert_eq!(again.outcome.values, standalone.values);
        assert_eq!(again.outcome.iterations, standalone.iterations);
        assert_eq!(again.outcome.cost.edge_totals, standalone.cost.edge_totals);
        let cache = orch.service().cache_stats();
        assert_eq!((cache.hits, cache.misses, cache.entries), (1, 1, 1));
        let stats = orch.stats();
        assert_eq!((stats[0].served, stats[0].cache_hits), (2, 1));
        assert_eq!(stats[0].priority, Priority::Batch);
        assert_eq!(stats[0].iteration_limits, 0);
    }

    #[test]
    fn iteration_limits_roll_up_per_tenant() {
        let c = ctx();
        let (arcs, owners) = cycle_graph(&c);
        // BFS around the cycle needs 4 iterations; cap at 1.
        let job = IterativeJob::bfs(
            arcs,
            owners,
            0,
            crate::iterative::IterativeSpec::frontier(1, 0.0),
        );
        let orch = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("graphs", 1, 4).with_priority(Priority::Batch))
            .build()
            .unwrap();
        let err = orch.serve_iterative("graphs", &job).unwrap_err();
        assert!(matches!(err, QueryError::IterationLimit { limit: 1, .. }));
        let err = orch.serve_iterative("graphs", &job).unwrap_err();
        assert!(matches!(err, QueryError::IterationLimit { .. }));
        let stats = orch.stats();
        assert_eq!(stats[0].iteration_limits, 2);
        assert_eq!(stats[0].served, 0, "non-converged jobs are not served");
        let cache = orch.service().cache_stats();
        assert_eq!(
            (cache.hits, cache.misses, cache.entries),
            (0, 2, 0),
            "a failed prepare is redone every time and takes no cache slot"
        );
        assert_eq!(
            orch.recovery_events().len(),
            0,
            "non-convergence is not a fault and is never retried"
        );
    }
}
