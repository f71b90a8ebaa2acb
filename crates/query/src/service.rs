//! The serving layer: one [`QueryService`] fronting many client
//! sessions, from a plain one-tenant service to weighted-fair tenants on
//! one fixed worker crew with fault injection and replay recovery.
//!
//! [`QueryContext`] is a single-session API: one caller prepares one plan
//! and runs it. A serving deployment looks different — many clients fire
//! queries at one shared catalog and one shared [`ExecBackend`], most of
//! the queries are repeats, and planning cost should be paid once, not
//! per request. `QueryService` is that layer:
//!
//! - **Prepared-plan cache.** One cache, two kinds of prepared plan. A
//!   relational plan is keyed on `(tree topology, catalog version,
//!   session options, logical plan)`; a hit skips validation, lowering
//!   and candidate pricing. A fixpoint ([`crate::iterative`]) is keyed on
//!   `(tree topology, catalog version, job fingerprint)` and what is
//!   cached is the replay-ready job: a hit skips the whole local
//!   fixpoint, and the entry's footprint is its schedule. Both kinds
//!   share the hit guard (stored logical form + catalog version), the
//!   LRU bound and the counters
//!   ([`cache_stats`](QueryService::cache_stats)). Invalidation is global
//!   until per-table versions (ROADMAP 5(b)):
//!   [`register`](QueryService::register) and
//!   [`register_strategy`](QueryService::register_strategy) clear every
//!   entry, and the topology fingerprint in the key guarantees that a
//!   re-weighted tree re-prices a fixpoint's `estimated` /
//!   `lower_bound` columns.
//! - **One gate, one serve loop.** In-flight queries are bounded by the
//!   serving stack's one gate ([`crate::admission`]). A plain service
//!   ([`new`](QueryService::new),
//!   [`with_max_inflight`](QueryService::with_max_inflight)) gives it a
//!   single implicit tenant, so waiting queries are admitted in arrival
//!   order. A service from [`QueryService::builder`] admits its declared
//!   tenants by weighted-fair round-robin, runs on one fixed shared crew
//!   ([`PooledClusterBackend::with_shared_pool`]) and recovers by
//!   replay; there [`serve`](QueryService::serve) admits as the first
//!   tenant. Every way in — `serve`, [`serve_as`](QueryService::serve_as),
//!   [`serve_iterative`](QueryService::serve_iterative) — runs the same
//!   loop: admit, pin the snapshot, plan through the cache, execute,
//!   and (built services only) replay the pinned schedule after a
//!   recoverable fault, reporting queue / plan / exec timings in its
//!   [`ServiceStats`].
//!
//! The guarantees, and where they come from:
//!
//! - **Bit-identical to single-session execution.** A query served
//!   concurrently through the cache returns the same rows and the same
//!   metered `edge_totals` as a fresh
//!   [`QueryContext::prepare`]`().run()` — the serving stress suite
//!   asserts exactly that.
//! - **No starvation.** Deficit-weighted round-robin within strict
//!   priority classes bounds the foreign grants a backlogged tenant
//!   waits through ([`crate::admission`]), whatever a burst queues.
//! - **Bit-identical recovery.** Queries compile to deterministic
//!   exchange schedules, so after an injected fault
//!   ([`inject_faults`](QueryService::inject_faults) → a recoverable
//!   [`QueryError::Exec`], such as
//!   [`RuntimeError::InjectedFault`])
//!   the service simply re-executes the schedule on the (auto-disarmed,
//!   hence healthy) crew: rows *and* metered `edge_totals` equal the
//!   fault-free run by construction. The crew is fixed for the
//!   service's lifetime: a round's price `max_e |Y_i(e)|/w_e` does not
//!   depend on how many threads replay it, so nothing resizes it. One
//!   killed attempt is one [`RecoveryEvent`], whose `faults` name every
//!   node the fault felled.
//!
//! # A multi-threaded session
//!
//! ```
//! use std::sync::Arc;
//! use tamp_query::prelude::*;
//! use tamp_query::service::QueryService;
//! use tamp_runtime::SimulatorBackend;
//! use tamp_topology::builders;
//!
//! let mut ctx = QueryContext::new(builders::star(4, 1.0)).with_seed(7);
//! let rows: Vec<Vec<u64>> = (0..120).map(|i| vec![i, i % 5, i * 3]).collect();
//! ctx.register(DistributedTable::round_robin(
//!     "t",
//!     Schema::new(vec!["id", "g", "x"]).unwrap(),
//!     rows,
//!     ctx.tree(),
//! ))
//! .unwrap();
//!
//! let service = QueryService::new(ctx, Arc::new(SimulatorBackend))
//!     .with_max_inflight(4)
//!     .unwrap();
//! let q = LogicalPlan::scan("t").aggregate("g", AggFunc::Sum, "x");
//!
//! // Serial reference, for comparison — and the warm-up serve that
//! // populates the plan cache.
//! let want = service.context().prepare(&q).unwrap().run().unwrap().rows(false);
//! assert!(!service.serve(&q).unwrap().stats.cache_hit);
//!
//! // Four client threads hammer the same query through the service.
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let (service, q, want) = (&service, &q, &want);
//!         scope.spawn(move || {
//!             for _ in 0..8 {
//!                 let served = service.serve(q).unwrap();
//!                 assert!(served.stats.cache_hit);
//!                 assert_eq!(&served.result.rows(false), want);
//!             }
//!         });
//!     }
//! });
//!
//! let stats = service.cache_stats();
//! assert_eq!((stats.hits, stats.misses), (32, 1));
//! ```
//!
//! [`PooledClusterBackend::with_shared_pool`]:
//!     tamp_runtime::PooledClusterBackend::with_shared_pool

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use tamp_runtime::backend::{ExecBackend, SimulatorBackend};
use tamp_runtime::{
    CheckpointSpec, CheckpointStats, CheckpointStore, ExecError, FaultEvent, FaultInjector,
    FaultKind, FaultPlan, PooledClusterBackend, RuntimeError,
};

use crate::admission::{Priority, TenantSpec, WeightedAdmission};
use crate::context::QueryContext;
use crate::error::QueryError;
use crate::exec::{self, ExecOptions, QueryResult};
use crate::iterative::{IterativeJob, IterativeOutcome, PreparedIterative};
use crate::lock_ok;
use crate::physical::strategy::PhysicalStrategy;
use crate::physical::{self, PhysicalPlan};
use crate::plan::LogicalPlan;
use crate::table::DistributedTable;

/// One immutable generation of the service's session state. A query
/// takes the snapshot once and plans, executes — and, on a built
/// service, retries — against it even if a concurrent `register` (or,
/// in tests, `degrade_link`) swaps in the next generation: that pinning
/// is what makes recovered results bit-identical by construction.
#[derive(Clone)]
struct Snapshot {
    ctx: Arc<QueryContext>,
    version: u64,
    /// Fingerprint of the snapshot's topology (weights included): part
    /// of the plan-cache key, so an in-place bandwidth mutation can never
    /// serve a plan priced on the healthy network.
    tree_fp: u64,
}

/// A prepared plan of either kind, next to the exact logical form it was
/// prepared from: the fingerprint key is 64 bits, so the stored form
/// (with the slot's catalog version) rules out collisions on lookup.
enum Entry {
    Plan(LogicalPlan, ExecOptions, Arc<PhysicalPlan>),
    Fixpoint(IterativeJob, Arc<PreparedIterative>),
}

/// One plan-cache slot.
struct CacheSlot {
    entry: Entry,
    /// The catalog version the entry was prepared against — part of the
    /// hit guard, so a key collision across versions can never serve a
    /// plan priced on stale statistics.
    version: u64,
    /// Recency tick for eviction at [`PLAN_CACHE_CAPACITY`].
    last_used: u64,
}

/// Upper bound on cached prepared plans, both kinds together. A serving
/// workload is repetition-heavy, so steady state is far below this; the
/// cap only protects a long-lived service against a stream of
/// never-repeating ad-hoc plans growing memory without bound. On
/// overflow the least-recently-used entry is evicted.
const PLAN_CACHE_CAPACITY: usize = 1024;

#[derive(Default)]
struct PlanCache {
    entries: HashMap<u64, CacheSlot>,
    /// Monotonic use counter backing LRU eviction.
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl PlanCache {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Point-in-time plan-cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries served from a cached prepared plan.
    pub hits: u64,
    /// Queries that had to lower and price their plan.
    pub misses: u64,
    /// Cache invalidation events (`register` / `register_strategy`).
    pub invalidations: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// Admission-gate counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries admitted so far (equals issued tickets once the queue
    /// drains).
    pub admitted: u64,
    /// The highest number of queries ever in flight together.
    pub peak_inflight: usize,
    /// The configured bound.
    pub max_inflight: usize,
}

/// Per-query serving telemetry, returned with every result.
#[derive(Clone, Copy, Debug)]
pub struct ServiceStats {
    /// Grant sequence number — arrival order through a plain
    /// [`QueryService`], DRR grant order through a built one.
    pub ticket: u64,
    /// Time spent waiting for admission.
    pub queued: Duration,
    /// Time spent planning (≈0 on a cache hit).
    pub plan: Duration,
    /// Time spent computing fragments and replaying the exchange
    /// schedule on the backend — the successful attempt only: attempts
    /// killed by a fault are not counted.
    pub exec: Duration,
    /// Whether the prepared plan came from the cache.
    pub cache_hit: bool,
}

/// A served query: the ordinary [`QueryResult`] plus serving telemetry.
#[derive(Clone, Debug)]
pub struct ServedQuery {
    /// The query's result — bit-identical to single-session execution.
    pub result: QueryResult,
    /// Queue/plan/exec timings and cache provenance.
    pub stats: ServiceStats,
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

/// One tenant's running record: its report's counters and totals, kept
/// in place, and the queue-wait histogram its percentiles are read from.
struct TenantRow {
    queue: WaitHistogram,
    stats: TenantStats,
}

/// A fresh row per tenant of `admission`.
fn tenant_rows(admission: &WeightedAdmission) -> Mutex<Vec<TenantRow>> {
    let rows = admission.specs().iter().map(|spec| TenantRow {
        queue: WaitHistogram::default(),
        stats: TenantStats {
            tenant: spec.name.clone(),
            weight: spec.weight,
            priority: spec.priority,
            ..TenantStats::default()
        },
    });
    Mutex::new(rows.collect())
}

/// Bound for replay recovery. `max_attempts` counts *total executions*
/// (initial run included), so an adversarial re-arming loop terminates
/// with a typed [`QueryError::RecoveryExhausted`] after exactly
/// `max_attempts` failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed per query (floored at 1). A retry
    /// replays at once: the healthy crew is the recovery, there is
    /// nothing to wait out.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // One initial run plus four recoveries.
        RetryPolicy { max_attempts: 5 }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total executions (floored at 1).
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
        }
    }
}

/// A crew width as a `(min, max)` pair for [`ServiceBuilder::scaling`]:
/// the crew never resizes, so any pair but `min == max` is width 0. Kept
/// while the benchmark harness builds with it; new code calls `crew`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScalingSpec {
    min: usize,
    max: usize,
}

impl ScalingSpec {
    /// A crew of `min` workers if `min == max`.
    pub fn new(min: usize, max: usize) -> Self {
        ScalingSpec { min, max }
    }
}

/// One execution attempt killed by a recoverable fault, in arrival
/// order. The replay bookkeeping fields (`resumed_from`,
/// `replayed_supersteps`) describe the *following* attempt and are
/// filled in when it succeeds; they stay empty if
/// that attempt also faulted (the next fault gets its own event) or
/// recovery was exhausted.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// The tenant whose query was hit.
    pub tenant: String,
    /// The query's admission ticket.
    pub ticket: u64,
    /// What killed the attempt, as its error names it: one event per
    /// worker killed in the superstep (ascending node id), or the one
    /// straggler, or the degraded link's deeper endpoint.
    pub faults: Vec<FaultEvent>,
    /// 1-based execution attempt that the fault killed.
    pub attempt: u32,
    /// Checkpoint superstep the successful replay resumed from (`None`
    /// for a from-scratch replay): the supersteps before it were
    /// skipped.
    pub resumed_from: Option<usize>,
    /// Supersteps the successful replay actually executed (the total
    /// less `resumed_from`); with checkpointing enabled this is strictly
    /// fewer than a whole-query replay whenever a snapshot existed.
    pub replayed_supersteps: Option<usize>,
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

/// Per-tenant serving report returned by
/// [`QueryService::tenant_stats`].
#[derive(Clone, Debug, Default)]
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
    timeouts: u64,
    /// Supersteps this tenant's replays skipped thanks to checkpoint
    /// resume (0 without checkpointing).
    pub supersteps_skipped: u64,
    /// Served queries and fixpoint jobs whose plan came from the cache.
    pub cache_hits: u64,
    /// Iterative jobs rejected because their fixpoint failed to converge
    /// within `max_iters` ([`QueryError::IterationLimit`]). These are
    /// deterministic non-convergences, not faults: they are never
    /// retried.
    iteration_limits: u64,
    /// Median queue wait across served queries (from a log-bucket
    /// histogram: within 25 % below the exact value).
    pub queue_p50: Duration,
    /// 99th-percentile queue wait across served queries (same
    /// resolution; never below `queue_p50`).
    pub queue_p99: Duration,
    /// Largest number of foreign grants any of this tenant's queries
    /// waited through — the structural no-starvation bound.
    pub max_waited_grants: u64,
}

/// Builder for a multi-tenant [`QueryService`] (see
/// [`QueryService::builder`]): declare tenants, the crew width, the
/// admission capacity and the recovery hooks, then
/// [`build`](Self::build).
pub struct ServiceBuilder {
    ctx: QueryContext,
    tenants: Vec<TenantSpec>,
    crew: Option<usize>,
    capacity: Option<usize>,
    retry: RetryPolicy,
    checkpoint_every: Option<usize>,
    superstep_deadline: Option<Duration>,
}

impl ServiceBuilder {
    /// Declare one tenant (builder-style).
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Serve on a fixed crew of `width` workers. Without it the crew is
    /// as wide as the machine's available parallelism; a width of 0 is
    /// refused by [`build`](Self::build).
    pub fn crew(mut self, width: usize) -> Self {
        self.crew = Some(width);
        self
    }

    /// [`crew`](Self::crew) from a `(min, max)` pair (see
    /// [`ScalingSpec`]).
    pub fn scaling(self, spec: ScalingSpec) -> Self {
        self.crew(if spec.min == spec.max { spec.min } else { 0 })
    }

    /// Global concurrent-queries bound across all tenants (defaults to
    /// the crew width, floored at 2).
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Replay-recovery bound (default: [`RetryPolicy::default`], five
    /// total executions).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Enable superstep checkpointing: replay recovery resumes from the
    /// last `every`-th superstep boundary the aborted run passed instead
    /// of superstep 0 (floored at 1; see [`tamp_runtime::CheckpointSpec`]).
    pub fn checkpoints(mut self, every: usize) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Arm the superstep watchdog: a superstep exceeding `deadline`
    /// aborts with a recoverable
    /// [`RuntimeError::SuperstepTimeout`] naming the straggler, which the
    /// recovery loop replays (and counts per tenant).
    pub fn superstep_deadline(mut self, deadline: Duration) -> Self {
        self.superstep_deadline = Some(deadline);
        self
    }

    /// Validate every spec and assemble the service: a
    /// [`FaultInjector`], a [`PooledClusterBackend`] on one fixed shared
    /// crew wired to it (and to a [`CheckpointStore`] if asked), and a
    /// [`QueryService`] over that backend that admits through the
    /// tenants' gate and recovers by replay.
    ///
    /// No tenant, or a duplicate or invalid one, is a
    /// [`QueryError::InvalidTenantSpec`]; a crew width of 0 is the
    /// runtime's [`RuntimeError::InvalidPoolWidth`], as for a
    /// `"cluster:0"` backend spec; a capacity of 0 is
    /// [`QueryError::InvalidAdmissionLimit`].
    pub fn build(self) -> Result<QueryService, QueryError> {
        if self.tenants.is_empty() {
            return Err(QueryError::InvalidTenantSpec(
                "a multi-tenant service needs at least one tenant".into(),
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
        let width = self.crew.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        });
        if width == 0 {
            let spec = "crew:0".into();
            return Err(RuntimeError::InvalidPoolWidth { spec }.into());
        }
        if self.capacity == Some(0) {
            return Err(QueryError::InvalidAdmissionLimit);
        }
        let capacity = self.capacity.unwrap_or_else(|| width.max(2));
        let injector = Arc::new(FaultInjector::new());
        let mut backend = PooledClusterBackend::with_shared_pool(width)
            .with_fault_injector(Arc::clone(&injector));
        backend.options.superstep_deadline = self.superstep_deadline;
        let checkpoints = self
            .checkpoint_every
            .map(|_| Arc::new(CheckpointStore::new()));
        if let (Some(store), Some(every)) = (&checkpoints, self.checkpoint_every) {
            backend = backend.with_checkpoints(Arc::clone(store), CheckpointSpec::every(every));
        }
        let mut service = QueryService::new(self.ctx, Arc::new(backend))
            .with_gate(WeightedAdmission::new(capacity, self.tenants));
        service.retry = RetryPolicy::new(self.retry.max_attempts);
        service.injector = Some(injector);
        service.checkpoints = checkpoints;
        Ok(service)
    }
}

/// A thread-safe query-serving layer: shared catalog, shared backend,
/// prepared-plan cache, one admission gate and, when built with
/// [`QueryService::builder`], tenants, fault hooks and replay recovery.
/// See the [module docs](self).
pub struct QueryService {
    snapshot: RwLock<Snapshot>,
    backend: Arc<dyn ExecBackend + Send + Sync>,
    cache: Mutex<PlanCache>,
    /// The serving stack's one gate.
    admission: WeightedAdmission,
    /// One row per tenant of the gate.
    tenants: Mutex<Vec<TenantRow>>,
    /// The recovery bound of a built service.
    retry: RetryPolicy,
    /// The crew's fault-arming point. `None` on a plain service, which
    /// arms nothing and returns every error as it is.
    injector: Option<Arc<FaultInjector>>,
    /// Parked superstep snapshots, when checkpointing is enabled.
    checkpoints: Option<Arc<CheckpointStore>>,
    /// Every replay recovery, in arrival order.
    recoveries: Mutex<Vec<RecoveryEvent>>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("backend", &self.backend.name())
            .field("tenants", &self.admission.specs().len())
            .field("catalog_version", &self.catalog_version())
            .field("cache", &self.cache_stats())
            .finish()
    }
}

impl QueryService {
    /// Wrap a session into a serving layer over `backend`. The context's
    /// catalog, options and strategy registry become the service's
    /// initial (version 0) state.
    pub fn new(ctx: QueryContext, backend: Arc<dyn ExecBackend + Send + Sync>) -> Self {
        let tree_fp = ctx.tree().fingerprint();
        let default_inflight = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2);
        let admission = WeightedAdmission::single_tenant(default_inflight);
        QueryService {
            snapshot: RwLock::new(Snapshot {
                ctx: Arc::new(ctx),
                version: 0,
                tree_fp,
            }),
            backend,
            cache: Mutex::new(PlanCache::default()),
            tenants: tenant_rows(&admission),
            admission,
            retry: RetryPolicy::default(),
            injector: None,
            checkpoints: None,
            recoveries: Mutex::new(Vec::new()),
        }
    }

    /// Start declaring a multi-tenant service over `ctx`: weighted-fair
    /// tenants on one fixed worker crew, with fault injection and replay
    /// recovery (see [`ServiceBuilder`]).
    ///
    /// ```
    /// use tamp_query::prelude::*;
    /// use tamp_topology::builders;
    ///
    /// let mut ctx = QueryContext::new(builders::star(4, 1.0)).with_seed(7);
    /// let rows: Vec<Vec<u64>> = (0..90).map(|i| vec![i, i % 4, i * 3]).collect();
    /// ctx.register(DistributedTable::round_robin(
    ///     "t",
    ///     Schema::new(vec!["id", "g", "x"]).unwrap(),
    ///     rows,
    ///     ctx.tree(),
    /// ))
    /// .unwrap();
    ///
    /// let service = QueryService::builder(ctx)
    ///     .tenant(TenantSpec::new("dashboards", 4, 16).with_priority(Priority::Interactive))
    ///     .tenant(TenantSpec::new("analysts", 2, 16))
    ///     .tenant(TenantSpec::new("batch", 1, 16))
    ///     .crew(2)
    ///     .build()
    ///     .unwrap();
    ///
    /// let q = LogicalPlan::scan("t").aggregate("g", AggFunc::Sum, "x");
    /// let served = service.serve_as("analysts", &q).unwrap();
    /// assert!(!served.result.rows(false).is_empty());
    /// let stats = service.tenant_stats();
    /// assert_eq!(stats.len(), 3);
    /// assert_eq!(stats.iter().find(|t| t.tenant == "analysts").unwrap().served, 1);
    /// ```
    pub fn builder(ctx: QueryContext) -> ServiceBuilder {
        ServiceBuilder {
            ctx,
            tenants: Vec::new(),
            crew: None,
            capacity: None,
            retry: RetryPolicy::default(),
            checkpoint_every: None,
            superstep_deadline: None,
        }
    }

    /// Admit through `admission` instead, with fresh per-tenant counters.
    fn with_gate(mut self, admission: WeightedAdmission) -> Self {
        self.tenants = tenant_rows(&admission);
        self.admission = admission;
        self
    }

    /// A service over the default centralized engine.
    pub fn with_default_backend(ctx: QueryContext) -> Self {
        QueryService::new(ctx, Arc::new(SimulatorBackend))
    }

    /// Builder-style: bound concurrent in-flight queries (the gate's
    /// capacity). Arrivals beyond the bound queue in arrival order.
    ///
    /// A bound of 0 is a typed [`QueryError::InvalidAdmissionLimit`]: a
    /// zero-slot gate could never admit a query, so it is rejected here
    /// instead of deadlocking the first submit.
    pub fn with_max_inflight(self, max_inflight: usize) -> Result<Self, QueryError> {
        if max_inflight == 0 {
            return Err(QueryError::InvalidAdmissionLimit);
        }
        Ok(self.with_gate(WeightedAdmission::single_tenant(max_inflight)))
    }

    /// The shared execution backend.
    pub fn backend(&self) -> &Arc<dyn ExecBackend + Send + Sync> {
        &self.backend
    }

    /// The current session snapshot (catalog + options + registry).
    /// In-flight queries keep the snapshot they started with; this
    /// returns the newest generation.
    pub fn context(&self) -> Arc<QueryContext> {
        self.snapshot().ctx
    }

    /// The catalog version: bumped by every
    /// [`register`](Self::register) /
    /// [`register_strategy`](Self::register_strategy), part of the plan
    /// cache key.
    pub fn catalog_version(&self) -> u64 {
        self.snapshot().version
    }

    /// Point-in-time plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let c = lock_ok(&self.cache);
        CacheStats {
            hits: c.hits,
            misses: c.misses,
            invalidations: c.invalidations,
            entries: c.entries.len(),
        }
    }

    /// Point-in-time admission counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        let (admitted, peak_inflight) = self.admission.granted_and_peak();
        AdmissionStats {
            admitted,
            peak_inflight,
            max_inflight: self.admission.capacity(),
        }
    }

    /// Register (or replace) a table: copy-on-write the session snapshot,
    /// bump the catalog version and invalidate the plan cache. In-flight
    /// queries finish against the snapshot they started with. Returns the
    /// new catalog version.
    pub fn register(&self, table: DistributedTable) -> Result<u64, QueryError> {
        self.update_snapshot(|ctx| ctx.register(table).map(|_| ()))
    }

    /// Register a custom physical strategy for every subsequent query
    /// (see [`crate::physical::strategy`]): copy-on-write, version bump
    /// and cache invalidation, like [`register`](Self::register).
    /// Returns the new catalog version.
    pub fn register_strategy(
        &self,
        strategy: Arc<dyn PhysicalStrategy>,
    ) -> Result<u64, QueryError> {
        self.update_snapshot(|ctx| {
            ctx.register_strategy(strategy);
            Ok(())
        })
    }

    /// Degrade one link of the serving topology: divide both directed
    /// bandwidths of `edge` by `factor`, copy-on-write like
    /// [`register`](Self::register) — catalog version bump, plan-cache
    /// invalidation (the topology fingerprint in the cache key moves, so
    /// even a colliding entry can never serve a stale-priced plan), and
    /// in-flight queries finishing on the snapshot they started with.
    /// Tests use it to move the topology under a running service.
    /// Returns the new catalog version.
    #[cfg(test)]
    fn degrade_link(&self, edge: tamp_topology::EdgeId, factor: f64) -> Result<u64, QueryError> {
        self.update_snapshot(|ctx| ctx.degrade_link(edge, factor))
    }

    /// Serve one query: admission → plan (cached) → execute on the shared
    /// backend. Blocks while the service is at its in-flight bound. On a
    /// built service this is the first declared tenant's
    /// [`serve_as`](Self::serve_as).
    ///
    /// The result is bit-identical (rows **and** metered `edge_totals`)
    /// to `QueryContext::prepare(plan)?.run_on(backend)` against the same
    /// catalog generation.
    pub fn serve(&self, plan: &LogicalPlan) -> Result<ServedQuery, QueryError> {
        self.serve_plan(0, plan)
    }

    /// Serve one query on behalf of `tenant`: weighted-fair admission →
    /// plan (cached) + execute, with replay recovery if an injected fault
    /// kills the run. An undeclared tenant is a typed
    /// [`QueryError::UnknownTenant`].
    ///
    /// Results are bit-identical (rows **and** metered `edge_totals`) to
    /// a fault-free single-session execution of the same plan.
    pub fn serve_as(&self, tenant: &str, plan: &LogicalPlan) -> Result<ServedQuery, QueryError> {
        self.serve_plan(self.admission.tenant_index(tenant)?, plan)
    }

    /// Serve one iterative fixpoint job (see [`crate::iterative`]) on
    /// behalf of `tenant`, through the same loop as relational queries:
    /// weighted-fair admission → plan (the local fixpoint, cached per
    /// job, tree and catalog generation) → schedule replay on the serving
    /// backend, with replay recovery if an injected fault kills the run:
    /// every retry replays the one pinned prepared job. With
    /// checkpointing enabled ([`ServiceBuilder::checkpoints`] at the
    /// job's `rounds_per_iteration`), a killed fixpoint resumes from the
    /// last iteration barrier instead of round 0.
    ///
    /// Iterative jobs are multi-round batch work: admit them under a
    /// [`Priority::Batch`] tenant so interactive queries keep jumping
    /// the queue. A fixpoint that does not converge surfaces as
    /// [`QueryError::IterationLimit`] — counted per tenant; it takes no
    /// cache slot and is
    /// never retried (replay would re-diverge identically).
    pub fn serve_iterative(
        &self,
        tenant: &str,
        job: &IterativeJob,
    ) -> Result<ServedIterative, QueryError> {
        let (outcome, stats) = self.serve_with(
            self.admission.tenant_index(tenant)?,
            |pinned| self.prepare_fixpoint_on(pinned, job),
            |pinned, prepared| prepared.run_on(pinned.ctx.tree(), &self.backend),
            |outcome: &IterativeOutcome| (outcome.supersteps, outcome.resumed_from),
        )?;
        Ok(ServedIterative { outcome, stats })
    }

    /// [`serve`](Self::serve) as tenant `tenant` of the gate.
    fn serve_plan(&self, tenant: usize, plan: &LogicalPlan) -> Result<ServedQuery, QueryError> {
        let (result, stats) = self.serve_with(
            tenant,
            |pinned| self.plan_on(pinned, plan),
            // Only the pinned generation is read, never the live state.
            |Snapshot { ctx, .. }, cached| {
                exec::run_physical(ctx.catalog(), cached, ctx.options(), &self.backend)
            },
            |result: &QueryResult| (result.supersteps, result.resumed_from),
        )?;
        Ok(ServedQuery { result, stats })
    }

    /// The one serve loop: admit → pin → `prepare` → `attempt` until it
    /// succeeds, an error ends it, or the [`RetryPolicy`] is exhausted →
    /// patch the replay bookkeeping (`replay_of` reads `(supersteps,
    /// resumed_from)` off the result) → roll up the tenant's counters.
    /// Only a built service retries, and only after a recoverable fault;
    /// each killed attempt logs one [`RecoveryEvent`] naming what its
    /// error names.
    ///
    /// The serving generation is pinned **once**: `prepare` and every
    /// `attempt` get the same [`Snapshot`], so each retry replays the
    /// same deterministic schedule on the same tree and catalog — and a
    /// checkpointed ledger resumes against the weights it was built on —
    /// even if a concurrent `register` swaps the serving
    /// generation mid-recovery. `prepare` also reports whether its plan
    /// came from the cache.
    ///
    /// The queue → plan → exec timeline is monotone by construction: each
    /// phase boundary is captured once and durations are taken between
    /// consecutive boundaries with `saturating_duration_since`, so a
    /// coarse or non-monotone platform clock can underflow none of them.
    /// `exec` is the successful attempt's.
    fn serve_with<P, T>(
        &self,
        tenant: usize,
        prepare: impl FnOnce(&Snapshot) -> Result<(P, bool), QueryError>,
        mut attempt: impl FnMut(&Snapshot, &P) -> Result<T, QueryError>,
        replay_of: impl FnOnce(&T) -> (usize, Option<usize>),
    ) -> Result<(T, ServiceStats), QueryError> {
        let grant = self.admission.acquire(tenant)?;
        {
            // The structural fairness metric: grants to other queries
            // between this one's enqueue and its own grant.
            let t = &mut lock_ok(&self.tenants)[tenant].stats;
            t.max_waited_grants = t.max_waited_grants.max(grant.waited_grants);
        }

        let planning = Instant::now();
        let pinned = self.snapshot();
        // Whatever ends the query early also drops any fault plan still
        // armed for it, instead of leaking it into the next, unrelated
        // execution.
        let fail = |e: QueryError| {
            if let Some(injector) = &self.injector {
                injector.clear_armed();
            }
            if matches!(e, QueryError::IterationLimit { .. }) {
                lock_ok(&self.tenants)[tenant].stats.iteration_limits += 1;
            }
            Err(e)
        };
        let (prepared, cache_hit) = match prepare(&pinned) {
            Ok(p) => p,
            Err(e) => return fail(e),
        };
        let mut executing = Instant::now();
        let plan = executing.saturating_duration_since(planning);

        let mut attempts = 1u32;
        let output = loop {
            let e = match attempt(&pinned, &prepared) {
                Ok(output) => break output,
                Err(e) => e,
            };
            let faults = match &e {
                QueryError::Exec(ExecError::Runtime(r)) => r.fault_events(pinned.ctx.tree()),
                _ => Vec::new(),
            };
            if self.injector.is_none() || faults.is_empty() {
                return fail(e);
            }
            if faults.iter().any(|f| f.kind == FaultKind::Straggler) {
                lock_ok(&self.tenants)[tenant].stats.timeouts += 1;
            }
            lock_ok(&self.recoveries).push(RecoveryEvent {
                tenant: self.admission.specs()[tenant].name.clone(),
                ticket: grant.ticket,
                faults,
                attempt: attempts,
                resumed_from: None,
                replayed_supersteps: None,
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
            // The faulted run consumed its armed plan (FIFO one-shot), so
            // this replay sees the next armed plan if the chaos schedule
            // re-armed, or a healthy crew.
            attempts += 1;
            executing = Instant::now();
        };
        let exec = Instant::now().saturating_duration_since(executing);

        let mut skipped = 0;
        if attempts > 1 {
            // Patch the replay bookkeeping onto this query's last fault
            // event, now that the successful attempt is known.
            let (supersteps, resumed_from) = replay_of(&output);
            skipped = resumed_from.unwrap_or(0);
            let mut recs = lock_ok(&self.recoveries);
            if let Some(last) = recs.iter_mut().rev().find(|r| r.ticket == grant.ticket) {
                last.resumed_from = resumed_from;
                last.replayed_supersteps = Some(supersteps - skipped);
            }
        }
        let row = &mut lock_ok(&self.tenants)[tenant];
        row.queue.record(grant.queued);
        let t = &mut row.stats;
        t.served += 1;
        t.recovered += u64::from(attempts > 1);
        t.supersteps_skipped += skipped as u64;
        t.cache_hits += u64::from(cache_hit);
        let stats = ServiceStats {
            ticket: grant.ticket,
            queued: grant.queued,
            plan,
            exec,
            cache_hit,
        };
        Ok((output, stats))
    }

    /// Arm a [`FaultPlan`] for the next query execution. Plans queue
    /// FIFO: arming several queues one per execution attempt, which is
    /// how the chaos harness re-arms faults across recovery retries.
    ///
    /// The plan is validated against the serving topology first — a
    /// kill/stall naming a router or out-of-range node, or a degrade
    /// naming an unknown edge, is a typed
    /// [`RuntimeError::InvalidFaultTarget`], never a silent no-op. A
    /// plain service has no crew to arm: it refuses every plan with
    /// [`QueryError::NoFaultHooks`].
    pub fn inject_faults(&self, plan: FaultPlan) -> Result<(), QueryError> {
        let injector = self.injector.as_ref().ok_or(QueryError::NoFaultHooks)?;
        plan.validate(self.context().tree())?;
        injector.arm(plan);
        Ok(())
    }

    /// Checkpoint counters (saved/resumed/retained), when checkpointing
    /// is enabled via [`ServiceBuilder::checkpoints`].
    pub fn checkpoint_stats(&self) -> Option<CheckpointStats> {
        self.checkpoints.as_ref().map(|store| store.stats())
    }

    /// Every attempt killed by a recoverable fault, in arrival order.
    pub fn recovery_events(&self) -> Vec<RecoveryEvent> {
        lock_ok(&self.recoveries).clone()
    }

    /// Per-tenant serving report, in declaration order: queue/plan/exec
    /// timings, p50/p99 queue time, fairness and recovery counters.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let rejected = self.admission.rejected();
        let rows = lock_ok(&self.tenants);
        let rows = rows.iter().zip(rejected);
        rows.map(|(row, rejected)| TenantStats {
            rejected,
            queue_p50: row.queue.percentile(50),
            queue_p99: row.queue.percentile(99),
            ..row.stats.clone()
        })
        .collect()
    }

    /// Render the query's `EXPLAIN` against the current snapshot — the
    /// session-layer rendering prefixed with the catalog version the plan
    /// was cached under. Uses (and warms) the plan cache; does not
    /// consume an admission slot.
    pub fn explain(&self, plan: &LogicalPlan) -> Result<String, QueryError> {
        let snapshot = self.snapshot();
        let (cached, _) = self.plan_on(&snapshot, plan)?;
        let text = cached.explain(snapshot.ctx.options().seed);
        Ok(format!("catalog v{}\n{text}", snapshot.version))
    }

    /// The newest generation of the session state.
    fn snapshot(&self) -> Snapshot {
        match self.snapshot.read() {
            Ok(s) => s.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    fn update_snapshot(
        &self,
        mutate: impl FnOnce(&mut QueryContext) -> Result<(), QueryError>,
    ) -> Result<u64, QueryError> {
        let version = {
            let mut s = match self.snapshot.write() {
                Ok(s) => s,
                Err(poisoned) => poisoned.into_inner(),
            };
            let mut ctx = (*s.ctx).clone();
            mutate(&mut ctx)?;
            // The mutation may have re-weighted the topology in place
            // (degrade_link): refresh the fingerprint with the version.
            s.tree_fp = ctx.tree().fingerprint();
            s.ctx = Arc::new(ctx);
            s.version += 1;
            s.version
        };
        let mut cache = lock_ok(&self.cache);
        cache.entries.clear();
        cache.invalidations += 1;
        Ok(version)
    }

    /// Plan `plan` against `snapshot` through the cache, lowering (and
    /// inserting) on a miss. Returns the shared prepared plan and whether
    /// it was a hit.
    fn plan_on(
        &self,
        snapshot: &Snapshot,
        plan: &LogicalPlan,
    ) -> Result<(Arc<PhysicalPlan>, bool), QueryError> {
        let ctx = &snapshot.ctx;
        let options = ctx.options();
        self.through_cache(
            snapshot,
            &(options, plan),
            |entry| match entry {
                Entry::Plan(p, o, cached) if p == plan && *o == options => Some(Arc::clone(cached)),
                _ => None,
            },
            || {
                let physical = physical::lower(plan, ctx.catalog(), options, ctx.strategies())?;
                Ok(Entry::Plan(plan.clone(), options, Arc::new(physical)))
            },
        )
    }

    /// [`plan_on`](Self::plan_on)'s fixpoint counterpart: prepare `job`
    /// on `snapshot`'s tree through the cache. A job that fails to
    /// prepare (`IterationLimit`, `Plan`) is never cached.
    fn prepare_fixpoint_on(
        &self,
        snapshot: &Snapshot,
        job: &IterativeJob,
    ) -> Result<(Arc<PreparedIterative>, bool), QueryError> {
        self.through_cache(
            snapshot,
            job,
            |entry| match entry {
                Entry::Fixpoint(j, prepared) if j == job => Some(Arc::clone(prepared)),
                _ => None,
            },
            || {
                let prepared = job.prepare(snapshot.ctx.tree())?;
                Ok(Entry::Fixpoint(job.clone(), Arc::new(prepared)))
            },
        )
    }

    /// The cache protocol, once, for both kinds of entry. The key is
    /// topology fingerprint ⊕ catalog version ⊕ `form`; `hit` hands out
    /// the plan of an entry prepared from exactly this logical form;
    /// `build` prepares the entry on a miss.
    fn through_cache<T>(
        &self,
        snapshot: &Snapshot,
        form: &impl Hash,
        hit: impl Fn(&Entry) -> Option<Arc<T>>,
        build: impl FnOnce() -> Result<Entry, QueryError>,
    ) -> Result<(Arc<T>, bool), QueryError> {
        let version = snapshot.version;
        let mut h = DefaultHasher::new();
        (snapshot.tree_fp, version, form).hash(&mut h);
        let key = h.finish();
        {
            let mut cache = lock_ok(&self.cache);
            let tick = cache.next_tick();
            let slot = cache.entries.get_mut(&key);
            let found = slot.filter(|s| s.version == version).and_then(|slot| {
                let found = hit(&slot.entry)?;
                slot.last_used = tick;
                Some(found)
            });
            if let Some(found) = found {
                cache.hits += 1;
                return Ok((found, true));
            }
            cache.misses += 1;
        }
        // Build outside the cache lock: planning can be slow, and
        // concurrent first-time queries should not serialize on it.
        let entry = build()?;
        let built = hit(&entry).expect("a built entry matches the form it was built from");
        let mut cache = lock_ok(&self.cache);
        // Skip the insert if a register() raced past while we built: the
        // plan is still correct for *this* query (it runs on the snapshot
        // it was built from), but caching it would strand an unreachable
        // stale-generation entry until the next eviction.
        if self.catalog_version() == version {
            if cache.entries.len() >= PLAN_CACHE_CAPACITY && !cache.entries.contains_key(&key) {
                // Evict the least-recently-used slot.
                if let Some(&lru) = cache
                    .entries
                    .iter()
                    .min_by_key(|(_, slot)| slot.last_used)
                    .map(|(k, _)| k)
                {
                    cache.entries.remove(&lru);
                }
            }
            // A racing miss may have inserted first (or a collision may
            // live here): last writer wins, both plans are correct.
            let last_used = cache.next_tick();
            cache.entries.insert(
                key,
                CacheSlot {
                    entry,
                    version,
                    last_used,
                },
            );
        }
        Ok((built, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::iterative::{IterationCost, IterativeOutcome, IterativeSpec};
    use crate::plan::AggFunc;
    use crate::schema::Schema;
    use tamp_runtime::{ExecOutcome, PooledClusterBackend, RuntimeError, ScheduleJob};
    use tamp_simulator::Placement;
    use tamp_topology::{builders, EdgeId, NodeId, Tree};

    fn ctx() -> QueryContext {
        let tree = builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0);
        let mut ctx = QueryContext::new(tree.clone()).with_seed(11);
        let rows: Vec<Vec<u64>> = (0..150).map(|i| vec![i, i % 6, (i * 37) % 500]).collect();
        ctx.register(DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            &tree,
        ))
        .unwrap();
        ctx.register(DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            (0..6).map(|g| vec![g, g + 10]).collect(),
            &tree,
        ))
        .unwrap();
        ctx
    }

    fn queries() -> Vec<LogicalPlan> {
        vec![
            LogicalPlan::scan("facts")
                .filter(col("x").lt(lit(250)))
                .aggregate("g", AggFunc::Sum, "x"),
            LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g"),
            LogicalPlan::scan("facts").order_by("x").limit(10),
        ]
    }

    #[test]
    fn serves_bit_identically_to_a_fresh_session() {
        let service = QueryService::with_default_backend(ctx());
        for q in queries() {
            let served = service.serve(&q).unwrap();
            let fresh = ctx().prepare(&q).unwrap().run().unwrap();
            assert_eq!(served.result.rows(false), fresh.rows(false), "{q}");
            assert_eq!(
                served.result.cost.edge_totals, fresh.cost.edge_totals,
                "{q}"
            );
        }
    }

    #[test]
    fn cache_hits_after_warmup_and_invalidates_on_register() {
        let service = QueryService::with_default_backend(ctx());
        let q = &queries()[0];
        let first = service.serve(q).unwrap();
        assert!(!first.stats.cache_hit);
        for _ in 0..3 {
            assert!(service.serve(q).unwrap().stats.cache_hit);
        }
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (3, 1, 1));

        // Re-registering a table invalidates; the next serve replans.
        let v = service
            .register(DistributedTable::round_robin(
                "dims",
                Schema::new(vec!["g", "tier"]).unwrap(),
                (0..8).map(|g| vec![g, g + 20]).collect(),
                service.context().tree(),
            ))
            .unwrap();
        assert_eq!(v, 1);
        assert_eq!(service.cache_stats().entries, 0);
        assert_eq!(service.cache_stats().invalidations, 1);
        let replanned = service.serve(q).unwrap();
        assert!(!replanned.stats.cache_hit);
    }

    #[test]
    fn distinct_options_and_plans_get_distinct_entries() {
        let service = QueryService::with_default_backend(ctx());
        for q in queries() {
            service.serve(&q).unwrap();
        }
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 3));
    }

    #[test]
    fn admission_bounds_inflight_and_keeps_results_exact() {
        let service = Arc::new(
            QueryService::new(ctx(), Arc::new(PooledClusterBackend::with_shared_pool(2)))
                .with_max_inflight(3)
                .unwrap(),
        );
        let qs = queries();
        let serial: Vec<_> = qs
            .iter()
            .map(|q| ctx().prepare(q).unwrap().run().unwrap())
            .collect();
        // Warm the cache serially: the threaded phase then hits
        // deterministically (a cold start could thundering-herd several
        // misses for the same plan, since lowering happens outside the
        // cache lock).
        for q in &qs {
            assert!(!service.serve(q).unwrap().stats.cache_hit);
        }
        std::thread::scope(|scope| {
            for t in 0..6 {
                let (service, qs, serial) = (&service, &qs, &serial);
                scope.spawn(move || {
                    for i in 0..6 {
                        let q = &qs[(t + i) % qs.len()];
                        let want = &serial[(t + i) % qs.len()];
                        let served = service.serve(q).unwrap();
                        assert!(served.stats.cache_hit);
                        assert_eq!(served.result.rows(false), want.rows(false));
                        assert_eq!(served.result.cost.edge_totals, want.cost.edge_totals);
                    }
                });
            }
        });
        let adm = service.admission_stats();
        assert_eq!(adm.admitted, 39); // 3 warm-up + 36 threaded
        assert!(adm.peak_inflight <= 3, "{adm:?}");
        let cache = service.cache_stats();
        assert_eq!((cache.hits, cache.misses), (36, 3));
    }

    #[test]
    fn cache_is_bounded_with_lru_eviction() {
        let service = QueryService::with_default_backend(ctx());
        // A stream of never-repeating plans must not grow the cache past
        // its capacity.
        for n in 0..PLAN_CACHE_CAPACITY + 8 {
            service
                .explain(&LogicalPlan::scan("facts").limit(n + 1))
                .unwrap();
        }
        let stats = service.cache_stats();
        assert_eq!(stats.entries, PLAN_CACHE_CAPACITY);
        assert_eq!(stats.misses, (PLAN_CACHE_CAPACITY + 8) as u64);
        // The oldest plans were evicted, the newest survive.
        assert!(
            !service
                .serve(&LogicalPlan::scan("facts").limit(1))
                .unwrap()
                .stats
                .cache_hit
        );
        assert!(
            service
                .serve(&LogicalPlan::scan("facts").limit(PLAN_CACHE_CAPACITY + 8))
                .unwrap()
                .stats
                .cache_hit
        );
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

    /// A 12-vertex ring with chords, vertex `v` owned by compute node
    /// `v mod 5` of [`ctx`]'s two-rack tree: every owner pair and the
    /// core both carry traffic.
    fn graph() -> (Vec<(u64, u64)>, Vec<NodeId>) {
        let vc = ctx().tree().compute_nodes().to_vec();
        let n = 12u64;
        let arcs = (0..n)
            .flat_map(|u| [(u, (u + 1) % n), ((u + 1) % n, u), (u, (u * 5 + 3) % n)])
            .collect();
        let owners = (0..n).map(|v| vc[(v % 5) as usize]).collect();
        (arcs, owners)
    }

    fn pagerank() -> IterativeJob {
        let (arcs, owners) = graph();
        IterativeJob::pagerank(arcs, owners, 0.6, IterativeSpec::jacobi(40, 1e-4))
    }

    /// Forwards to `B`, recording the checkpoint token of every job.
    struct TokenSpy<B>(B, Mutex<Vec<u64>>);

    impl<B: ExecBackend> ExecBackend for TokenSpy<B> {
        fn name(&self) -> String {
            self.0.name()
        }
        fn execute(
            &self,
            tree: &Tree,
            placement: &Placement,
            job: &ScheduleJob,
        ) -> Result<ExecOutcome, ExecError> {
            lock_ok(&self.1).push(job.checkpoint_token());
            self.0.execute(tree, placement, job)
        }
    }

    #[test]
    fn a_cached_fixpoint_replays_bit_identically_to_a_fresh_prepare() {
        let service = QueryService::with_default_backend(ctx());
        let job = pagerank();
        let pinned = service.snapshot();
        let (first, hit) = service.prepare_fixpoint_on(&pinned, &job).unwrap();
        assert!(!hit);
        // The same job, its clone, and an equal job built from scratch
        // (no shared allocation) all hit the one entry.
        for same in [job.clone(), pagerank()] {
            let (cached, hit) = service.prepare_fixpoint_on(&pinned, &same).unwrap();
            assert!(hit);
            assert!(Arc::ptr_eq(&first, &cached));
        }
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));

        fn check(first: &PreparedIterative, job: &IterativeJob, tree: &Tree, b: impl ExecBackend) {
            let spy = TokenSpy(b, Mutex::new(Vec::new()));
            let fresh = job.prepare(tree).unwrap().run_on(tree, &spy).unwrap();
            let cached = first.run_on(tree, &spy).unwrap();
            assert_eq!(cached.values, fresh.values, "{}", spy.name());
            assert_eq!(cached.iterations, fresh.iterations, "{}", spy.name());
            assert_eq!(cached.cost.edge_totals, fresh.cost.edge_totals);
            assert_eq!(cached.cost.per_round, fresh.cost.per_round);
            assert_eq!(cached.supersteps, fresh.supersteps);
            let tokens = lock_ok(&spy.1);
            assert_eq!(tokens[0], tokens[1], "schedule content hashes differ");
        }
        let tree = pinned.ctx.tree();
        check(&first, &job, tree, SimulatorBackend);
        check(&first, &job, tree, PooledClusterBackend::with_workers(2));
    }

    #[test]
    fn fixpoints_differing_in_any_field_get_distinct_entries() {
        let service = QueryService::with_default_backend(ctx());
        let (arcs, owners) = graph();
        let spec = IterativeSpec::jacobi(40, 1e-4);
        let mut one_arc = arcs.clone();
        one_arc[0] = (0, 2);
        let mut one_owner = owners.clone();
        one_owner[0] = owners[1];
        let pr = |a: &[(u64, u64)], o: &[NodeId], damping, spec| {
            IterativeJob::pagerank(a.to_vec(), o.to_vec(), damping, spec)
        };
        let jobs = [
            pagerank(),
            pr(&one_arc, &owners, 0.6, spec),
            pr(&arcs, &one_owner, 0.6, spec),
            pr(&arcs, &owners, 0.61, spec),
            pr(&arcs, &owners, 0.6, IterativeSpec::jacobi(40, 2e-4)),
            pr(&arcs, &owners, 0.6, IterativeSpec::jacobi(41, 1e-4)),
            pr(&arcs, &owners, 0.6, IterativeSpec::frontier(40, 1e-4)),
            IterativeJob::connected_components(arcs.clone(), owners.clone(), spec),
        ];
        let pinned = service.snapshot();
        for (i, job) in jobs.iter().enumerate() {
            assert!(jobs[..i].iter().all(|other| other != job), "job {i}");
            assert!(!service.prepare_fixpoint_on(&pinned, job).unwrap().1, "{i}");
        }
        for job in &jobs {
            assert!(service.prepare_fixpoint_on(&pinned, job).unwrap().1);
        }
        let n = jobs.len() as u64;
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries as u64), (n, n, n));
    }

    #[test]
    fn register_and_degrade_each_turn_the_next_fixpoint_into_a_miss() {
        let service = QueryService::with_default_backend(ctx());
        let job = pagerank();
        let prepare = || {
            let pinned = service.snapshot();
            let (prepared, hit) = service.prepare_fixpoint_on(&pinned, &job).unwrap();
            (prepared.run(pinned.ctx.tree()).unwrap(), hit)
        };
        let (healthy, hit) = prepare();
        assert!(!hit);
        assert!(prepare().1);

        let dims = DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            (0..8).map(|g| vec![g, g + 20]).collect(),
            service.context().tree(),
        );
        service.register(dims).unwrap();
        let (reregistered, hit) = prepare();
        assert!(
            !hit,
            "invalidation is global: a register clears fixpoints too"
        );
        assert_eq!(reregistered.iterations, healthy.iterations);
        assert!(prepare().1);

        // Thin the first rack's core uplink: the next serve is a miss and
        // its plan is re-priced — same ranks, different estimate and cut
        // bound columns (the metered cost moves with them).
        service.degrade_link(EdgeId(0), 8.0).unwrap();
        assert_eq!(service.cache_stats().invalidations, 2);
        let (degraded, hit) = prepare();
        assert!(!hit, "the topology fingerprint is part of the key");
        assert_eq!(degraded.values, healthy.values);
        assert_eq!(degraded.cost.edge_totals, healthy.cost.edge_totals);
        let columns = |o: &IterativeOutcome| -> Vec<(u64, u64)> {
            let bits = |i: &IterationCost| (i.estimated.to_bits(), i.lower_bound.to_bits());
            o.iterations.iter().map(bits).collect()
        };
        assert_eq!(columns(&healthy).len(), columns(&degraded).len());
        for (h, d) in columns(&healthy).iter().zip(columns(&degraded)) {
            assert!(h.0 != d.0 && h.1 != d.1, "{h:?} vs {d:?}");
        }
        assert!(prepare().1);
    }

    #[test]
    fn fixpoints_and_plans_share_one_lru() {
        let service = QueryService::with_default_backend(ctx());
        let job = pagerank();
        let pinned = service.snapshot();
        assert!(!service.prepare_fixpoint_on(&pinned, &job).unwrap().1);
        // The fixpoint is the oldest slot: CAPACITY - 1 plans fit beside
        // it, one more evicts it like any other entry.
        for n in 1..PLAN_CACHE_CAPACITY {
            service
                .plan_on(&pinned, &LogicalPlan::scan("facts").limit(n))
                .unwrap();
        }
        assert_eq!(service.cache_stats().entries, PLAN_CACHE_CAPACITY);
        assert!(service.prepare_fixpoint_on(&pinned, &job).unwrap().1);
        // Touched, it is now the newest; the oldest *plan* goes next.
        service
            .plan_on(
                &pinned,
                &LogicalPlan::scan("facts").limit(PLAN_CACHE_CAPACITY),
            )
            .unwrap();
        assert!(service.prepare_fixpoint_on(&pinned, &job).unwrap().1);
        assert!(
            !service
                .plan_on(&pinned, &LogicalPlan::scan("facts").limit(1))
                .unwrap()
                .1
        );
        // Untouched while CAPACITY other slots are used, it is evicted.
        for n in 1..=PLAN_CACHE_CAPACITY {
            service
                .plan_on(&pinned, &LogicalPlan::scan("dims").limit(n))
                .unwrap();
        }
        assert_eq!(service.cache_stats().entries, PLAN_CACHE_CAPACITY);
        assert!(!service.prepare_fixpoint_on(&pinned, &job).unwrap().1);
    }

    #[test]
    fn explain_names_the_catalog_version_and_warms_the_cache() {
        let service = QueryService::with_default_backend(ctx());
        let q = queries()[1].clone();
        let text = service.explain(&q).unwrap();
        assert!(text.contains("catalog v0"), "{text}");
        assert!(text.contains("HashJoin"), "{text}");
        // The explain warmed the cache: the first serve is a hit.
        assert!(service.serve(&q).unwrap().stats.cache_hit);
    }

    #[test]
    fn zero_max_inflight_is_a_typed_error_not_a_deadlock() {
        // Regression: a zero-slot gate could never admit a query; reject
        // it at construction like the runtime rejects zero-width pools.
        let err = QueryService::with_default_backend(ctx())
            .with_max_inflight(0)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, QueryError::InvalidAdmissionLimit);
        assert!(err.to_string().contains("max_inflight"), "{err}");
        // Every nonzero bound still works, including 1.
        let service = QueryService::with_default_backend(ctx())
            .with_max_inflight(1)
            .unwrap();
        assert!(service.serve(&queries()[0]).is_ok());
        assert_eq!(service.admission_stats().max_inflight, 1);
    }

    #[test]
    fn the_one_tenant_gate_is_a_bounded_fifo() {
        // Capacity 1, the slot held: N serves enqueue in a forced order
        // (each is spawned only once the previous one is visibly queued).
        // DRR over one tenant is FIFO, so tickets come back in arrival
        // order and the in-flight peak never exceeds the bound.
        const N: usize = 6;
        let service = QueryService::with_default_backend(ctx())
            .with_max_inflight(1)
            .unwrap();
        let q = &queries()[0];
        let hold = service.admission.acquire(0).unwrap();
        assert_eq!(hold.ticket, 0);
        let tickets: Vec<u64> = std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..N)
                .map(|k| {
                    let waiter = scope.spawn(|| service.serve(q).unwrap().stats.ticket);
                    while service.admission.queue_depth() <= k {
                        std::thread::yield_now();
                    }
                    waiter
                })
                .collect();
            assert_eq!(service.admission_stats().admitted, 1, "all N still wait");
            drop(hold);
            waiters.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(tickets, (1..=N as u64).collect::<Vec<_>>());
        let adm = service.admission_stats();
        assert_eq!(
            (adm.admitted, adm.peak_inflight, adm.max_inflight),
            (N as u64 + 1, 1, 1)
        );
    }

    #[test]
    fn a_session_strategy_is_priced_on_every_way_in() {
        use crate::physical::strategy::{
            CostEstimate, ExecArgs, OpInput, OpTrace, OperatorKind, PlanArgs,
        };

        /// A join candidate that is always priced out.
        #[derive(Debug)]
        struct NeverWinsJoin;

        impl PhysicalStrategy for NeverWinsJoin {
            fn name(&self) -> &'static str {
                "never-wins"
            }
            fn operator(&self) -> OperatorKind {
                OperatorKind::Join
            }
            fn estimate(&self, _a: &PlanArgs<'_>) -> CostEstimate {
                CostEstimate {
                    tuple_cost: 1e18,
                    rounds: 1,
                }
            }
            fn trace(&self, _a: &ExecArgs<'_>, _input: OpInput) -> Result<OpTrace, QueryError> {
                unreachable!("estimate guarantees this candidate never wins")
            }
        }

        let priced = |physical: &PhysicalPlan| {
            let candidates = &physical.exchange().expect("a join").candidates;
            assert_eq!(candidates.len(), 5, "{candidates:?}");
            assert!(candidates.iter().any(|c| c.name == "never-wins"));
        };
        let mut ctx = ctx();
        ctx.register_strategy(Arc::new(NeverWinsJoin));
        let q = queries()[1].clone();
        // QueryContext::prepare …
        priced(ctx.prepare(&q).unwrap().physical_plan());
        // … and the plan QueryService::serve lowered, cached and ran.
        let service = QueryService::with_default_backend(ctx);
        assert!(!service.serve(&q).unwrap().stats.cache_hit);
        let (served_plan, hit) = service.plan_on(&service.snapshot(), &q).unwrap();
        assert!(hit);
        priced(&served_plan);
    }

    #[test]
    fn degrading_an_uplink_invalidates_the_cache_and_flips_the_explain_winner() {
        // Two racks (4 + 2 computes) behind a fat core. Healthy, the
        // one-round partial repartition wins the aggregate. Degrade the
        // big rack's core uplink 16x and the repartition pays
        // per-(node, group) partials across the now-thin link while the
        // combining convergecast ships one partial set per level — the
        // winner must flip, which requires the degrade to move the
        // topology fingerprint and so invalidate the cached plan.
        let tree = builders::rack_tree(&[(4, 4.0, 8.0), (2, 4.0, 8.0)], 16.0);
        let mut ctx = QueryContext::new(tree.clone()).with_seed(7);
        let rows: Vec<Vec<u64>> = (0..600).map(|i| vec![i, i % 4, (i * 31) % 997]).collect();
        ctx.register(DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            &tree,
        ))
        .unwrap();
        let service = QueryService::with_default_backend(ctx);
        let q = LogicalPlan::scan("facts").aggregate("g", AggFunc::Sum, "x");

        let healthy = service.serve(&q).unwrap();
        assert!(!healthy.stats.cache_hit);
        assert!(service.serve(&q).unwrap().stats.cache_hit);
        let before = service.explain(&q).unwrap();
        assert!(before.contains("-repartition"), "{before}");
        assert!(!before.contains("via combining-tree"), "{before}");

        // The big rack's core uplink is EdgeId(0) in rack_tree order.
        let version = service.degrade_link(EdgeId(0), 16.0).unwrap();
        assert!(version > 0, "degrade must publish a new catalog version");
        assert_eq!(service.cache_stats().invalidations, 1);

        let repriced = service.serve(&q).unwrap();
        assert!(
            !repriced.stats.cache_hit,
            "degraded topology must invalidate the cached plan"
        );
        let after = service.explain(&q).unwrap();
        assert!(after.contains("via combining-tree"), "{after}");
        // Re-pricing changes the exchange schedule, never the answer.
        assert_eq!(healthy.result.rows(false), repriced.result.rows(false));

        // Bad degrades stay typed and leave the snapshot untouched.
        let invalid = |e: &QueryError| {
            matches!(
                e,
                QueryError::Exec(ExecError::Runtime(RuntimeError::InvalidFaultTarget { .. }))
            )
        };
        let fp_err = service.degrade_link(EdgeId(99), 2.0).unwrap_err();
        assert!(invalid(&fp_err), "{fp_err:?}");
        let bw_err = service.degrade_link(EdgeId(0), 0.0).unwrap_err();
        assert!(invalid(&bw_err), "{bw_err:?}");
        assert_eq!(service.cache_stats().invalidations, 1);
        assert!(service.serve(&q).unwrap().stats.cache_hit);
    }

    // The multi-tenant service: tenants, one fixed crew, fault hooks and
    // replay recovery, on a star of four computes.

    fn star_ctx() -> QueryContext {
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

    fn star_query() -> LogicalPlan {
        LogicalPlan::scan("t").aggregate("g", AggFunc::Sum, "x")
    }

    /// A built service with one tenant `a`.
    fn one_tenant() -> QueryService {
        QueryService::builder(star_ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_everything() {
        let no_tenants = QueryService::builder(star_ctx()).build();
        assert!(matches!(no_tenants, Err(QueryError::InvalidTenantSpec(_))));
        let dup = QueryService::builder(star_ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .tenant(TenantSpec::new("a", 2, 4))
            .build();
        assert!(matches!(dup, Err(QueryError::InvalidTenantSpec(_))));
        // The crew is fixed: a width of 0, or a (min, max) pair asking
        // for growth, is the runtime's zero-width pool error, as for a
        // "cluster:0" backend spec.
        let widths = [(8, 2), (1, 4), (0, 0)].map(|(min, max)| ScalingSpec::new(min, max));
        let builders = widths
            .into_iter()
            .map(|spec| QueryService::builder(star_ctx()).scaling(spec))
            .chain([QueryService::builder(star_ctx()).crew(0)]);
        for builder in builders {
            let bad_width = builder.tenant(TenantSpec::new("a", 1, 4)).build();
            assert!(
                matches!(
                    bad_width,
                    Err(QueryError::Exec(ExecError::Runtime(
                        RuntimeError::InvalidPoolWidth { .. }
                    )))
                ),
                "{bad_width:?}"
            );
        }
        for fixed in [
            QueryService::builder(star_ctx()).crew(2),
            QueryService::builder(star_ctx()).scaling(ScalingSpec::new(2, 2)),
        ] {
            let fixed = fixed.tenant(TenantSpec::new("a", 1, 4)).build().unwrap();
            assert_eq!(fixed.backend().name(), "pooled-cluster(shared 2)");
            assert_eq!(fixed.admission_stats().max_inflight, 2);
        }
        let zero_cap = QueryService::builder(star_ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .capacity(0)
            .build();
        assert!(matches!(zero_cap, Err(QueryError::InvalidAdmissionLimit)));
    }

    #[test]
    fn serves_unknown_tenants_a_typed_error_and_known_ones_their_rows() {
        let service = one_tenant();
        assert!(matches!(
            service.serve_as("nobody", &star_query()),
            Err(QueryError::UnknownTenant(_))
        ));
        let want = star_ctx().prepare(&star_query()).unwrap().run().unwrap();
        let served = service.serve_as("a", &star_query()).unwrap();
        assert_eq!(served.result.rows(false), want.rows(false));
        assert_eq!(served.result.cost.edge_totals, want.cost.edge_totals);
        let stats = service.tenant_stats();
        assert_eq!(stats[0].served, 1);
        assert_eq!(stats[0].recovered, 0);
    }

    #[test]
    fn serve_is_the_first_tenants_serve_as_through_the_one_gate() {
        let service = QueryService::builder(star_ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .tenant(TenantSpec::new("b", 1, 4))
            .capacity(1)
            .build()
            .unwrap();
        assert_eq!(service.admission_stats().max_inflight, 1);
        // `serve` is the first tenant's `serve_as`: one ticket sequence,
        // one count of admissions, one set of tenant rows.
        let first = service.serve(&star_query()).unwrap();
        let second = service.serve_as("b", &star_query()).unwrap();
        assert_eq!((first.stats.ticket, second.stats.ticket), (0, 1));
        assert_eq!(service.admission_stats().admitted, 2);
        let stats = service.tenant_stats();
        assert_eq!((stats[0].served, stats[1].served), (1, 1));
        // … and it recovers like `serve_as`: an armed kill is replayed,
        // not returned.
        let victim = service.context().tree().compute_nodes()[1];
        service
            .inject_faults(FaultPlan::new().kill_worker(victim, 0))
            .unwrap();
        let recovered = service.serve(&star_query()).unwrap();
        assert_eq!(recovered.result.rows(false), first.result.rows(false));
        let recs = service.recovery_events();
        assert_eq!((recs.len(), recs[0].tenant.as_str()), (1, "a"));
        assert_eq!(service.tenant_stats()[0].recovered, 1);
    }

    #[test]
    fn recovery_events_attribute_each_fault_to_its_node() {
        // Two racks of two: EdgeId(0) is a rack's core uplink, so the
        // degrade's node is a router, the edge's deeper endpoint.
        let tree = builders::rack_tree(&[(2, 1.0, 2.0), (2, 1.0, 2.0)], 1.0);
        let mut ctx = QueryContext::new(tree.clone()).with_seed(5);
        let rows: Vec<Vec<u64>> = (0..80).map(|i| vec![i, i % 4, i * 7 % 90]).collect();
        let schema = Schema::new(vec!["id", "g", "x"]).unwrap();
        ctx.register(DistributedTable::round_robin("t", schema, rows, &tree))
            .unwrap();
        let service = QueryService::builder(ctx)
            .tenant(TenantSpec::new("a", 1, 4))
            .superstep_deadline(Duration::from_millis(100))
            .build()
            .unwrap();
        let (victim, uplink) = (tree.compute_nodes()[1], EdgeId(0));
        let router = tree.deeper_endpoint(uplink);
        assert!(!tree.is_compute(router));
        let plans = [
            FaultPlan::new().kill_worker(victim, 0),
            FaultPlan::new().degrade_edge(uplink, 0, 4.0),
            FaultPlan::new().stall_worker(victim, 0, Duration::from_millis(400)),
        ];
        for plan in plans {
            service.inject_faults(plan).unwrap();
            service.serve_as("a", &star_query()).unwrap();
        }
        let event = |node, kind| FaultEvent {
            node,
            round: 0,
            kind,
        };
        let degraded = FaultKind::LinkDegraded {
            edge: uplink,
            factor: 4.0,
        };
        let recovered: Vec<Vec<FaultEvent>> = service
            .recovery_events()
            .into_iter()
            .map(|r| r.faults)
            .collect();
        assert_eq!(
            recovered,
            [
                vec![event(victim, FaultKind::WorkerKilled)],
                vec![event(router, degraded)],
                vec![event(victim, FaultKind::Straggler)],
            ]
        );
        assert_eq!(service.tenant_stats()[0].timeouts, 1);
    }

    #[test]
    fn a_detach_is_one_recovery_naming_every_felled_node() {
        // star(4) is rooted internally at compute node 0, so detaching
        // node 0 fells all four computes in one superstep: one killed
        // attempt, one event, four nodes — on the pooled crew.
        let service = QueryService::builder(star_ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .crew(2)
            .build()
            .unwrap();
        assert_eq!(service.backend().name(), "pooled-cluster(shared 2)");
        let want = service.serve_as("a", &star_query()).unwrap();
        let computes = service.context().tree().compute_nodes().to_vec();
        service
            .inject_faults(FaultPlan::new().detach_subtree(computes[0], 1))
            .unwrap();
        let recovered = service.serve_as("a", &star_query()).unwrap();
        assert_eq!(recovered.result.rows(false), want.result.rows(false));
        let recs = service.recovery_events();
        assert_eq!(recs.len(), 1);
        let felled: Vec<NodeId> = recs[0].faults.iter().map(|f| f.node).collect();
        assert_eq!(felled, computes);
        assert!(recs[0]
            .faults
            .iter()
            .all(|f| (f.round, f.kind) == (1, FaultKind::WorkerKilled)));
        assert_eq!(service.tenant_stats()[0].recovered, 1);
    }

    #[test]
    fn a_plain_service_refuses_faults_and_arms_nothing() {
        let tree = builders::star(4, 1.0);
        let backend = PooledClusterBackend::with_shared_pool(2);
        let service = QueryService::new(star_ctx(), Arc::new(backend));
        let err = service
            .inject_faults(FaultPlan::new().kill_worker(tree.compute_nodes()[0], 0))
            .unwrap_err();
        assert_eq!(err, QueryError::NoFaultHooks);
        assert!(err.to_string().contains("QueryService::builder"), "{err}");
        assert_eq!(service.checkpoint_stats(), None);
        let served = service.serve(&star_query()).unwrap();
        let want = star_ctx().prepare(&star_query()).unwrap().run().unwrap();
        assert_eq!(served.result.rows(false), want.rows(false));
        assert!(service.recovery_events().is_empty());
        assert_eq!(service.tenant_stats()[0].recovered, 0);
    }

    #[test]
    fn injected_faults_recover_bit_identically_and_are_logged() {
        let service = one_tenant();
        let want = service.serve_as("a", &star_query()).unwrap(); // fault-free
        let victim = service.context().tree().compute_nodes()[1];
        service
            .inject_faults(FaultPlan::new().kill_worker(victim, 0))
            .unwrap();
        let recovered = service.serve_as("a", &star_query()).unwrap();
        assert_eq!(recovered.result.rows(false), want.result.rows(false));
        assert_eq!(
            recovered.result.cost.edge_totals,
            want.result.cost.edge_totals
        );
        let recs = service.recovery_events();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].attempt, 1);
        // No checkpointing configured: the successful replay ran from
        // scratch and the bookkeeping says so.
        assert_eq!(recs[0].resumed_from, None);
        assert_eq!(
            recs[0].replayed_supersteps,
            Some(recovered.result.supersteps)
        );
        assert_eq!(
            recs[0].faults,
            vec![FaultEvent {
                node: victim,
                round: 0,
                kind: FaultKind::WorkerKilled
            }]
        );
        assert_eq!(service.tenant_stats()[0].recovered, 1);
    }

    #[test]
    fn invalid_fault_targets_are_typed_errors_not_silent_noops() {
        let service = one_tenant();
        // star(4): node 4 is the hub — a router with no worker to kill.
        let hub = NodeId(4);
        let err = service
            .inject_faults(FaultPlan::new().kill_worker(hub, 0))
            .unwrap_err();
        assert!(
            matches!(
                err,
                QueryError::Exec(ExecError::Runtime(RuntimeError::InvalidFaultTarget { .. }))
            ),
            "{err}"
        );
        assert!(err.to_string().contains("router"), "{err}");
        // Nothing was armed: the next serve runs fault-free.
        let served = service.serve_as("a", &star_query()).unwrap();
        assert!(service.recovery_events().is_empty());
        assert!(!served.result.rows(false).is_empty());
    }

    #[test]
    fn recovery_exhausts_after_exactly_max_attempts() {
        let service = QueryService::builder(star_ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .retry(RetryPolicy::new(3))
            .build()
            .unwrap();
        let victim = service.context().tree().compute_nodes()[0];
        // Queue more kill plans than the policy allows attempts: the
        // query must give up after exactly 3 executions, leaving no
        // armed plan behind to poison the next query.
        for _ in 0..5 {
            service
                .inject_faults(FaultPlan::new().kill_worker(victim, 0))
                .unwrap();
        }
        let err = service.serve_as("a", &star_query()).unwrap_err();
        match err {
            QueryError::RecoveryExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(
                    *last,
                    QueryError::Exec(ExecError::Runtime(RuntimeError::InjectedFault { .. }))
                ));
            }
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
        let fired = |s: &QueryService| -> usize {
            s.recovery_events().iter().map(|r| r.faults.len()).sum()
        };
        assert_eq!(service.recovery_events().len(), 3);
        assert_eq!(fired(&service), 3);
        // The two surplus plans were dropped with the failed query.
        let served = service.serve_as("a", &star_query()).unwrap();
        assert!(!served.result.rows(false).is_empty());
        assert_eq!(fired(&service), 3, "no leaked fault plans");
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
        let service = QueryService::builder(star_ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .checkpoints(1)
            .build()
            .unwrap();
        let want = service.serve_as("a", &q).unwrap();
        let total = want.result.supersteps;
        assert!(total >= 3, "need a multi-superstep schedule, got {total}");

        let victim = service.context().tree().compute_nodes()[2];
        let kill_round = total - 2; // late: several boundaries behind it
        service
            .inject_faults(FaultPlan::new().kill_worker(victim, kill_round))
            .unwrap();
        let recovered = service.serve_as("a", &q).unwrap();
        assert_eq!(recovered.result.rows(false), want.result.rows(false));
        assert_eq!(
            recovered.result.cost.edge_totals,
            want.result.cost.edge_totals
        );
        let recs = service.recovery_events();
        assert_eq!(recs.len(), 1);
        let rec = &recs[0];
        assert_eq!(rec.resumed_from, Some(kill_round));
        assert_eq!(rec.replayed_supersteps, Some(total - kill_round));
        assert!(
            rec.replayed_supersteps.unwrap() < total,
            "partial restart must replay strictly fewer supersteps than full replay"
        );
        let cp = service.checkpoint_stats().unwrap();
        assert_eq!((cp.saved, cp.resumed, cp.retained), (1, 1, 0));
        assert_eq!(
            service.tenant_stats()[0].supersteps_skipped,
            kill_round as u64
        );
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
            let service = QueryService::builder(star_ctx())
                .tenant(TenantSpec::new("a", 1, 4))
                .checkpoints(1)
                .build()
                .unwrap();
            let want = service.serve_as("a", &q).unwrap();
            let total = want.result.supersteps;
            if total < 2 {
                continue; // no boundary can sit behind the kill
            }
            let victim = service.context().tree().compute_nodes()[0];
            service
                .inject_faults(FaultPlan::new().kill_worker(victim, total - 1))
                .unwrap();
            let recovered = service.serve_as("a", &q).unwrap();
            assert_eq!(recovered.result.rows(false), want.result.rows(false));
            assert_eq!(
                recovered.result.cost.edge_totals,
                want.result.cost.edge_totals
            );
            let recs = service.recovery_events();
            let rec = recs.last().unwrap();
            assert_eq!(
                rec.resumed_from,
                Some(total - 1),
                "retry must hit the parked snapshot (token-stable schedule) for {q:?}"
            );
            let cp = service.checkpoint_stats().unwrap();
            assert_eq!((cp.saved, cp.resumed, cp.retained), (1, 1, 0));
        }
    }

    #[test]
    fn stats_report_all_tenants_with_percentiles() {
        let service = QueryService::builder(star_ctx())
            .tenant(TenantSpec::new("fast", 4, 8).with_priority(Priority::Interactive))
            .tenant(TenantSpec::new("slow", 1, 8))
            .build()
            .unwrap();
        for _ in 0..5 {
            service.serve_as("fast", &star_query()).unwrap();
        }
        service.serve_as("slow", &star_query()).unwrap();
        let stats = service.tenant_stats();
        assert_eq!(stats.len(), 2);
        let fast = &stats[0];
        assert_eq!((fast.served, fast.weight), (5, 4));
        assert_eq!(fast.priority, Priority::Interactive);
        assert!(fast.queue_p50 <= fast.queue_p99);
        assert_eq!(fast.cache_hits, 4); // first serve was the miss
        assert_eq!(stats[1].served, 1);
    }

    #[test]
    fn every_attempt_runs_on_the_generation_pinned_at_admission() {
        // Drive the shared loop with an attempt that swaps the serving
        // generation — a `degrade_link` re-weights the live tree — and
        // then fails recoverably. The retry must still see the tree the
        // query was admitted on: re-reading `service.context()` per
        // attempt would meter the retry against different weights than
        // the ledger a checkpoint resumes.
        let service = one_tenant();
        let admitted_on = service.context().tree().fingerprint();
        let victim = service.context().tree().compute_nodes()[0];
        let mut seen = Vec::new();
        let (attempts, stats) = service
            .serve_with(
                0,
                |pinned| Ok((pinned.ctx.tree().fingerprint(), false)),
                |pinned, prepared_on| {
                    seen.push(pinned.ctx.tree().fingerprint());
                    assert_eq!(seen.last(), Some(prepared_on));
                    if seen.len() == 1 {
                        service.degrade_link(EdgeId(0), 4.0).unwrap();
                        return Err(RuntimeError::InjectedFault {
                            nodes: vec![victim],
                            round: 0,
                        }
                        .into());
                    }
                    Ok(seen.len())
                },
                |_| (1, None),
            )
            .unwrap();
        assert_eq!(attempts, 2);
        assert_eq!(seen, vec![admitted_on, admitted_on]);
        // The swap did land — on the *next* query's generation.
        assert_ne!(service.context().tree().fingerprint(), admitted_on);
        assert!(!stats.cache_hit);
        let recs = service.recovery_events();
        assert_eq!(recs.len(), 1);
        assert_eq!((recs[0].attempt, recs[0].faults[0].node), (1, victim));
        assert_eq!(recs[0].replayed_supersteps, Some(1));
        assert_eq!(service.tenant_stats()[0].recovered, 1);
    }

    /// A 6-cycle over the star's leaves (every vertex pair of adjacent
    /// owners exchanges), usable against the `star_ctx()` topology.
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
        let c = star_ctx();
        let (arcs, owners) = cycle_graph(&c);
        let job = IterativeJob::bfs(arcs, owners, 0, IterativeSpec::frontier(10, 0.0));
        let want = job.prepare(c.tree()).unwrap();

        let service = QueryService::builder(star_ctx())
            .tenant(TenantSpec::new("graphs", 1, 4).with_priority(Priority::Batch))
            .build()
            .unwrap();
        assert!(matches!(
            service.serve_iterative("nobody", &job),
            Err(QueryError::UnknownTenant(_))
        ));
        let served = service.serve_iterative("graphs", &job).unwrap();
        // Bit-identical to a standalone run of the same prepared job.
        let standalone = want.run(c.tree()).unwrap();
        assert_eq!(served.outcome.values, standalone.values);
        assert_eq!(served.outcome.cost.edge_totals, standalone.cost.edge_totals);
        // The first serve prepares the fixpoint, the second finds it in
        // the plan cache — and replays to the same result.
        assert!(!served.stats.cache_hit, "first serve is the miss");
        let again = service.serve_iterative("graphs", &job).unwrap();
        assert!(again.stats.cache_hit, "second serve is a hit");
        assert_eq!(again.outcome.values, standalone.values);
        assert_eq!(again.outcome.iterations, standalone.iterations);
        assert_eq!(again.outcome.cost.edge_totals, standalone.cost.edge_totals);
        let cache = service.cache_stats();
        assert_eq!((cache.hits, cache.misses, cache.entries), (1, 1, 1));
        let stats = service.tenant_stats();
        assert_eq!((stats[0].served, stats[0].cache_hits), (2, 1));
        assert_eq!(stats[0].priority, Priority::Batch);
        assert_eq!(stats[0].iteration_limits, 0);
    }

    #[test]
    fn iteration_limits_roll_up_per_tenant() {
        let c = star_ctx();
        let (arcs, owners) = cycle_graph(&c);
        // BFS around the cycle needs 4 iterations; cap at 1.
        let job = IterativeJob::bfs(arcs, owners, 0, IterativeSpec::frontier(1, 0.0));
        let service = QueryService::builder(star_ctx())
            .tenant(TenantSpec::new("graphs", 1, 4).with_priority(Priority::Batch))
            .build()
            .unwrap();
        let err = service.serve_iterative("graphs", &job).unwrap_err();
        assert!(matches!(err, QueryError::IterationLimit { limit: 1, .. }));
        let err = service.serve_iterative("graphs", &job).unwrap_err();
        assert!(matches!(err, QueryError::IterationLimit { .. }));
        let stats = service.tenant_stats();
        assert_eq!(stats[0].iteration_limits, 2);
        assert_eq!(stats[0].served, 0, "non-converged jobs are not served");
        let cache = service.cache_stats();
        assert_eq!(
            (cache.hits, cache.misses, cache.entries),
            (0, 2, 0),
            "a failed prepare is redone every time and takes no cache slot"
        );
        assert_eq!(
            service.recovery_events().len(),
            0,
            "non-convergence is not a fault and is never retried"
        );
    }
}
