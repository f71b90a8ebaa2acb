//! The orchestration layer: weighted-fair multi-tenant admission and
//! fault injection with deterministic replay recovery, in one control
//! plane over [`QueryService`] on one fixed worker crew.
//!
//! ```text
//!        serve_as(tenant, plan) / serve_iterative(tenant, job)
//!              │
//!   ┌──────────▼─────────────── QueryService ────────────────────────┐
//!   │  WeightedAdmission     reject: UnknownTenant / TenantQueueFull │
//!   │  (DRR over tenants)    grant order: strict priority, then DRR  │
//!   │        │ grant (ticket, queue time); pin the snapshot          │
//!   │        ▼                                                       │
//!   │  plan (cache) → execute ──▶ recoverable fault? replay the      │
//!   │                             pinned schedule on the healthy     │
//!   │                             crew, log RecoveryEvent (rows +    │
//!   │                             edge_totals bit-identical)         │
//!   └──────────┬─────────────────────────────────────────────────────┘
//!              ▼
//!        ServedQuery + per-tenant stats
//! ```
//!
//! The orchestrator owns no gate and no serve loop: it declares the
//! tenants, the crew and the fault hooks and builds its [`QueryService`]
//! on them. `serve_as`, `serve_iterative` and that service's own
//! [`serve`](QueryService::serve) (the first declared tenant) run the
//! service's one loop and differ only in how they prepare, how they run
//! one attempt, and what they wrap the result in.
//!
//! The crew is fixed for the orchestrator's lifetime
//! ([`PooledClusterBackend::with_shared_pool`]): a round's price
//! `max_e |Y_i(e)|/w_e` does not depend on how many threads replay it,
//! and rows and ledgers are bit-identical at every width, so nothing
//! here resizes it.
//!
//! The two guarantees, and where they come from:
//!
//! - **No starvation.** Admission is deficit-weighted round-robin within
//!   strict priority classes ([`crate::admission`]): every backlogged
//!   tenant is visited once per DRR rotation, so a weight-`w` tenant in
//!   a system of total weight `W` waits at most ~`W/w` foreign grants
//!   per queued position — a structural bound, asserted by tests, that
//!   no adversarial burst can break.
//! - **Bit-identical recovery.** Queries compile to deterministic
//!   exchange schedules, so after an injected fault ([`FaultPlan`] → a
//!   recoverable [`QueryError::Exec`], such as
//!   [`RuntimeError::InjectedFault`](tamp_runtime::RuntimeError::InjectedFault))
//!   the service simply re-executes the schedule on the (auto-disarmed,
//!   hence healthy) crew: rows *and* metered `edge_totals` equal the
//!   fault-free run by construction.
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
//!     .scaling(ScalingSpec::new(2, 2))
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

use std::sync::Arc;
use std::time::Duration;

use tamp_runtime::{
    CheckpointSpec, CheckpointStats, CheckpointStore, FaultEvent, FaultInjector, FaultPlan,
    PooledClusterBackend,
};

use crate::admission::{Priority, TenantSpec, WeightedAdmission};
use crate::context::QueryContext;
use crate::error::QueryError;
use crate::iterative::{IterativeJob, IterativeOutcome};
use crate::plan::LogicalPlan;
use crate::service::{QueryService, Recovery, ServedQuery, ServiceStats};

/// The orchestrator's crew width: `ScalingSpec::new(w, w)` serves on a
/// fixed crew of `w` workers. The crew never resizes, so a spec whose
/// `min` and `max` differ (or are 0) is refused with
/// [`QueryError::InvalidScalingSpec`] instead of silently fixed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScalingSpec {
    min: usize,
    max: usize,
}

impl ScalingSpec {
    /// A crew of `min` workers; [`OrchestratorBuilder::build`] accepts
    /// it only when `min == max ≥ 1`.
    pub fn new(min: usize, max: usize) -> Self {
        ScalingSpec { min, max }
    }

    /// The fixed crew width this spec declares.
    fn width(&self) -> Result<usize, QueryError> {
        if self.min == 0 {
            return Err(QueryError::InvalidScalingSpec(
                "crew width 0 (need \u{2265} 1)".into(),
            ));
        }
        if self.min != self.max {
            return Err(QueryError::InvalidScalingSpec(format!(
                "min width {} differs from max width {}: the crew is fixed",
                self.min, self.max
            )));
        }
        Ok(self.min)
    }
}

/// Bound for replay recovery — replaces the old hardcoded four-recovery
/// loop. `max_attempts` counts *total executions* (initial
/// run included), so an adversarial re-arming loop terminates with a
/// typed [`QueryError::RecoveryExhausted`] after exactly `max_attempts`
/// failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed per query (floored at 1). A retry
    /// replays at once: the healthy crew is the recovery, there is
    /// nothing to wait out.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // The historical behavior: one initial run plus four recoveries.
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

/// The orchestration control plane. Build one with
/// [`Orchestrator::builder`]; see the [module docs](self) for the
/// control-flow diagram and guarantees.
pub struct Orchestrator {
    /// The service on the tenants' gate, with replay recovery.
    service: QueryService,
    injector: Arc<FaultInjector>,
    checkpoints: Option<Arc<CheckpointStore>>,
}

impl std::fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("tenants", &self.service.admission.specs().len())
            .field("capacity", &self.capacity())
            .field("backend", &self.service.backend().name())
            .finish()
    }
}

/// Builder for [`Orchestrator`] — declare tenants, the crew width and
/// the admission capacity, then [`build`](Self::build).
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

    /// Declare the crew width as `ScalingSpec::new(w, w)`. Without it
    /// the crew is as wide as the machine's available parallelism.
    pub fn scaling(mut self, spec: ScalingSpec) -> Self {
        self.scaling = Some(spec);
        self
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
    /// of superstep 0 (floored at 1; see [`tamp_runtime::checkpoint`]).
    pub fn checkpoints(mut self, every: usize) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Arm the superstep watchdog: a superstep exceeding `deadline`
    /// aborts with a recoverable
    /// [`RuntimeError::SuperstepTimeout`](tamp_runtime::RuntimeError::SuperstepTimeout)
    /// naming the straggler, which the
    /// recovery loop replays and [`TenantStats::timeouts`] counts.
    pub fn superstep_deadline(mut self, deadline: Duration) -> Self {
        self.superstep_deadline = Some(deadline);
        self
    }

    /// Validate every spec and assemble the orchestrator: a
    /// [`FaultInjector`], a [`PooledClusterBackend`] on one fixed shared
    /// crew wired to it, and a [`QueryService`] over that backend that
    /// admits through the tenants' gate and recovers by replay.
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
        let width = match &self.scaling {
            Some(spec) => spec.width()?,
            None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
        };
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
        service.recovery = Some(Recovery {
            retry: RetryPolicy::new(self.retry.max_attempts),
            injector: Arc::clone(&injector),
        });
        Ok(Orchestrator {
            service,
            injector,
            checkpoints,
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
    /// plan (cached) + execute, with replay recovery if
    /// an injected fault kills the run.
    ///
    /// Results are bit-identical (rows **and** metered `edge_totals`) to
    /// a fault-free single-session execution of the same plan.
    pub fn serve_as(&self, tenant: &str, plan: &LogicalPlan) -> Result<ServedQuery, QueryError> {
        let tenant = self.service.admission.tenant_index(tenant)?;
        self.service.serve_plan(tenant, plan)
    }

    /// Serve one iterative fixpoint job (see [`crate::iterative`]) on
    /// behalf of `tenant`, through the same control plane as relational
    /// queries: weighted-fair admission → plan (the local
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
        let service = &self.service;
        let (outcome, stats) = service.serve_with(
            service.admission.tenant_index(tenant)?,
            |pinned| service.prepare_fixpoint_on(pinned, job),
            |pinned, prepared| prepared.run_on(pinned.ctx.tree(), service.backend()),
            |outcome: &IterativeOutcome| (outcome.supersteps, outcome.resumed_from),
        )?;
        Ok(ServedIterative { outcome, stats })
    }

    /// Arm a [`FaultPlan`] for the next query execution. Plans queue
    /// FIFO: arming several queues one per execution attempt, which is
    /// how the chaos harness re-arms faults across recovery retries.
    ///
    /// The plan is validated against the serving topology first — a
    /// kill/stall naming a router or out-of-range node, or a degrade
    /// naming an unknown edge, is a typed
    /// [`RuntimeError::InvalidFaultTarget`](tamp_runtime::RuntimeError::InvalidFaultTarget),
    /// never a silent no-op.
    pub fn inject_faults(&self, plan: FaultPlan) -> Result<(), QueryError> {
        plan.validate(self.service.context().tree())?;
        self.injector.arm(plan);
        Ok(())
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
        self.service.recovery_events()
    }

    /// Global concurrent-queries bound.
    pub fn capacity(&self) -> usize {
        self.service.admission.capacity()
    }

    /// Queries currently queued across all tenants.
    pub fn queue_depth(&self) -> usize {
        self.service.admission.queue_depth()
    }

    /// The underlying serving layer (plan cache, catalog versioning,
    /// `register` / `register_strategy`). It admits through the
    /// orchestrator's gate and recovers like it: its
    /// [`serve`](QueryService::serve) is the first declared tenant's
    /// [`serve_as`](Self::serve_as).
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// Per-tenant serving report, in declaration order: queue/plan/exec
    /// timings, p50/p99 queue time, fairness and recovery counters.
    pub fn stats(&self) -> Vec<TenantStats> {
        self.service.tenant_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggFunc;
    use crate::schema::Schema;
    use crate::table::DistributedTable;
    use tamp_runtime::{ExecError, FaultKind, RuntimeError};
    use tamp_topology::{builders, EdgeId, NodeId};

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
        // The crew is fixed: a spec asking for growth, or for no
        // workers, is refused rather than silently pinned.
        for (min, max) in [(8, 2), (1, 4), (0, 0)] {
            let bad_width = Orchestrator::builder(ctx())
                .tenant(TenantSpec::new("a", 1, 4))
                .scaling(ScalingSpec::new(min, max))
                .build();
            assert!(
                matches!(bad_width, Err(QueryError::InvalidScalingSpec(_))),
                "ScalingSpec::new({min}, {max})"
            );
        }
        let fixed = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .scaling(ScalingSpec::new(2, 2))
            .build()
            .unwrap();
        assert_eq!(fixed.service().backend().name(), "pooled-cluster(shared 2)");
        assert_eq!(fixed.capacity(), 2);
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
    fn the_service_admits_through_the_orchestrators_one_gate() {
        let orch = Orchestrator::builder(ctx())
            .tenant(TenantSpec::new("a", 1, 4))
            .tenant(TenantSpec::new("b", 1, 4))
            .capacity(1)
            .build()
            .unwrap();
        assert_eq!(
            orch.service().admission_stats().max_inflight,
            orch.capacity()
        );
        // `service().serve` is the first tenant's `serve_as`: one ticket
        // sequence, one count of admissions, one set of tenant rows.
        let first = orch.service().serve(&query()).unwrap();
        let second = orch.serve_as("b", &query()).unwrap();
        assert_eq!((first.stats.ticket, second.stats.ticket), (0, 1));
        assert_eq!(orch.service().admission_stats().admitted, 2);
        let stats = orch.stats();
        assert_eq!((stats[0].served, stats[1].served), (1, 1));
        // … and it recovers like `serve_as`: an armed kill is replayed,
        // not returned.
        let victim = orch.service().context().tree().compute_nodes()[1];
        orch.inject_faults(FaultPlan::new().kill_worker(victim, 0))
            .unwrap();
        let recovered = orch.service().serve(&query()).unwrap();
        assert_eq!(recovered.result.rows(false), first.result.rows(false));
        let recs = orch.recovery_events();
        assert_eq!((recs.len(), recs[0].tenant.as_str()), (1, "a"));
        assert_eq!(orch.stats()[0].recovered, 1);
    }

    #[test]
    fn recovery_events_attribute_each_fault_as_the_fired_log_does() {
        // Two racks of two: EdgeId(0) is a rack's core uplink, so the
        // degrade's node is a router, the edge's deeper endpoint.
        let tree = builders::rack_tree(&[(2, 1.0, 2.0), (2, 1.0, 2.0)], 1.0);
        let mut ctx = QueryContext::new(tree.clone()).with_seed(5);
        let rows: Vec<Vec<u64>> = (0..80).map(|i| vec![i, i % 4, i * 7 % 90]).collect();
        let schema = Schema::new(vec!["id", "g", "x"]).unwrap();
        ctx.register(DistributedTable::round_robin("t", schema, rows, &tree))
            .unwrap();
        let orch = Orchestrator::builder(ctx)
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
            orch.inject_faults(plan).unwrap();
            orch.serve_as("a", &query()).unwrap();
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
        let fired = orch.fault_events();
        assert_eq!(
            fired,
            [
                event(victim, FaultKind::WorkerKilled),
                event(router, degraded),
                event(victim, FaultKind::Straggler),
            ]
        );
        let recovered: Vec<FaultEvent> = orch.recovery_events().iter().map(|r| r.fault).collect();
        assert_eq!(recovered, fired);
        assert_eq!(orch.stats()[0].timeouts, 1);
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
        assert!(
            matches!(
                err,
                QueryError::Exec(ExecError::Runtime(RuntimeError::InvalidFaultTarget { .. }))
            ),
            "{err}"
        );
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
                assert!(matches!(
                    *last,
                    QueryError::Exec(ExecError::Runtime(RuntimeError::InjectedFault { .. }))
                ));
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
            .service
            .serve_with(
                0,
                |pinned| Ok((pinned.ctx.tree().fingerprint(), false)),
                |pinned, prepared_on| {
                    seen.push(pinned.ctx.tree().fingerprint());
                    assert_eq!(seen.last(), Some(prepared_on));
                    if seen.len() == 1 {
                        orch.service().degrade_link(EdgeId(0), 4.0).unwrap();
                        return Err(RuntimeError::InjectedFault {
                            node: victim,
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
