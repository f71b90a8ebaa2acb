//! The engine-agnostic execution layer.
//!
//! The repository ships two executors for the same cost model: the
//! centralized [`Session`] simulator (a protocol closure with a global
//! view) and the pooled BSP cluster (per-node programs on a bounded
//! worker pool). [`ExecBackend`] puts one API in front of both, so
//! protocol drivers, the query layer, the experiment harness and the
//! cross-validation tests *select* an engine instead of hand-rolling two
//! call paths.
//!
//! An [`ExecJob`] is the unit of work. A job exposes up to two views of
//! the same algorithm:
//!
//! - a **centralized** view ([`ExecJob::centralized`]): a
//!   [`Protocol`]-style closure driving a [`Session`] — what
//!   [`SimulatorBackend`] runs;
//! - a **distributed** view ([`ExecJob::distributed`]): one
//!   [`NodeProgram`] per compute node — what [`PooledClusterBackend`]
//!   runs.
//!
//! Jobs with both views (see [`PairedJob`] and the constructors in
//! [`jobs`](crate::jobs)) can run on either backend, and because both
//! engines meter on the shared
//! [`TrafficMeter`](tamp_simulator::TrafficMeter), the resulting
//! [`Cost`] ledgers are bit-identical — the cross-validation tests
//! assert exactly that through this API.
//!
//! # Adding a new protocol against `ExecBackend`
//!
//! 1. Implement the centralized algorithm as a
//!    [`Protocol`] (drive a `Session`).
//! 2. Implement the distributed counterpart as a
//!    [`NodeProgram`] that derives the *same plan*
//!    from shared knowledge (topology, cardinalities, seed) so its sends
//!    match the centralized ones.
//! 3. Bundle them: `PairedJob::new(name, protocol, make_program)` — or
//!    `ProtocolJob` / `ProgramJob` if only one view exists.
//! 4. Cross-validate: run the job on [`SimulatorBackend`] and
//!    [`PooledClusterBackend`] and assert equal `cost.edge_totals` (and
//!    round counts), like `tests/runtime_parity.rs` does.

use std::sync::Arc;

use tamp_simulator::cost::Cost;
use tamp_simulator::{NodeState, Placement, Protocol, Session, SimError};
use tamp_topology::{NodeId, Tree};

use crate::checkpoint::{CheckpointSpec, CheckpointStore};
use crate::cluster::{run_programs, CheckpointHook, ClusterOptions, NodeProgram, RunHooks};
use crate::error::RuntimeError;
use crate::fault::FaultInjector;
use crate::pool::{ElasticPool, WorkerPool};

/// Errors from engine-agnostic execution: either engine's failure mode.
///
/// `Eq` is deliberately absent: [`RuntimeError`]'s link-degradation
/// variant carries an `f64` factor.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The centralized engine failed.
    Sim(SimError),
    /// The cluster engine failed.
    Runtime(RuntimeError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Sim(e) => write!(f, "simulator backend: {e}"),
            ExecError::Runtime(e) => write!(f, "cluster backend: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> Self {
        ExecError::Sim(e)
    }
}

impl From<RuntimeError> for ExecError {
    fn from(e: RuntimeError) -> Self {
        ExecError::Runtime(e)
    }
}

/// The result of executing a job on some backend.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// Job name (for reports).
    pub job: String,
    /// Backend name (for reports).
    pub backend: String,
    /// Metered cost, on the shared union-of-paths ledger.
    pub cost: Cost,
    /// Metered communication rounds (`cost.per_round.len()`).
    pub rounds: usize,
    /// BSP supersteps executed. For the simulator this equals `rounds`;
    /// the cluster adds the terminal silent superstep in which
    /// termination was detected. A checkpoint-resumed run counts from
    /// superstep 0, so the total stays comparable with a fault-free run.
    pub supersteps: usize,
    /// `Some(r)` when the cluster resumed this run from a parked
    /// checkpoint at superstep `r` (supersteps `0..r` were skipped, not
    /// replayed); `None` for a from-scratch run and for the simulator.
    pub resumed_from: Option<usize>,
    /// Final per-node states, indexed by node id.
    pub final_state: Vec<NodeState>,
}

/// Output-erased centralized view: a protocol whose output is dropped (or
/// captured internally by the job).
pub trait CentralizedView {
    /// Drive the session to completion.
    fn run(&self, session: &mut Session<'_>) -> Result<(), SimError>;
}

/// A unit of work executable by any [`ExecBackend`] that supports at
/// least one of its views.
pub trait ExecJob {
    /// Human-readable job name.
    fn name(&self) -> String;

    /// The centralized view, if the job has one.
    fn centralized(&self) -> Option<Box<dyn CentralizedView + '_>> {
        None
    }

    /// The distributed view: the program for compute node `v`, if the job
    /// has one. Implementations must be all-or-nothing across nodes.
    fn distributed(&self, _v: NodeId) -> Option<Box<dyn NodeProgram>> {
        None
    }

    /// Superstep-checkpointing opt-in. `Some(token)` declares the job
    /// **resumable**: its per-node programs are stateless per round
    /// (behavior a function of `ctx.round`, node state, and arrived
    /// messages alone), so fresh program instances can continue a run
    /// restored from a mid-run snapshot. The token must be a content
    /// hash of the job's deterministic behavior — two jobs share a token
    /// only if their runs are interchangeable superstep for superstep.
    /// The default `None` opts out: jobs with hidden program-local state
    /// are never checkpointed.
    fn checkpoint_token(&self) -> Option<u64> {
        None
    }

    /// The job's statically known superstep count, if it has one.
    /// Schedule-replay jobs run exactly their schedule's length, so the
    /// cluster backend raises its runaway cap
    /// ([`ClusterOptions::max_supersteps`]) to cover the declared replay
    /// — a long prepared fixpoint is not a non-halting program. The
    /// default `None` leaves the cap as configured.
    fn superstep_hint(&self) -> Option<usize> {
        None
    }
}

/// An execution engine for [`ExecJob`]s.
///
/// Backends take `&self` and the shipped engines are stateless (or
/// internally synchronized), so one backend value can serve many threads:
/// wrap it in an [`Arc`] — `Arc<B>` is itself an `ExecBackend` — and
/// share it across sessions, the way the query serving layer does.
pub trait ExecBackend {
    /// Backend name (for reports).
    fn name(&self) -> String;

    /// Execute `job` from `placement` on `tree`.
    fn execute(
        &self,
        tree: &Tree,
        placement: &Placement,
        job: &dyn ExecJob,
    ) -> Result<ExecOutcome, ExecError>;
}

impl<B: ExecBackend + ?Sized> ExecBackend for Arc<B> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn execute(
        &self,
        tree: &Tree,
        placement: &Placement,
        job: &dyn ExecJob,
    ) -> Result<ExecOutcome, ExecError> {
        (**self).execute(tree, placement, job)
    }
}

fn unsupported(backend: &dyn ExecBackend, job: &dyn ExecJob) -> ExecError {
    ExecError::Runtime(RuntimeError::UnsupportedJob {
        backend: backend.name(),
        job: job.name(),
    })
}

/// The centralized engine: runs a job's [`CentralizedView`] on a
/// [`Session`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SimulatorBackend;

impl ExecBackend for SimulatorBackend {
    fn name(&self) -> String {
        "simulator".into()
    }

    fn execute(
        &self,
        tree: &Tree,
        placement: &Placement,
        job: &dyn ExecJob,
    ) -> Result<ExecOutcome, ExecError> {
        let view = job.centralized().ok_or_else(|| unsupported(self, job))?;
        // Session::new validates the placement.
        let mut session = Session::new(tree, placement)?;
        view.run(&mut session)?;
        let (cost, final_state, rounds) = session.into_parts();
        Ok(ExecOutcome {
            job: job.name(),
            backend: self.name(),
            rounds,
            supersteps: rounds,
            resumed_from: None,
            cost,
            final_state,
        })
    }
}

/// How a [`PooledClusterBackend`] sources its thread crew.
#[derive(Clone, Debug, Default)]
enum Crew {
    /// Spawn a scoped crew per `execute` call (the default).
    #[default]
    Scoped,
    /// A fixed persistent crew, spawned once and reused by every run.
    Shared(Arc<WorkerPool>),
    /// An elastic crew whose width a control loop may change between
    /// runs; each `execute` pins the crew current at its start.
    Elastic(Arc<ElasticPool>),
}

/// The pooled cluster engine: runs a job's distributed view on a bounded
/// worker pool (see [`crate::cluster`]).
///
/// By default each execution spawns its own scoped thread crew. For
/// serving workloads that run many jobs back to back, construct the
/// backend with [`with_shared_pool`](Self::with_shared_pool): the crew is
/// spawned once and reused across every `execute` call (jobs serialize on
/// the pool; results stay bit-identical). An orchestration layer that
/// wants to *resize* that crew between queries uses
/// [`with_elastic_pool`](Self::with_elastic_pool) instead, and one that
/// wants to kill workers mid-query attaches a [`FaultInjector`] with
/// [`with_fault_injector`](Self::with_fault_injector). Results are
/// bit-identical across every crew mode and width — only wall-clock
/// changes — so none of these knobs invalidates cached plans.
#[derive(Clone, Debug, Default)]
pub struct PooledClusterBackend {
    /// Pool and superstep options.
    pub options: ClusterOptions,
    /// Where executions get their thread crew.
    crew: Crew,
    /// Fault-injection arming point shared with an orchestration layer.
    injector: Option<Arc<FaultInjector>>,
    /// Superstep checkpointing: the shared snapshot store and cadence.
    /// Only attached to runs whose job opts in via
    /// [`ExecJob::checkpoint_token`].
    checkpoints: Option<(Arc<CheckpointStore>, CheckpointSpec)>,
}

impl PooledClusterBackend {
    /// A pooled backend with explicit options.
    pub fn new(options: ClusterOptions) -> Self {
        PooledClusterBackend {
            options,
            ..PooledClusterBackend::default()
        }
    }

    /// A pooled backend with a fixed worker count.
    pub fn with_workers(workers: usize) -> Self {
        PooledClusterBackend::new(ClusterOptions::with_workers(workers))
    }

    /// A pooled backend whose `workers`-thread crew is spawned once and
    /// reused by every subsequent `execute` call — the pool-reuse mode
    /// for serving many queries against one shared backend. Clones share
    /// the same crew.
    pub fn with_shared_pool(workers: usize) -> Self {
        PooledClusterBackend {
            options: ClusterOptions::with_workers(workers.max(1)),
            crew: Crew::Shared(Arc::new(WorkerPool::new(workers))),
            ..PooledClusterBackend::default()
        }
    }

    /// A pooled backend executing on an [`ElasticPool`]: each run pins
    /// the crew current at its start, so a control loop can
    /// [`resize`](ElasticPool::resize) the pool between queries without
    /// disturbing in-flight ones. Clones share the same elastic pool.
    pub fn with_elastic_pool(pool: Arc<ElasticPool>) -> Self {
        PooledClusterBackend {
            crew: Crew::Elastic(pool),
            ..PooledClusterBackend::default()
        }
    }

    /// Attach a [`FaultInjector`]: every subsequent `execute` call checks
    /// it for an armed [`FaultPlan`](crate::fault::FaultPlan) at run
    /// start (builder-style; clones share the injector).
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Attach superstep checkpointing (builder-style; clones share the
    /// store): runs of jobs that opt in via
    /// [`ExecJob::checkpoint_token`] snapshot at every `spec.every`
    /// superstep boundary, park the latest snapshot on a recoverable
    /// fault, and resume from a parked snapshot on retry.
    pub fn with_checkpoints(mut self, store: Arc<CheckpointStore>, spec: CheckpointSpec) -> Self {
        self.checkpoints = Some((store, spec));
        self
    }

    /// The persistent crew, when this backend was built with
    /// [`with_shared_pool`](Self::with_shared_pool).
    pub fn shared_pool(&self) -> Option<&Arc<WorkerPool>> {
        match &self.crew {
            Crew::Shared(p) => Some(p),
            _ => None,
        }
    }

    /// The elastic pool, when this backend was built with
    /// [`with_elastic_pool`](Self::with_elastic_pool).
    pub fn elastic_pool(&self) -> Option<&Arc<ElasticPool>> {
        match &self.crew {
            Crew::Elastic(p) => Some(p),
            _ => None,
        }
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// The attached checkpoint store, if any.
    pub fn checkpoint_store(&self) -> Option<&Arc<CheckpointStore>> {
        self.checkpoints.as_ref().map(|(store, _)| store)
    }
}

impl ExecBackend for PooledClusterBackend {
    fn name(&self) -> String {
        match (&self.crew, self.options.workers) {
            (Crew::Shared(p), _) => format!("pooled-cluster(shared {})", p.size()),
            (Crew::Elastic(p), _) => format!("pooled-cluster(elastic {})", p.width()),
            (Crew::Scoped, Some(w)) => format!("pooled-cluster({w})"),
            (Crew::Scoped, None) => "pooled-cluster".into(),
        }
    }

    fn execute(
        &self,
        tree: &Tree,
        placement: &Placement,
        job: &dyn ExecJob,
    ) -> Result<ExecOutcome, ExecError> {
        let programs: Option<Vec<Box<dyn NodeProgram>>> = tree
            .compute_nodes()
            .iter()
            .map(|&v| job.distributed(v))
            .collect();
        let programs = programs.ok_or_else(|| unsupported(self, job))?;
        // Pin the crew for this run: an elastic resize after this point
        // affects the *next* run, never this one.
        let crew: Option<Arc<WorkerPool>> = match &self.crew {
            Crew::Scoped => None,
            Crew::Shared(p) => Some(Arc::clone(p)),
            Crew::Elastic(p) => Some(p.snapshot()),
        };
        // Checkpointing needs both the backend's store and the job's
        // opt-in token — resumability is a property of the job. The token
        // is a content hash: only asked for when there is a store to key.
        let checkpoint = self.checkpoints.as_ref().and_then(|(store, spec)| {
            Some(CheckpointHook {
                store,
                spec: *spec,
                token: job.checkpoint_token()?,
            })
        });
        // A job that declares its superstep count gets room for it: the
        // runaway cap protects against non-halting programs, not against
        // legitimately long declared-finite replays. +1 covers the
        // terminal silent superstep that detects quiescence.
        let mut options = self.options;
        if let Some(hint) = job.superstep_hint() {
            options.max_supersteps = options.max_supersteps.max(hint + 1);
        }
        let run = run_programs(
            tree,
            placement,
            programs,
            options,
            RunHooks {
                pool: crew.as_deref(),
                fault: self.injector.as_deref(),
                checkpoint,
            },
        )?;
        Ok(ExecOutcome {
            job: job.name(),
            backend: self.name(),
            rounds: run.cost.per_round.len(),
            supersteps: run.supersteps,
            resumed_from: run.resumed_from,
            cost: run.cost,
            final_state: run.final_state,
        })
    }
}

/// The standard engine pair for cross-validation: the simulator and the
/// default pooled cluster.
pub fn standard_backends() -> Vec<Box<dyn ExecBackend>> {
    vec![
        Box::new(SimulatorBackend),
        Box::new(PooledClusterBackend::default()),
    ]
}

/// Backend selection hook: resolve a backend from a spec string, so
/// drivers (examples, benches, env-var switches) can let callers pick an
/// engine without hard-wiring one.
///
/// Recognized specs:
///
/// - `"simulator"` (or `"sim"`) — the centralized [`SimulatorBackend`];
/// - `"pooled-cluster"` (or `"cluster"`) — the default
///   [`PooledClusterBackend`];
/// - `"pooled-cluster:<N>"` / `"cluster:<N>"` — a pooled cluster with an
///   explicit worker count.
///
/// Anything else is a typed [`RuntimeError::UnknownBackend`] whose
/// message names the offending spec and lists every valid one — drivers
/// propagate it instead of silently falling back to a default engine. A
/// syntactically valid pool spec with a zero width (`"cluster:0"`) is its
/// own typed error, [`RuntimeError::InvalidPoolWidth`]: a zero-thread
/// crew can never execute a superstep, so the spec is rejected up front
/// instead of handing back a degenerate pool.
///
/// The returned backend is `Send + Sync`, so callers may move it behind
/// an `Arc` and serve many threads from it.
pub fn backend_from_spec(spec: &str) -> Result<Box<dyn ExecBackend + Send + Sync>, RuntimeError> {
    let unknown = || RuntimeError::UnknownBackend {
        spec: spec.to_string(),
    };
    match spec.trim() {
        "simulator" | "sim" => Ok(Box::new(SimulatorBackend)),
        "pooled-cluster" | "cluster" => Ok(Box::new(PooledClusterBackend::default())),
        other => {
            let workers = other
                .strip_prefix("pooled-cluster:")
                .or_else(|| other.strip_prefix("cluster:"))
                .ok_or_else(unknown)?;
            let workers: usize = workers.parse().map_err(|_| unknown())?;
            if workers == 0 {
                return Err(RuntimeError::InvalidPoolWidth {
                    spec: spec.to_string(),
                });
            }
            Ok(Box::new(PooledClusterBackend::with_workers(workers)))
        }
    }
}

struct ErasedProtocol<'p, P>(&'p P);

impl<'p, P: Protocol> CentralizedView for ErasedProtocol<'p, P> {
    fn run(&self, session: &mut Session<'_>) -> Result<(), SimError> {
        self.0.run(session).map(|_output| ())
    }
}

/// A centralized-only job wrapping a [`Protocol`].
pub struct ProtocolJob<P>(pub P);

impl<P: Protocol> ExecJob for ProtocolJob<P> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn centralized(&self) -> Option<Box<dyn CentralizedView + '_>> {
        Some(Box::new(ErasedProtocol(&self.0)))
    }
}

/// A distributed-only job wrapping a program factory.
pub struct ProgramJob<F> {
    name: String,
    make: F,
}

impl<F: Fn(NodeId) -> Box<dyn NodeProgram>> ProgramJob<F> {
    /// A job named `name` whose node `v` runs `make(v)`.
    pub fn new(name: impl Into<String>, make: F) -> Self {
        ProgramJob {
            name: name.into(),
            make,
        }
    }
}

impl<F: Fn(NodeId) -> Box<dyn NodeProgram>> ExecJob for ProgramJob<F> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn distributed(&self, v: NodeId) -> Option<Box<dyn NodeProgram>> {
        Some((self.make)(v))
    }
}

/// A job with both views: the centralized protocol and its distributed
/// per-node counterpart. Runs on every backend; the cross-validation
/// tests assert the two views move bit-identical traffic.
pub struct PairedJob<P, F> {
    name: String,
    protocol: P,
    make: F,
}

impl<P, F> PairedJob<P, F>
where
    P: Protocol,
    F: Fn(NodeId) -> Box<dyn NodeProgram>,
{
    /// Pair `protocol` with the program factory `make` under `name`.
    pub fn new(name: impl Into<String>, protocol: P, make: F) -> Self {
        PairedJob {
            name: name.into(),
            protocol,
            make,
        }
    }
}

impl<P, F> ExecJob for PairedJob<P, F>
where
    P: Protocol,
    F: Fn(NodeId) -> Box<dyn NodeProgram>,
{
    fn name(&self) -> String {
        self.name.clone()
    }

    fn centralized(&self) -> Option<Box<dyn CentralizedView + '_>> {
        Some(Box::new(ErasedProtocol(&self.protocol)))
    }

    fn distributed(&self, v: NodeId) -> Option<Box<dyn NodeProgram>> {
        Some((self.make)(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Outbox, Step};
    use crate::NodeCtx;
    use tamp_simulator::Rel;
    use tamp_topology::builders;

    fn broadcast_job() -> PairedJob<Broadcast, impl Fn(NodeId) -> Box<dyn NodeProgram>> {
        PairedJob::new("broadcast", Broadcast, |v| {
            Box::new(
                move |ctx: &NodeCtx<'_>, state: &mut NodeState, out: &mut Outbox| {
                    if ctx.round == 0 && v == NodeId(0) {
                        out.send(ctx.tree.compute_nodes(), Rel::R, state.r.clone());
                        return Step::Continue;
                    }
                    Step::Halt
                },
            )
        })
    }

    struct Broadcast;

    impl Protocol for Broadcast {
        type Output = ();
        fn name(&self) -> String {
            "broadcast".into()
        }
        fn run(&self, s: &mut Session<'_>) -> Result<(), SimError> {
            let all: Vec<NodeId> = s.tree().compute_nodes().to_vec();
            s.round(|r| {
                let vals = r.state(NodeId(0)).r.clone();
                r.send(NodeId(0), &all, Rel::R, &vals)
            })
        }
    }

    #[test]
    fn paired_job_is_bit_identical_across_backends() {
        let tree = builders::star(5, 1.0);
        let mut p = Placement::empty(&tree);
        p.set_r(NodeId(0), (0..12).collect());
        let job = broadcast_job();
        let mut outcomes = Vec::new();
        for backend in standard_backends() {
            outcomes.push(backend.execute(&tree, &p, &job).unwrap());
        }
        let (sim, rt) = (&outcomes[0], &outcomes[1]);
        assert_eq!(sim.cost.edge_totals, rt.cost.edge_totals);
        assert_eq!(sim.rounds, rt.rounds);
        assert_eq!(rt.supersteps, rt.rounds + 1);
        for v in tree.nodes() {
            assert_eq!(
                sim.final_state[v.index()].r,
                rt.final_state[v.index()].r,
                "node {v}"
            );
        }
    }

    #[test]
    fn backend_specs_resolve() {
        assert_eq!(backend_from_spec("simulator").unwrap().name(), "simulator");
        assert_eq!(backend_from_spec("sim").unwrap().name(), "simulator");
        assert_eq!(
            backend_from_spec("pooled-cluster").unwrap().name(),
            "pooled-cluster"
        );
        assert_eq!(
            backend_from_spec("cluster:3").unwrap().name(),
            "pooled-cluster(3)"
        );
        assert_eq!(
            backend_from_spec("pooled-cluster:8").unwrap().name(),
            "pooled-cluster(8)"
        );
        for bad in ["", "gpu", "cluster:x", "pooled-cluster:"] {
            let err = backend_from_spec(bad).map(|b| b.name()).unwrap_err();
            assert_eq!(
                err,
                RuntimeError::UnknownBackend { spec: bad.into() },
                "{bad:?}"
            );
            // The message names the spec and lists the valid ones.
            let msg = err.to_string();
            assert!(msg.contains(&format!("`{bad}`")), "{msg}");
            assert!(
                msg.contains("simulator") && msg.contains("pooled-cluster"),
                "{msg}"
            );
        }
    }

    #[test]
    fn zero_width_pool_specs_are_typed_errors() {
        // A parseable width of 0 is not an unknown engine — it is an
        // invalid pool width, and must never construct a degenerate pool.
        for bad in ["cluster:0", "pooled-cluster:0", " pooled-cluster:0 "] {
            let err = backend_from_spec(bad).map(|b| b.name()).unwrap_err();
            assert_eq!(
                err,
                RuntimeError::InvalidPoolWidth { spec: bad.into() },
                "{bad:?}"
            );
            let msg = err.to_string();
            assert!(msg.contains("zero-width"), "{msg}");
        }
    }

    #[test]
    fn shared_pool_backend_is_reusable_and_bit_identical() {
        let tree = builders::star(5, 1.0);
        let mut p = Placement::empty(&tree);
        p.set_r(NodeId(0), (0..12).collect());
        let job = broadcast_job();
        let fresh = PooledClusterBackend::default()
            .execute(&tree, &p, &job)
            .unwrap();
        let shared = PooledClusterBackend::with_shared_pool(3);
        assert!(shared.shared_pool().is_some());
        assert_eq!(shared.name(), "pooled-cluster(shared 3)");
        // The same crew executes many jobs — including through an
        // Arc-shared clone — with ledgers identical to a per-run crew.
        let shared2 = Arc::new(shared.clone());
        for backend in [&shared as &dyn ExecBackend, &shared2 as &dyn ExecBackend] {
            for _ in 0..3 {
                let run = backend.execute(&tree, &p, &job).unwrap();
                assert_eq!(run.cost.edge_totals, fresh.cost.edge_totals);
                assert_eq!(run.rounds, fresh.rounds);
            }
        }
    }

    #[test]
    fn missing_views_are_typed_errors() {
        let tree = builders::star(2, 1.0);
        let p = Placement::empty(&tree);
        let central_only = ProtocolJob(Broadcast);
        let err = PooledClusterBackend::default()
            .execute(&tree, &p, &central_only)
            .unwrap_err();
        assert!(matches!(
            err,
            ExecError::Runtime(RuntimeError::UnsupportedJob { .. })
        ));
        let distributed_only = ProgramJob::new("halt", |_| {
            Box::new(|_: &NodeCtx<'_>, _: &mut NodeState, _: &mut Outbox| Step::Halt)
                as Box<dyn NodeProgram>
        });
        let err = SimulatorBackend
            .execute(&tree, &p, &distributed_only)
            .unwrap_err();
        assert!(matches!(
            err,
            ExecError::Runtime(RuntimeError::UnsupportedJob { .. })
        ));
    }
}
