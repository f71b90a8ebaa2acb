//! The engine-agnostic execution layer.
//!
//! The repository ships two executors for the same cost model: the
//! centralized simulator and the pooled BSP cluster (compute nodes'
//! states on a bounded worker pool). Both are interpreters of one thing,
//! a [`ScheduleJob`] — every send of every round of an algorithm, fixed
//! before anything runs — and [`ExecBackend`] puts one API in front of
//! them, so the query layer, the experiment harness and the parity tests
//! *select* an engine instead of hand-rolling two call paths.
//! [`SimulatorBackend`] appends every round's deliveries to a copy of the
//! placement in one pass; [`PooledClusterBackend`] replays them on a
//! worker crew, its workers pulling each node's deliveries from the job.
//! Both first [`check`](ScheduleJob::check) the job and validate the
//! placement against the tree, so they refuse the same inputs with the
//! same error, and both return the job's ledger: one [`Cost`], metered
//! once per tree on the shared
//! [`TrafficMeter`](tamp_simulator::TrafficMeter).
//!
//! # Adding a new algorithm against `ExecBackend`
//!
//! Emit a [`Schedule`](crate::jobs::Schedule): derive the plan from the
//! shared knowledge §2 grants (topology, cardinalities, seed), push each
//! round's sends in a deterministic order, wrap it in
//! [`ScheduleJob::new`] and run it on either backend. That the plan *is*
//! derivable per node, without coordination, is witnessed once, by
//! [`programs`](crate::programs).

use std::sync::Arc;

use tamp_simulator::cost::Cost;
use tamp_simulator::{NodeState, Placement, SimError};
use tamp_topology::Tree;

use crate::checkpoint::{CheckpointSpec, CheckpointStore};
use crate::cluster::{replay, CheckpointHook, ClusterOptions, RunHooks};
use crate::error::RuntimeError;
use crate::fault::FaultInjector;
use crate::jobs::ScheduleJob;
use crate::pool::WorkerPool;

/// Errors from engine-agnostic execution: a model error or a runtime
/// error, from either engine.
///
/// `Eq` is deliberately absent: [`RuntimeError`]'s link-degradation
/// variant carries an `f64` factor.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A model error ([`SimError`]): a placement or send the model
    /// rejects.
    Sim(SimError),
    /// A runtime error: a job that does not fit the tree, a fault, a
    /// timeout, a bad backend spec.
    Runtime(RuntimeError),
}

/// The variant names the error's type, not the engine that raised it
/// (both engines raise both), so the text names no engine.
impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Sim(e) => write!(f, "{e}"),
            ExecError::Runtime(e) => write!(f, "{e}"),
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
    /// Metered cost: the job's union-of-paths ledger on the tree it ran
    /// on, the same on every backend.
    pub cost: Cost,
    /// Metered communication rounds (`cost.per_round.len()`).
    pub rounds: usize,
    /// Logical BSP supersteps, not crew wakes. For the simulator this is
    /// `rounds`; the cluster runs `rounds + 1`, the extra one absorbing the
    /// last round's deliveries into the nodes' states (the job's length
    /// is fixed, so nothing is detected there). A checkpoint-resumed run
    /// counts from superstep 0, so the total stays comparable with a
    /// fault-free run.
    pub supersteps: usize,
    /// `Some(r)` when the cluster resumed this run from a parked
    /// checkpoint at superstep `r` (supersteps `0..r` were skipped, not
    /// replayed); `None` for a from-scratch run and for the simulator.
    pub resumed_from: Option<usize>,
    /// Final per-node states, indexed by node id.
    pub final_state: Vec<NodeState>,
}

/// An execution engine for [`ScheduleJob`]s.
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
        job: &ScheduleJob,
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
        job: &ScheduleJob,
    ) -> Result<ExecOutcome, ExecError> {
        (**self).execute(tree, placement, job)
    }
}

/// The centralized engine: every round's deliveries appended to a copy
/// of the placement, node by node, in the cluster's delivery order.
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
        job: &ScheduleJob,
    ) -> Result<ExecOutcome, ExecError> {
        job.check(tree)?;
        placement.validate(tree)?;
        let rounds = job.rounds();
        let mut final_state = placement.fragments().to_vec();
        for &v in tree.compute_nodes() {
            job.deliver(v, 0..rounds, &mut final_state[v.index()]);
        }
        Ok(ExecOutcome {
            job: job.name().to_string(),
            cost: job.ledger(tree),
            rounds,
            supersteps: rounds,
            resumed_from: None,
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
}

/// The pooled cluster engine: the job's rounds replayed on a bounded
/// worker pool, one wake per window of supersteps (see [`crate::cluster`]).
///
/// By default each execution spawns its own scoped thread crew. For
/// serving workloads that run many jobs back to back, construct the
/// backend with [`with_shared_pool`](Self::with_shared_pool): the crew is
/// spawned once and reused across every `execute` call (jobs serialize on
/// the pool; results stay bit-identical). A serving layer that
/// wants to kill workers mid-query attaches a [`FaultInjector`] with
/// [`with_fault_injector`](Self::with_fault_injector). Results are
/// bit-identical across both crew modes and every width — only
/// wall-clock changes — so the crew never invalidates a cached plan.
#[derive(Clone, Debug, Default)]
pub struct PooledClusterBackend {
    /// Pool and superstep options.
    pub options: ClusterOptions,
    /// Where executions get their thread crew.
    crew: Crew,
    /// Fault-injection arming point shared with a serving layer.
    injector: Option<Arc<FaultInjector>>,
    /// Superstep checkpointing: the shared snapshot store and cadence.
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

    /// Attach a [`FaultInjector`]: every subsequent `execute` call checks
    /// it for an armed [`FaultPlan`](crate::fault::FaultPlan) at run
    /// start (builder-style; clones share the injector).
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Attach superstep checkpointing (builder-style; clones share the
    /// store): a run that aborts with a recoverable fault parks a snapshot
    /// of its last `spec.every`-th boundary under the job's
    /// [`checkpoint_token`](ScheduleJob::checkpoint_token) and its
    /// placement's digest; a retry of both resumes from it.
    pub fn with_checkpoints(mut self, store: Arc<CheckpointStore>, spec: CheckpointSpec) -> Self {
        self.checkpoints = Some((store, spec));
        self
    }
}

impl ExecBackend for PooledClusterBackend {
    fn name(&self) -> String {
        match (&self.crew, self.options.workers) {
            (Crew::Shared(p), _) => format!("pooled-cluster(shared {})", p.size()),
            (Crew::Scoped, Some(w)) => format!("pooled-cluster({w})"),
            (Crew::Scoped, None) => "pooled-cluster".into(),
        }
    }

    fn execute(
        &self,
        tree: &Tree,
        placement: &Placement,
        job: &ScheduleJob,
    ) -> Result<ExecOutcome, ExecError> {
        job.check(tree)?;
        placement.validate(tree)?;
        let crew = match &self.crew {
            Crew::Scoped => None,
            Crew::Shared(p) => Some(&**p),
        };
        // The token is a content hash: only asked for when there is a
        // store to key.
        let checkpoint = self
            .checkpoints
            .as_ref()
            .map(|(store, spec)| CheckpointHook {
                store,
                spec: *spec,
                token: job.checkpoint_token(),
            });
        let hooks = RunHooks {
            pool: crew,
            fault: self.injector.as_deref(),
            checkpoint,
        };
        Ok(replay(tree, placement, job, self.options, hooks)?)
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{Schedule, ScheduleSend};
    use tamp_simulator::Rel;
    use tamp_topology::{builders, NodeId};

    fn send(src: u32, dsts: &[NodeId]) -> ScheduleSend {
        ScheduleSend {
            src: NodeId(src),
            dsts: dsts.into(),
            rel: Rel::R,
            values: (0..12).collect::<Vec<_>>().into(),
        }
    }

    /// One round, one send: node 0 multicasts twelve values to every
    /// compute node of `tree`.
    fn broadcast_job(tree: &Tree) -> ScheduleJob {
        let rounds = vec![vec![send(0, tree.compute_nodes())]];
        ScheduleJob::new("broadcast", tree.num_nodes(), Schedule { rounds })
    }

    #[test]
    fn paired_job_is_bit_identical_across_backends() {
        let tree = builders::star(5, 1.0);
        let p = Placement::empty(&tree);
        let job = broadcast_job(&tree);
        let sim = SimulatorBackend.execute(&tree, &p, &job).unwrap();
        let rt = PooledClusterBackend::default()
            .execute(&tree, &p, &job)
            .unwrap();
        assert_eq!(sim.cost.edge_totals, rt.cost.edge_totals);
        assert_eq!(sim.cost.tuple_cost(), 12.0);
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
    fn a_schedule_for_another_tree_is_the_same_typed_error_on_both_backends() {
        let (small, big) = (builders::star(3, 1.0), builders::star(8, 1.0));
        let two_sends = |num_nodes: usize, a: u32, d: u32| {
            let rounds = vec![vec![send(a, &[NodeId(d)]), send(1, &[NodeId(2)])]];
            ScheduleJob::new("bad", num_nodes, Schedule { rounds })
        };
        let hub = NodeId(small.num_nodes() as u32 - 1);
        assert!(!small.is_compute(hub));
        for (tree, job) in [
            // Built for the big star, run on the small one, and back.
            (&small, two_sends(big.num_nodes(), 6, 0)),
            (&big, two_sends(small.num_nodes(), 0, 0)),
            // Equal node counts: a source out of range, a router source.
            (&small, two_sends(small.num_nodes(), 6, 0)),
            (&small, two_sends(small.num_nodes(), hub.0, 0)),
            // A router destination, a destination out of range.
            (&small, two_sends(small.num_nodes(), 0, hub.0)),
            (&small, two_sends(small.num_nodes(), 0, 6)),
        ] {
            let p = Placement::empty(tree);
            let errs = [
                SimulatorBackend.execute(tree, &p, &job).unwrap_err(),
                PooledClusterBackend::with_workers(1)
                    .execute(tree, &p, &job)
                    .unwrap_err(),
            ];
            assert_eq!(errs[0], errs[1]);
            assert!(
                matches!(
                    &errs[0],
                    ExecError::Runtime(RuntimeError::ScheduleMismatch { job, .. }) if job == "bad"
                ),
                "{}",
                errs[0]
            );
            // Both engines raise it, so its text names neither.
            let text = errs[0].to_string();
            assert!(
                !text.contains("cluster") && !text.contains("simulator"),
                "{text}"
            );
        }
        // A job that fits, on a placement that does not: data at the hub,
        // or too few fragments.
        let job = two_sends(small.num_nodes(), 0, 1);
        let mut at_hub = Placement::empty(&small);
        at_hub.set_r(hub, vec![1]);
        let short = Placement::from_fragments(vec![NodeState::default(); 2]);
        let shape = SimError::PlacementShape {
            expected: 4,
            got: 2,
        };
        for (p, want) in [(at_hub, SimError::DataAtRouter(hub)), (short, shape)] {
            let errs = [
                SimulatorBackend.execute(&small, &p, &job).unwrap_err(),
                PooledClusterBackend::with_workers(1)
                    .execute(&small, &p, &job)
                    .unwrap_err(),
            ];
            assert!(!errs[1].to_string().contains("simulator"), "{}", errs[1]);
            assert_eq!(errs, [ExecError::Sim(want.clone()), ExecError::Sim(want)]);
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
        let p = Placement::empty(&tree);
        let job = broadcast_job(&tree);
        let fresh = PooledClusterBackend::default()
            .execute(&tree, &p, &job)
            .unwrap();
        let shared = PooledClusterBackend::with_shared_pool(3);
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
}
