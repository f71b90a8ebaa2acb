//! # tamp-runtime
//!
//! A pooled, message-passing BSP executor for the topology-aware MPC
//! model — the "could this actually run on a cluster?" counterpart to the
//! centralized cost simulator in [`tamp_simulator`].
//!
//! Every compute node of a [`Tree`](tamp_topology::Tree) logically runs a
//! [`NodeProgram`]: a state machine that sees only its local fragment,
//! the shared model knowledge (topology, bandwidths, initial
//! cardinalities — exactly what §2 of the paper grants every algorithm),
//! and the messages delivered to it. Physically, a **bounded worker
//! pool** (default: available parallelism) claims per-node programs from
//! a shared queue each superstep, so topologies with thousands of compute
//! nodes execute with a handful of OS threads. The coordinator
//! synchronizes supersteps, routes messages along the unique tree paths,
//! and meters per-directed-edge traffic on the *same* union-of-paths
//! ledger as the simulator.
//!
//! The [`backend`] module is the engine-agnostic entry point: an
//! algorithm is shipped as a [`Schedule`] — every send of every round, a
//! deterministic function of the shared knowledge — and the
//! [`ExecBackend`] trait fronts the two interpreters of a
//! [`ScheduleJob`], this cluster and the centralized simulator, with
//! bit-identical metered ledgers.
//!
//! The [`programs`] module keeps one hand-written per-node program,
//! [`DistributedTreeIntersect`](programs::DistributedTreeIntersect), as
//! the witness that such a plan really is derivable by every node alone:
//! its pooled run is traffic-identical to the centralized protocol's run
//! on the simulator, and the cross-validation tests assert equal costs to
//! the bit. This is the strongest evidence the repository offers that the
//! paper's "simple, constant-round" protocols are implementable with no
//! hidden coordination.
//!
//! Programs can be ad-hoc closures, too:
//!
//! ```
//! use tamp_runtime::{run_cluster, ClusterOptions, NodeCtx, Outbox, Step};
//! use tamp_simulator::{NodeState, Placement, Rel};
//! use tamp_topology::{builders, NodeId};
//!
//! let tree = builders::star(3, 1.0);
//! let mut placement = Placement::empty(&tree);
//! placement.set_r(NodeId(0), vec![1, 2, 3]);
//!
//! // Node 0 broadcasts its fragment; everyone else just listens.
//! let run = run_cluster(
//!     &tree,
//!     &placement,
//!     |v| {
//!         Box::new(move |ctx: &NodeCtx<'_>, state: &mut NodeState, out: &mut Outbox| {
//!             if ctx.round == 0 && v == NodeId(0) {
//!                 out.send(&ctx.tree.compute_nodes().to_vec(), Rel::R, state.r.clone());
//!                 return Step::Continue;
//!             }
//!             Step::Halt
//!         })
//!     },
//!     ClusterOptions::default(),
//! )
//! .unwrap();
//! assert_eq!(run.final_state[2].r, vec![1, 2, 3]);
//! // Union-of-paths multicast charging, same as the simulator.
//! assert_eq!(run.cost.tuple_cost(), 3.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod checkpoint;
pub mod cluster;
pub mod error;
pub mod fault;
pub mod jobs;
pub mod message;
pub mod pool;
pub mod programs;

pub use backend::{
    backend_from_spec, ExecBackend, ExecError, ExecOutcome, PooledClusterBackend, SimulatorBackend,
};
pub use checkpoint::{CheckpointSpec, CheckpointStats, CheckpointStore};
pub use cluster::{run_cluster, ClusterOptions, NodeCtx, NodeProgram, RuntimeRun};
pub use error::{RuntimeError, VALID_BACKEND_SPECS};
pub use fault::{Fault, FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use jobs::{Schedule, ScheduleJob, ScheduleSend};
pub use message::{Envelope, Outbox, Step};
pub use pool::{ElasticPool, WorkerPool};

/// Recover a usable guard from a possibly-poisoned mutex: the runtime
/// must survive a panicking job (the panic is re-raised on the
/// dispatching thread; the state under these locks is counters, queues
/// and pointers, never left half-written).
pub(crate) fn lock_ok<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
