//! # tamp-runtime
//!
//! A pooled, message-passing BSP executor for the topology-aware MPC
//! model — the "could this actually run on a cluster?" counterpart to the
//! centralized cost simulator in [`tamp_simulator`].
//!
//! An algorithm is shipped as a [`Schedule`] — every send of every
//! round, a deterministic function of the shared model knowledge
//! (topology, bandwidths, initial cardinalities — exactly what §2 of the
//! paper grants every algorithm) — wrapped in a [`ScheduleJob`]. The
//! [`backend`] module's [`ExecBackend`] trait fronts its two
//! interpreters, the centralized simulator and this pooled cluster. The
//! job prices its schedule once per tree on the simulator's
//! union-of-paths meter, and both engines return that one ledger; all
//! they do themselves is move data. On the cluster, a **bounded worker
//! pool** (default: available parallelism) appends each compute node's
//! deliveries, read from the job's per-destination index, to its state
//! a window of supersteps per wake, so topologies with thousands of nodes
//! execute with a handful of OS threads.
//!
//! The [`programs`] module keeps one hand-written per-node derivation,
//! [`DistributedTreeIntersect`](programs::DistributedTreeIntersect), as
//! the witness that such a plan really is derivable by every node alone:
//! each node computes its own sends from shared knowledge and its own
//! fragment, the job concatenating them is traffic-identical to the
//! centralized protocol's run on the simulator, and the cross-validation
//! tests assert equal costs to the bit. This is the strongest evidence
//! the repository offers that the paper's "simple, constant-round"
//! protocols are implementable with no hidden coordination.
//!
//! A two-round job, replayed on the cluster:
//!
//! ```
//! use tamp_runtime::{ExecBackend, PooledClusterBackend, Schedule, ScheduleJob, ScheduleSend};
//! use tamp_simulator::{Placement, Rel};
//! use tamp_topology::{builders, NodeId};
//!
//! let tree = builders::star(3, 1.0);
//! let send = |src: u32, dsts: &[NodeId], values: Vec<u64>| ScheduleSend {
//!     src: NodeId(src),
//!     dsts: dsts.into(),
//!     rel: Rel::R,
//!     values: values.into(),
//! };
//! // Round 0: node 0 broadcasts three values. Round 1: node 2 passes
//! // one on to node 1.
//! let schedule = Schedule {
//!     rounds: vec![
//!         vec![send(0, tree.compute_nodes(), vec![1, 2, 3])],
//!         vec![send(2, &[NodeId(1)], vec![9])],
//!     ],
//! };
//! let job = ScheduleJob::new("broadcast-then-forward", tree.num_nodes(), schedule);
//! let run = PooledClusterBackend::default()
//!     .execute(&tree, &Placement::empty(&tree), &job)
//!     .unwrap();
//! assert_eq!(run.final_state[2].r, vec![1, 2, 3]);
//! assert_eq!(run.final_state[1].r, vec![1, 2, 3, 9]);
//! // Union-of-paths multicast charging, same as the simulator: 3, then 1.
//! assert_eq!(run.cost.tuple_cost(), 4.0);
//! // Two rounds; the last superstep absorbs round 1's delivery.
//! assert_eq!((run.rounds, run.supersteps), (2, 3));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub(crate) mod checkpoint;
pub mod cluster;
pub mod error;
pub mod fault;
pub mod jobs;
pub mod pool;
pub mod programs;

pub use backend::{
    backend_from_spec, ExecBackend, ExecError, ExecOutcome, PooledClusterBackend, SimulatorBackend,
};
pub use checkpoint::{CheckpointSpec, CheckpointStats, CheckpointStore};
pub use cluster::ClusterOptions;
pub use error::RuntimeError;
pub use fault::{Fault, FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use jobs::{Schedule, ScheduleJob, ScheduleSend};
pub use pool::WorkerPool;

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
