//! Superstep checkpointing for partial restart.
//!
//! Recovery in the serving arc used to be all-or-nothing: any fault
//! aborted the run and the orchestrator replayed the *entire* schedule
//! on a healthy crew. This module makes recovery incremental. At
//! configurable superstep boundaries (every `k`-th barrier) the
//! coordinator snapshots every compute node's state into a checkpoint.
//! Nothing else needs saving: the deliveries the next superstep absorbs
//! are read from the job, and the run's ledger is the job's, priced per
//! tree. If the run later aborts with a *recoverable* fault,
//! the snapshot is parked in the shared [`CheckpointStore`] under the
//! job's checkpoint token; the retry resumes from that superstep instead
//! of round 0, replaying strictly fewer supersteps while producing
//! bit-identical rows and `edge_totals`:
//!
//! - the snapshot is taken at a barrier, when every worker is parked at
//!   the gate — it is a consistent cut by construction;
//! - the resumed superstep pulls the previous round's deliveries from
//!   the job, exactly as the uninterrupted run would have;
//! - every job is resumable: a
//!   [`ScheduleJob`](crate::jobs::ScheduleJob) fixes each round's sends
//!   up front, so a restored run simply continues with the next round.
//!
//! The token is a content hash of the job's deterministic schedule, so a
//! parked snapshot can only ever be consumed by a retry executing the
//! *same* schedule — for which it is exact by determinism. Taking a
//! snapshot out of the store pops it (no double resume); a run that ends
//! any other way than a recoverable fault drops its snapshot on the
//! floor, so the store never leaks state across unrelated queries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tamp_simulator::NodeState;

use crate::lock_ok;

/// When to snapshot: every `every`-th superstep boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Snapshot after supersteps `every - 1`, `2·every - 1`, … (i.e.
    /// every `every`-th completed superstep). Always ≥ 1.
    pub every: usize,
}

impl CheckpointSpec {
    /// Snapshot every `every`-th superstep boundary (floored at 1).
    pub fn every(every: usize) -> Self {
        CheckpointSpec {
            every: every.max(1),
        }
    }

    /// Snapshot cadence for fixpoint jobs whose schedule repeats a
    /// constant block of `rounds_per_iteration` rounds per iteration
    /// (the iterative driver's shape): with `every =
    /// rounds_per_iteration`, every snapshot lands exactly on an
    /// iteration barrier, so a killed run resumes from the last
    /// *completed iteration* — never mid-iteration — and the resume
    /// superstep is always a multiple of the iteration length.
    pub fn at_iteration_barriers(rounds_per_iteration: usize) -> Self {
        CheckpointSpec::every(rounds_per_iteration)
    }
}

/// A consistent cut of one cluster run at a superstep barrier.
#[derive(Clone, Debug)]
pub(crate) struct Checkpoint {
    /// The superstep the restored run resumes at (one past the last
    /// completed superstep).
    pub resume_round: usize,
    /// Per-slot node state after superstep `resume_round - 1`, aligned
    /// with `tree.compute_nodes()`.
    pub states: Vec<NodeState>,
}

/// Counters describing a store's checkpoint traffic, for
/// `Orchestrator::stats()` and the chaos harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Snapshots parked after a recoverable fault.
    pub saved: u64,
    /// Runs that resumed from a parked snapshot.
    pub resumed: u64,
    /// Snapshots currently parked (awaiting a retry).
    pub retained: usize,
}

/// Shared parking lot for crash-consistent snapshots, keyed by the job's
/// checkpoint token (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct CheckpointStore {
    parked: Mutex<HashMap<u64, Checkpoint>>,
    saved: AtomicU64,
    resumed: AtomicU64,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Pop the snapshot parked under `token`, if any. Popping prevents a
    /// stale snapshot from resuming two different runs.
    pub(crate) fn take(&self, token: u64) -> Option<Checkpoint> {
        let cp = lock_ok(&self.parked).remove(&token);
        if cp.is_some() {
            self.resumed.fetch_add(1, Ordering::Relaxed);
        }
        cp
    }

    /// Park `cp` under `token` for the next retry of the same schedule.
    pub(crate) fn put(&self, token: u64, cp: Checkpoint) {
        self.saved.fetch_add(1, Ordering::Relaxed);
        lock_ok(&self.parked).insert(token, cp);
    }

    /// Drop every parked snapshot.
    pub fn clear(&self) {
        lock_ok(&self.parked).clear();
    }

    /// Current counters.
    pub fn stats(&self) -> CheckpointStats {
        CheckpointStats {
            saved: self.saved.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            retained: lock_ok(&self.parked).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_floors_at_one() {
        assert_eq!(CheckpointSpec::every(0).every, 1);
        assert_eq!(CheckpointSpec::every(4).every, 4);
    }

    #[test]
    fn store_parks_pops_and_counts() {
        let store = CheckpointStore::new();
        assert_eq!(store.stats(), CheckpointStats::default());
        assert!(store.take(7).is_none(), "empty store resumes nothing");
        assert_eq!(store.stats().resumed, 0, "a miss is not a resume");

        let cp = Checkpoint {
            resume_round: 4,
            states: Vec::new(),
        };
        store.put(7, cp.clone());
        store.put(9, cp);
        assert_eq!(store.stats().saved, 2);
        assert_eq!(store.stats().retained, 2);

        let taken = store.take(7).expect("parked snapshot pops");
        assert_eq!(taken.resume_round, 4);
        assert!(store.take(7).is_none(), "pop semantics: no double resume");
        assert_eq!(store.stats().resumed, 1);
        assert_eq!(store.stats().retained, 1);

        store.clear();
        assert_eq!(store.stats().retained, 0);
    }
}
