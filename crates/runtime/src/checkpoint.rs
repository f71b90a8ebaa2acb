//! Superstep checkpointing for partial restart.
//!
//! Recovery in the serving arc used to be all-or-nothing: any fault
//! aborted the run and the orchestrator replayed the *entire* schedule
//! on a healthy crew. This module makes recovery incremental: the
//! coordinator snapshots every compute node's state at the last `k`-th
//! superstep boundary before the run's planned kill or degradation, so a
//! healthy run snapshots nothing (under a superstep watchdog, whose
//! timeouts are not planned, at every `k`-th boundary). Nothing else
//! needs saving: the deliveries the next superstep absorbs are read from
//! the job, and the ledger is the job's, priced per tree. When the run
//! aborts with a *recoverable* fault, the snapshot is parked in the
//! shared [`CheckpointStore`]; the retry resumes from that superstep
//! instead of round 0, replaying strictly fewer supersteps while
//! producing bit-identical rows and `edge_totals`:
//!
//! - the snapshot is taken at a barrier, when every worker is parked at
//!   the gate — it is a consistent cut by construction;
//! - the resumed superstep pulls the previous round's deliveries from
//!   the job, exactly as the uninterrupted run would have;
//! - every job is resumable: a
//!   [`ScheduleJob`](crate::jobs::ScheduleJob) fixes each round's sends
//!   up front, so a restored run simply continues with the next round.
//!
//! A snapshot is parked under the job's checkpoint token, a content hash
//! of its schedule, with a digest of the placement its run started from:
//! the token names the sends, not the inputs. Only a retry of the same
//! schedule on the same placement resumes from it — for which it is exact
//! by determinism. Taking a snapshot out of the store pops it (no double
//! resume); a run that ends any other way than a recoverable fault drops
//! its snapshot, so the store never leaks state across unrelated queries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tamp_simulator::NodeState;

use crate::lock_ok;

/// Where a retry may resume: at a multiple of `every`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Snapshot boundaries are after supersteps `every - 1`,
    /// `2·every - 1`, …; the last one before an abort is kept. Always ≥ 1.
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
    parked: Mutex<HashMap<u64, (u64, Checkpoint)>>,
    saved: AtomicU64,
    resumed: AtomicU64,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Pop the snapshot parked under `token` if its run started from the
    /// placement `placement` digests (called only if one is parked);
    /// another placement's stays. Popping prevents a double resume.
    pub(crate) fn take(&self, token: u64, placement: impl FnOnce() -> u64) -> Option<Checkpoint> {
        let mut parked = lock_ok(&self.parked);
        if parked.get(&token)?.0 != placement() {
            return None;
        }
        self.resumed.fetch_add(1, Ordering::Relaxed);
        parked.remove(&token).map(|(_, cp)| cp)
    }

    /// Park `cp` under `token`, with its run's `placement` digest.
    pub(crate) fn put(&self, token: u64, placement: u64, cp: Checkpoint) {
        self.saved.fetch_add(1, Ordering::Relaxed);
        lock_ok(&self.parked).insert(token, (placement, cp));
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
        assert!(store.take(7, || 1).is_none(), "empty store resumes nothing");
        assert_eq!(store.stats().resumed, 0, "a miss is not a resume");

        let cp = Checkpoint {
            resume_round: 4,
            states: Vec::new(),
        };
        store.put(7, 1, cp.clone());
        store.put(9, 1, cp);
        assert_eq!(store.stats().saved, 2);
        assert_eq!(store.stats().retained, 2);

        assert!(
            store.take(7, || 2).is_none(),
            "another placement's snapshot"
        );
        assert_eq!(store.stats().resumed, 0, "a mismatch is not a resume");
        assert_eq!(store.stats().retained, 2, "and it stays parked");

        let taken = store.take(7, || 1).expect("parked snapshot pops");
        assert_eq!(taken.resume_round, 4);
        assert!(
            store.take(7, || 1).is_none(),
            "pop semantics: no double resume"
        );
        assert_eq!(store.stats().resumed, 1);
        assert_eq!(store.stats().retained, 1);

        store.clear();
        assert_eq!(store.stats().retained, 0);
    }
}
