//! The pooled BSP cluster: a [`ScheduleJob`] replayed on a bounded worker
//! pool, a window of supersteps per wake.
//!
//! A job fixes every send of every round before anything runs — the plan
//! is a function of the shared knowledge §2 grants every node — so the
//! cluster runs no per-node code: it only moves the job's data. Execution
//! is a **bounded worker pool**, not a thread per node: a fixed crew of OS
//! threads (default: available parallelism) claims compute-node slots
//! from a shared queue each window, so a 2048-node — or 100k-node —
//! topology runs on a laptop without 2048 stacks. Logical nodes are
//! decoupled from OS-level resources; only the window barrier is global.
//!
//! No node ever reads another node's state, so the crew is woken once
//! per *window* of consecutive supersteps, cut at run start only where
//! the coordinator must act: under a
//! [`superstep_deadline`](ClusterOptions::superstep_deadline) every
//! superstep is a window; otherwise the armed fault plan fixes the abort
//! (before a degradation's superstep, or after a kill's, which is a
//! window of its own), and a checkpointed run is also cut where its retry
//! would resume. A healthy run is one window. A worker absorbs each slot
//! it claims — appends the node's deliveries of the window's rounds, read
//! from the job's per-destination index, to its state, and leaves a
//! report (absorbed or killed) in the slot — and sends one "drained"
//! token when the queue is empty. Then the coordinator reads the reports
//! in node-id order and snapshots if the window ends on a due boundary.
//! It neither meters nor delivers: every node appends its deliveries in
//! the index's order (rounds, then sources, ascending), so final states
//! are bit-identical for *any* worker count and window cut, and the
//! run's ledger is the job's, priced once per tree.
//!
//! A job of `R` rounds takes `R + 1` logical supersteps. Superstep `i`
//! absorbs what round `i − 1` delivered; superstep 0 absorbs nothing,
//! and the last one, superstep `R`, lands round `R − 1`'s data in the
//! nodes' states before the run hands them back. It adds no round to the
//! ledger and is not termination detection: the job's length is known
//! before the run starts.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use tamp_simulator::{NodeState, Placement};
use tamp_topology::Tree;

use crate::backend::ExecOutcome;
use crate::checkpoint::{Checkpoint, CheckpointSpec, CheckpointStore};
use crate::error::RuntimeError;
use crate::fault::{FaultEvent, FaultInjector, ResolvedFaults};
use crate::jobs::{placement_digest, ScheduleJob};
use crate::pool::WorkerPool;

/// Execution options.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterOptions {
    /// Worker threads in the pool. `None` (the default) uses the
    /// machine's available parallelism. The pool never exceeds the number
    /// of compute nodes.
    pub workers: Option<usize>,
    /// Straggler watchdog: abort a superstep that has not gathered every
    /// node report within this wall-clock deadline, with the typed
    /// [`RuntimeError::SuperstepTimeout`]; a watched run wakes the crew
    /// once per superstep. `None` (the default) waits forever, one wake
    /// per window — results are bit-identical however slow a worker is.
    pub superstep_deadline: Option<Duration>,
}

impl ClusterOptions {
    /// Like `default()`, but with an explicit worker-pool size.
    pub fn with_workers(workers: usize) -> Self {
        ClusterOptions {
            workers: Some(workers),
            ..ClusterOptions::default()
        }
    }

    /// Builder-style: set the straggler watchdog deadline.
    pub fn with_superstep_deadline(mut self, deadline: Duration) -> Self {
        self.superstep_deadline = Some(deadline);
        self
    }

    /// The pool size this configuration resolves to for `n_nodes` compute
    /// nodes: `workers` (or available parallelism), capped at `n_nodes`,
    /// floored at 1.
    pub fn resolved_workers(&self, n_nodes: usize) -> usize {
        let hw = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        self.workers.unwrap_or_else(hw).clamp(1, n_nodes.max(1))
    }
}

/// One compute node's slot in the pool: its state and this window's
/// report. Workers claim slots by index; each slot is touched by one
/// worker per window, and by the coordinator only between windows.
struct Slot {
    state: NodeState,
    /// `None` until the node's window is done; the coordinator takes
    /// it after the barrier.
    report: Option<Report>,
}

/// How one node's window ended.
enum Report {
    /// The window's deliveries landed in the node's state.
    Absorbed,
    /// An injected fault killed this node.
    Killed,
}

/// The window gate: workers sleep on it between windows.
struct Gate {
    /// Bumped once per window; workers run when they see a fresh value.
    generation: u64,
    /// The supersteps of the current window.
    window: Range<usize>,
    /// Set when the run is over and workers should exit.
    stop: bool,
}

/// Raises the gate's stop flag and wakes the crew when dropped. The
/// coordinator holds one for its whole loop, so every exit — return or
/// panic — releases the workers parked at the gate; without it a
/// coordinator panic would leave `thread::scope` joining them forever.
struct StopOnDrop<'a>(&'a Mutex<Gate>, &'a Condvar);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        crate::lock_ok(self.0).stop = true;
        self.1.notify_all();
    }
}

/// Sends a worker's drained token when dropped. A worker holds one while
/// it claims slots, so it reports in even if it unwinds mid-window;
/// the coordinator then finds a slot without a report, panics on it, and
/// releases the crew through [`StopOnDrop`] instead of waiting at the
/// barrier forever.
struct DrainedOnDrop<'a>(&'a Sender<()>);

impl Drop for DrainedOnDrop<'_> {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// Checkpointing configuration for one run: where snapshots park, how
/// often they are taken, and the job token they are keyed by.
pub(crate) struct CheckpointHook<'a> {
    /// The shared parking lot.
    pub store: &'a CheckpointStore,
    /// Snapshot cadence.
    pub spec: CheckpointSpec,
    /// The job's checkpoint token (a schedule-content hash).
    pub token: u64,
}

/// The optional attachments of one cluster execution: a persistent
/// worker crew, a fault-injection arming point, and a checkpoint store.
#[derive(Default)]
pub(crate) struct RunHooks<'a> {
    /// `None` spawns a scoped crew for this run; `Some` dispatches onto
    /// a persistent [`WorkerPool`]. Results are bit-identical either way.
    pub pool: Option<&'a WorkerPool>,
    /// The fault-injection arming point: the front armed plan is
    /// consumed and validated at run start. Kills and degradations abort
    /// the run with a typed recoverable error, stalls delay a worker (and
    /// trip the watchdog under a deadline); fired faults are recorded.
    pub fault: Option<&'a FaultInjector>,
    /// On a recoverable abort, park a snapshot at the last `spec.every`-th
    /// boundary the run passed; the next run with the same token and
    /// placement resumes from it instead of superstep 0.
    pub checkpoint: Option<CheckpointHook<'a>>,
}

/// The windows the crew runs over supersteps `resume..=rounds`, one wake
/// each (see the module docs): one per superstep when `watched`, else cut
/// only where `faults` abort the run, which is where they stop, and at the
/// last multiple of `every` up to the abort, the retry's resume point.
fn windows(
    resume: usize,
    rounds: usize,
    watched: bool,
    faults: Option<&ResolvedFaults>,
    every: Option<usize>,
) -> Vec<Range<usize>> {
    let abort = faults.and_then(|f| f.abort(resume, rounds));
    let stop = abort.as_ref().map_or(rounds + 1, |a| a.end);
    let at = abort.map(|a| a.start);
    let snapshot = at.zip(every).map(|(a, k)| a / k * k);
    let steps = (resume..stop).filter(|&c| watched || c == resume);
    let cuts: BTreeSet<usize> = steps.chain(at).chain(snapshot).chain([stop]).collect();
    let cuts: Vec<usize> = cuts.into_iter().filter(|&c| c >= resume).collect();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Replay `job` from `placement` on the pool: supersteps `0..=rounds`
/// (see the module docs), with the serving layer's optional [`RunHooks`].
/// The caller has [`check`](ScheduleJob::check)ed the job and validated
/// the placement against `tree`, so every endpoint is a compute node and
/// the placement has one fragment per node.
pub(crate) fn replay(
    tree: &Tree,
    placement: &Placement,
    job: &ScheduleJob,
    options: ClusterOptions,
    hooks: RunHooks<'_>,
) -> Result<ExecOutcome, RuntimeError> {
    let computes = tree.compute_nodes();
    let n = computes.len();
    let rounds = job.rounds();

    let mut slots: Vec<Mutex<Slot>> = computes
        .iter()
        .map(|&v| {
            Mutex::new(Slot {
                state: placement.node(v).clone(),
                report: None,
            })
        })
        .collect();

    // Take the front armed fault plan (one-shot per plan: the queue pops,
    // so a retry runs clean unless the chaos layer armed more plans),
    // validate it against the topology — a bad target is a typed error,
    // never a silent no-op — and resolve it into trigger tables.
    let resolved: Option<ResolvedFaults> = match hooks
        .fault
        .and_then(|inj| inj.disarm())
        .filter(|plan| !plan.is_empty())
    {
        Some(plan) => {
            plan.validate(tree)?;
            Some(plan.resolve(tree))
        }
        None => None,
    };

    // Partial restart: pop the snapshot a previous faulted run of this
    // same schedule and placement parked, restore the states from it, and
    // start where it left off; that superstep pulls its deliveries from
    // the job like any other.
    let mut latest_cp: Option<Checkpoint> = hooks
        .checkpoint
        .as_ref()
        .and_then(|h| h.store.take(h.token, || placement_digest(placement)));
    let resume_round = latest_cp.as_ref().map_or(0, |cp| cp.resume_round);
    let resumed_from = latest_cp.as_ref().map(|cp| cp.resume_round);
    if let Some(cp) = &latest_cp {
        for (slot, state) in slots.iter_mut().zip(&cp.states) {
            slot.get_mut().unwrap().state = state.clone();
        }
    }

    let workers = match hooks.pool {
        Some(p) => p.size(),
        None => options.resolved_workers(n),
    };
    // Claim granularity: coarse enough to keep cursor contention low on
    // big topologies, fine enough to balance skewed per-node work.
    let chunk = (n / (workers * 8)).clamp(1, 64);

    // Every abort is planned at run start, so the windows are too.
    let every = hooks.checkpoint.as_ref().map(|h| h.spec.every);
    let watched = options.superstep_deadline.is_some();
    let windows = windows(resume_round, rounds, watched, resolved.as_ref(), every);

    let cursor = AtomicUsize::new(n); // exhausted until the first window opens
    let gate = Mutex::new(Gate {
        generation: 0,
        window: 0..0,
        stop: false,
    });
    let gate_cv = Condvar::new();
    // One token per worker per window: the worker found the claim
    // queue exhausted and went back to the gate. The coordinator collects
    // every worker's before reading the slots or reopening the queue —
    // otherwise a straggler could re-claim nodes from the fresh queue
    // under a stale window.
    let (drained_tx, drained_rx) = channel::<()>();

    let mut fired_events: Vec<FaultEvent> = Vec::new();
    let mut outcome: Result<(), RuntimeError> = Ok(());

    // One worker's whole run: absorb claimed slots window by window until
    // the coordinator raises the stop flag. Shared between the scoped
    // per-run crew and the persistent pool — each pool thread runs this
    // same closure.
    let worker_body = |_idx: usize| {
        let mut seen_generation = 0u64;
        loop {
            // Sleep until the coordinator opens a new window.
            let window = {
                let mut g = gate.lock().unwrap();
                while g.generation == seen_generation && !g.stop {
                    g = gate_cv.wait(g).unwrap();
                }
                if g.stop {
                    return;
                }
                seen_generation = g.generation;
                g.window.clone()
            };
            let _drained = DrainedOnDrop(&drained_tx);
            // Claim and absorb slots until the queue drains.
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for (claimed, node) in slots[start..end].iter().zip(&computes[start..end]) {
                    let mut slot = claimed.lock().unwrap();
                    let Slot { state, report } = &mut *slot;
                    // An injected fault: from its fail round on, this
                    // node is dead and absorbs nothing (a kill's superstep
                    // is a window of its own). A stalled (straggling) node
                    // sleeps through its stall round first — harmless
                    // without a watchdog deadline, fatal with one.
                    if let Some(res) = &resolved {
                        if res.fail[node.index()] < window.end {
                            *report = Some(Report::Killed);
                            continue;
                        }
                        if let Some((stall_round, delay)) = res.stall[node.index()] {
                            if window.contains(&stall_round) {
                                std::thread::sleep(delay);
                            }
                        }
                    }
                    // BSP: data sent in round i is state in i+1.
                    job.deliver(*node, window.start.saturating_sub(1)..window.end - 1, state);
                    *report = Some(Report::Absorbed);
                }
            }
        }
    };

    // The coordinator: opens windows, gathers reports and takes
    // checkpoints; leaving it tears the crew down (persistent pool workers
    // go back to sleep, scoped workers exit).
    let mut coordinator = || {
        let _stop = StopOnDrop(&gate, &gate_cv);
        for window in &windows {
            // Open the window: reset the claim queue, then wake the pool.
            // The store is ordered before the wake by the gate lock.
            let round = window.start;
            cursor.store(0, Ordering::Relaxed);
            {
                let mut g = gate.lock().unwrap();
                g.generation += 1;
                g.window = window.clone();
            }
            gate_cv.notify_all();

            // The barrier: one drained token per worker. With a watchdog
            // deadline, every token must land within it — a straggler
            // turns into the typed timeout error.
            // lint: allow(D2) — the straggler watchdog is the one clock in
            // the runtime: it only ever produces the *recoverable*
            // SuperstepTimeout fault, and recovery replays the pinned
            // schedule, so answers stay bit-identical across replays.
            let round_started = Instant::now();
            for _ in 0..workers {
                let received = match options.superstep_deadline {
                    None => drained_rx.recv().ok(),
                    Some(deadline) => deadline
                        .checked_sub(round_started.elapsed())
                        .and_then(|remaining| drained_rx.recv_timeout(remaining).ok()),
                };
                if received.is_none() {
                    // The watchdog fired. The straggler is attributed
                    // deterministically: the lowest-indexed node whose
                    // slot held no report when the deadline expired (a
                    // slot its worker still locks has none yet).
                    let deadline = options
                        .superstep_deadline
                        .expect("timeouts require a deadline");
                    let straggler = slots
                        .iter()
                        .position(|s| !matches!(s.try_lock(), Ok(s) if s.report.is_some()))
                        .map_or(computes[0], |i| computes[i]);
                    let timeout = RuntimeError::SuperstepTimeout {
                        node: straggler,
                        round,
                        deadline,
                    };
                    fired_events.extend(timeout.fault_event(tree));
                    outcome = Err(timeout);
                    return;
                }
            }

            // Read the reports in node-id order, so the lowest-indexed
            // killed node names the run's outcome regardless of claim
            // order, and the event log is sorted the same way.
            let kills: Vec<RuntimeError> = (slots.iter().zip(computes))
                .filter_map(|(slot, &node)| {
                    let report = slot.lock().unwrap().report.take();
                    let report = report.expect("a drained crew absorbed every node");
                    matches!(report, Report::Killed)
                        .then_some(RuntimeError::InjectedFault { node, round })
                })
                .collect();
            fired_events.extend(kills.iter().filter_map(|kill| kill.fault_event(tree)));
            if let Some(first) = kills.into_iter().next() {
                outcome = Err(first);
                return;
            }

            // Window boundary: every worker is parked at the gate (one
            // drained token per worker was gathered), so the slots form a
            // consistent cut — snapshot them if the cadence says so.
            if let Some(h) = &hooks.checkpoint {
                if window.end <= rounds && window.end % h.spec.every == 0 {
                    latest_cp = Some(Checkpoint {
                        resume_round: window.end,
                        states: slots
                            .iter()
                            .map(|s| s.lock().unwrap().state.clone())
                            .collect(),
                    });
                }
            }
        }

        // Every window ran: a degradation planned inside the run fires
        // before the superstep the windows stop short of, so the serving
        // layer can re-weight and re-price; the snapshot covers the rest.
        let planned = resolved.as_ref().and_then(|r| r.degrades.first());
        if let Some(&(edge, round, factor)) = planned.filter(|d| d.1 <= rounds) {
            let degraded = RuntimeError::LinkDegraded {
                edge,
                round,
                factor,
            };
            fired_events.extend(degraded.fault_event(tree));
            outcome = Err(degraded);
        }
    };

    match hooks.pool {
        Some(pool) => pool.run_with(&worker_body, coordinator),
        None => std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| worker_body(0));
            }
            coordinator();
        }),
    }

    if !fired_events.is_empty() {
        if let Some(inj) = hooks.fault {
            inj.record(fired_events);
        }
    }

    // Park the latest snapshot for the retry — but only on a
    // *recoverable* abort. A successful run (or a hard error) drops it,
    // so nothing leaks into unrelated executions.
    if let (Some(h), Err(e)) = (&hooks.checkpoint, &outcome) {
        if e.is_recoverable() {
            if let Some(cp) = latest_cp.take() {
                h.store.put(h.token, placement_digest(placement), cp);
            }
        }
    }

    outcome?;
    let mut final_state = vec![NodeState::default(); tree.num_nodes()];
    for (slot, &v) in slots.into_iter().zip(computes) {
        final_state[v.index()] = slot.into_inner().unwrap().state;
    }
    Ok(ExecOutcome {
        job: job.name().to_string(),
        cost: job.ledger(tree),
        rounds,
        supersteps: rounds + 1,
        resumed_from,
        final_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecBackend, ExecError, PooledClusterBackend, SimulatorBackend};
    use crate::fault::{FaultKind, FaultPlan};
    use crate::jobs::{Schedule, ScheduleSend};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;
    use tamp_simulator::Rel;
    use tamp_topology::{builders, EdgeId, NodeId};

    /// A ring schedule: in each of `rounds` rounds, compute node `v` sends
    /// `[v*100 + round]` to its ring successor.
    fn ring_job(tree: &Tree, rounds: usize) -> ScheduleJob {
        let vc = tree.compute_nodes();
        let rounds = (0..rounds)
            .map(|r| {
                (0..vc.len())
                    .map(|i| ScheduleSend {
                        src: vc[i],
                        dsts: vec![vc[(i + 1) % vc.len()]].into(),
                        rel: Rel::R,
                        values: vec![u64::from(vc[i].0) * 100 + r as u64].into(),
                    })
                    .collect()
            })
            .collect();
        ScheduleJob::new("ring", tree.num_nodes(), Schedule { rounds })
    }

    fn run(
        tree: &Tree,
        job: &ScheduleJob,
        options: ClusterOptions,
        hooks: RunHooks<'_>,
    ) -> Result<ExecOutcome, RuntimeError> {
        replay(tree, &Placement::empty(tree), job, options, hooks)
    }

    #[test]
    fn checkpointed_recovery_resumes_and_is_bit_identical() {
        let tree = builders::star(4, 1.0);
        let job = ring_job(&tree, 6);
        let healthy = run(&tree, &job, ClusterOptions::default(), RunHooks::default()).unwrap();
        assert_eq!(healthy.supersteps, 7);
        assert_eq!(healthy.resumed_from, None);

        // Faulted run: kill node 2 at superstep 4 with checkpoints every
        // 2 supersteps — the barrier after superstep 3 parks a snapshot.
        let store = CheckpointStore::new();
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new().kill_worker(NodeId(2), 4));
        let mk_hooks = || RunHooks {
            pool: None,
            fault: Some(&inj),
            checkpoint: Some(CheckpointHook {
                store: &store,
                spec: CheckpointSpec::every(2),
                token: 42,
            }),
        };
        let err = run(&tree, &job, ClusterOptions::default(), mk_hooks()).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::InjectedFault {
                node: NodeId(2),
                round: 4
            }
        );
        assert_eq!(store.stats().saved, 1);
        assert_eq!(store.stats().retained, 1);

        // Retry (injector now empty): resumes from superstep 4, skipping
        // 0..4, and reproduces the healthy run bit for bit.
        let resumed = run(&tree, &job, ClusterOptions::default(), mk_hooks()).unwrap();
        assert_eq!(resumed.resumed_from, Some(4));
        assert_eq!(resumed.supersteps, healthy.supersteps);
        assert_eq!(resumed.cost.edge_totals, healthy.cost.edge_totals);
        assert_eq!(resumed.cost.per_round.len(), healthy.cost.per_round.len());
        for v in tree.nodes() {
            assert_eq!(
                resumed.final_state[v.index()],
                healthy.final_state[v.index()],
                "node {v}"
            );
        }
        assert_eq!(store.stats().resumed, 1);
        assert_eq!(store.stats().retained, 0, "success drops the snapshot");
    }

    #[test]
    fn degrade_fault_aborts_typed_and_recovers_from_checkpoint() {
        let tree = builders::star(4, 1.0);
        let job = ring_job(&tree, 4);
        let healthy = run(&tree, &job, ClusterOptions::default(), RunHooks::default()).unwrap();

        let store = CheckpointStore::new();
        let inj = FaultInjector::new();
        let (_, uplink) = tree.parent0(NodeId(2)).expect("leaf has uplink");
        inj.arm(FaultPlan::new().degrade_edge(uplink, 2, 8.0));
        let mk_hooks = || RunHooks {
            pool: None,
            fault: Some(&inj),
            checkpoint: Some(CheckpointHook {
                store: &store,
                spec: CheckpointSpec::every(1),
                token: 7,
            }),
        };
        let err = run(&tree, &job, ClusterOptions::default(), mk_hooks()).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::LinkDegraded {
                edge: uplink,
                round: 2,
                factor: 8.0
            }
        );
        assert!(err.is_recoverable());
        let fired = inj.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].node, tree.deeper_endpoint(uplink));
        assert_eq!(fired[0].round, 2);
        assert_eq!(
            fired[0].kind,
            FaultKind::LinkDegraded {
                edge: uplink,
                factor: 8.0
            }
        );

        // The degradation fired before superstep 2 executed, so the
        // parked snapshot resumes exactly there.
        let resumed = run(&tree, &job, ClusterOptions::default(), mk_hooks()).unwrap();
        assert_eq!(resumed.resumed_from, Some(2));
        assert_eq!(resumed.cost.edge_totals, healthy.cost.edge_totals);
        for v in tree.nodes() {
            assert_eq!(
                resumed.final_state[v.index()],
                healthy.final_state[v.index()]
            );
        }
    }

    #[test]
    fn stalls_are_harmless_without_a_deadline_and_typed_with_one() {
        let tree = builders::star(2, 1.0);
        let job = ring_job(&tree, 2);
        let healthy = run(&tree, &job, ClusterOptions::default(), RunHooks::default()).unwrap();

        // Stall without a watchdog: slower, but bit-identical.
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new().stall_worker(NodeId(1), 0, Duration::from_millis(20)));
        let hooks = || RunHooks {
            fault: Some(&inj),
            ..RunHooks::default()
        };
        let slow = run(&tree, &job, ClusterOptions::default(), hooks()).unwrap();
        assert_eq!(slow.cost.edge_totals, healthy.cost.edge_totals);
        assert!(inj.fired().is_empty(), "a mere slowdown is not a fault");

        // The same stall against a much tighter deadline trips the
        // watchdog, which attributes the straggler deterministically.
        inj.arm(FaultPlan::new().stall_worker(NodeId(1), 1, Duration::from_millis(500)));
        let deadline = Duration::from_millis(40);
        let options = ClusterOptions::default().with_superstep_deadline(deadline);
        let err = run(&tree, &job, options, hooks()).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::SuperstepTimeout {
                node: NodeId(1),
                round: 1,
                deadline
            }
        );
        assert!(err.is_recoverable());
        let fired = inj.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, FaultKind::Straggler);
        assert_eq!(fired[0].node, NodeId(1));
    }

    #[test]
    fn invalid_fault_plans_error_instead_of_silently_running() {
        let tree = builders::star(2, 1.0); // node 2 is the hub (a router)
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new().kill_worker(NodeId(2), 0));
        let hooks = RunHooks {
            fault: Some(&inj),
            ..RunHooks::default()
        };
        let err = run(&tree, &ring_job(&tree, 2), ClusterOptions::default(), hooks).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidFaultTarget { .. }));
        assert!(!err.is_recoverable());
    }

    #[test]
    fn multicast_union_charging_matches_simulator_semantics() {
        let tree = builders::star(4, 1.0);
        let mut p = Placement::empty(&tree);
        p.set_s(NodeId(0), (0..10).collect());
        let rounds = vec![vec![ScheduleSend {
            src: NodeId(0),
            dsts: tree.compute_nodes().into(),
            rel: Rel::S,
            values: (0..10).collect::<Vec<_>>().into(),
        }]];
        let job = ScheduleJob::new("multicast", tree.num_nodes(), Schedule { rounds });
        let run = replay(
            &tree,
            &p,
            &job,
            ClusterOptions::default(),
            RunHooks::default(),
        )
        .unwrap();
        // Uplink charged once (10), three downlinks (30): total 40.
        assert_eq!(run.cost.total_tuples(), 40);
        assert_eq!(run.cost.tuple_cost(), 10.0);
        // Self-delivery lands too.
        assert_eq!(run.final_state[0].s.len(), 20);
        // One metered round; the absorbing superstep is not metered.
        assert_eq!((run.rounds, run.supersteps), (1, 2));
    }

    #[test]
    fn sends_to_routers_are_rejected() {
        // A router destination is refused before anything runs, with the
        // same typed error on both engines.
        let tree = builders::star(2, 1.0); // node 2 is the hub
        let rounds = vec![vec![ScheduleSend {
            src: NodeId(0),
            dsts: vec![NodeId(2)].into(),
            rel: Rel::R,
            values: vec![1].into(),
        }]];
        let job = ScheduleJob::new("to-router", tree.num_nodes(), Schedule { rounds });
        let p = Placement::empty(&tree);
        let err = PooledClusterBackend::default()
            .execute(&tree, &p, &job)
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ExecError::Runtime(RuntimeError::ScheduleMismatch { .. })
            ),
            "{err}"
        );
        assert_eq!(SimulatorBackend.execute(&tree, &p, &job).unwrap_err(), err);
    }

    #[test]
    fn sends_to_nodes_the_tree_lacks_are_typed_errors_not_hangs() {
        // An out-of-range destination must come back as a typed error,
        // never strand a scoped crew parked at the gate while
        // `thread::scope` joins it forever. Run under a watchdog: a hang
        // fails the test.
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let tree = builders::star(2, 1.0);
            let rounds = vec![vec![ScheduleSend {
                src: NodeId(0),
                dsts: vec![NodeId(99)].into(),
                rel: Rel::R,
                values: vec![1].into(),
            }]];
            let job = ScheduleJob::new("out-of-range", tree.num_nodes(), Schedule { rounds });
            let run =
                PooledClusterBackend::default().execute(&tree, &Placement::empty(&tree), &job);
            let _ = tx.send(run.map(|r| r.supersteps));
        });
        let run = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the run must return, not strand its crew");
        assert!(
            matches!(
                run,
                Err(ExecError::Runtime(RuntimeError::ScheduleMismatch { .. }))
            ),
            "{run:?}"
        );
    }

    #[test]
    fn a_coordinator_that_unwinds_still_releases_its_crew() {
        // The gate guard alone: a worker parked at the gate wakes up and
        // sees `stop` when the guard is dropped by a panic.
        let gate = Mutex::new(Gate {
            generation: 0,
            window: 0..0,
            stop: false,
        });
        let cv = Condvar::new();
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| {
                let mut g = gate.lock().unwrap();
                while !g.stop {
                    g = cv.wait(g).unwrap();
                }
            });
            let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let _stop = StopOnDrop(&gate, &cv);
                panic!("coordinator bug");
            }));
            assert!(unwound.is_err());
            parked.join().unwrap();
        });
    }

    #[test]
    fn a_worker_that_unwinds_still_reports_in() {
        // The drained guard alone: a worker that panics mid-superstep
        // still sends its token, so the barrier completes.
        let (tx, rx) = channel::<()>();
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _drained = DrainedOnDrop(&tx);
            panic!("worker bug");
        }));
        assert!(unwound.is_err());
        assert_eq!(rx.try_recv(), Ok(()));
    }

    #[test]
    fn resolved_workers_is_clamped_to_one_through_the_node_count() {
        // The crew spawns exactly this many threads and runs no caller
        // code, so this bound is the pool's bound.
        assert_eq!(ClusterOptions::with_workers(2).resolved_workers(64), 2);
        assert_eq!(ClusterOptions::with_workers(8).resolved_workers(3), 3);
        assert_eq!(ClusterOptions::with_workers(0).resolved_workers(3), 1);
        assert_eq!(ClusterOptions::with_workers(4).resolved_workers(0), 1);
        assert_eq!(ClusterOptions::default().resolved_workers(1), 1);
    }

    #[test]
    fn pool_is_bounded_and_results_are_worker_count_invariant() {
        // 64 nodes: a 2-worker crew, a wide crew and a shared pool replay
        // the same job bit-identically.
        let tree = builders::star(64, 1.0);
        let mut p = Placement::empty(&tree);
        for v in tree.compute_nodes() {
            p.set_r(*v, vec![v.0 as u64]);
        }
        let job = ring_job(&tree, 3);
        let shared = WorkerPool::new(2);
        let runs: Vec<ExecOutcome> = [
            (ClusterOptions::with_workers(2), None),
            (ClusterOptions::with_workers(8), None),
            (ClusterOptions::default(), Some(&shared)),
        ]
        .into_iter()
        .map(|(options, pool)| {
            let hooks = RunHooks {
                pool,
                ..RunHooks::default()
            };
            replay(&tree, &p, &job, options, hooks).unwrap()
        })
        .collect();
        assert_eq!(ClusterOptions::with_workers(2).resolved_workers(64), 2);
        for run in &runs[1..] {
            assert_eq!(run.cost.edge_totals, runs[0].cost.edge_totals);
            assert_eq!(run.supersteps, runs[0].supersteps);
            assert_eq!(run.final_state, runs[0].final_state);
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // one window is the point
    fn windows_are_cut_only_where_the_coordinator_acts() {
        let tree = builders::star(4, 1.0);
        let (_, uplink) = tree.parent0(NodeId(2)).expect("leaf has uplink");
        let cut = |resume, watched, plan: FaultPlan, every| {
            windows(resume, 6, watched, Some(&plan.resolve(&tree)), every)
        };
        let kill = |round| FaultPlan::new().kill_worker(NodeId(2), round);
        let degrade = |round| FaultPlan::new().degrade_edge(uplink, round, 2.0);

        // A healthy run is one wake, checkpointed or not.
        assert_eq!(windows(0, 6, false, None, None), [0..7]);
        assert_eq!(windows(0, 6, false, None, Some(2)), [0..7]);
        assert_eq!(cut(3, false, FaultPlan::new(), Some(2)), [3..7]);
        assert_eq!(cut(0, false, kill(7), Some(2)), [0..7]);
        let stall = FaultPlan::new().stall_worker(NodeId(1), 2, Duration::ZERO);
        assert_eq!(cut(0, false, stall, Some(2)), [0..7]);
        // A kill's superstep is a window of its own, after the boundary
        // the retry resumes from.
        assert_eq!(cut(0, false, kill(4), Some(2)), [0..4, 4..5]);
        assert_eq!(cut(0, false, kill(5), Some(2)), [0..4, 4..5, 5..6]);
        assert_eq!(cut(0, false, kill(5), None), [0..5, 5..6]);
        assert_eq!(cut(0, false, kill(0), Some(2)), [0..1]);
        // A degradation stops the run before its superstep.
        assert_eq!(cut(0, false, degrade(3), Some(2)), [0..2, 2..3]);
        assert_eq!(cut(0, false, degrade(3), None), [0..3]);
        // A tie goes to the degradation: superstep 3 never runs.
        let both = degrade(3).kill_worker(NodeId(1), 3);
        assert_eq!(cut(0, false, both, None), [0..3]);
        // A resume past the fault's round cuts at the resume.
        assert_eq!(cut(4, false, kill(2), Some(2)), [4..5]);
        assert_eq!(cut(4, false, degrade(2), Some(2)), []);
        // A watched run has one window per superstep.
        assert_eq!(windows(3, 6, true, None, None), [3..4, 4..5, 5..6, 6..7]);
        assert_eq!(cut(2, true, kill(4), Some(2)), [2..3, 3..4, 4..5]);
    }

    #[test]
    fn a_parked_checkpoint_resumes_only_its_own_placement() {
        // The token names the schedule, not the placement: a snapshot
        // parked by a run on A must not resume a run on B.
        let tree = builders::star(4, 1.0);
        let job = ring_job(&tree, 6);
        let placement = |s0: u64| {
            let mut p = Placement::empty(&tree);
            p.set_s(NodeId(0), vec![s0]);
            p
        };
        let (a, b) = (placement(111), placement(222));
        let store = Arc::new(CheckpointStore::new());
        let inj = Arc::new(FaultInjector::new());
        let backend = PooledClusterBackend::default()
            .with_fault_injector(Arc::clone(&inj))
            .with_checkpoints(Arc::clone(&store), CheckpointSpec::every(2));
        inj.arm(FaultPlan::new().kill_worker(NodeId(2), 4));
        backend.execute(&tree, &a, &job).unwrap_err();
        assert_eq!(store.stats().retained, 1);

        let on_b = backend.execute(&tree, &b, &job).unwrap();
        let healthy_b = SimulatorBackend.execute(&tree, &b, &job).unwrap();
        assert_eq!(on_b.resumed_from, None);
        assert_eq!(on_b.final_state, healthy_b.final_state);
        assert_eq!(on_b.final_state[0].s[0], 222);
        let stats = store.stats();
        assert_eq!((stats.resumed, stats.retained), (0, 1), "A's stays parked");

        let on_a = backend.execute(&tree, &a, &job).unwrap();
        assert_eq!(on_a.resumed_from, Some(4));
        let healthy_a = SimulatorBackend.execute(&tree, &a, &job).unwrap();
        assert_eq!(on_a.final_state, healthy_a.final_state);
        assert_eq!(store.stats().resumed, 1);
    }

    /// A ring job on a random tree with random fragments, and a random
    /// plan of kills, detaches, degradations and short stalls, each
    /// landing anywhere from superstep 0 to past the run's end.
    fn random_faulted_ring(seed: u64) -> (Tree, Placement, ScheduleJob, FaultPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = builders::random_tree(
            rng.random_range(2..7usize),
            rng.random_range(1..3usize),
            0.5,
            8.0,
            seed ^ 0x5EED,
        );
        let vc = tree.compute_nodes().to_vec();
        let mut p = Placement::empty(&tree);
        for &v in &vc {
            p.set_r(v, (0..rng.random_range(0..3u64)).collect());
        }
        let rounds = rng.random_range(1..8usize);
        let job = ring_job(&tree, rounds);
        let mut plan = FaultPlan::new();
        for _ in 0..rng.random_range(0..4usize) {
            let at = rng.random_range(0..rounds + 2);
            let v = vc[rng.random_range(0..vc.len())];
            plan = match rng.random_range(0..4u32) {
                0 => plan.kill_worker(v, at),
                1 => plan.detach_subtree(
                    NodeId::from_index(rng.random_range(0..tree.num_nodes())),
                    at,
                ),
                2 => plan.degrade_edge(
                    EdgeId(rng.random_range(0..tree.num_edges()) as u32),
                    at,
                    2.0,
                ),
                _ => plan.stall_worker(v, at, Duration::from_micros(rng.random_range(0..2_000))),
            };
        }
        (tree, p, job, plan)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// An unwatched run wakes once per window; the same plan under a
        /// deadline no stall can reach takes the per-superstep path. Both
        /// must fail the same way, fire the same events, park the same
        /// snapshot and let the retry resume to the same states.
        #[test]
        fn unwatched_runs_match_the_per_superstep_path(seed in 0u64..1_000_000, every in 1usize..5) {
            let (tree, p, job, plan) = random_faulted_ring(seed);
            let shared = WorkerPool::new(2);
            let watched = Duration::from_secs(60);
            for (options, pool) in [
                (ClusterOptions::with_workers(1), None),
                (ClusterOptions::with_workers(3), None),
                (ClusterOptions::default(), Some(&shared)),
            ] {
                let run_and_retry = |options: ClusterOptions| {
                    let store = CheckpointStore::new();
                    let inj = FaultInjector::new();
                    inj.arm(plan.clone());
                    let hooks = || RunHooks {
                        pool,
                        fault: Some(&inj),
                        checkpoint: Some(CheckpointHook {
                            store: &store,
                            spec: CheckpointSpec::every(every),
                            token: 1,
                        }),
                    };
                    let outcome = |r: ExecOutcome| (r.resumed_from, r.final_state);
                    let first = replay(&tree, &p, &job, options, hooks()).map(outcome);
                    let fired = inj.fired();
                    let stats = store.stats();
                    let retry = replay(&tree, &p, &job, options, hooks()).map(outcome);
                    (first, fired, stats, retry)
                };
                let oracle = run_and_retry(options.with_superstep_deadline(watched));
                prop_assert_eq!(run_and_retry(options), oracle);
            }
        }
    }
}
