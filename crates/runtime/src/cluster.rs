//! The pooled BSP cluster.
//!
//! Where [`tamp_simulator`] executes a *centralized* protocol closure with
//! a global view, this module runs a [`NodeProgram`] per compute node,
//! each seeing only its own state, the shared model knowledge (topology +
//! initial cardinalities, which §2 grants every algorithm), and the
//! messages delivered to it.
//!
//! Execution is a **bounded worker pool**, not a thread per node: a fixed
//! crew of OS threads (default: available parallelism) claims per-node
//! programs from a shared queue each superstep, so a 2048-node — or
//! 100k-node — topology runs on a laptop without 2048 stacks. Logical
//! nodes are decoupled from OS-level resources; only the superstep
//! barrier is global.
//!
//! A superstep is one wake and one barrier. The coordinator wakes the
//! crew; a worker runs each node it claims against that node's slot —
//! inbox in, outbox and report (ran, panicked or killed) out, all left
//! in the slot — and sends one "drained" token when the queue is empty.
//! Once every worker's token is in, the coordinator walks the slots in
//! node-id order: it reads the reports, then meters each outbox on the
//! *same* per-directed-edge, union-of-paths [`TrafficMeter`] the
//! simulator uses and delivers it into the destination inboxes — so a
//! distributed program whose sends match a centralized protocol produces
//! bit-identical [`Cost`]s, which the cross-validation tests assert.
//! Because reports, metering and delivery follow node-id order (each
//! node's sends in issue order), results are bit-identical for *any*
//! worker count. The inboxes and outboxes live as long as the run and
//! are cleared, not dropped, so a superstep allocates nothing per node
//! once they have grown.
//!
//! Termination: the run ends at the first superstep in which every
//! program votes [`Step::Halt`] and sends nothing. That final silent
//! superstep is counted in [`RuntimeRun::supersteps`] but adds no round
//! to the cost ledger (it moves no data), keeping the metered round count
//! aligned with the equivalent centralized protocol. A superstep limit
//! guards against livelock.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use tamp_simulator::cost::Cost;
use tamp_simulator::metering::TrafficMeter;
use tamp_simulator::{NodeState, Placement, PlacementStats};
use tamp_topology::{NodeId, Tree};

use crate::checkpoint::{Checkpoint, CheckpointSpec, CheckpointStore};
use crate::error::RuntimeError;
use crate::fault::{FaultEvent, FaultInjector, FaultKind, ResolvedFaults};
use crate::message::{Envelope, Outbox, Step};
use crate::pool::WorkerPool;

/// Read-only per-round context handed to a program.
pub struct NodeCtx<'a> {
    /// The node this program runs on.
    pub node: NodeId,
    /// Superstep number, starting at 0.
    pub round: usize,
    /// The shared topology (model knowledge).
    pub tree: &'a Tree,
    /// Initial cardinalities `|X_0(v)|` of every node (model knowledge).
    pub stats: &'a PlacementStats,
    /// Messages delivered at the start of this superstep. Their values
    /// have already been appended to the node's state.
    pub arrived: &'a [Envelope],
}

/// A distributed algorithm, from one node's point of view.
///
/// `round` is called once per superstep with the node's mutable state and
/// an [`Outbox`]; messages queued there are delivered — and charged —
/// before the next superstep.
pub trait NodeProgram: Send {
    /// Execute one superstep.
    fn round(&mut self, ctx: &NodeCtx<'_>, state: &mut NodeState, out: &mut Outbox) -> Step;
}

impl<F> NodeProgram for F
where
    F: FnMut(&NodeCtx<'_>, &mut NodeState, &mut Outbox) -> Step + Send,
{
    fn round(&mut self, ctx: &NodeCtx<'_>, state: &mut NodeState, out: &mut Outbox) -> Step {
        self(ctx, state, out)
    }
}

/// The result of a cluster execution.
#[derive(Clone, Debug)]
pub struct RuntimeRun {
    /// Final per-node states, indexed by node id.
    pub final_state: Vec<NodeState>,
    /// Metered cost, on the same ledger as the simulator. One round per
    /// superstep that was given the chance to move data; the terminal
    /// all-silent superstep is not metered.
    pub cost: Cost,
    /// Number of supersteps executed (including the final silent one).
    /// A run resumed from a checkpoint still counts from superstep 0, so
    /// the total is comparable with a fault-free run's.
    pub supersteps: usize,
    /// `Some(r)`: the run resumed from a checkpoint at superstep `r`
    /// (supersteps `0..r` were *skipped*, not replayed). `None`: the run
    /// started from superstep 0.
    pub resumed_from: Option<usize>,
}

/// Execution options.
#[derive(Clone, Copy, Debug)]
pub struct ClusterOptions {
    /// Abort if the programs have not all halted after this many
    /// supersteps.
    pub max_supersteps: usize,
    /// Worker threads in the pool. `None` (the default) uses the
    /// machine's available parallelism. The pool never exceeds the number
    /// of compute nodes.
    pub workers: Option<usize>,
    /// Straggler watchdog: abort a superstep that has not gathered every
    /// node report within this wall-clock deadline, with the typed
    /// [`RuntimeError::SuperstepTimeout`]. `None` (the default) waits
    /// forever — results are then bit-identical no matter how slow a
    /// worker is.
    pub superstep_deadline: Option<Duration>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            max_supersteps: 64,
            workers: None,
            superstep_deadline: None,
        }
    }
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

/// One compute node's slot in the pool: its program, state, buffers and
/// this superstep's report. Workers claim slots by index; each slot is
/// touched by exactly one worker per superstep, and by the coordinator
/// only between supersteps.
struct Slot {
    node: NodeId,
    program: Box<dyn NodeProgram>,
    state: NodeState,
    /// Messages delivered for the next superstep; cleared once absorbed.
    inbox: Vec<Envelope>,
    /// The sends of the last superstep; cleared before the program runs.
    outbox: Outbox,
    /// `None` until the node has run this superstep; the coordinator
    /// takes it after the barrier.
    report: Option<Report>,
}

/// How one node's superstep ended.
enum Report {
    /// The program ran and voted; its sends are in the slot's outbox.
    Ran(Step),
    /// The program panicked with this message.
    Panicked(String),
    /// An injected fault killed this node's program.
    Failed,
}

/// The superstep gate: workers sleep on it between rounds.
struct Gate {
    /// Bumped once per superstep; workers run when they see a fresh value.
    generation: u64,
    /// Current superstep number.
    round: usize,
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
    /// consumed at run start.
    pub fault: Option<&'a FaultInjector>,
    /// Superstep checkpointing, keyed by
    /// [`ScheduleJob::checkpoint_token`](crate::jobs::ScheduleJob::checkpoint_token).
    pub checkpoint: Option<CheckpointHook<'a>>,
}

/// Run `make_program(v)` on every compute node `v` of `tree`, starting
/// from `placement`, until all programs halt.
///
/// This is the pooled engine: see the module docs. The closure-based
/// signature is kept for convenience; [`ExecBackend`](crate::backend::ExecBackend)
/// is the engine-agnostic entry point.
pub fn run_cluster<F>(
    tree: &Tree,
    placement: &Placement,
    make_program: F,
    options: ClusterOptions,
) -> Result<RuntimeRun, RuntimeError>
where
    F: Fn(NodeId) -> Box<dyn NodeProgram>,
{
    let computes: Vec<NodeId> = tree.compute_nodes().to_vec();
    let programs: Vec<Box<dyn NodeProgram>> = computes.iter().map(|&v| make_program(v)).collect();
    run_programs(tree, placement, programs, options, RunHooks::default())
}

/// Run pre-instantiated per-node programs (aligned with
/// `tree.compute_nodes()`) on the pool.
///
/// `hooks` attaches the optional machinery of the serving layer:
///
/// - [`RunHooks::pool`]: `None` spawns a scoped crew for this run (the
///   default), `Some` dispatches the worker loop onto a persistent
///   [`WorkerPool`] shared across runs. Results are bit-identical either
///   way.
/// - [`RunHooks::fault`]: the [`FaultInjector`] arming point. The front
///   armed [`FaultPlan`](crate::fault::FaultPlan) is consumed at run
///   start (validated against `tree` first); planned kills stop the
///   affected node programs and abort the run with
///   [`RuntimeError::InjectedFault`], planned degradations abort with
///   [`RuntimeError::LinkDegraded`], planned stalls delay a worker (and
///   trip the watchdog when a deadline is configured). Fired faults are
///   recorded back into the injector's event log.
/// - [`RunHooks::checkpoint`]: snapshot the cluster at every `spec.every`
///   superstep boundary; on a *recoverable* abort the latest snapshot is
///   parked in the store, and the next run with the same token resumes
///   from it instead of superstep 0.
pub(crate) fn run_programs(
    tree: &Tree,
    placement: &Placement,
    programs: Vec<Box<dyn NodeProgram>>,
    options: ClusterOptions,
    hooks: RunHooks<'_>,
) -> Result<RuntimeRun, RuntimeError> {
    let stats = placement.stats();
    let computes: Vec<NodeId> = tree.compute_nodes().to_vec();
    let n = computes.len();
    assert_eq!(programs.len(), n, "one program per compute node");

    // node id → slot index, for inbox delivery.
    let mut slot_of = vec![usize::MAX; tree.num_nodes()];
    for (i, &v) in computes.iter().enumerate() {
        slot_of[v.index()] = i;
    }

    let mut slots: Vec<Mutex<Slot>> = computes
        .iter()
        .zip(programs)
        .map(|(&v, program)| {
            Mutex::new(Slot {
                node: v,
                program,
                state: placement.node(v).clone(),
                inbox: Vec::new(),
                outbox: Outbox::default(),
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
    // same schedule parked, restore states/inboxes/meter from it, and
    // start the superstep loop where it left off.
    let mut latest_cp: Option<Checkpoint> = hooks
        .checkpoint
        .as_ref()
        .and_then(|h| h.store.take(h.token));
    let resume_round = latest_cp.as_ref().map_or(0, |cp| cp.resume_round);
    let resumed_from = latest_cp.as_ref().map(|cp| cp.resume_round);
    let mut meter = match &latest_cp {
        Some(cp) => {
            for (i, slot) in slots.iter_mut().enumerate() {
                let s = slot.get_mut().unwrap();
                s.state = cp.states[i].clone();
                s.inbox = cp.inboxes[i].clone();
            }
            cp.meter.clone()
        }
        None => TrafficMeter::new(tree),
    };

    let workers = match hooks.pool {
        Some(p) => p.size(),
        None => options.resolved_workers(n),
    };
    // Claim granularity: coarse enough to keep cursor contention low on
    // big topologies, fine enough to balance skewed per-node work.
    let chunk = (n / (workers * 8)).clamp(1, 64);

    let cursor = AtomicUsize::new(n); // exhausted until the first round opens
    let gate = Mutex::new(Gate {
        generation: 0,
        round: 0,
        stop: false,
    });
    let gate_cv = Condvar::new();
    // One token per worker per superstep: the worker found the claim
    // queue exhausted and went back to the gate. The coordinator collects
    // every worker's before reading the slots or reopening the queue —
    // otherwise a straggler could re-claim nodes from the fresh queue
    // under a stale round.
    let (drained_tx, drained_rx) = channel::<()>();

    let mut fired_events: Vec<FaultEvent> = Vec::new();
    let mut supersteps_done = 0usize;
    let mut outcome: Result<usize, RuntimeError> = Err(RuntimeError::SuperstepLimit {
        limit: options.max_supersteps,
        round: options.max_supersteps.saturating_sub(1),
    });

    // One worker's whole run: claim node programs superstep by superstep
    // until the coordinator raises the stop flag. Shared between the
    // scoped per-run crew and the persistent pool — each pool thread runs
    // this same closure.
    let worker_body = |_idx: usize| {
        let drained_tx = drained_tx.clone();
        let mut seen_generation = 0u64;
        loop {
            // Sleep until the coordinator opens a new superstep.
            let round = {
                let mut g = gate.lock().unwrap();
                while g.generation == seen_generation && !g.stop {
                    g = gate_cv.wait(g).unwrap();
                }
                if g.stop {
                    return;
                }
                seen_generation = g.generation;
                g.round
            };
            // Claim and run node programs until the queue drains.
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for claimed in &slots[start..(start + chunk).min(n)] {
                    let mut slot = claimed.lock().unwrap();
                    let Slot {
                        node,
                        program,
                        state,
                        inbox,
                        outbox,
                        report,
                    } = &mut *slot;
                    // An injected fault: from its fail round on, this
                    // node's program is dead and executes nothing. A
                    // stalled (straggling) program sleeps through its
                    // stall round before executing — harmless without a
                    // watchdog deadline, fatal with one.
                    if let Some(res) = &resolved {
                        if round >= res.fail[node.index()] {
                            *report = Some(Report::Failed);
                            continue;
                        }
                        if let Some((stall_round, delay)) = res.stall[node.index()] {
                            if round == stall_round {
                                std::thread::sleep(delay);
                            }
                        }
                    }
                    // Commit deliveries into local state first (BSP:
                    // data sent in round i is state in i+1), growing each
                    // fragment once.
                    let mut incoming = [0usize; 2];
                    for env in inbox.iter() {
                        incoming[env.rel as usize] += env.values.len();
                    }
                    state.r.reserve(incoming[0]);
                    state.s.reserve(incoming[1]);
                    for env in inbox.iter() {
                        state.rel_mut(env.rel).extend_from_slice(&env.values);
                    }
                    let ctx = NodeCtx {
                        node: *node,
                        round,
                        tree,
                        stats: &stats,
                        arrived: inbox,
                    };
                    outbox.clear();
                    let step = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        program.round(&ctx, state, outbox)
                    }));
                    inbox.clear();
                    *report = Some(match step {
                        Ok(step) => Report::Ran(step),
                        Err(payload) => Report::Panicked(crate::error::panic_message(&*payload)),
                    });
                }
            }
            let _ = drained_tx.send(());
        }
    };

    // The coordinator: opens supersteps, gathers reports, meters and
    // delivers; leaving it tears the crew down (persistent pool workers
    // go back to sleep, scoped workers exit).
    let mut coordinator = || {
        let _stop = StopOnDrop(&gate, &gate_cv);
        'steps: for round in resume_round..options.max_supersteps {
            // A planned link degradation fires *before* its superstep
            // executes: the run aborts with the typed error so the
            // serving layer can re-weight the topology and re-price,
            // while the latest checkpoint covers every superstep up to
            // the degradation point.
            if let Some(res) = &resolved {
                if let Some(&(edge, fault_round, factor)) =
                    res.degrades.iter().find(|&&(_, r, _)| r <= round)
                {
                    fired_events.push(FaultEvent {
                        node: tree.deeper_endpoint(edge),
                        round: fault_round,
                        kind: FaultKind::LinkDegraded { edge, factor },
                    });
                    outcome = Err(RuntimeError::LinkDegraded {
                        edge,
                        round: fault_round,
                        factor,
                    });
                    break 'steps;
                }
            }

            // Open the superstep: reset the claim queue, then wake the
            // pool. The store is ordered before the wake by the gate lock.
            cursor.store(0, Ordering::Relaxed);
            {
                let mut g = gate.lock().unwrap();
                g.generation += 1;
                g.round = round;
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
                    fired_events.push(FaultEvent {
                        node: straggler,
                        round,
                        kind: FaultKind::Straggler,
                    });
                    outcome = Err(RuntimeError::SuperstepTimeout {
                        node: straggler,
                        round,
                        deadline,
                    });
                    break 'steps;
                }
            }
            supersteps_done = round + 1;

            // Read the reports in node-id order, so the lowest-indexed
            // killed (or else panicked) node names the run's outcome
            // regardless of claim order, and the event log is sorted the
            // same way.
            let mut all_halt = true;
            let mut any_send = false;
            let mut panic_err: Option<RuntimeError> = None;
            let first_killed = fired_events.len();
            for (slot, &node) in slots.iter().zip(&computes) {
                let mut s = slot.lock().unwrap();
                match s.report.take().expect("a drained crew ran every node") {
                    Report::Ran(step) => {
                        all_halt &= step == Step::Halt;
                        any_send |= !s.outbox.is_empty();
                    }
                    Report::Panicked(message) => {
                        panic_err.get_or_insert(RuntimeError::WorkerPanic { node, message });
                    }
                    Report::Failed => fired_events.push(FaultEvent {
                        node,
                        round,
                        kind: FaultKind::WorkerKilled,
                    }),
                }
            }
            if let Some(first) = fired_events.get(first_killed) {
                outcome = Err(RuntimeError::InjectedFault {
                    node: first.node,
                    round,
                });
                break 'steps;
            }
            if let Some(e) = panic_err {
                outcome = Err(e);
                break 'steps;
            }
            if all_halt && !any_send {
                // Quiesced: the terminal silent superstep is counted but
                // not metered (it moves no data).
                outcome = Ok(supersteps_done);
                break 'steps;
            }

            // Deterministic delivery: sources in node-id order, each
            // source's sends in issue order, so metering and state are
            // reproducible for any worker count or schedule.
            for (i, slot) in slots.iter().enumerate() {
                let mut held = slot.lock().unwrap();
                let Slot {
                    node: src,
                    inbox,
                    outbox,
                    ..
                } = &mut *held;
                for msg in &outbox.sends {
                    let dsts = &outbox.dsts[msg.dsts.clone()];
                    if let Some(&bad) = dsts.iter().find(|&&d| !tree.is_compute(d)) {
                        outcome = Err(RuntimeError::SendToRouter(bad));
                        break 'steps;
                    }
                    meter.charge_multicast(*src, dsts, msg.values.len() as u64);
                    // The payload is already shared: destinations get
                    // `Arc` clones of the sender's single allocation.
                    for &dst in dsts {
                        let env = Envelope {
                            src: *src,
                            rel: msg.rel,
                            values: msg.values.clone(),
                        };
                        match slot_of[dst.index()] {
                            j if j == i => inbox.push(env),
                            j => slots[j].lock().unwrap().inbox.push(env),
                        }
                    }
                }
            }
            meter.commit_round();

            // Superstep boundary: every worker is parked at the gate (one
            // drained token per worker was gathered), so the slots form a
            // consistent cut — snapshot them if the cadence says so.
            if let Some(h) = &hooks.checkpoint {
                if (round + 1) % h.spec.every == 0 {
                    let mut states = Vec::with_capacity(n);
                    let mut inboxes = Vec::with_capacity(n);
                    for slot in &slots {
                        let s = slot.lock().unwrap();
                        states.push(s.state.clone());
                        inboxes.push(s.inbox.clone());
                    }
                    latest_cp = Some(Checkpoint {
                        resume_round: round + 1,
                        states,
                        inboxes,
                        meter: meter.clone(),
                    });
                }
            }
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
                h.store.put(h.token, cp);
            }
        }
    }

    let supersteps = outcome?;
    let final_state = {
        let mut finals: Vec<NodeState> = vec![NodeState::default(); tree.num_nodes()];
        for slot in slots {
            let slot = slot.into_inner().unwrap();
            finals[slot.node.index()] = slot.state;
        }
        finals
    };
    Ok(RuntimeRun {
        final_state,
        cost: meter.finish(),
        supersteps,
        resumed_from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use tamp_simulator::Rel;
    use tamp_topology::builders;

    fn opts(max: usize) -> ClusterOptions {
        ClusterOptions {
            max_supersteps: max,
            ..ClusterOptions::default()
        }
    }

    /// Stateless-per-round ring programs (the shape checkpoint resume
    /// requires): node `v` sends `[v*100 + round]` to its ring successor
    /// for `rounds` supersteps, then halts.
    fn ring_programs(n: u32, rounds: usize) -> Vec<Box<dyn NodeProgram>> {
        (0..n)
            .map(|v| {
                Box::new(
                    move |ctx: &NodeCtx<'_>, _state: &mut NodeState, out: &mut Outbox| {
                        if ctx.round < rounds {
                            out.send_to(
                                NodeId((v + 1) % n),
                                Rel::R,
                                vec![u64::from(v) * 100 + ctx.round as u64],
                            );
                            Step::Continue
                        } else {
                            Step::Halt
                        }
                    },
                ) as Box<dyn NodeProgram>
            })
            .collect()
    }

    #[test]
    fn checkpointed_recovery_resumes_and_is_bit_identical() {
        let tree = builders::star(4, 1.0);
        let p = Placement::empty(&tree);
        let healthy = run_programs(
            &tree,
            &p,
            ring_programs(4, 6),
            ClusterOptions::default(),
            RunHooks::default(),
        )
        .unwrap();
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
        let err = run_programs(
            &tree,
            &p,
            ring_programs(4, 6),
            ClusterOptions::default(),
            mk_hooks(),
        )
        .unwrap_err();
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
        let resumed = run_programs(
            &tree,
            &p,
            ring_programs(4, 6),
            ClusterOptions::default(),
            mk_hooks(),
        )
        .unwrap();
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
        let p = Placement::empty(&tree);
        let healthy = run_programs(
            &tree,
            &p,
            ring_programs(4, 4),
            ClusterOptions::default(),
            RunHooks::default(),
        )
        .unwrap();

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
        let err = run_programs(
            &tree,
            &p,
            ring_programs(4, 4),
            ClusterOptions::default(),
            mk_hooks(),
        )
        .unwrap_err();
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
        let resumed = run_programs(
            &tree,
            &p,
            ring_programs(4, 4),
            ClusterOptions::default(),
            mk_hooks(),
        )
        .unwrap();
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
        let p = Placement::empty(&tree);
        let healthy = run_programs(
            &tree,
            &p,
            ring_programs(2, 2),
            ClusterOptions::default(),
            RunHooks::default(),
        )
        .unwrap();

        // Stall without a watchdog: slower, but bit-identical.
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new().stall_worker(NodeId(1), 0, Duration::from_millis(20)));
        let slow = run_programs(
            &tree,
            &p,
            ring_programs(2, 2),
            ClusterOptions::default(),
            RunHooks {
                fault: Some(&inj),
                ..RunHooks::default()
            },
        )
        .unwrap();
        assert_eq!(slow.cost.edge_totals, healthy.cost.edge_totals);
        assert!(inj.fired().is_empty(), "a mere slowdown is not a fault");

        // The same stall against a much tighter deadline trips the
        // watchdog, which attributes the straggler deterministically.
        inj.arm(FaultPlan::new().stall_worker(NodeId(1), 1, Duration::from_millis(500)));
        let deadline = Duration::from_millis(40);
        let err = run_programs(
            &tree,
            &p,
            ring_programs(2, 2),
            ClusterOptions::default().with_superstep_deadline(deadline),
            RunHooks {
                fault: Some(&inj),
                ..RunHooks::default()
            },
        )
        .unwrap_err();
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
        let p = Placement::empty(&tree);
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new().kill_worker(NodeId(2), 0));
        let err = run_programs(
            &tree,
            &p,
            ring_programs(2, 2),
            ClusterOptions::default(),
            RunHooks {
                fault: Some(&inj),
                ..RunHooks::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidFaultTarget { .. }));
        assert!(!err.is_recoverable());
    }

    #[test]
    fn closure_programs_run_and_halt() {
        // Node 0 sends its data to node 1 in round 0; everyone halts in 1.
        let tree = builders::star(2, 2.0);
        let mut p = Placement::empty(&tree);
        p.set_r(NodeId(0), vec![1, 2, 3, 4]);
        let run = run_cluster(
            &tree,
            &p,
            |v| {
                Box::new(
                    move |ctx: &NodeCtx<'_>, state: &mut NodeState, out: &mut Outbox| {
                        if ctx.round == 0 && v == NodeId(0) {
                            out.send_to(NodeId(1), Rel::R, state.r.clone());
                            return Step::Continue;
                        }
                        Step::Halt
                    },
                )
            },
            ClusterOptions::default(),
        )
        .unwrap();
        assert_eq!(run.final_state[1].r, vec![1, 2, 3, 4]);
        // Same accounting as the simulator: 4 tuples over two bw-2 hops.
        assert_eq!(run.cost.tuple_cost(), 2.0);
        assert_eq!(run.cost.total_tuples(), 8);
        assert_eq!(run.supersteps, 2);
        // The terminal silent superstep is not metered: one cost round,
        // exactly like the equivalent centralized protocol.
        assert_eq!(run.cost.per_round.len(), 1);
    }

    #[test]
    fn multicast_union_charging_matches_simulator_semantics() {
        let tree = builders::star(4, 1.0);
        let mut p = Placement::empty(&tree);
        p.set_s(NodeId(0), (0..10).collect());
        let run = run_cluster(
            &tree,
            &p,
            |v| {
                Box::new(
                    move |ctx: &NodeCtx<'_>, state: &mut NodeState, out: &mut Outbox| {
                        if ctx.round == 0 && v == NodeId(0) {
                            let all: Vec<NodeId> = ctx.tree.compute_nodes().to_vec();
                            out.send(&all, Rel::S, state.s.clone());
                            return Step::Continue;
                        }
                        Step::Halt
                    },
                )
            },
            ClusterOptions::default(),
        )
        .unwrap();
        // Uplink charged once (10), three downlinks (30): total 40.
        assert_eq!(run.cost.total_tuples(), 40);
        assert_eq!(run.cost.tuple_cost(), 10.0);
        // Self-delivery lands too.
        assert_eq!(run.final_state[0].s.len(), 20);
    }

    #[test]
    fn round_limit_is_enforced_with_offending_round() {
        let tree = builders::star(2, 1.0);
        let p = Placement::empty(&tree);
        let err = run_cluster(
            &tree,
            &p,
            |_| Box::new(|_: &NodeCtx<'_>, _: &mut NodeState, _: &mut Outbox| Step::Continue),
            opts(5),
        )
        .unwrap_err();
        assert_eq!(err, RuntimeError::SuperstepLimit { limit: 5, round: 4 });
    }

    #[test]
    fn halt_votes_with_pending_sends_keep_running() {
        // A node that halts while still sending must be kept alive until
        // the message settles.
        let tree = builders::star(2, 1.0);
        let mut p = Placement::empty(&tree);
        p.set_r(NodeId(0), vec![7]);
        let run = run_cluster(
            &tree,
            &p,
            |v| {
                Box::new(
                    move |ctx: &NodeCtx<'_>, state: &mut NodeState, out: &mut Outbox| {
                        if ctx.round == 0 && v == NodeId(0) {
                            out.send_to(NodeId(1), Rel::R, state.r.clone());
                        }
                        Step::Halt // everyone votes halt from the start
                    },
                )
            },
            ClusterOptions::default(),
        )
        .unwrap();
        // Two supersteps: one with the send, one silent to settle.
        assert_eq!(run.supersteps, 2);
        assert_eq!(run.final_state[1].r, vec![7]);
    }

    #[test]
    fn sends_to_routers_are_rejected() {
        let tree = builders::star(2, 1.0); // node 2 is the hub
        let p = Placement::empty(&tree);
        let err = run_cluster(
            &tree,
            &p,
            |_| {
                Box::new(|_: &NodeCtx<'_>, _: &mut NodeState, out: &mut Outbox| {
                    out.send_to(NodeId(2), Rel::R, vec![1]);
                    Step::Halt
                })
            },
            ClusterOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, RuntimeError::SendToRouter(NodeId(2)));
    }

    #[test]
    fn sends_to_nodes_the_tree_lacks_are_typed_errors_not_hangs() {
        // Regression: the destination check indexed the tree's node
        // kinds, so an out-of-range id panicked the coordinator while
        // the scoped crew sat parked at the gate and `thread::scope`
        // joined forever. Run under a watchdog: a hang fails the test.
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let tree = builders::star(2, 1.0);
            let run = run_cluster(
                &tree,
                &Placement::empty(&tree),
                |_| {
                    Box::new(|_: &NodeCtx<'_>, _: &mut NodeState, out: &mut Outbox| {
                        out.send_to(NodeId(99), Rel::R, vec![1]);
                        Step::Halt
                    })
                },
                ClusterOptions::default(),
            );
            let _ = tx.send(run.map(|r| r.supersteps));
        });
        let run = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the run must return, not strand its crew");
        assert_eq!(run, Err(RuntimeError::SendToRouter(NodeId(99))));
    }

    #[test]
    fn a_coordinator_that_unwinds_still_releases_its_crew() {
        // The gate guard alone: a worker parked at the gate wakes up and
        // sees `stop` when the guard is dropped by a panic.
        let gate = Mutex::new(Gate {
            generation: 0,
            round: 0,
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
    fn panics_surface_as_errors_with_node_id() {
        let tree = builders::star(3, 1.0);
        let p = Placement::empty(&tree);
        let err = run_cluster(
            &tree,
            &p,
            |v| {
                Box::new(move |_: &NodeCtx<'_>, _: &mut NodeState, _: &mut Outbox| {
                    if v == NodeId(1) {
                        panic!("injected fault");
                    }
                    Step::Halt
                })
            },
            ClusterOptions::default(),
        )
        .unwrap_err();
        match err {
            RuntimeError::WorkerPanic { node, message } => {
                assert_eq!(node, NodeId(1));
                assert!(message.contains("injected fault"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn panics_name_the_lowest_node_at_every_width() {
        // Nodes 1 and 5 both panic in superstep 0; whichever worker
        // reports first, the run names node 1.
        let tree = builders::star(8, 1.0);
        let p = Placement::empty(&tree);
        let programs = || -> Vec<Box<dyn NodeProgram>> {
            (0..8u32)
                .map(|v| {
                    Box::new(move |_: &NodeCtx<'_>, _: &mut NodeState, _: &mut Outbox| {
                        if v == 1 || v == 5 {
                            panic!("node {v} fails");
                        }
                        Step::Halt
                    }) as Box<dyn NodeProgram>
                })
                .collect()
        };
        let shared = WorkerPool::new(2);
        for (options, pool) in [
            (ClusterOptions::with_workers(1), None),
            (ClusterOptions::with_workers(2), None),
            (ClusterOptions::with_workers(8), None),
            (ClusterOptions::default(), Some(&shared)),
        ] {
            for _ in 0..20 {
                let hooks = RunHooks {
                    pool,
                    ..RunHooks::default()
                };
                let err = run_programs(&tree, &p, programs(), options, hooks).unwrap_err();
                assert_eq!(
                    err,
                    RuntimeError::WorkerPanic {
                        node: NodeId(1),
                        message: "node 1 fails".into()
                    }
                );
            }
        }
    }

    #[test]
    fn arrived_envelopes_report_sources() {
        let tree = builders::star(3, 1.0);
        let mut p = Placement::empty(&tree);
        p.set_r(NodeId(0), vec![1]);
        p.set_r(NodeId(1), vec![2]);
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let run = run_cluster(
            &tree,
            &p,
            move |v| {
                let seen = seen2.clone();
                Box::new(
                    move |ctx: &NodeCtx<'_>, state: &mut NodeState, out: &mut Outbox| {
                        if ctx.round == 0 && v != NodeId(2) {
                            out.send_to(NodeId(2), Rel::R, state.r.clone());
                            return Step::Continue;
                        }
                        if ctx.round == 1 && v == NodeId(2) {
                            let mut srcs: Vec<NodeId> = ctx.arrived.iter().map(|e| e.src).collect();
                            srcs.sort_unstable();
                            *seen.lock().unwrap() = srcs;
                        }
                        Step::Halt
                    },
                )
            },
            ClusterOptions::default(),
        )
        .unwrap();
        assert_eq!(run.final_state[2].r, vec![1, 2]);
        assert_eq!(*seen.lock().unwrap(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn pool_is_bounded_and_results_are_worker_count_invariant() {
        // 64 nodes, 2-worker pool: at most 2 distinct program threads,
        // and the run is bit-identical to a wide pool's.
        let tree = builders::star(64, 1.0);
        let mut p = Placement::empty(&tree);
        for v in tree.compute_nodes() {
            p.set_r(*v, vec![v.0 as u64]);
        }
        let ids = std::sync::Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        let ids2 = ids.clone();
        let make = move |v: NodeId| -> Box<dyn NodeProgram> {
            let ids = ids2.clone();
            Box::new(
                move |ctx: &NodeCtx<'_>, state: &mut NodeState, out: &mut Outbox| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    if ctx.round == 0 {
                        out.send_to(NodeId((v.0 + 1) % 64), Rel::R, state.r.clone());
                        return Step::Continue;
                    }
                    Step::Halt
                },
            )
        };
        let narrow = run_cluster(&tree, &p, &make, ClusterOptions::with_workers(2)).unwrap();
        assert!(ids.lock().unwrap().len() <= 2, "pool exceeded 2 threads");
        let wide = run_cluster(&tree, &p, &make, ClusterOptions::with_workers(8)).unwrap();
        assert_eq!(narrow.cost.edge_totals, wide.cost.edge_totals);
        assert_eq!(narrow.supersteps, wide.supersteps);
        for v in tree.nodes() {
            assert_eq!(narrow.final_state[v.index()], wide.final_state[v.index()]);
        }
    }
}
