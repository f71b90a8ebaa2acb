//! Fault injection for the pooled cluster: kill a worker mid-query,
//! detach a whole subtree, degrade a link's bandwidth, stall a worker
//! past a deadline — and observe what fired.
//!
//! The serving arc's recovery story rests on a property the trace/replay
//! split provides *by construction*: every query is a deterministic
//! exchange [`Schedule`](crate::jobs::Schedule), so re-executing it on a
//! healthy crew reproduces the fault-free run bit for bit — rows **and**
//! metered `edge_totals`. What the runtime needs, then, is only the
//! ability to *make* a crew unhealthy on demand:
//!
//! - a [`FaultPlan`] declares faults against logical workers (compute
//!   nodes) and links: kill worker `k` at superstep `r`
//!   ([`kill_worker`](FaultPlan::kill_worker)), detach every compute
//!   node under a router at superstep `r`
//!   ([`detach_subtree`](FaultPlan::detach_subtree)), degrade an edge's
//!   bandwidth by a factor at superstep `r`
//!   ([`degrade_edge`](FaultPlan::degrade_edge)), or stall a worker for
//!   a wall-clock delay at superstep `r`
//!   ([`stall_worker`](FaultPlan::stall_worker), which trips the
//!   superstep watchdog when one is configured);
//! - a [`FaultInjector`] is shared between the orchestration layer and a
//!   [`PooledClusterBackend`](crate::PooledClusterBackend): the
//!   orchestrator [`arm`](FaultInjector::arm)s plans (a FIFO queue, so a
//!   chaos schedule can re-arm faults across recovery retries), and each
//!   cluster execution consumes the front plan at run start;
//! - when a fault fires, the run aborts with a typed recoverable error
//!   ([`InjectedFault`](crate::RuntimeError::InjectedFault),
//!   [`LinkDegraded`](crate::RuntimeError::LinkDegraded), or
//!   [`SuperstepTimeout`](crate::RuntimeError::SuperstepTimeout)) and
//!   the injector records a [`FaultEvent`] per failed node in its
//!   [`fired`](FaultInjector::fired) log
//!   ([`RuntimeError::fault_event`](crate::RuntimeError::fault_event)
//!   maps the error to the event it names).
//!
//! Faults target *logical* compute nodes, not OS threads: the pool's
//! work-claiming makes crew threads interchangeable, so killing an OS
//! thread is unobservable by design — the observable unit of failure is
//! the node.
//!
//! Plans are **validated** against the topology before they can affect a
//! run: a kill or stall on a router or out-of-range node, a detach of an
//! out-of-range root, or a degradation of an out-of-range edge or with a
//! non-finite/non-positive factor is a typed
//! [`InvalidFaultTarget`](crate::RuntimeError::InvalidFaultTarget), never
//! a silent no-op.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Duration;

use tamp_topology::{EdgeId, NodeId, Tree};

use crate::error::RuntimeError;
use crate::lock_ok;

/// One declared fault.
///
/// `Eq` is deliberately absent: the degradation factor is an `f64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Kill the worker on `node` at superstep `round`: from that
    /// superstep on, the node absorbs nothing and the run aborts.
    KillWorker {
        /// The compute node that dies.
        node: NodeId,
        /// First superstep at which the node is dead.
        round: usize,
    },
    /// Detach the subtree rooted at `root` (a router or a compute node)
    /// at superstep `round`: every compute node inside it fails at once,
    /// as if the uplink was cut.
    DetachSubtree {
        /// Root of the detached subtree (internal rooting at node 0).
        root: NodeId,
        /// First superstep at which the subtree is gone.
        round: usize,
    },
    /// Degrade edge `edge` — divide its bandwidth (both directions) by
    /// `factor` — at superstep `round`. The run aborts with the typed
    /// [`LinkDegraded`](crate::RuntimeError::LinkDegraded) error so the
    /// serving layer can re-weight the topology and re-price plans; the
    /// aborted query itself recovers by replaying its pinned
    /// (pre-degradation) schedule bit-identically.
    DegradeEdge {
        /// The degraded edge.
        edge: EdgeId,
        /// The superstep at which the degradation fires.
        round: usize,
        /// Bandwidth divisor (must be finite and > 0; 2.0 halves the link).
        factor: f64,
    },
    /// Stall the worker on `node` for `delay` of wall-clock time at
    /// superstep `round` (a straggler). Without a configured
    /// [`superstep_deadline`](crate::ClusterOptions::superstep_deadline)
    /// the run merely slows down and stays bit-identical; with one, the
    /// watchdog fires
    /// [`SuperstepTimeout`](crate::RuntimeError::SuperstepTimeout).
    StallWorker {
        /// The compute node that straggles.
        node: NodeId,
        /// The superstep at which it stalls.
        round: usize,
        /// How long it stalls.
        delay: Duration,
    },
}

impl Fault {
    /// The superstep at which this fault triggers.
    pub fn round(&self) -> usize {
        match *self {
            Fault::KillWorker { round, .. }
            | Fault::DetachSubtree { round, .. }
            | Fault::DegradeEdge { round, .. }
            | Fault::StallWorker { round, .. } => round,
        }
    }
}

/// A declarative set of faults to inject into one cluster execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The declared faults.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a kill-worker fault (builder-style).
    pub fn kill_worker(mut self, node: NodeId, round: usize) -> Self {
        self.faults.push(Fault::KillWorker { node, round });
        self
    }

    /// Add a detach-subtree fault (builder-style).
    pub fn detach_subtree(mut self, root: NodeId, round: usize) -> Self {
        self.faults.push(Fault::DetachSubtree { root, round });
        self
    }

    /// Add a link-degradation fault (builder-style).
    pub fn degrade_edge(mut self, edge: EdgeId, round: usize, factor: f64) -> Self {
        self.faults.push(Fault::DegradeEdge {
            edge,
            round,
            factor,
        });
        self
    }

    /// Add a straggler fault (builder-style).
    pub fn stall_worker(mut self, node: NodeId, round: usize, delay: Duration) -> Self {
        self.faults.push(Fault::StallWorker { node, round, delay });
        self
    }

    /// `true` if the plan declares no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Check every declared fault against a topology. Kills and stalls
    /// must target in-range *compute* nodes, detach roots must be in
    /// range, degradations must name an in-range edge and carry a
    /// finite, positive factor.
    pub fn validate(&self, tree: &Tree) -> Result<(), RuntimeError> {
        let bad = |fault: String| Err(RuntimeError::InvalidFaultTarget { fault });
        for fault in &self.faults {
            match *fault {
                Fault::KillWorker { node, round } => {
                    if node.index() >= tree.num_nodes() {
                        return bad(format!("kill_worker({node}, {round}): node out of range"));
                    }
                    if !tree.is_compute(node) {
                        return bad(format!(
                            "kill_worker({node}, {round}): node is a router (no worker to kill)"
                        ));
                    }
                }
                Fault::StallWorker { node, round, .. } => {
                    if node.index() >= tree.num_nodes() {
                        return bad(format!("stall_worker({node}, {round}): node out of range"));
                    }
                    if !tree.is_compute(node) {
                        return bad(format!(
                            "stall_worker({node}, {round}): node is a router (no worker to stall)"
                        ));
                    }
                }
                Fault::DetachSubtree { root, round } => {
                    if root.index() >= tree.num_nodes() {
                        return bad(format!(
                            "detach_subtree({root}, {round}): root out of range"
                        ));
                    }
                }
                Fault::DegradeEdge {
                    edge,
                    round,
                    factor,
                } => {
                    if edge.index() >= tree.num_edges() {
                        return bad(format!(
                            "degrade_edge({}, {round}, {factor}): edge out of range",
                            edge.index()
                        ));
                    }
                    if !factor.is_finite() || factor <= 0.0 {
                        return bad(format!(
                            "degrade_edge({}, {round}, {factor}): factor must be finite and > 0",
                            edge.index()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolve a *validated* plan against a topology into per-node and
    /// per-edge trigger tables the coordinator can consult cheaply.
    pub(crate) fn resolve(&self, tree: &Tree) -> ResolvedFaults {
        let n = tree.num_nodes();
        let mut fail = vec![usize::MAX; n];
        let mut stall: Vec<Option<(usize, Duration)>> = vec![None; n];
        let mut degrades = Vec::new();
        for fault in &self.faults {
            match *fault {
                Fault::KillWorker { node, round } => {
                    let f = &mut fail[node.index()];
                    *f = (*f).min(round);
                }
                Fault::DetachSubtree { root, round } => {
                    for &v in tree.compute_nodes() {
                        if tree.in_subtree0(v, root) {
                            let f = &mut fail[v.index()];
                            *f = (*f).min(round);
                        }
                    }
                }
                Fault::DegradeEdge {
                    edge,
                    round,
                    factor,
                } => degrades.push((edge, round, factor)),
                Fault::StallWorker { node, round, delay } => {
                    let s = &mut stall[node.index()];
                    if s.is_none_or(|(r, _)| round < r) {
                        *s = Some((round, delay));
                    }
                }
            }
        }
        // Earliest degradation first; ties broken by edge id so the
        // firing choice is deterministic.
        degrades.sort_by_key(|d| (d.1, d.0.index()));
        ResolvedFaults {
            fail,
            stall,
            degrades,
        }
    }
}

/// A validated [`FaultPlan`] resolved into trigger tables.
pub(crate) struct ResolvedFaults {
    /// Per node index: first superstep at which it is dead (`usize::MAX`:
    /// never).
    pub fail: Vec<usize>,
    /// Per node index: the earliest `(round, delay)` stall, if any.
    pub stall: Vec<Option<(usize, Duration)>>,
    /// Degradations as `(edge, round, factor)`, sorted by `(round, edge)`.
    pub degrades: Vec<(EdgeId, usize, f64)>,
}

impl ResolvedFaults {
    /// Where this plan aborts a run over supersteps `resume..=last`:
    /// `a..a + 1` if the first kill stops nodes at superstep `a`, `d..d`
    /// if a degradation fires before superstep `d`, whichever is first
    /// (a tie goes to the degradation); `None` if the run completes.
    pub(crate) fn abort(&self, resume: usize, last: usize) -> Option<Range<usize>> {
        let first = |r: Option<usize>| r.map(|r| r.max(resume)).filter(|&r| r <= last);
        let kill = first(self.fail.iter().min().copied()).map(|a| a..a + 1);
        let degrade = first(self.degrades.first().map(|d| d.1)).map(|d| d..d);
        kill.into_iter()
            .chain(degrade)
            .min_by_key(|w| (w.start, w.end))
    }
}

/// What kind of fault fired.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// A node's worker was killed ([`Fault::KillWorker`] or
    /// [`Fault::DetachSubtree`]).
    WorkerKilled,
    /// A link lost bandwidth ([`Fault::DegradeEdge`]).
    LinkDegraded {
        /// The degraded edge.
        edge: EdgeId,
        /// The bandwidth divisor.
        factor: f64,
    },
    /// A worker straggled past the superstep watchdog deadline.
    Straggler,
}

/// One fault that actually fired during a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// The node attributed to the fault: the failed worker for kills and
    /// stragglers, the deeper (subtree-side) endpoint for degraded links.
    pub node: NodeId,
    /// The superstep at which the fault fired.
    pub round: usize,
    /// What kind of fault fired.
    pub kind: FaultKind,
}

/// The shared arming point between a fault-planning layer and a
/// [`PooledClusterBackend`](crate::PooledClusterBackend) (see the
/// [module docs](self)).
///
/// Armed plans form a **FIFO queue**: each cluster execution through a
/// backend holding this injector pops the front plan at run start, so a
/// chaos schedule can queue several plans and have faults re-fire across
/// the orchestrator's recovery retries. With a single armed plan this
/// degenerates to the classic one-shot behavior: exactly one run is
/// affected and the recovery re-execution is clean by construction.
#[derive(Debug, Default)]
pub struct FaultInjector {
    armed: Mutex<VecDeque<FaultPlan>>,
    fired: Mutex<Vec<FaultEvent>>,
}

impl FaultInjector {
    /// A disarmed injector.
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Queue `plan` behind any plans armed earlier and not yet consumed.
    pub fn arm(&self, plan: FaultPlan) {
        lock_ok(&self.armed).push_back(plan);
    }

    /// Remove and return the front armed plan, if any — called by the
    /// cluster at run start (this is what makes each plan one-shot).
    pub fn disarm(&self) -> Option<FaultPlan> {
        lock_ok(&self.armed).pop_front()
    }

    /// Drop every armed plan. The serving layer calls this when a query
    /// errors out *before* any armed fault could fire (or recovery gives
    /// up), so a stale plan never leaks into the next, unrelated query.
    pub fn clear_armed(&self) {
        lock_ok(&self.armed).clear();
    }

    /// Every fault that has fired through this injector, in firing order.
    pub fn fired(&self) -> Vec<FaultEvent> {
        lock_ok(&self.fired).clone()
    }

    /// Record faults that fired during a run.
    pub(crate) fn record(&self, events: impl IntoIterator<Item = FaultEvent>) {
        lock_ok(&self.fired).extend(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::builders;

    #[test]
    fn resolve_handles_kills_subtrees_stalls_and_degrades() {
        // rack_tree: racks of computes under routers under a core.
        let tree = builders::rack_tree(&[(2, 1.0, 1.0), (2, 1.0, 1.0)], 1.0);
        let computes = tree.compute_nodes().to_vec();
        let plan = FaultPlan::new().kill_worker(computes[0], 3);
        plan.validate(&tree).unwrap();
        let fail = plan.resolve(&tree).fail;
        assert_eq!(fail[computes[0].index()], 3);
        assert!(fail
            .iter()
            .enumerate()
            .all(|(i, &r)| i == computes[0].index() || r == usize::MAX));

        // Detaching the subtree rooted at a compute's parent router takes
        // out its whole rack; earlier rounds win when faults overlap.
        // (computes[0] is the internal root in rack_tree, so anchor the
        // rack on the last compute, which always has a parent router.)
        let inner = *computes.last().unwrap();
        let (router, uplink) = tree.parent0(inner).expect("non-root leaf has a parent");
        let plan = FaultPlan::new()
            .detach_subtree(router, 2)
            .kill_worker(inner, 1)
            .degrade_edge(uplink, 4, 8.0)
            .degrade_edge(uplink, 1, 2.0)
            .stall_worker(inner, 2, Duration::from_millis(5))
            .stall_worker(inner, 1, Duration::from_millis(9));
        plan.validate(&tree).unwrap();
        let resolved = plan.resolve(&tree);
        assert_eq!(
            resolved.fail[inner.index()],
            1,
            "explicit kill wins (earlier)"
        );
        for &v in &computes {
            if v != inner && tree.in_subtree0(v, router) {
                assert_eq!(resolved.fail[v.index()], 2, "rack-mate {v} detaches at 2");
            }
        }
        // Earliest stall wins; degradations sort by round.
        assert_eq!(
            resolved.stall[inner.index()],
            Some((1, Duration::from_millis(9)))
        );
        assert_eq!(resolved.degrades, vec![(uplink, 1, 2.0), (uplink, 4, 8.0)]);
    }

    #[test]
    fn validation_rejects_bad_targets() {
        let tree = builders::rack_tree(&[(2, 1.0, 1.0)], 1.0);
        let router = tree
            .nodes()
            .find(|&v| !tree.is_compute(v))
            .expect("rack tree has a router");
        let out_of_range = NodeId::from_index(tree.num_nodes());
        let bad_edge = EdgeId(tree.num_edges() as u32);
        for plan in [
            FaultPlan::new().kill_worker(router, 0),
            FaultPlan::new().kill_worker(out_of_range, 0),
            FaultPlan::new().stall_worker(router, 0, Duration::from_millis(1)),
            FaultPlan::new().detach_subtree(out_of_range, 0),
            FaultPlan::new().degrade_edge(bad_edge, 0, 2.0),
            FaultPlan::new().degrade_edge(EdgeId(0), 0, 0.0),
            FaultPlan::new().degrade_edge(EdgeId(0), 0, f64::NAN),
        ] {
            assert!(
                matches!(
                    plan.validate(&tree),
                    Err(RuntimeError::InvalidFaultTarget { .. })
                ),
                "{plan:?} should be rejected"
            );
        }
        // Valid plans pass.
        let compute = tree.compute_nodes()[0];
        FaultPlan::new()
            .kill_worker(compute, 0)
            .detach_subtree(router, 1)
            .degrade_edge(EdgeId(0), 0, 16.0)
            .validate(&tree)
            .unwrap();
    }

    #[test]
    fn arming_is_a_fifo_queue() {
        let inj = FaultInjector::new();
        assert!(inj.disarm().is_none());
        inj.arm(FaultPlan::new().kill_worker(NodeId(0), 0));
        inj.arm(FaultPlan::new().kill_worker(NodeId(1), 2));
        inj.arm(FaultPlan::new().kill_worker(NodeId(2), 1));
        let first = inj.disarm().unwrap();
        assert_eq!(
            first.faults,
            vec![Fault::KillWorker {
                node: NodeId(0),
                round: 0
            }],
            "plans pop in arming order"
        );
        inj.clear_armed();
        assert!(inj.disarm().is_none(), "clear drops both leftover plans");

        inj.record([FaultEvent {
            node: NodeId(0),
            round: 0,
            kind: FaultKind::WorkerKilled,
        }]);
        assert_eq!(inj.fired().len(), 1);
    }
}
