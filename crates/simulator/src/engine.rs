//! The synchronous round engine.
//!
//! A [`Protocol`] drives a [`Session`] through rounds. Within a round, all
//! reads observe the state as of the **start** of the round (BSP
//! semantics); deliveries land when the round commits. Between rounds a
//! protocol may perform arbitrary *local* computation by mutating a node's
//! own state through [`Session::state_mut`] — local computation is free in
//! the model, only communication is charged.
//!
//! Every send names an explicit destination set and is routed along the
//! unique tree paths (optionally through an explicit relay node, which is
//! how the paper's cartesian-product protocol routes everything through
//! the root of `G†`). A value multicast to several destinations traverses
//! each directed link of the union of its routing paths exactly once.
//!
//! # Delivery
//!
//! A round's sends are not delivered as they are issued: each payload is
//! copied **once**, into one round-scoped arena (`Pending`), however many
//! destinations it has, and the log is replayed in send order when the
//! round commits. Commit first adds up what each fragment is about to
//! receive and reserves it, so a fragment grows once per round however
//! many sends reach it; the only per-destination work is the final
//! `extend_from_slice` into the receiving fragment, which the model's
//! copy semantics require anyway. Because the replay walks the log in
//! order, a node's `r` (and `s`) grows by exactly its deliveries in the
//! order they were sent — arrival order *is* send order — so a protocol
//! whose send order is deterministic has a deterministic final state. An
//! aborted round truncates the log; the buffers keep their capacity
//! across rounds, so a steady-state round allocates nothing per send.

use std::ops::Range;

use tamp_topology::{NodeId, Tree};

use crate::cost::Cost;
use crate::error::SimError;
use crate::metering::TrafficMeter;
use crate::placement::{Placement, PlacementStats};
use crate::value::{NodeState, Rel, Value};

/// A round-based algorithm in the topology-aware model.
pub trait Protocol {
    /// What the protocol returns (e.g. the intersection, or a unit for
    /// in-place tasks like sorting).
    type Output;

    /// Human-readable protocol name (used in reports).
    fn name(&self) -> String;

    /// Drive the session: any number of [`Session::round`] calls
    /// interleaved with local computation.
    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError>;
}

/// The result of executing a protocol.
#[derive(Clone, Debug)]
pub struct Run<O> {
    /// Protocol output.
    pub output: O,
    /// Metered cost.
    pub cost: Cost,
    /// Number of communication rounds executed (including silent ones).
    pub rounds: usize,
    /// Final per-node state `X_r(v)`.
    pub final_state: Vec<NodeState>,
    /// Protocol name.
    pub name: String,
}

/// Validate the placement, execute the protocol, and collect costs.
pub fn run_protocol<P: Protocol>(
    tree: &Tree,
    placement: &Placement,
    protocol: &P,
) -> Result<Run<P::Output>, SimError> {
    let mut session = Session::new(tree, placement)?;
    let output = protocol.run(&mut session)?;
    let (cost, final_state, rounds) = session.into_parts();
    Ok(Run {
        output,
        cost,
        rounds,
        final_state,
        name: protocol.name(),
    })
}

/// Execution state of one protocol run.
pub struct Session<'t> {
    tree: &'t Tree,
    state: Vec<NodeState>,
    initial_stats: PlacementStats,
    /// The shared union-of-paths accounting, identical to the runtime's.
    /// Also the single source of truth for the round count.
    meter: TrafficMeter,
    /// The in-flight deliveries of the round in progress (empty between
    /// rounds), reused across rounds so its buffers grow once per session.
    pending: Pending,
}

/// One round's send log: what [`Session::round`] replays, in order, into
/// node state on commit (see the module docs).
#[derive(Default)]
struct Pending {
    /// Payloads of all sends, each appended once.
    values: Vec<Value>,
    /// Destination lists of all sends, concatenated.
    dsts: Vec<NodeId>,
    /// One entry per send, in send order.
    sends: Vec<PendingSend>,
}

struct PendingSend {
    rel: Rel,
    /// This send's run of `Pending::dsts`.
    dsts: Range<usize>,
    /// This send's run of `Pending::values`.
    values: Range<usize>,
}

impl Pending {
    /// Log a send: its payload's one copy, into the arena.
    fn push(&mut self, dsts: &[NodeId], rel: Rel, values: &[Value]) {
        let (dst_start, value_start) = (self.dsts.len(), self.values.len());
        self.dsts.extend_from_slice(dsts);
        self.values.extend_from_slice(values);
        self.sends.push(PendingSend {
            rel,
            dsts: dst_start..self.dsts.len(),
            values: value_start..self.values.len(),
        });
    }

    /// Drop everything logged; capacity stays.
    fn clear(&mut self) {
        self.values.clear();
        self.dsts.clear();
        self.sends.clear();
    }

    /// Replay the log into `state` in send order, then clear it.
    fn deliver(&mut self, state: &mut [NodeState]) {
        // Size every receiving fragment first (`[R, S]` tuples per node):
        // grown piecemeal, the fragments of a round interleave on the
        // heap and each growth step moves one.
        let mut incoming = vec![[0usize; 2]; state.len()];
        for (rel, dst, values) in self.deliveries() {
            incoming[dst.index()][rel as usize] += values.len();
        }
        for (node, [r, s]) in state.iter_mut().zip(incoming) {
            node.r.reserve(r);
            node.s.reserve(s);
        }
        for (rel, dst, values) in self.deliveries() {
            state[dst.index()].rel_mut(rel).extend_from_slice(values);
        }
        self.clear();
    }

    /// Every `(relation, destination, payload)` logged, in send order.
    fn deliveries(&self) -> impl Iterator<Item = (Rel, NodeId, &[Value])> {
        self.sends.iter().flat_map(move |send| {
            let values = &self.values[send.values.clone()];
            let dsts = &self.dsts[send.dsts.clone()];
            dsts.iter().map(move |&dst| (send.rel, dst, values))
        })
    }
}

impl<'t> Session<'t> {
    /// Start a session with the given initial placement.
    pub fn new(tree: &'t Tree, placement: &Placement) -> Result<Self, SimError> {
        placement.validate(tree)?;
        Ok(Session {
            tree,
            state: placement.fragments().to_vec(),
            initial_stats: placement.stats(),
            meter: TrafficMeter::new(tree),
            pending: Pending::default(),
        })
    }

    /// The topology.
    #[inline]
    pub fn tree(&self) -> &'t Tree {
        self.tree
    }

    /// Initial cardinality statistics — the knowledge the model grants
    /// every algorithm up front.
    #[inline]
    pub fn stats(&self) -> &PlacementStats {
        &self.initial_stats
    }

    /// Current state of node `v`.
    #[inline]
    pub fn state(&self, v: NodeId) -> &NodeState {
        &self.state[v.index()]
    }

    /// All node states, indexed by node id.
    #[inline]
    pub fn states(&self) -> &[NodeState] {
        &self.state
    }

    /// Mutable state of node `v` — *local computation*, free in the model.
    #[inline]
    pub fn state_mut(&mut self, v: NodeId) -> &mut NodeState {
        &mut self.state[v.index()]
    }

    /// Number of rounds executed so far.
    #[inline]
    pub fn rounds_executed(&self) -> usize {
        self.meter.rounds_committed()
    }

    /// Execute one communication round. All sends issued inside the closure
    /// observe round-start state; deliveries are applied on return.
    pub fn round<F>(&mut self, f: F) -> Result<(), SimError>
    where
        F: FnOnce(&mut RoundCtx<'_, 't>) -> Result<(), SimError>,
    {
        let mut ctx = RoundCtx {
            tree: self.tree,
            state: &self.state,
            meter: &mut self.meter,
            pending: &mut self.pending,
        };
        let result = f(&mut ctx);
        if let Err(e) = result {
            // Abandon the failed round entirely: neither its partial
            // charges nor its deliveries may leak into later rounds.
            self.meter.abort_round();
            self.pending.clear();
            return Err(e);
        }
        self.meter.commit_round();
        self.pending.deliver(&mut self.state);
        Ok(())
    }

    /// Fold the ledger and hand back `(cost, final_state, rounds)`.
    pub(crate) fn into_parts(self) -> (Cost, Vec<NodeState>, usize) {
        let rounds = self.meter.rounds_committed();
        (self.meter.finish(), self.state, rounds)
    }
}

/// Send interface available inside a round.
pub struct RoundCtx<'a, 't> {
    tree: &'t Tree,
    state: &'a [NodeState],
    meter: &'a mut TrafficMeter,
    pending: &'a mut Pending,
}

impl<'a, 't> RoundCtx<'a, 't> {
    /// The topology.
    #[inline]
    pub fn tree(&self) -> &'t Tree {
        self.tree
    }

    /// Round-start state of node `v`. It is frozen for the whole round,
    /// so the borrow outlives `&self`: a protocol can send a fragment
    /// (or slices of it) without cloning it first.
    #[inline]
    pub fn state(&self, v: NodeId) -> &'a NodeState {
        &self.state[v.index()]
    }

    /// Multicast `values` of relation `rel` from `src` to every node in
    /// `dsts`, along the unique tree paths. Each directed edge in the union
    /// of the paths carries each value once.
    pub fn send(
        &mut self,
        src: NodeId,
        dsts: &[NodeId],
        rel: Rel,
        values: &[Value],
    ) -> Result<(), SimError> {
        if values.is_empty() || dsts.is_empty() {
            return Ok(());
        }
        self.check_endpoints(src, dsts)?;
        self.meter.charge_multicast(src, dsts, values.len() as u64);
        self.pending.push(dsts, rel, values);
        Ok(())
    }

    /// Like [`RoundCtx::send`], but routed explicitly through `relay`
    /// (which may be a router): values travel `src → relay`, then fan out
    /// `relay → dsts` as a multicast. Both legs are charged; this is the
    /// routing pattern of the paper's tree cartesian-product protocol
    /// (Section 4.4), where all data flows through the root of `G†`.
    pub fn send_via(
        &mut self,
        src: NodeId,
        relay: NodeId,
        dsts: &[NodeId],
        rel: Rel,
        values: &[Value],
    ) -> Result<(), SimError> {
        if values.is_empty() {
            return Ok(());
        }
        self.check_endpoints(src, dsts)?;
        // Both legs are charged in full: the data physically traverses
        // the relay, so they do not union with each other.
        self.meter.charge_via(src, relay, dsts, values.len() as u64);
        if !dsts.is_empty() {
            self.pending.push(dsts, rel, values);
        }
        Ok(())
    }

    fn check_endpoints(&self, src: NodeId, dsts: &[NodeId]) -> Result<(), SimError> {
        if !self.tree.is_compute(src) {
            return Err(SimError::SendFromRouter(src));
        }
        if let Some(&bad) = dsts.iter().find(|&&d| !self.tree.is_compute(d)) {
            return Err(SimError::SendToRouter(bad));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tamp_topology::builders;

    struct OneShot;

    impl Protocol for OneShot {
        type Output = ();
        fn name(&self) -> String {
            "one-shot".into()
        }
        fn run(&self, s: &mut Session<'_>) -> Result<(), SimError> {
            let n0 = NodeId(0);
            let n1 = NodeId(1);
            s.round(|r| {
                let vals = r.state(n0).r.clone();
                r.send(n0, &[n1], Rel::R, &vals)
            })
        }
    }

    #[test]
    fn unicast_charges_both_hops() {
        let t = builders::star(2, 2.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), vec![1, 2, 3, 4]);
        let run = run_protocol(&t, &p, &OneShot).unwrap();
        assert_eq!(run.rounds, 1);
        // 4 tuples over bw-2 links: leaf→hub and hub→leaf each cost 2.
        assert_eq!(run.cost.tuple_cost(), 2.0);
        assert_eq!(run.cost.total_tuples(), 8); // 4 tuples × 2 hops
        assert_eq!(run.final_state[1].r, vec![1, 2, 3, 4]);
        // Sender keeps its copy (copy semantics).
        assert_eq!(run.final_state[0].r, vec![1, 2, 3, 4]);
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
                let vals = r.state(NodeId(0)).s.clone();
                r.send(NodeId(0), &all, Rel::S, &vals)
            })
        }
    }

    #[test]
    fn multicast_charges_union_once() {
        // Star with 4 leaves: broadcasting 10 tuples from leaf 0 charges
        // the uplink (0→hub) 10 once, and each downlink 10.
        let t = builders::star(4, 1.0);
        let mut p = Placement::empty(&t);
        p.set_s(NodeId(0), (0..10).collect());
        let run = run_protocol(&t, &p, &Broadcast).unwrap();
        // Bottleneck is any loaded edge at 10 tuples / bw 1.
        assert_eq!(run.cost.tuple_cost(), 10.0);
        // Uplink charged once (10), three downlinks (30): total 40. The
        // self-delivery to node 0 is free (empty path).
        assert_eq!(run.cost.total_tuples(), 40);
        // Node 0 holds its original copy plus the self-delivery.
        assert_eq!(run.final_state[0].s.len(), 20);
        for v in 1..4 {
            assert_eq!(run.final_state[v].s.len(), 10);
        }
    }

    struct Relay;

    impl Protocol for Relay {
        type Output = ();
        fn name(&self) -> String {
            "relay".into()
        }
        fn run(&self, s: &mut Session<'_>) -> Result<(), SimError> {
            // Route 0 → hub of rack A... via the *far* router, then back.
            let relay = NodeId(2); // hub
            s.round(|r| {
                let vals = r.state(NodeId(0)).r.clone();
                r.send_via(NodeId(0), relay, &[NodeId(0), NodeId(1)], Rel::R, &vals)
            })
        }
    }

    #[test]
    fn relay_charges_both_legs() {
        let t = builders::star(2, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), vec![7, 8]);
        let run = run_protocol(&t, &p, &Relay).unwrap();
        // Leg 1: 0→hub = 2 tuples. Leg 2: hub→0 (2) + hub→1 (2).
        assert_eq!(run.cost.total_tuples(), 6);
        // Node 0 receives its own data back (plus keeps the original).
        assert_eq!(run.final_state[0].r.len(), 4);
        assert_eq!(run.final_state[1].r, vec![7, 8]);
    }

    struct BadSend;

    impl Protocol for BadSend {
        type Output = ();
        fn name(&self) -> String {
            "bad".into()
        }
        fn run(&self, s: &mut Session<'_>) -> Result<(), SimError> {
            s.round(|r| r.send(NodeId(0), &[NodeId(2)], Rel::R, &[1]))
        }
    }

    #[test]
    fn rejects_router_destination() {
        let t = builders::star(2, 1.0); // node 2 is the hub
        let p = Placement::empty(&t);
        assert_eq!(
            run_protocol(&t, &p, &BadSend).unwrap_err(),
            SimError::SendToRouter(NodeId(2))
        );
    }

    struct TwoRounds;

    impl Protocol for TwoRounds {
        type Output = usize;
        fn name(&self) -> String {
            "two-rounds".into()
        }
        fn run(&self, s: &mut Session<'_>) -> Result<usize, SimError> {
            s.round(|r| r.send(NodeId(0), &[NodeId(1)], Rel::R, &[1, 2]))?;
            // Local computation between rounds: node 1 keeps only one value.
            s.state_mut(NodeId(1)).r.truncate(1);
            s.round(|r| {
                let vals = r.state(NodeId(1)).r.clone();
                r.send(NodeId(1), &[NodeId(0)], Rel::R, &vals)
            })?;
            Ok(s.rounds_executed())
        }
    }

    #[test]
    fn rounds_compose_and_local_compute_is_free() {
        let t = builders::star(2, 1.0);
        let p = Placement::empty(&t);
        let run = run_protocol(&t, &p, &TwoRounds).unwrap();
        assert_eq!(run.output, 2);
        assert_eq!(run.rounds, 2);
        // Round 1 moves 2 tuples (cost 2), round 2 moves 1 (cost 1).
        assert_eq!(run.cost.per_round[0].tuple_cost, 2.0);
        assert_eq!(run.cost.per_round[1].tuple_cost, 1.0);
        assert_eq!(run.cost.tuple_cost(), 3.0);
    }

    #[test]
    fn mpc_star_charges_receive_only() {
        // In the MPC embedding, sending is free (∞ uplink) and receiving
        // costs tuples/1.
        let t = builders::mpc_star(2);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), (0..5).collect());
        let run = run_protocol(&t, &p, &OneShot).unwrap();
        assert_eq!(run.cost.tuple_cost(), 5.0);
    }

    #[test]
    fn failed_rounds_leave_no_partial_charges_or_deliveries() {
        // A round that charges a valid send and then errors must be
        // abandoned wholesale: a session that continues afterwards sees
        // neither the aborted charges nor the aborted deliveries.
        let t = builders::star(2, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), vec![1, 2, 3]);
        let mut s = Session::new(&t, &p).unwrap();
        let err = s.round(|r| {
            // A unicast, a multicast and a relay are pending when the
            // round fails.
            r.send(NodeId(0), &[NodeId(1)], Rel::R, &r.state(NodeId(0)).r)?; // charges 3 tuples
            r.send(NodeId(1), &[NodeId(0), NodeId(1)], Rel::S, &[4, 5])?;
            r.send_via(NodeId(0), NodeId(2), &[NodeId(1)], Rel::S, &[6])?;
            r.send(NodeId(0), &[NodeId(2)], Rel::R, &[9]) // hub: errors
        });
        assert_eq!(err.unwrap_err(), SimError::SendToRouter(NodeId(2)));
        assert_eq!(s.rounds_executed(), 0);
        s.round(|r| r.send(NodeId(0), &[NodeId(1)], Rel::R, &[7]))
            .unwrap();
        let (cost, state, rounds) = s.into_parts();
        assert_eq!(rounds, 1);
        // Only the second round's single tuple is metered (2 hops).
        assert_eq!(cost.total_tuples(), 2);
        assert_eq!(cost.per_round[0].tuple_cost, 1.0);
        // The aborted round's deliveries never landed.
        assert_eq!(state[1].r, vec![7]);
        assert_eq!(state[0].r, vec![1, 2, 3]);
        assert!(state[0].s.is_empty() && state[1].s.is_empty());
    }

    /// A random two-round mix of `send` and `send_via` —
    /// several destinations, repeated destinations, self-delivery, router
    /// relays — against the definition of delivery: a node's fragment is
    /// its initial fragment followed by every payload addressed to it,
    /// once per occurrence in the destination list, in send order.
    fn delivery_case(seed: u64) -> (Vec<NodeState>, Vec<NodeState>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = builders::random_tree(
            rng.random_range(1..7usize),
            rng.random_range(1..5usize),
            0.5,
            8.0,
            seed ^ 0x5E,
        );
        let vc = tree.compute_nodes();
        let all: Vec<NodeId> = tree.nodes().collect();
        let mut p = Placement::empty(&tree);
        for &v in vc {
            p.set_r(v, (0..rng.random_range(0..4u64)).collect());
        }
        let mut want = p.fragments().to_vec();
        let mut session = Session::new(&tree, &p).unwrap();
        let mut next = 100u64;
        for _ in 0..2 {
            session
                .round(|r| {
                    for _ in 0..rng.random_range(0..12usize) {
                        let src = vc[rng.random_range(0..vc.len())];
                        let dsts: Vec<NodeId> = (0..rng.random_range(0..5usize))
                            .map(|_| vc[rng.random_range(0..vc.len())])
                            .collect();
                        let rel = if rng.random_range(0..2u32) == 0 {
                            Rel::R
                        } else {
                            Rel::S
                        };
                        let values: Vec<Value> =
                            (0..rng.random_range(0..4u64)).map(|i| next + i).collect();
                        next += 10;
                        match rng.random_range(0..2u32) {
                            0 => r.send(src, &dsts, rel, &values)?,
                            _ => {
                                let relay = all[rng.random_range(0..all.len())];
                                r.send_via(src, relay, &dsts, rel, &values)?
                            }
                        }
                        for d in dsts {
                            want[d.index()].rel_mut(rel).extend_from_slice(&values);
                        }
                    }
                    Ok(())
                })
                .unwrap();
        }
        (session.into_parts().1, want)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fragments_are_deliveries_in_send_order(seed in 0u64..1_000_000) {
            let (got, want) = delivery_case(seed);
            prop_assert_eq!(got, want);
        }
    }
}
