//! Shared traffic metering, computed **in aggregate over the tree**.
//!
//! The centralized [`Session`](crate::Session) and `tamp-runtime`'s
//! schedule jobs — which price a whole schedule once per tree for both
//! of that crate's engines — charge communication on the same ledger:
//! per round and per *directed* edge, a value multicast to several
//! destinations traverses each edge of the union of its routing paths
//! exactly once. [`TrafficMeter`] is that accounting, extracted so the
//! two cannot drift: identical sends produce bit-identical [`Cost`]s
//! whichever of them metered them.
//!
//! # Output-sensitive charging
//!
//! The naive implementation walks every send's full `src → dst` path —
//! `O(p² · depth)` stamp work for one repartition round on `p` nodes,
//! plus a memo table of every routed pair. This meter instead exploits
//! the tree structure end to end, and does so in the **preorder
//! coordinates** of `topology::lca`: one `[up, down]` delta pair per
//! preorder position, where a parent sits before its children and a
//! subtree is a contiguous run.
//!
//! - a **unicast** `a → b` of `t` tuples is two `tin` loads, one
//!   `lca_pos` and four delta updates: `+t` on the up-delta at `a` and
//!   the down-delta at `b`, `−t` on both at `lca(a, b)`. O(1) per send.
//! - a **multicast** `src → dsts` charges each directed edge of the
//!   Steiner union of its paths once. The union is decomposed through
//!   the **virtual tree** of the terminals: sort their distinct positions
//!   (plain `u32`s), then [`LcaIndex::for_each_union_delta`] adds `+t` at
//!   every terminal and `−t` at every consecutive-pair LCA, with the
//!   upward leg charged as up-edges `src → lca(terminals)`. O(k log k)
//!   for `k` destinations, independent of path lengths.
//! - **round commit** is one reverse linear scan
//!   `acc[parent_pos[i]] += acc[i]` — children fold into parents, leaving
//!   every position holding the sum over its subtree, i.e. the charge on
//!   its parent edge in each direction — followed by a sparse emission in
//!   ascending edge-id order. O(n) per round, one path at every tree
//!   size.
//!
//! So one round of any mix of sends costs O(n + sends) instead of
//! O(sends · depth). The meter keeps no copy of the rooting of its own:
//! the index and the per-edge table are shared (`Arc`), so cloning a
//! meter copies only the accumulators and the ledger. The
//! pre-aggregation per-path walk survives only as the hidden [`oracle`]
//! reference implementation (used by tests asserting bit-identical
//! ledgers on random trees and send batches, and as the `x-scale` bench
//! baseline).

use std::sync::Arc;

use tamp_topology::{DirEdgeId, LcaIndex, NodeId, Tree};

use crate::cost::{Cost, Ledger};

/// Union-of-paths, per-directed-edge traffic metering over a sequence of
/// rounds, charged in aggregate (see the module docs).
///
/// Usage per round: any number of [`TrafficMeter::charge_unicast`] /
/// [`TrafficMeter::charge_multicast`] / [`TrafficMeter::charge_via`]
/// calls, then one [`TrafficMeter::commit_round`].
/// [`TrafficMeter::finish`] folds the ledger into a [`Cost`].
#[derive(Clone, Debug)]
pub struct TrafficMeter {
    ledger: Ledger,
    lca: Arc<LcaIndex>,
    /// Per undirected edge `e`: the preorder position of its child-side
    /// endpoint, and whether the child→parent direction is dir-edge `2e`
    /// (else `2e + 1`).
    edges: Arc<[(u32, bool)]>,
    /// `[up, down]` delta accumulators by preorder position, for
    /// child→parent and parent→child charges. The `−t` entries make
    /// intermediate values wrap below zero; u64 wrapping arithmetic is
    /// exact because every subtree sum is a mathematically nonnegative
    /// total that fits in u64.
    acc: Vec<[u64; 2]>,
    /// Distinct terminal positions of the multicast being charged,
    /// ascending (reused scratch).
    terminals: Vec<u32>,
    /// `true` once any charge landed in the round in progress.
    dirty: bool,
}

impl TrafficMeter {
    /// A meter over `tree`'s directed edges with an empty ledger.
    pub fn new(tree: &Tree) -> Self {
        let lca = LcaIndex::new(tree);
        let edges = tree
            .edges()
            .map(|e| {
                let child = tree.deeper_endpoint(e);
                let up_first = lca.up_edge(child) == Some(DirEdgeId::new(e, false));
                (lca.tin(child), up_first)
            })
            .collect();
        TrafficMeter {
            ledger: Ledger::new(tree),
            lca: Arc::new(lca),
            edges,
            acc: vec![[0; 2]; tree.num_nodes()],
            terminals: Vec::new(),
            dirty: false,
        }
    }

    /// Number of committed rounds.
    pub(crate) fn rounds_committed(&self) -> usize {
        self.ledger.num_rounds()
    }

    /// Charge `amount` tuples on every directed edge of the unique path
    /// `a → b`. O(1).
    #[inline]
    pub fn charge_unicast(&mut self, a: NodeId, b: NodeId, amount: u64) {
        if a == b || amount == 0 {
            return;
        }
        self.dirty = true;
        let (i, j) = (self.lca.tin(a), self.lca.tin(b));
        let l = self.lca.lca_pos(i.min(j), i.max(j)) as usize;
        let up = &mut self.acc[i as usize][0];
        *up = up.wrapping_add(amount);
        let down = &mut self.acc[j as usize][1];
        *down = down.wrapping_add(amount);
        let top = &mut self.acc[l];
        *top = [top[0].wrapping_sub(amount), top[1].wrapping_sub(amount)];
    }

    /// Charge one multicast: `amount` tuples from `src` to every node of
    /// `dsts`, each directed edge of the union of the paths charged once
    /// (duplicate destinations collapse). O(k log k) in the number of
    /// destinations; exactly one destination is a unicast (with terminals
    /// `{src, d}` the virtual-tree deltas reduce to the same four
    /// updates).
    pub fn charge_multicast(&mut self, src: NodeId, dsts: &[NodeId], amount: u64) {
        if let [dst] = dsts {
            return self.charge_unicast(src, *dst, amount);
        }
        if amount == 0 {
            return;
        }
        // Distinct terminals: {src} ∪ dsts, as ascending positions.
        let src = self.lca.tin(src);
        let terminals = &mut self.terminals;
        terminals.clear();
        terminals.push(src);
        terminals.extend(dsts.iter().map(|&d| self.lca.tin(d)));
        terminals.sort_unstable();
        terminals.dedup();
        if terminals.len() < 2 {
            return; // every destination is the source: nothing travels
        }
        self.dirty = true;
        let acc = &mut self.acc;
        self.lca
            .for_each_union_delta(src, terminals, |pos, leg, add| {
                let x = &mut acc[pos as usize][leg];
                *x = if add {
                    x.wrapping_add(amount)
                } else {
                    x.wrapping_sub(amount)
                };
            });
    }

    /// Charge a relayed multicast: `amount` tuples travel `src → relay`,
    /// then fan out `relay → dsts` as one multicast. Both legs are
    /// charged in full (the data physically traverses the relay, so the
    /// legs do not union with each other).
    pub fn charge_via(&mut self, src: NodeId, relay: NodeId, dsts: &[NodeId], amount: u64) {
        self.charge_unicast(src, relay, amount);
        self.charge_multicast(relay, dsts, amount);
    }

    /// Commit the accumulated charges as one finished round: one reverse
    /// scan folds every position into its parent's (children sit after
    /// their parent in preorder), so each position ends up holding its
    /// subtree sums — the charges on its parent edge — which are emitted
    /// sparsely in edge-id order. O(n + touched) work.
    pub fn commit_round(&mut self) {
        if !self.dirty {
            self.ledger.push_round(Vec::new());
            return;
        }
        let parent_pos = self.lca.parent_pos();
        for i in (1..self.acc.len()).rev() {
            let [su, sd] = self.acc[i];
            let p = &mut self.acc[parent_pos[i] as usize];
            *p = [p[0].wrapping_add(su), p[1].wrapping_add(sd)];
        }
        debug_assert_eq!(self.acc[0], [0, 0], "up and down deltas must cancel");
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        for (e, &(child, up_first)) in self.edges.iter().enumerate() {
            let [su, sd] = self.acc[child as usize];
            if su == 0 && sd == 0 {
                continue;
            }
            debug_assert!(su <= u64::MAX / 2 && sd <= u64::MAX / 2, "negative charge");
            // Ascending by dir-edge id: `2e`, then `2e + 1`.
            let d0 = (e as u32) << 1;
            let (first, second) = if up_first { (su, sd) } else { (sd, su) };
            if first > 0 {
                pairs.push((d0, first));
            }
            if second > 0 {
                pairs.push((d0 | 1, second));
            }
        }
        self.acc.fill([0; 2]);
        self.dirty = false;
        self.ledger.push_round(pairs);
    }

    /// Discard the accumulated charges of the round in progress — for
    /// callers abandoning a failed round so its partial sends don't leak
    /// into the next committed round.
    pub(crate) fn abort_round(&mut self) {
        self.acc.fill([0; 2]);
        self.dirty = false;
    }

    /// Fold the committed rounds into a [`Cost`]. Uncommitted charges of a
    /// round in progress are dropped.
    pub fn finish(self) -> Cost {
        self.ledger.finish()
    }
}

/// The pre-aggregation reference implementation: walk every path, stamp
/// every edge. This is the oracle the aggregate meter is proptested
/// against and the baseline the `x-scale` bench measures — it exists
/// for exactly those consumers, hence the `doc(hidden)`. Not a
/// supported metering API.
#[doc(hidden)]
pub mod oracle {
    use std::collections::HashMap;

    use super::*;

    /// A faithful reconstruction of the seed metering: a memoized
    /// `HashMap<(src, dst), Box<[DirEdgeId]>>` path table (`PathCache`),
    /// a dense per-round charge vector, and a stamp array deduplicating
    /// edges within one union (multicast) scope.
    pub struct NaivePathMeter {
        bandwidth: Vec<f64>,
        paths: HashMap<(u32, u32), Box<[DirEdgeId]>>,
        current: Vec<u64>,
        stamp: Vec<u32>,
        stamp_ctr: u32,
        rounds: Vec<Vec<u64>>,
    }

    impl NaivePathMeter {
        /// A naive meter over `tree`'s directed edges.
        pub fn new(tree: &Tree) -> Self {
            let bandwidth: Vec<f64> = tree.dir_edges().map(|d| tree.bandwidth(d).get()).collect();
            let n = bandwidth.len();
            NaivePathMeter {
                bandwidth,
                paths: HashMap::new(),
                current: vec![0; n],
                stamp: vec![0; n],
                stamp_ctr: 0,
                rounds: Vec::new(),
            }
        }

        fn begin_union(&mut self) {
            self.stamp_ctr = self.stamp_ctr.wrapping_add(1);
            if self.stamp_ctr == 0 {
                self.stamp.fill(0);
                self.stamp_ctr = 1;
            }
        }

        fn charge_path(&mut self, tree: &Tree, a: NodeId, b: NodeId, amount: u64) {
            if a == b || amount == 0 {
                return;
            }
            let path = self
                .paths
                .entry((a.0, b.0))
                .or_insert_with(|| tree.path(a, b).into_boxed_slice());
            for &d in path.iter() {
                let i = d.index();
                if self.stamp[i] != self.stamp_ctr {
                    self.stamp[i] = self.stamp_ctr;
                    self.current[i] += amount;
                }
            }
        }

        /// Charge one unicast (its own union scope).
        pub fn charge_unicast(&mut self, tree: &Tree, a: NodeId, b: NodeId, amount: u64) {
            self.begin_union();
            self.charge_path(tree, a, b, amount);
        }

        /// Charge one multicast: union of the `src → dst` paths.
        pub fn charge_multicast(&mut self, tree: &Tree, src: NodeId, dsts: &[NodeId], amount: u64) {
            self.begin_union();
            for &dst in dsts {
                self.charge_path(tree, src, dst, amount);
            }
        }

        /// Charge a relayed multicast: both legs in full, each its own
        /// union scope.
        pub fn charge_via(
            &mut self,
            tree: &Tree,
            src: NodeId,
            relay: NodeId,
            dsts: &[NodeId],
            amount: u64,
        ) {
            self.charge_unicast(tree, src, relay, amount);
            self.charge_multicast(tree, relay, dsts, amount);
        }

        /// Commit the round in progress.
        pub fn commit_round(&mut self) {
            let n = self.current.len();
            let charges = std::mem::replace(&mut self.current, vec![0; n]);
            self.rounds.push(charges);
        }

        /// The seed's dense `Ledger::finish`, verbatim.
        pub fn finish(self) -> Cost {
            use crate::cost::RoundCost;
            let mut per_round = Vec::with_capacity(self.rounds.len());
            let mut edge_totals = vec![0u64; self.bandwidth.len()];
            for traffic in &self.rounds {
                let mut round = RoundCost {
                    tuple_cost: 0.0,
                    bottleneck: None,
                    max_tuples: 0,
                    total_tuples: 0,
                };
                for (d, &tuples) in traffic.iter().enumerate() {
                    edge_totals[d] += tuples;
                    round.total_tuples += tuples;
                    round.max_tuples = round.max_tuples.max(tuples);
                    let w = self.bandwidth[d];
                    let c = if w.is_infinite() {
                        0.0
                    } else {
                        tuples as f64 / w
                    };
                    if c > round.tuple_cost {
                        round.tuple_cost = c;
                        round.bottleneck = Some(DirEdgeId(d as u32));
                    }
                }
                per_round.push(round);
            }
            Cost {
                per_round,
                edge_totals,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tamp_topology::{builders, NodeKind};

    #[test]
    fn multicast_unions_paths() {
        // Star with 4 leaves: a broadcast from leaf 0 charges the uplink
        // once and each downlink once.
        let t = builders::star(4, 1.0);
        let mut m = TrafficMeter::new(&t);
        let vc = t.compute_nodes().to_vec();
        m.charge_multicast(vc[0], &vc, 10);
        m.commit_round();
        let cost = m.finish();
        assert_eq!(cost.total_tuples(), 40);
        assert_eq!(cost.tuple_cost(), 10.0);
    }

    #[test]
    fn union_scopes_are_independent() {
        let t = builders::star(2, 1.0);
        let mut m = TrafficMeter::new(&t);
        let vc = t.compute_nodes().to_vec();
        // Two separate unicasts of the same path charge it twice…
        m.charge_multicast(vc[0], &[vc[1]], 3);
        m.charge_multicast(vc[0], &[vc[1]], 3);
        m.commit_round();
        // …while one multicast with a duplicated destination charges once.
        m.charge_multicast(vc[0], &[vc[1], vc[1]], 3);
        m.commit_round();
        let cost = m.finish();
        assert_eq!(cost.per_round[0].total_tuples, 12);
        assert_eq!(cost.per_round[1].total_tuples, 6);
    }

    #[test]
    fn rounds_are_separated() {
        let t = builders::star(2, 2.0);
        let mut m = TrafficMeter::new(&t);
        let vc = t.compute_nodes().to_vec();
        m.charge_multicast(vc[0], &[vc[1]], 4);
        m.commit_round();
        m.charge_multicast(vc[1], &[vc[0]], 2);
        m.commit_round();
        assert_eq!(m.rounds_committed(), 2);
        let cost = m.finish();
        assert_eq!(cost.per_round.len(), 2);
        assert_eq!(cost.per_round[0].tuple_cost, 2.0);
        assert_eq!(cost.per_round[1].tuple_cost, 1.0);
    }

    #[test]
    fn self_and_empty_sends_are_free() {
        let t = builders::star(3, 1.0);
        let mut m = TrafficMeter::new(&t);
        let vc = t.compute_nodes().to_vec();
        m.charge_unicast(vc[0], vc[0], 9);
        m.charge_multicast(vc[1], &[vc[1], vc[1]], 9);
        m.charge_multicast(vc[2], &[], 9);
        m.charge_unicast(vc[0], vc[1], 0);
        m.commit_round();
        let cost = m.finish();
        assert_eq!(cost.total_tuples(), 0);
        assert_eq!(cost.per_round[0].bottleneck, None);
    }

    /// One destination takes the unicast path; the ledger is the one the
    /// general virtual-tree decomposition gives (reached here by
    /// repeating the destination, which collapses).
    #[test]
    fn one_destination_multicast_is_a_unicast() {
        let t = builders::rack_tree(&[(2, 1.0, 2.0), (2, 2.0, 4.0)], 1.0);
        let vc = t.compute_nodes();
        let router = t.nodes().find(|&v| !t.is_compute(v)).unwrap();
        // Self-send, router source, same-rack and cross-rack leaf pairs.
        for (src, dst) in [
            (vc[0], vc[0]),
            (router, vc[3]),
            (vc[0], vc[1]),
            (vc[0], vc[3]),
        ] {
            let ledger = |charge: &dyn Fn(&mut TrafficMeter)| {
                let mut m = TrafficMeter::new(&t);
                charge(&mut m);
                m.commit_round();
                m.finish()
            };
            let uni = ledger(&|m| m.charge_unicast(src, dst, 5));
            for dsts in [&[dst][..], &[dst, dst]] {
                let multi = ledger(&|m| m.charge_multicast(src, dsts, 5));
                assert_eq!(multi.edge_totals, uni.edge_totals, "{src} → {dsts:?}");
                assert_eq!(multi.per_round, uni.per_round, "{src} → {dsts:?}");
            }
            assert_eq!(uni.total_tuples() == 0, src == dst);
        }
    }

    #[test]
    fn abort_discards_partial_charges() {
        let t = builders::star(2, 1.0);
        let mut m = TrafficMeter::new(&t);
        let vc = t.compute_nodes().to_vec();
        m.charge_unicast(vc[0], vc[1], 7);
        m.abort_round();
        m.charge_unicast(vc[0], vc[1], 1);
        m.commit_round();
        let cost = m.finish();
        assert_eq!(cost.total_tuples(), 2); // 1 tuple × 2 hops
    }

    /// The big-tree regime (≥ 4,096 nodes, where the sparse table has a
    /// dozen rows and subtree runs span thousands of positions) against
    /// the per-path oracle, debug asserts on: equal ledgers, not merely
    /// equal totals.
    #[test]
    fn big_tree_multicasts_match_per_path_oracle() {
        let tree = builders::random_tree(3000, 2500, 0.5, 16.0, 42);
        assert!(tree.num_nodes() >= 4096);
        let mut m = TrafficMeter::new(&tree);
        let mut naive = oracle::NaivePathMeter::new(&tree);
        let all: Vec<NodeId> = tree.nodes().collect();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let src = all[rng.random_range(0..all.len())];
            let mut dsts = Vec::new();
            for _ in 0..rng.random_range(1..4usize) {
                dsts.push(all[rng.random_range(0..all.len())]);
            }
            let amount = rng.random_range(0..50u64);
            m.charge_multicast(src, &dsts, amount);
            naive.charge_multicast(&tree, src, &dsts, amount);
        }
        m.commit_round();
        naive.commit_round();
        let (agg, naive) = (m.finish(), naive.finish());
        assert!(agg.total_tuples() > 0);
        assert_eq!(agg.edge_totals, naive.edge_totals);
        assert_eq!(agg.per_round, naive.per_round);
    }

    /// One node, no edges: nothing can be charged and a commit is an
    /// empty round.
    #[test]
    fn single_node_tree_commits_an_empty_round() {
        let t = Tree::from_parts(vec![NodeKind::Compute], Vec::new()).unwrap();
        let mut m = TrafficMeter::new(&t);
        let v = t.compute_nodes()[0];
        m.charge_unicast(v, v, 3);
        m.charge_multicast(v, &[v, v], 3);
        m.commit_round();
        let cost = m.finish();
        assert!(cost.edge_totals.is_empty());
        assert_eq!(cost.per_round.len(), 1);
        assert_eq!(cost.total_tuples(), 0);
    }

    /// Drive identical random batches — unicasts, multicasts with
    /// duplicated destinations, `send_via` relay legs (router relays
    /// included) — through the aggregate meter and the per-path oracle
    /// and require bit-identical ledgers.
    fn parity_case(seed: u64) -> (Cost, Cost) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_compute = rng.random_range(1..9usize);
        let n_routers = rng.random_range(1..8usize);
        let tree = builders::random_tree(n_compute, n_routers, 0.5, 16.0, seed ^ 0xA5);
        let all: Vec<NodeId> = tree.nodes().collect();
        let mut agg = TrafficMeter::new(&tree);
        let mut naive = oracle::NaivePathMeter::new(&tree);
        let rounds = rng.random_range(1..4usize);
        for _ in 0..rounds {
            let sends = rng.random_range(0..16usize);
            for _ in 0..sends {
                let amount = rng.random_range(0..20u64);
                let pick = |rng: &mut StdRng| all[rng.random_range(0..all.len())];
                let mut dsts = Vec::new();
                for _ in 0..rng.random_range(0..6usize) {
                    dsts.push(pick(&mut rng)); // duplicates welcome
                }
                match rng.random_range(0..3u32) {
                    0 => {
                        let (a, b) = (pick(&mut rng), pick(&mut rng));
                        agg.charge_unicast(a, b, amount);
                        naive.charge_unicast(&tree, a, b, amount);
                    }
                    1 => {
                        let src = pick(&mut rng);
                        agg.charge_multicast(src, &dsts, amount);
                        naive.charge_multicast(&tree, src, &dsts, amount);
                    }
                    _ => {
                        let (src, relay) = (pick(&mut rng), pick(&mut rng));
                        agg.charge_via(src, relay, &dsts, amount);
                        naive.charge_via(&tree, src, relay, &dsts, amount);
                    }
                }
            }
            agg.commit_round();
            naive.commit_round();
        }
        (agg.finish(), naive.finish())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn aggregate_charging_matches_per_path_oracle(seed in 0u64..1_000_000) {
            let (agg, naive) = parity_case(seed);
            prop_assert_eq!(&agg.edge_totals, &naive.edge_totals);
            prop_assert_eq!(&agg.per_round, &naive.per_round);
        }
    }
}
