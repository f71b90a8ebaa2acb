//! Shared traffic metering, computed **in aggregate over the tree**.
//!
//! Both execution engines — the centralized [`Session`](crate::Session)
//! and the pooled BSP runtime in `tamp-runtime` — charge communication on
//! the same ledger: per round and per *directed* edge, a value multicast
//! to several destinations traverses each edge of the union of its
//! routing paths exactly once. [`TrafficMeter`] is that accounting,
//! extracted so the two engines cannot drift: identical sends produce
//! bit-identical [`Cost`]s no matter which engine executed them.
//!
//! # Output-sensitive charging
//!
//! The naive implementation walks every send's full `src → dst` path —
//! `O(p² · depth)` stamp work for one repartition round on `p` nodes,
//! plus a memo table of every routed pair. This meter instead exploits
//! the tree structure end to end (cf. `topology::lca`):
//!
//! - a **unicast** `a → b` of `t` tuples is four per-node delta updates:
//!   `+t` on the up-accumulator at `a` and the down-accumulator at `b`,
//!   `−t` on both at `lca(a, b)`. A post-order up-sweep at round commit
//!   turns subtree sums into per-edge charges, splitting the child→parent
//!   (up) direction from parent→child (down). O(1) per send, O(n) per
//!   round.
//! - a **multicast** `src → dsts` charges each directed edge of the
//!   Steiner union of its paths once. The union is decomposed through
//!   the Euler-order **virtual tree** of the terminals: sort the distinct
//!   terminals by `tin`, add `+t` at every terminal, `−t` at every
//!   consecutive-pair LCA, and `−t` at `src` (whose upward leg is
//!   charged as up-edges `src → lca(terminals)` instead). O(k log k) for
//!   `k` destinations, independent of path lengths.
//!
//! The same commit sweep serves both, so one round of any mix of sends
//! costs O(n + sends) instead of O(sends · depth). The pre-aggregation
//! per-path walk survives only as the hidden [`oracle`] reference
//! implementation (used by a proptest asserting bit-identical ledgers
//! on random trees and send batches, and as the `x-scale` bench
//! baseline).

use tamp_topology::{LcaIndex, NodeId, Tree};

use crate::cost::{Cost, Ledger};

const NONE: u32 = u32::MAX;

/// Node count at which [`TrafficMeter::commit_round`] switches from the
/// sequential post-order fold to the chunked parallel sweep. Below this,
/// thread spawn overhead dwarfs the O(n) sweep itself.
const PARALLEL_SWEEP_THRESHOLD: usize = 4096;

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
    lca: LcaIndex,
    /// Nodes in DFS preorder of the rooting at node 0 (parents first).
    order: Vec<u32>,
    /// Preorder position of each node (inverse of `order`).
    pos: Vec<u32>,
    /// Subtree size of each node under the root-0 rooting; together with
    /// `pos`, `subtree(v)` is the contiguous preorder range
    /// `[pos[v], pos[v] + size[v])` — the key to the parallel sweep.
    size: Vec<u32>,
    /// Deeper endpoint of each undirected edge (the child side).
    edge_child: Vec<u32>,
    /// Per-node delta accumulator for child→parent (up) charges. The
    /// `−t` entries make intermediate values wrap below zero; u64
    /// wrapping arithmetic is exact because every subtree sum is a
    /// mathematically nonnegative total that fits in u64.
    up: Vec<u64>,
    /// Per-node delta accumulator for parent→child (down) charges.
    down: Vec<u64>,
    /// Distinct terminals of the multicast being charged, then sorted by
    /// Euler `tin` (reused scratch).
    terminals: Vec<NodeId>,
    /// Terminal-dedup stamps: `seen[v] == seen_ctr` marks `v` as already
    /// collected for the current multicast.
    seen: Vec<u32>,
    seen_ctr: u32,
    /// `true` once any charge landed in the round in progress.
    dirty: bool,
}

impl TrafficMeter {
    /// A meter over `tree`'s directed edges with an empty ledger.
    pub fn new(tree: &Tree) -> Self {
        let n = tree.num_nodes();
        let lca = LcaIndex::new(tree);
        let order: Vec<u32> = tree.dfs_order().iter().map(|v| v.0).collect();
        let mut pos = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        let mut size = vec![1u32; n];
        for &x in order.iter().rev() {
            if let Some(p) = lca.parent(NodeId(x)) {
                size[p.index()] += size[x as usize];
            }
        }
        let edge_child = tree.edges().map(|e| tree.deeper_endpoint(e).0).collect();
        TrafficMeter {
            ledger: Ledger::new(tree),
            lca,
            order,
            pos,
            size,
            edge_child,
            up: vec![0; n],
            down: vec![0; n],
            terminals: Vec::new(),
            seen: vec![0; n],
            seen_ctr: 0,
            dirty: false,
        }
    }

    /// Number of directed edges being metered.
    pub fn num_dir_edges(&self) -> usize {
        self.ledger.num_dir_edges()
    }

    /// Number of committed rounds.
    pub fn rounds_committed(&self) -> usize {
        self.ledger.num_rounds()
    }

    /// Charge `amount` tuples on every directed edge of the unique path
    /// `a → b`. O(1).
    pub fn charge_unicast(&mut self, a: NodeId, b: NodeId, amount: u64) {
        if a == b || amount == 0 {
            return;
        }
        self.dirty = true;
        let l = self.lca.lca(a, b);
        self.bump_up(a, amount);
        self.dip_up(l, amount);
        self.bump_down(b, amount);
        self.dip_down(l, amount);
    }

    /// Charge one multicast: `amount` tuples from `src` to every node of
    /// `dsts`, each directed edge of the union of the paths charged once
    /// (duplicate destinations collapse). O(k log k) in the number of
    /// destinations; exactly one destination is a unicast (with terminals
    /// `{src, d}` the deltas below reduce to the same four updates).
    pub fn charge_multicast(&mut self, src: NodeId, dsts: &[NodeId], amount: u64) {
        if let [dst] = dsts {
            return self.charge_unicast(src, *dst, amount);
        }
        if amount == 0 {
            return;
        }
        // Distinct terminals: {src} ∪ dsts, deduplicated by stamp.
        self.seen_ctr = self.seen_ctr.wrapping_add(1);
        if self.seen_ctr == 0 {
            self.seen.fill(0);
            self.seen_ctr = 1;
        }
        let mut terminals = std::mem::take(&mut self.terminals);
        terminals.clear();
        self.seen[src.index()] = self.seen_ctr;
        terminals.push(src);
        for &d in dsts {
            let s = &mut self.seen[d.index()];
            if *s != self.seen_ctr {
                *s = self.seen_ctr;
                terminals.push(d);
            }
        }
        if terminals.len() < 2 {
            self.terminals = terminals;
            return; // every destination is the source: nothing travels
        }
        self.dirty = true;
        terminals.sort_unstable_by_key(|&v| self.lca.tin(v));

        // The union's upward leg is exactly `src → L` where `L` is the
        // LCA of all terminals (the first/last in tin order).
        let l = self.lca.lca(terminals[0], terminals[terminals.len() - 1]);
        self.bump_up(src, amount);
        self.dip_up(l, amount);

        // Every other union edge points away from the root-0 rooting's
        // parent side, i.e. is a down-edge of its child node `x`, and is
        // in the union iff some terminal lies in `subtree(x)` (and `x`
        // is below `L`, and `src` is not in `subtree(x)`). The virtual
        // tree decomposition charges that indicator additively: `+t` per
        // terminal, `−t` per consecutive-pair LCA — terminals inside any
        // subtree are a contiguous tin run, so each union edge nets
        // exactly `+t` — and `−t` at `src` cancels the upward leg (and,
        // combined with the pair terms, everything above `L`).
        for i in 0..terminals.len() {
            self.bump_down(terminals[i], amount);
            if i + 1 < terminals.len() {
                let pl = self.lca.lca(terminals[i], terminals[i + 1]);
                self.dip_down(pl, amount);
            }
        }
        self.dip_down(src, amount);
        self.terminals = terminals;
    }

    /// Charge a relayed multicast: `amount` tuples travel `src → relay`,
    /// then fan out `relay → dsts` as one multicast. Both legs are
    /// charged in full (the data physically traverses the relay, so the
    /// legs do not union with each other).
    pub fn charge_via(&mut self, src: NodeId, relay: NodeId, dsts: &[NodeId], amount: u64) {
        self.charge_unicast(src, relay, amount);
        self.charge_multicast(relay, dsts, amount);
    }

    #[inline]
    fn bump_up(&mut self, v: NodeId, amount: u64) {
        let x = &mut self.up[v.index()];
        *x = x.wrapping_add(amount);
    }

    #[inline]
    fn dip_up(&mut self, v: NodeId, amount: u64) {
        let x = &mut self.up[v.index()];
        *x = x.wrapping_sub(amount);
    }

    #[inline]
    fn bump_down(&mut self, v: NodeId, amount: u64) {
        let x = &mut self.down[v.index()];
        *x = x.wrapping_add(amount);
    }

    #[inline]
    fn dip_down(&mut self, v: NodeId, amount: u64) {
        let x = &mut self.down[v.index()];
        *x = x.wrapping_sub(amount);
    }

    /// Commit the accumulated charges as one finished round: the
    /// per-node deltas become per-edge subtree sums, emitted sparsely in
    /// edge-id order. O(n + touched) work; above
    /// `PARALLEL_SWEEP_THRESHOLD` (4096) nodes the sweep runs chunked across
    /// threads with a deterministic reduction order, so both paths emit
    /// the identical pair sequence.
    pub fn commit_round(&mut self) {
        if !self.dirty {
            self.ledger.push_round(Vec::new());
            return;
        }
        let pairs = if self.order.len() >= PARALLEL_SWEEP_THRESHOLD {
            self.sweep_parallel()
        } else {
            self.sweep_sequential()
        };
        self.up.fill(0);
        self.down.fill(0);
        self.dirty = false;
        self.ledger.push_round(pairs);
    }

    /// Emit the two directed charges of undirected edge `e` (child side
    /// `child`, subtree sums `su` up / `sd` down), ascending by dir-edge
    /// id — shared by both sweep paths so their output is bit-identical.
    #[inline]
    fn push_edge_pairs(&self, e: usize, child: u32, su: u64, sd: u64, out: &mut Vec<(u32, u64)>) {
        if su == 0 && sd == 0 {
            return;
        }
        debug_assert!(su <= u64::MAX / 2 && sd <= u64::MAX / 2, "negative charge");
        let up_dir = self.lca.up_edge(NodeId(child)).map_or(NONE, |d| d.0);
        let d0 = (e as u32) << 1;
        let (first, second) = if up_dir == d0 { (su, sd) } else { (sd, su) };
        if first > 0 {
            out.push((d0, first));
        }
        if second > 0 {
            out.push((d0 | 1, second));
        }
    }

    /// The sequential post-order fold: children precede parents in
    /// reverse DFS order, so folding each node into its parent leaves
    /// every node holding its subtree sum.
    fn sweep_sequential(&mut self) -> Vec<(u32, u64)> {
        for &x in self.order.iter().rev() {
            if let Some(p) = self.lca.parent(NodeId(x)) {
                let (xi, pi) = (x as usize, p.index());
                self.up[pi] = self.up[pi].wrapping_add(self.up[xi]);
                self.down[pi] = self.down[pi].wrapping_add(self.down[xi]);
            }
        }
        debug_assert_eq!(self.up[self.order[0] as usize], 0, "up deltas must cancel");
        debug_assert_eq!(
            self.down[self.order[0] as usize], 0,
            "down deltas must cancel"
        );
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        for (e, &child) in self.edge_child.iter().enumerate() {
            let x = child as usize;
            self.push_edge_pairs(e, child, self.up[x], self.down[x], &mut pairs);
        }
        pairs
    }

    /// The parallel sweep: a subtree is a contiguous preorder range, so
    /// `subtree_sum(v) = P[pos[v] + size[v]] − P[pos[v]]` over the
    /// wrapping prefix sums `P` of the preorder-permuted deltas — no
    /// serial parent chain at all. The permutation gather and the
    /// per-edge emission are chunked over `std::thread::scope`; chunks
    /// are contiguous index ranges concatenated in order, so the emitted
    /// pair sequence is deterministic and identical to the fold's.
    fn sweep_parallel(&self) -> Vec<(u32, u64)> {
        let n = self.order.len();
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .clamp(1, 8);
        let chunk = n.div_ceil(threads);
        let mut pu = vec![0u64; n + 1];
        let mut pd = vec![0u64; n + 1];
        std::thread::scope(|s| {
            let order = &self.order;
            let (up, down) = (&self.up, &self.down);
            let mut rest_u = &mut pu[1..];
            let mut rest_d = &mut pd[1..];
            let mut start = 0usize;
            while !rest_u.is_empty() {
                let take = chunk.min(rest_u.len());
                let (cu, ru) = rest_u.split_at_mut(take);
                let (cd, rd) = rest_d.split_at_mut(take);
                (rest_u, rest_d) = (ru, rd);
                s.spawn(move || {
                    for (k, (u, d)) in cu.iter_mut().zip(cd.iter_mut()).enumerate() {
                        let v = order[start + k] as usize;
                        *u = up[v];
                        *d = down[v];
                    }
                });
                start += take;
            }
        });
        // Wrapping prefix sums: one cheap serial pass (the fold's serial
        // part was O(depth)-dependent; this is a flat scan).
        for i in 0..n {
            pu[i + 1] = pu[i + 1].wrapping_add(pu[i]);
            pd[i + 1] = pd[i + 1].wrapping_add(pd[i]);
        }
        debug_assert_eq!(pu[n], 0, "up deltas must cancel");
        debug_assert_eq!(pd[n], 0, "down deltas must cancel");
        // Per-edge emission, chunked in edge-id order.
        let e_chunk = self.edge_child.len().div_ceil(threads).max(1);
        let mut chunks: Vec<Vec<(u32, u64)>> = Vec::new();
        std::thread::scope(|s| {
            let (pu, pd) = (&pu, &pd);
            let handles: Vec<_> = self
                .edge_child
                .chunks(e_chunk)
                .enumerate()
                .map(|(ci, children)| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for (k, &child) in children.iter().enumerate() {
                            let p = self.pos[child as usize] as usize;
                            let sz = self.size[child as usize] as usize;
                            let su = pu[p + sz].wrapping_sub(pu[p]);
                            let sd = pd[p + sz].wrapping_sub(pd[p]);
                            self.push_edge_pairs(ci * e_chunk + k, child, su, sd, &mut out);
                        }
                        out
                    })
                })
                .collect();
            chunks = handles.into_iter().map(|h| h.join().unwrap()).collect();
        });
        let mut pairs = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for c in chunks {
            pairs.extend(c);
        }
        pairs
    }

    /// Discard the accumulated charges of the round in progress — for
    /// callers abandoning a failed round so its partial sends don't leak
    /// into the next committed round.
    pub fn abort_round(&mut self) {
        self.up.fill(0);
        self.down.fill(0);
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

    use tamp_topology::DirEdgeId;

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
    use tamp_topology::builders;

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

    /// Above [`PARALLEL_SWEEP_THRESHOLD`] nodes `commit_round` takes the
    /// chunked prefix-sum sweep; it must emit the *identical* pair
    /// sequence as the sequential fold, not merely the same totals.
    #[test]
    fn parallel_sweep_matches_sequential_fold() {
        let tree = builders::random_tree(3000, 2500, 0.5, 16.0, 42);
        assert!(tree.nodes().count() >= PARALLEL_SWEEP_THRESHOLD);
        let mut m = TrafficMeter::new(&tree);
        let all: Vec<NodeId> = tree.nodes().collect();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let src = all[rng.random_range(0..all.len())];
            let mut dsts = Vec::new();
            for _ in 0..rng.random_range(1..4usize) {
                dsts.push(all[rng.random_range(0..all.len())]);
            }
            m.charge_multicast(src, &dsts, rng.random_range(0..50u64));
        }
        // Parallel reads the raw deltas (`&self`); sequential folds them
        // in place, so it must run second.
        let par = m.sweep_parallel();
        let seq = m.sweep_sequential();
        assert_eq!(par, seq);
        assert!(!par.is_empty());
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
