//! O(1) lowest-common-ancestor queries over a [`Tree`].
//!
//! [`LcaIndex`] is the routing substrate that replaced the old
//! `PathCache` memo table. Instead of memoizing every `(src, dst)` path —
//! `O(p² · depth)` memory on an all-to-all workload, plus a hash lookup
//! on every send — it stores `O(n log n)` flat arrays from which **any**
//! path decomposes in constant time. There is no Euler tour and no depth
//! comparison; everything lives in **preorder coordinates**:
//!
//! - `tin(v)` is `v`'s position in the tree's DFS preorder (rooted at
//!   node 0), so every subtree is a contiguous run of positions and a parent
//!   sits at a smaller position than its children;
//! - `parent_pos[i]` is the position of the parent of the node at
//!   position `i` (the root, position 0, points at itself);
//! - a **sparse table** of plain `u32` range minima over `parent_pos`,
//!   `n` columns, all rows in one flat vector;
//! - per-node `depth`, `parent`, and the two directed **parent-edge ids**
//!   (`up_edge(v)` = `v → parent(v)`, `down_edge(v)` = `parent(v) → v`).
//!
//! # Why a range minimum of parent positions is the LCA
//!
//! Take positions `i < j` of nodes `u`, `v` and let `l = lca(u, v)`.
//! Every position in `(i, j]` lies inside `l`'s subtree run and is not
//! `l` itself (`pos(l) ≤ i`), so the parents of those nodes are in
//! `subtree(l)` too and every `parent_pos` in the range is `≥ pos(l)`.
//! And one of them *is* `pos(l)`: the child `c` of `l` on the path to
//! `v` has `i < pos(c) ≤ j` — when `u = l` is itself an ancestor of `v`
//! because `c` is a proper descendant of `u`, otherwise because `u` sits
//! in an earlier child subtree of `l` than `c`. Hence
//! `pos(l) = min parent_pos(i, j]`: two table loads and an integer `min`.
//!
//! The unique tree path `a → b` is then `a → lca(a, b) → b`: the first
//! leg climbs `up_edge`s, the second descends `down_edge`s. Aggregate
//! consumers (the traffic meter's subtree-delta charging, the planner's
//! `RoundLoad`) never materialize the path at all — they work on
//! positions through [`LcaIndex::lca_pos`], [`LcaIndex::parent_pos`] and
//! [`LcaIndex::for_each_union_delta`]; [`LcaIndex::for_each_path_edge`]
//! exists for the callers that do walk edges — test oracles and the
//! benchmark's path probe; the query planner prices on cuts — and costs
//! O(path length) plus one heap buffer for the downward leg.

use crate::node::NodeId;
use crate::tree::{DirEdgeId, Tree};

const NONE: u32 = u32::MAX;

/// Preorder sparse-table LCA index with flat path-decomposition arrays.
/// Build once per [`Tree`] in `O(n log n)`; query forever in O(1).
#[derive(Clone, Debug)]
pub struct LcaIndex {
    /// Preorder position of each node: its index in [`Tree::dfs_order`].
    tin: Vec<u32>,
    /// Node id at each preorder position (inverse of `tin`).
    order: Vec<u32>,
    /// Row `k` (at `table[row_start[k]..]`, `n − 2^k + 1` entries) holds
    /// at `i` the minimum of `parent_pos[i .. i + 2^k]`; row 0 *is*
    /// `parent_pos`.
    table: Vec<u32>,
    /// Offset of each row in `table` (a `u32` position space has at most
    /// 32 rows; unused entries stay 0).
    row_start: [usize; 32],
    /// Per-node depth in the rooting at node 0.
    depth: Vec<u32>,
    /// Parent node id (`NONE` for the root).
    parent: Vec<u32>,
    /// Directed edge `v → parent(v)` (`NONE` for the root).
    up: Vec<u32>,
    /// Directed edge `parent(v) → v` (`NONE` for the root).
    down: Vec<u32>,
}

impl LcaIndex {
    /// Build the index for `tree`'s internal rooting at node 0.
    pub fn new(tree: &Tree) -> Self {
        let n = tree.num_nodes();
        let order: Vec<u32> = tree.dfs_order().iter().map(|v| v.0).collect();
        let mut tin = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            tin[v as usize] = i as u32;
        }
        let mut depth = vec![0u32; n];
        let mut parent = vec![NONE; n];
        let mut up = vec![NONE; n];
        let mut down = vec![NONE; n];
        // Rows k = 0 .. ⌊log2 n⌋, row k holding n − 2^k + 1 minima.
        let mut row_start = [0usize; 32];
        let mut total = 0;
        let mut levels = 0;
        while (1usize << levels) <= n {
            row_start[levels] = total;
            total += n - (1 << levels) + 1;
            levels += 1;
        }
        let mut table = vec![0u32; total];
        // Parents precede children in DFS order, so one forward pass
        // fills every depth (and row 0: the root keeps position 0).
        for (i, &v) in tree.dfs_order().iter().enumerate() {
            if let Some((p, e)) = tree.parent0(v) {
                parent[v.index()] = p.0;
                depth[v.index()] = depth[p.index()] + 1;
                table[i] = tin[p.index()];
                let (eu, _) = tree.endpoints(e);
                // Direction 0 of `e` is `eu → ev` as stored.
                up[v.index()] = DirEdgeId::new(e, eu != v).0;
                down[v.index()] = DirEdgeId::new(e, eu == v).0;
            }
        }
        for k in 1..levels {
            let half = 1 << (k - 1);
            let (below, row) = table.split_at_mut(row_start[k]);
            let prev = &below[row_start[k - 1]..];
            for (out, (&a, &b)) in row.iter_mut().zip(prev.iter().zip(&prev[half..])) {
                *out = a.min(b);
            }
        }

        LcaIndex {
            tin,
            order,
            table,
            row_start,
            depth,
            parent,
            up,
            down,
        }
    }

    /// Number of nodes indexed.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.tin.len()
    }

    /// Depth of `v` in the rooting at node 0.
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v.index()]
    }

    /// DFS preorder position of `v` (rooted at node 0).
    /// Sorting nodes by `tin` yields the order virtual-tree constructions
    /// need: every subtree is a contiguous run.
    #[inline]
    pub fn tin(&self, v: NodeId) -> u32 {
        self.tin[v.index()]
    }

    /// Parent of `v` in the rooting at node 0 (`None` for the root).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v.index()];
        (p != NONE).then_some(NodeId(p))
    }

    /// The directed edge `v → parent(v)` (`None` for the root).
    #[inline]
    pub fn up_edge(&self, v: NodeId) -> Option<DirEdgeId> {
        let d = self.up[v.index()];
        (d != NONE).then_some(DirEdgeId(d))
    }

    /// The directed edge `parent(v) → v` (`None` for the root).
    #[inline]
    pub fn down_edge(&self, v: NodeId) -> Option<DirEdgeId> {
        let d = self.down[v.index()];
        (d != NONE).then_some(DirEdgeId(d))
    }

    /// Position of the parent of the node at each preorder position (the
    /// root's entry is its own position, 0). Exposed because a reverse
    /// scan `acc[parent_pos[i]] += acc[i]` is the whole subtree-sum sweep
    /// of the traffic meter and of the planner's `RoundLoad`.
    #[inline]
    pub fn parent_pos(&self) -> &[u32] {
        &self.table[..self.tin.len()]
    }

    /// Position of the LCA of the nodes at positions `i ≤ j`, in O(1) —
    /// [`LcaIndex::lca`] without the node-id translation, for callers that
    /// already hold (sorted) positions.
    #[inline]
    pub fn lca_pos(&self, i: u32, j: u32) -> u32 {
        debug_assert!(i <= j, "lca_pos takes ordered positions");
        if i == j {
            return i;
        }
        // min parent_pos over (i, j]: two overlapping 2^k-wide windows
        // of row k, one starting at i + 1 and one ending at j.
        let k = (j - i).ilog2() as usize;
        let lo = self.row_start[k] + i as usize + 1;
        let hi = self.row_start[k] + j as usize + 1 - (1 << k);
        self.table[lo].min(self.table[hi])
    }

    /// The lowest common ancestor of `a` and `b`, in O(1).
    #[inline]
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (i, j) = (self.tin[a.index()], self.tin[b.index()]);
        NodeId(self.order[self.lca_pos(i.min(j), i.max(j)) as usize])
    }

    /// Number of hops on the unique path `a → b`, in O(1).
    #[inline]
    fn dist(&self, a: NodeId, b: NodeId) -> u32 {
        let l = self.lca(a, b);
        self.depth(a) + self.depth(b) - 2 * self.depth(l)
    }

    /// Decompose the Steiner union of the paths from the node at position
    /// `src` to every node of `terminals` — ascending distinct positions,
    /// `src` among them, at least two — through the terminals' virtual
    /// tree: `f(pos, leg, add)` asks for one unit to be added to
    /// (`add`) or subtracted from accumulator `leg` (`0` = child→parent,
    /// `1` = parent→child) at position `pos`, after which the sum over
    /// the subtree below each parent edge is `1` iff the union crosses
    /// that edge in that direction. The one enumeration the traffic meter
    /// (exact `u64`s) and the planner's `RoundLoad` (`f64` estimates,
    /// whose sums depend on this call order) both charge through.
    ///
    /// The union climbs `src → top`, the LCA of all terminals (the first
    /// and last in preorder). Every other union edge is the down-edge of
    /// its child node `x` and is in the union iff some terminal lies in
    /// `subtree(x)` while `src` does not: `+1` per terminal but `src`,
    /// `−1` per consecutive-pair LCA — terminals inside any subtree are
    /// a contiguous run, so each such edge nets exactly `+1`, and
    /// everything from `src` or `top` upward nets 0.
    #[inline]
    pub fn for_each_union_delta<F>(&self, src: u32, terminals: &[u32], mut f: F)
    where
        F: FnMut(u32, usize, bool),
    {
        debug_assert!(terminals.len() >= 2 && terminals.windows(2).all(|w| w[0] < w[1]));
        let top = self.lca_pos(terminals[0], terminals[terminals.len() - 1]);
        f(src, 0, true);
        f(top, 0, false);
        for (i, &t) in terminals.iter().enumerate() {
            if t != src {
                f(t, 1, true);
            }
            if let Some(&next) = terminals.get(i + 1) {
                f(self.lca_pos(t, next), 1, false);
            }
        }
    }

    /// Visit every directed edge of the unique path `a → b`, in path
    /// order: climb `up_edge`s to the LCA, then descend `down_edge`s (one
    /// heap buffer reverses that leg). Oracle- and probe-only.
    pub fn for_each_path_edge<F: FnMut(DirEdgeId)>(&self, a: NodeId, b: NodeId, mut f: F) {
        if a == b {
            return;
        }
        let l = self.lca(a, b);
        let mut x = a;
        while x != l {
            f(DirEdgeId(self.up[x.index()]));
            x = NodeId(self.parent[x.index()]);
        }
        // Collect the downward leg bottom-up, then emit reversed. The
        // descent is at most the tree depth; a smallvec-style stack
        // buffer would remove even this, but paths are only walked by
        // oracle/probe code, never by the planner or the aggregate meter.
        let mut leg = Vec::with_capacity(self.dist(l, b) as usize);
        let mut y = b;
        while y != l {
            leg.push(DirEdgeId(self.down[y.index()]));
            y = NodeId(self.parent[y.index()]);
        }
        for &d in leg.iter().rev() {
            f(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::node::NodeKind;

    fn all_trees() -> Vec<Tree> {
        vec![
            builders::star(5, 1.0),
            builders::rack_tree(&[(2, 1.0, 2.0), (3, 2.0, 1.0)], 1.0),
            builders::fat_tree(3, 2, 1.0),
            builders::caterpillar(5, 2, 1.0),
            builders::random_tree(9, 6, 0.5, 8.0, 7),
            // Two nodes: the smallest tree with a query range.
            builders::random_tree(1, 1, 1.0, 1.0, 0),
            // One node: a single table row and no query range at all.
            Tree::from_parts(vec![NodeKind::Compute], Vec::new()).unwrap(),
            // Deep: ancestor / descendant pairs at every distance.
            builders::caterpillar(200, 1, 1.0),
            builders::random_tree(40, 30, 0.5, 8.0, 11),
        ]
    }

    /// Reference LCA: climb to equal depth, then in lockstep.
    fn naive_lca(tree: &Tree, mut a: NodeId, mut b: NodeId) -> NodeId {
        let depth = |mut v: NodeId| {
            let mut d = 0;
            while let Some((p, _)) = tree.parent0(v) {
                v = p;
                d += 1;
            }
            d
        };
        let (mut da, mut db) = (depth(a), depth(b));
        while da > db {
            a = tree.parent0(a).unwrap().0;
            da -= 1;
        }
        while db > da {
            b = tree.parent0(b).unwrap().0;
            db -= 1;
        }
        while a != b {
            a = tree.parent0(a).unwrap().0;
            b = tree.parent0(b).unwrap().0;
        }
        a
    }

    #[test]
    fn lca_matches_naive_on_all_pairs() {
        for tree in all_trees() {
            let idx = LcaIndex::new(&tree);
            for a in tree.nodes() {
                for b in tree.nodes() {
                    assert_eq!(
                        idx.lca(a, b),
                        naive_lca(&tree, a, b),
                        "lca({a}, {b}) on {} nodes",
                        tree.num_nodes()
                    );
                }
            }
        }
    }

    /// The contract the meter and the planner's `RoundLoad` rely on:
    /// `tin` is the index in `Tree::dfs_order`, and `parent_pos` /
    /// `lca_pos` speak the same coordinates.
    #[test]
    fn positions_are_dfs_order_indices() {
        for tree in all_trees() {
            let idx = LcaIndex::new(&tree);
            let order = tree.dfs_order();
            assert_eq!(idx.parent_pos().len(), order.len());
            assert_eq!(idx.parent_pos()[0], 0);
            for (i, &v) in order.iter().enumerate() {
                assert_eq!(idx.tin(v) as usize, i);
                if let Some((p, _)) = tree.parent0(v) {
                    assert_eq!(idx.parent_pos()[i], idx.tin(p));
                }
                for (j, &w) in order.iter().enumerate().skip(i) {
                    assert_eq!(idx.lca_pos(i as u32, j as u32), idx.tin(idx.lca(v, w)));
                }
            }
        }
    }

    #[test]
    fn path_decomposition_matches_tree_path() {
        for tree in all_trees() {
            let idx = LcaIndex::new(&tree);
            for a in tree.nodes() {
                for b in tree.nodes() {
                    let mut got = Vec::new();
                    idx.for_each_path_edge(a, b, |d| got.push(d));
                    assert_eq!(got, tree.path(a, b), "path({a}, {b})");
                    assert_eq!(got.len() as u32, idx.dist(a, b));
                }
            }
        }
    }

    #[test]
    fn parent_edges_are_consistent() {
        for tree in all_trees() {
            let idx = LcaIndex::new(&tree);
            for v in tree.nodes() {
                match tree.parent0(v) {
                    None => {
                        assert!(idx.parent(v).is_none());
                        assert!(idx.up_edge(v).is_none() && idx.down_edge(v).is_none());
                        assert_eq!(idx.depth(v), 0);
                    }
                    Some((p, _)) => {
                        assert_eq!(idx.parent(v), Some(p));
                        let up = idx.up_edge(v).unwrap();
                        let down = idx.down_edge(v).unwrap();
                        assert_eq!(tree.dir_endpoints(up), (v, p));
                        assert_eq!(tree.dir_endpoints(down), (p, v));
                        assert_eq!(idx.depth(v), idx.depth(p) + 1);
                    }
                }
            }
        }
    }

    #[test]
    fn tin_orders_subtrees_contiguously() {
        for tree in all_trees() {
            let idx = LcaIndex::new(&tree);
            let mut nodes: Vec<NodeId> = tree.nodes().collect();
            nodes.sort_by_key(|&v| idx.tin(v));
            // For every node, the nodes of its subtree form a contiguous
            // run in tin order.
            for c in tree.nodes() {
                let in_subtree: Vec<bool> = nodes.iter().map(|&x| tree.in_subtree0(x, c)).collect();
                let first = in_subtree.iter().position(|&b| b);
                let last = in_subtree.iter().rposition(|&b| b);
                if let (Some(f), Some(l)) = (first, last) {
                    assert!(
                        in_subtree[f..=l].iter().all(|&b| b),
                        "subtree of {c} not contiguous in tin order"
                    );
                }
            }
        }
    }
}
