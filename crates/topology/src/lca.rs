//! O(1) lowest-common-ancestor queries over a [`Tree`].
//!
//! [`LcaIndex`] is the routing substrate that replaced the old
//! `PathCache` memo table. Instead of memoizing every `(src, dst)` path —
//! `O(p² · depth)` memory on an all-to-all workload, plus a hash lookup
//! on every send — it stores `O(n log n)` flat arrays from which **any**
//! path decomposes in constant time:
//!
//! - an **Euler tour** of the internal rooting at node 0 (`2n − 1`
//!   entries) with each node's first occurrence;
//! - a **sparse table** of range-minimum-by-depth queries over the tour,
//!   giving `lca(a, b)` in O(1) with no hashing;
//! - per-node `depth`, `parent`, and the two directed **parent-edge ids**
//!   (`up_edge(v)` = `v → parent(v)`, `down_edge(v)` = `parent(v) → v`).
//!
//! The unique tree path `a → b` is then `a → lca(a, b) → b`: the first
//! leg climbs `up_edge`s, the second descends `down_edge`s. Aggregate
//! consumers (the traffic meter's subtree-delta charging, virtual-tree
//! Steiner unions) never materialize the path at all — they only need
//! `lca`, `tin` order and the parent-edge arrays; [`LcaIndex::for_each_path_edge`]
//! exists for the callers that do walk edges — test oracles and the
//! benchmark's path probe; the query planner prices on cuts — and costs
//! O(path length) plus one heap buffer for the downward leg.

use crate::node::NodeId;
use crate::tree::{DirEdgeId, Tree};

const NONE: u32 = u32::MAX;

/// Euler-tour + sparse-table LCA index with flat path-decomposition
/// arrays. Build once per [`Tree`] in `O(n log n)`; query forever in
/// O(1).
#[derive(Clone, Debug)]
pub struct LcaIndex {
    /// Euler tour of the rooting at node 0: node ids, `2n − 1` entries.
    euler: Vec<u32>,
    /// Depth of `euler[i]` (kept alongside to make range-min cache-local).
    euler_depth: Vec<u32>,
    /// First occurrence of each node in `euler`.
    first: Vec<u32>,
    /// `table[k]` holds, for each tour position `i`, the position of the
    /// minimum-depth entry in `euler[i .. i + 2^k]`.
    table: Vec<Vec<u32>>,
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
        let mut depth = vec![0u32; n];
        let mut parent = vec![NONE; n];
        let mut up = vec![NONE; n];
        let mut down = vec![NONE; n];
        for v in tree.nodes() {
            if let Some((p, e)) = tree.parent0(v) {
                parent[v.index()] = p.0;
                let (eu, _) = tree.endpoints(e);
                // Direction 0 of `e` is `eu → ev` as stored.
                up[v.index()] = DirEdgeId::new(e, eu != v).0;
                down[v.index()] = DirEdgeId::new(e, eu == v).0;
            }
        }
        // Parents precede children in DFS order, so one forward pass
        // fills every depth.
        for &v in tree.dfs_order() {
            if let Some((p, _)) = tree.parent0(v) {
                depth[v.index()] = depth[p.index()] + 1;
            }
        }

        // Euler tour: enter a node, and re-enter it after each child.
        let mut euler = Vec::with_capacity(2 * n - 1);
        let mut euler_depth = Vec::with_capacity(2 * n - 1);
        let mut first = vec![NONE; n];
        // Iterative DFS emitting (node, visit) events; children in
        // adjacency order to match the Tree's own traversals.
        enum Ev {
            Enter(NodeId),
            Emit(NodeId),
        }
        let mut stack = vec![Ev::Enter(NodeId(0))];
        while let Some(ev) = stack.pop() {
            let x = match ev {
                Ev::Enter(x) => {
                    // Children first-to-last ⇒ push their enter events in
                    // reverse, interleaved with re-emissions of `x`.
                    let children: Vec<NodeId> = tree
                        .neighbors(x)
                        .iter()
                        .filter(|&&(y, _)| parent[y.index()] == x.0)
                        .map(|&(y, _)| y)
                        .collect();
                    for &c in children.iter().rev() {
                        stack.push(Ev::Emit(x));
                        stack.push(Ev::Enter(c));
                    }
                    x
                }
                Ev::Emit(x) => x,
            };
            if first[x.index()] == NONE {
                first[x.index()] = euler.len() as u32;
            }
            euler.push(x.0);
            euler_depth.push(depth[x.index()]);
        }
        debug_assert_eq!(euler.len(), 2 * n - 1);

        // Sparse table over the tour (range-min by depth).
        let m = euler.len();
        let levels = (usize::BITS - m.leading_zeros()) as usize; // ⌈log2 m⌉ + 1
        let mut table: Vec<Vec<u32>> = Vec::with_capacity(levels);
        table.push((0..m as u32).collect());
        let mut k = 1usize;
        while (1 << k) <= m {
            let half = 1 << (k - 1);
            let prev = &table[k - 1];
            let mut row = Vec::with_capacity(m - (1 << k) + 1);
            for i in 0..=(m - (1 << k)) {
                let a = prev[i];
                let b = prev[i + half];
                row.push(if euler_depth[a as usize] <= euler_depth[b as usize] {
                    a
                } else {
                    b
                });
            }
            table.push(row);
            k += 1;
        }

        LcaIndex {
            euler,
            euler_depth,
            first,
            table,
            depth,
            parent,
            up,
            down,
        }
    }

    /// Number of nodes indexed.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.first.len()
    }

    /// Depth of `v` in the rooting at node 0.
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v.index()]
    }

    /// DFS preorder key of `v` (its first Euler-tour position). Sorting
    /// nodes by `tin` yields the order virtual-tree constructions need:
    /// every subtree is a contiguous run.
    #[inline]
    pub fn tin(&self, v: NodeId) -> u32 {
        self.first[v.index()]
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

    /// The lowest common ancestor of `a` and `b`, in O(1).
    #[inline]
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut i, mut j) = (self.first[a.index()], self.first[b.index()]);
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let (i, j) = (i as usize, j as usize + 1); // half-open [i, j)
        let k = (usize::BITS - 1 - (j - i).leading_zeros()) as usize; // ⌊log2 len⌋
        let x = self.table[k][i];
        let y = self.table[k][j - (1 << k)];
        let pos = if self.euler_depth[x as usize] <= self.euler_depth[y as usize] {
            x
        } else {
            y
        };
        NodeId(self.euler[pos as usize])
    }

    /// Number of hops on the unique path `a → b`, in O(1).
    #[inline]
    pub fn dist(&self, a: NodeId, b: NodeId) -> u32 {
        let l = self.lca(a, b);
        self.depth(a) + self.depth(b) - 2 * self.depth(l)
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

    fn all_trees() -> Vec<Tree> {
        vec![
            builders::star(5, 1.0),
            builders::rack_tree(&[(2, 1.0, 2.0), (3, 2.0, 1.0)], 1.0),
            builders::fat_tree(3, 2, 1.0),
            builders::caterpillar(5, 2, 1.0),
            builders::random_tree(9, 6, 0.5, 8.0, 7),
            builders::random_tree(1, 1, 1.0, 1.0, 0),
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
