//! Edge-cut side weights — the quantity the paper's lower bounds live on.
//!
//! Every edge `e` of a tree splits the nodes into two sides `V⁻_e` and
//! `V⁺_e` (Section 3.1). All three lower bounds (Theorems 1, 3, 6) take the
//! form `max_e (1/w_e) · min{…, Σ_{v∈V⁻_e} N_v, Σ_{v∈V⁺_e} N_v}`, so we
//! precompute the side sums of an arbitrary per-node weight for *all* edges
//! in one `O(|V|)` pass.

use crate::node::NodeId;
use crate::tree::{EdgeId, Tree};

/// Per-edge side sums of a per-node weight function.
///
/// For edge `e` with stored endpoints `(u, v)`, `side_u(e)` is the weight on
/// `u`'s side of the cut and `side_v(e)` on `v`'s side;
/// `side_u(e) + side_v(e) == total()` always holds.
#[derive(Clone, Debug)]
pub struct CutWeights {
    side_u: Vec<u64>,
    side_v: Vec<u64>,
    total: u64,
}

impl CutWeights {
    /// Compute side sums for all edges. `weight` is indexed by node id and
    /// must cover every node (router entries are normally `0`).
    pub fn compute(tree: &Tree, weight: &[u64]) -> Self {
        let (inside, outside) = tree.cut_folds(weight, 0, |a, b| a + b);
        let ne = tree.num_edges();
        let mut side_u = vec![0u64; ne];
        let mut side_v = vec![0u64; ne];
        for i in 0..ne {
            let e = EdgeId(i as u32);
            let (u, _v) = tree.endpoints(e);
            let deeper = tree.deeper_endpoint(e);
            let (deep, far) = (inside[deeper.index()], outside[deeper.index()]);
            if deeper == u {
                side_u[i] = deep;
                side_v[i] = far;
            } else {
                side_u[i] = far;
                side_v[i] = deep;
            }
        }
        CutWeights {
            side_u,
            side_v,
            total: inside[0],
        }
    }

    /// Total weight across all nodes.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Weight on the side of `e` containing its stored endpoint `u`.
    #[inline]
    pub fn side_u(&self, e: EdgeId) -> u64 {
        self.side_u[e.index()]
    }

    /// Weight on the side of `e` containing its stored endpoint `v`.
    #[inline]
    pub fn side_v(&self, e: EdgeId) -> u64 {
        self.side_v[e.index()]
    }

    /// `min{Σ_{V⁻_e}, Σ_{V⁺_e}}` — the smaller side of the cut.
    #[inline]
    pub fn min_side(&self, e: EdgeId) -> u64 {
        self.side_u[e.index()].min(self.side_v[e.index()])
    }

    /// Weight on the side of `e` containing node `x` (which may be either
    /// endpoint or any other node).
    pub fn side_containing(&self, tree: &Tree, e: EdgeId, x: NodeId) -> u64 {
        let (u, _) = tree.endpoints(e);
        let x_with_u = tree.cut_side_of(e, x) == tree.cut_side_of(e, u);
        if x_with_u {
            self.side_u[e.index()]
        } else {
            self.side_v[e.index()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::tree::TreeBuilder;

    #[test]
    fn star_cuts_are_leaf_vs_rest() {
        // Star with 4 compute leaves, weights 1, 2, 3, 4.
        let t = builders::star(4, 1.0);
        let mut w = vec![0u64; t.num_nodes()];
        for (i, &v) in t.compute_nodes().iter().enumerate() {
            w[v.index()] = (i + 1) as u64;
        }
        let cw = CutWeights::compute(&t, &w);
        assert_eq!(cw.total(), 10);
        for e in t.edges() {
            let (u, v) = t.endpoints(e);
            let leaf = if t.is_compute(u) { u } else { v };
            let leaf_w = w[leaf.index()];
            assert_eq!(cw.min_side(e), leaf_w.min(10 - leaf_w));
            assert_eq!(cw.side_containing(&t, e, leaf), leaf_w);
        }
    }

    #[test]
    fn sides_sum_to_total() {
        let mut b = TreeBuilder::new();
        let v0 = b.compute();
        let r = b.router();
        let v1 = b.compute();
        let r2 = b.router();
        let v2 = b.compute();
        b.link(v0, r, 1.0).unwrap();
        b.link(r, v1, 1.0).unwrap();
        b.link(r, r2, 1.0).unwrap();
        b.link(r2, v2, 1.0).unwrap();
        let t = b.build().unwrap();
        let w = vec![5, 0, 7, 0, 9];
        let cw = CutWeights::compute(&t, &w);
        for e in t.edges() {
            assert_eq!(cw.side_u(e) + cw.side_v(e), cw.total());
        }
        // Cut on edge r-r2 separates {v0, v1} from {v2}.
        let e = t
            .dir_edge_between(crate::NodeId(1), crate::NodeId(3))
            .unwrap()
            .edge();
        assert_eq!(cw.min_side(e), 9);
    }
}
