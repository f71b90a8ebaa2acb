//! The derived directed graph `G†` of Section 4.1 and its minimal covers.
//!
//! Every edge `e = (u, v)` of a symmetric tree `G` is oriented toward the
//! side with the larger total data weight: if `Σ_{x∈V⁻_e} N_x ≤
//! Σ_{x∈V⁺_e} N_x` then `G†` keeps only `u → v`. Lemma 4 shows that the
//! result is an in-tree: every node has out-degree at most one, and exactly
//! one node (the *root*) has out-degree zero.
//!
//! Weight ties would break Lemma 4's uniqueness argument, so we
//! perturb: the side containing node 0 is treated as infinitesimally
//! heavier. This is equivalent to adding `ε` to node 0's weight, keeps every
//! comparison strict, and therefore preserves the lemma's proof verbatim.
//!
//! A *cover* of `G†` is a set of nodes such that every leaf (in-degree 0
//! node) has an ancestor in the set (Section 4.1); covers feed the
//! cartesian-product lower bound of Theorem 4.

use crate::bandwidth::Bandwidth;
use crate::cut::CutWeights;
use crate::node::NodeId;
use crate::tree::{EdgeId, Tree};

/// The in-tree `G†`: parent pointers toward the root plus the bandwidth of
/// each node's unique outgoing edge.
#[derive(Clone, Debug)]
pub struct Dagger {
    root: NodeId,
    /// Out-neighbor (`p_u` in the paper) of each node; `None` for the root.
    parent: Vec<Option<NodeId>>,
    parent_edge: Vec<Option<EdgeId>>,
    /// Children `ζ(u)` of each node in `G†`.
    children: Vec<Vec<NodeId>>,
}

impl Dagger {
    /// Orient every edge of `tree` toward the heavier side of its cut under
    /// `weight` (per-node data sizes `N_v`), with the node-0 tie-break.
    pub fn build(tree: &Tree, weight: &[u64]) -> Self {
        let cw = CutWeights::compute(tree, weight);
        Self::build_with_cuts(tree, &cw)
    }

    /// As [`Dagger::build`], reusing precomputed cut weights.
    fn build_with_cuts(tree: &Tree, cw: &CutWeights) -> Self {
        let n = tree.num_nodes();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
        for e in tree.edges() {
            let (u, v) = tree.endpoints(e);
            let (su, sv) = (cw.side_u(e), cw.side_v(e));
            // Perturbation: the side containing node 0 gets +ε.
            let zero_with_u = tree.cut_side_of(e, NodeId(0)) == tree.cut_side_of(e, u);
            let u_to_v = su < sv || (su == sv && !zero_with_u);
            let (tail, _head) = if u_to_v { (u, v) } else { (v, u) };
            let head = if u_to_v { v } else { u };
            debug_assert!(parent[tail.index()].is_none(), "Lemma 4: out-degree ≤ 1");
            parent[tail.index()] = Some(head);
            parent_edge[tail.index()] = Some(e);
        }
        let mut roots = (0..n).filter(|&i| parent[i].is_none());
        let root = NodeId::from_index(roots.next().expect("Lemma 4: a root exists"));
        debug_assert!(roots.next().is_none(), "Lemma 4: the root is unique");
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p.index()].push(NodeId::from_index(i));
            }
        }
        Dagger {
            root,
            parent,
            parent_edge,
            children,
        }
    }

    /// The unique node with out-degree zero.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Out-neighbor `p_u` of `u` (toward the root), `None` for the root.
    #[inline]
    pub fn parent(&self, u: NodeId) -> Option<NodeId> {
        self.parent[u.index()]
    }

    /// The tree edge realizing `u → p_u`.
    #[inline]
    pub fn parent_edge(&self, u: NodeId) -> Option<EdgeId> {
        self.parent_edge[u.index()]
    }

    /// Children `ζ(u)` in `G†`.
    #[inline]
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        &self.children[u.index()]
    }

    /// Bandwidth `w_u` of `u`'s unique outgoing edge (symmetric trees).
    pub fn out_bandwidth(&self, tree: &Tree, u: NodeId) -> Option<Bandwidth> {
        self.parent_edge[u.index()].map(|e| tree.sym_bandwidth(e))
    }

    /// Leaves of `G†` (in-degree 0). When every compute node is a tree leaf
    /// and the root is a router, these are exactly the compute nodes.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.parent.len())
            .map(NodeId::from_index)
            .filter(|&v| self.children[v.index()].is_empty() && v != self.root)
            .collect()
    }

    /// Nodes in a bottom-up order (every node appears after all of its `G†`
    /// children): post-order of the in-tree.
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.parent.len());
        let mut stack = vec![(self.root, false)];
        while let Some((x, expanded)) = stack.pop() {
            if expanded {
                out.push(x);
                continue;
            }
            stack.push((x, true));
            for &c in &self.children[x.index()] {
                stack.push((c, false));
            }
        }
        out
    }

    /// Nodes in a top-down order (root first): pre-order of the in-tree.
    pub fn pre_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.parent.len());
        let mut stack = vec![self.root];
        while let Some(x) = stack.pop() {
            out.push(x);
            for &c in self.children[x.index()].iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// `true` if every leaf of `G†` has an ancestor (possibly itself) in
    /// `set`.
    pub fn is_cover(&self, set: &[NodeId]) -> bool {
        let mut marked = vec![false; self.parent.len()];
        for &s in set {
            marked[s.index()] = true;
        }
        self.leaves().iter().all(|&leaf| {
            let mut x = leaf;
            loop {
                if marked[x.index()] {
                    return true;
                }
                match self.parent[x.index()] {
                    Some(p) => x = p,
                    None => return false,
                }
            }
        })
    }

    /// `true` if `set` is a cover and no proper subset is.
    pub fn is_minimal_cover(&self, set: &[NodeId]) -> bool {
        if !self.is_cover(set) {
            return false;
        }
        (0..set.len()).all(|i| {
            let mut reduced = set.to_vec();
            reduced.swap_remove(i);
            !self.is_cover(&reduced)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    fn uniform_weights(tree: &Tree, w: u64) -> Vec<u64> {
        let mut out = vec![0u64; tree.num_nodes()];
        for &v in tree.compute_nodes() {
            out[v.index()] = w;
        }
        out
    }

    #[test]
    fn star_uniform_root_is_center() {
        let t = builders::star(5, 1.0);
        let d = Dagger::build(&t, &uniform_weights(&t, 10));
        // With uniform data no leaf holds ≥ N/2, so all edges point to the
        // center router.
        assert_eq!(d.root(), NodeId::from_index(5));
        assert!(!t.is_compute(d.root()));
        assert_eq!(d.leaves().len(), 5);
    }

    #[test]
    fn heavy_node_becomes_root() {
        let t = builders::star(4, 1.0);
        let mut w = uniform_weights(&t, 1);
        w[0] = 100; // node 0 holds almost everything
        let d = Dagger::build(&t, &w);
        assert_eq!(d.root(), NodeId(0));
        assert!(t.is_compute(d.root()));
    }

    #[test]
    fn lemma4_invariants_on_random_trees() {
        for seed in 0..20 {
            let t = builders::random_tree(8, 5, 1.0, 16.0, seed);
            let mut w = vec![0u64; t.num_nodes()];
            for (i, &v) in t.compute_nodes().iter().enumerate() {
                w[v.index()] = (seed * 13 + i as u64 * 7) % 50;
            }
            // Dagger::build debug_asserts out-degree ≤ 1 and root uniqueness.
            let d = Dagger::build(&t, &w);
            // Every non-root node reaches the root.
            for v in t.nodes() {
                let mut x = v;
                let mut hops = 0;
                while let Some(p) = d.parent(x) {
                    x = p;
                    hops += 1;
                    assert!(hops <= t.num_nodes());
                }
                assert_eq!(x, d.root());
            }
        }
    }

    #[test]
    fn ties_are_broken_consistently() {
        // Two compute nodes with identical weight: the cut ties.
        let t = builders::star(2, 1.0);
        let d = Dagger::build(&t, &uniform_weights(&t, 5));
        // A unique root must still emerge.
        let n_roots = t.nodes().filter(|&v| d.parent(v).is_none()).count();
        assert_eq!(n_roots, 1);
    }

    #[test]
    fn covers() {
        let t = builders::star(3, 1.0);
        let d = Dagger::build(&t, &uniform_weights(&t, 4));
        let r = d.root();
        assert!(d.is_minimal_cover(&[r]));
        let leaves = d.leaves();
        assert!(d.is_minimal_cover(&leaves));
        // Root + a leaf is a cover but not minimal.
        let mut both = vec![r];
        both.push(leaves[0]);
        assert!(d.is_cover(&both));
        assert!(!d.is_minimal_cover(&both));
        // Missing a leaf is not a cover.
        assert!(!d.is_cover(&leaves[1..]));
    }

    #[test]
    fn post_order_is_children_first() {
        let t = builders::rack_tree(&[(3, 1.0, 2.0), (2, 1.0, 2.0)], 4.0);
        let d = Dagger::build(&t, &uniform_weights(&t, 1));
        let post = d.post_order();
        let pos: std::collections::HashMap<_, _> =
            post.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for v in t.nodes() {
            for &c in d.children(v) {
                assert!(pos[&c] < pos[&v]);
            }
        }
        assert_eq!(*post.last().unwrap(), d.root());
    }
}
