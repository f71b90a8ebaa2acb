//! Initial data distributions `D` over the compute nodes.
//!
//! The paper departs from prior MPC work by making the initial distribution
//! a first-class input: algorithms know `|X_0(v)|` (and per-relation
//! cardinalities) for every compute node and optimize against it. A
//! [`Placement`] carries the actual fragments; [`PlacementStats`] carries
//! the cardinalities — the part protocols are allowed to use for planning.

use tamp_topology::{NodeId, Tree};

use crate::error::SimError;
use crate::value::{NodeState, Rel, Value};

/// The initial distribution of input data across nodes.
///
/// Fragments are indexed by node id; router entries must stay empty. The
/// fragments of all nodes partition the input (no initial duplication),
/// which is the paper's standing assumption — [`Placement::validate`]
/// checks emptiness at routers but deliberately not disjointness, since
/// inputs are multisets for sorting.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    fragments: Vec<NodeState>,
}

impl Placement {
    /// An empty placement shaped for `tree`.
    pub fn empty(tree: &Tree) -> Self {
        Placement {
            fragments: vec![NodeState::default(); tree.num_nodes()],
        }
    }

    /// Build from per-node fragments (indexed by node id).
    pub fn from_fragments(fragments: Vec<NodeState>) -> Self {
        Placement { fragments }
    }

    /// Set the `R` fragment of node `v`.
    pub fn set_r(&mut self, v: NodeId, data: Vec<Value>) {
        self.fragments[v.index()].r = data;
    }

    /// Set the `S` fragment of node `v`.
    pub fn set_s(&mut self, v: NodeId, data: Vec<Value>) {
        self.fragments[v.index()].s = data;
    }

    /// Append to the fragment of one relation at node `v`.
    pub fn push(&mut self, v: NodeId, rel: Rel, value: Value) {
        self.fragments[v.index()].rel_mut(rel).push(value);
    }

    /// The fragment of node `v`.
    pub fn node(&self, v: NodeId) -> &NodeState {
        &self.fragments[v.index()]
    }

    /// All fragments, indexed by node id.
    pub fn fragments(&self) -> &[NodeState] {
        &self.fragments
    }

    /// Check shape and that routers hold no data.
    pub fn validate(&self, tree: &Tree) -> Result<(), SimError> {
        if self.fragments.len() != tree.num_nodes() {
            return Err(SimError::PlacementShape {
                expected: tree.num_nodes(),
                got: self.fragments.len(),
            });
        }
        for v in tree.nodes() {
            if !tree.is_compute(v) && !self.fragments[v.index()].is_empty() {
                return Err(SimError::DataAtRouter(v));
            }
        }
        Ok(())
    }

    /// Cardinality statistics (the "public knowledge" of the model).
    pub fn stats(&self) -> PlacementStats {
        let r: Vec<u64> = self.fragments.iter().map(|f| f.r.len() as u64).collect();
        let s: Vec<u64> = self.fragments.iter().map(|f| f.s.len() as u64).collect();
        let n: Vec<u64> = r.iter().zip(&s).map(|(a, b)| a + b).collect();
        PlacementStats {
            total_r: r.iter().sum(),
            total_s: s.iter().sum(),
            r,
            s,
            n,
        }
    }

    /// All `R` values across nodes (for verification).
    pub fn all_r(&self) -> Vec<Value> {
        self.fragments
            .iter()
            .flat_map(|f| f.r.iter().copied())
            .collect()
    }

    /// All `S` values across nodes (for verification).
    pub fn all_s(&self) -> Vec<Value> {
        self.fragments
            .iter()
            .flat_map(|f| f.s.iter().copied())
            .collect()
    }
}

/// Per-node cardinalities `|R_v|`, `|S_v|`, `N_v` plus totals — the
/// statistics the model assumes every algorithm knows up front
/// (Section 2, "Computation").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementStats {
    /// `|R_v|` per node id.
    pub r: Vec<u64>,
    /// `|S_v|` per node id.
    pub s: Vec<u64>,
    /// `N_v = |R_v| + |S_v|` per node id.
    pub n: Vec<u64>,
    /// `|R|`.
    pub total_r: u64,
    /// `|S|`.
    pub total_s: u64,
}

impl PlacementStats {
    /// Total input size `N = |R| + |S|`.
    #[inline]
    pub fn total_n(&self) -> u64 {
        self.total_r + self.total_s
    }

    /// `N_v` for a node.
    #[inline]
    pub fn n_v(&self, v: NodeId) -> u64 {
        self.n[v.index()]
    }

    /// `|R_v|` for a node.
    #[inline]
    pub fn r_v(&self, v: NodeId) -> u64 {
        self.r[v.index()]
    }

    /// `|S_v|` for a node.
    #[inline]
    pub fn s_v(&self, v: NodeId) -> u64 {
        self.s[v.index()]
    }

    /// Cardinalities of one relation, indexed by node.
    #[inline]
    pub fn rel(&self, rel: Rel) -> &[u64] {
        match rel {
            Rel::R => &self.r,
            Rel::S => &self.s,
        }
    }

    /// Total cardinality of one relation.
    #[inline]
    pub fn total_rel(&self, rel: Rel) -> u64 {
        match rel {
            Rel::R => self.total_r,
            Rel::S => self.total_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::builders;

    #[test]
    fn stats_count_fragments() {
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), vec![1, 2, 3]);
        p.set_s(NodeId(0), vec![9]);
        p.set_s(NodeId(2), vec![4, 5]);
        let st = p.stats();
        assert_eq!(st.total_r, 3);
        assert_eq!(st.total_s, 3);
        assert_eq!(st.total_n(), 6);
        assert_eq!(st.n_v(NodeId(0)), 4);
        assert_eq!(st.n_v(NodeId(1)), 0);
        assert_eq!(st.s_v(NodeId(2)), 2);
        assert!(p.validate(&t).is_ok());
    }

    #[test]
    fn rejects_data_at_router() {
        let t = builders::star(2, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(2), vec![1]); // node 2 is the hub router
        assert_eq!(p.validate(&t), Err(SimError::DataAtRouter(NodeId(2))));
    }

    #[test]
    fn rejects_wrong_shape() {
        let t = builders::star(2, 1.0);
        let p = Placement::from_fragments(vec![NodeState::default(); 2]);
        assert!(matches!(
            p.validate(&t),
            Err(SimError::PlacementShape {
                expected: 3,
                got: 2
            })
        ));
    }
}
