//! Validated tree topologies with per-direction bandwidths.
//!
//! A [`Tree`] is the network model of Section 2 restricted to trees: an
//! undirected tree over compute and router nodes where every undirected
//! edge `{u, v}` carries **two** directed bandwidths `w_{u→v}` and
//! `w_{v→u}`. The paper's algorithms assume *symmetric* trees
//! (`w_{u→v} = w_{v→u}`, Section 2.1); the asymmetric capability exists so
//! that the classic MPC model can be embedded (Section 2.2).
//!
//! Node ids are dense indices. Edge ids index the undirected edge table; a
//! [`DirEdgeId`] addresses one direction of an undirected edge, which is the
//! granularity at which the cost model meters traffic.

use crate::bandwidth::Bandwidth;
use crate::error::TopologyError;
use crate::node::{NodeId, NodeKind};

/// Identifier of an undirected edge of a [`Tree`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of one *direction* of an undirected edge.
///
/// Direction `0` of edge `e` is `e.u → e.v` (as stored); direction `1` is
/// the reverse. The simulator meters traffic per `DirEdgeId`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DirEdgeId(pub u32);

impl DirEdgeId {
    /// The underlying undirected edge.
    #[inline]
    pub fn edge(self) -> EdgeId {
        EdgeId(self.0 >> 1)
    }

    /// `true` if this is the reverse (`v → u`) direction.
    #[inline]
    pub fn is_reverse(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index (for per-direction tables of size `2 * num_edges`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from an edge and a direction flag.
    #[inline]
    pub fn new(edge: EdgeId, reverse: bool) -> Self {
        DirEdgeId(edge.0 << 1 | u32::from(reverse))
    }
}

#[derive(Clone, Debug)]
struct Edge {
    u: NodeId,
    v: NodeId,
    /// Bandwidth in direction `u → v`.
    w_uv: Bandwidth,
    /// Bandwidth in direction `v → u`.
    w_vu: Bandwidth,
}

/// Incrementally assembles a [`Tree`].
///
/// ```
/// use tamp_topology::{TreeBuilder, NodeKind};
///
/// let mut b = TreeBuilder::new();
/// let hub = b.router();
/// let a = b.compute();
/// let c = b.compute();
/// b.link(hub, a, 2.0).unwrap();
/// b.link(hub, c, 1.0).unwrap();
/// let tree = b.build().unwrap();
/// assert_eq!(tree.compute_nodes().len(), 2);
/// assert!(tree.is_symmetric());
/// ```
#[derive(Default, Debug)]
pub struct TreeBuilder {
    kinds: Vec<NodeKind>,
    edges: Vec<(usize, usize, f64, f64)>,
}

impl TreeBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a compute node; returns its id.
    pub fn compute(&mut self) -> NodeId {
        self.kinds.push(NodeKind::Compute);
        NodeId::from_index(self.kinds.len() - 1)
    }

    /// Add a router node; returns its id.
    pub fn router(&mut self) -> NodeId {
        self.kinds.push(NodeKind::Router);
        NodeId::from_index(self.kinds.len() - 1)
    }

    /// Add `n` compute nodes; returns their ids.
    pub fn computes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.compute()).collect()
    }

    /// Add a symmetric link with bandwidth `w` in both directions.
    pub fn link(&mut self, u: NodeId, v: NodeId, w: f64) -> Result<(), TopologyError> {
        self.link_asym(u, v, w, w)
    }

    /// Add a link with direction-dependent bandwidths.
    pub fn link_asym(
        &mut self,
        u: NodeId,
        v: NodeId,
        w_uv: f64,
        w_vu: f64,
    ) -> Result<(), TopologyError> {
        Bandwidth::new(w_uv)?;
        Bandwidth::new(w_vu)?;
        if u == v {
            return Err(TopologyError::SelfLoop(u.index()));
        }
        self.edges.push((u.index(), v.index(), w_uv, w_vu));
        Ok(())
    }

    /// Validate and freeze into a [`Tree`].
    pub fn build(self) -> Result<Tree, TopologyError> {
        Tree::from_parts(self.kinds, self.edges)
    }
}

/// A validated tree topology.
///
/// Construction (via [`TreeBuilder`] or [`Tree::from_parts`]) checks that
/// the edges form a spanning tree and that at least one compute node exists.
#[derive(Clone, Debug)]
pub struct Tree {
    kinds: Vec<NodeKind>,
    edges: Vec<Edge>,
    /// Undirected adjacency: for each node, `(neighbor, edge)` pairs in
    /// insertion order (this order defines left-to-right traversals).
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    compute: Vec<NodeId>,
    /// Rooting at node 0 used internally for routing and cuts.
    parent: Vec<Option<(NodeId, EdgeId)>>,
    depth: Vec<u32>,
    /// Preorder (DFS from node 0) — every node's subtree is a contiguous
    /// `tin..tout` interval.
    tin: Vec<u32>,
    tout: Vec<u32>,
    /// Nodes in DFS order (for subtree aggregation in O(|V|)).
    dfs_order: Vec<NodeId>,
}

impl Tree {
    /// Build a tree from raw parts: node kinds and edges
    /// `(u, v, w_{u→v}, w_{v→u})`.
    pub fn from_parts(
        kinds: Vec<NodeKind>,
        raw_edges: Vec<(usize, usize, f64, f64)>,
    ) -> Result<Self, TopologyError> {
        let n = kinds.len();
        if raw_edges.len() + 1 != n {
            return Err(TopologyError::NotATree);
        }
        let mut edges = Vec::with_capacity(raw_edges.len());
        let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
        for (i, &(u, v, w_uv, w_vu)) in raw_edges.iter().enumerate() {
            if u >= n {
                return Err(TopologyError::UnknownNode(u));
            }
            if v >= n {
                return Err(TopologyError::UnknownNode(v));
            }
            if u == v {
                return Err(TopologyError::SelfLoop(u));
            }
            let e = EdgeId(i as u32);
            let (u, v) = (NodeId::from_index(u), NodeId::from_index(v));
            edges.push(Edge {
                u,
                v,
                w_uv: Bandwidth::new(w_uv)?,
                w_vu: Bandwidth::new(w_vu)?,
            });
            adj[u.index()].push((v, e));
            adj[v.index()].push((u, e));
        }
        let compute: Vec<NodeId> = (0..n)
            .filter(|&i| kinds[i].is_compute())
            .map(NodeId::from_index)
            .collect();
        if compute.is_empty() {
            return Err(TopologyError::NoComputeNodes);
        }

        // DFS from node 0: connectivity check + rooting caches.
        let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        let mut depth = vec![0u32; n];
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut dfs_order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut clock = 0u32;
        // Iterative DFS with explicit enter/exit events.
        let mut stack: Vec<(NodeId, bool)> = vec![(NodeId(0), false)];
        while let Some((x, exiting)) = stack.pop() {
            if exiting {
                tout[x.index()] = clock;
                continue;
            }
            if visited[x.index()] {
                return Err(TopologyError::NotATree);
            }
            visited[x.index()] = true;
            tin[x.index()] = clock;
            clock += 1;
            dfs_order.push(x);
            stack.push((x, true));
            // Reverse so children are visited in adjacency (insertion) order.
            for &(y, e) in adj[x.index()].iter().rev() {
                if parent[x.index()] == Some((y, e)) {
                    continue; // the tree edge back to x's parent
                }
                if visited[y.index()] {
                    // A second route to an already-visited node ⇒ cycle.
                    return Err(TopologyError::NotATree);
                }
                parent[y.index()] = Some((x, e));
                depth[y.index()] = depth[x.index()] + 1;
                stack.push((y, false));
            }
        }
        if dfs_order.len() != n {
            return Err(TopologyError::Disconnected);
        }
        Ok(Tree {
            kinds,
            edges,
            adj,
            compute,
            parent,
            depth,
            tin,
            tout,
            dfs_order,
        })
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of undirected edges (`|V| - 1`).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The compute nodes `V_C`, in id order.
    #[inline]
    pub fn compute_nodes(&self) -> &[NodeId] {
        &self.compute
    }

    /// Number of compute nodes `|V_C|`.
    #[inline]
    pub fn num_compute(&self) -> usize {
        self.compute.len()
    }

    /// Kind of node `v`.
    #[inline]
    pub fn kind(&self, v: NodeId) -> NodeKind {
        self.kinds[v.index()]
    }

    /// `true` if `v` is a compute node of this tree (`false` for a
    /// router and for an id the tree does not have — the engines' send
    /// checks rely on this being total).
    #[inline]
    pub fn is_compute(&self, v: NodeId) -> bool {
        self.kinds.get(v.index()).is_some_and(|k| k.is_compute())
    }

    /// Degree of node `v` in the undirected tree.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// `true` if `v` is a leaf (degree ≤ 1).
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.degree(v) <= 1
    }

    /// Neighbors of `v` with the connecting edge ids.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[v.index()]
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// All undirected edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges()).map(|i| EdgeId(i as u32))
    }

    /// All directed edge ids (`2 × num_edges`).
    pub fn dir_edges(&self) -> impl Iterator<Item = DirEdgeId> + '_ {
        (0..2 * self.num_edges()).map(|i| DirEdgeId(i as u32))
    }

    /// Endpoints `(u, v)` of an undirected edge, as stored.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let ed = &self.edges[e.index()];
        (ed.u, ed.v)
    }

    /// Tail and head of a directed edge.
    #[inline]
    pub fn dir_endpoints(&self, d: DirEdgeId) -> (NodeId, NodeId) {
        let (u, v) = self.endpoints(d.edge());
        if d.is_reverse() {
            (v, u)
        } else {
            (u, v)
        }
    }

    /// Bandwidth of a directed edge.
    #[inline]
    pub fn bandwidth(&self, d: DirEdgeId) -> Bandwidth {
        let ed = &self.edges[d.edge().index()];
        if d.is_reverse() {
            ed.w_vu
        } else {
            ed.w_uv
        }
    }

    /// Bandwidth of a *symmetric* undirected edge (both directions equal).
    ///
    /// # Panics
    /// Panics in debug builds if the edge is asymmetric.
    #[inline]
    pub fn sym_bandwidth(&self, e: EdgeId) -> Bandwidth {
        let ed = &self.edges[e.index()];
        debug_assert_eq!(
            ed.w_uv.get(),
            ed.w_vu.get(),
            "sym_bandwidth on asymmetric edge"
        );
        ed.w_uv
    }

    /// Re-weight edge `e` in place, dividing both directed bandwidths by
    /// `factor` — the degraded-link mutation of the serving arc
    /// (`factor > 1` slows the link; `factor < 1` restores it).
    ///
    /// Only the stored bandwidths change: the structural caches (DFS
    /// order, depths, parents, subtree intervals) are bandwidth-independent,
    /// so every routing query stays valid. Costs, plan prices, and
    /// [`fingerprint`](Self::fingerprint) all observe the new weights
    /// immediately.
    pub fn scale_bandwidth(&mut self, e: EdgeId, factor: f64) -> Result<(), TopologyError> {
        if e.index() >= self.edges.len() {
            return Err(TopologyError::UnknownEdge(e.index()));
        }
        if !factor.is_finite() || factor <= 0.0 {
            return Err(TopologyError::InvalidBandwidth(factor));
        }
        let ed = &self.edges[e.index()];
        let w_uv = Bandwidth::new(ed.w_uv.get() / factor)?;
        let w_vu = Bandwidth::new(ed.w_vu.get() / factor)?;
        let ed = &mut self.edges[e.index()];
        ed.w_uv = w_uv;
        ed.w_vu = w_vu;
        Ok(())
    }

    /// Canonical content fingerprint of the topology: node kinds, edge
    /// endpoints, and the exact bits of every directed bandwidth.
    ///
    /// Two trees hash equal iff they are the same labeled topology with
    /// identical weights, so any in-place mutation (notably
    /// [`scale_bandwidth`](Self::scale_bandwidth)) changes the value.
    /// Plan caches key on this to invalidate priced plans when the
    /// network degrades.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.num_nodes().hash(&mut h);
        for kind in &self.kinds {
            kind.is_compute().hash(&mut h);
        }
        for ed in &self.edges {
            ed.u.index().hash(&mut h);
            ed.v.index().hash(&mut h);
            ed.w_uv.get().to_bits().hash(&mut h);
            ed.w_vu.get().to_bits().hash(&mut h);
        }
        h.finish()
    }

    /// The directed edge from `a` to `b`, which must be adjacent.
    pub fn dir_edge_between(&self, a: NodeId, b: NodeId) -> Option<DirEdgeId> {
        self.adj[a.index()]
            .iter()
            .find(|&&(y, _)| y == b)
            .map(|&(_, e)| {
                let ed = &self.edges[e.index()];
                DirEdgeId::new(e, ed.u != a)
            })
    }

    /// `true` if every edge has equal bandwidth in both directions.
    pub fn is_symmetric(&self) -> bool {
        self.edges.iter().all(|e| e.w_uv.get() == e.w_vu.get())
    }

    /// Error unless the tree is symmetric.
    pub fn require_symmetric(&self) -> Result<(), TopologyError> {
        for e in &self.edges {
            if e.w_uv.get() != e.w_vu.get() {
                return Err(TopologyError::NotSymmetric {
                    u: e.u.index(),
                    v: e.v.index(),
                });
            }
        }
        Ok(())
    }

    /// `true` if every compute node is a leaf (the first w.l.o.g.
    /// normalization of Section 2.1).
    pub fn compute_nodes_are_leaves(&self) -> bool {
        self.compute.iter().all(|&v| self.is_leaf(v))
    }

    /// Parent of `v` in the internal rooting at node 0 (`None` for node 0).
    #[inline]
    pub fn parent0(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        self.parent[v.index()]
    }

    /// Nodes in DFS (pre)order of the internal rooting at node 0.
    #[inline]
    pub fn dfs_order(&self) -> &[NodeId] {
        &self.dfs_order
    }

    /// In the internal rooting at node 0: the endpoint of `e` farther from
    /// the root (the "child side" of the cut defined by `e`).
    pub fn deeper_endpoint(&self, e: EdgeId) -> NodeId {
        let (u, v) = self.endpoints(e);
        if self.depth[u.index()] > self.depth[v.index()] {
            u
        } else {
            v
        }
    }

    /// `true` if `x` lies in the subtree rooted at `c` (internal rooting).
    #[inline]
    pub fn in_subtree0(&self, x: NodeId, c: NodeId) -> bool {
        self.tin[c.index()] <= self.tin[x.index()] && self.tin[x.index()] < self.tout[c.index()]
    }

    /// The side of edge `e`'s cut that contains node `x`: `true` for the
    /// deeper-endpoint (subtree) side.
    #[inline]
    pub fn cut_side_of(&self, e: EdgeId, x: NodeId) -> bool {
        self.in_subtree0(x, self.deeper_endpoint(e))
    }

    /// The unique path from `a` to `b` as a sequence of directed edges.
    ///
    /// Routing on trees is trivial (the paper relies on this): the path
    /// climbs from both endpoints to their lowest common ancestor in the
    /// internal rooting.
    pub fn path(&self, a: NodeId, b: NodeId) -> Vec<DirEdgeId> {
        if a == b {
            return Vec::new();
        }
        let mut up = Vec::new(); // edges a → lca (directed away from a)
        let mut down = Vec::new(); // edges lca → b (collected b-upward, reversed)
        let (mut x, mut y) = (a, b);
        while self.depth[x.index()] > self.depth[y.index()] {
            let (p, e) = self.parent[x.index()].expect("non-root has parent");
            up.push(self.dir_of(e, x));
            x = p;
        }
        while self.depth[y.index()] > self.depth[x.index()] {
            let (p, e) = self.parent[y.index()].expect("non-root has parent");
            down.push(self.dir_of_toward(e, y));
            y = p;
        }
        while x != y {
            let (px, ex) = self.parent[x.index()].expect("non-root has parent");
            up.push(self.dir_of(ex, x));
            x = px;
            let (py, ey) = self.parent[y.index()].expect("non-root has parent");
            down.push(self.dir_of_toward(ey, y));
            y = py;
        }
        down.reverse();
        up.extend(down);
        up
    }

    /// Number of hops between `a` and `b`.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        // Depth arithmetic via the path (trees are small; clarity first).
        self.path(a, b).len()
    }

    /// Directed edge id of `e` oriented *away from* endpoint `from`.
    #[inline]
    fn dir_of(&self, e: EdgeId, from: NodeId) -> DirEdgeId {
        let ed = &self.edges[e.index()];
        DirEdgeId::new(e, ed.u != from)
    }

    /// Directed edge id of `e` oriented *toward* endpoint `to`.
    #[inline]
    fn dir_of_toward(&self, e: EdgeId, to: NodeId) -> DirEdgeId {
        let ed = &self.edges[e.index()];
        DirEdgeId::new(e, ed.v != to)
    }

    /// A *valid ordering* of the compute nodes (Section 5): the left-to-right
    /// traversal of the tree rooted at `root`, where "left-to-right" follows
    /// adjacency (insertion) order.
    pub fn left_to_right_compute_order(&self, root: NodeId) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.num_compute());
        let mut visited = vec![false; self.num_nodes()];
        let mut stack = vec![root];
        visited[root.index()] = true;
        // DFS visiting children in adjacency order (stack is LIFO, so push
        // reversed).
        while let Some(x) = stack.pop() {
            if self.is_compute(x) {
                order.push(x);
            }
            for &(y, _) in self.adj[x.index()].iter().rev() {
                if !visited[y.index()] {
                    visited[y.index()] = true;
                    stack.push(y);
                }
            }
        }
        order
    }

    /// Fold a per-node `value` over both sides of every edge cut at once,
    /// in `O(|V|)`: `(inside, outside)` by node id, where `inside[x]` folds
    /// `sub(x)` (the subtree below `x` in the internal rooting) and
    /// `outside[x]` its complement — the two sides of the cut at edge
    /// `x — parent(x)`. `op` is associative and commutative with identity
    /// `zero` and needs no inverse (`outside` is never `total − inside`),
    /// so float sums cannot cancel and `max` folds like `+`.
    pub fn cut_folds<T: Copy>(
        &self,
        value: &[T],
        zero: T,
        op: impl Fn(T, T) -> T,
    ) -> (Vec<T>, Vec<T>) {
        assert_eq!(value.len(), self.num_nodes());
        let mut inside = value.to_vec();
        let mut outside = vec![zero; value.len()];
        // Children first, later siblings before earlier ones: on the way
        // up, a child sees its parent's value and its later siblings.
        for &x in self.dfs_order.iter().rev() {
            if let Some((p, _)) = self.parent[x.index()] {
                outside[x.index()] = inside[p.index()];
                inside[p.index()] = op(inside[p.index()], inside[x.index()]);
            }
        }
        // Parents first: add the parent's outside and the earlier siblings.
        let mut earlier = vec![zero; value.len()];
        for &x in &self.dfs_order {
            if let Some((p, _)) = self.parent[x.index()] {
                let above = op(outside[p.index()], earlier[p.index()]);
                outside[x.index()] = op(above, outside[x.index()]);
                earlier[p.index()] = op(earlier[p.index()], inside[x.index()]);
            }
        }
        (inside, outside)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    fn tiny_tree() -> Tree {
        // v0, v1 compute leaves on router r2; r2 - r3; v4 compute leaf on r3.
        let mut b = TreeBuilder::new();
        let v0 = b.compute();
        let v1 = b.compute();
        let r2 = b.router();
        let r3 = b.router();
        let v4 = b.compute();
        b.link(r2, v0, 1.0).unwrap();
        b.link(r2, v1, 2.0).unwrap();
        b.link(r2, r3, 4.0).unwrap();
        b.link(r3, v4, 8.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_and_validates() {
        let t = tiny_tree();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.num_compute(), 3);
        assert!(t.is_symmetric());
        assert!(t.compute_nodes_are_leaves());
        // Total: a router and an id the tree lacks are both "not compute".
        assert!(t.is_compute(NodeId(4)) && !t.is_compute(NodeId(2)));
        assert!(!t.is_compute(NodeId(5)) && !t.is_compute(NodeId(u32::MAX)));
    }

    #[test]
    fn scale_bandwidth_reweights_and_moves_the_fingerprint() {
        let mut t = tiny_tree();
        let fp0 = t.fingerprint();
        assert_eq!(fp0, tiny_tree().fingerprint(), "fingerprint is canonical");

        let e = EdgeId(2); // the r2 - r3 trunk, weight 4.0
        t.scale_bandwidth(e, 4.0).unwrap();
        assert_eq!(t.sym_bandwidth(e).get(), 1.0);
        assert_ne!(t.fingerprint(), fp0, "degradation must invalidate caches");
        // Structural caches are untouched by re-weighting.
        assert!(t.compute_nodes_are_leaves());
        assert_eq!(t.num_edges(), 4);

        // Restoring the link restores the exact fingerprint.
        t.scale_bandwidth(e, 0.25).unwrap();
        assert_eq!(t.fingerprint(), fp0);

        assert_eq!(
            t.scale_bandwidth(EdgeId(99), 2.0),
            Err(TopologyError::UnknownEdge(99))
        );
        assert_eq!(
            t.scale_bandwidth(e, 0.0),
            Err(TopologyError::InvalidBandwidth(0.0))
        );
        assert_eq!(
            t.scale_bandwidth(e, f64::INFINITY),
            Err(TopologyError::InvalidBandwidth(f64::INFINITY))
        );
        assert_eq!(t.fingerprint(), fp0, "failed mutations change nothing");
    }

    #[test]
    fn rejects_cycle() {
        let mut b = TreeBuilder::new();
        let a = b.compute();
        let c = b.compute();
        let d = b.router();
        b.link(a, c, 1.0).unwrap();
        b.link(c, d, 1.0).unwrap();
        b.link(d, a, 1.0).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_disconnected() {
        let kinds = vec![NodeKind::Compute, NodeKind::Compute, NodeKind::Compute];
        // 3 nodes need exactly 2 edges; a doubled edge is not a tree.
        let edges = vec![(0, 1, 1.0, 1.0), (0, 1, 1.0, 1.0)];
        assert!(Tree::from_parts(kinds, edges).is_err());
    }

    #[test]
    fn rejects_no_compute() {
        let mut b = TreeBuilder::new();
        let a = b.router();
        let c = b.router();
        b.link(a, c, 1.0).unwrap();
        assert_eq!(b.build().unwrap_err(), TopologyError::NoComputeNodes);
    }

    #[test]
    fn path_is_unique_route() {
        let t = tiny_tree();
        // v0 (0) → v4 (4): v0-r2, r2-r3, r3-v4.
        let p = t.path(NodeId(0), NodeId(4));
        assert_eq!(p.len(), 3);
        let (a, b) = t.dir_endpoints(p[0]);
        assert_eq!((a, b), (NodeId(0), NodeId(2)));
        let (a, b) = t.dir_endpoints(p[2]);
        assert_eq!((a, b), (NodeId(3), NodeId(4)));
        // Reverse path mirrors.
        let q = t.path(NodeId(4), NodeId(0));
        assert_eq!(q.len(), 3);
        assert_eq!(q[0].edge(), p[2].edge());
        assert!(t.path(NodeId(1), NodeId(1)).is_empty());
    }

    #[test]
    fn cut_folds_match_bruteforce() {
        let t = tiny_tree();
        let w = vec![3u64, 5, 0, 0, 7];
        let (sum_in, sum_out) = t.cut_folds(&w, 0, |a, b| a + b);
        let (max_in, max_out) = t.cut_folds(&w, 0, u64::max);
        assert_eq!((sum_in[0], sum_out[0]), (15, 0), "the root's cut is empty");
        for x in t.nodes() {
            let side = |inside: bool| {
                let (t, w) = (&t, &w);
                t.nodes()
                    .filter(move |&y| t.in_subtree0(y, x) == inside)
                    .map(move |y| w[y.index()])
            };
            assert_eq!(sum_in[x.index()], side(true).sum::<u64>(), "{x}");
            assert_eq!(sum_out[x.index()], side(false).sum::<u64>(), "{x}");
            assert_eq!(max_in[x.index()], side(true).max().unwrap_or(0), "{x}");
            assert_eq!(max_out[x.index()], side(false).max().unwrap_or(0), "{x}");
        }
    }

    #[test]
    fn left_to_right_order_visits_all_computes() {
        let t = tiny_tree();
        for root in t.nodes() {
            let ord = t.left_to_right_compute_order(root);
            assert_eq!(ord.len(), t.num_compute());
            let mut sorted = ord.clone();
            sorted.sort();
            assert_eq!(sorted, t.compute_nodes());
        }
    }

    #[test]
    fn mpc_star_is_asymmetric() {
        let t = builders::mpc_star(4);
        assert!(!t.is_symmetric());
        assert!(t.require_symmetric().is_err());
    }

    #[test]
    fn dir_edge_between_adjacent() {
        let t = tiny_tree();
        let d = t.dir_edge_between(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(t.dir_endpoints(d), (NodeId(0), NodeId(2)));
        let d = t.dir_edge_between(NodeId(2), NodeId(0)).unwrap();
        assert_eq!(t.dir_endpoints(d), (NodeId(2), NodeId(0)));
        assert!(t.dir_edge_between(NodeId(0), NodeId(4)).is_none());
    }
}
