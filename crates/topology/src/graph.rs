//! General (non-tree) network topologies — the paper's §7 future work.
//!
//! > "General topologies (e.g., grid, torus) are particularly challenging
//! > because there are multiple routing paths between two compute nodes."
//!
//! This module provides the substrate for experimenting with that setting:
//!
//! - [`Graph`] — an arbitrary connected directed-symmetric topology with
//!   per-direction bandwidths and compute/router node kinds;
//! - [`Graph::widest_path`] — maximum-bottleneck routing between any two
//!   nodes (the natural single-path routing rule when bandwidths differ);
//! - [`Graph::max_bandwidth_spanning_tree`] — extraction of a spanning
//!   [`Tree`] that keeps the widest links, so that every tree algorithm in
//!   `tamp-core` runs unchanged on a general topology (node ids are
//!   preserved, so placements transfer verbatim);
//! - [`Graph::bfs_spanning_tree`] — hop-minimal extraction, as an ablation
//!   against the bandwidth-greedy tree;
//! - [`Graph::cut_capacity`] — the total bandwidth crossing a bipartition,
//!   which turns the paper's per-edge lower bounds into valid per-*cut*
//!   lower bounds on the graph: if `D` tuples must cross a cut with total
//!   crossing capacity `W`, any algorithm pays at least `D / W`;
//! - builders for the topology families the paper names as future work
//!   (grid, torus) plus hypercubes, rings, cliques and random connected
//!   graphs.

use std::collections::{BinaryHeap, VecDeque};

use crate::bandwidth::Bandwidth;
use crate::error::TopologyError;
use crate::node::{NodeId, NodeKind};
use crate::tree::{DirEdgeId, EdgeId, Tree};

#[derive(Clone, Debug)]
struct GEdge {
    u: NodeId,
    v: NodeId,
    w_uv: Bandwidth,
    w_vu: Bandwidth,
}

/// A validated connected topology that may contain cycles.
///
/// Edge and node id conventions mirror [`Tree`]: [`EdgeId`] indexes the
/// undirected edge list, [`DirEdgeId`] selects a direction (`u→v` forward,
/// `v→u` reverse).
#[derive(Clone, Debug)]
pub struct Graph {
    kinds: Vec<NodeKind>,
    edges: Vec<GEdge>,
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    compute: Vec<NodeId>,
}

/// Incremental constructor for [`Graph`], mirroring
/// [`TreeBuilder`](crate::tree::TreeBuilder).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    kinds: Vec<NodeKind>,
    edges: Vec<(usize, usize, f64, f64)>,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a compute node.
    pub fn compute(&mut self) -> NodeId {
        self.kinds.push(NodeKind::Compute);
        NodeId::from_index(self.kinds.len() - 1)
    }

    /// Add a routing-only node.
    pub fn router(&mut self) -> NodeId {
        self.kinds.push(NodeKind::Router);
        NodeId::from_index(self.kinds.len() - 1)
    }

    /// Add `n` compute nodes.
    pub fn computes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.compute()).collect()
    }

    /// Add a symmetric link of bandwidth `w`.
    pub fn link(&mut self, u: NodeId, v: NodeId, w: f64) -> Result<(), TopologyError> {
        self.link_asym(u, v, w, w)
    }

    /// Add a link with direction-dependent bandwidths.
    pub(crate) fn link_asym(
        &mut self,
        u: NodeId,
        v: NodeId,
        w_uv: f64,
        w_vu: f64,
    ) -> Result<(), TopologyError> {
        Bandwidth::new(w_uv)?;
        Bandwidth::new(w_vu)?;
        self.edges.push((u.index(), v.index(), w_uv, w_vu));
        Ok(())
    }

    /// Validate and build.
    pub fn build(self) -> Result<Graph, TopologyError> {
        Graph::from_parts(self.kinds, self.edges)
    }
}

impl Graph {
    /// Build a graph from node kinds and edges `(u, v, w_{u→v}, w_{v→u})`.
    pub fn from_parts(
        kinds: Vec<NodeKind>,
        raw_edges: Vec<(usize, usize, f64, f64)>,
    ) -> Result<Self, TopologyError> {
        let n = kinds.len();
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
            edges.push(GEdge {
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
        // Connectivity check (BFS from node 0).
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([NodeId(0)]);
        seen[0] = true;
        let mut count = 1usize;
        while let Some(x) = queue.pop_front() {
            for &(y, _) in &adj[x.index()] {
                if !seen[y.index()] {
                    seen[y.index()] = true;
                    count += 1;
                    queue.push_back(y);
                }
            }
        }
        if count != n {
            return Err(TopologyError::Disconnected);
        }
        Ok(Graph {
            kinds,
            edges,
            adj,
            compute,
        })
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Compute nodes in id order.
    #[inline]
    pub fn compute_nodes(&self) -> &[NodeId] {
        &self.compute
    }

    /// Is `v` a compute node?
    #[inline]
    pub fn is_compute(&self, v: NodeId) -> bool {
        self.kinds[v.index()].is_compute()
    }

    /// Neighbors of `v` as `(neighbor, edge)` pairs.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[v.index()]
    }

    /// Endpoints `(u, v)` of an edge.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let ed = &self.edges[e.index()];
        (ed.u, ed.v)
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

    /// The symmetric bandwidth of an edge (`min` of the two directions).
    #[inline]
    pub fn sym_bandwidth(&self, e: EdgeId) -> Bandwidth {
        let ed = &self.edges[e.index()];
        if ed.w_uv.get() <= ed.w_vu.get() {
            ed.w_uv
        } else {
            ed.w_vu
        }
    }

    /// `true` if every edge has equal bandwidth in both directions.
    pub fn is_symmetric(&self) -> bool {
        self.edges.iter().all(|e| e.w_uv == e.w_vu)
    }

    /// The directed edge from `a` toward neighbor `b`, if the link exists.
    pub fn dir_edge_between(&self, a: NodeId, b: NodeId) -> Option<DirEdgeId> {
        self.adj[a.index()].iter().find_map(|&(nb, e)| {
            (nb == b).then(|| {
                let reverse = self.edges[e.index()].u != a;
                DirEdgeId::new(e, reverse)
            })
        })
    }

    /// Maximum-bottleneck ("widest") path from `a` to `b`, tie-broken by
    /// hop count. Returns the directed edges along the path, or an empty
    /// path when `a == b`.
    pub fn widest_path(&self, a: NodeId, b: NodeId) -> Vec<DirEdgeId> {
        if a == b {
            return Vec::new();
        }
        let n = self.num_nodes();
        // (bottleneck, -hops) priority; f64 bottleneck via ordered bits.
        #[derive(PartialEq)]
        struct Item {
            bottleneck: f64,
            hops: usize,
            node: NodeId,
        }
        impl Eq for Item {}
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Bandwidths are validated positive and finite, so the
                // F1 total order agrees with partial_cmp here — but it
                // can never panic or silently equate on a stray NaN.
                self.bottleneck
                    .total_cmp(&other.bottleneck)
                    .then_with(|| other.hops.cmp(&self.hops))
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut best: Vec<(f64, usize)> = vec![(0.0, usize::MAX); n];
        let mut back: Vec<Option<DirEdgeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        best[a.index()] = (f64::INFINITY, 0);
        heap.push(Item {
            bottleneck: f64::INFINITY,
            hops: 0,
            node: a,
        });
        while let Some(Item {
            bottleneck,
            hops,
            node,
        }) = heap.pop()
        {
            if (bottleneck, hops) != (best[node.index()].0, best[node.index()].1) {
                continue;
            }
            if node == b {
                break;
            }
            for &(nb, e) in &self.adj[node.index()] {
                let reverse = self.edges[e.index()].u != node;
                let d = DirEdgeId::new(e, reverse);
                let w = self.bandwidth(d).get();
                let cand = (bottleneck.min(w), hops + 1);
                let cur = best[nb.index()];
                if cand.0 > cur.0 || (cand.0 == cur.0 && cand.1 < cur.1) {
                    best[nb.index()] = cand;
                    back[nb.index()] = Some(d);
                    heap.push(Item {
                        bottleneck: cand.0,
                        hops: cand.1,
                        node: nb,
                    });
                }
            }
        }
        // Reconstruct b ← a.
        let mut path = Vec::new();
        let mut cur = b;
        while cur != a {
            let d = back[cur.index()].expect("graph is connected");
            path.push(d);
            let (from, _) = self.dir_endpoints(d);
            cur = from;
        }
        path.reverse();
        path
    }

    /// Endpoints `(from, to)` of a directed edge.
    #[inline]
    pub fn dir_endpoints(&self, d: DirEdgeId) -> (NodeId, NodeId) {
        let ed = &self.edges[d.edge().index()];
        if d.is_reverse() {
            (ed.v, ed.u)
        } else {
            (ed.u, ed.v)
        }
    }

    /// Extract the spanning tree that greedily keeps the widest links
    /// (Kruskal on descending symmetric bandwidth; deterministic
    /// tie-break by edge id). Node ids — and therefore placements — carry
    /// over unchanged.
    ///
    /// The resulting [`Tree`] preserves each chosen edge's per-direction
    /// bandwidths. Any algorithm cost measured on the tree is achievable
    /// on the graph (the tree's edges are graph edges), so tree-protocol
    /// costs are *upper* bounds for the graph while
    /// [`cut_capacity`](Graph::cut_capacity)-based bounds are *lower*
    /// bounds — the gap is the price of ignoring the extra links.
    pub fn max_bandwidth_spanning_tree(&self) -> Result<Tree, TopologyError> {
        let mut order: Vec<usize> = (0..self.edges.len()).collect();
        order.sort_by(|&i, &j| {
            let wi = self.sym_bandwidth(EdgeId(i as u32)).get();
            let wj = self.sym_bandwidth(EdgeId(j as u32)).get();
            wj.total_cmp(&wi).then(i.cmp(&j))
        });
        self.spanning_tree_from_edge_order(&order)
    }

    /// Extract a hop-minimal spanning tree by BFS from `root`. An ablation
    /// counterpart to [`Graph::max_bandwidth_spanning_tree`].
    pub fn bfs_spanning_tree(&self, root: NodeId) -> Result<Tree, TopologyError> {
        let n = self.num_nodes();
        let mut chosen: Vec<(usize, usize, f64, f64)> = Vec::with_capacity(n - 1);
        let mut seen = vec![false; n];
        seen[root.index()] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(x) = queue.pop_front() {
            for &(y, e) in &self.adj[x.index()] {
                if !seen[y.index()] {
                    seen[y.index()] = true;
                    let ed = &self.edges[e.index()];
                    chosen.push((ed.u.index(), ed.v.index(), ed.w_uv.get(), ed.w_vu.get()));
                    queue.push_back(y);
                }
            }
        }
        Tree::from_parts(self.kinds.clone(), chosen)
    }

    fn spanning_tree_from_edge_order(&self, order: &[usize]) -> Result<Tree, TopologyError> {
        let n = self.num_nodes();
        let mut dsu = Dsu::new(n);
        let mut chosen: Vec<(usize, usize, f64, f64)> = Vec::with_capacity(n - 1);
        for &i in order {
            let ed = &self.edges[i];
            if dsu.union(ed.u.index(), ed.v.index()) {
                chosen.push((ed.u.index(), ed.v.index(), ed.w_uv.get(), ed.w_vu.get()));
                if chosen.len() == n - 1 {
                    break;
                }
            }
        }
        Tree::from_parts(self.kinds.clone(), chosen)
    }

    /// Total bandwidth of all directed edges crossing the bipartition
    /// `side` (both directions). `side[v] == true` marks one side.
    ///
    /// If `D` tuples must cross the cut in total, any algorithm's cost is
    /// at least `D / cut_capacity`: each crossing tuple uses some crossing
    /// edge, and a round in which `y_d` tuples traverse directed edge `d`
    /// costs `max_d y_d / w_d ≥ (Σ_d y_d) / (Σ_d w_d)`.
    ///
    /// Returns `f64::INFINITY` if any crossing edge has infinite
    /// bandwidth.
    pub fn cut_capacity(&self, side: &[bool]) -> f64 {
        assert_eq!(side.len(), self.num_nodes());
        let mut total = 0.0f64;
        for ed in &self.edges {
            if side[ed.u.index()] != side[ed.v.index()] {
                if ed.w_uv.is_infinite() || ed.w_vu.is_infinite() {
                    return f64::INFINITY;
                }
                total += ed.w_uv.get() + ed.w_vu.get();
            }
        }
        total
    }

    /// The bipartition a spanning-tree edge induces on this graph's nodes:
    /// `side[v] == true` iff `v` lies on `tree.deeper_endpoint(e)`'s side.
    ///
    /// The `tree` must span this graph's node set (same ids), e.g. one
    /// produced by [`Graph::max_bandwidth_spanning_tree`].
    pub fn tree_cut_side(&self, tree: &Tree, e: EdgeId) -> Vec<bool> {
        assert_eq!(tree.num_nodes(), self.num_nodes());
        let deep = tree.deeper_endpoint(e);
        (0..self.num_nodes())
            .map(|i| tree.cut_side_of(e, NodeId(i as u32)) == tree.cut_side_of(e, deep))
            .collect()
    }
}

/// Disjoint-set union with path halving and union by size.
struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }
}

/// Builders for the general-topology families of §7.
pub mod builders {
    use super::*;

    /// `rows × cols` grid of compute nodes, 4-neighbor links of
    /// bandwidth `w`.
    pub fn grid(rows: usize, cols: usize, w: f64) -> Graph {
        assert!(rows >= 1 && cols >= 1 && rows * cols >= 1);
        let mut b = GraphBuilder::new();
        let nodes = b.computes(rows * cols);
        let id = |r: usize, c: usize| nodes[r * cols + c];
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    b.link(id(r, c), id(r, c + 1), w).expect("valid bw");
                }
                if r + 1 < rows {
                    b.link(id(r, c), id(r + 1, c), w).expect("valid bw");
                }
            }
        }
        b.build().expect("grid is connected")
    }

    /// `rows × cols` torus (grid with wraparound links). Requires
    /// `rows, cols ≥ 3` so no duplicate edges arise.
    pub fn torus(rows: usize, cols: usize, w: f64) -> Graph {
        assert!(rows >= 3 && cols >= 3);
        let mut b = GraphBuilder::new();
        let nodes = b.computes(rows * cols);
        let id = |r: usize, c: usize| nodes[r * cols + c];
        for r in 0..rows {
            for c in 0..cols {
                b.link(id(r, c), id(r, (c + 1) % cols), w)
                    .expect("valid bw");
                b.link(id(r, c), id((r + 1) % rows, c), w)
                    .expect("valid bw");
            }
        }
        b.build().expect("torus is connected")
    }

    /// `d`-dimensional hypercube of `2^d` compute nodes.
    pub fn hypercube(d: u32, w: f64) -> Graph {
        assert!((1..=16).contains(&d));
        let n = 1usize << d;
        let mut b = GraphBuilder::new();
        let nodes = b.computes(n);
        for i in 0..n {
            for bit in 0..d {
                let j = i ^ (1 << bit);
                if i < j {
                    b.link(nodes[i], nodes[j], w).expect("valid bw");
                }
            }
        }
        b.build().expect("hypercube is connected")
    }

    /// Ring of `n ≥ 3` compute nodes.
    pub fn ring(n: usize, w: f64) -> Graph {
        assert!(n >= 3);
        let mut b = GraphBuilder::new();
        let nodes = b.computes(n);
        for i in 0..n {
            b.link(nodes[i], nodes[(i + 1) % n], w).expect("valid bw");
        }
        b.build().expect("ring is connected")
    }

    /// Complete graph on `n ≥ 2` compute nodes.
    pub fn complete(n: usize, w: f64) -> Graph {
        assert!(n >= 2);
        let mut b = GraphBuilder::new();
        let nodes = b.computes(n);
        for i in 0..n {
            for j in i + 1..n {
                b.link(nodes[i], nodes[j], w).expect("valid bw");
            }
        }
        b.build().expect("complete graph is connected")
    }

    /// A random connected graph: a random spanning tree plus `extra`
    /// random chords, bandwidths uniform in `[bw_lo, bw_hi]`.
    pub fn random_connected(
        n_compute: usize,
        extra: usize,
        bw_lo: f64,
        bw_hi: f64,
        seed: u64,
    ) -> Graph {
        assert!(n_compute >= 2);
        assert!(bw_lo > 0.0 && bw_hi >= bw_lo);
        let mut b = GraphBuilder::new();
        let nodes = b.computes(n_compute);
        // Splitmix-style deterministic stream.
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let bw = {
            let span = bw_hi - bw_lo;
            move |r: u64| bw_lo + span * ((r % 1_000_000) as f64 / 1_000_000.0)
        };
        // Random tree: attach node i to a uniform earlier node.
        let mut present: Vec<(usize, usize)> = Vec::new();
        for i in 1..n_compute {
            let p = (next() % i as u64) as usize;
            let w = bw(next());
            b.link(nodes[p], nodes[i], w).expect("valid bw");
            present.push((p.min(i), p.max(i)));
        }
        // Extra chords, skipping duplicates and self loops.
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < extra && attempts < extra * 20 + 50 {
            attempts += 1;
            let a = (next() % n_compute as u64) as usize;
            let c = (next() % n_compute as u64) as usize;
            if a == c {
                continue;
            }
            let key = (a.min(c), a.max(c));
            if present.contains(&key) {
                continue;
            }
            present.push(key);
            let w = bw(next());
            b.link(nodes[key.0], nodes[key.1], w).expect("valid bw");
            added += 1;
        }
        b.build().expect("random graph is connected")
    }
}

#[cfg(test)]
mod tests {
    use super::builders::*;
    use super::*;

    #[test]
    fn grid_shape() {
        let g = grid(3, 4, 1.0);
        assert_eq!(g.num_nodes(), 12);
        // 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17.
        assert_eq!(g.num_edges(), 17);
        assert_eq!(g.compute_nodes().len(), 12);
        assert!(g.is_symmetric());
    }

    #[test]
    fn torus_shape() {
        let g = torus(3, 3, 2.0);
        assert_eq!(g.num_nodes(), 9);
        assert_eq!(g.num_edges(), 18); // 2 per node
        for v in 0..9 {
            assert_eq!(g.neighbors(NodeId(v)).len(), 4);
        }
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(3, 1.0);
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.num_edges(), 12); // d * 2^(d-1)
        for v in 0..8 {
            assert_eq!(g.neighbors(NodeId(v)).len(), 3);
        }
    }

    #[test]
    fn ring_and_complete_shapes() {
        let r = ring(5, 1.0);
        assert_eq!(r.num_edges(), 5);
        let k = complete(5, 1.0);
        assert_eq!(k.num_edges(), 10);
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = GraphBuilder::new();
        let a = b.compute();
        let c = b.compute();
        let _d = b.compute();
        b.link(a, c, 1.0).unwrap();
        assert_eq!(b.build().unwrap_err(), TopologyError::Disconnected);
    }

    #[test]
    fn rejects_self_loop_and_bad_bandwidth() {
        let mut b = GraphBuilder::new();
        let a = b.compute();
        assert!(matches!(
            b.link(a, a, -1.0),
            Err(TopologyError::InvalidBandwidth(_))
        ));
        b.link_asym(a, a, 1.0, 1.0).unwrap();
        assert_eq!(b.build().unwrap_err(), TopologyError::SelfLoop(0));
    }

    #[test]
    fn rejects_no_compute() {
        let mut b = GraphBuilder::new();
        let a = b.router();
        let c = b.router();
        b.link(a, c, 1.0).unwrap();
        assert_eq!(b.build().unwrap_err(), TopologyError::NoComputeNodes);
    }

    #[test]
    fn widest_path_prefers_fat_links() {
        // Triangle: direct a–b link is thin (1), the detour via c is wide (10).
        let mut b = GraphBuilder::new();
        let n = b.computes(3);
        b.link(n[0], n[1], 1.0).unwrap();
        b.link(n[0], n[2], 10.0).unwrap();
        b.link(n[2], n[1], 10.0).unwrap();
        let g = b.build().unwrap();
        let path = g.widest_path(n[0], n[1]);
        assert_eq!(path.len(), 2);
        let (from, mid) = g.dir_endpoints(path[0]);
        assert_eq!(from, n[0]);
        assert_eq!(mid, n[2]);
    }

    #[test]
    fn widest_path_ties_break_by_hops() {
        // Square with equal bandwidths: both routes have bottleneck 1;
        // prefer the 2-hop one over any longer alternative.
        let g = ring(4, 1.0);
        let path = g.widest_path(NodeId(0), NodeId(2));
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn widest_path_trivial_cases() {
        let g = grid(2, 2, 1.0);
        assert!(g.widest_path(NodeId(0), NodeId(0)).is_empty());
        let p = g.widest_path(NodeId(0), NodeId(1));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn mbst_keeps_widest_links() {
        // Square where one side is thin: the MBST drops the thin edge.
        let mut b = GraphBuilder::new();
        let n = b.computes(4);
        b.link(n[0], n[1], 0.1).unwrap(); // thin
        b.link(n[1], n[2], 5.0).unwrap();
        b.link(n[2], n[3], 5.0).unwrap();
        b.link(n[3], n[0], 5.0).unwrap();
        let g = b.build().unwrap();
        let t = g.max_bandwidth_spanning_tree().unwrap();
        assert_eq!(t.num_edges(), 3);
        for e in t.edges() {
            assert_eq!(t.sym_bandwidth(e).get(), 5.0);
        }
    }

    #[test]
    fn bfs_tree_is_hop_minimal() {
        let g = grid(3, 3, 1.0);
        let t = g.bfs_spanning_tree(NodeId(4)).unwrap(); // center
        assert_eq!(t.num_edges(), 8);
        // Every node is within 2 hops of the center in the BFS tree.
        for v in 0..9 {
            assert!(t.path(NodeId(4), NodeId(v)).len() <= 2);
        }
    }

    #[test]
    fn spanning_trees_preserve_node_ids_and_kinds() {
        let mut b = GraphBuilder::new();
        let c = b.computes(3);
        let r = b.router();
        b.link(c[0], r, 1.0).unwrap();
        b.link(c[1], r, 2.0).unwrap();
        b.link(c[2], r, 3.0).unwrap();
        b.link(c[0], c[1], 0.5).unwrap();
        let g = b.build().unwrap();
        let t = g.max_bandwidth_spanning_tree().unwrap();
        assert_eq!(t.num_nodes(), 4);
        assert!(!t.is_compute(r));
        assert!(t.is_compute(c[0]));
    }

    #[test]
    fn cut_capacity_counts_both_directions() {
        let g = ring(4, 2.0);
        // Separate {0,1} from {2,3}: two crossing edges, 2 directions each.
        let side = vec![true, true, false, false];
        assert_eq!(g.cut_capacity(&side), 8.0);
    }

    #[test]
    fn cut_capacity_infinite_link() {
        let mut b = GraphBuilder::new();
        let n = b.computes(2);
        b.link(n[0], n[1], f64::INFINITY).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.cut_capacity(&[true, false]), f64::INFINITY);
    }

    #[test]
    fn tree_cut_sides_partition_nodes() {
        let g = grid(2, 3, 1.0);
        let t = g.max_bandwidth_spanning_tree().unwrap();
        for e in t.edges() {
            let side = g.tree_cut_side(&t, e);
            let ones = side.iter().filter(|&&s| s).count();
            assert!(ones >= 1 && ones < side.len());
            // Cut capacity on the graph is at least the tree edge's own.
            assert!(g.cut_capacity(&side) >= 2.0 * t.sym_bandwidth(e).get() - 1e-12);
        }
    }

    #[test]
    fn random_connected_is_reproducible() {
        let g1 = random_connected(10, 5, 0.5, 2.0, 42);
        let g2 = random_connected(10, 5, 0.5, 2.0, 42);
        assert_eq!(g1.num_edges(), g2.num_edges());
        let g3 = random_connected(10, 5, 0.5, 2.0, 43);
        assert_eq!(g3.num_nodes(), 10);
        // Tree edges (9) plus up to 5 chords.
        assert!(g1.num_edges() >= 9 && g1.num_edges() <= 14);
    }

    #[test]
    fn widest_path_bottleneck_matches_mbst_path() {
        // Classic MBST property: the max-bandwidth spanning tree preserves
        // the widest-path bottleneck between every pair.
        let g = random_connected(8, 6, 0.5, 4.0, 7);
        let t = g.max_bandwidth_spanning_tree().unwrap();
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                let (a, b) = (NodeId(a), NodeId(b));
                let gp = g.widest_path(a, b);
                let g_bottleneck = gp
                    .iter()
                    .map(|&d| g.bandwidth(d).get())
                    .fold(f64::INFINITY, f64::min);
                let tp = t.path(a, b);
                let t_bottleneck = tp
                    .iter()
                    .map(|&d| t.bandwidth(d).get())
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    (g_bottleneck - t_bottleneck).abs() < 1e-12,
                    "pair ({a:?}, {b:?}): graph {g_bottleneck} vs tree {t_bottleneck}"
                );
            }
        }
    }
}
