//! Seeded graph generators and vertex partitions for iterative
//! analytics.
//!
//! The iterative workload family (PageRank, BFS, connected components —
//! `tamp_query::iterative`) consumes *edge relations*: a graph is a list
//! of directed arcs `(src, dst)` over vertices `0..n`, and every vertex
//! is owned by one compute node. This module generates both halves
//! reproducibly:
//!
//! - [`GraphSpec`] — seeded generators for the three canonical shapes:
//!   uniform random (no structure), power-law / skewed (a few hubs carry
//!   most of the degree mass, sampled from the same Zipf family as
//!   [`PlacementStrategy::Zipf`]), and grid-like (strong id-locality,
//!   the torus-style workload of the topology-comparison literature).
//! - [`VertexPartition`] — where vertices live: the topology-agnostic
//!   uniform [`Hash`](VertexPartition::Hash) baseline, or
//!   [`Blocked`](VertexPartition::Blocked) contiguous blocks balanced by
//!   *degree mass* against a [`PlacementStrategy`]'s per-node weights —
//!   the degree-aware, topology-aware placement (heavy vertices behind
//!   fat links, adjacent ids co-located).
//!
//! Everything is deterministic in `(spec, strategy, seed)`: the same
//! triple always yields the same edge list and the same owner vector
//! (property-tested below), which is what makes iterative schedules
//! replayable bit-for-bit across engines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tamp_topology::{NodeId, Tree};

use crate::placement::PlacementStrategy;

/// A directed graph over vertices `0..vertices()`, stored as arcs. The
/// generators emit symmetric arc pairs (an undirected edge contributes
/// `u→v` and `v→u`), so out-degree equals total degree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    vertices: usize,
    arcs: Vec<(u64, u64)>,
}

impl Graph {
    /// Build a graph from explicit arcs (deduplicated, sorted).
    pub fn from_arcs(vertices: usize, mut arcs: Vec<(u64, u64)>) -> Self {
        arcs.sort_unstable();
        arcs.dedup();
        Graph { vertices, arcs }
    }

    /// Number of vertices (`0..n` are all valid ids).
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// The arcs, sorted by `(src, dst)` and deduplicated.
    pub fn arcs(&self) -> &[(u64, u64)] {
        &self.arcs
    }

    /// Number of directed arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Out-degree per vertex (equals total degree for the symmetric
    /// generators).
    pub fn degrees(&self) -> Vec<u64> {
        let mut deg = vec![0u64; self.vertices];
        for &(u, _) in &self.arcs {
            deg[u as usize] += 1;
        }
        deg
    }
}

/// Seeded specification of a graph workload. `generate(seed)` is
/// deterministic in `(self, seed)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphSpec {
    /// `edges` undirected edges with independently uniform endpoints
    /// (self-loops redrawn, duplicates dropped): the no-structure
    /// baseline.
    Uniform {
        /// Number of vertices.
        vertices: usize,
        /// Undirected edges to sample (distinct edges kept).
        edges: usize,
    },
    /// Skewed: both endpoints Zipf-distributed over vertex ids (vertex
    /// `i` drawn with mass `∝ 1/(i+1)^alpha`), so low ids become hubs —
    /// the same skew family as [`PlacementStrategy::Zipf`]. With
    /// `alpha ≳ 0.8` vertex 0 is adjacent to most of the graph, the
    /// shape frontier-mode BFS and the skewed bench scenarios rely on.
    PowerLaw {
        /// Number of vertices.
        vertices: usize,
        /// Undirected edges to sample (distinct edges kept).
        edges: usize,
        /// Zipf skew (0 = uniform, 1+ = heavily skewed).
        alpha: f64,
    },
    /// A `rows × cols` grid: vertex `r·cols + c` connects to its right
    /// and down neighbors. Maximal id-locality — the torus-style
    /// workload (no randomness; the seed is ignored).
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
}

impl GraphSpec {
    /// Uniform random graph.
    pub fn uniform(vertices: usize, edges: usize) -> Self {
        GraphSpec::Uniform { vertices, edges }
    }

    /// Power-law / skewed graph.
    pub fn power_law(vertices: usize, edges: usize, alpha: f64) -> Self {
        GraphSpec::PowerLaw {
            vertices,
            edges,
            alpha,
        }
    }

    /// Grid graph.
    pub fn grid(rows: usize, cols: usize) -> Self {
        GraphSpec::Grid { rows, cols }
    }

    /// Number of vertices the spec describes.
    pub fn vertices(&self) -> usize {
        match *self {
            GraphSpec::Uniform { vertices, .. } | GraphSpec::PowerLaw { vertices, .. } => vertices,
            GraphSpec::Grid { rows, cols } => rows * cols,
        }
    }

    /// Generate the graph, deterministically in `(self, seed)`.
    pub fn generate(&self, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6EA7_6EA7);
        match *self {
            GraphSpec::Uniform { vertices, edges } => {
                let n = vertices.max(2);
                let mut arcs = Vec::with_capacity(edges * 2);
                for _ in 0..edges {
                    let (u, v) = loop {
                        let u = rng.random_range(0..n as u64);
                        let v = rng.random_range(0..n as u64);
                        if u != v {
                            break (u, v);
                        }
                    };
                    arcs.push((u, v));
                    arcs.push((v, u));
                }
                Graph::from_arcs(vertices.max(2), arcs)
            }
            GraphSpec::PowerLaw {
                vertices,
                edges,
                alpha,
            } => {
                let n = vertices.max(2);
                // Cumulative Zipf mass over vertex ids, sampled by
                // inversion (the placement scatter's idiom).
                let cum: Vec<f64> = (0..n)
                    .scan(0.0, |acc, i| {
                        *acc += 1.0 / ((i + 1) as f64).powf(alpha);
                        Some(*acc)
                    })
                    .collect();
                let total = *cum.last().unwrap();
                let pick = |rng: &mut StdRng| {
                    let t = rng.random::<f64>() * total;
                    cum.partition_point(|&c| c < t).min(n - 1) as u64
                };
                let mut arcs = Vec::with_capacity(edges * 2);
                for _ in 0..edges {
                    let (u, v) = loop {
                        let u = pick(&mut rng);
                        let v = pick(&mut rng);
                        if u != v {
                            break (u, v);
                        }
                    };
                    arcs.push((u, v));
                    arcs.push((v, u));
                }
                Graph::from_arcs(n, arcs)
            }
            GraphSpec::Grid { rows, cols } => {
                let at = |r: usize, c: usize| (r * cols + c) as u64;
                let mut arcs = Vec::new();
                for r in 0..rows {
                    for c in 0..cols {
                        if c + 1 < cols {
                            arcs.push((at(r, c), at(r, c + 1)));
                            arcs.push((at(r, c + 1), at(r, c)));
                        }
                        if r + 1 < rows {
                            arcs.push((at(r, c), at(r + 1, c)));
                            arcs.push((at(r + 1, c), at(r, c)));
                        }
                    }
                }
                Graph::from_arcs(rows * cols, arcs)
            }
        }
    }
}

/// Where each vertex lives: the placement half of an iterative workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VertexPartition {
    /// Independently uniform over compute nodes — the topology-agnostic
    /// baseline (the MPC hash partition): no locality, no degree
    /// awareness.
    Hash,
    /// Contiguous vertex blocks, one per compute node, sized so each
    /// node's block carries a share of the total *degree mass*
    /// proportional to the strategy's node weights (the shares
    /// [`PlacementStrategy::place`] gives each node). Degree-aware
    /// (a hub-heavy block stays small) and topology-aware (with
    /// [`PlacementStrategy::ProportionalToBandwidth`], heavy blocks sit
    /// behind fat links); contiguity preserves the id-locality of
    /// grid-like graphs. Deterministic — the seed only feeds
    /// [`Hash`](Self::Hash).
    Blocked(PlacementStrategy),
}

impl VertexPartition {
    /// The owner of every vertex, aligned with vertex ids.
    /// Deterministic in `(self, graph, seed)`.
    pub fn owners(&self, tree: &Tree, graph: &Graph, seed: u64) -> Vec<NodeId> {
        let vc = tree.compute_nodes();
        let n = graph.vertices();
        match self {
            VertexPartition::Hash => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x17E8_17E8);
                (0..n).map(|_| vc[rng.random_range(0..vc.len())]).collect()
            }
            VertexPartition::Blocked(strategy) => {
                let mut weights = strategy.node_weights(tree);
                if weights.iter().sum::<f64>() <= 0.0 {
                    weights = vec![1.0; vc.len()];
                }
                let total_w: f64 = weights.iter().sum();
                // Each vertex weighs deg + 1 (isolated vertices still
                // occupy a slot), so block boundaries balance traffic
                // mass, not raw vertex counts.
                let mass: Vec<f64> = graph.degrees().iter().map(|&d| d as f64 + 1.0).collect();
                let total_mass: f64 = mass.iter().sum();
                let mut owners = Vec::with_capacity(n);
                let mut node = 0usize;
                let mut acc = 0.0;
                let mut cum_w = weights[0];
                for m in mass {
                    owners.push(vc[node]);
                    acc += m;
                    while node + 1 < vc.len() && acc >= total_mass * cum_w / total_w {
                        node += 1;
                        cum_w += weights[node];
                    }
                }
                owners
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tamp_topology::builders;

    #[test]
    fn grid_has_exact_arc_count_and_locality() {
        let g = GraphSpec::grid(4, 5).generate(0);
        assert_eq!(g.vertices(), 20);
        // 4·4 horizontal + 3·5 vertical undirected edges, two arcs each.
        assert_eq!(g.num_arcs(), 2 * (4 * 4 + 3 * 5));
        for &(u, v) in g.arcs() {
            let d = u.abs_diff(v);
            assert!(d == 1 || d == 5, "grid arcs join neighbors: {u}→{v}");
        }
    }

    #[test]
    fn power_law_concentrates_degree_on_low_ids() {
        let g = GraphSpec::power_law(200, 2000, 1.0).generate(3);
        let deg = g.degrees();
        let hub = deg[0];
        let tail: u64 = deg[150..].iter().sum::<u64>() / 50;
        assert!(hub > 8 * tail.max(1), "hub {hub} vs tail mean {tail}");
    }

    #[test]
    fn uniform_spreads_degree() {
        let g = GraphSpec::uniform(100, 1000).generate(1);
        let deg = g.degrees();
        assert!(
            deg.iter().all(|&d| d > 0),
            "dense uniform leaves no isolated vertex"
        );
        let max = *deg.iter().max().unwrap();
        let min = *deg.iter().min().unwrap();
        assert!(max < 8 * min.max(1), "uniform degrees stay comparable");
    }

    #[test]
    fn blocked_partition_is_contiguous_and_degree_balanced() {
        let t = builders::star(4, 1.0);
        let g = GraphSpec::power_law(200, 1500, 0.9).generate(5);
        let owners = VertexPartition::Blocked(PlacementStrategy::Uniform).owners(&t, &g, 5);
        assert_eq!(owners.len(), 200);
        // Contiguous: owner ids are non-decreasing in vertex order.
        for w in owners.windows(2) {
            assert!(w[0].index() <= w[1].index(), "blocks are contiguous");
        }
        // Degree-balanced: every node's block carries a comparable
        // degree mass, so the hub block is much smaller in vertices.
        let deg = g.degrees();
        let mut mass = vec![0.0; t.num_nodes()];
        let mut count = vec![0usize; t.num_nodes()];
        for (v, &o) in owners.iter().enumerate() {
            mass[o.index()] += deg[v] as f64 + 1.0;
            count[o.index()] += 1;
        }
        let masses: Vec<f64> = t.compute_nodes().iter().map(|v| mass[v.index()]).collect();
        let hi = masses.iter().cloned().fold(0.0, f64::max);
        let lo = masses.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(hi < 3.0 * lo, "degree mass balanced: {masses:?}");
        let hub_block = count[owners[0].index()];
        let tail_block = count[owners[199].index()];
        assert!(
            hub_block < tail_block,
            "hub block holds fewer vertices ({hub_block} vs {tail_block})"
        );
    }

    #[test]
    fn blocked_follows_bandwidth_weights() {
        // One fat leaf, three thin: the proportional partition parks
        // most of the degree mass behind the fat link.
        let t = builders::heterogeneous_star(&[9.0, 1.0, 1.0, 1.0]);
        let g = GraphSpec::uniform(120, 600).generate(2);
        let owners =
            VertexPartition::Blocked(PlacementStrategy::ProportionalToBandwidth).owners(&t, &g, 2);
        let fat = t.compute_nodes()[0];
        let on_fat = owners.iter().filter(|&&o| o == fat).count();
        assert!(on_fat > 60, "fat leaf owns most vertices, got {on_fat}");
    }

    #[test]
    fn hash_partition_spreads() {
        let t = builders::star(4, 1.0);
        let g = GraphSpec::uniform(400, 800).generate(9);
        let owners = VertexPartition::Hash.owners(&t, &g, 9);
        for &v in t.compute_nodes() {
            let c = owners.iter().filter(|&&o| o == v).count();
            assert!(c > 50, "node {v} got {c} vertices");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The satellite determinism property: `(GraphSpec,
        /// PlacementStrategy, seed)` always yields identical edge lists
        /// and placements across runs — the precondition for bit-identical
        /// iterative schedules.
        #[test]
        fn generation_and_partition_are_deterministic(
            seed in 0u64..1_000,
            shape in 0usize..3,
            skew in 0usize..3,
            n in 20usize..120,
            m in 30usize..400,
        ) {
            let spec = match shape {
                0 => GraphSpec::uniform(n, m),
                1 => GraphSpec::power_law(n, m, 0.4 + 0.3 * skew as f64),
                _ => GraphSpec::grid(n / 5 + 1, 5),
            };
            let strategy = match skew {
                0 => PlacementStrategy::Uniform,
                1 => PlacementStrategy::Zipf { alpha: 1.0 },
                _ => PlacementStrategy::ProportionalToBandwidth,
            };
            let tree = builders::rack_tree(&[(3, 2.0, 4.0), (2, 1.0, 2.0)], 1.0);
            let a = spec.generate(seed);
            let b = spec.generate(seed);
            prop_assert_eq!(a.arcs(), b.arcs());
            prop_assert_eq!(a.vertices(), b.vertices());
            for part in [VertexPartition::Hash, VertexPartition::Blocked(strategy)] {
                let oa = part.owners(&tree, &a, seed);
                let ob = part.owners(&tree, &b, seed);
                prop_assert_eq!(&oa, &ob);
                prop_assert_eq!(oa.len(), a.vertices());
                for &o in &oa {
                    prop_assert!(tree.is_compute(o));
                }
            }
        }
    }
}
