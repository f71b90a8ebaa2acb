//! X-ITER — iterative graph analytics: topology-aware vs agnostic
//! vertex placement, and frontier-mode exchange shrinkage.
//!
//! The iterative fixpoint driver (`tamp_query::iterative`) prices every
//! iteration on the §2 functional, which makes the placement question
//! quantitative: the same PageRank on the same graph costs whatever the
//! bottleneck link carries per iteration. Two scenario axes, following
//! the torus/grid topology-comparison methodology:
//!
//! 1. **Skewed fat-tree** — a power-law (Zipf-endpoint) graph on a
//!    bandwidth-heterogeneous fat-tree (one fat rack, one thin rack).
//!    The topology-aware variant places contiguous degree-balanced
//!    blocks proportional to leaf bandwidth
//!    ([`VertexPartition::Blocked`]), parking the hub cluster's degree
//!    mass behind the fat links; the agnostic variant hashes vertices
//!    uniformly ([`VertexPartition::Hash`]), so the thin leaf links
//!    carry a full share of the hub's traffic at an eighth of the
//!    bandwidth and dominate the §2 max. Release gate: aware metered
//!    cost ≤ 0.7× agnostic.
//! 2. **Torus-embedded grid** — a grid graph on a caterpillar tree
//!    (the grid-like embedding the repository supports today). Blocked
//!    placement preserves the grid's id-locality, so only block-boundary
//!    arcs ship.
//!
//! Plus the frontier axis: BFS from the power-law hub in
//! [`IterMode::FrontierDelta`](tamp_query::iterative::IterMode::FrontierDelta) must show **strictly decreasing**
//! per-iteration exchange volume — the level sets shrink, and each
//! iteration's estimate is re-priced from the previous iteration's
//! metered cardinalities. Both gates run on the simulator backend;
//! backend parity is covered by `tests/plan_parity.rs`.

use tamp_query::iterative::{IterativeJob, IterativeOutcome, IterativeSpec};
use tamp_topology::{builders, Tree};
use tamp_workloads::{GraphSpec, PlacementStrategy, VertexPartition};

use crate::table::{fnum, Table};

/// Seed for every graph and partition in the suite.
const SEED: u64 = 11;
/// PageRank damping (0.5 keeps fixpoints short: residual halves per
/// iteration).
const DAMPING: f64 = 0.5;
/// PageRank budget/tolerance.
const SPEC: IterativeSpec = IterativeSpec {
    max_iters: 40,
    tolerance: 1e-3,
    mode: tamp_query::iterative::IterMode::Jacobi,
};

/// One placement comparison on one scenario.
#[derive(Debug)]
struct IterMeasurement {
    /// Scenario label.
    pub(crate) scenario: &'static str,
    /// Iterations to convergence (identical for both placements — the
    /// fixpoint does not depend on where vertices live).
    pub iterations: usize,
    /// Cross-owner rows the topology-aware placement exchanged in total.
    aware_rows: u64,
    /// Total metered cost, topology-aware (blocked, degree-balanced).
    aware_cost: f64,
    /// Total metered cost, topology-agnostic (uniform hash).
    agnostic_cost: f64,
}

impl IterMeasurement {
    /// agnostic / aware — the gate watches ≥ 1.43 (aware ≤ 0.7×).
    pub fn ratio(&self) -> f64 {
        self.agnostic_cost / self.aware_cost
    }
}

fn run_pagerank(tree: &Tree, graph: &GraphSpec, part: VertexPartition) -> IterativeOutcome {
    let g = graph.generate(SEED);
    let owners = part.owners(tree, &g, SEED);
    let job = IterativeJob::pagerank(g.arcs().to_vec(), owners, DAMPING, SPEC);
    job.prepare(tree)
        .expect("bench fixpoint converges")
        .run(tree)
        .expect("simulator replay")
}

/// PageRank on `graph` over `tree`, topology-aware (blocked proportional
/// to bandwidth) vs agnostic (uniform hash).
fn measure_pagerank(scenario: &'static str, tree: &Tree, graph: &GraphSpec) -> IterMeasurement {
    let aware = run_pagerank(
        tree,
        graph,
        VertexPartition::Blocked(PlacementStrategy::ProportionalToBandwidth),
    );
    let agnostic = run_pagerank(tree, graph, VertexPartition::Hash);
    assert_eq!(
        aware.iterations.len(),
        agnostic.iterations.len(),
        "the fixpoint is placement-independent"
    );
    IterMeasurement {
        scenario,
        iterations: aware.iterations.len(),
        aware_rows: aware.total_exchanged_rows(),
        aware_cost: aware.total_metered(),
        agnostic_cost: agnostic.total_metered(),
    }
}

/// The bandwidth-skewed fat-tree of the gated scenario: one fat rack
/// (8× leaf links, proportionally fat uplink) next to a thin one — the
/// heterogeneous datacenter shape the paper's placement results target.
fn skewed_tree() -> Tree {
    builders::rack_tree(&[(3, 8.0, 24.0), (3, 1.0, 4.0)], 16.0)
}

/// The skewed fat-tree scenario (the release-gated one): power-law
/// graph on the heterogeneous fat-tree. The aware placement parks the
/// hub blocks' degree mass behind the fat rack; hash spreads it
/// uniformly, so the thin leaf links become the per-round bottleneck.
fn skewed_fat_tree() -> IterMeasurement {
    measure_pagerank(
        "skewed fat-tree",
        &skewed_tree(),
        &GraphSpec::power_law(360, 2600, 1.0),
    )
}

/// The torus-embedded grid scenario.
fn torus_grid() -> IterMeasurement {
    let tree = builders::caterpillar(4, 2, 1.0);
    measure_pagerank("torus grid", &tree, &GraphSpec::grid(18, 20))
}

/// Frontier-mode BFS from the power-law hub: the per-iteration exchange
/// volumes (combined rows) whose strict decrease the gate asserts.
fn frontier_bfs() -> IterativeOutcome {
    let tree = builders::fat_tree(2, 3, 1.0);
    let g = GraphSpec::power_law(360, 5200, 1.2).generate(SEED);
    let owners = VertexPartition::Blocked(PlacementStrategy::ProportionalToBandwidth)
        .owners(&tree, &g, SEED);
    let job = IterativeJob::bfs(
        g.arcs().to_vec(),
        owners,
        0,
        IterativeSpec::frontier(20, 0.0),
    );
    job.prepare(&tree)
        .expect("BFS settles")
        .run(&tree)
        .expect("simulator replay")
}

/// `true` iff per-iteration exchange volume strictly decreases.
fn strictly_decreasing(out: &IterativeOutcome) -> bool {
    out.iterations
        .windows(2)
        .all(|w| w[1].exchanged_rows < w[0].exchanged_rows)
}

/// X-ITER — topology-aware vs agnostic iterative placement, and frontier
/// exchange shrinkage.
pub(crate) fn x_iter() -> Vec<Table> {
    let mut placement = Table::new(
        "X-ITER  PageRank: topology-aware (blocked) vs agnostic (hash) placement",
        &[
            "scenario",
            "iters",
            "aware rows",
            "aware cost",
            "agnostic cost",
            "agnostic/aware ratio",
        ],
    );
    for m in [skewed_fat_tree(), torus_grid()] {
        placement.row(vec![
            m.scenario.to_string(),
            m.iterations.to_string(),
            m.aware_rows.to_string(),
            fnum(m.aware_cost),
            fnum(m.agnostic_cost),
            fnum(m.ratio()),
        ]);
    }
    placement.note(
        "Expected shape: ratio > 1 on both scenarios — on the skewed fat-tree the \
         bandwidth-proportional blocks park the hub's degree mass behind the fat \
         rack (hash makes the thin links the bottleneck); on the grid the blocks \
         keep neighborhoods intra-node so only boundary arcs ship. The release \
         gate pins the skewed fat-tree ratio at ≥ 1.43 (aware ≤ 0.7× agnostic). \
         Iteration counts are placement-independent: the fixpoint itself never \
         changes, only its price.",
    );

    let bfs = frontier_bfs();
    let mut volume = Table::new(
        "X-ITER  frontier BFS from the hub: per-iteration exchange volume",
        &[
            "iter",
            "rows",
            "estimated cost",
            "metered cost",
            "cut lb cost",
            "residual",
        ],
    );
    for i in &bfs.iterations {
        volume.row(vec![
            i.iter.to_string(),
            i.exchanged_rows.to_string(),
            fnum(i.estimated),
            fnum(i.metered),
            fnum(i.lower_bound),
            fnum(i.residual),
        ]);
    }
    volume.note(format!(
        "Expected shape: rows strictly decreasing (gate) — the hub reaches most of \
         the graph in one hop, so each BFS level set shrinks, and from iteration 1 \
         the estimate is the previous iteration's metered exchange re-priced \
         (estimated[i+1] = metered[i]). Strictly decreasing here: {}.",
        if strictly_decreasing(&bfs) {
            "yes"
        } else {
            "NO"
        }
    ));

    vec![placement, volume]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_iter_scenarios_favor_topology_aware_placement() {
        // Debug-sized versions of both scenarios.
        let tree = skewed_tree();
        let m = measure_pagerank("small skewed", &tree, &GraphSpec::power_law(120, 900, 1.0));
        assert!(m.ratio() > 1.0, "blocked placement must beat hash: {m:?}");
        let tree = builders::caterpillar(4, 2, 1.0);
        let m = measure_pagerank("small grid", &tree, &GraphSpec::grid(10, 12));
        assert!(m.ratio() > 1.0, "grid blocking must beat hash: {m:?}");
    }

    #[test]
    fn small_frontier_bfs_shrinks() {
        let tree = builders::star(4, 1.0);
        let g = GraphSpec::power_law(100, 800, 1.0).generate(3);
        let owners = VertexPartition::Blocked(PlacementStrategy::Uniform).owners(&tree, &g, 3);
        let out = IterativeJob::bfs(
            g.arcs().to_vec(),
            owners,
            0,
            IterativeSpec::frontier(20, 0.0),
        )
        .prepare(&tree)
        .unwrap()
        .run(&tree)
        .unwrap();
        assert!(strictly_decreasing(&out), "{:?}", out.iterations);
    }

    /// The release acceptance gate: topology-aware PageRank ≤ 0.7× the
    /// agnostic metered cost on the skewed fat-tree, and frontier BFS
    /// exchange volume strictly decreasing.
    #[test]
    #[ignore = "full-size scenarios; run in release (CI does)"]
    fn gate_topology_aware_wins_and_frontier_shrinks() {
        let m = skewed_fat_tree();
        assert!(
            m.aware_cost <= 0.7 * m.agnostic_cost,
            "aware {} > 0.7 × agnostic {} (ratio {:.2})",
            m.aware_cost,
            m.agnostic_cost,
            m.ratio()
        );
        let t = torus_grid();
        assert!(t.ratio() > 1.0, "grid blocking must beat hash: {t:?}");
        let bfs = frontier_bfs();
        assert!(
            strictly_decreasing(&bfs),
            "frontier exchange volume must strictly decrease: {:?}",
            bfs.iterations
        );
    }
}
