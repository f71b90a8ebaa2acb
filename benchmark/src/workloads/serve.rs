//! The serving fixture shared by `serve-hot` and `serve-churn`: a
//! 64-compute fat-tree, x-serve-shaped tables with seeded values, the
//! three x-serve plans and one small power-law PageRank job.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tamp_query::prelude::*;
use tamp_query::row::Row;
use tamp_topology::{builders, NodeId, Tree};
use tamp_workloads::{Graph, GraphSpec, PlacementStrategy, VertexPartition};

use crate::json::Json;
use crate::trace::Tracer;

/// Distinct join keys of `facts.g` / rows of `dims` and `grps`.
const GROUPS: u64 = 11;
/// PageRank damping: the residual halves per iteration, so fixpoints are
/// short and their length barely depends on the graph.
const DAMPING: f64 = 0.5;
const PAGERANK: IterativeSpec = IterativeSpec {
    max_iters: 40,
    tolerance: 1e-3,
    mode: IterMode::Jacobi,
};
/// Hash seed of every query context (fixed: `--seed` shapes the data,
/// not the program's configuration).
const CTX_SEED: u64 = 17;
/// Seed of the one PageRank graph every `--seed` renumbers.
const GRAPH_SEED: u64 = 11;

#[derive(Clone, Copy)]
struct Sizes {
    fat_tree: (u32, usize),
    facts: u64,
    vertices: usize,
    edges: usize,
}

const FULL: Sizes = Sizes {
    fat_tree: (2, 8),
    facts: 288,
    vertices: 96,
    edges: 480,
};
const SMOKE: Sizes = Sizes {
    fat_tree: (2, 4),
    facts: 96,
    vertices: 48,
    edges: 160,
};

/// The generated inputs.
pub struct ServeInputs {
    sizes: Sizes,
    pub facts: Vec<Row>,
    pub dims: Vec<Row>,
    pub grps: Vec<Row>,
    pub arcs: Vec<(u64, u64)>,
    pub owners: Vec<NodeId>,
    pub generate_ms: f64,
}

/// The serving topology.
pub fn tree_of(inputs: &ServeInputs) -> Tree {
    let (levels, k) = inputs.sizes.fat_tree;
    builders::fat_tree(levels, k, 1.0)
}

impl ServeInputs {
    /// The *multiset* of values is fixed by the workload — x-serve's own
    /// formulas — so row counts, key frequencies, selectivities and the
    /// PageRank fixpoint are the same for every seed and every op does
    /// the same amount of work. The seed decides the arrangement: which
    /// row carries which id and lands on which node, which tier and band
    /// a group maps to, how vertices are numbered and therefore owned.
    pub fn generate(seed: u64, smoke: bool) -> ServeInputs {
        let sizes = if smoke { SMOKE } else { FULL };
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E12_7E00);
        let mut pairs: Vec<(u64, u64)> = (0..sizes.facts)
            .map(|i| (i % GROUPS, (i * 29) % 1024))
            .collect();
        pairs.shuffle(&mut rng);
        let facts = (0..sizes.facts)
            .zip(pairs)
            .map(|(id, (g, x))| vec![id, g, x])
            .collect();
        let mut tiers: Vec<u64> = (40..40 + GROUPS).collect();
        tiers.shuffle(&mut rng);
        let dims = (0..GROUPS).zip(tiers).map(|(g, t)| vec![g, t]).collect();
        let mut bands: Vec<u64> = (40..40 + GROUPS).map(|t| t % 4).collect();
        bands.shuffle(&mut rng);
        let grps = (40..40 + GROUPS)
            .zip(bands)
            .map(|(t, b)| vec![t, b])
            .collect();

        // One graph for every seed, renumbered by a seeded permutation.
        let graph = GraphSpec::power_law(sizes.vertices, sizes.edges, 1.0).generate(GRAPH_SEED);
        let mut number: Vec<u64> = (0..graph.vertices() as u64).collect();
        number.shuffle(&mut rng);
        let arcs = graph
            .arcs()
            .iter()
            .map(|&(u, v)| (number[u as usize], number[v as usize]))
            .collect();
        let graph = Graph::from_arcs(graph.vertices(), arcs);
        // Vertex owners need the tree's compute-node list; building it
        // here is generator work, the program's own build is in set-up.
        let (levels, k) = sizes.fat_tree;
        let tree = builders::fat_tree(levels, k, 1.0);
        let owners = VertexPartition::Blocked(PlacementStrategy::ProportionalToBandwidth)
            .owners(&tree, &graph, seed);
        ServeInputs {
            sizes,
            facts,
            dims,
            grps,
            arcs: graph.arcs().to_vec(),
            owners,
            generate_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }

    pub fn dims_table(&self, tree: &Tree) -> DistributedTable {
        DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).expect("distinct columns"),
            self.dims.clone(),
            tree,
        )
    }

    /// Register the three tables in a fresh context over `tree`.
    pub fn context(&self, tree: &Tree) -> QueryContext {
        let mut ctx = QueryContext::new(tree.clone()).with_seed(CTX_SEED);
        ctx.register(DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).expect("distinct columns"),
            self.facts.clone(),
            tree,
        ))
        .expect("register facts");
        ctx.register(self.dims_table(tree)).expect("register dims");
        ctx.register(DistributedTable::round_robin(
            "grps",
            Schema::new(vec!["tier", "band"]).expect("distinct columns"),
            self.grps.clone(),
            tree,
        ))
        .expect("register grps");
        ctx
    }

    pub fn pagerank(&self) -> IterativeJob {
        IterativeJob::pagerank(self.arcs.clone(), self.owners.clone(), DAMPING, PAGERANK)
    }

    pub fn sizes(&self) -> Json {
        let (levels, k) = self.sizes.fat_tree;
        Json::obj()
            .set("tree", format!("fat_tree({levels}, {k})"))
            .set("compute_nodes", k.pow(levels))
            .set("facts_rows", self.facts.len())
            .set("dims_rows", self.dims.len())
            .set("grps_rows", self.grps.len())
            .set("pagerank_vertices", self.owners.len())
            .set("pagerank_arcs", self.arcs.len())
    }
}

/// The three x-serve plans: a filtered three-way join with an ordered
/// aggregate, a join under a sorted limit, and a distinct projection
/// under a count.
pub fn plans() -> Vec<LogicalPlan> {
    vec![
        LogicalPlan::scan("facts")
            .filter(col("x").lt(lit(700)))
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .join_on(LogicalPlan::scan("grps"), "tier", "tier")
            .aggregate("band", AggFunc::Sum, "x")
            .order_by("band"),
        LogicalPlan::scan("facts")
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .order_by("x")
            .limit(20),
        LogicalPlan::scan("facts")
            .project(vec![("g", col("g")), ("b", col("x").div(lit(128)))])
            .distinct()
            .aggregate("g", AggFunc::Count, "b")
            .order_by("g"),
    ]
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Span attributes copied from a served query's returned stats.
pub fn service_attrs(s: &ServiceStats) -> [(&'static str, f64); 4] {
    [
        ("queued_us", us(s.queued)),
        ("plan_us", us(s.plan)),
        ("exec_us", us(s.exec)),
        ("cache_hit", f64::from(u8::from(s.cache_hit))),
    ]
}

/// The layer readings both serve workloads take from returned stats:
/// execution time, and planning time filed under hit or miss. Returns the
/// microseconds the stats account for (queue + plan + exec).
pub fn observe_service(tr: &mut Tracer, s: &ServiceStats) -> f64 {
    tr.observe("query.service.exec_us", us(s.exec));
    tr.observe(
        if s.cache_hit {
            "query.service.hit_us"
        } else {
            "query.service.miss_us"
        },
        us(s.plan),
    );
    us(s.queued + s.plan + s.exec)
}
