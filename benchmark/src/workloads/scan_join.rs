//! `scan-join`: rows, not queries, set the time. A 16-compute fat-tree,
//! a fact table with Zipf keys and skewed placement far larger than any
//! cache the program keeps, a small dimension; three plans prepared once
//! in set-up and run on the simulator backend. Columnar kernels,
//! batching, schedule emission and payload delivery dominate; planner,
//! plan cache, orchestrator and crew do nothing.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tamp_query::prelude::*;
use tamp_query::row::Row;
use tamp_runtime::SimulatorBackend;
use tamp_topology::{builders, Tree};

use crate::json::Json;
use crate::probes::Probes;
use crate::trace::Tracer;
use crate::workloads::{digest, Counts, Op, PlanReference, Workload};

/// Share of the fact rows placed on the first compute node.
const HEAVY_SHARE: f64 = 0.25;
const ZIPF_ALPHA: f64 = 1.0;
const CTX_SEED: u64 = 23;

#[derive(Clone, Copy)]
struct Sizes {
    fat_tree: (u32, usize),
    facts: usize,
    keys: usize,
}

const FULL: Sizes = Sizes {
    fat_tree: (2, 4),
    facts: 120_000,
    keys: 2_000,
};
const SMOKE: Sizes = Sizes {
    fat_tree: (2, 4),
    facts: 4_000,
    keys: 100,
};

/// The op's per-plan span and layer-metric names, in plan order.
const PLAN_METRICS: [&str; 3] = [
    "query.exec.filter_project_ms",
    "query.exec.join_ms",
    "query.exec.sort_limit_ms",
];

pub struct ScanJoin {
    sizes: Sizes,
    facts: Vec<Row>,
    dims: Vec<Row>,
    plans: Vec<LogicalPlan>,
    reference: Vec<PlanReference>,
    generate_ms: f64,
    evaluate_ms: f64,
}

fn tree_of(sizes: Sizes) -> Tree {
    builders::fat_tree(sizes.fat_tree.0, sizes.fat_tree.1, 1.0)
}

/// Filter + project + aggregate; join + aggregate; join + sort + limit.
fn plans() -> Vec<LogicalPlan> {
    vec![
        LogicalPlan::scan("facts")
            .filter(col("x").lt(lit(600)))
            .project(vec![("k", col("k")), ("y", col("x").div(lit(8)))])
            .aggregate("k", AggFunc::Sum, "y"),
        LogicalPlan::scan("facts")
            .join_on(LogicalPlan::scan("dims"), "k", "k")
            .aggregate("tier", AggFunc::Sum, "x"),
        LogicalPlan::scan("facts")
            .filter(col("x").lt(lit(64)))
            .join_on(LogicalPlan::scan("dims"), "k", "k")
            .order_by("id")
            .limit(100),
    ]
}

impl ScanJoin {
    /// Key frequencies follow Zipf exactly (key `k` appears
    /// `round(N · p_k)` times) and the `x` and `tier` values are fixed
    /// multisets, so every seed filters, joins and groups the same number
    /// of rows; the seed shuffles which row carries which values and so
    /// which rows the heavy node holds.
    pub fn generate(seed: u64, smoke: bool) -> ScanJoin {
        let sizes = if smoke { SMOKE } else { FULL };
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA9_0019);
        let weight = |k: usize| 1.0 / ((k + 1) as f64).powf(ZIPF_ALPHA);
        let total: f64 = (0..sizes.keys).map(weight).sum();
        let mut keys: Vec<u64> = Vec::with_capacity(sizes.facts);
        for k in 0..sizes.keys {
            let copies = (sizes.facts as f64 * weight(k) / total).round() as usize;
            keys.extend(std::iter::repeat_n(k as u64, copies));
        }
        // Rounding leaves the count a few rows off; the lightest keys
        // absorb the difference.
        keys.truncate(sizes.facts);
        while keys.len() < sizes.facts {
            keys.push((keys.len() % sizes.keys) as u64);
        }
        keys.shuffle(&mut rng);
        let mut xs: Vec<u64> = (0..sizes.facts as u64).map(|i| (i * 29) % 1024).collect();
        xs.shuffle(&mut rng);
        let facts: Vec<Row> = (0..sizes.facts as u64)
            .zip(keys.into_iter().zip(xs))
            .map(|(id, (k, x))| vec![id, k, x])
            .collect();
        let mut tiers: Vec<u64> = (0..sizes.keys as u64).map(|k| k % 32).collect();
        tiers.shuffle(&mut rng);
        let dims: Vec<Row> = (0..sizes.keys as u64)
            .zip(tiers)
            .map(|(k, t)| vec![k, t])
            .collect();
        let generate_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut w = ScanJoin {
            sizes,
            facts,
            dims,
            plans: plans(),
            reference: Vec::new(),
            generate_ms,
            evaluate_ms: 0.0,
        };
        let tree = tree_of(sizes);
        let (reference, evaluate_ms) = PlanReference::of(&w.context(&tree), &w.plans);
        w.reference = reference;
        w.evaluate_ms = evaluate_ms;
        w
    }

    fn context(&self, tree: &Tree) -> QueryContext {
        let mut ctx = QueryContext::new(tree.clone()).with_seed(CTX_SEED);
        ctx.register(DistributedTable::skewed(
            "facts",
            Schema::new(vec!["id", "k", "x"]).expect("distinct columns"),
            self.facts.clone(),
            tree,
            tree.compute_nodes()[0],
            HEAVY_SHARE,
        ))
        .expect("register facts");
        ctx.register(DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["k", "tier"]).expect("distinct columns"),
            self.dims.clone(),
            tree,
        ))
        .expect("register dims");
        ctx
    }
}

struct ScanOp<'w, 'c> {
    w: &'w ScanJoin,
    prepared: Vec<PreparedQuery<'c>>,
    results: Vec<QueryResult>,
}

impl Op for ScanOp<'_, '_> {
    fn stage(&mut self) {
        self.results.clear();
    }

    fn run(&mut self, tr: &mut Tracer) -> Counts {
        let mut counts = Counts::default();
        let mut total_ns = 0u64;
        for (p, metric) in self.prepared.iter().zip(PLAN_METRICS) {
            let span = tr.enter("query.prepared.run_on");
            let result = p.run_on(&SimulatorBackend).expect("simulator run");
            let ns = tr.exit(
                span,
                &[
                    ("rounds", result.rounds as f64),
                    ("tuple_cost", result.cost.tuple_cost()),
                    ("total_tuples", result.cost.total_tuples() as f64),
                ],
            );
            tr.observe(metric, ns as f64 / 1e6);
            total_ns += ns;
            counts.add_cost(&result.cost, result.rounds);
            self.results.push(result);
        }
        if total_ns > 0 {
            // Every plan scans `facts`; the two joins also scan `dims`.
            let scanned = 3 * self.w.facts.len() + 2 * self.w.dims.len();
            tr.observe(
                "query.exec.scan_rows_per_s",
                scanned as f64 / (total_ns as f64 / 1e9),
            );
        }
        counts
    }

    fn check(&self) -> Result<u64, String> {
        let mut digests = Vec::new();
        for (k, (got, want)) in self.results.iter().zip(&self.w.reference).enumerate() {
            digests.push(want.check(k, got)?);
        }
        Ok(digest(&digests))
    }
}

impl Workload for ScanJoin {
    fn generate_ms(&self) -> f64 {
        self.generate_ms
    }

    fn expected(&self) -> Counts {
        let mut counts = Counts::default();
        for r in &self.reference {
            counts.add_cost(&r.cost, r.rounds);
        }
        counts
    }

    fn setup_then(&self, _crew: usize, body: &mut dyn FnMut(&mut dyn Op)) {
        let tree = tree_of(self.sizes);
        let ctx = self.context(&tree);
        let prepared = self
            .plans
            .iter()
            .map(|q| ctx.prepare(q).expect("plan prepares"))
            .collect();
        body(&mut ScanOp {
            w: self,
            prepared,
            results: Vec::new(),
        });
    }

    fn probes(&self, _crew: usize, out: &mut Probes) {
        out.set("query.reference.evaluate_ms", self.evaluate_ms);
    }

    fn sizes(&self) -> Json {
        let (levels, k) = self.sizes.fat_tree;
        Json::obj()
            .set("tree", format!("fat_tree({levels}, {k})"))
            .set("compute_nodes", k.pow(levels))
            .set("facts_rows", self.facts.len())
            .set("facts_columns", 3usize)
            .set("facts_mb", (self.facts.len() * 3 * 8) as f64 / 1e6)
            .set("dims_rows", self.dims.len())
            .set("zipf_alpha", ZIPF_ALPHA)
            .set("heavy_node_share", HEAVY_SHARE)
    }
}
