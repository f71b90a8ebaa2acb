//! X-SERVE — the concurrent serving layer, measured.
//!
//! For each topology, a fixed mixed workload (multi-join analytics,
//! sorted limits, distinct aggregation) is pushed through four serving
//! modes over one shared backend:
//!
//! - `serial / uncached` — a fresh `prepare()` per query, one client
//!   (the single-session baseline every PR before the serving layer
//!   paid);
//! - `serial / cached` — one client through a [`QueryService`]: planning
//!   amortized by the prepared-plan cache;
//! - `8 threads / uncached` — eight clients, each replanning every query;
//! - `8 threads / cached` — eight clients through one shared
//!   `QueryService`: the serving-layer headline.
//!
//! Every mode runs the *same* total query count and every result is
//! checked bit-identical (canonical rows and metered ledger) to the
//! serial reference — concurrency and caching change throughput, never
//! answers. The shared engine here is the centralized simulator; the
//! serving stress suite drives the same `QueryService` through the
//! shared-crew pooled cluster. The `cost` column is the workload's total
//! metered tuple cost. Throughput is not measured here: `benchmark/`'s
//! `query.service.hit_us` / `miss_us` time a cached and an uncached
//! serve.

use std::sync::Arc;

use tamp_query::prelude::*;
use tamp_query::service::QueryService;
use tamp_runtime::backend::ExecBackend;
use tamp_runtime::SimulatorBackend;
use tamp_topology::{builders, Tree};

use crate::table::{fnum, Table};

/// Client threads in the concurrent modes (the acceptance scenario).
const SERVE_THREADS: usize = 8;
/// Total queries per mode (divisible by `SERVE_THREADS` and the
/// workload size).
const SERVE_QUERIES: usize = 48;

fn scenarios() -> Vec<(&'static str, Tree)> {
    vec![
        ("star-32", builders::star(32, 1.0)),
        ("fat-tree-2x5", builders::fat_tree(2, 5, 1.0)),
    ]
}

fn serving_context(tree: &Tree) -> QueryContext {
    let mut ctx = QueryContext::new(tree.clone()).with_seed(17);
    let facts: Vec<Vec<u64>> = (0..96).map(|i| vec![i, i % 11, (i * 29) % 1024]).collect();
    ctx.register(DistributedTable::round_robin(
        "facts",
        Schema::new(vec!["id", "g", "x"]).unwrap(),
        facts,
        tree,
    ))
    .unwrap();
    ctx.register(DistributedTable::round_robin(
        "dims",
        Schema::new(vec!["g", "tier"]).unwrap(),
        (0..11).map(|g| vec![g, g + 40]).collect(),
        tree,
    ))
    .unwrap();
    ctx.register(DistributedTable::round_robin(
        "grps",
        Schema::new(vec!["tier", "band"]).unwrap(),
        (40..51).map(|t| vec![t, t % 4]).collect(),
        tree,
    ))
    .unwrap();
    ctx
}

/// Serving-shaped queries: multi-operator analytics plans whose
/// planning (candidate pricing per exchange) is a substantial share of
/// their cost — the regime where a prepared-plan cache pays.
pub(crate) fn workload() -> Vec<LogicalPlan> {
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

fn check(result: &QueryResult, want: &QueryResult) -> bool {
    result.rows(false) == want.rows(false) && result.cost.edge_totals == want.cost.edge_totals
}

/// `threads` clients, each serving its share of `SERVE_QUERIES` through
/// `serve(k)` (query `k` of the workload); `true` when every result
/// matched the serial reference bit for bit.
fn run_clients(
    threads: usize,
    reference: &[QueryResult],
    serve: impl Fn(usize) -> QueryResult + Sync,
) -> bool {
    let per_thread = SERVE_QUERIES / threads;
    let serve = &serve;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (0..per_thread).fold(true, |ok, i| {
                        let k = (t + i) % reference.len();
                        check(&serve(k), &reference[k]) && ok
                    })
                })
            })
            .collect();
        handles.into_iter().all(|h| h.join().unwrap())
    })
}

/// The four modes of one scenario, checked, plus the workload's total
/// metered cost.
pub struct ServeMeasurement {
    /// `(mode, threads, identical)` in presentation order.
    modes: Vec<(&'static str, usize, bool)>,
    /// Total metered tuple cost of one pass over the workload
    /// (deterministic).
    pub(crate) workload_cost: f64,
}

/// Measure one topology's four serving modes.
pub fn measure(tree: &Tree) -> ServeMeasurement {
    let queries = workload();
    let ctx = serving_context(tree);
    // Serial reference results (also the deterministic cost signal).
    let reference: Vec<QueryResult> = queries
        .iter()
        .map(|q| ctx.prepare(q).unwrap().run().unwrap())
        .collect();
    let workload_cost: f64 = reference.iter().map(|r| r.cost.tuple_cost()).sum();

    let backend: Arc<dyn ExecBackend + Send + Sync> = Arc::new(SimulatorBackend);
    let service = QueryService::new(serving_context(tree), Arc::clone(&backend))
        .with_max_inflight(SERVE_THREADS)
        .unwrap();
    // Warm the plan cache so the cached modes serve steady-state hits,
    // not first-arrival planning.
    for q in &queries {
        service.serve(q).unwrap();
    }

    // A fresh `prepare()` per query (no cache), or one shared service.
    let uncached = |threads| {
        run_clients(threads, &reference, |k| {
            ctx.prepare(&queries[k]).unwrap().run_on(&*backend).unwrap()
        })
    };
    let cached = |threads| {
        run_clients(threads, &reference, |k| {
            service.serve(&queries[k]).unwrap().result
        })
    };
    ServeMeasurement {
        modes: vec![
            ("serial / uncached", 1, uncached(1)),
            ("serial / cached", 1, cached(1)),
            (
                "8 threads / uncached",
                SERVE_THREADS,
                uncached(SERVE_THREADS),
            ),
            ("8 threads / cached", SERVE_THREADS, cached(SERVE_THREADS)),
        ],
        workload_cost,
    }
}

/// X-SERVE — concurrent serving: cached vs uncached, serial vs 8
/// threads, all bit-identical to single-session execution.
pub(crate) fn x_serve() -> Vec<Table> {
    let mut t = Table::new(
        "X-SERVE  QueryService: threads \u{d7} queries, plan cache on/off, one shared backend",
        &[
            "topology",
            "mode",
            "threads",
            "queries",
            "cost",
            "identical",
        ],
    );
    for (name, tree) in scenarios() {
        let m = measure(&tree);
        for (mode, threads, identical) in &m.modes {
            t.row(vec![
                name.into(),
                (*mode).into(),
                threads.to_string(),
                SERVE_QUERIES.to_string(),
                fnum(m.workload_cost),
                if *identical { "yes" } else { "NO" }.into(),
            ]);
        }
    }
    t.note(
        "Expected shape: every mode bit-identical to serial single-session execution \
         (identical = yes); the plan cache and concurrency move only wall time, \
         which benchmark/ measures (query.service.miss_us against hit_us). \
         `cost` is the per-workload metered tuple cost.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_is_bit_identical_and_cost_is_scenario_constant() {
        let tables = x_serve();
        let t = &tables[0];
        assert_eq!(t.num_rows(), 8); // 2 topologies × 4 modes
        for i in 0..t.num_rows() {
            assert_eq!(t.cell(i, 5), "yes", "{} / {}", t.cell(i, 0), t.cell(i, 1));
        }
        // The cost signal is per-topology constant across modes.
        for base in [0, 4] {
            for i in base..base + 4 {
                assert_eq!(t.cell(i, 4), t.cell(base, 4));
            }
        }
    }
}
