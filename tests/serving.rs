//! Concurrency stress test for the serving layer: many client threads
//! hammering one shared `QueryService` over one shared pooled cluster
//! backend must produce results **bit-identical** to fresh serial
//! `prepare().run()` execution — rows *and* metered `edge_totals` — and
//! the prepared-plan cache must hit after warmup and invalidate on
//! `register`.

use std::sync::Arc;

use tamp::query::prelude::*;
use tamp::query::service::QueryService;
use tamp::runtime::PooledClusterBackend;
use tamp::topology::builders;

const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 64;

fn serving_context() -> QueryContext {
    let tree = builders::rack_tree(&[(3, 1.0, 2.0), (3, 2.0, 1.0)], 1.0);
    let mut ctx = QueryContext::new(tree.clone()).with_seed(23);
    let facts: Vec<Vec<u64>> = (0..240).map(|i| vec![i, i % 9, (i * 37) % 1000]).collect();
    ctx.register(DistributedTable::round_robin(
        "facts",
        Schema::new(vec!["id", "g", "x"]).unwrap(),
        facts,
        &tree,
    ))
    .unwrap();
    ctx.register(DistributedTable::round_robin(
        "dims",
        Schema::new(vec!["g", "tier"]).unwrap(),
        (0..9).map(|g| vec![g, g + 100]).collect(),
        &tree,
    ))
    .unwrap();
    ctx
}

/// The mixed workload: every strategy-pluggable operator is exercised.
fn workload() -> Vec<LogicalPlan> {
    vec![
        LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g"),
        LogicalPlan::scan("facts")
            .filter(col("x").lt(lit(600)))
            .aggregate("g", AggFunc::Sum, "x"),
        LogicalPlan::scan("facts").order_by("x"),
        LogicalPlan::scan("facts").order_by("x").limit(25),
        LogicalPlan::scan("facts")
            .project(vec![("g", col("g")), ("b", col("x").div(lit(100)))])
            .distinct(),
        LogicalPlan::scan("dims").cross(LogicalPlan::scan("dims")),
    ]
}

#[test]
fn eight_threads_of_mixed_queries_are_bit_identical_to_serial_execution() {
    let queries = workload();

    // Serial ground truth: a fresh session per query, prepare().run() on
    // the default engine (the plan replays identically on any backend).
    let serial: Vec<QueryResult> = queries
        .iter()
        .map(|q| serving_context().prepare(q).unwrap().run().unwrap())
        .collect();

    let backend = Arc::new(PooledClusterBackend::with_shared_pool(4));
    let service = QueryService::new(serving_context(), backend)
        .with_max_inflight(THREADS)
        .unwrap();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (service, queries, serial) = (&service, &queries, &serial);
            scope.spawn(move || {
                for i in 0..QUERIES_PER_THREAD {
                    let k = (t + i) % queries.len();
                    let served = service.serve(&queries[k]).unwrap();
                    let want = &serial[k];
                    // Bit-identical rows (order-insensitive canonical
                    // form) and bit-identical metered ledger.
                    assert_eq!(
                        served.result.rows(false),
                        want.rows(false),
                        "thread {t} query {k}: rows diverged"
                    );
                    assert_eq!(
                        served.result.cost.edge_totals, want.cost.edge_totals,
                        "thread {t} query {k}: ledgers diverged"
                    );
                    assert_eq!(served.result.rounds, want.rounds);
                }
            });
        }
    });

    let total = (THREADS * QUERIES_PER_THREAD) as u64;
    let cache = service.cache_stats();
    assert_eq!(cache.hits + cache.misses, total);
    // Warmup costs at most one miss per distinct plan per racing thread;
    // everything after that must hit. The bound below is loose (a full
    // thundering herd on every distinct plan) and still demands >98%
    // hits.
    let max_misses = (queries.len() * THREADS) as u64;
    assert!(
        cache.misses <= max_misses,
        "{} misses for {} distinct plans",
        cache.misses,
        queries.len()
    );
    assert!(cache.hits >= total - max_misses, "{cache:?}");
    assert_eq!(cache.invalidations, 0);

    let adm = service.admission_stats();
    assert_eq!(adm.admitted, total);
    assert!(adm.peak_inflight <= THREADS, "{adm:?}");
}

#[test]
fn eight_threads_of_fixpoint_jobs_share_two_cached_plans() {
    const CALLS_PER_THREAD: usize = 32;
    // Two distinct jobs over one graph: PageRank and BFS.
    let tree = serving_context().tree().clone();
    let vc = tree.compute_nodes().to_vec();
    let n = 24u64;
    let arcs: Vec<(u64, u64)> = (0..n)
        .flat_map(|u| [(u, (u + 1) % n), ((u + 1) % n, u), (u, (u * 7 + 2) % n)])
        .collect();
    let owners: Vec<_> = (0..n).map(|v| vc[(v % 6) as usize]).collect();
    let jobs = [
        IterativeJob::pagerank(
            arcs.clone(),
            owners.clone(),
            0.5,
            IterativeSpec::jacobi(40, 1e-5),
        ),
        IterativeJob::bfs(arcs, owners, 0, IterativeSpec::frontier(30, 0.0)),
    ];
    // Serial ground truth: a fresh prepare, replayed on the simulator.
    let serial: Vec<IterativeOutcome> = jobs
        .iter()
        .map(|j| j.prepare(&tree).unwrap().run(&tree).unwrap())
        .collect();

    // One built service: its fixed two-worker crew is the shared cluster
    // backend.
    let service = QueryService::builder(serving_context())
        .tenant(TenantSpec::new("graphs", 1, THREADS).with_priority(Priority::Batch))
        .crew(2)
        .capacity(THREADS)
        .build()
        .unwrap();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (service, jobs, serial) = (&service, &jobs, &serial);
            scope.spawn(move || {
                for i in 0..CALLS_PER_THREAD {
                    let k = (t + i) % jobs.len();
                    let got = service.serve_iterative("graphs", &jobs[k]).unwrap().outcome;
                    let want = &serial[k];
                    assert_eq!(got.values, want.values, "thread {t} job {k}");
                    assert_eq!(got.iterations, want.iterations, "thread {t} job {k}");
                    assert_eq!(got.cost.edge_totals, want.cost.edge_totals);
                    assert_eq!(got.supersteps, want.supersteps + 1);
                }
            });
        }
    });

    let calls = (THREADS * CALLS_PER_THREAD) as u64;
    let cache = service.cache_stats();
    assert_eq!(cache.hits + cache.misses, calls);
    // At worst every thread races the cold start of every job.
    assert!(
        cache.hits >= calls - (THREADS * jobs.len()) as u64,
        "{cache:?}"
    );
    assert!(cache.entries <= jobs.len(), "{cache:?}");
    let stats = &service.tenant_stats()[0];
    assert_eq!((stats.served, stats.cache_hits), (calls, cache.hits));
}

#[test]
fn register_mid_service_invalidates_and_replans_consistently() {
    let service = QueryService::with_default_backend(serving_context());
    let q = LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g");

    let before = service.serve(&q).unwrap();
    assert!(!before.stats.cache_hit);
    assert!(service.serve(&q).unwrap().stats.cache_hit);

    // Replace `dims` with a bigger table: the catalog version bumps, the
    // cache clears, and the next serve replans against the new data.
    let tree = service.context().tree().clone();
    let version = service
        .register(DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            (0..9).map(|g| vec![g, g + 500]).collect(),
            &tree,
        ))
        .unwrap();
    assert_eq!(version, 1);
    let stats = service.cache_stats();
    assert_eq!(stats.entries, 0);
    assert_eq!(stats.invalidations, 1);

    let after = service.serve(&q).unwrap();
    assert!(!after.stats.cache_hit, "stale plan served after register");

    // The replanned result matches a fresh session over the same data.
    let mut fresh_ctx = serving_context();
    fresh_ctx
        .register(DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            (0..9).map(|g| vec![g, g + 500]).collect(),
            &tree,
        ))
        .unwrap();
    let fresh = fresh_ctx.prepare(&q).unwrap().run().unwrap();
    assert_eq!(after.result.rows(false), fresh.rows(false));
    assert_eq!(after.result.cost.edge_totals, fresh.cost.edge_totals);
}

#[test]
fn concurrent_strategy_registration_keeps_inflight_queries_bit_identical() {
    use tamp::query::physical::strategy::*;
    use tamp::query::QueryError;

    // A join candidate that is always priced out: registering it bumps
    // the catalog version and clears the plan cache, but can never change
    // the winning plan — so every query, on whatever snapshot generation
    // it started, must stay bit-identical to the serial ground truth.
    #[derive(Debug)]
    struct NeverWinsJoin;

    impl PhysicalStrategy for NeverWinsJoin {
        fn name(&self) -> &'static str {
            "never-wins"
        }
        fn operator(&self) -> OperatorKind {
            OperatorKind::Join
        }
        fn estimate(&self, _a: &PlanArgs<'_>) -> CostEstimate {
            CostEstimate {
                tuple_cost: 1e18,
                rounds: 1,
            }
        }
        fn trace(&self, _a: &ExecArgs<'_>, _input: OpInput) -> Result<OpTrace, QueryError> {
            unreachable!("estimate guarantees this candidate never wins")
        }
    }

    const REGISTRATIONS: usize = 12;
    let queries = workload();
    let serial: Vec<QueryResult> = queries
        .iter()
        .map(|q| serving_context().prepare(q).unwrap().run().unwrap())
        .collect();

    let backend = Arc::new(PooledClusterBackend::with_shared_pool(4));
    let service = QueryService::new(serving_context(), backend)
        .with_max_inflight(THREADS)
        .unwrap();

    std::thread::scope(|scope| {
        // One registrar thread racing the serving threads: each
        // register_strategy copy-on-writes the session snapshot, so
        // queries already planning/executing keep their generation.
        scope.spawn(|| {
            for _ in 0..REGISTRATIONS {
                service.register_strategy(Arc::new(NeverWinsJoin)).unwrap();
                std::thread::yield_now();
            }
        });
        for t in 0..THREADS {
            let (service, queries, serial) = (&service, &queries, &serial);
            scope.spawn(move || {
                for i in 0..QUERIES_PER_THREAD / 2 {
                    let k = (t + i) % queries.len();
                    let served = service.serve(&queries[k]).unwrap();
                    let want = &serial[k];
                    assert_eq!(
                        served.result.rows(false),
                        want.rows(false),
                        "thread {t} query {k}: rows diverged during registration race"
                    );
                    assert_eq!(
                        served.result.cost.edge_totals, want.cost.edge_totals,
                        "thread {t} query {k}: ledgers diverged during registration race"
                    );
                }
            });
        }
    });

    assert_eq!(service.catalog_version(), REGISTRATIONS as u64);
    assert_eq!(service.cache_stats().invalidations, REGISTRATIONS as u64);
    // Post-race sanity: the strategy is a priced (and losing) candidate.
    let join = &queries[0];
    let explain = service.explain(join).unwrap();
    assert!(explain.contains("never-wins"), "{explain}");
    let after = service.serve(join).unwrap();
    assert_eq!(after.result.rows(false), serial[0].rows(false));
    assert_eq!(after.result.cost.edge_totals, serial[0].cost.edge_totals);
}

#[test]
fn custom_strategy_registration_invalidates_the_cache() {
    use tamp::query::batch::{flatten_batches, BatchFragments};
    use tamp::query::physical::strategy::*;
    use tamp::query::row::Row;
    use tamp::query::QueryError;
    use tamp::simulator::Rel;

    // The module-docs example strategy: gather both sides onto one node.
    #[derive(Debug)]
    struct AllToOneJoin;

    impl PhysicalStrategy for AllToOneJoin {
        fn name(&self) -> &'static str {
            "all-to-one"
        }
        fn operator(&self) -> OperatorKind {
            OperatorKind::Join
        }
        fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
            let target = a.model.tree().compute_nodes()[0];
            let right = a.right.as_ref().expect("join has two inputs");
            let cost = a.model.gather_cost(&a.left.counts, a.left.width, target)
                + a.model.gather_cost(&right.counts, right.width, target);
            CostEstimate {
                tuple_cost: cost,
                rounds: 1,
            }
        }
        fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
            let (
                OpParams::Join {
                    left_key,
                    right_key,
                    left_width,
                    right_width,
                },
                Ok([left, right]),
            ) = (input.params, <[_; 2]>::try_from(input.inputs))
            else {
                unreachable!("registered for Join");
            };
            let target = a.tree.compute_nodes()[0];
            let mut trace = TraceBuilder::default();
            // Fragments index by node, each node holding column batches;
            // this strategy thinks in rows, so it transposes what it gathers.
            let mut l_all: Vec<Row> = Vec::new();
            let mut r_all: Vec<Row> = Vec::new();
            trace.round(|round| {
                for &v in a.tree.compute_nodes() {
                    for (rel, frags, width, all) in [
                        (Rel::R, &left, left_width, &mut l_all),
                        (Rel::S, &right, right_width, &mut r_all),
                    ] {
                        let batches = &frags[v.index()];
                        batches.iter().for_each(|b| b.append_rows(all));
                        if v != target {
                            round.send(v, &[target], rel, flatten_batches(batches, width));
                        }
                    }
                }
            });
            let mut joined: Vec<Row> = Vec::new();
            for l in &l_all {
                for r in r_all.iter().filter(|r| r[right_key] == l[left_key]) {
                    joined.push([&l[..], &r[..]].concat());
                }
            }
            let joined = RecordBatch::from_rows(&joined, left_width + right_width);
            let at_target = |v| (v == target.index()).then(|| joined.clone());
            Ok(OpTrace {
                rounds: trace.into_rounds(),
                output: BatchFragments::from_fn(a.tree.num_nodes(), at_target),
            })
        }
    }

    let service = QueryService::with_default_backend(serving_context());
    let q = LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g");
    let want = service.serve(&q).unwrap().result.rows(false);
    assert!(service.serve(&q).unwrap().stats.cache_hit);

    let version = service.register_strategy(Arc::new(AllToOneJoin)).unwrap();
    assert_eq!(version, 1);
    assert_eq!(service.cache_stats().entries, 0);

    // Replanned with the extra candidate priced in; rows unchanged.
    let after = service.serve(&q).unwrap();
    assert!(!after.stats.cache_hit);
    assert_eq!(after.result.rows(false), want);
    assert!(service.explain(&q).unwrap().contains("all-to-one"));

    // Forced, the example executes: same rows, everything gathered in
    // one round.
    let mut forced = serving_context().with_strategy(OperatorKind::Join, "all-to-one");
    forced.register_strategy(Arc::new(AllToOneJoin));
    let gathered = forced.prepare(&q).unwrap().run().unwrap();
    assert_eq!(gathered.rows(false), want);
    assert_eq!(gathered.rounds, 1);
}
