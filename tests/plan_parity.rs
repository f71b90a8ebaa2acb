//! Planner correctness across execution paths.
//!
//! A prepared query's exchange schedule is derived once from the plan, so
//! the one-shot `QueryContext::execute`, a prepared query on the
//! simulator backend and the same prepared query on the pooled cluster
//! backend must produce **identical results and bit-identical metered
//! costs** — same `edge_totals`, same rounds, same rows — for random
//! tables, topologies, plans and join strategies.

use std::cell::Cell;

use proptest::prelude::*;
use tamp::query::prelude::*;
use tamp::query::reference;
use tamp::runtime::{
    backend_from_spec, ExecBackend, ExecError, ExecOutcome, PooledClusterBackend, ScheduleJob,
    SimulatorBackend,
};
use tamp::simulator::Placement;
use tamp::topology::{builders, Tree};
use tamp::workloads::{GraphSpec, PlacementStrategy, VertexPartition};
use tamp_bench::xalloc::strategy_matrix;

fn make_context(tree_pick: u8, fact_rows: u64, groups: u64, skew_percent: u8) -> QueryContext {
    let tree = match tree_pick % 4 {
        0 => builders::star(4, 1.0),
        1 => builders::heterogeneous_star(&[0.5, 2.0, 4.0, 4.0, 8.0]),
        2 => builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0),
        _ => builders::caterpillar(3, 2, 1.5),
    };
    let heavy = tree.compute_nodes()[0];
    let facts = DistributedTable::skewed(
        "facts",
        Schema::new(vec!["id", "g", "x"]).unwrap(),
        (0..fact_rows)
            .map(|i| vec![i, i % groups.max(1), (i * 31) % 255])
            .collect(),
        &tree,
        heavy,
        f64::from(skew_percent % 101) / 100.0,
    );
    let dims = DistributedTable::round_robin(
        "dims",
        Schema::new(vec!["g", "tier"]).unwrap(),
        (0..groups.max(1)).map(|g| vec![g, g % 5]).collect(),
        &tree,
    );
    let mut ctx = QueryContext::new(tree);
    ctx.register(facts).unwrap().register(dims).unwrap();
    ctx
}

fn plans(threshold: u64, limit: usize) -> Vec<LogicalPlan> {
    vec![
        LogicalPlan::scan("facts").filter(col("x").gt(lit(threshold))),
        LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g"),
        LogicalPlan::scan("facts")
            .filter(col("x").gt(lit(threshold)))
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .aggregate("tier", AggFunc::Sum, "x"),
        LogicalPlan::scan("facts").order_by("x").limit(limit),
        LogicalPlan::scan("facts")
            .project(vec![("g", col("g")), ("x", col("x"))])
            .distinct(),
        LogicalPlan::scan("dims").cross(LogicalPlan::scan("dims")),
        LogicalPlan::scan("facts")
            .aggregate("g", AggFunc::Max, "x")
            .order_by("g"),
    ]
}

/// The cost-based join choice, then every built-in forced.
const FORCED_JOINS: [Option<&str>; 5] = [
    None,
    Some("weighted-repartition"),
    Some("uniform-repartition"),
    Some("broadcast-small"),
    Some("tree-partition"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random plans produce identical rows and bit-identical ledgers on
    /// every execution path.
    #[test]
    fn execution_paths_agree_bit_identically(
        tree_pick in 0u8..4,
        fact_rows in 1u64..120,
        groups in 1u64..10,
        skew in 0u8..101,
        threshold in 0u64..255,
        limit in 1usize..20,
        seed in 0u64..100,
        strat_pick in 0usize..FORCED_JOINS.len(),
    ) {
        let mut ctx = make_context(tree_pick, fact_rows, groups, skew).with_seed(seed);
        if let Some(join) = FORCED_JOINS[strat_pick] {
            ctx = ctx.with_strategy(OperatorKind::Join, join);
        }
        for q in plans(threshold, limit) {
            let ord = reference::preserves_order(&q);
            let want = reference::evaluate(&q, ctx.catalog()).unwrap();

            // Path 1: the one-shot session call.
            let legacy = ctx.execute(&q).unwrap();
            // Path 2: prepared query on the simulator backend.
            let prepared = ctx.prepare(&q).unwrap();
            let sim = prepared.run().unwrap();
            // Path 3: the same prepared query on the pooled cluster.
            let cluster = prepared.run_on(&PooledClusterBackend::default()).unwrap();

            prop_assert_eq!(&legacy.rows(ord), &want, "legacy vs reference, plan:\n{}", q);
            prop_assert_eq!(&sim.rows(ord), &want, "sim vs reference, plan:\n{}", q);
            prop_assert_eq!(&cluster.rows(ord), &want, "cluster vs reference, plan:\n{}", q);

            prop_assert_eq!(&legacy.cost.edge_totals, &sim.cost.edge_totals, "plan:\n{}", q);
            prop_assert_eq!(&sim.cost.edge_totals, &cluster.cost.edge_totals, "plan:\n{}", q);
            prop_assert_eq!(legacy.rounds, sim.rounds, "plan:\n{}", q);
            prop_assert_eq!(sim.rounds, cluster.rounds, "plan:\n{}", q);
            let eps = 1e-9;
            prop_assert!((legacy.cost.tuple_cost() - cluster.cost.tuple_cost()).abs() < eps);
        }
    }
}

/// `base`'s catalog under `seed` with `op` pinned to strategy `name`.
/// `distinct` and `limit` have one strategy each, so there is nothing to
/// pin.
fn forced(base: &QueryContext, seed: u64, op: OperatorKind, name: &'static str) -> QueryContext {
    let ctx = QueryContext::with_catalog(base.catalog().clone()).with_seed(seed);
    match op {
        OperatorKind::Distinct | OperatorKind::Limit => ctx,
        _ => ctx.with_strategy(op, name),
    }
}

/// A backend that remembers the checkpoint token of the job it ran: for a
/// prepared query that is the content hash of its whole exchange schedule
/// — every send's source, destinations, relation and payload, in order.
struct TokenSpy<B> {
    inner: B,
    token: Cell<Option<u64>>,
}

impl<B: ExecBackend> TokenSpy<B> {
    fn new(inner: B) -> Self {
        TokenSpy {
            inner,
            token: Cell::new(None),
        }
    }

    /// Run `prepared` and return its result with its schedule hash.
    fn run(&self, prepared: &PreparedQuery<'_>) -> (QueryResult, u64) {
        let result = prepared.run_on(self).unwrap();
        (
            result,
            self.token.take().expect("schedule jobs have a token"),
        )
    }
}

impl<B: ExecBackend> ExecBackend for TokenSpy<B> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn execute(
        &self,
        tree: &Tree,
        placement: &Placement,
        job: &ScheduleJob,
    ) -> Result<ExecOutcome, ExecError> {
        self.token.set(Some(job.checkpoint_token()));
        self.inner.execute(tree, placement, job)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every registered strategy — the paper algorithms included —
    /// produces correct rows and a bit-identical metered ledger on the
    /// simulator and the pooled cluster, over random trees and catalogs.
    #[test]
    fn strategy_executed_plans_are_backend_identical(
        tree_pick in 0u8..4,
        fact_rows in 1u64..100,
        groups in 1u64..10,
        skew in 0u8..101,
        seed in 0u64..50,
    ) {
        let base = make_context(tree_pick, fact_rows, groups, skew);
        for (op, name, q) in strategy_matrix() {
            let ctx = forced(&base, seed, op, name);
            let prepared = ctx.prepare(&q).unwrap();
            // The forced strategy is the one in the plan.
            let forced_in_plan = plan_uses(prepared.physical_plan(), name);
            prop_assert!(forced_in_plan, "{op} {name} not in plan:\n{}", prepared.physical_plan());

            let want = reference::evaluate(&q, ctx.catalog()).unwrap();
            let ord = reference::preserves_order(&q);
            let sim = prepared.run().unwrap();
            let cluster = prepared.run_on(&PooledClusterBackend::default()).unwrap();
            prop_assert_eq!(&sim.rows(ord), &want, "{} {} vs reference", op, name);
            prop_assert_eq!(&cluster.rows(ord), &want, "{} {} cluster vs reference", op, name);
            prop_assert_eq!(
                &sim.cost.edge_totals, &cluster.cost.edge_totals,
                "{} {} ledgers differ", op, name
            );
            prop_assert_eq!(sim.rounds, cluster.rounds);
        }
    }

    /// On decisive scenarios — a tiny build side, fully co-located
    /// inputs, skew parked behind fat links — the registry's cost-based
    /// winner meters no worse than any forced candidate.
    #[test]
    fn registry_winner_is_metered_optimal_on_decisive_scenarios(
        fact_rows in 200u64..500,
        dim_rows in 1u64..8,
        seed in 0u64..50,
    ) {
        // Family 1: tiny dimension table on a uniform star (join).
        let tree = builders::star(5, 1.0);
        let mut ctx = QueryContext::new(tree).with_seed(seed);
        ctx.register(DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            (0..fact_rows).map(|i| vec![i, i % dim_rows, i * 3]).collect(),
            ctx.tree(),
        )).unwrap();
        ctx.register(DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            (0..dim_rows).map(|g| vec![g, g % 3]).collect(),
            ctx.tree(),
        )).unwrap();
        let q = LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g");
        assert_winner_optimal(&ctx, &q, OperatorKind::Join, &[
            "weighted-repartition", "tree-partition", "broadcast-small", "uniform-repartition",
        ])?;

        // Family 2: both sides co-located behind a thin link (join).
        let tree = builders::heterogeneous_star(&[0.5, 4.0, 4.0, 4.0]);
        let heavy = tree.compute_nodes()[0];
        let mut ctx = QueryContext::new(tree).with_seed(seed);
        ctx.register(DistributedTable::single_node(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            (0..fact_rows).map(|i| vec![i, i % 5, i]).collect(),
            ctx.tree(),
            heavy,
        )).unwrap();
        ctx.register(DistributedTable::single_node(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            (0..40).map(|g| vec![g % 5, g]).collect(),
            ctx.tree(),
            heavy,
        )).unwrap();
        let q = LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g");
        assert_winner_optimal(&ctx, &q, OperatorKind::Join, &[
            "weighted-repartition", "tree-partition", "broadcast-small", "uniform-repartition",
        ])?;

        // Family 3: one tiny cross-join side (broadcast is unbeatable).
        let q = LogicalPlan::scan("dims").cross(LogicalPlan::scan("dims"));
        assert_winner_optimal(&ctx, &q, OperatorKind::CrossJoin, &[
            "whc-grid", "broadcast-small", "uniform-hypercube",
        ])?;

        // Family 4: sort with data parked behind fat links — uniform
        // splitters must push ~N/k over the thin link.
        let tree = builders::heterogeneous_star(&[8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 0.25]);
        let heavy = tree.compute_nodes()[0];
        let mut ctx = QueryContext::new(tree).with_seed(seed);
        ctx.register(DistributedTable::skewed(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            (0..fact_rows).map(|i| vec![i, i % 9, (i * 37) % 4096]).collect(),
            ctx.tree(),
            heavy,
            0.6,
        )).unwrap();
        let q = LogicalPlan::scan("facts").order_by("x");
        assert_winner_optimal(&ctx, &q, OperatorKind::Sort, &[
            "weighted-range-shuffle", "uniform-range-shuffle",
        ])?;
    }
}

/// Whether any exchange in the plan uses strategy `name`.
fn plan_uses(plan: &PhysicalPlan, name: &str) -> bool {
    if plan.exchange().is_some_and(|x| x.name() == name) {
        return true;
    }
    plan.children().iter().any(|c| plan_uses(c, name))
}

/// The auto-picked strategy's metered cost is ≤ every forced candidate's
/// metered cost (same seed ⇒ same traffic per strategy).
fn assert_winner_optimal(
    ctx: &QueryContext,
    q: &LogicalPlan,
    op: OperatorKind,
    names: &[&'static str],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let auto = ctx.prepare(q).unwrap().run().unwrap().cost.tuple_cost();
    for &name in names {
        let forced = QueryContext::with_catalog(ctx.catalog().clone())
            .with_seed(ctx.options().seed)
            .with_strategy(op, name)
            .prepare(q)
            .unwrap()
            .run()
            .unwrap()
            .cost
            .tuple_cost();
        prop_assert!(
            auto <= forced + 1e-9,
            "auto {auto} beats forced {name} {forced}?"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Determinism, for every registered strategy: the rows equal the
    /// reference, `edge_totals` and the round count do not move with the
    /// backend, and the schedule content hash (the checkpoint token: every
    /// send, payload and order) is the same for two fresh preparations
    /// and on both backends.
    #[test]
    fn exchanges_are_deterministic_and_backend_identical(
        tree_pick in 0u8..4,
        fact_rows in 1u64..100,
        groups in 1u64..10,
        skew in 0u8..101,
        seed in 0u64..50,
    ) {
        let base = make_context(tree_pick, fact_rows, groups, skew);
        let sim_spy = TokenSpy::new(SimulatorBackend);
        let cluster_spy = TokenSpy::new(PooledClusterBackend::default());
        for (op, name, q) in strategy_matrix() {
            let ord = reference::preserves_order(&q);
            let want = reference::evaluate(&q, base.catalog()).unwrap();
            let fresh = || forced(&base, seed, op, name);
            let ctx = fresh();
            let prepared = ctx.prepare(&q).unwrap();
            let (sim, sim_hash) = sim_spy.run(&prepared);
            let (cluster, cluster_hash) = cluster_spy.run(&prepared);
            let (_, again_hash) = sim_spy.run(&fresh().prepare(&q).unwrap());
            prop_assert_eq!(&sim.rows(ord), &want, "{} {} rows differ\n{}", op, name, q);
            prop_assert_eq!(
                &cluster.rows(ord), &want,
                "{} {} cluster rows differ\n{}", op, name, q
            );
            prop_assert_eq!(
                &cluster.cost.edge_totals, &sim.cost.edge_totals,
                "{} {} cluster ledgers differ\n{}", op, name, q
            );
            prop_assert_eq!(cluster.rounds, sim.rounds);
            prop_assert_eq!(
                sim_hash, again_hash,
                "{} {} schedule is not deterministic\n{}", op, name, q
            );
            prop_assert_eq!(cluster_hash, sim_hash);
        }
    }
}

/// `(operator, strategy, rounds, edge_totals)` of every
/// [`strategy_matrix`] entry, in its order, on `make_context(2, 90, 6, 60)`
/// under seed 3 — recorded from the row-at-a-time engine these strategies
/// were first written for, before it was deleted. What a strategy sends
/// is its contract: a change that
/// moves a row here is either deliberate (edit the row in the same
/// change) or a bug.
const PINNED_LEDGERS: [(&str, &str, usize, [u64; 14]); 32] = [
    (
        "join",
        "weighted-repartition",
        2,
        [36, 72, 56, 81, 38, 20, 0, 29, 72, 36, 45, 27, 45, 27],
    ),
    (
        "join",
        "tree-partition",
        1,
        [4, 8, 8, 4, 10, 2, 10, 2, 8, 4, 10, 2, 10, 2],
    ),
    (
        "join",
        "broadcast-small",
        1,
        [4, 8, 8, 4, 10, 2, 10, 2, 8, 4, 10, 2, 10, 2],
    ),
    (
        "join",
        "uniform-repartition",
        2,
        [49, 38, 60, 85, 0, 29, 85, 20, 38, 49, 38, 20, 0, 29],
    ),
    (
        "cross-join",
        "whc-grid",
        1,
        [0, 16, 0, 8, 0, 4, 0, 4, 16, 0, 20, 0, 0, 4],
    ),
    (
        "cross-join",
        "whc-grid",
        1,
        [58, 200, 86, 166, 0, 29, 0, 29, 200, 58, 202, 29, 0, 29],
    ),
    (
        "cross-join",
        "whc-grid",
        1,
        [58, 200, 56, 166, 40, 29, 0, 29, 200, 58, 106, 29, 106, 29],
    ),
    (
        "cross-join",
        "broadcast-small",
        1,
        [4, 8, 8, 4, 10, 2, 10, 2, 8, 4, 10, 2, 10, 2],
    ),
    (
        "cross-join",
        "broadcast-small",
        1,
        [4, 8, 8, 4, 10, 2, 10, 2, 8, 4, 10, 2, 10, 2],
    ),
    (
        "cross-join",
        "broadcast-small",
        1,
        [4, 8, 8, 4, 10, 2, 10, 2, 8, 4, 10, 2, 10, 2],
    ),
    (
        "cross-join",
        "uniform-hypercube",
        1,
        [8, 4, 4, 8, 10, 4, 10, 4, 4, 8, 8, 4, 0, 4],
    ),
    (
        "cross-join",
        "uniform-hypercube",
        1,
        [58, 83, 2, 166, 141, 29, 114, 29, 83, 58, 112, 29, 0, 29],
    ),
    (
        "cross-join",
        "uniform-hypercube",
        1,
        [58, 83, 2, 166, 112, 29, 139, 29, 83, 58, 112, 29, 0, 29],
    ),
    (
        "sort",
        "weighted-range-shuffle",
        3,
        [54, 43, 96, 67, 31, 36, 31, 36, 43, 54, 28, 33, 28, 30],
    ),
    (
        "sort",
        "weighted-range-shuffle",
        3,
        [54, 76, 90, 85, 49, 36, 4, 36, 76, 54, 40, 27, 40, 27],
    ),
    (
        "sort",
        "uniform-range-shuffle",
        3,
        [42, 85, 54, 133, 58, 36, 55, 33, 85, 42, 46, 24, 46, 21],
    ),
    (
        "sort",
        "uniform-range-shuffle",
        3,
        [45, 112, 54, 139, 49, 36, 49, 36, 112, 45, 49, 36, 85, 27],
    ),
    (
        "aggregate",
        "weighted-repartition",
        1,
        [12, 0, 16, 4, 4, 4, 6, 6, 0, 12, 0, 6, 0, 6],
    ),
    (
        "aggregate",
        "weighted-repartition",
        1,
        [12, 0, 16, 4, 4, 4, 6, 6, 0, 12, 0, 6, 0, 6],
    ),
    (
        "aggregate",
        "weighted-repartition",
        1,
        [12, 0, 16, 4, 4, 4, 6, 6, 0, 12, 0, 6, 0, 6],
    ),
    (
        "aggregate",
        "weighted-repartition",
        1,
        [12, 0, 16, 4, 4, 4, 6, 6, 0, 12, 0, 6, 0, 6],
    ),
    (
        "aggregate",
        "combining-tree",
        3,
        [12, 0, 12, 0, 18, 12, 0, 6, 0, 12, 6, 12, 0, 6],
    ),
    (
        "aggregate",
        "combining-tree",
        3,
        [12, 0, 12, 0, 18, 12, 0, 6, 0, 12, 6, 12, 0, 6],
    ),
    (
        "aggregate",
        "combining-tree",
        3,
        [12, 0, 12, 0, 18, 12, 0, 6, 0, 12, 6, 12, 0, 6],
    ),
    (
        "aggregate",
        "combining-tree",
        3,
        [12, 0, 12, 0, 18, 12, 0, 6, 0, 12, 6, 12, 0, 6],
    ),
    (
        "aggregate",
        "uniform-repartition",
        1,
        [10, 4, 12, 6, 0, 6, 10, 4, 4, 10, 4, 4, 0, 6],
    ),
    (
        "aggregate",
        "uniform-repartition",
        1,
        [10, 4, 12, 6, 0, 6, 10, 4, 4, 10, 4, 4, 0, 6],
    ),
    (
        "aggregate",
        "uniform-repartition",
        1,
        [10, 4, 12, 6, 0, 6, 10, 4, 4, 10, 4, 4, 0, 6],
    ),
    (
        "aggregate",
        "uniform-repartition",
        1,
        [10, 4, 12, 6, 0, 6, 10, 4, 4, 10, 4, 4, 0, 6],
    ),
    (
        "limit",
        "gather",
        4,
        [96, 43, 180, 67, 31, 57, 31, 57, 43, 96, 28, 54, 28, 51],
    ),
    (
        "limit",
        "gather",
        1,
        [42, 0, 84, 0, 0, 21, 0, 21, 0, 42, 0, 21, 0, 21],
    ),
    (
        "distinct",
        "weighted-repartition",
        1,
        [26, 8, 30, 20, 14, 16, 22, 12, 8, 26, 0, 18, 12, 12],
    ),
];

#[test]
fn strategy_ledgers_match_the_pinned_table() {
    let base = make_context(2, 90, 6, 60);
    let matrix = strategy_matrix();
    assert_eq!(matrix.len(), PINNED_LEDGERS.len());
    for ((op, name, q), (pinned_op, pinned_name, rounds, totals)) in
        matrix.into_iter().zip(PINNED_LEDGERS)
    {
        assert_eq!((op.name(), name), (pinned_op, pinned_name));
        let res = forced(&base, 3, op, name)
            .prepare(&q)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            (res.rounds, &res.cost.edge_totals[..]),
            (rounds, &totals[..]),
            "{op} {name} moved its ledger\n{q}"
        );
    }
}

fn parity_tree(tree_pick: u8) -> Tree {
    match tree_pick % 4 {
        0 => builders::star(4, 1.0),
        1 => builders::heterogeneous_star(&[0.5, 2.0, 4.0, 4.0, 8.0]),
        2 => builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0),
        _ => builders::caterpillar(3, 2, 1.5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Iterative fixpoint jobs — PageRank (Jacobi), BFS and connected
    /// components (frontier/delta) — replay their prepared
    /// width-invariant schedule bit-identically on both backends: same
    /// `edge_totals`, same per-iteration metered costs, same converged
    /// values. The cluster adds exactly its one terminal barrier
    /// superstep.
    #[test]
    fn iterative_jobs_are_backend_identical(
        tree_pick in 0u8..4,
        graph_pick in 0u8..3,
        part_pick in 0u8..3,
        algo_pick in 0u8..3,
        seed in 0u64..100,
    ) {
        let tree = parity_tree(tree_pick);
        let spec = match graph_pick % 3 {
            0 => GraphSpec::uniform(40, 140),
            1 => GraphSpec::power_law(48, 200, 1.1),
            _ => GraphSpec::grid(6, 7),
        };
        let g = spec.generate(seed);
        let part = match part_pick % 3 {
            0 => VertexPartition::Hash,
            1 => VertexPartition::Blocked(PlacementStrategy::Uniform),
            _ => VertexPartition::Blocked(PlacementStrategy::ProportionalToBandwidth),
        };
        let owners = part.owners(&tree, &g, seed);
        let job = match algo_pick % 3 {
            0 => IterativeJob::pagerank(
                g.arcs().to_vec(), owners, 0.5, IterativeSpec::jacobi(30, 1e-3),
            ),
            1 => IterativeJob::bfs(
                g.arcs().to_vec(), owners, 0, IterativeSpec::frontier(64, 0.0),
            ),
            _ => IterativeJob::connected_components(
                g.arcs().to_vec(), owners, IterativeSpec::frontier(64, 0.0),
            ),
        };
        let prepared = job.prepare(&tree).unwrap();
        let sim = prepared.run(&tree).unwrap();
        let cluster = prepared.run_on(&tree, &PooledClusterBackend::default()).unwrap();

        prop_assert_eq!(&sim.cost.edge_totals, &cluster.cost.edge_totals);
        prop_assert_eq!(&sim.iterations, &cluster.iterations);
        prop_assert_eq!(&sim.values, &cluster.values);
        prop_assert_eq!(sim.rounds, cluster.rounds);
        prop_assert_eq!(cluster.supersteps, sim.supersteps + 1);
    }
}

/// The spec-based backend selection hook resolves engines that execute
/// prepared queries interchangeably.
#[test]
fn spec_selected_backends_agree() {
    let ctx = make_context(2, 90, 6, 60).with_seed(3);
    let q = LogicalPlan::scan("facts")
        .join_on(LogicalPlan::scan("dims"), "g", "g")
        .aggregate("tier", AggFunc::Count, "id");
    let prepared = ctx.prepare(&q).unwrap();
    let mut ledgers = Vec::new();
    for spec in ["simulator", "pooled-cluster", "cluster:2"] {
        let backend = backend_from_spec(spec).unwrap();
        let res = prepared.run_on(backend.as_ref()).unwrap();
        ledgers.push((spec, res.cost.edge_totals.clone(), res.rows(false)));
    }
    for pair in ledgers.windows(2) {
        assert_eq!(pair[0].1, pair[1].1, "{} vs {}", pair[0].0, pair[1].0);
        assert_eq!(pair[0].2, pair[1].2, "{} vs {}", pair[0].0, pair[1].0);
    }
}

/// The three x-serve plans (`crates/bench/src/serving.rs`), over the
/// `grps` table [`explain_context`] adds.
fn serving_plans() -> [LogicalPlan; 3] {
    [
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

/// The pinned instance (`make_context(2, 90, 6, 60)`) plus a `grps`
/// table keyed by `dims.tier`, for the serving plans.
fn explain_context() -> QueryContext {
    let mut ctx = make_context(2, 90, 6, 60);
    let grps = DistributedTable::round_robin(
        "grps",
        Schema::new(vec!["tier", "band"]).unwrap(),
        (0..5).map(|t| vec![t, t % 4]).collect(),
        ctx.tree(),
    );
    ctx.register(grps).unwrap();
    ctx
}

/// EXPLAIN, byte for byte: every [`plans`] entry under the cost-based
/// choice, every [`strategy_matrix`] entry under its forced strategy and
/// the three serving plans, on one fixed tree and catalog under seed 3,
/// against the checked-in `golden/explain.txt`. Labels, candidate
/// listings, estimates, lower bounds and row estimates are all in the
/// text, so a planner change that moves any of them fails here.
#[test]
fn explain_text_matches_the_golden_fixture() {
    let base = explain_context();
    let mut sections = Vec::new();
    let auto = QueryContext::with_catalog(base.catalog().clone()).with_seed(3);
    for (i, q) in plans(100, 7).iter().enumerate() {
        sections.push((format!("plans[{i}]"), auto.prepare(q).unwrap().explain()));
    }
    for (i, (op, name, q)) in strategy_matrix().into_iter().enumerate() {
        let ctx = forced(&base, 3, op, name);
        let text = ctx.prepare(&q).unwrap().explain();
        sections.push((format!("strategy_matrix[{i}] {op} {name}"), text));
    }
    for (i, q) in serving_plans().iter().enumerate() {
        sections.push((format!("serving[{i}]"), auto.prepare(q).unwrap().explain()));
    }
    let got: String = sections
        .iter()
        .map(|(title, text)| format!("== {title}\n{text}\n"))
        .collect();
    let want = include_str!("golden/explain.txt");
    for ((g, w), n) in got.lines().zip(want.lines()).zip(1..) {
        assert_eq!(g, w, "golden/explain.txt line {n}");
    }
    assert_eq!(got, want, "golden/explain.txt length");
}
