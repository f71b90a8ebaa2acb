//! End-to-end validation of the relational layer: the distributed
//! executor must agree with the single-node reference evaluator on
//! randomized tables, plans, topologies and join strategies — and the
//! optimizer must never change an answer.

use proptest::prelude::*;
use tamp::query::prelude::*;
use tamp::query::reference;
use tamp::topology::builders;

fn make_catalog(tree_pick: u8, fact_rows: u64, groups: u64, skew_percent: u8) -> Catalog {
    let tree = match tree_pick % 4 {
        0 => builders::star(4, 1.0),
        1 => builders::heterogeneous_star(&[0.5, 2.0, 4.0, 4.0, 8.0]),
        2 => builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0),
        _ => builders::caterpillar(3, 2, 1.5),
    };
    let heavy = tree.compute_nodes()[0];
    let mut c = Catalog::new(tree);
    let rows: Vec<Vec<u64>> = (0..fact_rows)
        .map(|i| vec![i, i % groups.max(1), (i * 31) % 255])
        .collect();
    let schema = Schema::new(vec!["id", "g", "x"]).unwrap();
    let table = DistributedTable::skewed(
        "facts",
        schema,
        rows,
        c.tree(),
        heavy,
        f64::from(skew_percent % 101) / 100.0,
    );
    c.register(table).unwrap();
    let dims: Vec<Vec<u64>> = (0..groups.max(1)).map(|g| vec![g, g % 5]).collect();
    c.register(DistributedTable::round_robin(
        "dims",
        Schema::new(vec!["g", "tier"]).unwrap(),
        dims,
        c.tree(),
    ))
    .unwrap();
    c
}

fn plans(threshold: u64, limit: usize) -> Vec<LogicalPlan> {
    vec![
        LogicalPlan::scan("facts").filter(col("x").gt(lit(threshold))),
        LogicalPlan::scan("facts")
            .project(vec![("id", col("id")), ("double_x", col("x").mul(lit(2)))]),
        LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g"),
        LogicalPlan::scan("facts")
            .filter(col("x").gt(lit(threshold)))
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .aggregate("tier", AggFunc::Sum, "x"),
        LogicalPlan::scan("facts").order_by("x"),
        LogicalPlan::scan("facts").order_by("x").limit(limit),
        LogicalPlan::scan("facts").aggregate("g", AggFunc::Max, "x"),
        LogicalPlan::scan("dims").cross(LogicalPlan::scan("dims")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn distributed_matches_reference(
        tree_pick in 0u8..4,
        fact_rows in 1u64..120,
        groups in 1u64..10,
        skew in 0u8..101,
        threshold in 0u64..255,
        limit in 1usize..20,
        seed in 0u64..100,
        strat_pick in 0u8..4,
    ) {
        let mut ctx = QueryContext::with_catalog(make_catalog(tree_pick, fact_rows, groups, skew))
            .with_seed(seed);
        // The cost-based join choice, then the three commonly forced ones.
        let forced = [
            None,
            Some("weighted-repartition"),
            Some("uniform-repartition"),
            Some("broadcast-small"),
        ];
        if let Some(join) = forced[usize::from(strat_pick % 4)] {
            ctx = ctx.with_strategy(OperatorKind::Join, join);
        }
        for q in plans(threshold, limit) {
            let res = ctx.execute(&q).unwrap();
            let want = reference::evaluate(&q, ctx.catalog()).unwrap();
            let got = res.rows(reference::preserves_order(&q));
            prop_assert_eq!(got, want, "plan:\n{}", q);
        }
    }

    #[test]
    fn optimizer_preserves_semantics(
        tree_pick in 0u8..4,
        fact_rows in 1u64..100,
        groups in 1u64..8,
        threshold in 0u64..255,
        tier in 0u64..5,
    ) {
        let ctx = QueryContext::with_catalog(make_catalog(tree_pick, fact_rows, groups, 50));
        let q = LogicalPlan::scan("facts")
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .filter(col("x").gt(lit(threshold)).and(col("tier").eq(lit(tier))))
            .aggregate("tier", AggFunc::Count, "id");
        let opt = optimize(q.clone(), ctx.catalog()).unwrap();
        let a = ctx.execute(&q).unwrap();
        let b = ctx.execute(&opt).unwrap();
        prop_assert_eq!(a.rows(false), b.rows(false), "optimized:\n{}", opt);
    }
}

#[test]
fn query_costs_respect_primitive_bounds() {
    // A pure cross join's cost relates to the cartesian-product task; a
    // pure order-by to sorting. Sanity: each operator's metered cost is
    // positive once data actually moves, and attribution sums to total.
    let ctx = QueryContext::with_catalog(make_catalog(2, 200, 6, 70));
    let q = LogicalPlan::scan("facts")
        .join_on(LogicalPlan::scan("dims"), "g", "g")
        .order_by("x");
    let res = ctx.execute(&q).unwrap();
    let total: f64 = res.operator_costs.iter().map(|c| c.actual).sum();
    assert!((total - res.cost.tuple_cost()).abs() < 1e-9);
    let order_by = res
        .operator_costs
        .iter()
        .find(|c| c.op.starts_with("OrderBy"))
        .unwrap();
    assert!(order_by.actual > 0.0);
    // The planner priced the sort's exchange too.
    assert!(order_by.estimated > 0.0);
}
