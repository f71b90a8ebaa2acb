//! A distributed analytics query on a heterogeneous cluster.
//!
//! The paper's introduction motivates its three tasks as "the essential
//! building blocks for evaluating any complex analytical query". This
//! example runs such a query end to end on the relational layer: a fact
//! table skewed onto a slow machine, joined with a dimension table,
//! filtered, grouped and sorted — with every shipped row charged on the
//! topology-aware cost functional, broken down per operator.
//!
//! ```text
//! cargo run --release --example sql_analytics
//! ```

use tamp::query::prelude::*;
use tamp::query::reference;
use tamp::topology::builders;

fn main() {
    // Six machines on a star; machine 0 sits behind a 0.5-unit link while
    // the rest enjoy 4-unit links.
    let tree = builders::heterogeneous_star(&[0.5, 4.0, 4.0, 4.0, 4.0, 4.0]);
    let heavy = tree.compute_nodes()[0];
    let mut catalog = Catalog::new(tree);

    // 5 000 order rows, 80% of them parked on the slow machine (say, the
    // node that ingested yesterday's batch).
    let orders: Vec<Vec<u64>> = (0..5_000)
        .map(|i| vec![i, i % 16, (i * 97) % 500, 1 + i % 9])
        .collect();
    catalog
        .register(DistributedTable::skewed(
            "orders",
            Schema::new(vec!["id", "product", "amount", "qty"]).unwrap(),
            orders,
            catalog.tree(),
            heavy,
            0.8,
        ))
        .unwrap();
    // A small product dimension, spread round-robin.
    let products: Vec<Vec<u64>> = (0..16).map(|p| vec![p, p % 4]).collect();
    catalog
        .register(DistributedTable::round_robin(
            "products",
            Schema::new(vec!["product", "category"]).unwrap(),
            products,
            catalog.tree(),
        ))
        .unwrap();

    // SELECT category, SUM(amount) FROM orders JOIN products USING (product)
    // WHERE amount > 250 GROUP BY category ORDER BY category;
    let query = LogicalPlan::scan("orders")
        .filter(col("amount").gt(lit(250)))
        .join_on(LogicalPlan::scan("products"), "product", "product")
        .aggregate("category", AggFunc::Sum, "amount")
        .order_by("category");
    println!("logical plan:\n{query}");
    let optimized = optimize(query.clone(), &catalog).unwrap();
    println!("optimized plan:\n{optimized}");

    // Engine selection goes through the runtime's spec hook: run with
    // e.g. `TAMP_BACKEND=pooled-cluster` (or `cluster:4`) to execute the
    // very same plans on the pooled BSP cluster — the metered ledgers are
    // bit-identical to the simulator's. A typo'd spec is a typed
    // `RuntimeError::UnknownBackend` whose message lists the valid specs
    // — surface it instead of silently falling back to a default engine.
    let spec = std::env::var("TAMP_BACKEND").unwrap_or_else(|_| "simulator".into());
    let backend = match tamp::runtime::backend_from_spec(&spec) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("TAMP_BACKEND: {e}");
            std::process::exit(2);
        }
    };
    println!("backend: {}", backend.name());

    for (label, forced) in [
        (
            "distribution-aware (weighted) join",
            Some("weighted-repartition"),
        ),
        (
            "topology-agnostic (uniform) join",
            Some("uniform-repartition"),
        ),
        ("auto (cost-based at plan time)", None),
    ] {
        let mut ctx = QueryContext::with_catalog(catalog.clone()).with_seed(7);
        if let Some(name) = forced {
            ctx = ctx.with_strategy(OperatorKind::Join, name);
        }
        let result = ctx
            .prepare(&optimized)
            .unwrap()
            .run_on(backend.as_ref())
            .unwrap();
        println!(
            "\n== {label}: total cost {:.1} tuples over {} rounds (planner estimate {:.1})",
            result.cost.tuple_cost(),
            result.rounds,
            result.estimated_cost,
        );
        println!("   {:<28} {:>10} {:>10}", "operator", "estimated", "actual");
        for oc in &result.operator_costs {
            println!(
                "   {:<28} {:>10.1} {:>10.1}",
                oc.op, oc.estimated, oc.actual
            );
        }
        // The distributed answer matches the single-node oracle.
        let want = reference::evaluate(&query, &catalog).unwrap();
        assert_eq!(result.rows(true), want, "distributed result mismatch");
    }
    println!("\nall strategies agree with the single-node reference — only the cost differs");
}
