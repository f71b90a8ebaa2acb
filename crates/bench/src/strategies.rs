//! X-STRATEGY — the pluggable-strategy planner, measured.
//!
//! For each strategy-pluggable operator (join, cross-join, sort,
//! aggregate) and a set of *decisive* scenarios — environments where the
//! paper predicts a clear winner — every registered candidate runs
//! forced, and the table juxtaposes its plan-time estimate, its metered
//! cost, the task's per-edge lower bound and the Table-1 ratio
//! `metered / LB`. The `picked` column marks the strategy the cost-based
//! planner chose on its own; `auto≤best` asserts the headline property:
//! the auto-picked strategy's metered cost is never worse than any
//! forced alternative on these scenarios.

use tamp_query::prelude::*;
use tamp_topology::builders;

use crate::table::{fnum, Table};

/// One decisive scenario: a catalog, a single-exchange query, and the
/// operator whose candidates are under test.
struct Scenario {
    name: &'static str,
    catalog: Catalog,
    query: LogicalPlan,
    op: OperatorKind,
    /// Label prefix of the operator under test in the physical plan.
    label: &'static str,
}

fn facts_schema() -> Schema {
    Schema::new(vec!["id", "g", "x"]).unwrap()
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();

    // JOIN 1: tiny dimension table on a uniform star — broadcast wins.
    {
        let tree = builders::star(6, 1.0);
        let mut c = Catalog::new(tree);
        c.register(DistributedTable::round_robin(
            "big",
            facts_schema(),
            (0..600).map(|i| vec![i, i % 8, i * 2]).collect(),
            c.tree(),
        ))
        .unwrap();
        c.register(DistributedTable::round_robin(
            "small",
            Schema::new(vec!["g", "tier"]).unwrap(),
            (0..8).map(|g| vec![g, g % 3]).collect(),
            c.tree(),
        ))
        .unwrap();
        out.push(Scenario {
            name: "join: tiny-dim / uniform star",
            catalog: c,
            query: LogicalPlan::scan("big").join_on(LogicalPlan::scan("small"), "g", "g"),
            op: OperatorKind::Join,
            label: "HashJoin",
        });
    }

    // JOIN 2: both sides co-located behind a thin link — the weighted
    // repartition moves (almost) nothing.
    {
        let tree = builders::heterogeneous_star(&[0.5, 4.0, 4.0, 4.0, 4.0, 4.0]);
        let heavy = tree.compute_nodes()[0];
        let mut c = Catalog::new(tree);
        c.register(DistributedTable::single_node(
            "big",
            facts_schema(),
            (0..500).map(|i| vec![i, i % 6, i * 2]).collect(),
            c.tree(),
            heavy,
        ))
        .unwrap();
        c.register(DistributedTable::single_node(
            "small",
            Schema::new(vec!["g", "y"]).unwrap(),
            (0..300).map(|i| vec![i % 6, i]).collect(),
            c.tree(),
            heavy,
        ))
        .unwrap();
        out.push(Scenario {
            name: "join: co-located skew / thin link",
            catalog: c,
            query: LogicalPlan::scan("big").join_on(LogicalPlan::scan("small"), "g", "g"),
            op: OperatorKind::Join,
            label: "HashJoin",
        });
    }

    // CROSS 1: heterogeneous star, balanced mid-size sides — the wHC
    // rectangles size each node's share to its link.
    {
        let tree = builders::heterogeneous_star(&[8.0, 4.0, 2.0, 1.0, 1.0, 0.5]);
        let mut c = Catalog::new(tree);
        c.register(DistributedTable::round_robin(
            "a",
            Schema::new(vec!["u"]).unwrap(),
            (0..240).map(|i| vec![i]).collect(),
            c.tree(),
        ))
        .unwrap();
        c.register(DistributedTable::round_robin(
            "b",
            Schema::new(vec!["v"]).unwrap(),
            (0..240).map(|i| vec![1000 + i]).collect(),
            c.tree(),
        ))
        .unwrap();
        out.push(Scenario {
            name: "cross: balanced sides / hetero star",
            catalog: c,
            query: LogicalPlan::scan("a").cross(LogicalPlan::scan("b")),
            op: OperatorKind::CrossJoin,
            label: "CrossJoin",
        });
    }

    // CROSS 2: one tiny side — broadcasting it is unbeatable.
    {
        let tree = builders::star(5, 1.0);
        let mut c = Catalog::new(tree);
        c.register(DistributedTable::round_robin(
            "a",
            Schema::new(vec!["u"]).unwrap(),
            (0..400).map(|i| vec![i]).collect(),
            c.tree(),
        ))
        .unwrap();
        c.register(DistributedTable::round_robin(
            "b",
            Schema::new(vec!["v"]).unwrap(),
            (0..6).map(|i| vec![1000 + i]).collect(),
            c.tree(),
        ))
        .unwrap();
        out.push(Scenario {
            name: "cross: tiny side / uniform star",
            catalog: c,
            query: LogicalPlan::scan("a").cross(LogicalPlan::scan("b")),
            op: OperatorKind::CrossJoin,
            label: "CrossJoin",
        });
    }

    // SORT: data parked behind the fat links of a heterogeneous star —
    // proportional splitters keep it there, uniform splitters force
    // N/k over the thin link.
    {
        let tree = builders::heterogeneous_star(&[8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 0.25]);
        let heavy = tree.compute_nodes()[0];
        let mut c = Catalog::new(tree);
        c.register(DistributedTable::skewed(
            "t",
            facts_schema(),
            (0..800).map(|i| vec![i, i % 9, (i * 37) % 4096]).collect(),
            c.tree(),
            heavy,
            0.6,
        ))
        .unwrap();
        out.push(Scenario {
            name: "sort: data behind fat links",
            catalog: c,
            query: LogicalPlan::scan("t").order_by("x"),
            op: OperatorKind::Sort,
            label: "OrderBy",
        });
    }

    // AGGREGATE: three racks behind thin uplinks, every node holding the
    // same few groups — in-network combining crosses each uplink once
    // per group.
    {
        let tree = builders::rack_tree(&[(4, 4.0, 0.25), (4, 4.0, 0.25), (4, 4.0, 0.25)], 1.0);
        let mut c = Catalog::new(tree);
        // Hash the group key so round-robin placement leaves (almost)
        // every group present at every node — the regime where
        // in-network combining beats shipping per-(node, group) partials
        // over the thin uplinks.
        let mut rows = Vec::new();
        for i in 0..720u64 {
            rows.push(vec![i, tamp_core::hashing::mix64(i) % 24, (i * 13) % 100]);
        }
        c.register(DistributedTable::round_robin(
            "t",
            facts_schema(),
            rows,
            c.tree(),
        ))
        .unwrap();
        out.push(Scenario {
            name: "aggregate: thin-uplink racks",
            catalog: c,
            query: LogicalPlan::scan("t").aggregate("g", AggFunc::Sum, "x"),
            op: OperatorKind::Aggregate,
            label: "Aggregate",
        });
    }

    out
}

/// The first exchange whose operator label starts with `prefix`
/// (post-order walk).
fn find_exchange<'p>(plan: &'p PhysicalPlan, prefix: &str) -> Option<&'p Exchange> {
    for child in plan.children() {
        if let Some(x) = find_exchange(child, prefix) {
            return Some(x);
        }
    }
    if plan.label.starts_with(prefix) {
        return plan.exchange();
    }
    None
}

/// X-STRATEGY — every registered candidate per operator: estimate,
/// metered cost, lower bound, Table-1 ratio, and the auto choice.
pub(crate) fn x_strategy() -> Vec<Table> {
    let mut t = Table::new(
        "X-STRATEGY  pluggable operator strategies: estimate vs metered vs lower bound",
        &[
            "scenario",
            "strategy",
            "est",
            "metered",
            "LB",
            "metered/LB",
            "picked",
            "auto\u{2264}best",
        ],
    );
    for sc in scenarios() {
        let seed = 5u64;
        let auto_ctx = QueryContext::with_catalog(sc.catalog.clone()).with_seed(seed);
        let auto_prepared = auto_ctx.prepare(&sc.query).unwrap();
        let auto_exchange = find_exchange(auto_prepared.physical_plan(), sc.label)
            .unwrap_or_else(|| panic!("{}: no {} exchange", sc.name, sc.label));
        let picked = auto_exchange.name();
        let lb = auto_exchange.lower_bound.map(|b| b.value());
        let auto_metered = auto_prepared.run().unwrap().cost.tuple_cost();

        let names: Vec<&'static str> = auto_ctx
            .strategies()
            .candidates(sc.op)
            .iter()
            .map(|s| s.name())
            .collect();
        let mut best_forced = f64::INFINITY;
        let mut rows = Vec::new();
        for name in names {
            let ctx = QueryContext::with_catalog(sc.catalog.clone())
                .with_seed(seed)
                .with_strategy(sc.op, name);
            let prepared = ctx.prepare(&sc.query).unwrap();
            let x = find_exchange(prepared.physical_plan(), sc.label).unwrap();
            let est = x.estimate.tuple_cost;
            let metered = prepared.run().unwrap().cost.tuple_cost();
            best_forced = best_forced.min(metered);
            rows.push((name, est, metered));
        }
        for (name, est, metered) in rows {
            t.row(vec![
                sc.name.into(),
                name.into(),
                fnum(est),
                fnum(metered),
                lb.map_or("-".into(), fnum),
                lb.map_or("-".into(), |lb| fnum(tamp_core::ratio::ratio(metered, lb))),
                if name == picked {
                    "*".into()
                } else {
                    String::new()
                },
                if name == picked {
                    if auto_metered <= best_forced + 1e-9 {
                        "yes".into()
                    } else {
                        "NO".into()
                    }
                } else {
                    String::new()
                },
            ]);
        }
    }
    t.note(
        "Expected shape: on every decisive scenario the auto-picked strategy's metered \
         cost matches the best forced candidate (auto\u{2264}best = yes), and the winner's \
         metered/LB ratio stays within a small constant — the paper's Table-1 claim \
         surfaced per query operator.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_matches_best_forced_on_every_decisive_scenario() {
        let tables = x_strategy();
        let t = &tables[0];
        let mut picked_rows = 0;
        for i in 0..t.num_rows() {
            if t.cell(i, 6) == "*" {
                picked_rows += 1;
                assert_eq!(t.cell(i, 7), "yes", "scenario {}", t.cell(i, 0));
            }
        }
        // One auto pick per scenario.
        assert_eq!(picked_rows, 6);
    }

    #[test]
    fn every_operator_lists_at_least_two_candidates() {
        let tables = x_strategy();
        let t = &tables[0];
        for scenario in [
            "join: tiny-dim / uniform star",
            "cross: balanced sides / hetero star",
            "sort: data behind fat links",
            "aggregate: thin-uplink racks",
        ] {
            let n = (0..t.num_rows())
                .filter(|&i| t.cell(i, 0) == scenario)
                .count();
            assert!(n >= 2, "{scenario}: {n} candidates");
        }
    }
}
