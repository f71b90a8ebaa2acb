//! Experiments for the repository's extensions beyond the paper's three
//! tasks: aggregation, general topologies, the threaded runtime, the
//! relational query layer, and the bandwidth-imprecision ablation of the
//! §3.3 remark.

use tamp_core::aggregate::{
    aggregation_lower_bound, encode, groupby_lower_bound, Aggregator, CombiningTreeAggregate,
    FlatPartialAggregate, HashGroupBy, NaiveAggregate,
};
use tamp_core::cartesian::TreeCartesianProduct;
use tamp_core::hashing::mix64;
use tamp_core::intersection::TreeIntersect;
use tamp_core::ratio::ratio;
use tamp_core::robustness::{perturb_bandwidths, BroadcastStatistics};
use tamp_core::sorting::WeightedTeraSort;
use tamp_query::prelude::*;
use tamp_runtime::programs::DistributedTreeIntersect;
use tamp_runtime::{ExecBackend, PooledClusterBackend};
use tamp_simulator::{run_protocol, Placement, Rel};
use tamp_topology::{builders, Tree};

use crate::table::{fnum, Table};

fn scatter(tree: &Tree, r: u64, s: u64, seed: u64) -> Placement {
    let mut p = Placement::empty(tree);
    let vc = tree.compute_nodes();
    for a in 0..r {
        let v = vc[(mix64(a ^ seed) % vc.len() as u64) as usize];
        p.push(v, Rel::R, a);
    }
    for a in 0..s {
        let v = vc[(mix64(a ^ seed ^ 0xFE) % vc.len() as u64) as usize];
        p.push(v, Rel::S, r / 2 + a);
    }
    p
}

/// X-AGG — distribution-aware aggregation (related-work extension):
/// in-network combining vs flat pre-aggregation vs raw shipping on
/// thin-core rack trees, against the per-edge group lower bound.
pub(crate) fn x_agg() -> Vec<Table> {
    let mut t = Table::new(
        "X-AGG: all-to-one aggregation on 3 racks × 4 nodes, thin core uplinks (0.25)",
        &[
            "groups/node",
            "naive",
            "flat",
            "combining",
            "LB",
            "flat/LB",
            "comb/LB",
        ],
    );
    let tree = builders::rack_tree(&[(4, 4.0, 0.25), (4, 4.0, 0.25), (4, 4.0, 0.25)], 1.0);
    let target = tree.compute_nodes()[0];
    for &groups in &[5u64, 20, 80] {
        let mut p = Placement::empty(&tree);
        for &v in tree.compute_nodes() {
            for g in 0..groups {
                for rep in 0..4 {
                    p.push(v, Rel::R, encode(g, rep + 1));
                }
            }
        }
        let lb = aggregation_lower_bound(&tree, &p, target).value();
        let naive = run_protocol(&tree, &p, &NaiveAggregate::new(target, Aggregator::Sum))
            .unwrap()
            .cost
            .tuple_cost();
        let flat = run_protocol(
            &tree,
            &p,
            &FlatPartialAggregate::new(target, Aggregator::Sum),
        )
        .unwrap()
        .cost
        .tuple_cost();
        let comb = run_protocol(
            &tree,
            &p,
            &CombiningTreeAggregate::new(target, Aggregator::Sum),
        )
        .unwrap()
        .cost
        .tuple_cost();
        t.row(vec![
            groups.to_string(),
            fnum(naive),
            fnum(flat),
            fnum(comb),
            fnum(lb),
            fnum(ratio(flat, lb)),
            fnum(ratio(comb, lb)),
        ]);
    }
    t.note(
        "Expected shape: combining crosses each thin uplink once per group \
         (comb/LB small constant); flat pays per-node duplication (≈4× more); \
         naive pays raw data size.",
    );
    vec![t]
}

/// X-GROUPBY — distributed group-by under the proportional hash vs the
/// per-cut split-group lower bound, across the topology zoo.
pub(crate) fn x_groupby() -> Vec<Table> {
    let mut t = Table::new(
        "X-GROUPBY: HashGroupBy cost vs split-group lower bound",
        &["topology", "cost", "LB", "cost/LB"],
    );
    for (name, tree) in crate::suite::standard_topologies() {
        let mut p = Placement::empty(&tree);
        for (i, &v) in tree.compute_nodes().iter().enumerate() {
            for j in 0..200u64 {
                p.push(v, Rel::R, encode((i as u64 * 17 + j) % 32, j % 100));
            }
        }
        let lb = groupby_lower_bound(&tree, &p).value();
        let cost = run_protocol(&tree, &p, &HashGroupBy::new(7, Aggregator::Sum))
            .unwrap()
            .cost
            .tuple_cost();
        t.row(vec![name, fnum(cost), fnum(lb), fnum(ratio(cost, lb))]);
    }
    t.note("Expected shape: cost within a small factor of the cut bound everywhere.");
    vec![t]
}

/// X-RUNTIME — the §2 premise, witnessed: the one hand-written per-node
/// derivation (`DistributedTreeIntersect`, every node deriving its sends
/// alone) replayed on the pooled cluster against the centralized
/// `TreeIntersect` protocol on the cost simulator — identical traffic.
pub(crate) fn x_runtime() -> Vec<Table> {
    let mut t = Table::new(
        "X-RUNTIME: per-node derivation on the pooled cluster vs centralized protocol (same seed)",
        &[
            "task",
            "topology",
            "sim cost",
            "runtime cost",
            "supersteps",
            "relation",
        ],
    );
    let topo = builders::rack_tree(&[(3, 1.0, 2.0), (3, 2.0, 4.0)], 1.0);
    let p = scatter(&topo, 200, 600, 5);
    let sim = run_protocol(&topo, &p, &TreeIntersect::new(5)).unwrap();
    let rt = PooledClusterBackend::default()
        .execute(&topo, &p, &DistributedTreeIntersect::new(5).job(&topo, &p))
        .unwrap();
    let rounds = rt.cost.per_round.len();
    t.row(vec![
        "intersection".into(),
        "rack-2x3".into(),
        fnum(sim.cost.tuple_cost()),
        fnum(rt.cost.tuple_cost()),
        format!("{rounds}+1"),
        if rt.cost.edge_totals == sim.cost.edge_totals && rounds == sim.rounds {
            "identical traffic".into()
        } else {
            "MISMATCH".into()
        },
    ]);
    t.note(
        "Expected shape: distributed per-node plan derivation reproduces the \
         centralized sends exactly; no hidden coordination is required. \
         Supersteps are the metered rounds plus the one that absorbs the last round.",
    );
    vec![t]
}

/// X-QUERY — the relational layer: per-operator cost breakdown for an
/// analytics query, and the weighted-vs-uniform join shuffle under
/// increasing placement skew.
pub(crate) fn x_query() -> Vec<Table> {
    let tree = builders::heterogeneous_star(&[0.5, 4.0, 4.0, 4.0, 4.0, 4.0]);
    let heavy = tree.compute_nodes()[0];

    // Per-operator breakdown.
    let mut t1 = Table::new(
        "X-QUERY-A: per-operator tuple cost (filter → join → group-by → order-by)",
        &["operator", "est cost", "tuple cost"],
    );
    {
        let mut c = Catalog::new(tree.clone());
        let rows: Vec<Vec<u64>> = (0..600).map(|i| vec![i, i % 8, (i * 13) % 1000]).collect();
        c.register(DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            c.tree(),
        ))
        .unwrap();
        let dims: Vec<Vec<u64>> = (0..8).map(|g| vec![g, g % 3]).collect();
        c.register(DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            dims,
            c.tree(),
        ))
        .unwrap();
        let q = LogicalPlan::scan("facts")
            .filter(col("x").gt(lit(250)))
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .aggregate("tier", AggFunc::Sum, "x")
            .order_by("tier");
        let res = QueryContext::with_catalog(c).execute(&q).unwrap();
        for oc in &res.operator_costs {
            t1.row(vec![oc.op.clone(), fnum(oc.estimated), fnum(oc.actual)]);
        }
        t1.note(format!(
            "total = {} over {} rounds",
            fnum(res.cost.tuple_cost()),
            res.rounds
        ));
    }

    // Skew sweep: weighted vs uniform join shuffle.
    let mut t2 = Table::new(
        "X-QUERY-B: join shuffle cost vs placement skew (heavy node behind a 0.5-bw link)",
        &["skew α", "uniform", "weighted", "uniform/weighted"],
    );
    for &alpha in &[0.2f64, 0.5, 0.8, 1.0] {
        let mut c = Catalog::new(tree.clone());
        let rows: Vec<Vec<u64>> = (0..500).map(|i| vec![i, i % 6, i * 2]).collect();
        c.register(DistributedTable::skewed(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            c.tree(),
            heavy,
            alpha,
        ))
        .unwrap();
        let dims: Vec<Vec<u64>> = (0..6).map(|g| vec![g, g + 40]).collect();
        c.register(DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "label"]).unwrap(),
            dims,
            c.tree(),
        ))
        .unwrap();
        let q = LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g");
        let forced = |join| {
            QueryContext::with_catalog(c.clone())
                .with_seed(1)
                .with_strategy(OperatorKind::Join, join)
                .execute(&q)
                .unwrap()
                .cost
                .tuple_cost()
        };
        let uniform = forced("uniform-repartition");
        let weighted = forced("weighted-repartition");
        t2.row(vec![
            format!("{alpha:.1}"),
            fnum(uniform),
            fnum(weighted),
            fnum(ratio(uniform, weighted)),
        ]);
    }
    t2.note(
        "Expected shape: the distribution-aware shuffle's advantage widens with \
         skew — the Algorithm 2 idea, surfacing at the query layer.",
    );
    vec![t1, t2]
}

/// ABL-DRIFT — the §3.3 remark as an ablation: intersection and sorting
/// traffic is invariant under bandwidth drift; the cartesian plan is not,
/// and stale planning degrades with the drift spread. Also prices the §2
/// knowledge assumption (statistics broadcast).
pub(crate) fn abl_drift() -> Vec<Table> {
    let tree = builders::rack_tree(&[(3, 4.0, 8.0), (3, 0.5, 1.0)], 1.0);
    let mut t = Table::new(
        "ABL-DRIFT: traffic under bandwidth drift (spread s ⇒ links scaled in [1/s, s])",
        &[
            "spread",
            "SI traffic Δ",
            "sort traffic Δ",
            "CP fresh",
            "CP stale",
            "stale/fresh",
        ],
    );
    let p_si = scatter(&tree, 150, 450, 4);
    let mut p_sort = Placement::empty(&tree);
    for x in 0..500u64 {
        let vc = tree.compute_nodes();
        p_sort.push(vc[(x % vc.len() as u64) as usize], Rel::R, mix64(x));
    }
    let p_cp = scatter(&tree, 90, 90, 8);
    let si_base = run_protocol(&tree, &p_si, &TreeIntersect::new(6)).unwrap();
    let sort_base = run_protocol(&tree, &p_sort, &WeightedTeraSort::new(2)).unwrap();
    let cp_fresh = run_protocol(&tree, &p_cp, &TreeCartesianProduct::new()).unwrap();
    for &spread in &[1.5f64, 3.0, 8.0] {
        let drifted = perturb_bandwidths(&tree, spread, 11);
        let si = run_protocol(&drifted, &p_si, &TreeIntersect::new(6)).unwrap();
        let sort = run_protocol(&drifted, &p_sort, &WeightedTeraSort::new(2)).unwrap();
        let si_delta: u64 = si
            .cost
            .edge_totals
            .iter()
            .zip(&si_base.cost.edge_totals)
            .map(|(a, b)| a.abs_diff(*b))
            .sum();
        let sort_delta: u64 = sort
            .cost
            .edge_totals
            .iter()
            .zip(&sort_base.cost.edge_totals)
            .map(|(a, b)| a.abs_diff(*b))
            .sum();
        let stale = run_protocol(
            &tree,
            &p_cp,
            &TreeCartesianProduct::with_planning_tree(drifted),
        )
        .unwrap();
        t.row(vec![
            format!("{spread:.1}"),
            si_delta.to_string(),
            sort_delta.to_string(),
            fnum(cp_fresh.cost.tuple_cost()),
            fnum(stale.cost.tuple_cost()),
            fnum(ratio(stale.cost.tuple_cost(), cp_fresh.cost.tuple_cost())),
        ]);
    }
    t.note(
        "Expected shape: Δ = 0 for intersection and sorting at every spread \
         (bandwidth-oblivious routing, the §3.3 remark). The cartesian plan \
         *changes* with its bandwidth inputs — in power-of-2 jumps and in \
         either direction, since Algorithm 5 guarantees O(1)-optimality, not \
         a cost-minimal plan.",
    );

    let mut t2 = Table::new(
        "ABL-DRIFT-B: cost of the §2 knowledge assumption (stats broadcast)",
        &["N", "stats cost", "SI data cost", "stats share"],
    );
    for &n in &[1_000u64, 10_000, 100_000] {
        let p = scatter(&tree, n / 4, 3 * n / 4, 9);
        let stats = run_protocol(&tree, &p, &BroadcastStatistics::new())
            .unwrap()
            .cost
            .tuple_cost();
        let data = run_protocol(&tree, &p, &TreeIntersect::new(1))
            .unwrap()
            .cost
            .tuple_cost();
        t2.row(vec![
            n.to_string(),
            fnum(stats),
            fnum(data),
            format!("{:.4}%", 100.0 * stats / (stats + data)),
        ]);
    }
    t2.note("Expected shape: the knowledge assumption costs O(|V_C|) per edge — its share vanishes as N grows.");
    vec![t, t2]
}

/// The physical plan's join strategy name (post-order walk).
fn join_strategy_name(plan: &PhysicalPlan) -> Option<&'static str> {
    for child in plan.children() {
        if let Some(k) = join_strategy_name(child) {
            return Some(k);
        }
    }
    if plan.label.starts_with("HashJoin") {
        return plan.exchange().map(|x| x.name());
    }
    None
}

/// X-PLAN — the cost-based physical planner: estimated vs metered cost
/// per exchange (the `EXPLAIN` numbers, verified at run time), and the
/// plan-time `Auto` join choice against every forced strategy.
pub(crate) fn x_plan() -> Vec<Table> {
    // A: estimated vs metered per operator, star vs fat-tree.
    let mut t1 = Table::new(
        "X-PLAN-A: estimated vs metered tuple cost per operator (the EXPLAIN estimates, verified)",
        &[
            "topology",
            "operator",
            "exchange",
            "est cost",
            "metered cost",
        ],
    );
    for (name, tree) in [
        (
            "star-6-hetero",
            builders::heterogeneous_star(&[0.5, 4.0, 4.0, 4.0, 4.0, 4.0]),
        ),
        ("fat-tree-2x3", builders::fat_tree(2, 3, 1.0)),
    ] {
        let facts = DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            (0..600).map(|i| vec![i, i % 8, (i * 13) % 1000]).collect(),
            &tree,
        );
        let dims = DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            (0..8).map(|g| vec![g, g % 3]).collect(),
            &tree,
        );
        let mut ctx = QueryContext::new(tree).with_seed(7);
        ctx.register(facts).unwrap().register(dims).unwrap();
        let q = LogicalPlan::scan("facts")
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .aggregate("tier", AggFunc::Sum, "x")
            .order_by("tier");
        let prepared = ctx.prepare(&q).unwrap();
        assert!(prepared.explain().contains("est cost"));
        let res = prepared.run().unwrap();
        // Label each operator with its planned exchange kind, matched by
        // the shared operator label (stable across planner and executor).
        fn strategies_by_label(plan: &PhysicalPlan, out: &mut Vec<(String, &'static str)>) {
            for child in plan.children() {
                strategies_by_label(child, out);
            }
            if let Some(x) = plan.exchange() {
                out.push((plan.label.clone(), x.name()));
            }
        }
        let mut exchange_kinds = Vec::new();
        strategies_by_label(prepared.physical_plan(), &mut exchange_kinds);
        for oc in &res.operator_costs {
            if oc.estimated == 0.0 && oc.actual == 0.0 {
                continue; // local operators are free on both ledgers
            }
            let kind = exchange_kinds
                .iter()
                .find(|(label, _)| *label == oc.op)
                .map(|(_, k)| *k);
            t1.row(vec![
                name.into(),
                oc.op.clone(),
                kind.map_or("-".into(), |k| k.to_string()),
                fnum(oc.estimated),
                fnum(oc.actual),
            ]);
        }
    }
    t1.note(
        "Expected shape: estimates track metered costs within a small factor — \
         both route traffic along the same tree paths and charge the same §2 \
         functional; the gap is cardinality estimation, not the cost model.",
    );

    // B: the plan-time Auto choice vs every forced strategy.
    let mut t2 = Table::new(
        "X-PLAN-B: cost-based Auto join vs forced strategies (metered cost; Auto must match the best)",
        &[
            "scenario",
            "auto picks",
            "auto",
            "weighted",
            "uniform",
            "broadcast",
            "auto ≤ best",
        ],
    );
    for (scenario, catalog) in x_plan_scenarios() {
        let q = LogicalPlan::scan("big").join_on(LogicalPlan::scan("small"), "g", "g");
        let auto_ctx = QueryContext::with_catalog(catalog.clone()).with_seed(5);
        let run = |ctx: &QueryContext| ctx.execute(&q).unwrap().cost.tuple_cost();
        let forced = |join| run(&auto_ctx.clone().with_strategy(OperatorKind::Join, join));
        let picked = join_strategy_name(auto_ctx.prepare(&q).unwrap().physical_plan()).unwrap();
        let auto = run(&auto_ctx);
        let weighted = forced("weighted-repartition");
        let uniform = forced("uniform-repartition");
        let broadcast = forced("broadcast-small");
        let best = weighted.min(uniform).min(broadcast);
        t2.row(vec![
            scenario,
            picked.to_string(),
            fnum(auto),
            fnum(weighted),
            fnum(uniform),
            fnum(broadcast),
            if auto <= best + 1e-9 { "yes" } else { "NO" }.into(),
        ]);
    }
    t2.note(
        "Expected shape: the plan-time cost comparison lands on the strategy \
         that is actually cheapest — broadcast for tiny build sides, weighted \
         repartition under co-located skew — so the Auto column equals the \
         best forced column (same seed ⇒ same traffic).",
    );
    vec![t1, t2]
}

/// Join scenarios with a decisive best strategy, over tables `big` ⋈
/// `small` on `g`.
fn x_plan_scenarios() -> Vec<(String, Catalog)> {
    let mut out = Vec::new();
    // 1. Tiny dimension table on a uniform star: broadcast wins.
    {
        let tree = builders::star(6, 1.0);
        let mut c = Catalog::new(tree);
        c.register(DistributedTable::round_robin(
            "big",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
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
        out.push(("tiny-dim / uniform star".into(), c));
    }
    // 2. Both sides ~90% co-located behind a thin link: the weighted
    //    repartition keeps the data in place.
    {
        let tree = builders::heterogeneous_star(&[0.5, 4.0, 4.0, 4.0, 4.0, 4.0]);
        let heavy = tree.compute_nodes()[0];
        let mut c = Catalog::new(tree);
        c.register(DistributedTable::skewed(
            "big",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            (0..500).map(|i| vec![i, i % 6, i * 2]).collect(),
            c.tree(),
            heavy,
            0.9,
        ))
        .unwrap();
        c.register(DistributedTable::skewed(
            "small",
            Schema::new(vec!["g", "y"]).unwrap(),
            (0..300).map(|i| vec![i % 6, i]).collect(),
            c.tree(),
            heavy,
            0.9,
        ))
        .unwrap();
        out.push(("co-located 90% skew / thin link".into(), c));
    }
    // 3. Big side parked on one fat-link node, mid-size spread small
    //    side: one-round broadcast to the single holder beats two
    //    repartition rounds.
    {
        let tree = builders::heterogeneous_star(&[4.0, 2.0, 2.0, 2.0, 2.0, 2.0]);
        let fat = tree.compute_nodes()[0];
        let mut c = Catalog::new(tree);
        c.register(DistributedTable::single_node(
            "big",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            (0..2_000).map(|i| vec![i, i % 6, i]).collect(),
            c.tree(),
            fat,
        ))
        .unwrap();
        c.register(DistributedTable::round_robin(
            "small",
            Schema::new(vec!["g", "y"]).unwrap(),
            (0..60).map(|i| vec![i % 6, i]).collect(),
            c.tree(),
        ))
        .unwrap();
        out.push(("single-holder big side / fat link".into(), c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x_agg_combining_beats_flat() {
        let t = &x_agg()[0];
        for i in 0..t.num_rows() {
            let flat: f64 = t.cell(i, 2).parse().unwrap();
            let comb: f64 = t.cell(i, 3).parse().unwrap();
            assert!(comb < flat, "row {i}: combining {comb} vs flat {flat}");
        }
    }

    #[test]
    fn x_runtime_has_no_mismatch() {
        let t = &x_runtime()[0];
        let relation = t.headers().iter().position(|h| h == "relation").unwrap();
        assert!(t.num_rows() > 0);
        for i in 0..t.num_rows() {
            assert_eq!(t.cell(i, relation), "identical traffic", "row {i}");
        }
    }

    #[test]
    fn abl_drift_invariance_holds() {
        let t = &abl_drift()[0];
        for i in 0..t.num_rows() {
            assert_eq!(t.cell(i, 1), "0", "SI traffic drifted in row {i}");
            assert_eq!(t.cell(i, 2), "0", "sort traffic drifted in row {i}");
        }
    }

    #[test]
    fn x_query_weighted_wins_at_full_skew() {
        let tables = x_query();
        let t = &tables[1];
        let last: f64 = t.cell(t.num_rows() - 1, 3).parse().unwrap();
        assert!(last > 1.5, "uniform/weighted at α=1.0 was only {last}");
    }

    #[test]
    fn x_plan_auto_matches_best_forced_strategy() {
        // The acceptance criterion of the cost-based planner: for every
        // x-plan scenario, Auto's metered cost is <= the best forced
        // strategy's (same seed, so matching the pick means matching the
        // traffic bit for bit).
        let tables = x_plan();
        let t = &tables[1];
        assert!(t.num_rows() >= 3);
        for i in 0..t.num_rows() {
            assert_eq!(t.cell(i, 6), "yes", "scenario {}", t.cell(i, 0));
            let auto: f64 = t.cell(i, 2).parse().unwrap();
            let best = [3, 4, 5]
                .iter()
                .map(|&j| t.cell(i, j).parse::<f64>().unwrap())
                .fold(f64::INFINITY, f64::min);
            assert!(auto <= best + 1e-9, "auto {auto} vs best {best}");
        }
    }

    #[test]
    fn x_plan_estimates_are_positive_for_exchanges() {
        let tables = x_plan();
        let t = &tables[0];
        assert!(t.num_rows() > 0);
        for i in 0..t.num_rows() {
            let est: f64 = t.cell(i, 3).parse().unwrap();
            let actual: f64 = t.cell(i, 4).parse().unwrap();
            assert!(est > 0.0, "row {i}: {} est {est}", t.cell(i, 1));
            assert!(actual >= 0.0, "row {i} actual {actual}");
        }
    }

    #[test]
    fn x_groupby_ratios_are_bounded() {
        let t = &x_groupby()[0];
        for i in 0..t.num_rows() {
            let r: f64 = t.cell(i, 3).parse().unwrap();
            assert!(r.is_finite() && r < 64.0, "row {i} ratio {r}");
        }
    }
}
