//! The backend-generic distributed executor.
//!
//! Execution happens in two stages. First the executor walks a
//! [`PhysicalPlan`] over the catalog's fragments. Lowering bound the plan
//! once — expressions address columns by index, every exchange carries
//! its resolved [`OpParams`], every node its output schema and label —
//! so the walk resolves no name. Each exchange is executed by the
//! [`PhysicalStrategy`] it chose at plan time, which computes the
//! operator's output *and* emits its communication schedule — per round,
//! the exact `(src, dsts, rel, payload)` sends (see
//! [`crate::physical::strategy`]). Local operators (`Filter` / `Project`
//! / `UnionAll`) move no data and record no rounds.
//!
//! The walk threads [`BatchFragments`] — every node's
//! [`RecordBatch`](crate::batch::RecordBatch)es in one vector — through
//! vectorized per-operator kernels (`filter`, `project`, both over `eval`:
//! one tight loop per expression node, run once per run of consecutive
//! rows of one column list) and through the strategies' columnar
//! exchanges — groups fold out of the group and measure columns into one
//! reusable table, sorts are one segmented index sort over every node
//! plus one gather per column, shuffles scatter each column into one
//! buffer, products repeat and tile column slices. A kernel allocates per
//! operator, not per node or row: it fills one column list, and each
//! node's output batch views a range of it. The [`QueryResult`] keeps the
//! last operator's batches, and rows are built only if
//! [`QueryResult::rows`] is called.
//!
//! Then the concatenated schedule replays through any
//! [`ExecBackend`] as a [`tamp_runtime::ScheduleJob`] — the centralized
//! simulator or the pooled BSP cluster — which meters it on the shared
//! per-directed-edge ledger. Because the schedule is derived once from
//! shared model knowledge, every backend moves bit-identical traffic; the
//! parity tests assert equal rows and `edge_totals` across backends.
//!
//! This module drives the walk and attributes per-round costs to
//! operators. It has no entry point of its own: a plan gets here through
//! [`QueryContext`](crate::context::QueryContext) →
//! [`PreparedQuery`](crate::context::PreparedQuery) (directly, or pinned
//! and cached by the serving layer), which is also where strategies are
//! registered and forced.
//!
//! [`PhysicalStrategy`]: crate::physical::strategy::PhysicalStrategy
//! [`OpParams`]: crate::physical::strategy::OpParams

mod eval;
mod filter;
mod options;
mod project;
mod result;

pub use options::{ExecOptions, StrategyForce};
pub use result::{OperatorCost, QueryResult};

use tamp_runtime::backend::ExecBackend;
use tamp_runtime::jobs::{Schedule, ScheduleJob, ScheduleSend};
use tamp_simulator::Placement;

use crate::batch::BatchFragments;
use crate::error::QueryError;
use crate::physical::strategy::{ExecArgs, OpInput};
use crate::physical::{Exchange, PhysicalOp, PhysicalPlan};
use crate::table::Catalog;

/// Shared state of one plan walk: the catalog, the options, the schedule
/// being accumulated, and the operator marks for cost attribution.
struct ExecCtx<'a> {
    catalog: &'a Catalog,
    options: ExecOptions,
    rounds: Vec<Vec<ScheduleSend>>,
    marks: Vec<Mark<'a>>,
}

struct Mark<'a> {
    op: &'a str,
    strategy: Option<&'static str>,
    estimated: f64,
    lower_bound: Option<f64>,
    upto: usize,
}

impl<'a> ExecCtx<'a> {
    fn exec_args(&self) -> ExecArgs<'_> {
        ExecArgs {
            tree: self.catalog.tree(),
            seed: self.options.seed,
            order: self.catalog.order().clone(),
        }
    }

    /// Run `exchange`'s strategy on `input`, appending its rounds to the
    /// query's schedule.
    fn run_strategy(
        &mut self,
        exchange: &Exchange,
        input: OpInput,
    ) -> Result<BatchFragments, QueryError> {
        let traced = exchange.strategy.trace(&self.exec_args(), input)?;
        self.rounds.extend(traced.rounds);
        Ok(traced.output)
    }

    /// Record that `plan`'s operator finished at the current round count.
    fn mark(&mut self, plan: &'a PhysicalPlan) {
        let exchange = plan.exchange();
        self.marks.push(Mark {
            op: &plan.label,
            strategy: exchange.map(|x| x.name()),
            estimated: exchange.map_or(0.0, |x| x.estimate.tuple_cost),
            lower_bound: exchange.and_then(|x| x.lower_bound.map(|b| b.value())),
            upto: self.rounds.len(),
        });
    }

    /// Execute `plan` post-order on batch fragments, recording each
    /// operator's rounds and mark.
    fn exec_batches(&mut self, plan: &'a PhysicalPlan) -> Result<BatchFragments, QueryError> {
        let frags = match &plan.op {
            PhysicalOp::TableScan { table } => self.catalog.table(table)?.scan_batches(),
            PhysicalOp::Filter { input, predicate } => {
                filter::filter(self.exec_batches(input)?, predicate)?
            }
            PhysicalOp::Project { input, exprs } => {
                project::project(&self.exec_batches(input)?, exprs)?
            }
            PhysicalOp::UnionAll { left, right } => {
                let (left, right) = (self.exec_batches(left)?, self.exec_batches(right)?);
                let both = |v| left[v].iter().chain(&right[v]).cloned();
                BatchFragments::from_fn(left.len(), both)
            }
            PhysicalOp::Exchange {
                inputs,
                exchange,
                params,
            } => {
                let inputs = inputs
                    .iter()
                    .map(|input| self.exec_batches(input))
                    .collect::<Result<_, _>>()?;
                let params = *params;
                self.run_strategy(exchange, OpInput { params, inputs })?
            }
        };
        self.mark(plan);
        Ok(frags)
    }
}

/// Execute a physical plan: compute fragments and the exchange schedule,
/// then replay the schedule through `backend` for metering.
pub(crate) fn run_physical(
    catalog: &Catalog,
    physical: &PhysicalPlan,
    options: ExecOptions,
    backend: &dyn ExecBackend,
) -> Result<QueryResult, QueryError> {
    let mut ctx = ExecCtx {
        catalog,
        options,
        rounds: Vec::new(),
        marks: Vec::new(),
    };
    let fragments = ctx.exec_batches(physical)?;
    let job = ScheduleJob::new(
        "query",
        catalog.tree().num_nodes(),
        Schedule { rounds: ctx.rounds },
    );
    let placement = Placement::empty(catalog.tree());
    let outcome = backend
        .execute(catalog.tree(), &placement, &job)
        .map_err(QueryError::Exec)?;
    // Attribute per-round costs to operators via the recorded marks.
    let mut operator_costs = Vec::with_capacity(ctx.marks.len());
    let mut prev = 0usize;
    for m in ctx.marks {
        // Folded from `0.0`: `sum()` over no rounds is `-0.0`.
        let actual = outcome.cost.per_round[prev..m.upto]
            .iter()
            .fold(0.0, |sum, r| sum + r.tuple_cost);
        operator_costs.push(OperatorCost {
            op: m.op.to_string(),
            strategy: m.strategy,
            estimated: m.estimated,
            actual,
            lower_bound: m.lower_bound,
            rounds: m.upto - prev,
        });
        prev = m.upto;
    }
    Ok(QueryResult {
        schema: physical.schema.clone(),
        fragments,
        cost: outcome.cost,
        operator_costs,
        estimated_cost: physical.estimated_cost(),
        rounds: outcome.rounds,
        supersteps: outcome.supersteps,
        resumed_from: outcome.resumed_from,
        node_order: catalog.order().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::QueryContext;
    use crate::expr::{col, lit};
    use crate::physical::strategy::OperatorKind::{Aggregate, CrossJoin, Join, Sort};
    use crate::plan::{AggFunc, LogicalPlan};
    use crate::reference;
    use crate::row::Row;
    use crate::schema::Schema;
    use crate::table::DistributedTable;
    use tamp_core::hashing::mix64;
    use tamp_topology::{builders, Tree};

    /// A session over `facts` (`n` rows) and a 7-row `dims`.
    fn session(tree: Tree, n: u64) -> QueryContext {
        let mut ctx = QueryContext::new(tree);
        let rows: Vec<Row> = (0..n).map(|i| vec![i, i % 7, mix64(i) % 1000]).collect();
        let t = DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            ctx.tree(),
        );
        ctx.register(t).unwrap();
        let dims: Vec<Row> = (0..7).map(|g| vec![g, 100 + g]).collect();
        let d = DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "label"]).unwrap(),
            dims,
            ctx.tree(),
        );
        ctx.register(d).unwrap();
        ctx
    }

    fn check_against_reference(ctx: &QueryContext, q: &LogicalPlan) -> QueryResult {
        let res = ctx.execute(q).unwrap();
        let got = res.rows(reference::preserves_order(q));
        let want = reference::evaluate(q, ctx.catalog()).unwrap();
        assert_eq!(got, want, "plan:\n{q}");
        res
    }

    #[test]
    fn filter_project_are_free() {
        let ctx = session(builders::star(4, 1.0), 50);
        let q = LogicalPlan::scan("facts")
            .filter(col("g").lt(lit(3)))
            .project(vec![("id", col("id")), ("y", col("x").add(lit(1)))]);
        let res = check_against_reference(&ctx, &q);
        assert_eq!(res.cost.tuple_cost(), 0.0);
        assert_eq!(res.estimated_cost, 0.0);
        // Free means `0.0`, never the `-0.0` of an empty `sum()`.
        assert!(res.cost.tuple_cost().is_sign_positive());
        assert!(!res.operator_costs.is_empty());
        for c in &res.operator_costs {
            assert!(c.actual == 0.0 && c.actual.is_sign_positive(), "{c:?}");
        }
    }

    #[test]
    fn hash_join_all_strategies_agree() {
        let ctx = session(
            builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0),
            80,
        )
        .with_seed(3);
        let q = LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g");
        // The cost-based choice, then every registered join strategy —
        // including the §3 TreeIntersect routing — produces the same rows.
        check_against_reference(&ctx, &q);
        for name in [
            "weighted-repartition",
            "tree-partition",
            "broadcast-small",
            "uniform-repartition",
        ] {
            check_against_reference(&ctx.clone().with_strategy(Join, name), &q);
        }
    }

    #[test]
    fn cross_join_matches_reference_under_every_strategy() {
        let ctx = session(builders::star(3, 1.0), 20);
        let q = LogicalPlan::scan("dims").cross(LogicalPlan::scan("dims"));
        let res = check_against_reference(&ctx, &q);
        assert_eq!(res.num_rows(), 49);
        for name in ["whc-grid", "broadcast-small", "uniform-hypercube"] {
            let res = check_against_reference(&ctx.clone().with_strategy(CrossJoin, name), &q);
            assert_eq!(res.num_rows(), 49, "{name}");
        }
        // Unequal sides exercise the A.1 rectangle packing, and the
        // broadcast with the big side on either hand.
        for q in [
            LogicalPlan::scan("facts").cross(LogicalPlan::scan("dims")),
            LogicalPlan::scan("dims").cross(LogicalPlan::scan("facts")),
        ] {
            for name in ["whc-grid", "broadcast-small", "uniform-hypercube"] {
                let res = check_against_reference(&ctx.clone().with_strategy(CrossJoin, name), &q);
                assert_eq!(res.num_rows(), 140, "{name}");
            }
        }
    }

    #[test]
    fn order_by_produces_global_order_under_both_policies() {
        let ctx = session(builders::star(4, 1.0), 200);
        let q = LogicalPlan::scan("facts").order_by("x");
        for name in ["weighted-range-shuffle", "uniform-range-shuffle"] {
            let res = check_against_reference(&ctx.clone().with_strategy(Sort, name), &q);
            // Fragment concatenation in node order is globally sorted.
            let rows = res.rows(true);
            assert!(rows.windows(2).all(|w| w[0][2] <= w[1][2]), "{name}");
        }
    }

    #[test]
    fn aggregate_matches_reference_under_every_strategy() {
        let ctx = session(builders::caterpillar(3, 2, 1.0), 120);
        for agg in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            let q = LogicalPlan::scan("facts").aggregate("g", agg, "x");
            check_against_reference(&ctx, &q);
            for name in [
                "weighted-repartition",
                "combining-tree",
                "uniform-repartition",
            ] {
                check_against_reference(&ctx.clone().with_strategy(Aggregate, name), &q);
            }
        }
    }

    #[test]
    fn limit_after_order_by() {
        let ctx = session(builders::star(3, 1.0), 90);
        let q = LogicalPlan::scan("facts").order_by("x").limit(10);
        let res = check_against_reference(&ctx, &q);
        assert_eq!(res.num_rows(), 10);
    }

    #[test]
    fn composite_analytics_query() {
        let ctx = session(
            builders::rack_tree(&[(2, 1.0, 2.0), (3, 2.0, 4.0)], 1.0),
            150,
        );
        let q = LogicalPlan::scan("facts")
            .filter(col("x").gt(lit(100)))
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .aggregate("label", AggFunc::Count, "id")
            .order_by("label");
        let res = check_against_reference(&ctx, &q);
        // Cost attribution covers every operator, in post-order.
        let names: Vec<&str> = res.operator_costs.iter().map(|c| c.op.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "Scan facts",
                "Filter (x > 100)",
                "Scan dims",
                "HashJoin g=g",
                "Aggregate count",
                "OrderBy label"
            ]
        );
        let total: f64 = res.operator_costs.iter().map(|c| c.actual).sum();
        assert!((total - res.cost.tuple_cost()).abs() < 1e-9);
        // Every communicating operator carries a positive estimate and
        // names the strategy that executed it.
        for oc in &res.operator_costs {
            if oc.actual > 0.0 {
                assert!(oc.estimated > 0.0, "{} estimated 0", oc.op);
                assert!(oc.strategy.is_some(), "{} has no strategy", oc.op);
            }
        }
    }

    #[test]
    fn weighted_join_beats_uniform_on_skew() {
        // All fact rows on one node behind a thin uplink; dims tiny.
        // Weighted hashing keeps fact rows where they are; uniform hashing
        // ships ~everything across the thin link.
        let tree = builders::heterogeneous_star(&[0.5, 4.0, 4.0, 4.0]);
        let heavy = tree.compute_nodes()[0];
        let mut ctx = QueryContext::new(tree).with_seed(1);
        let rows: Vec<Row> = (0..400).map(|i| vec![i, i % 5, i * 2]).collect();
        let t = DistributedTable::single_node(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            ctx.tree(),
            heavy,
        );
        ctx.register(t).unwrap();
        let dims: Vec<Row> = (0..5).map(|g| vec![g, g + 50]).collect();
        let d = DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "label"]).unwrap(),
            dims,
            ctx.tree(),
        );
        ctx.register(d).unwrap();

        let q = LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g");
        let forced = |name| check_against_reference(&ctx.clone().with_strategy(Join, name), &q);
        let weighted = forced("weighted-repartition");
        let uniform = forced("uniform-repartition");
        assert!(
            weighted.cost.tuple_cost() * 2.0 < uniform.cost.tuple_cost(),
            "weighted {} vs uniform {}",
            weighted.cost.tuple_cost(),
            uniform.cost.tuple_cost()
        );
    }

    /// A small scanned left side reaches several probing nodes as the same
    /// rows of one column list, and every left row matches exactly one
    /// right row on each: each node still keeps its own right rows.
    #[test]
    fn nodes_sharing_a_left_side_keep_their_own_right_rows() {
        let one = |bw| (1, bw, 1.0);
        for tree in [
            builders::star(2, 1.0),
            builders::star(3, 1.0),
            builders::rack_tree(&[one(1.0), one(2.0)], 1.0),
            builders::rack_tree(&[one(1.0), one(1.0), one(1.0)], 1.0),
        ] {
            let p = tree.compute_nodes().len() as u64;
            let mut ctx = QueryContext::new(tree);
            // Node `j` holds facts `j` (g = 0) and `j + p` (g = 1).
            let facts: Vec<Row> = (0..2 * p).map(|i| vec![i, i / p]).collect();
            let schema = Schema::new(vec!["id", "g"]).unwrap();
            let t = DistributedTable::round_robin("facts", schema, facts, ctx.tree());
            ctx.register(t).unwrap();
            // One source, so every node gets the same one run of dims.
            let (dims, v) = (
                (0..2).map(|g| vec![g, 100 + g]).collect(),
                ctx.tree().compute_nodes()[0],
            );
            let schema = Schema::new(vec!["g", "label"]).unwrap();
            let t = DistributedTable::single_node("dims", schema, dims, ctx.tree(), v);
            ctx.register(t).unwrap();
            let (facts, dims) = (LogicalPlan::scan("facts"), LogicalPlan::scan("dims"));
            for q in [
                dims.clone().join_on(facts.clone(), "g", "g"),
                facts.join_on(dims, "g", "g"),
            ] {
                for name in ["broadcast-small", "tree-partition"] {
                    for seed in 0..4 {
                        let forced = ctx.clone().with_seed(seed).with_strategy(Join, name);
                        check_against_reference(&forced, &q);
                    }
                }
            }
        }
    }

    #[test]
    fn errors_surface_cleanly() {
        let ctx = session(builders::star(2, 1.0), 10);
        let q = LogicalPlan::scan("nope");
        assert!(matches!(ctx.execute(&q), Err(QueryError::UnknownTable(_))));
        let q = LogicalPlan::scan("facts").filter(col("id").div(lit(0)).gt(lit(0)));
        assert_eq!(ctx.execute(&q).unwrap_err(), QueryError::DivideByZero);
    }

    #[test]
    fn all_backends_run_the_same_prepared_query() {
        let ctx = session(builders::star(3, 1.0), 60);
        let q = LogicalPlan::scan("facts")
            .filter(col("g").lt(lit(5)))
            .aggregate("g", AggFunc::Count, "x");
        // The default engine and an explicitly selected simulator backend
        // are the same path.
        let prepared = ctx.prepare(&q).unwrap();
        let a = ctx.execute(&q).unwrap();
        let b = prepared.run_on(&tamp_runtime::SimulatorBackend).unwrap();
        assert_eq!(a.rows(false), b.rows(false));
        assert_eq!(a.cost.edge_totals, b.cost.edge_totals);
        assert_eq!(a.rounds, b.rounds);
        // The pooled cluster replays the same exchange schedule and
        // meters a bit-identical ledger — queries are not simulator-only.
        let d = prepared
            .run_on(&tamp_runtime::PooledClusterBackend::default())
            .unwrap();
        assert_eq!(a.rows(false), d.rows(false));
        assert_eq!(a.cost.edge_totals, d.cost.edge_totals);
        assert_eq!(a.rounds, d.rounds);
    }

    #[test]
    fn empty_inputs_run_clean() {
        let mut ctx = QueryContext::new(builders::star(3, 1.0));
        let t = DistributedTable::round_robin(
            "e",
            Schema::new(vec!["a", "b"]).unwrap(),
            Vec::new(),
            ctx.tree(),
        );
        ctx.register(t).unwrap();
        for q in [
            LogicalPlan::scan("e").order_by("a"),
            LogicalPlan::scan("e").aggregate("a", AggFunc::Sum, "b"),
            LogicalPlan::scan("e").join_on(LogicalPlan::scan("e"), "a", "a"),
            LogicalPlan::scan("e").limit(5),
            LogicalPlan::scan("e").cross(LogicalPlan::scan("e")),
        ] {
            let res = ctx.execute(&q).unwrap();
            assert_eq!(res.num_rows(), 0);
            assert_eq!(res.cost.tuple_cost(), 0.0);
        }
    }
}

#[cfg(test)]
mod distinct_union_tests {
    use super::*;
    use crate::context::QueryContext;
    use crate::expr::{col, lit};
    use crate::plan::LogicalPlan;
    use crate::reference;
    use crate::row::Row;
    use crate::schema::Schema;
    use crate::table::DistributedTable;
    use tamp_topology::builders;

    fn dup_session() -> QueryContext {
        let tree = builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0);
        let mut ctx = QueryContext::new(tree);
        // Every row appears three times, scattered across nodes.
        let rows: Vec<Row> = (0..120).map(|i| vec![i % 40, i % 5]).collect();
        let t = DistributedTable::round_robin(
            "d",
            Schema::new(vec!["k", "g"]).unwrap(),
            rows,
            ctx.tree(),
        );
        ctx.register(t).unwrap();
        ctx
    }

    #[test]
    fn distinct_removes_scattered_duplicates() {
        let ctx = dup_session();
        let q = LogicalPlan::scan("d").distinct();
        let res = ctx.execute(&q).unwrap();
        assert_eq!(res.num_rows(), 40);
        assert_eq!(
            res.rows(false),
            reference::evaluate(&q, ctx.catalog()).unwrap()
        );
        // Duplicates of a row co-locate, so at most one copy per row moves
        // beyond local dedup: cost well below shipping all 120 rows.
        assert!(res.cost.tuple_cost() > 0.0);
    }

    #[test]
    fn distinct_composes_with_filter_and_union() {
        let ctx = dup_session();
        let q = LogicalPlan::scan("d")
            .filter(col("g").lt(lit(3)))
            .union_all(LogicalPlan::scan("d").filter(col("g").ge(lit(3))))
            .distinct();
        let res = ctx.execute(&q).unwrap();
        assert_eq!(
            res.rows(false),
            reference::evaluate(&q, ctx.catalog()).unwrap()
        );
        assert_eq!(res.num_rows(), 40);
    }

    #[test]
    fn union_all_is_free_and_keeps_duplicates() {
        let ctx = dup_session();
        let q = LogicalPlan::scan("d").union_all(LogicalPlan::scan("d"));
        let res = ctx.execute(&q).unwrap();
        assert_eq!(res.num_rows(), 240);
        assert_eq!(res.cost.tuple_cost(), 0.0);
        assert_eq!(
            res.rows(false),
            reference::evaluate(&q, ctx.catalog()).unwrap()
        );
    }

    #[test]
    fn union_all_rejects_schema_mismatch() {
        let mut ctx = dup_session();
        let t = DistributedTable::round_robin(
            "other",
            Schema::new(vec!["a", "b", "c"]).unwrap(),
            vec![vec![1, 2, 3]],
            ctx.tree(),
        );
        ctx.register(t).unwrap();
        let q = LogicalPlan::scan("d").union_all(LogicalPlan::scan("other"));
        assert!(matches!(ctx.execute(&q), Err(QueryError::Plan(_))));
    }

    #[test]
    fn empty_distinct_is_free() {
        let mut ctx = QueryContext::new(builders::star(2, 1.0));
        let t = DistributedTable::round_robin(
            "e",
            Schema::new(vec!["a"]).unwrap(),
            Vec::new(),
            ctx.tree(),
        );
        ctx.register(t).unwrap();
        let res = ctx.execute(&LogicalPlan::scan("e").distinct()).unwrap();
        assert_eq!(res.num_rows(), 0);
        assert_eq!(res.cost.tuple_cost(), 0.0);
    }
}

/// Allocation per operator, not per node: every kernel that writes each
/// node's output fills one buffer per output column and one column list,
/// which each node's batches view a range of.
#[cfg(test)]
mod buffer_tests {
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use tamp_core::hashing::mix64;
    use tamp_core::sorting::valid_order;
    use tamp_simulator::{Rel, Value};
    use tamp_topology::{builders, Tree};

    use super::*;
    use crate::context::QueryContext;
    use crate::expr::{lit, Expr};
    use crate::physical::strategies::aggregate::HashAggregate;
    use crate::physical::strategies::columnar::shuffle_batches_by_key;
    use crate::physical::strategies::cross::{BroadcastSmallCross, RectCross};
    use crate::physical::strategies::join::{
        BroadcastSmallJoin, RepartitionJoin, TreePartitionJoin,
    };
    use crate::physical::strategies::sort::RangeShuffleSort;
    use crate::physical::strategies::WeightedDistinct;
    use crate::physical::strategy::{OpParams, PhysicalStrategy, TraceBuilder};
    use crate::plan::{AggFunc, LogicalPlan};
    use crate::reference;
    use crate::row::Row;
    use crate::schema::Schema;
    use crate::table::DistributedTable;

    /// Checks that every batch of `frags`, across every node, views one
    /// column list, and that more than one node holds rows; returns how
    /// many distinct buffers the list holds.
    fn column_buffers(what: &str, frags: &BatchFragments) -> usize {
        let holders = frags.iter().filter(|f| !f.is_empty()).count();
        assert!(holders > 1, "{what}: {holders} nodes hold rows");
        let list = &frags.batches()[0].cols;
        for b in frags.batches() {
            let one = Arc::ptr_eq(&b.cols, list);
            assert!(one, "{what}: its batches view more than one column list");
        }
        let bufs = list.iter().map(|c| c.as_ptr());
        bufs.collect::<BTreeSet<*const Value>>().len()
    }

    /// Each kernel's distinct output buffers on `tree`.
    fn buffers_per_kernel(tree: &Tree) -> Vec<(&'static str, usize)> {
        let scan = |rows: Vec<Row>, names: Vec<&str>| {
            let schema = Schema::new(names).unwrap();
            DistributedTable::round_robin("t", schema, rows, tree).scan_batches()
        };
        // `(id, g, x)`; every key `g` of `dims` twice, so no left row
        // matches exactly once and the probe shares no left column.
        let facts = (0..2_000).map(|i| vec![i, mix64(i) % 40, mix64(i ^ 7) % 100]);
        let left = scan(facts.collect(), vec!["id", "g", "x"]);
        let dims = (0..80).map(|k| vec![k % 40, 100 + k]);
        let right = scan(dims.collect(), vec!["g", "label"]);
        let join = OpParams::Join {
            left_key: 1,
            right_key: 0,
            left_width: 3,
            right_width: 2,
        };
        let cross = OpParams::CrossJoin {
            left_width: 2,
            right_width: 2,
        };
        let args = ExecArgs {
            tree,
            seed: 5,
            order: valid_order(tree).into(),
        };
        let output = |strategy: &dyn PhysicalStrategy, params, inputs| {
            let input = OpInput { params, inputs };
            strategy.trace(&args, input).unwrap().output
        };
        let vc = tree.compute_nodes();
        let router = |k: u64| vc[(mix64(k) % vc.len() as u64) as usize];
        let mut trace = TraceBuilder::default();
        let kernels = [
            ("scan", left.clone()),
            (
                "hash shuffle",
                shuffle_batches_by_key(&mut trace, tree, &left, 1, 3, Rel::R, &router),
            ),
            (
                "range sort",
                output(
                    &RangeShuffleSort::weighted(),
                    OpParams::Sort { key: 2, width: 3 },
                    vec![left.clone()],
                ),
            ),
            (
                "distinct",
                output(
                    &WeightedDistinct,
                    OpParams::Distinct { width: 3 },
                    vec![left.clone()],
                ),
            ),
            (
                "filter",
                filter::filter(left.clone(), &Expr::ColIdx(2).lt(lit(50))).unwrap(),
            ),
            (
                "project",
                project::project(&left, &[Expr::ColIdx(0), Expr::ColIdx(2).mul(lit(3))]).unwrap(),
            ),
            (
                "probe join",
                output(
                    &RepartitionJoin::weighted(),
                    join,
                    vec![left.clone(), right.clone()],
                ),
            ),
            (
                "broadcast join",
                output(&BroadcastSmallJoin, join, vec![left.clone(), right.clone()]),
            ),
            (
                "tree-partition join",
                output(&TreePartitionJoin, join, vec![left.clone(), right.clone()]),
            ),
            (
                "grid product",
                output(&RectCross::whc(), cross, vec![right.clone(), right.clone()]),
            ),
            (
                "broadcast product",
                output(
                    &BroadcastSmallCross,
                    cross,
                    vec![right.clone(), right.clone()],
                ),
            ),
            (
                "group fold",
                output(
                    &HashAggregate::weighted(),
                    OpParams::Aggregate {
                        group: 1,
                        measure: 2,
                        agg: AggFunc::Sum,
                    },
                    vec![left.clone()],
                ),
            ),
        ];
        (kernels.iter())
            .map(|(what, out)| (*what, column_buffers(what, out)))
            .collect()
    }

    /// The kernels allocate per operator on a 64-compute fat-tree — every
    /// output batch views one column list — and the count of buffers does
    /// not grow with the node count.
    #[test]
    fn every_kernel_fills_one_buffer_per_output_column() {
        let big = buffers_per_kernel(&builders::fat_tree(2, 8, 1.0));
        assert_eq!(
            big,
            [
                ("scan", 3),
                ("hash shuffle", 3),
                ("range sort", 3),
                ("distinct", 3),
                ("filter", 3),
                ("project", 2),
                ("probe join", 5),
                ("broadcast join", 5),
                ("tree-partition join", 5),
                ("grid product", 4),
                ("broadcast product", 4),
                ("group fold", 2),
            ]
        );
        assert_eq!(buffers_per_kernel(&builders::star(4, 1.0)), big);
    }

    /// A limit's result keeps no buffer larger than its own rows: whatever
    /// the sort below it allocated for every node, a batch it keeps whole
    /// is shared only if it spans its buffers.
    #[test]
    fn a_limit_result_holds_no_buffer_larger_than_its_rows() {
        let tree = builders::star(4, 1.0);
        let heavy = tree.compute_nodes()[2];
        let mut ctx = QueryContext::new(tree);
        // Most rows on one node, so the others' sorted batches are short
        // ranges of the sort's one buffer per column.
        let rows: Vec<Row> = (0..10_000).map(|i| vec![i, mix64(i) % 100_000]).collect();
        let schema = Schema::new(vec!["id", "x"]).unwrap();
        let t = DistributedTable::skewed("t", schema, rows, ctx.tree(), heavy, 0.97);
        ctx.register(t).unwrap();
        for n in [1, 20, 250, 500, 5_000] {
            for q in [
                LogicalPlan::scan("t").order_by("x").limit(n),
                LogicalPlan::scan("t").limit(n),
            ] {
                let res = ctx.execute(&q).unwrap();
                let want = reference::evaluate(&q, ctx.catalog()).unwrap();
                assert_eq!(res.rows(reference::preserves_order(&q)), want, "{q}");
                for b in res.fragments.batches() {
                    for held in b.cols.iter().map(|c| c.len()) {
                        assert!(held <= n, "{q}: a {held}-row buffer");
                    }
                }
            }
        }
    }
}
