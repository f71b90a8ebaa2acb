//! The physical plan: operators with explicit, strategy-chosen,
//! cost-estimated exchanges.
//!
//! Lowering
//! ([`QueryContext::prepare`](crate::context::QueryContext::prepare))
//! turns a [`LogicalPlan`] into a [`PhysicalPlan`] in which every
//! communicating operator carries an explicit [`Exchange`]
//! — *which* [`PhysicalStrategy`] will move the data, what it is
//! expected to cost on the §2 functional, and how that estimate compares
//! to the task's **per-edge lower bound** (the paper's Table-1 ratio).
//! The planner does not hard-wire exchanges: each operator asks the
//! session's [`StrategyRegistry`] for every registered candidate — paper
//! algorithm and topology-agnostic baseline alike — prices them all by
//! routing estimated traffic along the real tree paths,
//!
//! ```text
//! est(exchange) = Σ_rounds max_e load(e) / w_e
//! ```
//!
//! and keeps the cheapest (or the one the session forces). Every
//! candidate stays in the plan, so
//! [`PreparedQuery::explain`](crate::context::PreparedQuery::explain)
//! shows the winner *and* the rejected alternatives, each with its
//! estimate and its ratio to the lower bound.
//!
//! Lowering is also where every name is resolved, once
//! ([`LogicalPlan`]'s per-operator `bind`, which schema inference shares):
//! each node stores its output [`Schema`] and EXPLAIN label, filters and
//! projections hold their expressions bound to column indices, and each
//! exchange holds its operator's [`OpParams`] — key indices and row
//! widths — which the executor hands to the strategy with the child
//! fragments on every run. A prepared plan therefore cannot fail on a
//! name at run time.
//!
//! Cardinality estimation is deliberately simple and documented:
//! base-table counts are exact (`|X_0(v)|` is model knowledge granted by
//! §2), filters apply standard selectivity heuristics (equality 0.15,
//! range ⅓, conjunction multiplies), equi-joins assume a key/foreign-key
//! shape (`|L ⋈ R| ≈ max(|L|, |R|)`), and group-bys assume `√n` distinct
//! groups. Estimated and metered cost are juxtaposed per operator in
//! [`QueryResult::operator_costs`](crate::exec::QueryResult) and in the
//! `x-plan` / `x-strategy` experiment suites.
//!
//! [`PhysicalStrategy`]: strategy::PhysicalStrategy
//! [`StrategyRegistry`]: strategy::StrategyRegistry
//! [`OpParams`]: strategy::OpParams

pub mod cost;
pub(crate) mod strategies;
pub mod strategy;

use std::fmt;
use std::sync::Arc;

use tamp_core::ratio::LowerBound;
use tamp_topology::Tree;

use crate::error::QueryError;
use crate::exec::ExecOptions;
use crate::expr::Expr;
use crate::plan::{BoundOp, LogicalPlan};
use crate::schema::Schema;
use crate::table::Catalog;

use cost::{CostModel, NodeCounts};
use strategy::{
    Candidate, CostEstimate, OpParams, PhysicalStrategy, PlanArgs, PlanSide, StrategyRegistry,
};

/// An explicit data movement step attached to a physical operator: the
/// chosen strategy, its estimate, the task's lower bound, and every
/// candidate the planner priced.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// The strategy that will move the rows.
    pub strategy: Arc<dyn PhysicalStrategy>,
    /// What the planner expects it to cost.
    pub estimate: CostEstimate,
    /// The task's per-edge lower bound on the estimated placement (in
    /// values), when the task has one on this tree.
    pub lower_bound: Option<LowerBound>,
    /// Every candidate the planner priced, including the chosen one —
    /// rendered by `EXPLAIN` so rejected strategies stay visible.
    pub candidates: Vec<Candidate>,
}

impl Exchange {
    /// The chosen strategy's name.
    pub fn name(&self) -> &'static str {
        self.strategy.name()
    }

    /// The chosen strategy's `estimate / lower bound` ratio — the
    /// paper's Table-1 quantity — or `NaN` when no bound applies.
    pub fn ratio(&self) -> f64 {
        self.lower_bound.map_or(f64::NAN, |lb| {
            tamp_core::ratio::ratio(self.estimate.tuple_cost, lb.value())
        })
    }
}

impl PartialEq for Exchange {
    fn eq(&self, other: &Self) -> bool {
        self.strategy.name() == other.strategy.name()
            && self.estimate == other.estimate
            && self.lower_bound.map(|b| b.value()) == other.lower_bound.map(|b| b.value())
            && self.candidates == other.candidates
    }
}

/// A physical operator tree: the logical algebra with every exchange made
/// explicit and priced, and every name resolved.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalPlan {
    /// The operator.
    pub op: PhysicalOp,
    /// The operator's output schema.
    pub schema: Schema,
    /// The operator's label in EXPLAIN and in
    /// [`OperatorCost::op`](crate::exec::OperatorCost); stable across the
    /// logical and physical layers.
    pub label: String,
    /// Estimated output rows (cardinality estimate, not a guarantee).
    rows_est: f64,
}

/// Physical operators, bound: expressions address columns by index and
/// exchange parameters are resolved. Local operators (`TableScan`,
/// `Filter`, `Project`, `UnionAll`) move no data; every other operator is
/// an `Exchange` run by its chosen strategy.
#[derive(Clone, Debug, PartialEq)]
pub enum PhysicalOp {
    /// Read a base table's fragments in place.
    TableScan {
        /// Catalog table name.
        table: String,
    },
    /// Local predicate evaluation (free under §2).
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Bound predicate (nonzero ⇒ keep).
        predicate: Expr,
    },
    /// Local expression evaluation (free under §2).
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Bound output expressions, in output-column order.
        exprs: Vec<Expr>,
    },
    /// Bag union (free: fragments concatenate in place).
    UnionAll {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// A communicating operator — join, cross join, sort, aggregate,
    /// distinct or limit — executed by its strategy-chosen exchange.
    Exchange {
        /// Input plans, left to right.
        inputs: Vec<PhysicalPlan>,
        /// The chosen strategy, its estimate and the rejected candidates.
        exchange: Exchange,
        /// The operator's parameters, handed to the strategy on every run.
        params: OpParams,
    },
}

impl PhysicalPlan {
    /// The operator's exchange, if it has one.
    pub fn exchange(&self) -> Option<&Exchange> {
        match &self.op {
            PhysicalOp::Exchange { exchange, .. } => Some(exchange),
            _ => None,
        }
    }

    /// Child plans, left to right.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match &self.op {
            PhysicalOp::TableScan { .. } => vec![],
            PhysicalOp::Filter { input, .. } | PhysicalOp::Project { input, .. } => vec![input],
            PhysicalOp::UnionAll { left, right } => vec![left, right],
            PhysicalOp::Exchange { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Total estimated §2 cost: the sum over every exchange in the plan.
    pub fn estimated_cost(&self) -> f64 {
        let own = self.exchange().map_or(0.0, |x| x.estimate.tuple_cost);
        own + self
            .children()
            .iter()
            .map(|c| c.estimated_cost())
            .sum::<f64>()
    }

    /// Total estimated communication rounds.
    fn estimated_rounds(&self) -> usize {
        let own = self.exchange().map_or(0, |x| x.estimate.rounds);
        own + self
            .children()
            .iter()
            .map(|c| c.estimated_rounds())
            .sum::<usize>()
    }

    /// Render the plan with per-exchange estimated costs — the text
    /// behind every `EXPLAIN` of this layer (session and service alike).
    pub(crate) fn explain(&self, seed: u64) -> String {
        format!(
            "physical plan (seed {seed}, est cost {:.1} over {} exchange round{}):\n{self}",
            self.estimated_cost(),
            self.estimated_rounds(),
            if self.estimated_rounds() == 1 {
                ""
            } else {
                "s"
            },
        )
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        write!(f, "{pad}{}", self.label)?;
        if let Some(x) = self.exchange() {
            write!(
                f,
                " via {} [est cost {:.1}, {} round{}",
                x.name(),
                x.estimate.tuple_cost,
                x.estimate.rounds,
                if x.estimate.rounds == 1 { "" } else { "s" },
            )?;
            if let Some(lb) = x.lower_bound {
                write!(f, ", lb {:.1}, ratio {}", lb.value(), fmt_ratio(x.ratio()))?;
            }
            write!(f, "]")?;
            if x.candidates.len() > 1 {
                let alts: Vec<String> = x
                    .candidates
                    .iter()
                    .map(|c| {
                        let alg = c.algorithm.map(|a| format!(" ({a})")).unwrap_or_default();
                        format!("{}{alg} {:.1} ×{}", c.name, c.cost, fmt_ratio(c.ratio))
                    })
                    .collect();
                write!(f, " (candidates: {})", alts.join(", "))?;
            }
        }
        writeln!(f, "  ~{:.0} rows", self.rows_est)?;
        for child in self.children() {
            child.fmt_indented(f, indent + 1)?;
        }
        Ok(())
    }
}

/// Render a lower-bound ratio: two decimals, `-` when no bound applies.
fn fmt_ratio(r: f64) -> String {
    if r.is_nan() {
        "-".into()
    } else if r.is_infinite() {
        "inf".into()
    } else {
        format!("{r:.2}")
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// Lower a [`LogicalPlan`] into a [`PhysicalPlan`]: resolve every name
/// once, price every candidate `registry` holds on the §2 cost model and
/// resolve each operator's exchange cost-based (or as forced by
/// [`ExecOptions`]).
///
/// Lowering validates the plan as it binds it, so a lowered plan
/// executes without name errors.
pub(crate) fn lower(
    plan: &LogicalPlan,
    catalog: &Catalog,
    options: ExecOptions,
    registry: &StrategyRegistry,
) -> Result<PhysicalPlan, QueryError> {
    Ok(Planner::new(catalog, options, registry).lower_node(plan)?.0)
}

/// Filter selectivity heuristics (standard textbook constants; see the
/// module docs).
fn selectivity(e: &Expr) -> f64 {
    match e {
        Expr::Eq(..) => 0.15,
        Expr::Ne(..) => 0.85,
        Expr::Lt(..) | Expr::Le(..) | Expr::Gt(..) | Expr::Ge(..) => 1.0 / 3.0,
        Expr::And(a, b) => selectivity(a) * selectivity(b),
        Expr::Or(a, b) => (selectivity(a) + selectivity(b)).min(1.0),
        Expr::Not(a) => 1.0 - selectivity(a),
        Expr::Lit(0) => 0.0,
        Expr::Lit(_) => 1.0,
        // A bare column / arithmetic predicate keeps a row when nonzero;
        // assume most values are.
        _ => 0.9,
    }
}

/// The lowering planner: walks the logical tree bottom-up carrying
/// per-node cardinality estimates, and resolves each operator's exchange
/// through the strategy registry.
struct Planner<'c> {
    catalog: &'c Catalog,
    options: ExecOptions,
    registry: &'c StrategyRegistry,
    /// Shared pricing model (O(1)-LCA routing, per-edge bandwidths).
    model: CostModel<'c>,
}

impl<'c> Planner<'c> {
    fn new(catalog: &'c Catalog, options: ExecOptions, registry: &'c StrategyRegistry) -> Self {
        let tree: &'c Tree = catalog.tree();
        Planner {
            catalog,
            options,
            registry,
            model: CostModel::new(tree),
        }
    }

    /// Lower `plan` bottom-up: its physical plan and its estimated
    /// output rows per node.
    fn lower_node(&self, plan: &LogicalPlan) -> Result<(PhysicalPlan, NodeCounts), QueryError> {
        let (inputs, counts): (Vec<PhysicalPlan>, Vec<NodeCounts>) = plan
            .inputs()
            .into_iter()
            .map(|input| self.lower_node(input))
            .collect::<Result<_, _>>()?;
        let schemas: Vec<&Schema> = inputs.iter().map(|p| &p.schema).collect();
        let (schema, bound) = plan.bind(self.catalog, &schemas)?;
        let mut inputs = inputs.into_iter();
        let mut input = || Box::new(inputs.next().expect("a local operator's input"));
        let (op, counts, out_total) = match bound {
            BoundOp::Scan(table) => {
                let t = self.catalog.table(table)?;
                let counts = t.row_counts().iter().map(|&n| n as f64).collect();
                let table = table.to_string();
                (PhysicalOp::TableScan { table }, counts, None)
            }
            BoundOp::Filter(predicate) => {
                let s = selectivity(&predicate).clamp(0.0, 1.0);
                let counts = counts[0].iter().map(|n| n * s).collect();
                let input = input();
                (PhysicalOp::Filter { input, predicate }, counts, None)
            }
            BoundOp::Project(exprs) => {
                let input = input();
                (
                    PhysicalOp::Project { input, exprs },
                    counts[0].clone(),
                    None,
                )
            }
            BoundOp::Union => {
                let counts = counts[0].iter().zip(&counts[1]).map(|(a, b)| a + b);
                let (left, right) = (input(), input());
                (PhysicalOp::UnionAll { left, right }, counts.collect(), None)
            }
            BoundOp::Exchange(params) => {
                let (exchange, counts, out_total) = self.exchange(params, counts)?;
                let inputs = inputs.collect();
                let op = PhysicalOp::Exchange {
                    inputs,
                    exchange,
                    params,
                };
                (op, counts, Some(out_total))
            }
        };
        let plan = PhysicalPlan {
            op,
            schema,
            label: plan.label(),
            rows_est: out_total.unwrap_or_else(|| counts.iter().sum()),
        };
        Ok((plan, counts))
    }

    /// Price every registered candidate for an exchanging operator over
    /// its inputs' estimated `counts`: the chosen exchange and the
    /// operator's estimated output rows, per node and in total.
    fn exchange(
        &self,
        params: OpParams,
        counts: Vec<NodeCounts>,
    ) -> Result<(Exchange, NodeCounts, f64), QueryError> {
        let widths = match params {
            OpParams::Join {
                left_width,
                right_width,
                ..
            }
            | OpParams::CrossJoin {
                left_width,
                right_width,
            } => [left_width, right_width],
            // Partials are `(group, measure)` pairs.
            OpParams::Aggregate { .. } => [2, 0],
            OpParams::Sort { width, .. }
            | OpParams::Distinct { width }
            | OpParams::Limit { width, .. } => [width, 0],
        };
        let mut sides = counts
            .into_iter()
            .zip(widths)
            .map(|(counts, width)| PlanSide { counts, width });
        let mut args = PlanArgs {
            model: &self.model,
            seed: self.options.seed,
            order: self.catalog.order().clone(),
            left: sides.next().expect("an exchange has an input"),
            right: sides.next(),
            groups: 0.0,
            limit: 0,
        };
        let total = args.left.total();
        let right_total = args.right.as_ref().map_or(0.0, PlanSide::total);
        let out_total = match params {
            // Key/foreign-key shape, placed by the winning strategy.
            OpParams::Join { .. } if total == 0.0 || right_total == 0.0 => 0.0,
            OpParams::Join { .. } => total.max(right_total),
            OpParams::CrossJoin { .. } => total * right_total,
            OpParams::Aggregate { .. } => {
                // Distinct-group heuristic: √n groups (module docs).
                args.groups = total.sqrt().ceil().max(if total > 0.0 { 1.0 } else { 0.0 });
                args.groups
            }
            OpParams::Limit { n, .. } => {
                args.limit = n;
                total.min(n as f64)
            }
            OpParams::Sort { .. } | OpParams::Distinct { .. } => total,
        };
        let kind = params.kind();
        let exchange = self
            .registry
            .plan(kind, self.options.force.get(kind), &args)?;
        let shares = exchange.strategy.output_shares(&args);
        let out_counts = self.model.distributed(out_total, &shares);
        Ok((exchange, out_counts, out_total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::QueryContext;
    use crate::exec::StrategyForce;
    use crate::expr::{col, lit};
    use crate::plan::AggFunc;
    use crate::row::Row;
    use crate::table::DistributedTable;
    use strategy::OperatorKind;
    use tamp_topology::{builders, Tree};

    /// Lower against the built-in strategies, plan only.
    fn lower(
        plan: &LogicalPlan,
        catalog: &Catalog,
        options: ExecOptions,
    ) -> Result<PhysicalPlan, QueryError> {
        super::lower(plan, catalog, options, &StrategyRegistry::with_defaults())
    }

    fn star_catalog(facts: u64, dims: u64) -> Catalog {
        let tree = builders::star(4, 1.0);
        let mut c = Catalog::new(tree);
        let rows: Vec<Row> = (0..facts).map(|i| vec![i, i % 7, i * 3]).collect();
        c.register(DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            c.tree(),
        ))
        .unwrap();
        let d: Vec<Row> = (0..dims).map(|g| vec![g, g + 100]).collect();
        c.register(DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "label"]).unwrap(),
            d,
            c.tree(),
        ))
        .unwrap();
        c
    }

    #[test]
    fn auto_broadcasts_tiny_dimension_tables() {
        let c = star_catalog(600, 7);
        let q = LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g");
        let p = lower(&q, &c, ExecOptions::default()).unwrap();
        match &p.op {
            PhysicalOp::Exchange {
                exchange,
                params: OpParams::Join { .. },
                ..
            } => {
                assert_eq!(exchange.name(), "broadcast-small");
                assert_eq!(exchange.candidates.len(), 4);
                assert!(exchange.estimate.tuple_cost > 0.0);
                // The join carries the Theorem-1 lower bound and a ratio
                // per candidate.
                assert!(exchange.lower_bound.is_some());
                for cand in &exchange.candidates {
                    assert!(cand.ratio.is_finite(), "{cand:?}");
                }
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn auto_keeps_colocated_skew_in_place() {
        // Both sides parked on one node: the weighted repartition moves
        // (almost) nothing, so the planner must not pick the uniform shuffle.
        let tree = builders::heterogeneous_star(&[0.5, 4.0, 4.0, 4.0]);
        let heavy = tree.compute_nodes()[0];
        let mut c = Catalog::new(tree);
        let rows: Vec<Row> = (0..300).map(|i| vec![i, i % 5, i]).collect();
        c.register(DistributedTable::single_node(
            "a",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows.clone(),
            c.tree(),
            heavy,
        ))
        .unwrap();
        c.register(DistributedTable::single_node(
            "b",
            Schema::new(vec!["g", "y", "z"]).unwrap(),
            rows,
            c.tree(),
            heavy,
        ))
        .unwrap();
        let q = LogicalPlan::scan("a").join_on(LogicalPlan::scan("b"), "g", "g");
        let p = lower(&q, &c, ExecOptions::default()).unwrap();
        let x = p.exchange().unwrap();
        assert_ne!(x.name(), "uniform-repartition");
        // Everything is already in place: the estimate is (near) zero
        // while the uniform candidate is expensive.
        let uniform = x
            .candidates
            .iter()
            .find(|c| c.name == "uniform-repartition")
            .unwrap()
            .cost;
        assert!(x.estimate.tuple_cost < 1e-9, "{}", x.estimate.tuple_cost);
        assert!(uniform > 100.0, "{uniform}");
    }

    #[test]
    fn forcing_by_name_covers_every_registered_join_strategy() {
        let c = star_catalog(120, 30);
        let q = LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g");
        for name in [
            "weighted-repartition",
            "tree-partition",
            "broadcast-small",
            "uniform-repartition",
        ] {
            let opts = ExecOptions {
                force: StrategyForce {
                    join: Some(name),
                    ..StrategyForce::default()
                },
                ..ExecOptions::default()
            };
            let p = lower(&q, &c, opts).unwrap();
            assert_eq!(p.exchange().unwrap().name(), name);
        }
        // An unknown name is a typed error listing the alternatives.
        let opts = ExecOptions {
            force: StrategyForce {
                join: Some("nope"),
                ..StrategyForce::default()
            },
            ..ExecOptions::default()
        };
        match lower(&q, &c, opts) {
            Err(QueryError::UnknownStrategy {
                operator,
                name,
                available,
            }) => {
                assert_eq!(operator, "join");
                assert_eq!(name, "nope");
                assert!(available.contains(&"tree-partition".to_string()));
            }
            other => panic!("expected UnknownStrategy, got {other:?}"),
        }
    }

    #[test]
    fn every_operator_lowers_with_estimates() {
        let c = star_catalog(200, 7);
        let q = LogicalPlan::scan("facts")
            .filter(col("x").gt(lit(10)))
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .aggregate("label", AggFunc::Sum, "x")
            .order_by("label")
            .limit(5);
        let p = lower(&q, &c, ExecOptions::default()).unwrap();
        assert!(p.estimated_cost() > 0.0);
        assert!(p.estimated_rounds() >= 5, "{}", p.estimated_rounds());
        let text = p.to_string();
        assert!(text.contains("est cost"), "{text}");
        assert!(text.contains("via"), "{text}");
        assert!(text.contains("candidates"), "{text}");
        assert!(text.contains("ratio"), "{text}");
    }

    #[test]
    fn explain_lists_paper_and_baseline_candidates_per_operator() {
        let c = star_catalog(300, 40);
        let q = LogicalPlan::scan("facts")
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .order_by("x");
        let p = lower(&q, &c, ExecOptions::default()).unwrap();
        let text = p.to_string();
        // Join candidates (Alg-2 weighted hash, §3 TreeIntersect routing,
        // V_β broadcast, uniform baseline) and both sort policies.
        for name in [
            "weighted-repartition",
            "tree-partition",
            "broadcast-small",
            "uniform-repartition",
            "weighted-range-shuffle",
            "uniform-range-shuffle",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        // Cross-join candidates surface too.
        let q = LogicalPlan::scan("dims").cross(LogicalPlan::scan("dims"));
        let text = lower(&q, &c, ExecOptions::default()).unwrap().to_string();
        for name in ["whc-grid", "broadcast-small", "uniform-hypercube"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn registering_a_taken_name_replaces_in_place() {
        let mut r = StrategyRegistry::with_defaults();
        let before = r.candidates(OperatorKind::Join).len();
        let dup = Arc::clone(r.get(OperatorKind::Join, "broadcast-small").unwrap());
        r.register(dup);
        assert_eq!(r.candidates(OperatorKind::Join).len(), before);
        // Position (the candidate-listing order) is kept too.
        assert_eq!(
            r.candidates(OperatorKind::Join)[1].name(),
            "broadcast-small"
        );
    }

    /// Pre-order `(operator label, chosen strategy)` of every exchange.
    fn choices(plan: &PhysicalPlan, out: &mut Vec<(String, &'static str)>) {
        if let Some(x) = plan.exchange() {
            out.push((plan.label.clone(), x.name()));
        }
        for child in plan.children() {
            choices(child, out);
        }
    }

    /// x-serve's tables (`crates/bench/src/serving.rs`) over `tree`.
    fn serving_context(tree: Tree, facts: u64) -> QueryContext {
        let mut ctx = QueryContext::new(tree.clone()).with_seed(17);
        for (name, columns, rows) in [
            (
                "facts",
                vec!["id", "g", "x"],
                (0..facts)
                    .map(|i| vec![i, i % 11, (i * 29) % 1024])
                    .collect::<Vec<Row>>(),
            ),
            (
                "dims",
                vec!["g", "tier"],
                (0..11).map(|g| vec![g, g + 40]).collect(),
            ),
            (
                "grps",
                vec!["tier", "band"],
                (40..51).map(|t| vec![t, t % 4]).collect(),
            ),
        ] {
            let schema = Schema::new(columns).unwrap();
            ctx.register(DistributedTable::round_robin(name, schema, rows, &tree))
                .unwrap();
        }
        ctx
    }

    /// The schedule of every serving workload — x-serve's two trees and
    /// the benchmark's — pinned exchange by exchange, so an arithmetic
    /// change in the pricing cannot flip a plan silently. Mathematically
    /// tied candidates (weighted vs uniform shares over round-robin data
    /// on a symmetric tree) must resolve alike everywhere: to the
    /// baseline.
    #[test]
    fn serving_plans_choose_the_pinned_strategies() {
        let plans = [
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
        ];
        const SORT_W: &str = "weighted-range-shuffle";
        const SORT_U: &str = "uniform-range-shuffle";
        const HASH_W: &str = "weighted-repartition";
        const HASH_U: &str = "uniform-repartition";
        // Per exchange, pre-order over the three plans: the choice on
        // star(32) / fat_tree(2, 5) with 96 facts and on the benchmark's
        // fat_tree(2, 8) with 288.
        let pinned = [
            ("OrderBy band", [SORT_U; 3]),
            ("Aggregate sum", [HASH_U; 3]),
            ("HashJoin tier=tier", [HASH_U; 3]),
            ("HashJoin g=g", [HASH_U; 3]),
            ("Limit 20", ["gather"; 3]),
            ("OrderBy x", [SORT_U; 3]),
            ("HashJoin g=g", [HASH_U; 3]),
            ("OrderBy g", [SORT_U, SORT_W, SORT_W]),
            ("Aggregate count", [HASH_U, HASH_W, HASH_W]),
            ("Distinct", [HASH_W; 3]),
        ];
        for (t, (tree, facts)) in [
            (builders::star(32, 1.0), 96),
            (builders::fat_tree(2, 5, 1.0), 96),
            (builders::fat_tree(2, 8, 1.0), 288),
        ]
        .into_iter()
        .enumerate()
        {
            let ctx = serving_context(tree, facts);
            let mut got = Vec::new();
            for plan in &plans {
                choices(ctx.prepare(plan).unwrap().physical_plan(), &mut got);
            }
            let want = pinned.map(|(label, by_tree)| (label.to_string(), by_tree[t]));
            assert_eq!(got, want, "tree #{t}");
        }
    }

    /// `examples/explain.rs`'s first scenario — a heterogeneous star with
    /// balanced data — prices three join candidates at a mathematical tie
    /// (916.67) that accumulation order splits by an ulp. Noise must not
    /// pick the plan: the baseline does, and keeps its own estimate.
    #[test]
    fn near_tied_explain_join_goes_to_the_baseline() {
        let tree = builders::heterogeneous_star(&[0.5, 4.0, 4.0, 4.0, 4.0, 4.0]);
        let mut ctx = QueryContext::new(tree.clone()).with_seed(7);
        ctx.register(DistributedTable::round_robin(
            "orders",
            Schema::new(vec!["id", "product", "amount"]).unwrap(),
            (0..900).map(|i| vec![i, i % 12, (i * 97) % 500]).collect(),
            &tree,
        ))
        .unwrap();
        ctx.register(DistributedTable::round_robin(
            "products",
            Schema::new(vec!["product", "category"]).unwrap(),
            (0..300).map(|p| vec![p % 12, p % 4]).collect(),
            &tree,
        ))
        .unwrap();
        let q = LogicalPlan::scan("orders").join_on(
            LogicalPlan::scan("products"),
            "product",
            "product",
        );
        let prepared = ctx.prepare(&q).unwrap();
        let x = prepared.physical_plan().exchange().unwrap();
        assert_eq!(x.name(), "uniform-repartition");
        let cost_of = |name| x.candidates.iter().find(|c| c.name == name).unwrap().cost;
        assert_eq!(x.estimate.tuple_cost, cost_of("uniform-repartition"));
        for tied in ["weighted-repartition", "tree-partition"] {
            let gap = (cost_of(tied) - x.estimate.tuple_cost).abs();
            assert!(gap <= 1e-9 * x.estimate.tuple_cost, "{tied}: {gap}");
        }
        assert!(cost_of("broadcast-small") > 1.05 * x.estimate.tuple_cost);
    }

    #[test]
    fn lowering_validates_names() {
        let c = star_catalog(10, 3);
        assert!(lower(&LogicalPlan::scan("nope"), &c, ExecOptions::default()).is_err());
        assert!(lower(
            &LogicalPlan::scan("facts").order_by("zzz"),
            &c,
            ExecOptions::default()
        )
        .is_err());
    }
}
