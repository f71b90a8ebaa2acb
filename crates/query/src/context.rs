//! The `QueryContext` session API.
//!
//! A [`QueryContext`] bundles a topology-bound [`Catalog`] with session
//! [`ExecOptions`] and exposes the prepare/explain/run pipeline:
//!
//! ```
//! use tamp_query::prelude::*;
//! use tamp_topology::builders;
//!
//! let mut ctx = QueryContext::new(builders::star(4, 1.0)).with_seed(7);
//! let rows: Vec<Vec<u64>> = (0..100).map(|i| vec![i, i % 3, i * 2]).collect();
//! ctx.register(DistributedTable::round_robin(
//!     "t",
//!     Schema::new(vec!["id", "g", "x"]).unwrap(),
//!     rows,
//!     ctx.tree(),
//! ))
//! .unwrap();
//!
//! // Build a plan fluently, then prepare → explain → run.
//! let q = LogicalPlan::scan("t")
//!     .filter(col("x").gt(lit(50)))
//!     .aggregate("g", AggFunc::Count, "id");
//! let result = ctx.prepare(&q).unwrap().run().unwrap();
//! assert_eq!(result.schema.columns(), &["g", "count_id"]);
//!
//! let prepared = ctx
//!     .prepare(&LogicalPlan::scan("t").order_by("x"))
//!     .unwrap();
//! assert!(prepared.explain().contains("range-shuffle"));
//! let result = prepared.run().unwrap();
//! assert_eq!(result.num_rows(), 100);
//! ```
//!
//! [`PreparedQuery::run_on`] executes the same prepared plan on any
//! [`ExecBackend`] — the centralized simulator or the pooled BSP cluster
//! — with bit-identical cost ledgers (see [`crate::exec`]).

use std::sync::Arc;

use tamp_runtime::backend::{ExecBackend, SimulatorBackend};
use tamp_topology::Tree;

use crate::error::QueryError;
use crate::exec::{self, ExecOptions, QueryResult};
use crate::physical::strategy::{OperatorKind, PhysicalStrategy, StrategyRegistry};
use crate::physical::{self, PhysicalPlan};
use crate::plan::LogicalPlan;
use crate::reference;
use crate::schema::Schema;
use crate::table::{Catalog, DistributedTable};

/// A query session: a catalog of distributed tables plus session
/// options, the entry point of the relational layer.
#[derive(Clone, Debug)]
pub struct QueryContext {
    catalog: Catalog,
    options: ExecOptions,
    registry: StrategyRegistry,
}

impl QueryContext {
    /// A fresh session over `tree` with an empty catalog and default
    /// options.
    pub fn new(tree: Tree) -> Self {
        QueryContext {
            catalog: Catalog::new(tree),
            options: ExecOptions::default(),
            registry: StrategyRegistry::with_defaults(),
        }
    }

    /// Wrap an existing catalog.
    pub fn with_catalog(catalog: Catalog) -> Self {
        QueryContext {
            catalog,
            options: ExecOptions::default(),
            registry: StrategyRegistry::with_defaults(),
        }
    }

    /// Builder-style: set the hashing/sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Builder-style: force a named strategy for one operator. The name
    /// resolves against the session's registry at plan time; unknown
    /// names surface as
    /// [`QueryError::UnknownStrategy`](crate::error::QueryError) from
    /// [`prepare`](Self::prepare).
    ///
    /// # Panics
    /// Panics for [`OperatorKind::Distinct`] / [`OperatorKind::Limit`],
    /// whose exchanges have a single built-in strategy.
    pub fn with_strategy(mut self, op: OperatorKind, name: &'static str) -> Self {
        match op {
            OperatorKind::Join => self.options.force.join = Some(name),
            OperatorKind::CrossJoin => self.options.force.cross = Some(name),
            OperatorKind::Sort => self.options.force.sort = Some(name),
            OperatorKind::Aggregate => self.options.force.aggregate = Some(name),
            OperatorKind::Distinct | OperatorKind::Limit => {
                panic!("{op} has a single built-in strategy and cannot be forced")
            }
        }
        self
    }

    /// Register a custom [`PhysicalStrategy`] with this session: the
    /// planner prices it against the built-ins on every subsequent
    /// `prepare` (see [`crate::physical::strategy`] for a worked
    /// example). Returns `&mut self` for chained registration.
    pub fn register_strategy(&mut self, strategy: Arc<dyn PhysicalStrategy>) -> &mut Self {
        self.registry.register(strategy);
        self
    }

    /// The session's strategy registry.
    pub fn strategies(&self) -> &StrategyRegistry {
        &self.registry
    }

    /// The session's execution options.
    pub fn options(&self) -> ExecOptions {
        self.options
    }

    /// Register a table; replaces any table with the same name. Returns
    /// `&mut self` for chained registration.
    pub fn register(&mut self, table: DistributedTable) -> Result<&mut Self, QueryError> {
        self.catalog.register(table)?;
        Ok(self)
    }

    /// The catalog backing this session.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Degrade one link of the session's topology in place: divide both
    /// directed bandwidths of `edge` by `factor`. Every subsequent
    /// `prepare` prices its strategy candidates against the degraded
    /// network, so the plan that wins can flip (the service's test-only
    /// `degrade_link` adds cache invalidation on top).
    #[cfg(test)]
    pub(crate) fn degrade_link(
        &mut self,
        edge: tamp_topology::EdgeId,
        factor: f64,
    ) -> Result<(), QueryError> {
        self.catalog.scale_bandwidth(edge, factor)
    }

    /// The topology the session's tables live on.
    pub fn tree(&self) -> &Tree {
        self.catalog.tree()
    }

    /// Plan `plan` into a [`PreparedQuery`]: validate, lower to a
    /// [`PhysicalPlan`], and price every registered strategy candidate
    /// of every exchange, keeping the cheapest (or the one
    /// [`with_strategy`](Self::with_strategy) forces).
    pub fn prepare(&self, plan: &LogicalPlan) -> Result<PreparedQuery<'_>, QueryError> {
        let physical = physical::lower(plan, &self.catalog, self.options, &self.registry)?;
        Ok(PreparedQuery {
            catalog: &self.catalog,
            options: self.options,
            logical: plan.clone(),
            physical,
        })
    }

    /// Prepare and run `plan` on the default (simulator) backend.
    pub fn execute(&self, plan: &LogicalPlan) -> Result<QueryResult, QueryError> {
        self.prepare(plan)?.run()
    }
}

/// A planned, cost-estimated, backend-generic query: inspect it with
/// [`explain`](PreparedQuery::explain), execute it with
/// [`run`](PreparedQuery::run) / [`run_on`](PreparedQuery::run_on).
#[derive(Clone, Debug)]
pub struct PreparedQuery<'c> {
    catalog: &'c Catalog,
    options: ExecOptions,
    logical: LogicalPlan,
    physical: PhysicalPlan,
}

impl PreparedQuery<'_> {
    /// The output schema.
    pub fn schema(&self) -> &Schema {
        &self.physical.schema
    }

    /// The lowered physical plan with its exchanges and estimates.
    pub fn physical_plan(&self) -> &PhysicalPlan {
        &self.physical
    }

    /// The planner's total estimated §2 cost.
    pub fn estimated_cost(&self) -> f64 {
        self.physical.estimated_cost()
    }

    /// Render the physical plan with per-exchange estimated costs — the
    /// `EXPLAIN` of this layer. Works identically on every backend (the
    /// plan, not the engine, decides the exchanges).
    pub fn explain(&self) -> String {
        self.physical.explain(self.options.seed)
    }

    /// Whether fragment concatenation in node order is globally
    /// meaningful for this query (downstream of a sort).
    pub fn preserves_order(&self) -> bool {
        reference::preserves_order(&self.logical)
    }

    /// Run on the default engine (the centralized simulator backend).
    pub fn run(&self) -> Result<QueryResult, QueryError> {
        self.run_on(&SimulatorBackend)
    }

    /// Run on an explicit [`ExecBackend`]. The exchange schedule is
    /// derived once from the plan and replayed through the backend, so
    /// every engine moves — and meters — bit-identical traffic.
    pub fn run_on(&self, backend: &dyn ExecBackend) -> Result<QueryResult, QueryError> {
        exec::run_physical(self.catalog, &self.physical, self.options, backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::plan::AggFunc;
    use crate::reference;
    use tamp_runtime::PooledClusterBackend;
    use tamp_topology::builders;

    fn ctx() -> QueryContext {
        let tree = builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0);
        let mut ctx = QueryContext::new(tree.clone()).with_seed(11);
        let rows: Vec<Vec<u64>> = (0..150).map(|i| vec![i, i % 6, (i * 37) % 500]).collect();
        let facts = DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            &tree,
        );
        let dims = DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            (0..6).map(|g| vec![g, g + 10]).collect(),
            &tree,
        );
        ctx.register(facts).unwrap().register(dims).unwrap();
        ctx
    }

    #[test]
    fn dataframe_chain_matches_reference() {
        let ctx = ctx();
        let q = LogicalPlan::scan("facts")
            .filter(col("x").lt(lit(250)))
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .aggregate("tier", AggFunc::Sum, "x")
            .order_by("tier");
        let res = ctx.execute(&q).unwrap();
        let want = reference::evaluate(&q, ctx.catalog()).unwrap();
        assert_eq!(res.rows(true), want);
    }

    #[test]
    fn explain_shows_exchanges_and_costs() {
        let ctx = ctx();
        let prepared = ctx
            .prepare(
                &LogicalPlan::scan("facts")
                    .join_on(LogicalPlan::scan("dims"), "g", "g")
                    .order_by("x"),
            )
            .unwrap();
        let text = prepared.explain();
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("est cost"), "{text}");
        assert!(text.contains("candidates"), "{text}");
        assert!(text.contains("range-shuffle"), "{text}");
        assert!(prepared.estimated_cost() > 0.0);
    }

    #[test]
    fn prepared_query_runs_on_both_backends_bit_identically() {
        let ctx = ctx();
        let prepared = ctx
            .prepare(
                &LogicalPlan::scan("facts")
                    .join_on(LogicalPlan::scan("dims"), "g", "g")
                    .aggregate("tier", AggFunc::Count, "id"),
            )
            .unwrap();
        let sim = prepared.run().unwrap();
        let cluster = prepared.run_on(&PooledClusterBackend::default()).unwrap();
        assert_eq!(sim.cost.edge_totals, cluster.cost.edge_totals);
        assert_eq!(sim.rounds, cluster.rounds);
        assert_eq!(sim.rows(false), cluster.rows(false));
    }

    #[test]
    fn unknown_tables_surface_at_prepare_time() {
        let ctx = ctx();
        let err = ctx.prepare(&LogicalPlan::scan("nope")).unwrap_err();
        assert!(matches!(err, QueryError::UnknownTable(_)));
    }

    #[test]
    fn session_options_flow_into_planning() {
        let base = ctx();
        let forced = QueryContext::with_catalog(base.catalog().clone())
            .with_strategy(OperatorKind::Join, "uniform-repartition");
        let q = LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g");
        let p = forced.prepare(&q).unwrap();
        assert!(
            p.explain().contains("via uniform-repartition"),
            "{}",
            p.explain()
        );
    }
}
