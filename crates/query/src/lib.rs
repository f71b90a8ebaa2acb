//! # tamp-query
//!
//! A distributed relational query layer executing on the topology-aware
//! massively parallel computation cost model of Hu, Koutris and Blanas
//! (PODS 2021).
//!
//! The paper motivates its three tasks — set intersection, cartesian
//! product, sorting — as "the essential building blocks for evaluating any
//! complex analytical query", and its central claim is that the
//! *communication strategy* should be chosen from the topology and the
//! data distribution. This crate makes that choice a first-class planning
//! decision. Queries flow through three layers:
//!
//! 1. **[`LogicalPlan`]** ([`plan`]) — the relational algebra (filter /
//!    project / equi-join / cross join / order-by / group-by / limit /
//!    distinct / union-all) over named [`DistributedTable`]s, with
//!    schema inference and a rewrite optimizer (constant folding,
//!    conjunction splitting, filter pushdown).
//! 2. **[`PhysicalPlan`]** ([`physical`]) — the same operators with
//!    every exchange *explicit, strategy-chosen and priced*: each
//!    operator asks the session's
//!    [`StrategyRegistry`] for all
//!    registered [`PhysicalStrategy`]
//!    candidates — the paper's algorithms (Alg-2 weighted hash, §3
//!    `TreeIntersect` routing, §4/A.1 wHC rectangles, §5.2
//!    weighted-TeraSort splitters, in-network combining) next to their
//!    topology-agnostic baselines — prices them on the §2 functional and
//!    against the task's per-edge **lower bound**, and keeps the
//!    cheapest; `EXPLAIN` shows every candidate's estimate and Table-1
//!    ratio. Third-party strategies plug in via
//!    [`QueryContext::register_strategy`](context::QueryContext::register_strategy).
//! 3. **Backend-generic execution** ([`exec`]) — each winning strategy
//!    emits its exchange schedule once, and the whole plan's schedule
//!    replays through any
//!    [`ExecBackend`](tamp_runtime::backend::ExecBackend): the
//!    centralized simulator and the pooled BSP cluster move — and meter —
//!    bit-identical traffic.
//!
//! The session API ([`context`]) ties the layers together:
//!
//! ```
//! use tamp_query::prelude::*;
//! use tamp_topology::builders;
//!
//! let mut ctx = QueryContext::new(builders::star(4, 1.0));
//! let rows: Vec<Vec<u64>> = (0..100).map(|i| vec![i, i % 3, i * 2]).collect();
//! ctx.register(DistributedTable::round_robin(
//!     "t",
//!     Schema::new(vec!["id", "g", "x"]).unwrap(),
//!     rows,
//!     ctx.tree(),
//! ))
//! .unwrap();
//!
//! // A fluent plan, run once on the default engine:
//! let q = LogicalPlan::scan("t")
//!     .filter(col("x").gt(lit(50)))
//!     .aggregate("g", AggFunc::Count, "id");
//! let result = ctx.execute(&q).unwrap();
//! assert_eq!(result.schema.columns(), &["g", "count_id"]);
//!
//! // Or prepare once, inspect the EXPLAIN, run anywhere:
//! let q = LogicalPlan::scan("t").join_on(LogicalPlan::scan("t"), "g", "g");
//! let prepared = ctx.prepare(&q).unwrap();
//! println!("{}", prepared.explain()); // per-exchange estimated costs
//! let on_cluster = prepared
//!     .run_on(&tamp_runtime::PooledClusterBackend::default())
//!     .unwrap();
//! let on_sim = prepared.run().unwrap();
//! assert_eq!(on_sim.cost.edge_totals, on_cluster.cost.edge_totals);
//! ```
//!
//! [`QueryContext`] → [`PreparedQuery`] is the **only way in**, and the
//! session owns the strategy registry: a strategy registered (or forced,
//! via [`QueryContext::with_strategy`](context::QueryContext::with_strategy))
//! on it is seen by every path that plans for it.
//!
//! The serving stack on top says each thing once, too. One type, the
//! [`QueryService`], shares one session across client threads behind a
//! prepared-plan cache, **one admission gate** ([`admission`]: weighted
//! round-robin; one implicit tenant is arrival order) and **one serve loop**
//! for relational queries and iterative jobs.
//! [`QueryService::builder`] gives it real tenants, one fixed worker crew
//! and fault hooks, so replay recovery runs in that loop and each killed
//! attempt is one [`RecoveryEvent`]; [`chaos`] draws seeded fault
//! schedules against it. An engine failure stays the engine's own typed
//! error, carried as [`QueryError::Exec`].
//!
//! Results carry per-operator *estimated vs. metered* cost pairs
//! ([`QueryResult::operator_costs`]), so planning quality is observable
//! on every run; the `x-plan` experiment suite tracks it across
//! topologies.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod admission;
pub mod batch;
pub mod chaos;
pub mod context;
pub mod error;
pub mod exec;
pub mod expr;
pub mod iterative;
mod optimizer;
pub mod physical;
pub mod plan;
pub mod reference;
pub mod row;
pub mod schema;
pub mod service;
pub mod table;

/// Everything needed to build and run queries.
pub mod prelude {
    pub use crate::admission::{Priority, TenantSpec};
    pub use crate::batch::RecordBatch;
    pub use crate::context::{PreparedQuery, QueryContext};
    pub use crate::exec::{ExecOptions, OperatorCost, QueryResult};
    pub use crate::expr::{col, lit, Expr};
    pub use crate::iterative::{
        IterMode, IterValues, IterationCost, IterativeJob, IterativeOutcome, IterativeSpec,
        PreparedIterative,
    };
    pub use crate::optimizer::optimize;
    pub use crate::physical::strategy::{
        Candidate, CostEstimate, OperatorKind, PhysicalStrategy, StrategyRegistry,
    };
    pub use crate::physical::{Exchange, PhysicalPlan};
    pub use crate::plan::{AggFunc, LogicalPlan};
    pub use crate::schema::Schema;
    pub use crate::service::{
        AdmissionStats, CacheStats, QueryService, RetryPolicy, ScalingSpec, ServedIterative,
        ServedQuery, ServiceStats, TenantStats,
    };
    pub use crate::table::{Catalog, DistributedTable};

    /// The multi-tenant service's former name, kept while the benchmark
    /// harness still builds with it: `Orchestrator::builder(ctx)` is
    /// [`QueryService::builder`].
    pub type Orchestrator = QueryService;
}

pub use admission::{Priority, TenantSpec};
pub use batch::RecordBatch;
pub use context::{PreparedQuery, QueryContext};
pub use error::QueryError;
pub use exec::{ExecOptions, OperatorCost, QueryResult};
pub use iterative::{
    IterMode, IterValues, IterationCost, IterativeJob, IterativeOutcome, IterativeSpec,
    PreparedIterative,
};
pub use physical::strategy::{OperatorKind, PhysicalStrategy, StrategyRegistry};
pub use physical::{Exchange, PhysicalPlan};
pub use plan::{AggFunc, LogicalPlan};
pub use schema::Schema;
pub use service::{
    AdmissionStats, CacheStats, QueryService, RecoveryEvent, RetryPolicy, ScalingSpec,
    ServedIterative, ServedQuery, ServiceBuilder, ServiceStats, TenantStats,
};
pub use table::{Catalog, DistributedTable};

/// Recover a guard from a possibly-poisoned mutex: the serving stack must
/// keep serving after a panicking query thread (the state under these
/// locks is counters, queues and immutable `Arc`s, never left
/// half-written).
pub(crate) fn lock_ok<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
