//! Query results: output batch fragments plus the metered cost breakdown.

use tamp_simulator::cost::Cost;
use tamp_topology::NodeId;

use crate::batch::{batch_rows, BatchFragments};
use crate::row::{canonicalize, Row};
use crate::schema::Schema;

/// Estimated-vs-metered cost of one operator, in plan post-order.
#[derive(Clone, Debug, PartialEq)]
pub struct OperatorCost {
    /// Operator label (e.g. `HashJoin g=g`).
    pub op: String,
    /// The strategy that executed the operator's exchange (`None` for
    /// local operators).
    pub strategy: Option<&'static str>,
    /// The planner's §2 estimate for the operator's exchange (0 for
    /// local operators).
    pub estimated: f64,
    /// The metered tuple cost actually charged to the operator's rounds.
    pub actual: f64,
    /// The task's per-edge lower bound on the estimated placement, when
    /// evaluated.
    pub lower_bound: Option<f64>,
    /// Communication rounds the operator used.
    pub rounds: usize,
}

/// The result of a distributed query execution.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Output schema.
    pub schema: Schema,
    /// Output batch fragments, indexed by node id — what the plan's last
    /// operator produced; [`rows`](Self::rows) builds rows from them.
    pub fragments: BatchFragments,
    /// Total metered cost.
    pub cost: Cost,
    /// Per-operator estimated-vs-actual cost, in execution order
    /// (post-order of the plan); operators with no communication report
    /// `0`.
    pub operator_costs: Vec<OperatorCost>,
    /// The planner's total estimated §2 cost for the plan.
    pub estimated_cost: f64,
    /// Communication rounds used.
    pub rounds: usize,
    /// BSP supersteps the backend executed (the cluster adds a terminal
    /// silent superstep on top of `rounds`; the simulator reports
    /// `rounds`). A checkpoint-resumed run counts from superstep 0, so
    /// the value stays comparable with a fault-free run.
    pub supersteps: usize,
    /// `Some(r)` when the execution resumed from a parked checkpoint at
    /// superstep `r` — supersteps `0..r` were *skipped*, only
    /// `supersteps - r` were replayed. `None` for a from-scratch run.
    pub resumed_from: Option<usize>,
    /// The compute-node order along which `OrderBy` range-partitions (the
    /// tree's valid left-to-right order); order-preserving row collection
    /// concatenates fragments along it.
    pub(crate) node_order: std::sync::Arc<[NodeId]>,
}

impl QueryResult {
    /// All output rows, built on each call. Order-preserving plans
    /// (`OrderBy`, `Limit` above one) concatenate fragments in execution
    /// order; anything else is canonicalized for stable comparisons.
    pub fn rows(&self, order_preserving: bool) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.num_rows());
        for &v in self.node_order.iter() {
            for b in &self.fragments[v.index()] {
                b.append_rows(&mut rows);
            }
        }
        if !order_preserving {
            canonicalize(&mut rows);
        }
        rows
    }

    /// Total number of output rows.
    pub fn num_rows(&self) -> usize {
        batch_rows(self.fragments.batches())
    }
}
