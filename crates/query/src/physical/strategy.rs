//! The pluggable operator-strategy API.
//!
//! Every communicating logical operator — equi-join, cross join, sort,
//! group-by aggregate, distinct, limit — is executed by a
//! [`PhysicalStrategy`]: one concrete way of moving the operator's rows
//! across the tree. The planner does not hard-wire a strategy per
//! operator; it asks the session's [`StrategyRegistry`] for every
//! registered candidate, prices each one on the §2 functional
//! ([`PhysicalStrategy::estimate`]), evaluates the task's per-edge lower
//! bound ([`PhysicalStrategy::lower_bound`], wired to the
//! `tamp_core::{intersection,cartesian,sorting,aggregate}` theorems), and
//! keeps the cheapest — recording *every* candidate with its
//! `estimate / lower bound` ratio (the paper's Table-1 quantity) so
//! `EXPLAIN` shows the rejected alternatives next to the winner.
//!
//! The chosen strategy then *executes* by emitting an exchange trace
//! ([`PhysicalStrategy::trace`]): the exact multiset of
//! `(src, dsts, rel, payload)` sends per round, plus the operator's
//! output fragments. The trace replays through any
//! [`ExecBackend`](tamp_runtime::backend::ExecBackend) via
//! [`tamp_runtime::ScheduleJob`], so a strategy written once runs on the
//! centralized simulator *and* the pooled BSP cluster with bit-identical
//! metered ledgers — strategies never talk to an engine directly.
//!
//! # Registering a third-party strategy
//!
//! A strategy is ~4 methods; everything else (candidate pricing, EXPLAIN
//! rendering, backend replay, cost attribution) is inherited. Price
//! traffic with [`CostModel`]'s closed forms (`gather_cost`,
//! `repartition_cost`, `multicast_cost`) or, for anything else, charge it
//! send by send on the accumulator [`CostModel::round`] returns. For
//! example, a join strategy that gathers both sides onto one node:
//!
//! ```
//! use std::sync::Arc;
//! use tamp_query::batch::{flatten_batches, BatchFragments};
//! use tamp_query::physical::cost::CostModel;
//! use tamp_query::physical::strategy::*;
//! use tamp_query::prelude::*;
//! use tamp_query::row::Row;
//! use tamp_query::QueryError;
//! use tamp_simulator::Rel;
//! use tamp_topology::builders;
//!
//! #[derive(Debug)]
//! struct AllToOneJoin;
//!
//! impl PhysicalStrategy for AllToOneJoin {
//!     fn name(&self) -> &'static str {
//!         "all-to-one"
//!     }
//!     fn operator(&self) -> OperatorKind {
//!         OperatorKind::Join
//!     }
//!     fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
//!         let target = a.model.tree().compute_nodes()[0];
//!         let right = a.right.as_ref().expect("join has two inputs");
//!         let cost = a.model.gather_cost(&a.left.counts, a.left.width, target)
//!             + a.model.gather_cost(&right.counts, right.width, target);
//!         CostEstimate { tuple_cost: cost, rounds: 1 }
//!     }
//!     fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
//!         let (OpParams::Join { left_key, right_key, left_width, right_width }, Ok([left, right])) =
//!             (input.params, <[_; 2]>::try_from(input.inputs))
//!         else {
//!             unreachable!("registered for Join");
//!         };
//!         let target = a.tree.compute_nodes()[0];
//!         let mut trace = TraceBuilder::default();
//!         // Fragments index by node, each node holding column batches;
//!         // this strategy thinks in rows, so it transposes what it gathers.
//!         let mut l_all: Vec<Row> = Vec::new();
//!         let mut r_all: Vec<Row> = Vec::new();
//!         trace.round(|round| {
//!             for &v in a.tree.compute_nodes() {
//!                 for (rel, frags, width, all) in [
//!                     (Rel::R, &left, left_width, &mut l_all),
//!                     (Rel::S, &right, right_width, &mut r_all),
//!                 ] {
//!                     let batches = &frags[v.index()];
//!                     batches.iter().for_each(|b| b.append_rows(all));
//!                     if v != target {
//!                         // `&[target]` is copied, the payload `Arc` shared.
//!                         round.send(v, &[target], rel, flatten_batches(batches, width));
//!                     }
//!                 }
//!             }
//!         });
//!         let mut joined: Vec<Row> = Vec::new();
//!         for l in &l_all {
//!             for r in r_all.iter().filter(|r| r[right_key] == l[left_key]) {
//!                 joined.push([&l[..], &r[..]].concat());
//!             }
//!         }
//!         let joined = RecordBatch::from_rows(&joined, left_width + right_width);
//!         let at_target = |v| (v == target.index()).then(|| joined.clone());
//!         let output = BatchFragments::from_fn(a.tree.num_nodes(), at_target);
//!         Ok(OpTrace { rounds: trace.into_rounds(), output })
//!     }
//! }
//!
//! let mut ctx = QueryContext::new(builders::star(3, 1.0));
//! ctx.register_strategy(Arc::new(AllToOneJoin));
//! // EXPLAIN now prices `all-to-one` against every built-in join
//! // strategy; force it with `ctx.with_strategy(OperatorKind::Join,
//! // "all-to-one")`.
//! # let _ = CostModel::new(ctx.tree());
//! ```

use std::fmt;
use std::sync::Arc;

use tamp_core::ratio::LowerBound;
use tamp_runtime::jobs::ScheduleSend;
use tamp_simulator::{PlacementStats, Rel, SharedSlice, Value};
use tamp_topology::{NodeId, Tree};

use crate::batch::BatchFragments;
use crate::error::QueryError;
use crate::physical::cost::{CostModel, NodeCounts};
use crate::plan::AggFunc;

/// The logical operators whose exchanges are strategy-pluggable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Equi-join of two inputs.
    Join,
    /// Cartesian product of two inputs.
    CrossJoin,
    /// Global sort along the tree's valid compute order.
    Sort,
    /// Grouped aggregation.
    Aggregate,
    /// Whole-row duplicate elimination.
    Distinct,
    /// Bounded collection of the first `n` rows.
    Limit,
}

impl OperatorKind {
    /// Lower-case operator name for error messages and reports.
    pub fn name(self) -> &'static str {
        match self {
            OperatorKind::Join => "join",
            OperatorKind::CrossJoin => "cross-join",
            OperatorKind::Sort => "sort",
            OperatorKind::Aggregate => "aggregate",
            OperatorKind::Distinct => "distinct",
            OperatorKind::Limit => "limit",
        }
    }
}

impl fmt::Display for OperatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One plan-time input of an operator: estimated per-node row counts and
/// the row width in values.
#[derive(Clone, Debug)]
pub struct PlanSide {
    /// Estimated rows per node id (routers 0).
    pub counts: NodeCounts,
    /// Row width, in `u64` values.
    pub width: usize,
}

impl PlanSide {
    /// Total estimated rows.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }
}

/// Everything a strategy sees at plan time.
#[derive(Debug)]
pub struct PlanArgs<'a> {
    /// The §2 pricing model over the session's tree.
    pub model: &'a CostModel<'a>,
    /// The session's hashing/sampling seed.
    pub seed: u64,
    /// The tree's valid compute order, computed once per catalog tree.
    pub order: Arc<[NodeId]>,
    /// The (left) input.
    pub left: PlanSide,
    /// The right input, for two-input operators.
    pub right: Option<PlanSide>,
    /// Estimated distinct groups (aggregate only; 0 elsewhere).
    pub groups: f64,
    /// The row budget (limit only; 0 elsewhere).
    pub limit: usize,
}

impl PlanArgs<'_> {
    /// Whether the tree is symmetric — the precondition of the
    /// `tamp_core` lower-bound theorems. Strategies return `None` from
    /// [`PhysicalStrategy::lower_bound`] on asymmetric trees.
    pub(crate) fn symmetric(&self) -> bool {
        self.model.tree().require_symmetric().is_ok()
    }

    /// The estimated inputs as [`PlacementStats`], in *values* (row
    /// counts × width, rounded): the left input plays `R`, the right
    /// plays `S`. Scaling by width keeps the `tamp_core` lower bounds —
    /// stated in transported tuples — comparable to the value-denominated
    /// exchange estimates.
    pub(crate) fn value_stats(&self) -> PlacementStats {
        let n_nodes = self.left.counts.len();
        let mut r = vec![0u64; n_nodes];
        let mut s = vec![0u64; n_nodes];
        for (i, c) in self.left.counts.iter().enumerate() {
            r[i] = (c * self.left.width as f64).round() as u64;
        }
        if let Some(right) = &self.right {
            for (i, c) in right.counts.iter().enumerate() {
                s[i] = (c * right.width as f64).round() as u64;
            }
        }
        let n: Vec<u64> = r.iter().zip(&s).map(|(a, b)| a + b).collect();
        let (total_r, total_s) = (r.iter().sum(), s.iter().sum());
        PlacementStats {
            r,
            s,
            n,
            total_r,
            total_s,
        }
    }

    /// Combined per-node row counts of both inputs (weighted-hash
    /// weights).
    pub(crate) fn combined_counts(&self) -> NodeCounts {
        match &self.right {
            Some(right) => self
                .left
                .counts
                .iter()
                .zip(&right.counts)
                .map(|(a, b)| a + b)
                .collect(),
            None => self.left.counts.clone(),
        }
    }
}

/// A strategy's plan-time price.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// Estimated `Σ_rounds max_e load(e)/w_e`, in values.
    pub tuple_cost: f64,
    /// Communication rounds the strategy will use.
    pub rounds: usize,
}

/// One priced candidate, kept in the plan so `EXPLAIN` can show the
/// rejected alternatives next to the winner.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Strategy name.
    pub name: &'static str,
    /// The paper algorithm the strategy adapts, if any.
    pub(crate) algorithm: Option<&'static str>,
    /// Estimated cost in values.
    pub cost: f64,
    /// Estimated rounds.
    pub rounds: usize,
    /// `cost / lower bound` — the Table-1 ratio — or `NaN` when the task
    /// has no evaluated bound here.
    pub ratio: f64,
}

/// Everything a strategy sees at execution time (the catalog-independent
/// slice of the executor's context).
#[derive(Debug)]
pub struct ExecArgs<'a> {
    /// The session tree.
    pub tree: &'a Tree,
    /// The session's hashing/sampling seed.
    pub seed: u64,
    /// The tree's valid compute order, computed once per catalog tree.
    pub order: Arc<[NodeId]>,
}

/// An exchanging operator's parameters in resolved (index) form: what
/// lowering binds once and stores in the plan's exchange, and what the
/// strategy receives next to the child fragments on every run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpParams {
    /// Equi-join.
    Join {
        /// Key column index on the left.
        left_key: usize,
        /// Key column index on the right.
        right_key: usize,
        /// Left row width.
        left_width: usize,
        /// Right row width.
        right_width: usize,
    },
    /// Cartesian product.
    CrossJoin {
        /// Left row width.
        left_width: usize,
        /// Right row width.
        right_width: usize,
    },
    /// Global sort.
    Sort {
        /// Sort column index.
        key: usize,
        /// Row width.
        width: usize,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Grouping column index.
        group: usize,
        /// Measure column index.
        measure: usize,
        /// Aggregate function.
        agg: AggFunc,
    },
    /// Duplicate elimination.
    Distinct {
        /// Row width.
        width: usize,
    },
    /// First `n` rows.
    Limit {
        /// Row budget.
        n: usize,
        /// Row width.
        width: usize,
        /// Whether fragment order is globally meaningful.
        order_preserving: bool,
    },
}

impl OpParams {
    /// The operator whose strategies execute these parameters.
    pub(crate) fn kind(self) -> OperatorKind {
        match self {
            OpParams::Join { .. } => OperatorKind::Join,
            OpParams::CrossJoin { .. } => OperatorKind::CrossJoin,
            OpParams::Sort { .. } => OperatorKind::Sort,
            OpParams::Aggregate { .. } => OperatorKind::Aggregate,
            OpParams::Distinct { .. } => OperatorKind::Distinct,
            OpParams::Limit { .. } => OperatorKind::Limit,
        }
    }
}

/// The execution input of one exchange: the operator's parameters and
/// the materialized child fragments — per-node
/// [`RecordBatch`](crate::batch::RecordBatch) lists.
#[derive(Debug)]
pub struct OpInput {
    /// The operator's parameters.
    pub params: OpParams,
    /// The child fragments, left to right: two for a join or cross
    /// join, one for every other operator.
    pub inputs: Vec<BatchFragments>,
}

/// What a strategy's execution produces: its exchange-trace rounds (ready
/// to replay on any backend) and the operator's output fragments.
#[derive(Debug)]
pub struct OpTrace {
    /// The communication rounds, in order.
    pub rounds: Vec<Vec<ScheduleSend>>,
    /// Output batch fragments by node id.
    pub output: BatchFragments,
}

/// Records the rounds of one operator's exchange.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    rounds: Vec<Vec<ScheduleSend>>,
}

impl TraceBuilder {
    /// Record one communication round; `f` queues the round's sends.
    /// Rounds with no sends are still recorded (silent rounds are
    /// metered, matching both engines).
    pub fn round<F: FnOnce(&mut RoundSends)>(&mut self, f: F) {
        self.round_with_capacity(0, f);
    }

    /// [`round`](Self::round), with room reserved for `sends` sends.
    pub(crate) fn round_with_capacity(&mut self, sends: usize, f: impl FnOnce(&mut RoundSends)) {
        let mut rec = RoundSends {
            sends: Vec::with_capacity(sends),
        };
        f(&mut rec);
        self.rounds.push(rec.sends);
    }

    /// Finish recording.
    pub fn into_rounds(self) -> Vec<Vec<ScheduleSend>> {
        self.rounds
    }

    /// Finish recording: the trace of an operator whose output is `output`.
    pub(crate) fn finish(self, output: BatchFragments) -> Result<OpTrace, QueryError> {
        let rounds = self.rounds;
        Ok(OpTrace { rounds, output })
    }
}

/// Collects the sends of one round.
#[derive(Debug)]
pub struct RoundSends {
    sends: Vec<ScheduleSend>,
}

impl RoundSends {
    /// Queue a multicast: one payload is one send, however many rows it
    /// carries. `dsts` and `values` are kept as [`SharedSlice`]s: a slice
    /// or `Vec` is copied, an `Arc<[_]>` or a `SharedSlice` is not — sends
    /// cut from shared buffers allocate nothing. Empty payloads and
    /// destination sets are dropped, mirroring both engines.
    pub fn send<D, V>(&mut self, src: NodeId, dsts: D, rel: Rel, values: V)
    where
        D: Into<SharedSlice<NodeId>>,
        V: Into<SharedSlice<Value>>,
    {
        let (values, dsts) = (values.into(), dsts.into());
        if dsts.is_empty() || values.is_empty() {
            return;
        }
        self.sends.push(ScheduleSend {
            src,
            dsts,
            rel,
            values,
        });
    }
}

/// One pluggable implementation of a physical operator.
///
/// See the [module docs](self) for the contract and a worked third-party
/// example. The estimate/trace pair must price and move traffic on the
/// same routes: the `x-strategy` and `x-plan` suites compare them. What
/// `trace` sends is held to account twice — the built-ins' rounds and
/// `edge_totals` are pinned on a fixed instance (`PINNED_LEDGERS` in
/// `tests/plan_parity.rs`), and the soundness test in
/// `physical::strategies` checks that no node emits a value it neither
/// held nor was sent.
pub trait PhysicalStrategy: fmt::Debug + Send + Sync {
    /// Unique (per operator) strategy name; `EXPLAIN` and
    /// [`QueryContext::with_strategy`](crate::context::QueryContext::with_strategy)
    /// refer to strategies by this name.
    fn name(&self) -> &'static str;

    /// The operator this strategy implements.
    fn operator(&self) -> OperatorKind;

    /// The paper algorithm this strategy adapts (shown in `EXPLAIN`);
    /// `None` for baselines and generic exchanges.
    fn algorithm(&self) -> Option<&'static str> {
        None
    }

    /// Price the exchange on the §2 functional from estimated per-node
    /// cardinalities.
    fn estimate(&self, args: &PlanArgs<'_>) -> CostEstimate;

    /// Evaluate the task's per-edge lower bound on the estimated
    /// placement, in values ([`tamp_core`]'s Theorems 1/3+4/6 and the
    /// aggregation bound). `None` when no bound applies (asymmetric
    /// trees, unbounded tasks).
    fn lower_bound(&self, _args: &PlanArgs<'_>) -> Option<LowerBound> {
        None
    }

    /// Estimated distribution of the operator's *output* rows over nodes.
    /// Defaults to shares proportional to the combined input counts.
    fn output_shares(&self, args: &PlanArgs<'_>) -> NodeCounts {
        args.model.proportional_shares(&args.combined_counts())
    }

    /// Execute: compute the output fragments and the exchange-trace
    /// rounds that move them. The returned rounds replay through any
    /// backend; their metered cost is the strategy's actual cost.
    ///
    /// The sends must carry what the output needs — every value a node
    /// emits is one it held in its input fragment or was delivered by a
    /// round of this trace — and must be deterministic, the same sends
    /// in the same order on every call, because the schedule's content
    /// hash is the checkpoint token: group with `BTreeMap` or sort
    /// before emitting.
    fn trace(&self, args: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError>;
}

/// Relative distance from the cheapest estimate within which a candidate
/// is tied with it (see [`StrategyRegistry`]): observed accumulation
/// noise is ≈ `1e-16`, the closest real gap between candidates `4e-5`.
const TIE_EPSILON: f64 = 1e-9;

/// The set of registered strategies, by operator.
///
/// A fresh registry (the one a new `QueryContext` starts with) holds
/// every built-in strategy; sessions clone it and
/// [`register`](StrategyRegistry::register) third-party implementations
/// on top. The planner's choice is deterministic: the cheapest estimate
/// wins, and every candidate within a relative `1e-9` (`TIE_EPSILON`)
/// of it is *tied* with it — estimates that are mathematically equal
/// differ by accumulation order (≈ `1e-16`), and that noise must not pick
/// the plan. A tie goes first to a baseline (`algorithm()` is `None`: a
/// topology-aware plan must *beat* the agnostic one, not match it), then
/// to the lexically smallest *name*; the winner keeps its own estimate.
/// So the choice — and with it EXPLAIN output and the `x-strategy`
/// tables — is stable across platforms, registration orders and
/// arithmetic changes.
#[derive(Clone, Debug, Default)]
pub struct StrategyRegistry {
    strategies: Vec<Arc<dyn PhysicalStrategy>>,
}

impl StrategyRegistry {
    /// An empty registry (no operator can be planned until strategies are
    /// registered).
    pub fn empty() -> Self {
        StrategyRegistry::default()
    }

    /// The built-in strategies: for each operator, the paper algorithm(s)
    /// and the topology-agnostic baseline(s).
    pub(crate) fn with_defaults() -> Self {
        let mut r = StrategyRegistry::empty();
        for s in super::strategies::defaults() {
            r.register(s);
        }
        r
    }

    /// Register a strategy. A strategy with the same `(operator, name)`
    /// pair as an existing one *replaces* it in place (keeping its
    /// position in the candidate listing), so a session can deliberately
    /// override a built-in; otherwise the strategy is appended to its
    /// operator's candidate list.
    pub fn register(&mut self, strategy: Arc<dyn PhysicalStrategy>) {
        match self
            .strategies
            .iter_mut()
            .find(|s| s.operator() == strategy.operator() && s.name() == strategy.name())
        {
            Some(slot) => *slot = strategy,
            None => self.strategies.push(strategy),
        }
    }

    /// The registered candidates for `op`, in registration order.
    pub fn candidates(&self, op: OperatorKind) -> Vec<&Arc<dyn PhysicalStrategy>> {
        self.strategies
            .iter()
            .filter(|s| s.operator() == op)
            .collect()
    }

    /// Look up a strategy by operator and name.
    pub fn get(&self, op: OperatorKind, name: &str) -> Option<&Arc<dyn PhysicalStrategy>> {
        self.strategies
            .iter()
            .find(|s| s.operator() == op && s.name() == name)
    }

    /// Price every candidate for `op` and resolve the choice: `forced`
    /// selects by name (an unknown name is a typed error listing the
    /// alternatives), otherwise the cheapest estimate wins, with ties
    /// (within `TIE_EPSILON`) going to a baseline, then to the name.
    pub fn plan(
        &self,
        op: OperatorKind,
        forced: Option<&str>,
        args: &PlanArgs<'_>,
    ) -> Result<super::Exchange, QueryError> {
        let candidates = self.candidates(op);
        if candidates.is_empty() {
            return Err(QueryError::UnknownStrategy {
                operator: op.name(),
                name: forced.unwrap_or("<auto>").to_string(),
                available: Vec::new(),
            });
        }
        let lower_bound = candidates.iter().find_map(|s| s.lower_bound(args));
        let lb = lower_bound.map(|b| b.value());
        let priced: Vec<(Arc<dyn PhysicalStrategy>, CostEstimate)> = candidates
            .iter()
            .map(|s| (Arc::clone(s), s.estimate(args)))
            .collect();
        let chosen = match forced {
            Some(name) => priced
                .iter()
                .find(|(s, _)| s.name() == name)
                .ok_or_else(|| QueryError::UnknownStrategy {
                    operator: op.name(),
                    name: name.to_string(),
                    available: priced.iter().map(|(s, _)| s.name().to_string()).collect(),
                })?,
            None => {
                // `total_cmp` (lint rule F1) keeps a NaN estimate from
                // panicking mid-plan; a NaN is tied only with itself.
                let cheapest = priced
                    .iter()
                    .map(|(_, e)| e.tuple_cost)
                    .min_by(f64::total_cmp)
                    .expect("at least one candidate");
                priced
                    .iter()
                    .filter(|(_, e)| {
                        e.tuple_cost - cheapest <= TIE_EPSILON * cheapest.abs()
                            || e.tuple_cost.total_cmp(&cheapest).is_eq()
                    })
                    .min_by_key(|(s, _)| (s.algorithm().is_some(), s.name()))
                    .expect("the cheapest candidate is tied with itself")
            }
        };
        let candidates = priced
            .iter()
            .map(|(s, e)| Candidate {
                name: s.name(),
                algorithm: s.algorithm(),
                cost: e.tuple_cost,
                rounds: e.rounds,
                ratio: lb.map_or(f64::NAN, |lb| tamp_core::ratio::ratio(e.tuple_cost, lb)),
            })
            .collect();
        Ok(super::Exchange {
            strategy: Arc::clone(&chosen.0),
            estimate: chosen.1,
            lower_bound,
            candidates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::builders;

    /// A plan-only stub whose estimate is a fixed constant.
    #[derive(Debug)]
    struct FlatCost {
        name: &'static str,
        cost: f64,
        algorithm: Option<&'static str>,
    }

    impl FlatCost {
        fn baseline(name: &'static str, cost: f64) -> Arc<Self> {
            Arc::new(FlatCost {
                name,
                cost,
                algorithm: None,
            })
        }
    }

    impl PhysicalStrategy for FlatCost {
        fn name(&self) -> &'static str {
            self.name
        }
        fn operator(&self) -> OperatorKind {
            OperatorKind::Sort
        }
        fn algorithm(&self) -> Option<&'static str> {
            self.algorithm
        }
        fn estimate(&self, _args: &PlanArgs<'_>) -> CostEstimate {
            CostEstimate {
                tuple_cost: self.cost,
                rounds: 1,
            }
        }
        fn trace(&self, _args: &ExecArgs<'_>, _input: OpInput) -> Result<OpTrace, QueryError> {
            unreachable!("plan-only test stub")
        }
    }

    #[test]
    fn equal_cost_ties_break_on_strategy_name_not_registration_order() {
        let tree = builders::star(3, 1.0);
        let model = CostModel::new(&tree);
        let args = PlanArgs {
            model: &model,
            seed: 0,
            order: tamp_core::sorting::valid_order(&tree).into(),
            left: PlanSide {
                counts: vec![10.0; tree.num_nodes()],
                width: 2,
            },
            right: None,
            groups: 0.0,
            limit: 0,
        };
        let choose = |candidates: &[Arc<FlatCost>]| {
            let mut r = StrategyRegistry::empty();
            for c in candidates {
                r.register(Arc::clone(c) as Arc<dyn PhysicalStrategy>);
            }
            let x = r.plan(OperatorKind::Sort, None, &args).unwrap();
            assert_eq!(x.candidates.len(), candidates.len());
            (x.name(), x.estimate.tuple_cost)
        };
        // Same estimated cost, registered in both orders: the winner must
        // be the lexically smallest name either way.
        let (alpha, zeta) = (
            FlatCost::baseline("alpha", 42.0),
            FlatCost::baseline("zeta", 42.0),
        );
        assert_eq!(choose(&[zeta.clone(), alpha.clone()]).0, "alpha");
        assert_eq!(choose(&[alpha.clone(), zeta]).0, "alpha");
        // So must a *near* tie — accumulation-order noise, far inside
        // `TIE_EPSILON` — even when the noise favours the other name; the
        // winner keeps its own estimate.
        let noisy = 42.0 * (1.0 + 1e-13);
        let beta = FlatCost::baseline("beta", 42.0);
        let alpha_noisy = FlatCost::baseline("alpha", noisy);
        assert_eq!(
            choose(&[beta.clone(), alpha_noisy.clone()]),
            ("alpha", noisy)
        );
        assert_eq!(choose(&[alpha_noisy, beta.clone()]), ("alpha", noisy));
        // A tie goes to a baseline before it goes to a name: the paper
        // algorithm must beat the topology-agnostic plan, not match it.
        let paper = Arc::new(FlatCost {
            name: "aardvark",
            cost: 42.0,
            algorithm: Some("Alg 0"),
        });
        assert_eq!(choose(&[paper.clone(), beta.clone()]).0, "beta");
        assert_eq!(choose(&[beta, paper.clone()]).0, "beta");
        // A strictly cheaper estimate still beats a baseline and a
        // lexically smaller name: ties are the only thing they decide.
        let cheaper = FlatCost::baseline("zeta", 42.0 * (1.0 - 1e-8));
        assert_eq!(choose(&[alpha.clone(), cheaper]).0, "zeta");
        let cheaper_paper = Arc::new(FlatCost {
            name: "zulu",
            cost: 41.0,
            algorithm: Some("Alg 0"),
        });
        assert_eq!(choose(&[alpha, cheaper_paper]).0, "zulu");
        // NaN is tied only with itself, and never wins over a number.
        let nan = FlatCost::baseline("aaa", f64::NAN);
        assert_eq!(choose(&[nan.clone(), paper]).0, "aardvark");
        assert_eq!(choose(&[nan]).0, "aaa");
    }
}
