//! Grouped-aggregation strategies.
//!
//! Every strategy pre-aggregates locally (one `(group, partial)` pair per
//! local group — a duplicate never ships raw) and then differs in where
//! partials meet:
//!
//! - [`HashAggregate::weighted`] — partials ship to a group owner under
//!   the distribution-weighted hash (the `HashGroupBy` idea): owners sit
//!   where the data already is;
//! - [`HashAggregate::uniform`] — owners are uniform-hashed, the
//!   topology-agnostic baseline;
//! - [`CombiningTreeAggregate`] — the in-network convergecast of
//!   `tamp_core::aggregate::protocols`: one *combiner* per subtree, one
//!   round per tree level, so a thin uplink carries one partial per
//!   distinct group below it instead of one per `(node, group)` pair.
//!
//! Lower bound: the per-edge distributed group-by bound
//! ([`tamp_core::aggregate::groupby_lower_bound`]) evaluated on a
//! synthetic placement spreading the estimated per-node group counts,
//! scaled by the width-2 partial rows the query layer ships.

use std::sync::Arc;

use tamp_core::aggregate::protocols::combining_schedule;
use tamp_core::ratio::LowerBound;
use tamp_simulator::{Rel, SharedSlice};
use tamp_topology::NodeId;

use crate::batch::{batch_rows, cut, flatten, whole, BatchFragments, RecordBatch};
use crate::error::QueryError;
use crate::physical::strategy::{
    CostEstimate, ExecArgs, OpInput, OpParams, OpTrace, OperatorKind, PhysicalStrategy, PlanArgs,
    TraceBuilder,
};
use crate::plan::AggFunc;

use super::columnar::{
    batch_frag_weights, empty_trace, fold_groups, key_router, shuffle_batches_by_key,
};
use super::group_table::GroupTable;

fn agg_input(input: OpInput) -> (BatchFragments, usize, usize, AggFunc) {
    let (
        OpParams::Aggregate {
            group,
            measure,
            agg,
        },
        Ok([input]),
    ) = (input.params, <[_; 1]>::try_from(input.inputs))
    else {
        unreachable!("registered for Aggregate");
    };
    (input, group, measure, agg)
}

/// Estimated distinct groups at each node: `min(n_v, G)`.
fn groups_per_node(a: &PlanArgs<'_>) -> Vec<f64> {
    a.left.counts.iter().map(|&n| n.min(a.groups)).collect()
}

/// The shared aggregate lower bound: Theorem-style per-edge counting on a
/// synthetic placement spreading `min(n_v, G)` groups per node (nested
/// prefixes, so an edge's "groups on both sides" is the min of the two
/// side maxima — the natural estimate when group placement is unknown).
/// That is [`groupby_lower_bound`] in closed form: one max-fold over the
/// cuts instead of a materialised placement. Scaled ×2 because the query
/// layer ships width-2 `(group, partial)` rows.
///
/// [`groupby_lower_bound`]: tamp_core::aggregate::groupby_lower_bound
fn agg_lower_bound(a: &PlanArgs<'_>) -> Option<LowerBound> {
    if !a.symmetric() {
        return None;
    }
    let tree = a.model.tree();
    let mut groups = vec![0u64; tree.num_nodes()];
    for &v in tree.compute_nodes() {
        groups[v.index()] = a.left.counts[v.index()].min(a.groups).round() as u64;
    }
    let (inside, outside) = tree.cut_folds(&groups, 0, u64::max);
    let mut best = LowerBound::zero();
    for e in tree.edges() {
        let x = tree.deeper_endpoint(e).index();
        let both = inside[x].min(outside[x]);
        let w = tree.sym_bandwidth(e);
        if both > 0 && !w.is_infinite() {
            best = best.max(LowerBound::new(both as f64 / (2.0 * w.get()), Some(e)));
        }
    }
    Some(LowerBound::new(best.value() * 2.0, best.witness()))
}

/// One-round partial shuffle under a weighted or uniform group hash.
#[derive(Debug)]
pub(crate) struct HashAggregate {
    weighted: bool,
}

impl HashAggregate {
    /// Distribution-weighted group owners.
    pub(crate) fn weighted() -> Self {
        HashAggregate { weighted: true }
    }

    /// Uniform group owners (the MPC baseline).
    pub(crate) fn uniform() -> Self {
        HashAggregate { weighted: false }
    }
}

impl PhysicalStrategy for HashAggregate {
    fn name(&self) -> &'static str {
        if self.weighted {
            "weighted-repartition"
        } else {
            "uniform-repartition"
        }
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::Aggregate
    }

    fn algorithm(&self) -> Option<&'static str> {
        self.weighted.then_some("weighted hash group-by")
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        // Each node ships at most min(n_v, G) partials of width 2.
        let (partials, shares) = (groups_per_node(a), self.output_shares(a));
        CostEstimate {
            tuple_cost: a.model.repartition_cost(&partials, 2, &shares),
            rounds: 1,
        }
    }

    fn lower_bound(&self, a: &PlanArgs<'_>) -> Option<LowerBound> {
        agg_lower_bound(a)
    }

    fn output_shares(&self, a: &PlanArgs<'_>) -> Vec<f64> {
        if self.weighted {
            a.model.proportional_shares(&a.left.counts)
        } else {
            a.model.uniform_shares()
        }
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let (frags, gi, mi, agg) = agg_input(input);
        let tree = a.tree;
        let mut trace = TraceBuilder::default();
        let weights = || batch_frag_weights(tree, &[&frags]);
        let Some(router) = key_router(a, self.weighted, weights) else {
            return empty_trace(tree);
        };
        // Local pre-aggregation leaves each node one sorted partial
        // batch; partials then shuffle to their owners like any keyed
        // rows, and each owner folds what arrived.
        let mut table = GroupTable::new();
        let partials = fold_groups(&mut table, frags.iter(), gi, mi, agg, true);
        let arrived = shuffle_batches_by_key(&mut trace, tree, &partials, 0, 2, Rel::S, &*router);
        let output = fold_groups(&mut table, arrived.iter(), 0, 1, agg, false);
        trace.finish(output)
    }
}

/// The in-network combining convergecast: partials merge level by level
/// along the tree toward the first valid-order compute node, one
/// combiner per subtree.
#[derive(Debug)]
pub(crate) struct CombiningTreeAggregate;

impl PhysicalStrategy for CombiningTreeAggregate {
    fn name(&self) -> &'static str {
        "combining-tree"
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::Aggregate
    }

    fn algorithm(&self) -> Option<&'static str> {
        Some("in-network combining convergecast")
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        let tree = a.model.tree();
        let target = a.order[0];
        let weights: Vec<u64> = a.left.counts.iter().map(|c| c.round() as u64).collect();
        let schedule = combining_schedule(tree, &weights, target);
        let mut g: Vec<f64> = groups_per_node(a);
        let mut cost = 0.0;
        let rounds = schedule.len();
        for moves in schedule {
            let mut round = a.model.round();
            for &(src, dst) in &moves {
                round.send(src, &[dst], g[src.index()] * 2.0);
            }
            cost += round.cost();
            for (src, dst) in moves {
                let moved = std::mem::take(&mut g[src.index()]);
                g[dst.index()] = (g[dst.index()] + moved).min(a.groups);
            }
        }
        CostEstimate {
            tuple_cost: cost,
            rounds,
        }
    }

    fn lower_bound(&self, a: &PlanArgs<'_>) -> Option<LowerBound> {
        agg_lower_bound(a)
    }

    fn output_shares(&self, a: &PlanArgs<'_>) -> Vec<f64> {
        let target = a.order[0];
        let mut shares = a.model.zero_counts();
        shares[target.index()] = 1.0;
        shares
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let (frags, gi, mi, agg) = agg_input(input);
        let tree = a.tree;
        let target = a.order[0];
        let weights: Vec<u64> = frags.iter().map(|b| batch_rows(b) as u64).collect();
        let schedule = combining_schedule(tree, &weights, target);

        // Each node's running partials: at most one sorted width-2 batch.
        let mut table = GroupTable::new();
        let partials = fold_groups(&mut table, frags.iter(), gi, mi, agg, true);
        let mut acc: Vec<Option<RecordBatch>> =
            partials.iter().map(|b| b.first().cloned()).collect();

        let mut trace = TraceBuilder::default();
        for moves in schedule {
            // A level's sources and receivers are disjoint: every payload
            // is cut from one buffer, and the receivers fold what they held
            // and all that arrived in one fold.
            let from = |(src, _): &(NodeId, NodeId)| acc[src.index()].as_slice();
            let rows = moves.iter().map(|m| batch_rows(from(m))).sum();
            let all = moves.iter().flat_map(|m| whole(from(m)));
            let (mut cut, dsts) = (cut(flatten(rows, all, 2), 2), moves.iter().map(|m| m.1));
            let dsts: Arc<[NodeId]> = dsts.collect();
            trace.round_with_capacity(moves.len(), |round| {
                for (i, m) in moves.iter().enumerate() {
                    let dst = SharedSlice::new(dsts.clone(), i..i + 1);
                    round.send(m.0, dst, Rel::S, cut(batch_rows(from(m))));
                }
            });
            let mut receivers = dsts.to_vec();
            receivers.sort_unstable();
            receivers.dedup();
            let arrived = receivers.iter().map(|&d| {
                let moved = moves.iter().filter(move |m| m.1 == d).flat_map(from);
                acc[d.index()].iter().chain(moved)
            });
            let folded = fold_groups(&mut table, arrived, 0, 1, agg, false);
            moves.iter().for_each(|m| acc[m.0.index()] = None);
            for (d, b) in receivers.iter().zip(folded.iter()) {
                acc[d.index()] = b.first().cloned();
            }
        }

        let at_target = |v: usize| acc[v].clone().filter(|_| v == target.index());
        trace.finish(BatchFragments::from_fn(acc.len(), at_target))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tamp_core::aggregate::{encode, groupby_lower_bound};
    use tamp_simulator::Placement;

    use super::*;
    use crate::physical::cost::oracle::arb_tree;
    use crate::physical::cost::CostModel;
    use crate::physical::strategy::PlanSide;

    /// `agg_lower_bound` as it was before the closed form: materialise the
    /// nested-prefix placement and count groups across every cut.
    fn materialised_bound(a: &PlanArgs<'_>) -> LowerBound {
        let tree = a.model.tree();
        let mut placement = Placement::empty(tree);
        for &v in tree.compute_nodes() {
            let g_v = a.left.counts[v.index()].min(a.groups).round() as u64;
            for g in 0..g_v {
                placement.push(v, Rel::R, encode(g, 1));
            }
        }
        let lb = groupby_lower_bound(tree, &placement);
        LowerBound::new(lb.value() * 2.0, lb.witness())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Value bits *and* witness edge, on symmetric trees with compute
        /// nodes and routers anywhere and some infinite links; routers get
        /// counts too, which must not matter.
        #[test]
        fn closed_form_bound_is_groupby_lower_bound(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = arb_tree(&mut rng, true);
            let n = tree.num_nodes();
            let model = CostModel::new(&tree);
            let args = PlanArgs {
                model: &model,
                seed: 0,
                order: tamp_core::sorting::valid_order(&tree).into(),
                left: PlanSide {
                    counts: (0..n).map(|_| rng.random_range(0.0..9.0)).collect(),
                    width: 3,
                },
                right: None,
                groups: rng.random_range(0.0..12.0),
                limit: 0,
            };
            let (closed, oracle) = (agg_lower_bound(&args).unwrap(), materialised_bound(&args));
            prop_assert_eq!(closed.value().to_bits(), oracle.value().to_bits());
            prop_assert_eq!(closed.witness(), oracle.witness());
        }
    }
}
