//! Global-sort strategies: the §5.2 weighted TeraSort range shuffle and
//! the classic uniform-splitter TeraSort baseline.
//!
//! Both run the same three rounds — sample keys to a coordinator,
//! broadcast `k − 1` splitters, range-shuffle rows into the tree's valid
//! left-to-right compute order — and differ only in the splitter policy
//! ([`tamp_core::sorting::splitters`]): proportional splitters keep each
//! node's share close to its current load (data mostly stays put), while
//! uniform splitters force every node to `≈ N/k` rows regardless of where
//! the data started — exactly the topology-blindness the paper's §5
//! fixes. Lower bound: Theorem 6 on the estimated placement.

use std::sync::Arc;

use tamp_core::ratio::LowerBound;
use tamp_core::sorting::{
    coin, proportional_splitters, sample_rate, sorting_lower_bound, uniform_splitters,
};
use tamp_simulator::{Rel, SharedSlice};
use tamp_topology::NodeId;

use crate::batch::{batch_rows, cut, sort_segments, Keep};
use crate::error::QueryError;
use crate::physical::strategy::{
    CostEstimate, ExecArgs, OpInput, OpParams, OpTrace, OperatorKind, PhysicalStrategy, PlanArgs,
    TraceBuilder,
};

use super::columnar::exchange_batches;

/// The sample → splitters → shuffle sort, parameterized by splitter
/// policy.
#[derive(Debug)]
pub(crate) struct RangeShuffleSort {
    weighted: bool,
}

impl RangeShuffleSort {
    /// Proportional (wTS, §5.2) splitters.
    pub(crate) fn weighted() -> Self {
        RangeShuffleSort { weighted: true }
    }

    /// Uniform (classic TeraSort) splitters.
    pub(crate) fn uniform() -> Self {
        RangeShuffleSort { weighted: false }
    }

    /// The coordinator's step: pick splitters
    /// from the gathered samples under the strategy's policy (`rows(v)`
    /// is the row count held at `v`) and broadcast them from `order[0]`.
    fn broadcast_splitters(
        &self,
        trace: &mut TraceBuilder,
        order: &Arc<[NodeId]>,
        mut samples: Vec<u64>,
        rows: impl Fn(NodeId) -> usize,
    ) -> Vec<u64> {
        samples.sort_unstable();
        let splitters = if self.weighted {
            let weights: Vec<u64> = order.iter().map(|&v| rows(v) as u64).collect();
            proportional_splitters(&samples, &weights)
        } else {
            uniform_splitters(&samples, order.len())
        };
        trace.round(|round| round.send(order[0], order.clone(), Rel::S, &splitters));
        splitters
    }
}

impl PhysicalStrategy for RangeShuffleSort {
    fn name(&self) -> &'static str {
        if self.weighted {
            "weighted-range-shuffle"
        } else {
            "uniform-range-shuffle"
        }
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::Sort
    }

    fn algorithm(&self) -> Option<&'static str> {
        self.weighted.then_some("§5.2 weighted TeraSort")
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        let model = a.model;
        let counts = &a.left.counts;
        let width = a.left.width;
        let total: f64 = counts.iter().sum();
        let order = &a.order;
        let coordinator = order[0];
        // Sample round: ~ρ·n_v keys (width 1) to the coordinator.
        let rho = sample_rate(order.len(), total.round() as u64);
        let samples: Vec<f64> = counts.iter().map(|n| n * rho).collect();
        let sample_cost = model.gather_cost(&samples, 1, coordinator);
        // Splitter broadcast: k−1 values from the coordinator.
        let mut splitters = model.zero_counts();
        splitters[coordinator.index()] = order.len().saturating_sub(1) as f64;
        let split_cost = model.multicast_cost(&splitters, 1, order);
        // Shuffle: proportional splitters mean each node keeps roughly
        // its current share; uniform splitters level every node to N/k.
        let shuffle_cost = model.repartition_cost(counts, width, &self.output_shares(a));
        CostEstimate {
            tuple_cost: sample_cost + split_cost + shuffle_cost,
            rounds: 3,
        }
    }

    fn lower_bound(&self, a: &PlanArgs<'_>) -> Option<LowerBound> {
        if !a.symmetric() {
            return None;
        }
        Some(sorting_lower_bound(a.model.tree(), &a.value_stats()))
    }

    fn output_shares(&self, a: &PlanArgs<'_>) -> Vec<f64> {
        if self.weighted {
            a.model.proportional_shares(&a.left.counts)
        } else {
            a.model.uniform_shares()
        }
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let (OpParams::Sort { key: ki, width }, Ok([frags])) =
            (input.params, <[_; 1]>::try_from(input.inputs))
        else {
            unreachable!("registered for Sort");
        };
        let order = &a.order;
        let total = batch_rows(frags.batches());
        if total == 0 {
            return TraceBuilder::default().finish(frags);
        }
        let mut trace = TraceBuilder::default();
        let rho = sample_rate(order.len(), total as u64);

        // Round 1: sample the key column to the coordinator, `order[0]`;
        // each node's samples are one range of one buffer.
        let mut all_samples: Vec<u64> = Vec::new();
        let counts: Vec<usize> = (order.iter())
            .map(|&v| {
                let before = all_samples.len();
                for b in &frags[v.index()] {
                    all_samples.extend(b.col(ki).iter().filter(|&&x| coin(a.seed, x, rho)));
                }
                all_samples.len() - before
            })
            .collect();
        let mut cut = cut(all_samples[..].into(), 1);
        trace.round_with_capacity(order.len(), |round| {
            for (&v, &n) in order.iter().zip(&counts) {
                round.send(v, SharedSlice::new(order.clone(), 0..1), Rel::S, cut(n));
            }
        });

        // Round 2: the coordinator picks and broadcasts splitters.
        let splitters = self.broadcast_splitters(&mut trace, order, all_samples, |v| {
            batch_rows(&frags[v.index()])
        });

        // Round 3: range shuffle — slot `j` is splitter bucket `j`, which
        // lives at `order[j]`.
        let last = order.len() - 1;
        let shuffled = exchange_batches(
            &mut trace,
            &frags,
            width,
            Rel::R,
            order,
            order,
            &mut |_, b, out| {
                out.extend(
                    b.col(ki)
                        .iter()
                        .map(|&x| splitters.partition_point(|&s| s <= x).min(last) as u32),
                )
            },
        );
        // Local finish: every node sorts by key, then whole row, in one
        // segmented sort.
        let output = sort_segments(shuffled.iter(), width, Some(ki), Keep::All);
        trace.finish(output)
    }
}
