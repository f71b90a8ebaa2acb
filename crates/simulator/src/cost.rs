//! Traffic metering and the round-max cost functional.
//!
//! The ledger records, per round and per *directed* edge, the number of
//! tuples routed through it. At the end of a run it folds into a [`Cost`]:
//!
//! ```text
//! cost(A) = Σ_i max_e |Y_i(e)| / w_e
//! ```
//!
//! measured in tuples, plus the same quantity in bits
//! (`bits = tuples × bits_per_tuple`).

use tamp_topology::{DirEdgeId, Tree};

/// Number of bits used to represent one element when converting tuple costs
/// to bit costs. The paper charges `O(log N)` bits per element; we default
/// to the machine representation.
pub const DEFAULT_BITS_PER_TUPLE: u64 = 64;

/// Per-round traffic ledger, stored **sparsely**: each round keeps only
/// the `(directed edge, tuples)` pairs it actually touched, sorted by
/// edge id. A 4096-node repartition round on a 5461-node fat-tree
/// touches a few thousand edges; a dense `Vec<u64>` per round would
/// carry all ~11k directed edges for every round of every run. Memory
/// and [`Ledger::finish`] are O(touched), not O(edges × rounds).
#[derive(Clone, Debug)]
pub(crate) struct Ledger {
    /// Bandwidth of each directed edge (`f64::INFINITY` allowed).
    bandwidth: Vec<f64>,
    /// `rounds[i]` = nonzero `(dir-edge index, tuples)` pairs of round
    /// `i`, ascending by edge index.
    rounds: Vec<Vec<(u32, u64)>>,
}

impl Ledger {
    pub(crate) fn new(tree: &Tree) -> Self {
        let bandwidth = tree.dir_edges().map(|d| tree.bandwidth(d).get()).collect();
        Ledger {
            bandwidth,
            rounds: Vec::new(),
        }
    }

    /// Append the touched-edge pairs of a finished round (ascending by
    /// edge index, zero-tuple entries omitted).
    pub(crate) fn push_round(&mut self, traffic: Vec<(u32, u64)>) {
        debug_assert!(traffic.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(traffic
            .iter()
            .all(|&(d, t)| (d as usize) < self.bandwidth.len() && t > 0));
        self.rounds.push(traffic);
    }

    pub(crate) fn num_dir_edges(&self) -> usize {
        self.bandwidth.len()
    }

    pub(crate) fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    pub(crate) fn finish(self) -> Cost {
        let mut per_round = Vec::with_capacity(self.rounds.len());
        let mut edge_totals = vec![0u64; self.bandwidth.len()];
        for traffic in &self.rounds {
            let mut round = RoundCost {
                tuple_cost: 0.0,
                bottleneck: None,
                max_tuples: 0,
                total_tuples: 0,
            };
            // Ascending edge order keeps the bottleneck tie-break (first
            // edge attaining the max) identical to the old dense scan.
            for &(d, tuples) in traffic {
                edge_totals[d as usize] += tuples;
                round.total_tuples += tuples;
                round.max_tuples = round.max_tuples.max(tuples);
                let w = self.bandwidth[d as usize];
                let c = if w.is_infinite() {
                    0.0
                } else {
                    tuples as f64 / w
                };
                if c > round.tuple_cost {
                    round.tuple_cost = c;
                    round.bottleneck = Some(DirEdgeId(d));
                }
            }
            per_round.push(round);
        }
        Cost {
            per_round,
            edge_totals,
        }
    }
}

/// Cost of one round: the bottleneck term plus diagnostics.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundCost {
    /// `max_e |Y_i(e)| / w_e`, in tuples.
    pub tuple_cost: f64,
    /// The edge attaining the maximum (`None` if the round was silent).
    pub bottleneck: Option<DirEdgeId>,
    /// Largest per-edge tuple count, regardless of bandwidth.
    pub max_tuples: u64,
    /// Total tuples moved in this round (Σ over directed edges).
    pub total_tuples: u64,
}

/// The cost of a full run of a protocol.
#[derive(Clone, Debug, Default)]
pub struct Cost {
    /// Per-round breakdown, in execution order.
    pub per_round: Vec<RoundCost>,
    /// Total tuples per directed edge, summed over rounds.
    pub edge_totals: Vec<u64>,
}

impl Cost {
    /// `cost(A) = Σ_i max_e |Y_i(e)| / w_e` in tuples (`0.0`, not `sum()`'s
    /// `-0.0`, over no rounds).
    pub fn tuple_cost(&self) -> f64 {
        self.per_round.iter().fold(0.0, |sum, r| sum + r.tuple_cost)
    }

    /// The same cost in bits, at `bits` bits per tuple.
    pub fn bit_cost(&self, bits: u64) -> f64 {
        self.tuple_cost() * bits as f64
    }

    /// Number of rounds in which any data moved.
    pub fn active_rounds(&self) -> usize {
        self.per_round.iter().filter(|r| r.total_tuples > 0).count()
    }

    /// Total tuples moved across all edges and rounds (volume, not cost).
    pub fn total_tuples(&self) -> u64 {
        self.per_round.iter().map(|r| r.total_tuples).sum()
    }

    /// Tuples through a directed edge, summed over rounds.
    pub fn edge_total(&self, d: DirEdgeId) -> u64 {
        self.edge_totals[d.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::builders;

    #[test]
    fn cost_is_round_max_sum() {
        let t = builders::heterogeneous_star(&[1.0, 2.0]);
        let mut ledger = Ledger::new(&t);
        // Round 1: 10 tuples on edge 0 (bw 1), 10 on edge 2 (bw 2).
        ledger.push_round(vec![(0, 10), (2, 10)]);
        // Round 2: 6 tuples on edge 2 (bw 2) only.
        ledger.push_round(vec![(2, 6)]);
        let cost = ledger.finish();
        assert_eq!(cost.per_round[0].tuple_cost, 10.0); // max(10/1, 10/2)
        assert_eq!(cost.per_round[1].tuple_cost, 3.0);
        assert_eq!(cost.tuple_cost(), 13.0);
        assert_eq!(cost.bit_cost(64), 13.0 * 64.0);
        assert_eq!(cost.total_tuples(), 26);
        assert_eq!(cost.edge_total(DirEdgeId(2)), 16);
        assert_eq!(cost.active_rounds(), 2);
        assert_eq!(cost.per_round[0].bottleneck, Some(DirEdgeId(0)));
    }

    #[test]
    fn infinite_bandwidth_is_free() {
        let t = builders::mpc_star(2);
        let mut ledger = Ledger::new(&t);
        // Load every edge; only finite (hub→leaf) directions should cost.
        let n = ledger.num_dir_edges();
        ledger.push_round((0..n as u32).map(|d| (d, 8)).collect());
        let cost = ledger.finish();
        assert_eq!(cost.per_round[0].tuple_cost, 8.0);
    }
}
