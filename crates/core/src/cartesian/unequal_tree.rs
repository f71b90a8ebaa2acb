//! Unequal-size cartesian product on general symmetric trees — the open
//! problem of §4.5 ("Extending our current result to the general
//! symmetric tree topology is left as future work"), implemented as a
//! best-of-three heuristic in the spirit of Algorithm 8's star strategy
//! menu:
//!
//! 1. **AllToNode** — when one node already holds more than half the
//!    data, ship everything there (optimal by the Theorem 3 argument,
//!    same as the equal case);
//! 2. **BroadcastSmall** — when `|small| · |V_C| ≤ |big|`, replicate the
//!    small relation to every compute node and leave the big one in
//!    place: node `v` covers `small × big_v`, for per-edge traffic
//!    `≤ |small|` — the `V_β` move of Algorithms 1 and 8;
//! 3. **PaddedSquares** — otherwise, run the §4.4 square plan on the
//!    virtual `max(|R|,|S|)²` grid (the smaller relation padded with
//!    phantom indices that are never actually sent): coverage of the real
//!    `|R| × |S|` sub-grid follows from Theorem 5's coverage of the
//!    padded grid.
//!
//! No matching tree lower bound is known for the middle regimes — that is
//! precisely why the paper leaves this open. The experiment reports the
//! measured ratio against the (valid but possibly loose) Theorem-8-style
//! per-edge bound `max_e min{N⁻, N⁺, |R|} / w_e`.

use tamp_simulator::{PlacementStats, Protocol, Rel, Session, SimError};
use tamp_topology::{CutWeights, NodeId, Tree};

use crate::ratio::LowerBound;

use super::grid::{distribute_intervals, Labels};
use super::star::all_to_node;
use super::tree::{plan_tree_packing, TreePlan};

/// The strategy menu for unequal sizes on trees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnequalTreeStrategy {
    /// Ship everything to one (data-heaviest) compute node.
    AllToNode,
    /// Replicate the smaller relation everywhere; the big one stays put.
    BroadcastSmall,
    /// Equal-case square packing on the padded square grid.
    PaddedSquares,
}

/// Exact tuple cost of shipping all data to node `target` in one round:
/// the edge direction toward `target` carries everything on its far side.
pub fn cost_all_to_node(tree: &Tree, stats: &PlacementStats, target: NodeId) -> f64 {
    let cuts = CutWeights::compute(tree, &stats.n);
    let mut cost = 0.0f64;
    for e in tree.edges() {
        let far = cuts.total() - cuts.side_containing(tree, e, target);
        if far == 0 {
            continue;
        }
        // Direction toward target = from the far endpoint's side.
        let (u, v) = tree.endpoints(e);
        let toward = if tree.cut_side_of(e, u) == tree.cut_side_of(e, target) {
            tree.dir_edge_between(v, u)
        } else {
            tree.dir_edge_between(u, v)
        }
        .expect("endpoints are adjacent");
        let w = tree.bandwidth(toward);
        if !w.is_infinite() {
            cost = cost.max(far as f64 / w.get());
        }
    }
    cost
}

/// Exact tuple cost of broadcasting the smaller relation to every compute
/// node in one round: directed edge `a → b` carries every small tuple held
/// on `a`'s side.
pub fn cost_broadcast_small(tree: &Tree, stats: &PlacementStats) -> f64 {
    let small = if stats.total_r <= stats.total_s {
        Rel::R
    } else {
        Rel::S
    };
    let weights: Vec<u64> = (0..tree.num_nodes())
        .map(|i| {
            let v = NodeId(i as u32);
            if tree.is_compute(v) {
                match small {
                    Rel::R => stats.r_v(v),
                    Rel::S => stats.s_v(v),
                }
            } else {
                0
            }
        })
        .collect();
    let cuts = CutWeights::compute(tree, &weights);
    // A multicast only crosses an edge when a compute node sits beyond it.
    let compute_mask: Vec<u64> = (0..tree.num_nodes())
        .map(|i| u64::from(tree.is_compute(NodeId(i as u32))))
        .collect();
    let compute_cuts = CutWeights::compute(tree, &compute_mask);
    let mut cost = 0.0f64;
    for d in tree.dir_edges() {
        let (a, b) = tree.dir_endpoints(d);
        let tail_side = cuts.side_containing(tree, d.edge(), a);
        let head_computes = compute_cuts.side_containing(tree, d.edge(), b);
        let w = tree.bandwidth(d);
        if tail_side == 0 || head_computes == 0 || w.is_infinite() {
            continue;
        }
        cost = cost.max(tail_side as f64 / w.get());
    }
    cost
}

/// Lemma-6-style *estimate* of the padded-square plan's cost:
/// `max{ max_v N_v / w_v , 2·max(|R|,|S|) / √(Σ_v w_v²) }` where `w_v` is
/// each compute leaf's adjacent bandwidth. An estimate, not a guarantee —
/// used only to rank strategies.
pub fn estimate_padded_squares(tree: &Tree, stats: &PlacementStats) -> f64 {
    let mut send = 0.0f64;
    let mut sum_w2 = 0.0f64;
    for &v in tree.compute_nodes() {
        let (_, e) = tree.neighbors(v)[0];
        let w = tree.sym_bandwidth(e).get();
        if w.is_finite() {
            send = send.max(stats.n_v(v) as f64 / w);
            sum_w2 += w * w;
        } else {
            return 0.0; // infinite links: effectively free
        }
    }
    let max_side = stats.total_r.max(stats.total_s) as f64;
    send.max(2.0 * max_side / sum_w2.sqrt())
}

/// Pick a strategy by comparing analytic costs: the heavy-node rule first
/// (provably best by the Theorem 3 argument), then the cheaper of the
/// exact broadcast cost and the padded-square estimate.
pub fn choose_strategy(tree: &Tree, stats: &PlacementStats) -> (UnequalTreeStrategy, NodeId) {
    let n = stats.total_n();
    let heaviest = tree
        .compute_nodes()
        .iter()
        .copied()
        .max_by_key(|&v| stats.n_v(v))
        .expect("tree has compute nodes");
    if 2 * stats.n_v(heaviest) > n {
        return (UnequalTreeStrategy::AllToNode, heaviest);
    }
    let broadcast = cost_broadcast_small(tree, stats);
    let padded = estimate_padded_squares(tree, stats);
    let all_to = cost_all_to_node(tree, stats, heaviest);
    if broadcast <= padded && broadcast <= all_to {
        (UnequalTreeStrategy::BroadcastSmall, heaviest)
    } else if all_to < padded {
        (UnequalTreeStrategy::AllToNode, heaviest)
    } else {
        (UnequalTreeStrategy::PaddedSquares, heaviest)
    }
}

/// Theorem-8-style per-edge lower bound for the unequal case on trees:
/// `max_e min{N⁻, N⁺, min(|R|,|S|)} / w_e`.
pub fn unequal_tree_lower_bound(tree: &Tree, stats: &PlacementStats) -> LowerBound {
    let small = stats.total_r.min(stats.total_s);
    let cuts = CutWeights::compute(tree, &stats.n);
    let mut best = LowerBound::zero();
    for e in tree.edges() {
        let m = cuts.min_side(e).min(small);
        let w = tree.sym_bandwidth(e);
        if m == 0 || w.is_infinite() {
            continue;
        }
        best = best.max(LowerBound::new(m as f64 / w.get(), Some(e)));
    }
    best
}

/// One-round cartesian product for `|R| ≠ |S|` on arbitrary symmetric
/// trees. Returns the strategy it picked.
#[derive(Clone, Debug, Default)]
pub struct UnequalTreeCartesianProduct {
    /// Force a strategy instead of the case analysis (for ablations).
    force: Option<UnequalTreeStrategy>,
}

impl UnequalTreeCartesianProduct {
    /// Create with automatic strategy selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Force one strategy (ablation / experiment use).
    pub fn with_strategy(strategy: UnequalTreeStrategy) -> Self {
        UnequalTreeCartesianProduct {
            force: Some(strategy),
        }
    }
}

impl Protocol for UnequalTreeCartesianProduct {
    type Output = UnequalTreeStrategy;

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        tree.require_symmetric()
            .map_err(|e| SimError::Protocol(e.to_string()))?;
        let stats = session.stats().clone();
        if stats.total_r == 0 || stats.total_s == 0 {
            return Ok(UnequalTreeStrategy::BroadcastSmall); // nothing to do
        }
        let (auto, heaviest) = choose_strategy(tree, &stats);
        let strategy = self.force.unwrap_or(auto);
        match strategy {
            UnequalTreeStrategy::AllToNode => {
                all_to_node(session, heaviest)?;
            }
            UnequalTreeStrategy::BroadcastSmall => {
                let small = if stats.total_r <= stats.total_s {
                    Rel::R
                } else {
                    Rel::S
                };
                let all: Vec<NodeId> = tree.compute_nodes().to_vec();
                session.round(|round| {
                    for &v in &all {
                        round.send(v, &all, small, round.state(v).rel(small))?;
                    }
                    Ok(())
                })?;
            }
            UnequalTreeStrategy::PaddedSquares => {
                // Square plan on the padded max² grid. The padding is
                // virtual: only real tuples are sent, but square sides are
                // computed as if both relations had `max` elements, so the
                // placed squares cover [0, max)² ⊇ [0,|R|) × [0,|S|).
                let max_side = stats.total_r.max(stats.total_s);
                let plan = plan_tree_packing(tree, &stats.n, 2 * max_side);
                match plan {
                    TreePlan::AllToRoot(target) => all_to_node(session, target)?,
                    TreePlan::Packed { root, squares, .. } => {
                        let labels = Labels::new(tree, &stats);
                        let r_recipients: Vec<(NodeId, std::ops::Range<u64>)> = squares
                            .iter()
                            .map(|sq| (sq.owner, sq.x..sq.x + sq.side))
                            .collect();
                        let s_recipients: Vec<(NodeId, std::ops::Range<u64>)> = squares
                            .iter()
                            .map(|sq| (sq.owner, sq.y..sq.y + sq.side))
                            .collect();
                        let computes: Vec<NodeId> = tree.compute_nodes().to_vec();
                        session.round(|round| {
                            for &v in &computes {
                                let r_vals = &round.state(v).r;
                                let r_start = labels.range(v, Rel::R, &stats).start;
                                distribute_intervals(
                                    round,
                                    v,
                                    Rel::R,
                                    r_vals,
                                    r_start,
                                    &r_recipients,
                                    Some(root),
                                )?;
                                let s_vals = &round.state(v).s;
                                let s_start = labels.range(v, Rel::S, &stats).start;
                                distribute_intervals(
                                    round,
                                    v,
                                    Rel::S,
                                    s_vals,
                                    s_start,
                                    &s_recipients,
                                    Some(root),
                                )?;
                            }
                            Ok(())
                        })?;
                    }
                }
            }
        }
        Ok(strategy)
    }

    fn name(&self) -> String {
        match self.force {
            Some(s) => format!("unequal-tree-cartesian({s:?})"),
            None => "unequal-tree-cartesian(auto)".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::mix64;
    use crate::ratio::ratio;
    use tamp_simulator::{run_protocol, verify, Placement};
    use tamp_topology::builders;

    fn unequal_placement(tree: &Tree, r: u64, s: u64, seed: u64) -> Placement {
        let mut p = Placement::empty(tree);
        let vc = tree.compute_nodes();
        for a in 0..r {
            let v = vc[(mix64(a ^ seed) % vc.len() as u64) as usize];
            p.push(v, Rel::R, a);
        }
        for a in 0..s {
            let v = vc[(mix64(a ^ seed ^ 0xBEEF) % vc.len() as u64) as usize];
            p.push(v, Rel::S, 1_000_000 + a);
        }
        p
    }

    fn check(tree: &Tree, p: &Placement, proto: &UnequalTreeCartesianProduct) {
        let run = run_protocol(tree, p, proto).unwrap();
        verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s())
            .unwrap_or_else(|e| panic!("{}: {e}", run.name));
        assert_eq!(run.rounds, 1);
    }

    #[test]
    fn covers_all_pairs_across_ratios_and_trees() {
        for (r, s) in [(10u64, 640u64), (40, 160), (80, 120), (120, 80)] {
            for seed in 0..4u64 {
                let tree = builders::random_tree(5, 3, 0.5, 4.0, seed);
                let p = unequal_placement(&tree, r, s, seed);
                check(&tree, &p, &UnequalTreeCartesianProduct::new());
            }
        }
    }

    #[test]
    fn every_forced_strategy_is_correct() {
        let tree = builders::rack_tree(&[(3, 2.0, 4.0), (3, 1.0, 2.0)], 1.0);
        let p = unequal_placement(&tree, 30, 240, 7);
        for s in [
            UnequalTreeStrategy::AllToNode,
            UnequalTreeStrategy::BroadcastSmall,
            UnequalTreeStrategy::PaddedSquares,
        ] {
            check(&tree, &p, &UnequalTreeCartesianProduct::with_strategy(s));
        }
    }

    #[test]
    fn heavy_node_case_picks_all_to_node() {
        let tree = builders::star(4, 1.0);
        let mut p = Placement::empty(&tree);
        p.set_r(NodeId(0), (0..300).collect());
        p.set_s(NodeId(0), (1_000..1_100).collect());
        p.set_s(NodeId(1), (2_000..2_050).collect());
        let run = run_protocol(&tree, &p, &UnequalTreeCartesianProduct::new()).unwrap();
        assert_eq!(run.output, UnequalTreeStrategy::AllToNode);
        verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
    }

    #[test]
    fn very_lopsided_sizes_pick_broadcast() {
        let tree = builders::star(6, 1.0);
        let p = unequal_placement(&tree, 10, 600, 1);
        let run = run_protocol(&tree, &p, &UnequalTreeCartesianProduct::new()).unwrap();
        assert_eq!(run.output, UnequalTreeStrategy::BroadcastSmall);
        // Broadcast traffic per edge is bounded by |R| (+ the sender's own
        // fragment crossing its uplink once), so the cost is ≈ |R| per
        // unit bandwidth.
        assert!(run.cost.tuple_cost() <= 2.0 * 10.0 + 1e-9);
    }

    #[test]
    fn analytic_costs_match_measured_costs() {
        // The strategy chooser's analytic formulas must agree with what
        // the meter actually charges.
        let tree = builders::rack_tree(&[(3, 2.0, 4.0), (2, 1.0, 2.0)], 1.0);
        let p = unequal_placement(&tree, 100, 250, 2);
        let stats = p.stats();
        let heaviest = tree
            .compute_nodes()
            .iter()
            .copied()
            .max_by_key(|&v| stats.n_v(v))
            .unwrap();
        let predicted = cost_all_to_node(&tree, &stats, heaviest);
        let measured = run_protocol(
            &tree,
            &p,
            &UnequalTreeCartesianProduct::with_strategy(UnequalTreeStrategy::AllToNode),
        )
        .unwrap()
        .cost
        .tuple_cost();
        assert!(
            (predicted - measured).abs() < 1e-9,
            "{predicted} vs {measured}"
        );

        let predicted = cost_broadcast_small(&tree, &stats);
        let measured = run_protocol(
            &tree,
            &p,
            &UnequalTreeCartesianProduct::with_strategy(UnequalTreeStrategy::BroadcastSmall),
        )
        .unwrap()
        .cost
        .tuple_cost();
        assert!(
            (predicted - measured).abs() < 1e-9,
            "{predicted} vs {measured}"
        );
    }

    #[test]
    fn auto_is_never_much_worse_than_best_forced() {
        for (r, s, seed) in [(20u64, 500u64, 3u64), (100, 300, 4), (150, 200, 5)] {
            let tree = builders::rack_tree(&[(3, 1.0, 2.0), (3, 2.0, 4.0)], 1.0);
            let p = unequal_placement(&tree, r, s, seed);
            let auto = run_protocol(&tree, &p, &UnequalTreeCartesianProduct::new())
                .unwrap()
                .cost
                .tuple_cost();
            let best = [
                UnequalTreeStrategy::AllToNode,
                UnequalTreeStrategy::BroadcastSmall,
                UnequalTreeStrategy::PaddedSquares,
            ]
            .into_iter()
            .map(|st| {
                run_protocol(&tree, &p, &UnequalTreeCartesianProduct::with_strategy(st))
                    .unwrap()
                    .cost
                    .tuple_cost()
            })
            .fold(f64::INFINITY, f64::min);
            assert!(
                auto <= 4.0 * best + 1e-9,
                "r={r} s={s}: auto {auto} vs best {best}"
            );
        }
    }

    #[test]
    fn cost_respects_lower_bound() {
        for seed in 0..6u64 {
            let tree = builders::random_tree(6, 3, 0.5, 4.0, seed);
            let p = unequal_placement(&tree, 50, 350, seed);
            let run = run_protocol(&tree, &p, &UnequalTreeCartesianProduct::new()).unwrap();
            let lb = unequal_tree_lower_bound(&tree, &p.stats());
            let rat = ratio(run.cost.tuple_cost(), lb.value());
            assert!(rat >= 0.4, "seed {seed}: impossible ratio {rat}");
        }
    }

    #[test]
    fn empty_relation_is_free() {
        let tree = builders::star(3, 1.0);
        let mut p = Placement::empty(&tree);
        p.set_r(NodeId(0), (0..50).collect());
        let run = run_protocol(&tree, &p, &UnequalTreeCartesianProduct::new()).unwrap();
        assert_eq!(run.cost.tuple_cost(), 0.0);
    }
}
