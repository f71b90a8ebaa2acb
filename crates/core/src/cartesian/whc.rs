//! The weighted HyperCube protocol (§4.2) on symmetric stars.
//!
//! Each compute node `v` is assigned a square of side `d_v = 2^{l_v}`, the
//! smallest power of two at least `w_v · L` where `L = N / √(Σ_u w_u²)`.
//! The squares pack without overlap (Lemma 5) and, since
//! `Σ d_v² ≥ L² Σ w_v² = N²`, they fully cover the `(N/2) × (N/2)` output
//! grid. Node `v` then receives the `R`-rows and `S`-columns its square
//! spans — `O(w_v · L)` tuples — for a total cost of
//! `O(max{max_v N_v/w_v, N/√(Σ_v w_v²)})` (Lemma 6), matching Theorems 3
//! and 4 on the star.

use tamp_simulator::{Protocol, Rel, Session, SimError};
use tamp_topology::{NodeId, Tree};

use super::grid::{distribute_intervals, Labels};
use super::packing::{PlacedSquare, SquareSet};

/// The square assignment computed by the wHC planner.
#[derive(Clone, Debug)]
pub struct WhcPlan {
    /// Placed, non-overlapping squares covering the output grid.
    pub squares: Vec<PlacedSquare>,
    /// The scale `L = N / √(Σ w²)`.
    pub l: f64,
}

/// Compute the wHC square assignment for the compute nodes of `tree`.
///
/// `capacities`, indexed by node id, overrides the per-node capacity `w_v`
/// (defaults to the bandwidth of each leaf's adjacent edge). Squares are
/// clamped to `[1, 2^⌈log₂(N+1)⌉]` — a clamped square already covers the
/// whole grid alone, so coverage is unaffected.
pub fn plan_whc(tree: &Tree, total_n: u64, capacities: Option<&[f64]>) -> WhcPlan {
    let caps: Vec<(NodeId, f64)> = tree
        .compute_nodes()
        .iter()
        .map(|&v| {
            let w = match capacities {
                Some(c) => c[v.index()],
                None => {
                    let (_, e) = tree.neighbors(v)[0];
                    tree.sym_bandwidth(e).get()
                }
            };
            (v, w)
        })
        .collect();
    let sum_sq: f64 = caps.iter().map(|&(_, w)| w * w).sum();
    let l = if sum_sq > 0.0 {
        total_n as f64 / sum_sq.sqrt()
    } else {
        0.0
    };
    let max_level = log2_ceil(total_n.max(1) + 1);
    let mut set = SquareSet::new();
    for &(v, w) in &caps {
        let target = (w * l).ceil().max(1.0);
        let level = log2_ceil(target.min(u64::MAX as f64) as u64).min(max_level);
        set.merge(SquareSet::singleton(v, level));
    }
    WhcPlan {
        squares: set.place(),
        l,
    }
}

/// Smallest `k` with `2^k ≥ x` (for `x ≥ 1`).
pub(crate) fn log2_ceil(x: u64) -> u32 {
    64 - x.saturating_sub(1).leading_zeros()
}

/// The one-round deterministic weighted HyperCube protocol for symmetric
/// stars. Requires `|R| = |S|`. Returns the square plan used.
#[derive(Clone, Debug, Default)]
pub struct WeightedHyperCube;

impl WeightedHyperCube {
    /// Create the protocol.
    pub fn new() -> Self {
        WeightedHyperCube
    }
}

impl Protocol for WeightedHyperCube {
    type Output = WhcPlan;

    fn name(&self) -> String {
        "weighted-hypercube".into()
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        tree.require_symmetric()
            .map_err(|e| SimError::Protocol(e.to_string()))?;
        if !tree.compute_nodes_are_leaves() {
            return Err(SimError::Protocol(
                "wHC requires every compute node to be a leaf (normalize first)".into(),
            ));
        }
        let stats = session.stats().clone();
        if stats.total_r != stats.total_s {
            return Err(SimError::Protocol(format!(
                "wHC requires |R| = |S| (got {} and {}); use cartesian::unequal",
                stats.total_r, stats.total_s
            )));
        }
        if stats.total_r == 0 {
            return Ok(WhcPlan {
                squares: Vec::new(),
                l: 0.0,
            });
        }
        let plan = plan_whc(tree, stats.total_n(), None);
        execute_square_plan(session, &plan.squares, None)?;
        Ok(plan)
    }
}

/// Ship every node's local `R`/`S` fragments to the owners of the squares
/// whose row/column intervals contain them (optionally via a relay —
/// the §4.4 root-routing pattern).
pub(crate) fn execute_square_plan(
    session: &mut Session<'_>,
    squares: &[PlacedSquare],
    relay: Option<NodeId>,
) -> Result<(), SimError> {
    let tree = session.tree();
    let stats = session.stats().clone();
    let labels = Labels::new(tree, &stats);
    // Recipient intervals, clipped to the grid.
    let r_recipients: Vec<(NodeId, std::ops::Range<u64>)> = squares
        .iter()
        .filter(|sq| sq.x < labels.total_r)
        .map(|sq| (sq.owner, sq.x..(sq.x + sq.side).min(labels.total_r)))
        .collect();
    let s_recipients: Vec<(NodeId, std::ops::Range<u64>)> = squares
        .iter()
        .filter(|sq| sq.y < labels.total_s)
        .map(|sq| (sq.owner, sq.y..(sq.y + sq.side).min(labels.total_s)))
        .collect();
    session.round(|round| {
        for &v in round.tree().compute_nodes() {
            let local_r = &round.state(v).r;
            let start_r = labels.range(v, Rel::R, &stats).start;
            distribute_intervals(round, v, Rel::R, local_r, start_r, &r_recipients, relay)?;
            let local_s = &round.state(v).s;
            let start_s = labels.range(v, Rel::S, &stats).start;
            distribute_intervals(round, v, Rel::S, local_s, start_s, &s_recipients, relay)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::super::packing::check_covers_grid;
    use super::*;
    use tamp_simulator::{run_protocol, verify, Placement};
    use tamp_topology::builders;

    fn equal_placement(tree: &Tree, half: u64, seed: u64) -> Placement {
        let mut p = Placement::empty(tree);
        let vc = tree.compute_nodes();
        for a in 0..half {
            let v = vc[(crate::hashing::mix64(a ^ seed) % vc.len() as u64) as usize];
            p.push(v, Rel::R, a);
        }
        for a in 0..half {
            let v = vc[(crate::hashing::mix64(a ^ seed ^ 0x5555) % vc.len() as u64) as usize];
            p.push(v, Rel::S, 1_000_000 + a);
        }
        p
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1 << 20), 20);
    }

    #[test]
    fn plan_covers_grid() {
        let t = builders::heterogeneous_star(&[1.0, 2.0, 4.0, 8.0]);
        let plan = plan_whc(&t, 200, None);
        check_covers_grid(&plan.squares, 100, 100).unwrap();
    }

    #[test]
    fn whc_covers_all_pairs_uniform() {
        let t = builders::star(4, 2.0);
        let p = equal_placement(&t, 60, 3);
        let run = run_protocol(&t, &p, &WeightedHyperCube::new()).unwrap();
        assert_eq!(run.rounds, 1);
        verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
        check_covers_grid(&run.output.squares, 60, 60).unwrap();
    }

    #[test]
    fn whc_covers_all_pairs_heterogeneous() {
        let t = builders::heterogeneous_star(&[1.0, 1.0, 8.0, 16.0, 2.0]);
        let p = equal_placement(&t, 80, 9);
        let run = run_protocol(&t, &p, &WeightedHyperCube::new()).unwrap();
        verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
        // Fat links get bigger squares.
        let side_of = |i: u32| {
            run.output
                .squares
                .iter()
                .find(|s| s.owner == NodeId(i))
                .unwrap()
                .side
        };
        assert!(side_of(3) >= side_of(0));
    }

    #[test]
    fn whc_receive_load_tracks_bandwidth() {
        // Lemma 6: node v receives at most 4·w_v·L tuples.
        let t = builders::heterogeneous_star(&[1.0, 2.0, 4.0, 8.0]);
        let p = equal_placement(&t, 100, 5);
        let run = run_protocol(&t, &p, &WeightedHyperCube::new()).unwrap();
        let l = run.output.l;
        let hub = NodeId(4);
        for (i, &v) in t.compute_nodes().iter().enumerate() {
            let w = [1.0, 2.0, 4.0, 8.0][i];
            let down = t.dir_edge_between(hub, v).unwrap();
            let received = run.cost.edge_total(down) as f64;
            assert!(
                received <= 4.0 * w * l + 1.0,
                "node {v}: received {received} > 4wL = {}",
                4.0 * w * l
            );
        }
    }

    #[test]
    fn whc_rejects_unequal() {
        let t = builders::star(2, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), vec![1]);
        p.set_s(NodeId(1), vec![2, 3]);
        assert!(matches!(
            run_protocol(&t, &p, &WeightedHyperCube::new()),
            Err(SimError::Protocol(_))
        ));
    }

    #[test]
    fn whc_empty_input_is_free() {
        let t = builders::star(3, 1.0);
        let p = Placement::empty(&t);
        let run = run_protocol(&t, &p, &WeightedHyperCube::new()).unwrap();
        assert_eq!(run.cost.tuple_cost(), 0.0);
        assert!(run.output.squares.is_empty());
    }
}
