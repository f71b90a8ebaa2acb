//! Topology-agnostic cartesian-product baselines.

use tamp_simulator::{Protocol, Rel, Session, SimError};
use tamp_topology::NodeId;

use super::grid::{distribute_intervals, Labels};
use super::star::all_to_node;

/// The classic (unweighted) HyperCube / shares algorithm: arrange the `p`
/// compute nodes in a `p₁ × p₂` grid (`p₁·p₂ ≤ p`, near-square), split `R`
/// into `p₁` equal row bands and `S` into `p₂` equal column bands, and
/// give node `(i, j)` band `i` of `R` and band `j` of `S`. Ignores both
/// bandwidths and the initial distribution.
#[derive(Clone, Debug, Default)]
pub struct UniformHyperCube;

impl UniformHyperCube {
    /// Create the protocol.
    pub fn new() -> Self {
        UniformHyperCube
    }
}

impl Protocol for UniformHyperCube {
    type Output = ();

    fn name(&self) -> String {
        "uniform-hypercube".into()
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        let stats = session.stats().clone();
        let labels = Labels::new(tree, &stats);
        let computes = tree.compute_nodes().to_vec();
        let p = computes.len() as u64;
        // Near-square integer grid with p1·p2 ≤ p, maximizing p1·p2.
        let p1 = (p as f64).sqrt().floor() as u64;
        let p1 = p1.max(1);
        let p2 = (p / p1).max(1);
        let (total_r, total_s) = (labels.total_r, labels.total_s);
        if total_r == 0 || total_s == 0 {
            return Ok(());
        }
        let band = |total: u64, parts: u64, i: u64| -> std::ops::Range<u64> {
            let lo = total * i / parts;
            let hi = total * (i + 1) / parts;
            lo..hi
        };
        let mut r_recipients = Vec::new();
        let mut s_recipients = Vec::new();
        for (k, &v) in computes.iter().enumerate().take((p1 * p2) as usize) {
            let (i, j) = (k as u64 / p2, k as u64 % p2);
            r_recipients.push((v, band(total_r, p1, i)));
            s_recipients.push((v, band(total_s, p2, j)));
        }
        session.round(|round| {
            for &v in &computes {
                let local_r = &round.state(v).r;
                let start_r = labels.range(v, Rel::R, &stats).start;
                distribute_intervals(round, v, Rel::R, local_r, start_r, &r_recipients, None)?;
                let local_s = &round.state(v).s;
                let start_s = labels.range(v, Rel::S, &stats).start;
                distribute_intervals(round, v, Rel::S, local_s, start_s, &s_recipients, None)?;
            }
            Ok(())
        })
    }
}

/// Ship everything to one designated node (the simplest correct protocol;
/// optimal only when that node already holds more than half the data).
#[derive(Clone, Debug)]
pub struct AllToOne {
    target: NodeId,
}

impl AllToOne {
    /// Create with the gathering node.
    pub fn new(target: NodeId) -> Self {
        AllToOne { target }
    }
}

impl Protocol for AllToOne {
    type Output = ();

    fn name(&self) -> String {
        format!("all-to-one({})", self.target)
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        if !session.tree().is_compute(self.target) {
            return Err(SimError::SendToRouter(self.target));
        }
        all_to_node(session, self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_simulator::{run_protocol, verify, Placement};
    use tamp_topology::builders;

    #[test]
    fn uniform_hypercube_covers_pairs() {
        let t = builders::star(6, 1.0);
        let mut p = Placement::empty(&t);
        let vc = t.compute_nodes();
        for a in 0..30u64 {
            p.push(vc[(a % 6) as usize], Rel::R, a);
            p.push(vc[((a + 3) % 6) as usize], Rel::S, 100 + a);
        }
        let run = run_protocol(&t, &p, &UniformHyperCube::new()).unwrap();
        assert_eq!(run.rounds, 1);
        verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
    }

    #[test]
    fn uniform_hypercube_nonsquare_p() {
        // p = 5 → 2×2 grid, one idle node; still correct.
        let t = builders::star(5, 1.0);
        let mut p = Placement::empty(&t);
        let vc = t.compute_nodes();
        for a in 0..25u64 {
            p.push(vc[(a % 5) as usize], Rel::R, a);
            p.push(vc[((a + 2) % 5) as usize], Rel::S, 100 + a);
        }
        let run = run_protocol(&t, &p, &UniformHyperCube::new()).unwrap();
        verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
    }

    #[test]
    fn all_to_one_covers_pairs() {
        let t = builders::rack_tree(&[(2, 1.0, 1.0), (2, 1.0, 1.0)], 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), (0..10).collect());
        p.set_s(NodeId(3), (10..20).collect());
        let run = run_protocol(&t, &p, &AllToOne::new(NodeId(1))).unwrap();
        verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
        assert!(run.final_state[1].r.len() == 10 && run.final_state[1].s.len() == 10);
    }

    #[test]
    fn all_to_one_rejects_router_target() {
        let t = builders::star(2, 1.0);
        let p = Placement::empty(&t);
        assert!(run_protocol(&t, &p, &AllToOne::new(NodeId(2))).is_err());
    }
}
