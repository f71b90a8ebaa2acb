//! Algorithm 4: cartesian product on a symmetric star.
//!
//! If some node already holds more than half the data, routing everything
//! to it matches the Theorem 3 bound within a factor of two; otherwise the
//! weighted HyperCube is optimal (Lemma 7).

use tamp_simulator::{Protocol, Rel, Session, SimError};
use tamp_topology::NodeId;

use super::whc::{plan_whc, WeightedHyperCube};

/// One-round deterministic cartesian product on symmetric stars
/// (Algorithm 4). Requires `|R| = |S|`.
#[derive(Clone, Debug, Default)]
pub struct StarCartesianProduct;

impl StarCartesianProduct {
    /// Create the protocol.
    pub fn new() -> Self {
        StarCartesianProduct
    }
}

impl Protocol for StarCartesianProduct {
    type Output = ();

    fn name(&self) -> String {
        "star-cartesian-product".into()
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        if tree.num_nodes() != tree.num_compute() + 1 || !tree.compute_nodes_are_leaves() {
            return Err(SimError::Protocol(
                "StarCartesianProduct requires a star topology".into(),
            ));
        }
        let stats = session.stats().clone();
        let n_total = stats.total_n();
        let heavy = tree
            .compute_nodes()
            .iter()
            .copied()
            .max_by_key(|&v| (stats.n_v(v), std::cmp::Reverse(v.index())))
            .expect("star has compute nodes");
        if stats.n_v(heavy) * 2 > n_total {
            all_to_node(session, heavy)
        } else {
            let _plan = plan_whc(tree, n_total, None);
            WeightedHyperCube::new().run(session).map(|_| ())
        }
    }
}

/// Route every node's full local data to `target` in one round.
pub(crate) fn all_to_node(session: &mut Session<'_>, target: NodeId) -> Result<(), SimError> {
    session.round(|round| {
        for &v in round.tree().compute_nodes() {
            if v == target {
                continue;
            }
            round.send(v, &[target], Rel::R, &round.state(v).r)?;
            round.send(v, &[target], Rel::S, &round.state(v).s)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cartesian::cartesian_lower_bound;
    use crate::ratio::ratio;
    use tamp_simulator::{run_protocol, verify, Placement};
    use tamp_topology::builders;

    #[test]
    fn heavy_node_shortcut() {
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), (0..50).collect());
        p.set_s(NodeId(0), (100..130).collect());
        p.set_s(NodeId(1), (130..150).collect());
        let run = run_protocol(&t, &p, &StarCartesianProduct::new()).unwrap();
        assert_eq!(run.rounds, 1);
        verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
        // Cost: node 1 ships its 20 tuples; node 0 receives them.
        assert_eq!(run.cost.tuple_cost(), 20.0);
        let lb = cartesian_lower_bound(&t, &p.stats());
        assert!(ratio(run.cost.tuple_cost(), lb.value()) <= 2.0);
    }

    #[test]
    fn balanced_case_uses_whc() {
        let t = builders::heterogeneous_star(&[1.0, 2.0, 4.0, 4.0]);
        let mut p = Placement::empty(&t);
        let vc = t.compute_nodes();
        for a in 0..40u64 {
            p.push(vc[(a % 4) as usize], Rel::R, a);
            p.push(vc[((a + 1) % 4) as usize], Rel::S, 1000 + a);
        }
        let run = run_protocol(&t, &p, &StarCartesianProduct::new()).unwrap();
        assert_eq!(run.rounds, 1);
        verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
        // Lemma 7: O(1)-optimal. Constant here is generous but finite.
        let lb = cartesian_lower_bound(&t, &p.stats());
        let rat = ratio(run.cost.tuple_cost(), lb.value());
        assert!(rat <= 8.0, "ratio {rat}");
    }
}
