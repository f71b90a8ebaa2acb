//! Topology-agnostic baseline: the uniform hash join.
//!
//! Classic MPC algorithms hash every tuple uniformly across all `p`
//! compute nodes, ignoring both the topology and the initial distribution.
//! On a homogeneous star this is fine; on heterogeneous trees it floods
//! thin links. `TreeIntersect`'s advantage over this baseline is exactly
//! the paper's motivation.

use tamp_simulator::{Protocol, Rel, Session, SimError, Value};
use tamp_topology::NodeId;

use crate::hashing::WeightedHash;
use crate::send_groups::SendGroups;

use super::tree::emit_intersection;

/// Uniform (topology-agnostic) hash join: every tuple of both relations is
/// sent to a uniformly-hashed compute node.
#[derive(Clone, Debug)]
pub struct UniformHashJoin {
    seed: u64,
}

impl UniformHashJoin {
    /// Create with a hash seed.
    pub fn new(seed: u64) -> Self {
        UniformHashJoin { seed }
    }
}

impl Protocol for UniformHashJoin {
    type Output = Vec<Value>;

    fn name(&self) -> String {
        format!("uniform-hash-join(seed={})", self.seed)
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        let weighted: Vec<(NodeId, u64)> = tree.compute_nodes().iter().map(|&v| (v, 1)).collect();
        let hash = WeightedHash::new(self.seed, &weighted).expect("at least one compute node");
        session.round(|round| {
            let mut groups = SendGroups::default();
            for &v in tree.compute_nodes() {
                for rel in [Rel::R, Rel::S] {
                    for &a in round.state(v).rel(rel) {
                        groups.push(a, [hash.pick(a)]);
                    }
                    groups.drain(|dst, vals| round.send(v, dst, rel, vals))?;
                }
            }
            Ok(())
        })?;
        Ok(emit_intersection(session))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_simulator::{run_protocol, verify, Placement};
    use tamp_topology::builders;

    #[test]
    fn uniform_join_is_correct() {
        let t = builders::rack_tree(&[(2, 1.0, 2.0), (2, 1.0, 2.0)], 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), (0..40).collect());
        p.set_s(NodeId(3), (20..60).collect());
        let run = run_protocol(&t, &p, &UniformHashJoin::new(2)).unwrap();
        assert_eq!(run.rounds, 1);
        verify::check_intersection(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
        let expected: Vec<u64> = (20..40).collect();
        assert_eq!(run.output, expected);
    }

    #[test]
    fn uniform_join_pays_on_slow_links() {
        // One leaf has a 100× slower link. The uniform join still sends it
        // ~1/p of all data; the weighted algorithm avoids it when that node
        // holds nothing.
        let t = builders::heterogeneous_star(&[10.0, 10.0, 10.0, 0.1]);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), (0..500).collect());
        p.set_s(NodeId(1), (0..500).collect());
        let uniform = run_protocol(&t, &p, &UniformHashJoin::new(3)).unwrap();
        let weighted = run_protocol(&t, &p, &crate::intersection::TreeIntersect::new(3)).unwrap();
        assert!(
            uniform.cost.tuple_cost() > 10.0 * weighted.cost.tuple_cost(),
            "uniform {} vs weighted {}",
            uniform.cost.tuple_cost(),
            weighted.cost.tuple_cost()
        );
    }
}
