//! Ablation protocols: the paper's algorithms with one design ingredient
//! removed, used to show that ingredient is load-bearing.

use std::collections::HashMap;

use tamp_core::hashing::WeightedHash;
use tamp_simulator::{Protocol, Rel, Session, SimError, Value};
use tamp_topology::NodeId;

/// `TreeIntersect` *without* the balanced partition: a single weighted
/// hash over all compute nodes (one global "block").
///
/// This keeps per-node loads proportional to `N_v` but ignores Definition
/// 1's property 4, so β-edges can carry far more than `|R|` — the bound
/// Theorem 2's analysis needs.
#[derive(Clone, Debug)]
pub(crate) struct GlobalWeightedHashJoin {
    seed: u64,
}

impl GlobalWeightedHashJoin {
    /// Create with a hash seed.
    pub fn new(seed: u64) -> Self {
        GlobalWeightedHashJoin { seed }
    }
}

impl Protocol for GlobalWeightedHashJoin {
    type Output = Vec<Value>;

    fn name(&self) -> String {
        format!("global-weighted-hash-join(seed={})", self.seed)
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        let stats = session.stats().clone();
        let weighted: Vec<(NodeId, u64)> = tree
            .compute_nodes()
            .iter()
            .map(|&v| (v, stats.n_v(v)))
            .collect();
        let Some(hash) = WeightedHash::new(self.seed, &weighted) else {
            return Ok(Vec::new());
        };
        session.round(|round| {
            for &v in tree.compute_nodes() {
                for rel in [Rel::R, Rel::S] {
                    let mut by_dst: HashMap<NodeId, Vec<Value>> = HashMap::new();
                    for &a in round.state(v).rel(rel) {
                        by_dst.entry(hash.pick(a)).or_default().push(a);
                    }
                    for (dst, vals) in by_dst {
                        round.send(v, &[dst], rel, &vals)?;
                    }
                }
            }
            Ok(())
        })?;
        Ok(
            tamp_simulator::verify::emitted_intersection(session.states())
                .into_iter()
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_simulator::{run_protocol, verify, Placement};
    use tamp_topology::builders;

    #[test]
    fn global_hash_is_correct_but_unpartitioned() {
        let t = builders::rack_tree(&[(2, 1.0, 1.0), (2, 1.0, 1.0)], 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), (0..50).collect());
        p.set_s(NodeId(2), (25..75).collect());
        let run = run_protocol(&t, &p, &GlobalWeightedHashJoin::new(1)).unwrap();
        verify::check_intersection(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
    }
}
