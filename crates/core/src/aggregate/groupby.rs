//! Distributed group-by aggregation with proportional output placement.
//!
//! Each node folds its local tuples into one partial per local group, then
//! routes the partial for group `g` to the owner node `h(g)`, where `h` is
//! the same distribution-aware weighted hash Algorithm 2 uses:
//! `Pr[h(g) = v] = N_v / N`. Nodes that hold more input data receive
//! proportionally more of the output, which keeps every node's receive
//! volume within its share of the Theorem-1-style per-edge budget.
//!
//! One round; traffic on edge `e` is at most one partial per
//! (far-side node, group) pair whose owner lives across `e` — compare
//! [`groupby_lower_bound`](super::groupby_lower_bound), which charges one
//! crossing per group split by `e`.

use std::collections::BTreeMap;

use tamp_simulator::{Protocol, Rel, Session, SimError};
use tamp_topology::NodeId;

use crate::hashing::WeightedHash;
use crate::send_groups::SendGroups;

use super::{decode, encode, partials_of, Aggregator};

/// One-round distributed group-by. The output is the full grouped
/// aggregate, tagged with the compute node that owns each group.
#[derive(Clone, Debug)]
pub struct HashGroupBy {
    seed: u64,
    agg: Aggregator,
}

impl HashGroupBy {
    /// Create with a hash seed.
    pub fn new(seed: u64, agg: Aggregator) -> Self {
        HashGroupBy { seed, agg }
    }
}

impl Protocol for HashGroupBy {
    type Output = Vec<(u64, u64, NodeId)>;

    fn name(&self) -> String {
        format!("hash-group-by({}, seed={})", self.agg.name(), self.seed)
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        tree.require_symmetric()
            .map_err(|e| SimError::Protocol(e.to_string()))?;
        let stats = session.stats().clone();
        let weighted: Vec<(NodeId, u64)> = tree
            .compute_nodes()
            .iter()
            .map(|&v| (v, stats.n_v(v)))
            .collect();
        // All-empty input: nothing to do.
        let Some(hash) = WeightedHash::new(self.seed, &weighted) else {
            return Ok(Vec::new());
        };
        let agg = self.agg;

        // Local pre-aggregation, then route each partial to its group
        // owner, which folds it into the groups it owns.
        let mut owned: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); tree.num_nodes()];
        let mut absorb = |owner: NodeId, g: u64, m: u64| {
            owned[owner.index()]
                .entry(g)
                .and_modify(|p| *p = agg.combine(*p, m))
                .or_insert(m);
        };
        session.round(|round| {
            let mut groups = SendGroups::default();
            for &v in tree.compute_nodes() {
                for (g, m) in partials_of(&round.state(v).r, agg) {
                    let owner = hash.pick(g);
                    if owner == v {
                        absorb(v, g, m);
                    } else {
                        groups.push(encode(g, m), [owner]);
                    }
                }
                groups.drain(|owner, partials| {
                    for &p in partials {
                        let (g, m) = decode(p);
                        absorb(owner[0], g, m);
                    }
                    round.send(v, owner, Rel::S, partials)
                })?;
            }
            Ok(())
        })?;

        let mut out: Vec<(u64, u64, NodeId)> = Vec::new();
        for &v in tree.compute_nodes() {
            for (&g, &m) in &owned[v.index()] {
                out.push((g, m, v));
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{groupby_lower_bound, reference_aggregate};
    use tamp_simulator::{run_protocol, Placement};
    use tamp_topology::builders;

    fn check(tree: &tamp_topology::Tree, p: &Placement, agg: Aggregator, seed: u64) {
        let run = run_protocol(tree, p, &HashGroupBy::new(seed, agg)).unwrap();
        let want: Vec<(u64, u64)> = reference_aggregate(&p.all_r(), agg).into_iter().collect();
        let got: Vec<(u64, u64)> = run.output.iter().map(|&(g, m, _)| (g, m)).collect();
        assert_eq!(got, want);
        // Each group is owned by exactly one node.
        let mut groups: Vec<u64> = run.output.iter().map(|&(g, _, _)| g).collect();
        groups.dedup();
        assert_eq!(groups.len(), run.output.len());
    }

    #[test]
    fn correct_on_star() {
        let t = builders::star(4, 1.0);
        let mut p = Placement::empty(&t);
        for (i, &v) in t.compute_nodes().iter().enumerate() {
            for j in 0..60u64 {
                p.push(v, Rel::R, encode(j % 9, (i as u64) + j));
            }
        }
        for agg in [
            Aggregator::Count,
            Aggregator::Sum,
            Aggregator::Min,
            Aggregator::Max,
        ] {
            check(&t, &p, agg, 11);
        }
    }

    #[test]
    fn correct_on_rack_tree_and_random() {
        let t = builders::rack_tree(&[(2, 1.0, 2.0), (3, 2.0, 1.0)], 1.0);
        let mut p = Placement::empty(&t);
        for (i, &v) in t.compute_nodes().iter().enumerate() {
            for j in 0..40u64 {
                p.push(v, Rel::R, encode((i as u64 * 13 + j) % 7, j + 1));
            }
        }
        check(&t, &p, Aggregator::Sum, 5);

        for seed in 0..6u64 {
            let t = builders::random_tree(6, 3, 0.5, 2.0, seed);
            let mut p = Placement::empty(&t);
            for (i, &v) in t.compute_nodes().iter().enumerate() {
                for j in 0..25u64 {
                    p.push(v, Rel::R, encode((i as u64 + j) % 4, j));
                }
            }
            check(&t, &p, Aggregator::Min, seed);
        }
    }

    #[test]
    fn cost_exceeds_lower_bound() {
        let t = builders::rack_tree(&[(3, 1.0, 1.0), (3, 1.0, 1.0)], 0.5);
        let mut p = Placement::empty(&t);
        for (i, &v) in t.compute_nodes().iter().enumerate() {
            for g in 0..12u64 {
                p.push(v, Rel::R, encode(g, i as u64 + 1));
            }
        }
        let lb = groupby_lower_bound(&t, &p);
        let run = run_protocol(&t, &p, &HashGroupBy::new(3, Aggregator::Sum)).unwrap();
        assert!(run.cost.tuple_cost() >= lb.value() - 1e-9);
        assert!(lb.value() > 0.0);
    }

    #[test]
    fn local_groups_can_be_free() {
        // One node holds everything: with the proportional hash all groups
        // land on that node and no tuple moves.
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), (0..30).map(|g| encode(g, 1)).collect());
        let run = run_protocol(&t, &p, &HashGroupBy::new(1, Aggregator::Count)).unwrap();
        assert_eq!(run.cost.tuple_cost(), 0.0);
        assert!(run.output.iter().all(|&(_, _, v)| v == NodeId(0)));
    }

    #[test]
    fn empty_input_is_empty_output() {
        let t = builders::star(3, 1.0);
        let p = Placement::empty(&t);
        let run = run_protocol(&t, &p, &HashGroupBy::new(0, Aggregator::Sum)).unwrap();
        assert!(run.output.is_empty());
    }
}
