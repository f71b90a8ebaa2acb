//! Distributed Algorithm 2 (`TreeIntersect`), one node at a time.
//!
//! Every node derives the balanced partition and the per-block weighted
//! hashes from `(tree, stats, seed)` — all nodes agree because the
//! derivation is deterministic — then routes its local small-relation
//! tuples to `{h_1(a), …, h_k(a)}` (one multicast per distinct destination
//! set) and its big-relation tuples to `h_i(a)` within its own block. That
//! is the protocol's one round: once it is delivered, each node's local
//! state contains its share of `R ∩ S`.

use std::collections::BTreeMap;

use tamp_core::hashing::WeightedHash;
use tamp_core::intersection::balanced_partition;
use tamp_simulator::{NodeState, Placement, PlacementStats, Rel, Value};
use tamp_topology::{NodeId, Tree};

use crate::jobs::{Schedule, ScheduleJob, ScheduleSend};

/// One node's view of the distributed tree-intersection protocol.
#[derive(Clone, Debug)]
pub struct DistributedTreeIntersect {
    seed: u64,
}

impl DistributedTreeIntersect {
    /// Create with the shared hash seed.
    pub fn new(seed: u64) -> Self {
        DistributedTreeIntersect { seed }
    }

    /// Node `v`'s sends of the protocol's one round. They depend only on
    /// shared knowledge (`tree`, `stats`, the seed) and on `state`, `v`'s
    /// own fragment: no node sees another's data or waits on a message.
    pub fn sends(
        &self,
        tree: &Tree,
        stats: &PlacementStats,
        v: NodeId,
        state: &NodeState,
    ) -> Vec<ScheduleSend> {
        let (small, big) = roles(stats);
        let small_total = stats.total_rel(small);
        if small_total == 0 {
            return Vec::new();
        }

        // Same derivation as the centralized protocol: partition, then one
        // weighted hash per block.
        let partition = balanced_partition(tree, &stats.n, small_total);
        let block_of = partition.block_of(tree.num_nodes());
        let hashes: Vec<Option<WeightedHash>> = partition
            .blocks
            .iter()
            .enumerate()
            .map(|(i, block)| {
                let weighted: Vec<(NodeId, u64)> =
                    block.iter().map(|&v| (v, stats.n_v(v))).collect();
                WeightedHash::new(
                    self.seed.wrapping_add(i as u64).wrapping_mul(0x9E37),
                    &weighted,
                )
            })
            .collect();

        let send = |dsts: Vec<NodeId>, rel: Rel, vals: Vec<Value>| ScheduleSend {
            src: v,
            dsts: dsts.into(),
            rel,
            values: vals.into(),
        };
        // Small-relation tuples: multicast to the per-block hash targets.
        // BTreeMaps keep the issue order a deterministic function of the
        // data, so whole runs — not just their cost ledgers — are
        // reproducible across processes and pool widths.
        let mut by_dsts: BTreeMap<Vec<NodeId>, Vec<Value>> = BTreeMap::new();
        for &a in state.rel(small) {
            let mut dsts: Vec<NodeId> = hashes.iter().flatten().map(|h| h.pick(a)).collect();
            dsts.sort_unstable();
            dsts.dedup();
            by_dsts.entry(dsts).or_default().push(a);
        }
        let mut out: Vec<ScheduleSend> = by_dsts
            .into_iter()
            .map(|(dsts, vals)| send(dsts, small, vals))
            .collect();
        // Big-relation tuples: hash within the owner's block only.
        let bi = block_of[v.index()];
        if bi != usize::MAX {
            if let Some(h) = &hashes[bi] {
                let mut by_dst: BTreeMap<NodeId, Vec<Value>> = BTreeMap::new();
                for &a in state.rel(big) {
                    by_dst.entry(h.pick(a)).or_default().push(a);
                }
                out.extend(
                    by_dst
                        .into_iter()
                        .map(|(dst, vals)| send(vec![dst], big, vals)),
                );
            }
        }
        out
    }

    /// The protocol as a job: every compute node's independent
    /// [`sends`](Self::sends), concatenated in node-id order into one
    /// round — or no round at all when the smaller relation is empty,
    /// the protocol's own round count.
    pub fn job(&self, tree: &Tree, placement: &Placement) -> ScheduleJob {
        let stats = placement.stats();
        let rounds = if stats.total_rel(roles(&stats).0) == 0 {
            Vec::new()
        } else {
            vec![tree
                .compute_nodes()
                .iter()
                .flat_map(|&v| self.sends(tree, &stats, v, placement.node(v)))
                .collect()]
        };
        ScheduleJob::new(
            "distributed-tree-intersect",
            tree.num_nodes(),
            Schedule { rounds },
        )
    }
}

/// `(small, big)`: the smaller relation by total size is hashed to every
/// block, the bigger one stays within its owner's block.
fn roles(stats: &PlacementStats) -> (Rel, Rel) {
    if stats.total_r <= stats.total_s {
        (Rel::R, Rel::S)
    } else {
        (Rel::S, Rel::R)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecBackend, ExecOutcome, PooledClusterBackend};
    use tamp_core::intersection::TreeIntersect;
    use tamp_simulator::{run_protocol, verify};
    use tamp_topology::builders;

    fn planted(tree: &Tree, r: u64, s: u64, seed: u64) -> Placement {
        let mut p = Placement::empty(tree);
        let vc = tree.compute_nodes();
        for a in 0..r {
            let v = vc[(tamp_core::hashing::mix64(a ^ seed) % vc.len() as u64) as usize];
            p.push(v, Rel::R, a);
        }
        for a in 0..s {
            let val = r / 2 + a;
            let v = vc[(tamp_core::hashing::mix64(val ^ seed ^ 0xABCD) % vc.len() as u64) as usize];
            p.push(v, Rel::S, val);
        }
        p
    }

    fn on_cluster(tree: &Tree, p: &Placement, seed: u64) -> ExecOutcome {
        let job = DistributedTreeIntersect::new(seed).job(tree, p);
        PooledClusterBackend::default()
            .execute(tree, p, &job)
            .unwrap()
    }

    #[test]
    fn matches_simulator_cost_exactly() {
        // Same seed ⇒ same hashes ⇒ identical per-edge traffic, so the
        // pooled cluster and the centralized simulator agree to the bit.
        for (tree, seed) in [
            (builders::star(5, 1.0), 9u64),
            (builders::rack_tree(&[(3, 1.0, 2.0), (3, 2.0, 4.0)], 1.0), 5),
            (builders::caterpillar(4, 2, 1.5), 3),
        ] {
            let p = planted(&tree, 120, 360, seed);
            let sim = run_protocol(&tree, &p, &TreeIntersect::new(seed)).unwrap();
            let rt = on_cluster(&tree, &p, seed);
            assert_eq!(rt.cost.tuple_cost(), sim.cost.tuple_cost());
            assert_eq!(rt.cost.edge_totals, sim.cost.edge_totals);
            verify::check_intersection(&rt.final_state, &p.all_r(), &p.all_s()).unwrap();
        }
    }

    #[test]
    fn outputs_match_simulator() {
        let tree = builders::random_tree(7, 4, 0.5, 3.0, 11);
        let p = planted(&tree, 90, 200, 4);
        let sim = run_protocol(&tree, &p, &TreeIntersect::new(4)).unwrap();
        let rt = on_cluster(&tree, &p, 4);
        let sim_out = verify::emitted_intersection(&sim.final_state);
        let rt_out = verify::emitted_intersection(&rt.final_state);
        assert_eq!(sim_out, rt_out);
    }

    #[test]
    fn empty_input_halts_immediately() {
        let tree = builders::star(3, 1.0);
        let p = Placement::empty(&tree);
        assert_eq!(DistributedTreeIntersect::new(0).job(&tree, &p).rounds(), 0);
        let rt = on_cluster(&tree, &p, 0);
        assert_eq!(rt.cost.tuple_cost(), 0.0);
        assert_eq!(rt.supersteps, 1);
    }
}
