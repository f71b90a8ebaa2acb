//! Algorithm 2: `TreeIntersect` — one-round set intersection on arbitrary
//! symmetric trees via balanced partitions.
//!
//! Given a balanced partition `{V_C¹, …, V_Cᵏ}` (Algorithm 3), each block
//! `i` carries a weighted hash `h_i` with `Pr[h_i(a) = v] = N_v / Σ_{u∈V_Cⁱ}
//! N_u`. Every `R`-tuple is hashed into **all** blocks (one multicast to
//! `{h_1(a), …, h_k(a)}`), while each `S`-tuple is hashed only within its
//! owner's block. Block `i` therefore computes `R ∩ ⋃_{v∈V_Cⁱ} S_v`, and
//! the union over blocks is `R ∩ S`. Theorem 2: cost is
//! `O(log N · log |V|)` from optimal w.h.p., in a single round.

use tamp_simulator::{Protocol, Rel, Session, SimError, Value};

use crate::send_groups::SendGroups;

use super::partition::partition_hashes;

/// One-round randomized set intersection for symmetric trees
/// (Algorithm 2). Returns the emitted intersection, sorted.
#[derive(Clone, Debug)]
pub struct TreeIntersect {
    seed: u64,
}

impl TreeIntersect {
    /// Create with a hash seed.
    pub fn new(seed: u64) -> Self {
        TreeIntersect { seed }
    }
}

impl Protocol for TreeIntersect {
    type Output = Vec<Value>;

    fn name(&self) -> String {
        format!("tree-intersect(seed={})", self.seed)
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        route_by_partition(session, self.seed)?;
        Ok(emit_intersection(session))
    }
}

/// The routing round of Algorithm 2. Silent — no round at all — when the
/// smaller relation is empty.
fn route_by_partition(session: &mut Session<'_>, seed: u64) -> Result<(), SimError> {
    let tree = session.tree();
    tree.require_symmetric()
        .map_err(|e| SimError::Protocol(e.to_string()))?;
    let stats = session.stats().clone();
    let (small, big) = if stats.total_r <= stats.total_s {
        (Rel::R, Rel::S)
    } else {
        (Rel::S, Rel::R)
    };
    let small_total = stats.total_rel(small);
    if small_total == 0 {
        return Ok(());
    }

    // One weighted hash per block, over the block's N_v weights.
    let (partition, hashes) = partition_hashes(tree, &stats.n, small_total, seed);
    let block_of = partition.block_of(tree.num_nodes());

    session.round(|round| {
        let mut groups = SendGroups::default();
        for &v in tree.compute_nodes() {
            // Small-relation tuples: multicast to {h_i(a)} over all
            // blocks with one send per distinct destination vector.
            for &a in round.state(v).rel(small) {
                groups.push(a, hashes.iter().flatten().map(|h| h.pick(a)));
            }
            groups.drain(|dsts, vals| round.send(v, dsts, small, vals))?;
            // Big-relation tuples: hash within the owner's block only.
            let bi = block_of[v.index()];
            if bi == usize::MAX {
                continue;
            }
            if let Some(h) = &hashes[bi] {
                for &a in round.state(v).rel(big) {
                    groups.push(a, [h.pick(a)]);
                }
                groups.drain(|dsts, vals| round.send(v, dsts, big, vals))?;
            }
        }
        Ok(())
    })
}

/// Collect the union of all nodes' locally emittable intersections, sorted
/// ([`verify::emitted_intersection`](tamp_simulator::verify::emitted_intersection)
/// is the set-based oracle of this).
pub(crate) fn emit_intersection(session: &Session<'_>) -> Vec<Value> {
    let mut out = Vec::new();
    let mut sorted: Vec<Value> = Vec::new();
    for st in session.states() {
        let (build, probe) = if st.r.len() <= st.s.len() {
            (&st.r, &st.s)
        } else {
            (&st.s, &st.r)
        };
        sorted.clear();
        sorted.extend_from_slice(build);
        sorted.sort_unstable();
        out.extend(probe.iter().filter(|a| sorted.binary_search(a).is_ok()));
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_simulator::{run_protocol, verify, Placement};
    use tamp_topology::{builders, NodeId};

    fn planted_placement(
        tree: &tamp_topology::Tree,
        r_size: u64,
        s_size: u64,
        seed: u64,
    ) -> Placement {
        // R = 0..r_size, S = r_size/2..r_size/2+s_size (overlap planted),
        // scattered round-robin with a seeded twist.
        let mut p = Placement::empty(tree);
        let vc = tree.compute_nodes();
        for a in 0..r_size {
            let v = vc[(crate::hashing::mix64(a ^ seed) % vc.len() as u64) as usize];
            p.push(v, Rel::R, a);
        }
        for a in 0..s_size {
            let val = r_size / 2 + a;
            let v = vc[(crate::hashing::mix64(val ^ seed ^ 0xABCD) % vc.len() as u64) as usize];
            p.push(v, Rel::S, val);
        }
        p
    }

    #[test]
    fn correct_on_star() {
        let t = builders::star(5, 1.0);
        let p = planted_placement(&t, 100, 300, 1);
        let run = run_protocol(&t, &p, &TreeIntersect::new(9)).unwrap();
        assert_eq!(run.rounds, 1);
        verify::check_intersection(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
    }

    #[test]
    fn correct_on_rack_tree() {
        let t = builders::rack_tree(&[(3, 1.0, 2.0), (3, 2.0, 4.0), (2, 1.0, 1.0)], 1.0);
        let p = planted_placement(&t, 200, 600, 2);
        let run = run_protocol(&t, &p, &TreeIntersect::new(5)).unwrap();
        assert_eq!(run.rounds, 1);
        verify::check_intersection(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
    }

    #[test]
    fn correct_on_random_trees() {
        for seed in 0..10u64 {
            let t = builders::random_tree(8, 5, 0.5, 4.0, seed);
            let p = planted_placement(&t, 80, 240, seed);
            let run = run_protocol(&t, &p, &TreeIntersect::new(seed)).unwrap();
            assert_eq!(run.rounds, 1);
            verify::check_intersection(&run.final_state, &p.all_r(), &p.all_s())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn skewed_placement_still_correct() {
        // All R on one node, S on another, far apart in a caterpillar.
        let t = builders::caterpillar(5, 2, 1.0);
        let mut p = Placement::empty(&t);
        let vc = t.compute_nodes();
        p.set_r(vc[0], (0..50).collect());
        p.set_s(vc[9], (25..75).collect());
        let run = run_protocol(&t, &p, &TreeIntersect::new(4)).unwrap();
        verify::check_intersection(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
        let expected: Vec<u64> = (25..50).collect();
        assert_eq!(run.output, expected);
    }

    #[test]
    fn empty_small_relation_short_circuits() {
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_s(NodeId(0), (0..10).collect());
        let run = run_protocol(&t, &p, &TreeIntersect::new(0)).unwrap();
        assert!(run.output.is_empty());
        assert_eq!(run.cost.tuple_cost(), 0.0);
    }

    #[test]
    fn rejects_asymmetric_tree() {
        let t = builders::mpc_star(3);
        let p = Placement::empty(&t);
        assert!(matches!(
            run_protocol(&t, &p, &TreeIntersect::new(0)),
            Err(SimError::Protocol(_))
        ));
    }
}
