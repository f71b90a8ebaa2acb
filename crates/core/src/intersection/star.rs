//! Algorithm 1: `StarIntersect` — one-round set intersection on a
//! symmetric star.
//!
//! Nodes split into `V_α = {v : min{N_v, N − N_v} < |R|}` and
//! `V_β = V_C \ V_α`. A weighted random hash `h` maps each domain value to
//! node `v` with probability `N_v / N'` for `v ∈ V_α` and `|R_v| / N'` for
//! `v ∈ V_β`, where `N' = |R| + Σ_{v∈V_α} |S_v|`. Every `R`-tuple is
//! multicast to `V_β ∪ {h(a)}`; `S`-tuples of `V_α` nodes go to `h(a)`
//! (nodes in `V_β` keep their `S` local and join against the full `R` they
//! receive). Lemma 1: cost is `O(log N · log |V|)` from optimal w.h.p.

use tamp_simulator::{Protocol, Rel, Session, SimError, Value};
use tamp_topology::NodeId;

use crate::hashing::WeightedHash;
use crate::send_groups::SendGroups;

use super::tree::emit_intersection;

/// One-round randomized set intersection for star topologies
/// (Algorithm 1). Returns the emitted intersection, sorted.
#[derive(Clone, Debug)]
pub struct StarIntersect {
    seed: u64,
}

impl StarIntersect {
    /// Create with a hash seed (the protocol's only randomness).
    pub fn new(seed: u64) -> Self {
        StarIntersect { seed }
    }
}

impl Protocol for StarIntersect {
    type Output = Vec<Value>;

    fn name(&self) -> String {
        format!("star-intersect(seed={})", self.seed)
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        if tree.num_nodes() != tree.num_compute() + 1 || !tree.compute_nodes_are_leaves() {
            return Err(SimError::Protocol(
                "StarIntersect requires a star topology; use TreeIntersect for general trees"
                    .into(),
            ));
        }
        let stats = session.stats().clone();
        // Roles: `small` plays R (the smaller relation).
        let (small, big) = if stats.total_r <= stats.total_s {
            (Rel::R, Rel::S)
        } else {
            (Rel::S, Rel::R)
        };
        let small_total = stats.total_rel(small);
        let n_total = stats.total_n();
        if small_total == 0 {
            // Empty intersection; nothing to communicate.
            return Ok(Vec::new());
        }

        let computes: Vec<NodeId> = tree.compute_nodes().to_vec();
        let v_alpha: Vec<NodeId> = computes
            .iter()
            .copied()
            .filter(|&v| stats.n_v(v).min(n_total - stats.n_v(v)) < small_total)
            .collect();
        let v_beta: Vec<NodeId> = computes
            .iter()
            .copied()
            .filter(|&v| stats.n_v(v).min(n_total - stats.n_v(v)) >= small_total)
            .collect();

        // Hash weights: N_v on V_α, |R_v| (= small_v) on V_β.
        let weighted: Vec<(NodeId, u64)> = v_alpha
            .iter()
            .map(|&v| (v, stats.n_v(v)))
            .chain(v_beta.iter().map(|&v| (v, stats.rel(small)[v.index()])))
            .collect();
        let hash = WeightedHash::new(self.seed, &weighted)
            .expect("total weight ≥ |R| > 0 by construction");

        session.round(|round| {
            let mut groups = SendGroups::default();
            let mut dsts = v_beta.clone();
            for &v in &computes {
                // Small-relation tuples → V_β ∪ {h(a)} (grouped by hash
                // target so shared path segments are charged once).
                for &a in round.state(v).rel(small) {
                    groups.push(a, [hash.pick(a)]);
                }
                groups.drain(|dst, vals| {
                    dsts.truncate(v_beta.len());
                    if !v_beta.contains(&dst[0]) {
                        dsts.push(dst[0]);
                    }
                    round.send(v, &dsts, small, vals)
                })?;
                // Big-relation tuples of V_α nodes → h(a).
                if v_alpha.contains(&v) {
                    for &a in round.state(v).rel(big) {
                        groups.push(a, [hash.pick(a)]);
                    }
                    groups.drain(|dst, vals| round.send(v, dst, big, vals))?;
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
    fn computes_intersection_on_uniform_star() {
        let t = builders::star(4, 1.0);
        let mut p = Placement::empty(&t);
        // R = {0..20}, S = {10..40}, intersection {10..20}.
        for (i, &v) in t.compute_nodes().iter().enumerate() {
            p.set_r(v, ((i * 5) as u64..(i * 5 + 5) as u64).collect());
            p.set_s(v, ((10 + i * 8) as u64..(10 + i * 8 + 8) as u64).collect());
        }
        let run = run_protocol(&t, &p, &StarIntersect::new(7)).unwrap();
        assert_eq!(run.rounds, 1);
        verify::check_intersection(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
        let expected: Vec<u64> = verify::true_intersection(&p.all_r(), &p.all_s())
            .into_iter()
            .collect();
        assert_eq!(run.output, expected);
    }

    #[test]
    fn handles_heavy_beta_node() {
        // One node holds almost all of S, making it a β node: R must be
        // broadcast to it.
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), vec![1, 2, 3]);
        p.set_s(NodeId(1), (2..100).collect());
        p.set_s(NodeId(2), vec![1]);
        let run = run_protocol(&t, &p, &StarIntersect::new(3)).unwrap();
        verify::check_intersection(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
        assert_eq!(run.output, vec![1, 2, 3]);
    }

    #[test]
    fn swaps_roles_when_s_is_smaller() {
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), (0..50).collect());
        p.set_r(NodeId(1), (50..100).collect());
        p.set_s(NodeId(2), vec![7, 99, 200]);
        let run = run_protocol(&t, &p, &StarIntersect::new(11)).unwrap();
        verify::check_intersection(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
        assert_eq!(run.output, vec![7, 99]);
    }

    #[test]
    fn empty_relation_is_free() {
        let t = builders::star(2, 1.0);
        let mut p = Placement::empty(&t);
        p.set_s(NodeId(0), vec![1, 2, 3]);
        let run = run_protocol(&t, &p, &StarIntersect::new(1)).unwrap();
        assert!(run.output.is_empty());
        assert_eq!(run.cost.tuple_cost(), 0.0);
        assert_eq!(run.rounds, 0);
    }

    #[test]
    fn rejects_non_star() {
        let t = builders::rack_tree(&[(2, 1.0, 1.0), (2, 1.0, 1.0)], 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), vec![1]);
        p.set_s(NodeId(1), vec![1]);
        assert!(matches!(
            run_protocol(&t, &p, &StarIntersect::new(0)),
            Err(SimError::Protocol(_))
        ));
    }
}
