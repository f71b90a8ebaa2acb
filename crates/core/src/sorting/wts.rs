//! Weighted TeraSort (§5.2): the 4-round distribution-aware sorting
//! protocol.
//!
//! It generalizes TeraSort in three ways: (i) it runs on arbitrary
//! symmetric trees, (ii) only *heavy* nodes (`N_v ≥ N / (2|V_C|)`)
//! participate in sampling and splitting, and (iii) splitters are
//! allocated proportionally to post-round-1 node sizes
//! (`c_j = ⌈(|V_C|/N)·M_j⌉` sample intervals to heavy node `j`) instead of
//! uniformly.
//!
//! Rounds: (1) light nodes push their data to heavy nodes via the
//! drift-free proportional split of Algorithm 6; (2) heavy nodes sample
//! with rate `ρ` and ship samples to the first heavy node `v_1`;
//! (3) `v_1` sorts samples and broadcasts proportional splitters to the
//! heavy nodes; (4) heavy nodes re-range. Theorem 7: with
//! `N ≥ 4|V_C|²·ln(|V_C|·N)`, the cost is `O(1)` from the Theorem 6 bound
//! with probability `1 − 1/N`.
//!
//! (The paper's "heavy" is `N_v ≥ N/(2|V_C|)`: the proof of Theorem 7
//! uses that light nodes together hold `< N/2`; the `N_v ≥ |V_C|`
//! phrasing in §5.2 is a typo.)

use tamp_simulator::{Protocol, Rel, Session, SimError, Value};
use tamp_topology::NodeId;

use super::proportional::proportional_split_iter;
use super::terasort::{coin, redistribute_and_sort, sample_rate, valid_order};

/// The 4-round weighted TeraSort protocol. Output: the valid compute-node
/// ordering (sortedness holds along it; light nodes end up empty).
#[derive(Clone, Debug)]
pub struct WeightedTeraSort {
    seed: u64,
}

impl WeightedTeraSort {
    /// Create with a sampling seed.
    pub fn new(seed: u64) -> Self {
        WeightedTeraSort { seed }
    }
}

impl Protocol for WeightedTeraSort {
    type Output = Vec<NodeId>;

    fn name(&self) -> String {
        format!("weighted-terasort(seed={})", self.seed)
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        tree.require_symmetric()
            .map_err(|e| SimError::Protocol(e.to_string()))?;
        let order = valid_order(tree);
        let stats = session.stats().clone();
        let n = stats.total_r;
        if n == 0 {
            return Ok(order);
        }
        let k_all = order.len() as u64;
        // Heavy ⇔ 2·N_v·|V_C| ≥ N (exact integer arithmetic).
        let is_heavy = |v: &NodeId| 2 * stats.n_v(*v) * k_all >= n;
        let (heavy, light): (Vec<NodeId>, Vec<NodeId>) = order.iter().partition(|v| is_heavy(v));
        debug_assert!(!heavy.is_empty(), "max N_v ≥ N/|V_C| ≥ N/(2|V_C|)");
        let heavy_sizes: Vec<u64> = heavy.iter().map(|&v| stats.n_v(v)).collect();

        // Round 1: light → heavy, proportional consecutive chunks.
        session.round(|round| {
            for &u in &light {
                let local = &round.state(u).r;
                let counts = proportional_split_iter(&heavy_sizes, local.len() as u64);
                let mut start = 0usize;
                for (&v, c) in heavy.iter().zip(counts) {
                    // The split is consumed lazily: a light node's few
                    // elements are placed long before the last heavy node.
                    if start == local.len() {
                        break;
                    }
                    let end = (start + c as usize).min(local.len());
                    if end > start {
                        round.send(u, &[v], Rel::R, &local[start..end])?;
                    }
                    start = end;
                }
            }
            Ok(())
        })?;
        for &u in &light {
            session.state_mut(u).r.clear();
        }

        // Round 2: heavy nodes sample → v_1.
        let v1 = heavy[0];
        let rho = sample_rate(order.len(), n);
        session.round(|round| {
            for &v in &heavy {
                let samples: Vec<Value> = round
                    .state(v)
                    .r
                    .iter()
                    .copied()
                    .filter(|&x| coin(self.seed, x, rho))
                    .collect();
                round.send(v, &[v1], Rel::S, &samples)?;
            }
            Ok(())
        })?;

        // Round 3: v_1 picks proportional splitters, broadcasts to heavy.
        let mut samples = std::mem::take(&mut session.state_mut(v1).s);
        samples.sort_unstable();
        let s_len = samples.len();
        let step = s_len.div_ceil(order.len()).max(1);
        // c_j = ⌈(|V_C|/N)·M_j⌉ sample intervals per heavy node, where M_j
        // is the node's size after round 1.
        let m: Vec<u64> = heavy
            .iter()
            .map(|&v| session.state(v).r.len() as u64)
            .collect();
        let mut splitters = Vec::with_capacity(heavy.len().saturating_sub(1));
        let mut c_acc = 0u64;
        for &mj in m.iter().take(heavy.len() - 1) {
            let cj = (mj * k_all).div_ceil(n);
            c_acc += cj;
            let idx = (c_acc as usize).saturating_mul(step);
            splitters.push(if idx == 0 {
                Value::MIN
            } else {
                samples.get(idx - 1).copied().unwrap_or(Value::MAX)
            });
        }
        session.round(|round| round.send(v1, &heavy, Rel::S, &splitters))?;

        // Round 4: heavy nodes re-range by the splitters.
        redistribute_and_sort(session, &heavy, &splitters)?;
        for &v in &heavy {
            session.state_mut(v).r.sort_unstable();
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::mix64;
    use crate::ratio::ratio;
    use crate::sorting::{adversarial_placement, sorting_lower_bound};
    use tamp_simulator::{run_protocol, verify, Placement};
    use tamp_topology::builders;

    fn scattered(tree: &tamp_topology::Tree, n: u64, seed: u64) -> Placement {
        let mut p = Placement::empty(tree);
        let vc = tree.compute_nodes();
        for x in 0..n {
            let v = vc[(mix64(x ^ seed) % vc.len() as u64) as usize];
            p.push(v, Rel::R, mix64(x.wrapping_mul(31) ^ seed));
        }
        p
    }

    #[test]
    fn wts_sorts_on_star() {
        let t = builders::star(4, 1.0);
        let p = scattered(&t, 500, 1);
        let run = run_protocol(&t, &p, &WeightedTeraSort::new(7)).unwrap();
        assert_eq!(run.rounds, 4);
        verify::check_sorted_partition(&run.output, &run.final_state, &p.all_r()).unwrap();
    }

    #[test]
    fn wts_sorts_on_trees() {
        for seed in 0..8u64 {
            let t = builders::random_tree(6, 4, 0.5, 4.0, seed);
            let p = scattered(&t, 400, seed);
            let run = run_protocol(&t, &p, &WeightedTeraSort::new(seed)).unwrap();
            assert_eq!(run.rounds, 4);
            verify::check_sorted_partition(&run.output, &run.final_state, &p.all_r())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn wts_with_light_nodes() {
        // One heavy node, several nearly-empty light nodes.
        let t = builders::star(5, 1.0);
        let mut p = Placement::empty(&t);
        let vc = t.compute_nodes();
        p.set_r(vc[0], (0..300).map(mix64).collect());
        p.set_r(vc[1], vec![9, 4]);
        p.set_r(vc[3], vec![7]);
        let run = run_protocol(&t, &p, &WeightedTeraSort::new(5)).unwrap();
        verify::check_sorted_partition(&run.output, &run.final_state, &p.all_r()).unwrap();
        // Light nodes end empty.
        assert!(run.final_state[vc[1].index()].r.is_empty());
        assert!(run.final_state[vc[3].index()].r.is_empty());
    }

    #[test]
    fn wts_on_adversarial_placement_meets_bound() {
        // The Theorem 6 worst case: interleaved odd/even placement.
        let t = builders::rack_tree(&[(3, 1.0, 2.0), (3, 1.0, 2.0)], 1.0);
        let sizes = vec![100u64; 6];
        let root = t.nodes().find(|&v| !t.is_compute(v)).unwrap();
        let p = adversarial_placement(&t, root, &sizes);
        let run = run_protocol(&t, &p, &WeightedTeraSort::new(3)).unwrap();
        verify::check_sorted_partition(&run.output, &run.final_state, &p.all_r()).unwrap();
        let lb = sorting_lower_bound(&t, &p.stats());
        let rat = ratio(run.cost.tuple_cost(), lb.value());
        assert!(rat.is_finite() && rat <= 16.0, "ratio {rat}");
    }

    #[test]
    fn wts_handles_duplicates_and_single_heavy() {
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), vec![42; 200]);
        p.set_r(NodeId(1), vec![41]);
        let run = run_protocol(&t, &p, &WeightedTeraSort::new(1)).unwrap();
        verify::check_sorted_partition(&run.output, &run.final_state, &p.all_r()).unwrap();
    }

    #[test]
    fn wts_empty_input() {
        let t = builders::star(2, 1.0);
        let p = Placement::empty(&t);
        let run = run_protocol(&t, &p, &WeightedTeraSort::new(0)).unwrap();
        assert_eq!(run.cost.tuple_cost(), 0.0);
        assert_eq!(run.rounds, 0);
    }
}
