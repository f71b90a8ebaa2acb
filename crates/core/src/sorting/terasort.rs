//! The classic TeraSort baseline (O'Malley 2008), run topology-agnostically.
//!
//! Three rounds: (1) every node samples its elements with probability
//! `ρ = 4·(|V_C|/N)·ln(|V_C|·N)` and ships samples to a coordinator;
//! (2) the coordinator sorts the samples and broadcasts `|V_C|−1` equally
//! spaced splitters; (3) every node re-ranges its data by splitter bucket
//! and sorts locally. Splitters are *uniform* — the protocol ignores both
//! the topology and the initial distribution, which is exactly what
//! [`super::WeightedTeraSort`] fixes.

use tamp_simulator::{Protocol, Rel, Session, SimError, Value};
use tamp_topology::NodeId;

use crate::hashing::mix64;
use crate::send_groups::SendGroups;

/// The classic 3-round sampling sort. Output: the valid compute-node
/// ordering used (first node = coordinator).
#[derive(Clone, Debug)]
pub struct TeraSort {
    seed: u64,
}

impl TeraSort {
    /// Create with a sampling seed.
    pub fn new(seed: u64) -> Self {
        TeraSort { seed }
    }
}

/// Deterministic Bernoulli(ρ) coin on a value.
pub fn coin(seed: u64, value: Value, rho: f64) -> bool {
    (mix64(value ^ seed) as f64) / (u64::MAX as f64) < rho
}

/// Sampling probability `ρ = 4·(|V_C|/N)·ln(|V_C|·N)`, clamped to `[0, 1]`.
pub fn sample_rate(num_compute: usize, n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let k = num_compute as f64;
    (4.0 * k / n as f64 * ((k * n as f64).ln().max(1.0))).min(1.0)
}

/// A valid ordering of the compute nodes: left-to-right traversal rooted
/// at the first router (or node 0 if the tree has no routers).
pub fn valid_order(tree: &tamp_topology::Tree) -> Vec<NodeId> {
    let root = tree
        .nodes()
        .find(|&v| !tree.is_compute(v))
        .unwrap_or(NodeId(0));
    tree.left_to_right_compute_order(root)
}

/// The bucket of `x`: the number of splitters `≤ x`, capped at the last
/// bucket (`b_i ≤ x < b_{i+1}`).
#[inline]
fn bucket_of(x: Value, splitters: &[Value], buckets: usize) -> usize {
    splitters.partition_point(|&b| b <= x).min(buckets - 1)
}

/// Partition `data` into buckets by splitters (`b_i ≤ x < b_{i+1}`).
pub fn bucketize(data: &[Value], splitters: &[Value], buckets: usize) -> Vec<Vec<Value>> {
    let mut out = vec![Vec::new(); buckets];
    for &x in data {
        out[bucket_of(x, splitters, buckets)].push(x);
    }
    out
}

/// Redistribute by splitters and rebuild local state: bucket `i` goes to
/// `order[i]`; every node keeps its own bucket and replaces its fragment
/// with own-bucket + received (each in fragment order).
pub(crate) fn redistribute_and_sort(
    session: &mut Session<'_>,
    order: &[NodeId],
    splitters: &[Value],
) -> Result<(), SimError> {
    let num_nodes = session.tree().num_nodes();
    let mut own_bucket: Vec<Vec<Value>> = vec![Vec::new(); num_nodes];
    let pre_len: Vec<usize> = session.states().iter().map(|st| st.r.len()).collect();
    session.round(|round| {
        // Each element is tagged with its bucket's owner once; the
        // grouper hands back one run per non-empty bucket.
        let mut buckets = SendGroups::default();
        for &v in order {
            for &x in &round.state(v).r {
                buckets.push(x, [order[bucket_of(x, splitters, order.len())]]);
            }
            buckets.drain(|owner, bucket| {
                if owner[0] == v {
                    own_bucket[v.index()] = bucket.to_vec();
                    Ok(())
                } else {
                    round.send(v, owner, Rel::R, bucket)
                }
            })?;
        }
        Ok(())
    })?;
    // Rebuild each node: own bucket + whatever arrived this round.
    for &v in order {
        let state = session.state_mut(v);
        let received = state.r.split_off(pre_len[v.index()]);
        state.r = std::mem::take(&mut own_bucket[v.index()]);
        state.r.extend(received);
        state.s.clear();
    }
    Ok(())
}

impl Protocol for TeraSort {
    type Output = Vec<NodeId>;

    fn name(&self) -> String {
        format!("terasort(seed={})", self.seed)
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        let order = valid_order(tree);
        let stats = session.stats().clone();
        let n = stats.total_r;
        if n == 0 {
            return Ok(order);
        }
        let coordinator = order[0];
        let rho = sample_rate(order.len(), n);
        // Round 1: sample → coordinator (control channel S).
        session.round(|round| {
            for &v in &order {
                let samples: Vec<Value> = round
                    .state(v)
                    .r
                    .iter()
                    .copied()
                    .filter(|&x| coin(self.seed, x, rho))
                    .collect();
                round.send(v, &[coordinator], Rel::S, &samples)?;
            }
            Ok(())
        })?;
        // Round 2: coordinator sorts samples, broadcasts uniform splitters.
        let mut samples = std::mem::take(&mut session.state_mut(coordinator).s);
        samples.sort_unstable();
        let k = order.len();
        let step = samples.len().div_ceil(k).max(1);
        let splitters: Vec<Value> = (1..k)
            .map(|i| samples.get(i * step - 1).copied().unwrap_or(Value::MAX))
            .collect();
        session.round(|round| round.send(coordinator, &order, Rel::S, &splitters))?;
        // Every node now "knows" the splitters (they sit in its S inbox);
        // use them directly. Round 3: redistribute and sort locally.
        redistribute_and_sort(session, &order, &splitters)?;
        for &v in &order {
            session.state_mut(v).r.sort_unstable();
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn bucketize_respects_boundaries() {
        let buckets = bucketize(&[1, 5, 5, 9, 20], &[5, 10], 3);
        assert_eq!(buckets[0], vec![1]);
        assert_eq!(buckets[1], vec![5, 5, 9]);
        assert_eq!(buckets[2], vec![20]);
    }

    /// The one-pass re-ranging against the [`bucketize`] oracle, on
    /// duplicate-heavy data and splitters that repeat (empty buckets):
    /// `order[j]` ends with its own bucket `j`, then every other node's
    /// bucket `j` in `order` order, each in fragment order.
    #[test]
    fn redistribution_matches_bucketize() {
        let t = builders::random_tree(7, 3, 0.5, 4.0, 9);
        let order = valid_order(&t);
        let k = order.len();
        for seed in 0..40u64 {
            let mut p = Placement::empty(&t);
            for (i, &v) in order.iter().enumerate() {
                let len = mix64(seed ^ i as u64) % 60;
                p.set_r(
                    v,
                    (0..len)
                        .map(|x| mix64(seed ^ (x << 8) ^ i as u64) % 24)
                        .collect(),
                );
            }
            let mut splitters: Vec<Value> = (1..k as u64).map(|i| mix64(seed + i) % 24).collect();
            splitters.sort_unstable();
            let mut want: Vec<Vec<Value>> = order
                .iter()
                .enumerate()
                .map(|(j, &v)| bucketize(&p.node(v).r, &splitters, k).swap_remove(j))
                .collect();
            for (i, &v) in order.iter().enumerate() {
                for (j, bucket) in bucketize(&p.node(v).r, &splitters, k)
                    .into_iter()
                    .enumerate()
                {
                    if j != i {
                        want[j].extend(bucket);
                    }
                }
            }
            let mut session = Session::new(&t, &p).unwrap();
            redistribute_and_sort(&mut session, &order, &splitters).unwrap();
            for (j, &v) in order.iter().enumerate() {
                assert_eq!(session.state(v).r, want[j], "seed {seed}, node {j}");
            }
        }
    }

    #[test]
    fn sample_rate_clamps() {
        assert_eq!(sample_rate(4, 0), 0.0);
        assert_eq!(sample_rate(100, 10), 1.0);
        let r = sample_rate(4, 1_000_000);
        assert!(r > 0.0 && r < 0.001);
    }

    #[test]
    fn terasort_sorts_on_star() {
        let t = builders::star(4, 1.0);
        let p = scattered(&t, 400, 1);
        let run = run_protocol(&t, &p, &TeraSort::new(7)).unwrap();
        assert_eq!(run.rounds, 3);
        verify::check_sorted_partition(&run.output, &run.final_state, &p.all_r()).unwrap();
    }

    #[test]
    fn terasort_sorts_on_trees() {
        for seed in 0..6u64 {
            let t = builders::random_tree(6, 4, 0.5, 4.0, seed);
            let p = scattered(&t, 300, seed);
            let run = run_protocol(&t, &p, &TeraSort::new(seed)).unwrap();
            verify::check_sorted_partition(&run.output, &run.final_state, &p.all_r())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn terasort_handles_duplicates() {
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), vec![5; 50]);
        p.set_r(NodeId(1), vec![3; 50]);
        p.set_r(NodeId(2), (0..20).collect());
        let run = run_protocol(&t, &p, &TeraSort::new(2)).unwrap();
        verify::check_sorted_partition(&run.output, &run.final_state, &p.all_r()).unwrap();
    }

    #[test]
    fn terasort_empty_input() {
        let t = builders::star(2, 1.0);
        let p = Placement::empty(&t);
        let run = run_protocol(&t, &p, &TeraSort::new(0)).unwrap();
        assert_eq!(run.cost.tuple_cost(), 0.0);
    }
}
