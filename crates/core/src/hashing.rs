//! Deterministic "random hash functions".
//!
//! The paper's randomized protocols draw a random hash function `h` mapping
//! domain values to nodes with *non-uniform*, data-dependent probabilities
//! (e.g. `Pr[h(a) = v] = N_v / N'` in Algorithm 1). We realize `h` as a
//! seeded mix of the value followed by an inverse-CDF lookup over integer
//! weights: the same `(seed, value)` always lands on the same node, and
//! over the domain the distribution follows the weights.

use tamp_simulator::Value;
use tamp_topology::NodeId;

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A weighted random hash function `h : domain → nodes`.
///
/// `Pr[h(a) = v] = weight(v) / Σ weight`, deterministically per `(seed, a)`.
#[derive(Clone, Debug)]
pub struct WeightedHash {
    seed: u64,
    nodes: Vec<NodeId>,
    /// Cumulative weights; `cum[i]` = total weight of `nodes[0..=i]`.
    cum: Vec<u64>,
    total: u64,
}

impl WeightedHash {
    /// Build from `(node, weight)` pairs; zero-weight nodes are never
    /// chosen. Returns `None` when the total weight is zero.
    pub fn new(seed: u64, weighted: &[(NodeId, u64)]) -> Option<Self> {
        let mut nodes = Vec::new();
        let mut cum = Vec::new();
        let mut total = 0u64;
        for &(v, w) in weighted {
            if w > 0 {
                total += w;
                nodes.push(v);
                cum.push(total);
            }
        }
        if total == 0 {
            return None;
        }
        Some(WeightedHash {
            seed,
            nodes,
            cum,
            total,
        })
    }

    /// Map a value to its node.
    pub fn pick(&self, value: Value) -> NodeId {
        let h = mix64(value ^ self.seed) % self.total;
        // First index with cum > h.
        let i = self.cum.partition_point(|&c| c <= h);
        self.nodes[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_weights() {
        let nodes = [(NodeId(0), 1u64), (NodeId(1), 0), (NodeId(2), 3)];
        let h = WeightedHash::new(7, &nodes).unwrap();
        let mut counts = [0usize; 3];
        let trials = 40_000u64;
        for a in 0..trials {
            counts[h.pick(a).index()] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight node must never be chosen");
        let frac0 = counts[0] as f64 / trials as f64;
        let frac2 = counts[2] as f64 / trials as f64;
        assert!((frac0 - 0.25).abs() < 0.02, "got {frac0}");
        assert!((frac2 - 0.75).abs() < 0.02, "got {frac2}");
    }

    #[test]
    fn deterministic_per_seed() {
        let pairs = [(NodeId(0), 5u64), (NodeId(1), 5)];
        let h1 = WeightedHash::new(42, &pairs).unwrap();
        let h2 = WeightedHash::new(42, &pairs).unwrap();
        let h3 = WeightedHash::new(43, &pairs).unwrap();
        let same = (0..1000).all(|a| h1.pick(a) == h2.pick(a));
        assert!(same);
        let differ = (0..1000).any(|a| h1.pick(a) != h3.pick(a));
        assert!(differ);
    }

    #[test]
    fn zero_total_weight_is_none() {
        assert!(WeightedHash::new(1, &[(NodeId(0), 0)]).is_none());
        assert!(WeightedHash::new(1, &[]).is_none());
    }
}
