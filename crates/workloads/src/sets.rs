//! Input data generators.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tamp_simulator::Value;

/// The generated input: the two relations (for sorting, `s` stays empty).
///
/// Each relation is a frozen `Arc<[Value]>` column — the same shared
/// buffer layout the query engine's record batches use — so cloning a
/// workload (or handing a relation to a batch) bumps a refcount instead
/// of copying the data.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// Elements of `R`.
    pub r: Arc<[Value]>,
    /// Elements of `S`.
    pub s: Arc<[Value]>,
}

impl Workload {
    /// `N = |R| + |S|`.
    pub fn total(&self) -> usize {
        self.r.len() + self.s.len()
    }
}

/// Specification of a two-set workload with a planted intersection.
#[derive(Clone, Copy, Debug)]
pub struct SetSpec {
    /// `|R|`.
    pub r_size: usize,
    /// `|S|`.
    pub s_size: usize,
    /// `|R ∩ S|` (≤ min(|R|, |S|)).
    pub intersection: usize,
}

impl SetSpec {
    /// Disjoint sets of the given sizes.
    pub fn new(r_size: usize, s_size: usize) -> Self {
        SetSpec {
            r_size,
            s_size,
            intersection: 0,
        }
    }

    /// Plant an intersection of exactly `k` elements.
    pub fn with_intersection(mut self, k: usize) -> Self {
        assert!(k <= self.r_size.min(self.s_size));
        self.intersection = k;
        self
    }

    /// Generate distinct-valued sets with exactly the planted overlap,
    /// shuffled deterministically by `seed`.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7_5E75);
        // Distinct values: carve three disjoint ranges out of a mixed
        // domain, using a random base to decorrelate runs.
        let base: Value = rng.random::<u32>() as Value * 1_000_003;
        let shared: Vec<Value> = (0..self.intersection as Value).map(|i| base + i).collect();
        let r_only: Vec<Value> = (0..(self.r_size - self.intersection) as Value)
            .map(|i| base + 0x4000_0000 + i)
            .collect();
        let s_only: Vec<Value> = (0..(self.s_size - self.intersection) as Value)
            .map(|i| base + 0x8000_0000 + i)
            .collect();
        let mut r: Vec<Value> = shared.iter().copied().chain(r_only).collect();
        let mut s: Vec<Value> = shared.into_iter().chain(s_only).collect();
        r.shuffle(&mut rng);
        s.shuffle(&mut rng);
        Workload {
            r: r.into(),
            s: s.into(),
        }
    }
}

/// Specification of a sorting workload.
#[derive(Clone, Copy, Debug)]
pub struct SortSpec {
    /// Number of elements.
    pub n: usize,
    /// Fraction of duplicated values in `[0, 1)`.
    duplicate_fraction: f64,
}

impl SortSpec {
    /// `n` elements, all distinct.
    pub fn new(n: usize) -> Self {
        SortSpec {
            n,
            duplicate_fraction: 0.0,
        }
    }

    /// Make roughly `frac` of the elements duplicates of earlier ones.
    pub fn with_duplicates(mut self, frac: f64) -> Self {
        assert!((0.0..1.0).contains(&frac));
        self.duplicate_fraction = frac;
        self
    }

    /// Generate the multiset (in `Workload::r`; `s` stays empty).
    pub fn generate(&self, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50F7_50F7);
        let mut r: Vec<Value> = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            let dup = !r.is_empty() && rng.random::<f64>() < self.duplicate_fraction;
            if dup {
                let i = rng.random_range(0..r.len());
                r.push(r[i]);
            } else {
                r.push(rng.random::<Value>() >> 1);
            }
        }
        Workload {
            r: r.into(),
            s: Arc::from(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn planted_intersection_is_exact() {
        let w = SetSpec::new(100, 300).with_intersection(37).generate(5);
        assert_eq!(w.r.len(), 100);
        assert_eq!(w.s.len(), 300);
        let rs: BTreeSet<Value> = w.r.iter().copied().collect();
        let ss: BTreeSet<Value> = w.s.iter().copied().collect();
        assert_eq!(rs.len(), 100, "R values must be distinct");
        assert_eq!(ss.len(), 300, "S values must be distinct");
        assert_eq!(rs.intersection(&ss).count(), 37);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SetSpec::new(50, 50).with_intersection(10).generate(3);
        let b = SetSpec::new(50, 50).with_intersection(10).generate(3);
        assert_eq!(a.r, b.r);
        assert_eq!(a.s, b.s);
        let c = SetSpec::new(50, 50).with_intersection(10).generate(4);
        assert_ne!(a.r, c.r);
    }

    #[test]
    fn sort_spec_duplicates() {
        let w = SortSpec::new(1000).with_duplicates(0.5).generate(1);
        assert_eq!(w.r.len(), 1000);
        let distinct: BTreeSet<Value> = w.r.iter().copied().collect();
        assert!(distinct.len() < 800, "expected many duplicates");
        let w2 = SortSpec::new(1000).generate(1);
        let distinct2: BTreeSet<Value> = w2.r.iter().copied().collect();
        assert_eq!(distinct2.len(), 1000);
    }
}
