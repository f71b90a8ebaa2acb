//! Topology-aware aggregation on symmetric trees.
//!
//! The paper's related-work section singles out aggregation as the one task
//! the topology-aware model had already been applied to (Liu et al. \[37\],
//! star topologies only; TAG \[38\] and LOOM \[16, 17\] as systems that are
//! "cognizant of the network topology, but agnostic to the distribution of
//! the input data" and "lack any theoretical guarantees"). This module
//! extends the repository beyond the paper's three tasks with
//! distribution-aware aggregation on **arbitrary symmetric trees**, in the
//! same cost model:
//!
//! - [`NaiveAggregate`] — every node ships raw tuples to the target
//!   (the "agnostic" strawman);
//! - [`FlatPartialAggregate`] — one round: nodes pre-aggregate locally and
//!   send one partial per *local* group to the target (combiner-less
//!   MapReduce-style pre-aggregation);
//! - [`CombiningTreeAggregate`] — multi-round hierarchical convergecast
//!   that merges partials at designated combiner nodes per subtree, so the
//!   traffic crossing an edge is one partial per group *present in the
//!   subtree below it* — the in-network-combining idea of TAG/LOOM, made
//!   distribution-aware;
//! - [`HashGroupBy`] — all-to-all grouped aggregation whose output is
//!   distributed across nodes proportionally to the initial data sizes
//!   (the same proportional-hashing idea as Algorithm 2);
//! - [`aggregation_lower_bound`] — the per-edge lower bound
//!   `max_e (#groups on the far side of e) / w_e` every all-to-one
//!   algorithm must pay, in the style of Theorems 1/3/6.
//!
//! # Data encoding
//!
//! The simulator's element type is `u64`. An aggregation input tuple is a
//! `(group, measure)` pair packed by [`encode`] into one value: the high
//! 24 bits carry the group key, the low 40 bits the measure. Partials
//! reuse the same encoding, so a partial is charged like any other
//! tuple. `Sum` saturates at the largest 40-bit measure rather than
//! corrupting the group bits.

mod groupby;
pub mod lower_bound;
pub mod protocols;

pub use groupby::HashGroupBy;
pub use lower_bound::{aggregation_lower_bound, groupby_lower_bound};
pub use protocols::{
    combining_schedule, CombiningTreeAggregate, FlatPartialAggregate, NaiveAggregate,
};

use std::collections::BTreeMap;

use tamp_simulator::Value;

/// Number of high bits holding the group key.
const GROUP_BITS: u32 = 24;
/// Number of low bits holding the measure.
const MEASURE_BITS: u32 = 40;
/// Largest encodable group key.
const GROUP_MAX: u64 = (1 << GROUP_BITS) - 1;
/// Largest encodable measure; `Sum` saturates here.
const MEASURE_MAX: u64 = (1 << MEASURE_BITS) - 1;

/// Pack a `(group, measure)` pair into a simulator value.
///
/// # Panics
///
/// Panics if `group > GROUP_MAX` or `measure > MEASURE_MAX`.
#[inline]
pub fn encode(group: u64, measure: u64) -> Value {
    assert!(
        group <= GROUP_MAX,
        "group {group} exceeds {GROUP_BITS} bits"
    );
    assert!(
        measure <= MEASURE_MAX,
        "measure {measure} exceeds {MEASURE_BITS} bits"
    );
    (group << MEASURE_BITS) | measure
}

/// Unpack a simulator value into its `(group, measure)` pair.
#[inline]
pub(crate) fn decode(value: Value) -> (u64, u64) {
    (value >> MEASURE_BITS, value & MEASURE_MAX)
}

/// A distributive aggregate function: partials combine associatively and
/// commutatively, so they can merge in any order at any node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Aggregator {
    /// Number of input tuples per group (measures are ignored).
    Count,
    /// Sum of measures per group, saturating at `2^40 − 1`.
    Sum,
    /// Minimum measure per group.
    Min,
    /// Maximum measure per group.
    Max,
}

impl Aggregator {
    /// The partial a single input tuple contributes.
    #[inline]
    pub fn lift(self, measure: u64) -> u64 {
        match self {
            Aggregator::Count => 1,
            _ => measure,
        }
    }

    /// Merge two partials.
    #[inline]
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            Aggregator::Count | Aggregator::Sum => (a + b).min(MEASURE_MAX),
            Aggregator::Min => a.min(b),
            Aggregator::Max => a.max(b),
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Aggregator::Count => "count",
            Aggregator::Sum => "sum",
            Aggregator::Min => "min",
            Aggregator::Max => "max",
        }
    }
}

/// Fold a slice of encoded tuples into per-group partials.
pub(crate) fn partials_of(values: &[Value], agg: Aggregator) -> BTreeMap<u64, u64> {
    let mut out: BTreeMap<u64, u64> = BTreeMap::new();
    for &v in values {
        let (g, m) = decode(v);
        let lifted = agg.lift(m);
        out.entry(g)
            .and_modify(|p| *p = agg.combine(*p, lifted))
            .or_insert(lifted);
    }
    out
}

/// Merge encoded *partials* (not raw tuples) into per-group partials.
pub(crate) fn merge_partials(values: &[Value], agg: Aggregator) -> BTreeMap<u64, u64> {
    let mut out: BTreeMap<u64, u64> = BTreeMap::new();
    for &v in values {
        let (g, m) = decode(v);
        out.entry(g)
            .and_modify(|p| *p = agg.combine(*p, m))
            .or_insert(m);
    }
    out
}

/// Encode a partial map back into simulator values, in group order.
pub(crate) fn encode_partials(partials: &BTreeMap<u64, u64>) -> Vec<Value> {
    partials.iter().map(|(&g, &m)| encode(g, m)).collect()
}

/// Ground-truth aggregate of the full input, for verification.
pub fn reference_aggregate(all_values: &[Value], agg: Aggregator) -> BTreeMap<u64, u64> {
    partials_of(all_values, agg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for (g, m) in [(0, 0), (1, 7), (GROUP_MAX, MEASURE_MAX), (12345, 67890)] {
            assert_eq!(decode(encode(g, m)), (g, m));
        }
    }

    #[test]
    #[should_panic(expected = "group")]
    fn encode_rejects_oversized_group() {
        encode(GROUP_MAX + 1, 0);
    }

    #[test]
    #[should_panic(expected = "measure")]
    fn encode_rejects_oversized_measure() {
        encode(0, MEASURE_MAX + 1);
    }

    #[test]
    fn count_ignores_measures() {
        let vals = vec![encode(3, 100), encode(3, 999), encode(5, 1)];
        let p = partials_of(&vals, Aggregator::Count);
        assert_eq!(p[&3], 2);
        assert_eq!(p[&5], 1);
    }

    #[test]
    fn sum_saturates() {
        let a = Aggregator::Sum.combine(MEASURE_MAX - 1, 10);
        assert_eq!(a, MEASURE_MAX);
    }

    #[test]
    fn min_max_combine() {
        assert_eq!(Aggregator::Min.combine(4, 9), 4);
        assert_eq!(Aggregator::Max.combine(4, 9), 9);
    }

    #[test]
    fn partials_then_merge_equals_reference() {
        let left = vec![encode(1, 5), encode(2, 3), encode(1, 2)];
        let right = vec![encode(1, 1), encode(3, 8)];
        for agg in [
            Aggregator::Count,
            Aggregator::Sum,
            Aggregator::Min,
            Aggregator::Max,
        ] {
            let mut all = left.clone();
            all.extend_from_slice(&right);
            let want = reference_aggregate(&all, agg);

            let pl = encode_partials(&partials_of(&left, agg));
            let pr = encode_partials(&partials_of(&right, agg));
            let mut both = pl;
            both.extend(pr);
            let got = merge_partials(&both, agg);
            assert_eq!(got, want, "agg {agg:?}");
        }
    }
}
