//! End-to-end correctness checkers for the three tasks.
//!
//! The model only requires each output to be *emitted by at least one
//! node*, so verification is global: it inspects the final per-node states
//! and checks that, collectively, the nodes can produce the full answer.

use std::collections::{BTreeSet, HashMap};

use tamp_topology::NodeId;

use crate::value::{NodeState, Value};

/// The intersection a single node can emit from what it holds:
/// `set(R_known) ∩ set(S_known)`.
fn local_intersection(state: &NodeState) -> BTreeSet<Value> {
    let r: BTreeSet<Value> = state.r.iter().copied().collect();
    state.s.iter().copied().filter(|v| r.contains(v)).collect()
}

/// Union of all nodes' locally emittable intersections.
pub fn emitted_intersection(states: &[NodeState]) -> BTreeSet<Value> {
    let mut out = BTreeSet::new();
    for st in states {
        out.extend(local_intersection(st));
    }
    out
}

/// Ground-truth `R ∩ S` as sets.
pub fn true_intersection(r: &[Value], s: &[Value]) -> BTreeSet<Value> {
    let rs: BTreeSet<Value> = r.iter().copied().collect();
    s.iter().copied().filter(|v| rs.contains(v)).collect()
}

/// Verify that the final states collectively emit exactly `R ∩ S`.
pub fn check_intersection(states: &[NodeState], r: &[Value], s: &[Value]) -> Result<(), String> {
    let got = emitted_intersection(states);
    let want = true_intersection(r, s);
    if got == want {
        Ok(())
    } else {
        let missing = want.difference(&got).count();
        let spurious = got.difference(&want).count();
        Err(format!(
            "intersection mismatch: {missing} missing, {spurious} spurious (want {}, got {})",
            want.len(),
            got.len()
        ))
    }
}

/// Verify that every pair `(r_i, s_j) ∈ R × S` is *covered*: some node
/// holds both `r_i` and `s_j` in its final state, so it can emit the pair.
///
/// Values may repeat in `r` or `s`; a node holding a value covers all of
/// its occurrences. Runs in `O(|R| · |V_C| · |S|/64)` using bitsets.
pub fn check_pair_coverage(states: &[NodeState], r: &[Value], s: &[Value]) -> Result<(), String> {
    if r.is_empty() || s.is_empty() {
        return Ok(());
    }
    let words = s.len().div_ceil(64);
    let mut s_positions: HashMap<Value, Vec<usize>> = HashMap::new();
    for (j, &v) in s.iter().enumerate() {
        s_positions.entry(v).or_default().push(j);
    }
    // Per node: bitset of S positions it knows.
    let mut node_sbits: Vec<Vec<u64>> = Vec::with_capacity(states.len());
    for st in states {
        let mut bits = vec![0u64; words];
        for v in &st.s {
            if let Some(ps) = s_positions.get(v) {
                for &j in ps {
                    bits[j / 64] |= 1u64 << (j % 64);
                }
            }
        }
        node_sbits.push(bits);
    }
    // Which nodes know each R value.
    let mut r_holders: HashMap<Value, Vec<usize>> = HashMap::new();
    for (v_idx, st) in states.iter().enumerate() {
        for v in &st.r {
            r_holders.entry(*v).or_default().push(v_idx);
        }
    }
    // Deduplicate holder lists (a node may hold a value several times).
    for holders in r_holders.values_mut() {
        holders.dedup();
    }
    let full_last = if s.len().is_multiple_of(64) {
        u64::MAX
    } else {
        (1u64 << (s.len() % 64)) - 1
    };
    let mut row = vec![0u64; words];
    for (i, &rv) in r.iter().enumerate() {
        row.fill(0);
        if let Some(holders) = r_holders.get(&rv) {
            for &h in holders {
                for (w, bits) in row.iter_mut().zip(&node_sbits[h]) {
                    *w |= bits;
                }
            }
        }
        let covered =
            row[..words - 1].iter().all(|&w| w == u64::MAX) && row[words - 1] == full_last;
        if !covered {
            let j = (0..s.len())
                .find(|&j| row[j / 64] & (1 << (j % 64)) == 0)
                .unwrap_or(0);
            return Err(format!(
                "pair ({}, {}) at grid ({i}, {j}) is not covered by any node",
                rv, s[j]
            ));
        }
    }
    Ok(())
}

/// Verify a sorted redistribution (Section 5): following `order` (a valid
/// left-to-right ordering of the compute nodes), each node's `R` fragment
/// must be locally sorted, fragments must be non-decreasing across
/// consecutive nodes, and the concatenation must be a permutation of
/// `original`.
pub fn check_sorted_partition(
    order: &[NodeId],
    states: &[NodeState],
    original: &[Value],
) -> Result<(), String> {
    let mut concat: Vec<Value> = Vec::with_capacity(original.len());
    let mut prev_max: Option<Value> = None;
    for &v in order {
        let frag = &states[v.index()].r;
        if frag.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("node {v} fragment is not locally sorted"));
        }
        if let (Some(pm), Some(&first)) = (prev_max, frag.first()) {
            if first < pm {
                return Err(format!(
                    "node {v} starts at {first}, below previous node max {pm}"
                ));
            }
        }
        if let Some(&last) = frag.last() {
            prev_max = Some(last);
        }
        concat.extend_from_slice(frag);
    }
    let mut want = original.to_vec();
    want.sort_unstable();
    if concat != want {
        return Err(format!(
            "sorted output is not a permutation of the input ({} vs {} elements)",
            concat.len(),
            want.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(r: Vec<Value>, s: Vec<Value>) -> NodeState {
        NodeState { r, s }
    }

    #[test]
    fn intersection_checks() {
        let states = vec![st(vec![1, 2], vec![2, 9]), st(vec![5], vec![5])];
        assert_eq!(emitted_intersection(&states), BTreeSet::from([2, 5]));
        assert!(check_intersection(&states, &[1, 2, 5], &[2, 5, 9]).is_ok());
        // Missing 5 coverage.
        let bad = vec![st(vec![1, 2], vec![2, 9]), st(vec![5], vec![])];
        assert!(check_intersection(&bad, &[1, 2, 5], &[2, 5, 9]).is_err());
    }

    #[test]
    fn pair_coverage_detects_gap() {
        let r = vec![10, 20];
        let s = vec![30, 40];
        let full = vec![st(vec![10, 20], vec![30, 40])];
        assert!(check_pair_coverage(&full, &r, &s).is_ok());
        let split = vec![st(vec![10], vec![30, 40]), st(vec![20], vec![30])];
        let err = check_pair_coverage(&split, &r, &s).unwrap_err();
        assert!(err.contains("(20, 40)"), "{err}");
    }

    #[test]
    fn pair_coverage_handles_duplicates() {
        let r = vec![1, 1];
        let s = vec![2, 2];
        let states = vec![st(vec![1], vec![2])];
        assert!(check_pair_coverage(&states, &r, &s).is_ok());
    }

    #[test]
    fn pair_coverage_empty_inputs() {
        assert!(check_pair_coverage(&[], &[], &[1]).is_ok());
    }

    #[test]
    fn sorted_partition_checks() {
        let order = vec![NodeId(0), NodeId(1)];
        let good = vec![st(vec![1, 3], vec![]), st(vec![3, 7], vec![])];
        assert!(check_sorted_partition(&order, &good, &[3, 1, 7, 3]).is_ok());

        let unsorted = vec![st(vec![3, 1], vec![]), st(vec![7], vec![])];
        assert!(check_sorted_partition(&order, &unsorted, &[3, 1, 7]).is_err());

        let out_of_order = vec![st(vec![5], vec![]), st(vec![2], vec![])];
        assert!(check_sorted_partition(&order, &out_of_order, &[5, 2]).is_err());

        let not_perm = vec![st(vec![1], vec![]), st(vec![2], vec![])];
        assert!(check_sorted_partition(&order, &not_perm, &[1, 2, 3]).is_err());
    }
}
