//! Property tests for the core planning primitives added by the
//! extensions: interval segmentation, the convergecast merge schedule
//! and bandwidth perturbation.

use proptest::prelude::*;
use tamp_core::aggregate::combining_schedule;
use tamp_core::cartesian::grid::interval_segments;
use tamp_core::hashing::mix64;
use tamp_core::robustness::perturb_bandwidths;
use tamp_topology::{builders, NodeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every local index covered by some recipient appears in exactly one
    /// segment, and each segment's destination set is exactly the
    /// recipients covering it.
    #[test]
    fn interval_segments_partition_covered_indices(
        local_len in 0usize..64,
        local_start in 0u64..100,
        raw in proptest::collection::vec((0u64..160, 0u64..60, 0u32..6), 0..8),
    ) {
        let recipients: Vec<(NodeId, std::ops::Range<u64>)> = raw
            .iter()
            .map(|&(a, len, node)| (NodeId(node), a..a + len))
            .collect();
        let segments = interval_segments(local_len, local_start, &recipients);

        // Segments are disjoint, sorted, in-bounds.
        let mut prev_end = 0usize;
        for (dsts, range) in &segments {
            prop_assert!(range.start >= prev_end);
            prop_assert!(range.end <= local_len);
            prop_assert!(range.start < range.end);
            prop_assert!(!dsts.is_empty());
            prev_end = range.end;
        }

        // Per-index cross-check against the naive definition.
        for i in 0..local_len {
            let gi = local_start + i as u64;
            let mut want: Vec<NodeId> = recipients
                .iter()
                .filter(|(_, r)| r.contains(&gi))
                .map(|&(v, _)| v)
                .collect();
            want.sort_unstable();
            want.dedup();
            let got: Vec<NodeId> = segments
                .iter()
                .find(|(_, r)| r.contains(&i))
                .map(|(d, _)| {
                    let mut d = d.clone();
                    d.sort_unstable();
                    d.dedup();
                    d
                })
                .unwrap_or_default();
            prop_assert_eq!(got, want, "index {}", i);
        }
    }

    /// The convergecast schedule funnels every compute node's partial to
    /// the target: following the moves level by level, all mass ends at
    /// the target, and no node sends twice.
    #[test]
    fn combining_schedule_funnels_everything_to_target(
        topo_seed in 0u64..300,
        weights_seed in 0u64..300,
        target_pick in 0usize..32,
    ) {
        let tree = builders::random_tree(
            2 + (topo_seed % 7) as usize,
            1 + (topo_seed % 4) as usize,
            0.5,
            4.0,
            topo_seed,
        );
        let target = tree.compute_nodes()[target_pick % tree.num_compute()];
        let weights: Vec<u64> = (0..tree.num_nodes())
            .map(|i| {
                let v = NodeId(i as u32);
                if tree.is_compute(v) {
                    mix64(weights_seed ^ i as u64) % 100
                } else {
                    0
                }
            })
            .collect();
        let schedule = combining_schedule(&tree, &weights, target);

        // Simulate token flow: every compute node starts with one token.
        let mut holder: Vec<u64> = (0..tree.num_nodes())
            .map(|i| u64::from(tree.is_compute(NodeId(i as u32))))
            .collect();
        let mut sent = vec![false; tree.num_nodes()];
        for level in &schedule {
            for &(src, dst) in level {
                prop_assert!(!sent[src.index()], "node {src} sends twice");
                prop_assert!(holder[src.index()] > 0, "node {src} sends without tokens");
                sent[src.index()] = true;
                holder[dst.index()] += holder[src.index()];
                holder[src.index()] = 0;
            }
        }
        prop_assert_eq!(
            holder[target.index()],
            tree.num_compute() as u64,
            "not all partials reached the target"
        );
        // Bounded rounds: at most one level per BFS depth.
        prop_assert!(schedule.len() <= tree.num_nodes());
    }

    /// Perturbation at any spread preserves structure and per-edge bounds.
    #[test]
    fn perturbation_is_bounded_and_deterministic(
        topo_seed in 0u64..200,
        spread_milli in 1000u64..8000,
        seed in 0u64..1000,
    ) {
        let tree = builders::random_tree(4, 3, 0.5, 4.0, topo_seed);
        let spread = spread_milli as f64 / 1000.0;
        let a = perturb_bandwidths(&tree, spread, seed);
        let b = perturb_bandwidths(&tree, spread, seed);
        for e in tree.edges() {
            prop_assert_eq!(a.sym_bandwidth(e), b.sym_bandwidth(e));
            let ratio = a.sym_bandwidth(e).get() / tree.sym_bandwidth(e).get();
            prop_assert!(ratio >= 1.0 / spread - 1e-9 && ratio <= spread + 1e-9);
        }
    }
}
