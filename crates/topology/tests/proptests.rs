//! Property-based tests of the topology substrate: random trees must
//! satisfy the structural invariants every algorithm in the stack builds
//! on.

use proptest::prelude::*;
use tamp_topology::normalize::{contract_degree2, hoist_compute_leaves};
use tamp_topology::{builders, CutWeights, NodeId, Tree};

fn arb_tree() -> impl Strategy<Value = Tree> {
    (1usize..12, 1usize..8, 0u64..10_000)
        .prop_map(|(c, r, seed)| builders::random_tree(c, r, 0.1, 32.0, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_is_connected_acyclic(tree in arb_tree()) {
        prop_assert_eq!(tree.num_edges() + 1, tree.num_nodes());
        // Every pair of nodes is connected by a path of the right length
        // parity (spot-check against node 0).
        for v in tree.nodes() {
            let path = tree.path(NodeId(0), v);
            prop_assert_eq!(path.is_empty(), v == NodeId(0));
            prop_assert!(path.len() < tree.num_nodes());
        }
    }

    #[test]
    fn cut_folds_match_bruteforce(tree in arb_tree(), seed in 0u64..9999) {
        let w: Vec<u64> = (0..tree.num_nodes() as u64)
            .map(|i| (i.wrapping_mul(seed + 7)) % 97)
            .collect();
        let (sum_in, sum_out) = tree.cut_folds(&w, 0, |a, b| a + b);
        let (max_in, max_out) = tree.cut_folds(&w, 0, u64::max);
        prop_assert_eq!(sum_in[0], w.iter().sum::<u64>());
        for x in tree.nodes() {
            let side = |inside: bool| {
                let (tree, w) = (&tree, &w);
                tree.nodes()
                    .filter(move |&y| tree.in_subtree0(y, x) == inside)
                    .map(move |y| w[y.index()])
            };
            prop_assert_eq!(sum_in[x.index()], side(true).sum::<u64>());
            prop_assert_eq!(sum_out[x.index()], side(false).sum::<u64>());
            prop_assert_eq!(max_in[x.index()], side(true).max().unwrap_or(0));
            prop_assert_eq!(max_out[x.index()], side(false).max().unwrap_or(0));
        }
    }

    #[test]
    fn cut_weights_min_side_at_most_half(tree in arb_tree()) {
        let w: Vec<u64> = vec![2; tree.num_nodes()];
        let cw = CutWeights::compute(&tree, &w);
        for e in tree.edges() {
            prop_assert!(cw.min_side(e) <= cw.total() / 2 + 1);
        }
    }

    #[test]
    fn left_to_right_orders_are_permutations(tree in arb_tree()) {
        for root in tree.nodes() {
            let order = tree.left_to_right_compute_order(root);
            let mut sorted = order.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), tree.num_compute());
        }
    }

    #[test]
    fn hoisting_makes_all_computes_leaves(tree in arb_tree()) {
        let norm = hoist_compute_leaves(&tree);
        prop_assert!(norm.tree.compute_nodes_are_leaves());
        prop_assert_eq!(norm.tree.num_compute(), tree.num_compute());
        // Every original compute node maps to a compute node.
        for &c in tree.compute_nodes() {
            let mapped = norm.node_map[c.index()].expect("compute survives");
            prop_assert!(norm.tree.is_compute(mapped));
        }
    }

    #[test]
    fn contraction_removes_all_degree2_routers(tree in arb_tree()) {
        let norm = contract_degree2(&tree);
        for v in norm.tree.nodes() {
            prop_assert!(
                norm.tree.is_compute(v) || norm.tree.degree(v) != 2,
                "router {} kept degree 2", v
            );
        }
        prop_assert_eq!(norm.tree.num_compute(), tree.num_compute());
        // Contraction never increases the node count.
        prop_assert!(norm.tree.num_nodes() <= tree.num_nodes());
    }

    #[test]
    fn contraction_preserves_path_bottlenecks(tree in arb_tree()) {
        // The min bandwidth along any compute-to-compute path is invariant
        // under degree-2 contraction (that is the point of the transform).
        let norm = contract_degree2(&tree);
        let vc = tree.compute_nodes();
        for (i, &a) in vc.iter().enumerate() {
            for &b in vc.iter().skip(i + 1).take(3) {
                let bottleneck = |t: &Tree, x, y| {
                    t.path(x, y)
                        .iter()
                        .map(|&d| t.bandwidth(d).get())
                        .fold(f64::INFINITY, f64::min)
                };
                let before = bottleneck(&tree, a, b);
                let na = norm.node_map[a.index()].unwrap();
                let nb = norm.node_map[b.index()].unwrap();
                let after = bottleneck(&norm.tree, na, nb);
                prop_assert!((before - after).abs() < 1e-9,
                    "bottleneck {} → {}", before, after);
            }
        }
    }
}
