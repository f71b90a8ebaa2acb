//! Integration tests for the aggregation extension: the three all-to-one
//! protocols, the distributed group-by, and their lower bounds, under
//! randomized inputs.

use proptest::prelude::*;
use tamp::core::aggregate::{
    aggregation_lower_bound, encode, groupby_lower_bound, reference_aggregate, Aggregator,
    CombiningTreeAggregate, FlatPartialAggregate, HashGroupBy, NaiveAggregate,
};
use tamp::core::hashing::mix64;
use tamp::simulator::{run_protocol, Placement, Rel};
use tamp::topology::builders;

fn grouped(tree: &tamp::topology::Tree, groups: u64, per_node: u64, seed: u64) -> Placement {
    let mut p = Placement::empty(tree);
    for (i, &v) in tree.compute_nodes().iter().enumerate() {
        for j in 0..per_node {
            let g = mix64(seed ^ ((i as u64) << 17) ^ j) % groups;
            let m = mix64(j ^ seed) % 1_000;
            p.push(v, Rel::R, encode(g, m));
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn all_protocols_compute_the_same_aggregate(
        topo_seed in 0u64..100,
        groups in 1u64..20,
        per_node in 0u64..60,
        seed in 0u64..1_000,
        agg_pick in 0u8..4,
    ) {
        let tree = builders::random_tree(
            3 + (topo_seed % 5) as usize,
            1 + (topo_seed % 3) as usize,
            0.5,
            4.0,
            topo_seed,
        );
        let p = grouped(&tree, groups, per_node, seed);
        let agg = [Aggregator::Count, Aggregator::Sum, Aggregator::Min, Aggregator::Max]
            [(agg_pick % 4) as usize];
        let target = tree.compute_nodes()[(seed % tree.num_compute() as u64) as usize];
        let want: Vec<(u64, u64)> =
            reference_aggregate(&p.all_r(), agg).into_iter().collect();

        let naive = run_protocol(&tree, &p, &NaiveAggregate::new(target, agg)).unwrap();
        let flat = run_protocol(&tree, &p, &FlatPartialAggregate::new(target, agg)).unwrap();
        let comb = run_protocol(&tree, &p, &CombiningTreeAggregate::new(target, agg)).unwrap();
        prop_assert_eq!(&naive.output, &want);
        prop_assert_eq!(&flat.output, &want);
        prop_assert_eq!(&comb.output, &want);

        // Every protocol respects the all-to-one lower bound.
        let lb = aggregation_lower_bound(&tree, &p, target).value();
        for cost in [
            naive.cost.tuple_cost(),
            flat.cost.tuple_cost(),
            comb.cost.tuple_cost(),
        ] {
            prop_assert!(cost >= lb - 1e-9, "cost {cost} under LB {lb}");
        }

        // Group-by agrees too, and respects its own bound.
        let gb = run_protocol(&tree, &p, &HashGroupBy::new(seed, agg)).unwrap();
        let got: Vec<(u64, u64)> = gb.output.iter().map(|&(g, m, _)| (g, m)).collect();
        prop_assert_eq!(&got, &want);
        prop_assert!(gb.cost.tuple_cost() >= groupby_lower_bound(&tree, &p).value() - 1e-9);
    }
}
