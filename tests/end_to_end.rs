//! Cross-crate integration: every algorithm, on every topology of the zoo,
//! under every placement strategy, must be correct, respect its round
//! budget, and stay within a generous constant of its lower bound.

use tamp::core::aggregate::{encode, Aggregator, HashGroupBy};
use tamp::core::cartesian::{
    cartesian_lower_bound, AllToOne, TreeCartesianProduct, UniformHyperCube,
};
use tamp::core::intersection::{
    intersection_lower_bound, StarIntersect, TreeIntersect, UniformHashJoin,
};
use tamp::core::ratio::ratio;
use tamp::core::sorting::{sorting_lower_bound, TeraSort, WeightedTeraSort};
use tamp::simulator::{run_protocol, verify, NodeState, Placement, Protocol, Rel};
use tamp::topology::{builders, Tree};
use tamp::workloads::{PlacementStrategy, SetSpec, SortSpec};

fn zoo() -> Vec<(String, Tree)> {
    vec![
        ("star-6".into(), builders::star(6, 1.0)),
        (
            "het-star".into(),
            builders::heterogeneous_star(&[0.5, 1.0, 2.0, 4.0, 8.0]),
        ),
        (
            "racks".into(),
            builders::rack_tree(&[(3, 2.0, 1.0), (3, 4.0, 2.0)], 1.0),
        ),
        ("fat".into(), builders::fat_tree(2, 2, 1.0)),
        ("cat".into(), builders::caterpillar(3, 2, 1.0)),
        ("rand-a".into(), builders::random_tree(7, 4, 0.5, 8.0, 1)),
        ("rand-b".into(), builders::random_tree(9, 6, 0.25, 4.0, 2)),
    ]
}

fn strategies() -> Vec<(String, PlacementStrategy)> {
    vec![
        ("uniform".into(), PlacementStrategy::Uniform),
        ("zipf".into(), PlacementStrategy::Zipf { alpha: 1.3 }),
        ("single".into(), PlacementStrategy::SingleNode { k: 0 }),
        ("separated".into(), PlacementStrategy::Separated),
        ("inv-bw".into(), PlacementStrategy::InverseBandwidth),
    ]
}

#[test]
fn intersection_everywhere() {
    for (tname, tree) in zoo() {
        for (sname, strat) in strategies() {
            let w = SetSpec::new(300, 900).with_intersection(80).generate(5);
            let p = strat.place(&tree, &w, 5);
            let run = run_protocol(&tree, &p, &TreeIntersect::new(5))
                .unwrap_or_else(|e| panic!("{tname}/{sname}: {e}"));
            assert_eq!(run.rounds, 1, "{tname}/{sname}");
            verify::check_intersection(&run.final_state, &p.all_r(), &p.all_s())
                .unwrap_or_else(|e| panic!("{tname}/{sname}: {e}"));
            assert_eq!(run.output.len(), 80, "{tname}/{sname}");
            // Sanity: within a very generous polylog factor of the bound.
            let lb = intersection_lower_bound(&tree, &p.stats());
            let r = ratio(run.cost.tuple_cost(), lb.value());
            assert!(r.is_finite() || lb.value() == 0.0, "{tname}/{sname}: {r}");
            if lb.value() > 0.0 {
                assert!(r < 200.0, "{tname}/{sname}: ratio {r}");
            }
        }
    }
}

#[test]
fn cartesian_everywhere() {
    for (tname, tree) in zoo() {
        for (sname, strat) in strategies() {
            let w = SetSpec::new(240, 240).generate(6);
            let p = strat.place(&tree, &w, 6);
            let run = run_protocol(&tree, &p, &TreeCartesianProduct::new())
                .unwrap_or_else(|e| panic!("{tname}/{sname}: {e}"));
            assert_eq!(run.rounds, 1, "{tname}/{sname}");
            verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s())
                .unwrap_or_else(|e| panic!("{tname}/{sname}: {e}"));
            let lb = cartesian_lower_bound(&tree, &p.stats());
            if lb.value() > 0.0 {
                let r = ratio(run.cost.tuple_cost(), lb.value());
                assert!(r < 64.0, "{tname}/{sname}: ratio {r}");
            }
        }
    }
}

#[test]
fn sorting_everywhere() {
    for (tname, tree) in zoo() {
        for (sname, strat) in strategies() {
            let w = SortSpec::new(2_000).with_duplicates(0.2).generate(7);
            let p = strat.place(&tree, &w, 7);
            let run = run_protocol(&tree, &p, &WeightedTeraSort::new(7))
                .unwrap_or_else(|e| panic!("{tname}/{sname}: {e}"));
            assert_eq!(run.rounds, 4, "{tname}/{sname}");
            verify::check_sorted_partition(&run.output, &run.final_state, &p.all_r())
                .unwrap_or_else(|e| panic!("{tname}/{sname}: {e}"));
        }
    }
}

#[test]
fn baselines_everywhere() {
    for (tname, tree) in zoo() {
        let w = SetSpec::new(200, 600).with_intersection(50).generate(8);
        let p = PlacementStrategy::Uniform.place(&tree, &w, 8);
        let join = run_protocol(&tree, &p, &UniformHashJoin::new(8)).unwrap();
        verify::check_intersection(&join.final_state, &p.all_r(), &p.all_s())
            .unwrap_or_else(|e| panic!("{tname}: {e}"));

        let w = SetSpec::new(150, 150).generate(9);
        let p = PlacementStrategy::Uniform.place(&tree, &w, 9);
        let hc = run_protocol(&tree, &p, &UniformHyperCube::new()).unwrap();
        verify::check_pair_coverage(&hc.final_state, &p.all_r(), &p.all_s())
            .unwrap_or_else(|e| panic!("{tname}: {e}"));
        let target = tree.compute_nodes()[0];
        let all = run_protocol(&tree, &p, &AllToOne::new(target)).unwrap();
        verify::check_pair_coverage(&all.final_state, &p.all_r(), &p.all_s())
            .unwrap_or_else(|e| panic!("{tname}: {e}"));

        let w = SortSpec::new(1_500).generate(10);
        let p = PlacementStrategy::Zipf { alpha: 1.0 }.place(&tree, &w, 10);
        let ts = run_protocol(&tree, &p, &TeraSort::new(10)).unwrap();
        verify::check_sorted_partition(&ts.output, &ts.final_state, &p.all_r())
            .unwrap_or_else(|e| panic!("{tname}: {e}"));
        let lb = sorting_lower_bound(&tree, &p.stats());
        assert!(lb.value() >= 0.0);
    }
}

#[test]
fn weighted_beats_baseline_on_hostile_topology() {
    // The paper's headline claim, end to end: with a slow link and data
    // placed away from it, the distribution-aware algorithms win big.
    let tree = builders::heterogeneous_star(&[8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 0.1]);
    let w = SetSpec::new(500, 4_000).with_intersection(100).generate(3);
    // Everything on the 7 healthy nodes.
    let mut p = tamp::simulator::Placement::empty(&tree);
    let vc = tree.compute_nodes();
    for (i, &x) in w.r.iter().enumerate() {
        p.push(vc[i % 7], tamp::simulator::Rel::R, x);
    }
    for (i, &x) in w.s.iter().enumerate() {
        p.push(vc[i % 7], tamp::simulator::Rel::S, x);
    }
    let smart = run_protocol(&tree, &p, &TreeIntersect::new(3)).unwrap();
    let naive = run_protocol(&tree, &p, &UniformHashJoin::new(3)).unwrap();
    assert!(
        naive.cost.tuple_cost() > 10.0 * smart.cost.tuple_cost(),
        "naive {} vs smart {}",
        naive.cost.tuple_cost(),
        smart.cost.tuple_cost()
    );
}

#[test]
fn costs_scale_linearly_with_input() {
    // Doubling the input should roughly double every algorithm's cost
    // (all three protocols are linear in N for fixed topology/placement).
    let tree = builders::rack_tree(&[(3, 2.0, 1.0), (3, 2.0, 1.0)], 1.0);
    let cost_at = |n: usize| {
        let w = SetSpec::new(n / 4, 3 * n / 4).generate(4);
        let p = PlacementStrategy::Uniform.place(&tree, &w, 4);
        run_protocol(&tree, &p, &TreeIntersect::new(4))
            .unwrap()
            .cost
            .tuple_cost()
    };
    let (c1, c2) = (cost_at(2_000), cost_at(8_000));
    let growth = c2 / c1;
    assert!(
        (2.0..8.0).contains(&growth),
        "4× input should grow cost ≈ 4×, got {growth}"
    );
}

/// Two runs of one protocol on one placement end in the same *ordered*
/// per-node state: a node's fragment is its deliveries in send order,
/// and the hash-routing protocols emit their sends in a fixed order
/// (ascending destination vector) rather than in `HashMap` order, which
/// `RandomState` reshuffled on every run. The multicasting two
/// (`TreeIntersect`, `StarIntersect` with a β node) showed that in their
/// final states; the one-destination two only in their send order, and
/// are here so that it stays that way.
#[test]
fn hash_routed_final_states_repeat_run_to_run() {
    fn twice<P: Protocol>(tree: &Tree, p: &Placement, protocol: &P) -> [Vec<NodeState>; 2] {
        [(); 2].map(|()| {
            run_protocol(tree, p, protocol)
                .unwrap_or_else(|e| panic!("{}: {e}", protocol.name()))
                .final_state
        })
    }
    let star = builders::heterogeneous_star(&[0.5, 1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0]);
    let racks = builders::random_tree(24, 6, 0.5, 8.0, 3);
    for (tname, tree) in [("het-star", &star), ("rand", &racks)] {
        let w = SetSpec::new(400, 1_200).with_intersection(100).generate(11);
        let p = PlacementStrategy::Zipf { alpha: 1.0 }.place(tree, &w, 11);
        let [a, b] = twice(tree, &p, &TreeIntersect::new(7));
        assert_eq!(a, b, "{tname}: TreeIntersect");
        let [a, b] = twice(tree, &p, &UniformHashJoin::new(7));
        assert_eq!(a, b, "{tname}: UniformHashJoin");
        // 61 groups on every node, so each node routes to several owners.
        let mut grouped = Placement::empty(tree);
        for (i, &v) in tree.compute_nodes().iter().enumerate() {
            for j in 0..80 {
                grouped.push(v, Rel::R, encode((i as u64 * 7 + j) % 61, j + 1));
            }
        }
        let [a, b] = twice(tree, &grouped, &HashGroupBy::new(7, Aggregator::Sum));
        assert_eq!(a, b, "{tname}: HashGroupBy");
        if tname == "het-star" {
            let [a, b] = twice(tree, &p, &StarIntersect::new(7));
            assert_eq!(a, b, "{tname}: StarIntersect");
        }
    }
}
