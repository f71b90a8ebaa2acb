//! The witness suite for the model's §2 premise: for any random tree,
//! placement and seed, the one hand-written per-node derivation
//! (`DistributedTreeIntersect::job`, every node deriving its sends alone,
//! replayed on `PooledClusterBackend`) must move exactly the traffic the
//! centralized `TreeIntersect` protocol moves on `run_protocol` —
//! bit-identical `Cost` ledgers, equal metered round counts, and (for the
//! cluster) exactly one extra superstep, the one that absorbs the last
//! round's deliveries.

use proptest::prelude::*;
use tamp::core::hashing::mix64;
use tamp::core::intersection::TreeIntersect;
use tamp::runtime::programs::DistributedTreeIntersect;
use tamp::runtime::{ExecBackend, ExecError, ExecOutcome, PooledClusterBackend};
use tamp::simulator::{run_protocol, verify, Placement, Rel, Run, Value};
use tamp::topology::{builders, Tree};

fn random_setup(topo_seed: u64, r: u64, s: u64, data_seed: u64) -> (Tree, Placement) {
    let tree = builders::random_tree(
        3 + (topo_seed % 6) as usize,
        1 + (topo_seed % 4) as usize,
        0.5,
        4.0,
        topo_seed,
    );
    let mut p = Placement::empty(&tree);
    let vc = tree.compute_nodes();
    for a in 0..r {
        p.push(
            vc[(mix64(a ^ data_seed) % vc.len() as u64) as usize],
            Rel::R,
            a,
        );
    }
    for a in 0..s {
        let val = r / 2 + a;
        p.push(
            vc[(mix64(val ^ data_seed ^ 0xAB) % vc.len() as u64) as usize],
            Rel::S,
            val,
        );
    }
    (tree, p)
}

/// The per-node derivation's job, replayed on `backend`.
fn witness(
    tree: &Tree,
    p: &Placement,
    seed: u64,
    backend: PooledClusterBackend,
) -> Result<ExecOutcome, ExecError> {
    backend.execute(tree, p, &DistributedTreeIntersect::new(seed).job(tree, p))
}

/// Run the centralized protocol on the simulator and the per-node
/// derivation on the pooled cluster and assert the engine-independent
/// invariants: bit-identical ledgers (full per-edge totals *and*
/// per-round costs), equal metered rounds, and the cluster's supersteps
/// being rounds + 1 (the absorbing superstep).
fn assert_parity(
    tree: &Tree,
    p: &Placement,
    seed: u64,
) -> Result<(Run<Vec<Value>>, ExecOutcome), TestCaseError> {
    let sim = run_protocol(tree, p, &TreeIntersect::new(seed)).map_err(TestCaseError::fail)?;
    let rt =
        witness(tree, p, seed, PooledClusterBackend::default()).map_err(TestCaseError::fail)?;
    prop_assert_eq!(&rt.cost.edge_totals, &sim.cost.edge_totals);
    prop_assert_eq!(rt.cost.tuple_cost(), sim.cost.tuple_cost());
    prop_assert_eq!(
        rt.cost.per_round.len(),
        sim.rounds,
        "metered rounds must agree"
    );
    prop_assert_eq!(
        rt.supersteps,
        sim.rounds + 1,
        "the cluster absorbs the last round in exactly one more superstep"
    );
    for (i, (a, b)) in rt
        .cost
        .per_round
        .iter()
        .zip(sim.cost.per_round.iter())
        .enumerate()
    {
        prop_assert_eq!(a.tuple_cost, b.tuple_cost, "round {} cost", i);
        prop_assert_eq!(a.total_tuples, b.total_tuples, "round {} volume", i);
    }
    Ok((sim, rt))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn intersection_traffic_parity(
        topo_seed in 0u64..200,
        hash_seed in 0u64..1_000,
        r in 1u64..150,
        s in 1u64..400,
        data_seed in 0u64..1_000,
    ) {
        let (tree, p) = random_setup(topo_seed, r, s, data_seed);
        let (sim, rt) = assert_parity(&tree, &p, hash_seed)?;
        verify::check_intersection(&rt.final_state, &p.all_r(), &p.all_s())
            .map_err(TestCaseError::fail)?;
        // Both executions emit the same intersection.
        prop_assert_eq!(
            verify::emitted_intersection(&rt.final_state),
            verify::emitted_intersection(&sim.final_state)
        );
    }

    #[test]
    fn pool_width_never_changes_results(
        topo_seed in 0u64..100,
        hash_seed in 0u64..500,
        r in 1u64..120,
        s in 1u64..200,
    ) {
        // The same job on a 1-worker pool and a wide pool: supersteps,
        // ledgers and final states must be bit-identical — scheduling is
        // not allowed to leak into results.
        let (tree, p) = random_setup(topo_seed, r, s, topo_seed ^ 0x5A);
        let narrow = witness(&tree, &p, hash_seed, PooledClusterBackend::with_workers(1))
            .map_err(TestCaseError::fail)?;
        let wide = witness(&tree, &p, hash_seed, PooledClusterBackend::with_workers(8))
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(narrow.supersteps, wide.supersteps);
        prop_assert_eq!(&narrow.cost.edge_totals, &wide.cost.edge_totals);
        for v in tree.nodes() {
            prop_assert_eq!(
                &narrow.final_state[v.index()],
                &wide.final_state[v.index()]
            );
        }
    }
}

#[test]
fn parity_holds_on_every_standard_topology() {
    for (tree, seed) in [
        (builders::star(6, 1.0), 1u64),
        (builders::heterogeneous_star(&[0.5, 1.0, 2.0, 4.0]), 2),
        (builders::rack_tree(&[(3, 1.0, 2.0), (4, 2.0, 1.0)], 1.0), 3),
        (builders::fat_tree(2, 3, 1.0), 4),
        (builders::caterpillar(4, 2, 1.5), 5),
    ] {
        let mut p = Placement::empty(&tree);
        let vc = tree.compute_nodes();
        for a in 0..200u64 {
            p.push(vc[(mix64(a ^ seed) % vc.len() as u64) as usize], Rel::R, a);
            p.push(
                vc[(mix64(a ^ seed ^ 9) % vc.len() as u64) as usize],
                Rel::S,
                100 + a,
            );
        }
        let sim = run_protocol(&tree, &p, &TreeIntersect::new(seed)).unwrap();
        let rt = witness(&tree, &p, seed, PooledClusterBackend::default()).unwrap();
        assert_eq!(rt.cost.edge_totals, sim.cost.edge_totals, "seed {seed}");
        assert_eq!(rt.cost.per_round.len(), sim.rounds, "seed {seed}");
        assert_eq!(rt.supersteps, sim.rounds + 1, "seed {seed}");
    }
}
