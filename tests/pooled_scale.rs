//! Scale tests for the pooled runtime: topologies with thousands of
//! compute nodes must execute on a bounded worker pool — at most the
//! machine's available parallelism worth of OS threads, never a thread
//! per node (`ClusterOptions::resolved_workers` is the crew's width, and
//! no caller code runs on it) — and the per-node witness derivation must
//! hold its cross-validation guarantee at that scale.

use tamp::core::hashing::mix64;
use tamp::core::intersection::TreeIntersect;
use tamp::runtime::programs::DistributedTreeIntersect;
use tamp::runtime::{
    ClusterOptions, ExecBackend, PooledClusterBackend, Schedule, ScheduleJob, ScheduleSend,
};
use tamp::simulator::{run_protocol, Placement, Rel};
use tamp::topology::{builders, Tree, TreeBuilder};

/// Each node sends one value around a ring of compute nodes for two
/// rounds.
fn ring_job(tree: &Tree) -> ScheduleJob {
    let vc = tree.compute_nodes();
    let round: Vec<ScheduleSend> = (0..vc.len())
        .map(|i| ScheduleSend {
            src: vc[i],
            dsts: vec![vc[(i + 1) % vc.len()]].into(),
            rel: Rel::R,
            values: vec![vc[i].0 as u64].into(),
        })
        .collect();
    let rounds = vec![round.clone(), round];
    ScheduleJob::new("ring", tree.num_nodes(), Schedule { rounds })
}

fn run_scale_check(tree: &Tree) {
    let n = tree.num_compute();
    assert!(
        n >= 2048,
        "topology must have ≥ 2048 compute nodes, got {n}"
    );
    let placement = Placement::empty(tree);
    let run = PooledClusterBackend::default()
        .execute(tree, &placement, &ring_job(tree))
        .unwrap();
    // Two communicating supersteps plus the absorbing one.
    assert_eq!(run.supersteps, 3);
    assert_eq!(run.cost.per_round.len(), 2);
    assert_eq!(
        run.cost.per_round[0].total_tuples,
        run.cost.per_round[1].total_tuples
    );
    // Every node received exactly its two ring messages.
    for &v in tree.compute_nodes() {
        assert_eq!(run.final_state[v.index()].r.len(), 2, "node {v}");
    }
    // The pool is bounded: the crew is the machine's parallelism wide,
    // for 2048+ logical nodes.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(ClusterOptions::default().resolved_workers(n) <= hw);
}

#[test]
fn random_tree_with_2048_computes_runs_on_a_bounded_pool() {
    let tree = builders::random_tree(2048, 256, 0.5, 8.0, 42);
    run_scale_check(&tree);
}

/// A shape `random_tree` does not give: every node computes, interior
/// ones included, and the diameter is long — a 32-compute spine with a
/// 64-compute path hanging from each spine node (2,080 computes).
#[test]
fn spine_of_paths_with_2048_computes_runs_on_a_bounded_pool() {
    let mut b = TreeBuilder::new();
    let spine = b.computes(32);
    for (i, &v) in spine.iter().enumerate() {
        if i > 0 {
            b.link(spine[i - 1], v, 1.0).unwrap();
        }
        let mut tail = v;
        for u in b.computes(64) {
            b.link(tail, u, 1.0).unwrap();
            tail = u;
        }
    }
    let tree = b.build().unwrap();
    assert!(!tree.compute_nodes_are_leaves());
    run_scale_check(&tree);
}

#[test]
fn cross_validation_holds_at_2048_nodes() {
    // The bit-identical-ledger guarantee is not a small-topology artifact:
    // the centralized protocol on the simulator and the per-node
    // derivation on the pooled cluster agree at 2048 compute nodes too.
    let tree = builders::random_tree(2048, 256, 0.5, 8.0, 7);
    let mut p = Placement::empty(&tree);
    let vc = tree.compute_nodes();
    for x in 0..1500u64 {
        p.push(vc[(mix64(x) % vc.len() as u64) as usize], Rel::R, x);
        p.push(
            vc[(mix64(x ^ 0xC0FFEE) % vc.len() as u64) as usize],
            Rel::S,
            750 + x,
        );
    }
    let sim = run_protocol(&tree, &p, &TreeIntersect::new(11)).unwrap();
    let rt = PooledClusterBackend::default()
        .execute(&tree, &p, &DistributedTreeIntersect::new(11).job(&tree, &p))
        .unwrap();
    assert_eq!(rt.cost.edge_totals, sim.cost.edge_totals);
    assert_eq!(rt.cost.per_round.len(), sim.rounds);
    assert_eq!(rt.supersteps, sim.rounds + 1);
}
