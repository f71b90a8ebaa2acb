//! Scale tests for the pooled runtime: topologies with thousands of
//! compute nodes must execute on a bounded worker pool — at most the
//! machine's available parallelism worth of OS threads, never a thread
//! per node — and the per-node witness program must hold its
//! cross-validation guarantee at that scale.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use tamp::core::hashing::mix64;
use tamp::core::intersection::TreeIntersect;
use tamp::runtime::programs::DistributedTreeIntersect;
use tamp::runtime::{run_cluster, ClusterOptions, NodeCtx, NodeProgram, Outbox, Step};
use tamp::simulator::{run_protocol, NodeState, Placement, Rel};
use tamp::topology::graph::builders as graph_builders;
use tamp::topology::{builders, NodeId, Tree};

/// Each node sends one value around a ring of compute nodes for two
/// rounds, recording which OS thread ran it.
fn ring_program(
    n_compute: usize,
    threads: Arc<Mutex<HashSet<std::thread::ThreadId>>>,
) -> impl Fn(NodeId) -> Box<dyn NodeProgram> {
    move |v: NodeId| {
        let threads = threads.clone();
        Box::new(
            move |ctx: &NodeCtx<'_>, _state: &mut NodeState, out: &mut Outbox| {
                threads.lock().unwrap().insert(std::thread::current().id());
                if ctx.round < 2 {
                    let computes = ctx.tree.compute_nodes();
                    let me = computes.iter().position(|&c| c == v).unwrap();
                    let next = computes[(me + 1) % n_compute];
                    out.send_to(next, Rel::R, vec![v.0 as u64]);
                    return Step::Continue;
                }
                Step::Halt
            },
        ) as Box<dyn NodeProgram>
    }
}

fn run_scale_check(tree: &Tree) {
    let n = tree.num_compute();
    assert!(
        n >= 2048,
        "topology must have ≥ 2048 compute nodes, got {n}"
    );
    let placement = Placement::empty(tree);
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let options = ClusterOptions::default();
    let run = run_cluster(tree, &placement, ring_program(n, threads.clone()), options).unwrap();
    // Two communicating supersteps plus the silent termination step.
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
    // The pool is bounded: at most `workers` distinct OS threads ran
    // programs, for 2048+ logical nodes.
    let used = threads.lock().unwrap().len();
    let budget = options.resolved_workers(n);
    assert!(
        used <= budget,
        "{used} program threads exceed the {budget}-worker pool"
    );
}

#[test]
fn random_tree_with_2048_computes_runs_on_a_bounded_pool() {
    let tree = builders::random_tree(2048, 256, 0.5, 8.0, 42);
    run_scale_check(&tree);
}

#[test]
fn torus_spanning_tree_with_2048_computes_runs_on_a_bounded_pool() {
    let torus = graph_builders::torus(32, 64, 1.0);
    let tree = torus.max_bandwidth_spanning_tree().unwrap();
    run_scale_check(&tree);
}

#[test]
fn cross_validation_holds_at_2048_nodes() {
    // The bit-identical-ledger guarantee is not a small-topology artifact:
    // the centralized protocol on the simulator and the per-node program
    // on the pooled cluster agree at 2048 compute nodes too.
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
    let rt = run_cluster(
        &tree,
        &p,
        |_| Box::new(DistributedTreeIntersect::new(11)),
        ClusterOptions::default(),
    )
    .unwrap();
    assert_eq!(rt.cost.edge_totals, sim.cost.edge_totals);
    assert_eq!(rt.cost.per_round.len(), sim.rounds);
    assert_eq!(rt.supersteps, sim.rounds + 1);
}
