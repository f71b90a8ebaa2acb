//! A paper protocol derived node by node — the witness of the model's §2
//! premise.
//!
//! Every compute node derives its own sends — it sees only its local
//! fragment plus the §2 model knowledge and re-derives the shared plan
//! locally; no coordinator hands it the answer. The job that
//! concatenates those independent derivations is replayed on the pooled
//! cluster, where a bounded worker pool (default: available parallelism)
//! absorbs the deliveries, so the same code scales to thousands of
//! nodes. The traffic is metered on the same ledger as the centralized
//! simulator, and for the same seed the two agree to the bit. That is why
//! everything else in the workspace ships an algorithm as a precomputed
//! `Schedule` for either engine to replay.
//!
//! ```text
//! cargo run --release --example threaded_cluster
//! ```

use tamp::core::hashing::mix64;
use tamp::core::intersection::TreeIntersect;
use tamp::runtime::programs::DistributedTreeIntersect;
use tamp::runtime::{ExecBackend, PooledClusterBackend};
use tamp::simulator::{run_protocol, verify, Placement, Rel};
use tamp::topology::builders;

fn main() {
    let tree = builders::rack_tree(&[(4, 4.0, 2.0), (4, 4.0, 1.0), (4, 4.0, 8.0)], 1.0);
    println!(
        "cluster: {} compute nodes on 3 racks — pooled worker execution\n",
        tree.num_compute()
    );

    let mut p = Placement::empty(&tree);
    let vc = tree.compute_nodes();
    for a in 0..3_000u64 {
        p.push(vc[(mix64(a) % vc.len() as u64) as usize], Rel::R, a);
    }
    for a in 0..9_000u64 {
        let val = 1_500 + a;
        p.push(vc[(mix64(val ^ 5) % vc.len() as u64) as usize], Rel::S, val);
    }
    let seed = 42;
    let sim = run_protocol(&tree, &p, &TreeIntersect::new(seed)).unwrap();
    let job = DistributedTreeIntersect::new(seed).job(&tree, &p);
    let rt = PooledClusterBackend::default()
        .execute(&tree, &p, &job)
        .unwrap();
    verify::check_intersection(&rt.final_state, &p.all_r(), &p.all_s()).unwrap();
    println!("set intersection (seed {seed}):");
    println!(
        "  simulator cost        {:>10.1} tuples",
        sim.cost.tuple_cost()
    );
    println!(
        "  threaded cluster cost {:>10.1} tuples",
        rt.cost.tuple_cost()
    );
    assert_eq!(sim.cost.edge_totals, rt.cost.edge_totals);
    println!("  per-edge traffic: IDENTICAL — the distributed per-node plan");
    println!("  derivation reproduces the centralized sends exactly");
    println!(
        "  ({} supersteps: {} metered round + the absorbing superstep)",
        rt.supersteps, sim.rounds
    );
}
