//! `paper-scale`: the paper's three tasks through `tamp_core` +
//! `simulator::run_protocol` on a bandwidth-skewed 1,024-compute tree
//! with skewed initial placement — `TreeIntersect` (§3), the tree
//! cartesian product (§4), weighted TeraSort (§5) — then one all-to-all
//! round on that tree and one broadcast-join round on a 65,536-compute
//! fat-tree (the chunked-sweep regime) straight through `TrafficMeter`.
//! The only workload on the `Session` protocol path and on topology and
//! meter scale; set-up builds both trees and their indexes, so this is
//! where index construction shows against charging. The query crate does
//! nothing.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tamp_core::cartesian::{cartesian_lower_bound, TreeCartesianProduct, TreePlan};
use tamp_core::intersection::{intersection_lower_bound, TreeIntersect};
use tamp_core::sorting::{sorting_lower_bound, WeightedTeraSort};
use tamp_simulator::{
    run_protocol, verify, Cost, NodeState, Placement, Protocol, Run, TrafficMeter, Value,
};
use tamp_topology::{builders, LcaIndex, NodeId, Tree};
use tamp_workloads::{PlacementStrategy, SetSpec, SortSpec};

use crate::json::Json;
use crate::probes::{quiet_secs, quiet_secs_staged, Probes};
use crate::trace::Tracer;
use crate::workloads::{digest, ensure_eq, Counts, Op, Workload};

/// The tree is part of the workload's definition, not of its seeded
/// data: every seed runs on the same topology.
const TREE_SEED: u64 = 2021;
/// Hash / sampling seed of the protocols (program configuration).
const PROTOCOL_SEED: u64 = 5;
const PLACEMENT: PlacementStrategy = PlacementStrategy::Zipf { alpha: 1.0 };
/// The scatter draws one node per element in order, so a fixed placement
/// seed gives every `--seed` the same per-node sizes `N_v` (and the same
/// lower bounds); `--seed` decides the values, hence what hashes where.
const PLACEMENT_SEED: u64 = 7;
const ALL_TO_ALL_AMOUNT: u64 = 1;
const BROADCAST_AMOUNT: u64 = 4;

#[derive(Clone, Copy)]
struct Sizes {
    /// `random_tree(compute, routers, 0.5, 8.0)`.
    tree: (usize, usize),
    /// `fat_tree(levels, k)` of the broadcast-join round.
    big_tree: (u32, usize),
    intersect: (usize, usize, usize),
    cartesian: usize,
    sort: usize,
    broadcast_sources: usize,
}

const FULL: Sizes = Sizes {
    tree: (1024, 128),
    big_tree: (8, 4),
    intersect: (5_000, 15_000, 1_250),
    cartesian: 3_000,
    sort: 20_000,
    broadcast_sources: 2,
};
const SMOKE: Sizes = Sizes {
    tree: (64, 16),
    big_tree: (4, 4),
    intersect: (500, 1_500, 100),
    cartesian: 120,
    sort: 2_000,
    broadcast_sources: 2,
};

/// One task's input and what its run must reproduce.
struct Task {
    placement: Placement,
    lower_bound: f64,
    /// Ledger and rounds of the checked reference run.
    cost: Cost,
    rounds: usize,
    state_digest: u64,
}

pub struct PaperScale {
    sizes: Sizes,
    intersect: Task,
    /// The naive `R ∩ S`, sorted.
    intersection: Vec<Value>,
    cartesian: Task,
    sort: Task,
    /// Reference ledgers of the two direct-meter rounds.
    all_to_all: Cost,
    broadcast: Cost,
    generate_ms: f64,
}

fn small_tree(sizes: Sizes) -> Tree {
    builders::random_tree(sizes.tree.0, sizes.tree.1, 0.5, 8.0, TREE_SEED)
}

fn big_tree(sizes: Sizes) -> Tree {
    builders::fat_tree(sizes.big_tree.0, sizes.big_tree.1, 1.0)
}

fn state_digest(states: &[NodeState]) -> u64 {
    digest(&states.iter().map(|s| (&s.r, &s.s)).collect::<Vec<_>>())
}

/// Digest of final states as per-node *sets*. `TreeIntersect` groups its
/// sends in `HashMap`s, so the order tuples arrive in — unlike the ledger
/// and the emitted intersection — differs from run to run.
fn state_set_digest(states: &[NodeState]) -> u64 {
    let sets: Vec<(Vec<Value>, Vec<Value>)> = states
        .iter()
        .map(|s| {
            let (mut r, mut s) = (s.r.clone(), s.s.clone());
            r.sort_unstable();
            s.sort_unstable();
            (r, s)
        })
        .collect();
    digest(&sets)
}

/// The paper's lower bounds (Thm 1, Thms 3–4, Thm 6) hold up to a
/// constant — `TreeIntersect` meters 0.90 × the Theorem 1 expression on
/// the smoke instance — so a run is not required to exceed them; the
/// cost ÷ bound ratios are reported as exact counts instead, and every
/// op must reproduce the reference ledger they are computed from.
fn task_of<O>(
    placement: Placement,
    lower_bound: f64,
    run: &Run<O>,
    state_digest: fn(&[NodeState]) -> u64,
) -> Task {
    assert!(
        run.cost.tuple_cost() > 0.0 && lower_bound > 0.0,
        "{}: a skewed placement must cost something",
        run.name
    );
    Task {
        placement,
        lower_bound,
        cost: run.cost.clone(),
        rounds: run.rounds,
        state_digest: state_digest(&run.final_state),
    }
}

/// Every compute node unicasts to every other one.
fn charge_all_to_all(meter: &mut TrafficMeter, vc: &[NodeId]) {
    for &s in vc {
        for &d in vc {
            if d != s {
                meter.charge_unicast(s, d, ALL_TO_ALL_AMOUNT);
            }
        }
    }
}

/// Evenly spaced sources each multicast to every compute node (one
/// Steiner union per source — the broadcast-join exchange).
fn charge_broadcast(meter: &mut TrafficMeter, vc: &[NodeId], sources: usize) {
    for &s in vc.iter().step_by(vc.len() / sources) {
        meter.charge_multicast(s, vc, BROADCAST_AMOUNT);
    }
}

impl PaperScale {
    pub fn generate(seed: u64, smoke: bool) -> PaperScale {
        let sizes = if smoke { SMOKE } else { FULL };
        let tree = small_tree(sizes);

        let start = Instant::now();
        let (r, s, k) = sizes.intersect;
        let w_int = SetSpec::new(r, s).with_intersection(k).generate(seed);
        let p_int = PLACEMENT.place(&tree, &w_int, PLACEMENT_SEED);
        let w_cp = SetSpec::new(sizes.cartesian, sizes.cartesian).generate(seed ^ 1);
        let p_cp = PLACEMENT.place(&tree, &w_cp, PLACEMENT_SEED ^ 1);
        let w_sort = SortSpec::new(sizes.sort).generate(seed ^ 2);
        let p_sort = PLACEMENT.place(&tree, &w_sort, PLACEMENT_SEED ^ 2);
        let generate_ms = start.elapsed().as_secs_f64() * 1e3;

        // Reference runs, each checked against a naive computation.
        let run = run_protocol(&tree, &p_int, &TreeIntersect::new(PROTOCOL_SEED))
            .expect("reference intersection");
        let intersection: Vec<Value> = verify::true_intersection(&w_int.r, &w_int.s)
            .into_iter()
            .collect();
        assert_eq!(
            run.output, intersection,
            "TreeIntersect disagrees with the naive R ∩ S"
        );
        let lb = intersection_lower_bound(&tree, &p_int.stats()).value();
        let intersect = task_of(p_int, lb, &run, state_set_digest);

        let run = run_protocol(&tree, &p_cp, &TreeCartesianProduct::new())
            .expect("reference cartesian product");
        verify::check_pair_coverage(&run.final_state, &w_cp.r, &w_cp.s)
            .expect("every pair of R × S is covered");
        let lb = cartesian_lower_bound(&tree, &p_cp.stats()).value();
        let cartesian = task_of(p_cp, lb, &run, state_digest);

        let run = run_protocol(&tree, &p_sort, &WeightedTeraSort::new(PROTOCOL_SEED))
            .expect("reference sort");
        verify::check_sorted_partition(&run.output, &run.final_state, &w_sort.r)
            .expect("weighted TeraSort output is a sorted partition");
        let lb = sorting_lower_bound(&tree, &p_sort.stats()).value();
        let sort = task_of(p_sort, lb, &run, state_digest);

        let round = |tree: &Tree, charge: &dyn Fn(&mut TrafficMeter, &[NodeId])| {
            let mut meter = TrafficMeter::new(tree);
            charge(&mut meter, tree.compute_nodes());
            meter.commit_round();
            meter.finish()
        };
        let all_to_all = round(&tree, &charge_all_to_all);
        let broadcast = round(&big_tree(sizes), &|m, vc| {
            charge_broadcast(m, vc, sizes.broadcast_sources)
        });

        PaperScale {
            sizes,
            intersect,
            intersection,
            cartesian,
            sort,
            all_to_all,
            broadcast,
            generate_ms,
        }
    }
}

/// The last op's protocol runs: intersection, cartesian product, sort.
type TaskRuns = (Run<Vec<Value>>, Run<TreePlan>, Run<Vec<NodeId>>);

struct PaperOp<'w> {
    w: &'w PaperScale,
    tree: Tree,
    big: Tree,
    /// Pristine meters built in set-up; every op charges a clone, so the
    /// ledger an op finishes is exactly its own round.
    meter: TrafficMeter,
    big_meter: TrafficMeter,
    staged: Option<(TrafficMeter, TrafficMeter)>,
    runs: Option<TaskRuns>,
    round_costs: Vec<Cost>,
}

impl PaperOp<'_> {
    fn protocol<P: Protocol>(
        &self,
        tr: &mut Tracer,
        metric: &'static str,
        task: &Task,
        protocol: &P,
        counts: &mut Counts,
    ) -> Run<P::Output> {
        let span = tr.enter("core.run_protocol");
        let run = run_protocol(&self.tree, &task.placement, protocol).expect("protocol runs");
        let ns = tr.exit(
            span,
            &[
                ("rounds", run.rounds as f64),
                ("tuple_cost", run.cost.tuple_cost()),
                ("lower_bound", task.lower_bound),
            ],
        );
        tr.observe(metric, ns as f64 / 1e6);
        counts.add_cost(&run.cost, run.rounds);
        run
    }

    fn meter_round(
        tr: &mut Tracer,
        mut meter: TrafficMeter,
        charge: impl FnOnce(&mut TrafficMeter),
        counts: &mut Counts,
    ) -> Cost {
        let span = tr.enter("simulator.meter.charge_round");
        charge(&mut meter);
        tr.exit(span, &[]);
        let span = tr.enter("simulator.meter.commit_round");
        meter.commit_round();
        tr.exit(span, &[]);
        let cost = meter.finish();
        counts.add_cost(&cost, 1);
        cost
    }
}

impl Op for PaperOp<'_> {
    fn stage(&mut self) {
        self.runs = None;
        self.round_costs.clear();
        self.staged = Some((self.meter.clone(), self.big_meter.clone()));
    }

    fn run(&mut self, tr: &mut Tracer) -> Counts {
        let mut counts = Counts::default();
        let w = self.w;
        let (meter, big_meter) = self.staged.take().expect("stage() ran before run()");

        let intersect = self.protocol(
            tr,
            "core.intersect_ms",
            &w.intersect,
            &TreeIntersect::new(PROTOCOL_SEED),
            &mut counts,
        );
        let cartesian = self.protocol(
            tr,
            "core.cartesian_ms",
            &w.cartesian,
            &TreeCartesianProduct::new(),
            &mut counts,
        );
        let sort = self.protocol(
            tr,
            "core.sort_ms",
            &w.sort,
            &WeightedTeraSort::new(PROTOCOL_SEED),
            &mut counts,
        );
        let vc = self.tree.compute_nodes();
        let a2a = Self::meter_round(tr, meter, |m| charge_all_to_all(m, vc), &mut counts);
        let sources = w.sizes.broadcast_sources;
        let vc = self.big.compute_nodes();
        let bj = Self::meter_round(
            tr,
            big_meter,
            |m| charge_broadcast(m, vc, sources),
            &mut counts,
        );

        self.runs = Some((intersect, cartesian, sort));
        self.round_costs.extend([a2a, bj]);
        counts
    }

    fn check(&self) -> Result<u64, String> {
        let w = self.w;
        let (intersect, cartesian, sort) = self.runs.as_ref().ok_or("no protocol runs")?;
        ensure_eq("R ∩ S", &intersect.output, &w.intersection)?;
        let state_digests = [
            state_set_digest(&intersect.final_state),
            state_digest(&cartesian.final_state),
            state_digest(&sort.final_state),
        ];
        for (((name, task), cost), state) in ["intersect", "cartesian", "sort"]
            .iter()
            .zip([&w.intersect, &w.cartesian, &w.sort])
            .zip([&intersect.cost, &cartesian.cost, &sort.cost])
            .zip(&state_digests)
        {
            ensure_eq(
                &format!("{name} cost"),
                &cost.tuple_cost(),
                &task.cost.tuple_cost(),
            )?;
            ensure_eq(
                &format!("{name} edge_totals"),
                &cost.edge_totals,
                &task.cost.edge_totals,
            )?;
            ensure_eq(&format!("{name} final state"), state, &task.state_digest)?;
        }
        for ((name, want), cost) in ["all-to-all", "broadcast-join"]
            .iter()
            .zip([&w.all_to_all, &w.broadcast])
            .zip(&self.round_costs)
        {
            ensure_eq(
                &format!("{name} edge_totals"),
                &cost.edge_totals,
                &want.edge_totals,
            )?;
        }
        Ok(digest(&(
            &intersect.output,
            state_digests,
            self.round_costs
                .iter()
                .map(|c| &c.edge_totals)
                .collect::<Vec<_>>(),
        )))
    }
}

impl Workload for PaperScale {
    fn generate_ms(&self) -> f64 {
        self.generate_ms
    }

    fn expected(&self) -> Counts {
        let mut counts = Counts::default();
        for t in [&self.intersect, &self.cartesian, &self.sort] {
            counts.add_cost(&t.cost, t.rounds);
        }
        for round in [&self.all_to_all, &self.broadcast] {
            counts.add_cost(round, 1);
        }
        counts
    }

    fn setup_then(&self, _crew: usize, body: &mut dyn FnMut(&mut dyn Op)) {
        let tree = small_tree(self.sizes);
        let big = big_tree(self.sizes);
        let meter = TrafficMeter::new(&tree);
        let big_meter = TrafficMeter::new(&big);
        body(&mut PaperOp {
            w: self,
            tree,
            big,
            meter,
            big_meter,
            staged: None,
            runs: None,
            round_costs: Vec::new(),
        });
    }

    fn probes(&self, _crew: usize, out: &mut Probes) {
        let sizes = self.sizes;
        out.set(
            "topology.tree_build_ms",
            quiet_secs(5, || drop(black_box(big_tree(sizes)))) * 1e3,
        );
        let big = big_tree(sizes);
        out.set(
            "topology.lca_build_ms",
            quiet_secs(5, || drop(black_box(LcaIndex::new(&big)))) * 1e3,
        );
        let lca = LcaIndex::new(&big);
        let vc = big.compute_nodes();
        let mut rng = StdRng::seed_from_u64(0x1CA_1CA);
        let pairs: Vec<(NodeId, NodeId)> = (0..1_000_000)
            .map(|_| {
                (
                    vc[rng.random_range(0..vc.len())],
                    vc[rng.random_range(0..vc.len())],
                )
            })
            .collect();
        out.set(
            "topology.lca_query_ns",
            quiet_secs(5, || {
                let mut acc = 0u32;
                for &(a, b) in &pairs {
                    acc ^= lca.lca(a, b).0;
                }
                black_box(acc);
            }) * 1e9
                / pairs.len() as f64,
        );
        out.set(
            "simulator.meter_new_ms",
            quiet_secs(5, || drop(black_box(TrafficMeter::new(&big)))) * 1e3,
        );
        let pristine = TrafficMeter::new(&big);
        out.set(
            "simulator.charge_unicast_ns",
            quiet_secs_staged(
                5,
                || pristine.clone(),
                |mut m| {
                    for &(a, b) in &pairs {
                        m.charge_unicast(a, b, 1);
                    }
                    black_box(m);
                },
            ) * 1e9
                / pairs.len() as f64,
        );
        out.set(
            "simulator.charge_multicast_us",
            quiet_secs_staged(
                5,
                || pristine.clone(),
                |mut m| {
                    m.charge_multicast(vc[0], vc, BROADCAST_AMOUNT);
                    black_box(m);
                },
            ) * 1e6,
        );
        out.set(
            "simulator.commit_round_ms",
            quiet_secs_staged(
                5,
                || {
                    let mut m = pristine.clone();
                    charge_broadcast(&mut m, vc, sizes.broadcast_sources);
                    m
                },
                |mut m| {
                    m.commit_round();
                    black_box(m);
                },
            ) * 1e3,
        );
        for (name, task) in [
            ("core.intersect_ratio", &self.intersect),
            ("core.cartesian_ratio", &self.cartesian),
            ("core.sort_ratio", &self.sort),
        ] {
            out.set(
                name,
                tamp_core::ratio(task.cost.tuple_cost(), task.lower_bound),
            );
        }
    }

    fn sizes(&self) -> Json {
        let s = self.sizes;
        Json::obj()
            .set(
                "tree",
                format!(
                    "random_tree({}, {}, 0.5, 8.0, seed {TREE_SEED})",
                    s.tree.0, s.tree.1
                ),
            )
            .set("compute_nodes", s.tree.0)
            .set("placement", "Zipf(alpha = 1.0)")
            .set("intersect_r", s.intersect.0)
            .set("intersect_s", s.intersect.1)
            .set("intersect_common", s.intersect.2)
            .set("cartesian_side", s.cartesian)
            .set("sort_n", s.sort)
            .set(
                "big_tree",
                format!("fat_tree({}, {})", s.big_tree.0, s.big_tree.1),
            )
            .set("big_compute_nodes", s.big_tree.1.pow(s.big_tree.0))
            .set("broadcast_sources", s.broadcast_sources)
    }
}
