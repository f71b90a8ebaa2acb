//! The one unit of work an [`ExecBackend`](crate::backend::ExecBackend)
//! runs: a [`Schedule`] — every send of every round, fixed before
//! anything executes — wrapped as a [`ScheduleJob`].
//!
//! Planners (the query layer's physical strategies, the fixpoint driver)
//! emit schedules; both engines replay them. Because the two replays read
//! the same sends in the same order, their traffic — and therefore their
//! metered [`Cost`](tamp_simulator::cost::Cost) — is bit-identical.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use tamp_simulator::{Rel, Value};
use tamp_topology::{NodeId, Tree};

use crate::error::RuntimeError;

/// One multicast of a precomputed communication [`Schedule`].
#[derive(Clone, Debug, Hash)]
pub struct ScheduleSend {
    /// Sending compute node.
    pub src: NodeId,
    /// Destination compute nodes (charged along the union of tree paths).
    pub dsts: Vec<NodeId>,
    /// Relation tag.
    pub rel: Rel,
    /// Shared payload; every replay and delivery clones the `Arc`, never
    /// the data.
    pub values: Arc<[Value]>,
}

/// A complete, engine-independent communication schedule: every send of
/// every round, in order. This is the unit a *planner* produces — the
/// query layer's physical strategies, for instance, each emit their
/// exchanges as schedule rounds — and [`ScheduleJob`] replays it on any
/// [`ExecBackend`](crate::backend::ExecBackend) with bit-identical
/// metered ledgers.
#[derive(Clone, Debug, Default, Hash)]
pub struct Schedule {
    /// Rounds in execution order; a round may be empty (silent rounds are
    /// still metered, matching both engines).
    pub rounds: Vec<Vec<ScheduleSend>>,
}

/// Flat CSR index over a schedule: for `(node, round)`, the indices of
/// the sends originating at `node` in that round — two flat arrays and a
/// single counting-sort pass, so the cluster's coordinator walks each
/// node's sends of a round without scanning the whole round.
///
/// The index has one row of cells per node plus one more, row
/// `num_nodes`, which collects the sends whose source is out of range;
/// `addressed` likewise marks every destination, with one extra entry
/// for the out-of-range ones. Building never fails, and
/// [`ScheduleJob::check`] refuses a job whose extra row or entry is used.
#[derive(Debug)]
struct SrcIndex {
    num_nodes: usize,
    n_rounds: usize,
    /// `offsets[node * n_rounds + round] .. offsets[.. + 1]` bounds the
    /// cell's slice in `items`.
    offsets: Vec<u32>,
    /// Send indices into `schedule.rounds[round]`, grouped by cell.
    items: Vec<u32>,
    /// `addressed[v]`: some send names node `v` as a destination.
    addressed: Vec<bool>,
}

impl SrcIndex {
    fn build(num_nodes: usize, schedule: &Schedule) -> Self {
        let n_rounds = schedule.rounds.len();
        let cell = |src: NodeId, r: usize| src.index().min(num_nodes) * n_rounds + r;
        let mut offsets = vec![0u32; (num_nodes + 1) * n_rounds + 1];
        let mut addressed = vec![false; num_nodes + 1];
        for (r, round) in schedule.rounds.iter().enumerate() {
            for send in round {
                offsets[cell(send.src, r) + 1] += 1;
                for d in &send.dsts {
                    addressed[d.index().min(num_nodes)] = true;
                }
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut items = vec![0u32; *offsets.last().unwrap() as usize];
        let mut cursor = offsets.clone();
        for (r, round) in schedule.rounds.iter().enumerate() {
            for (i, send) in round.iter().enumerate() {
                let cell = cell(send.src, r);
                items[cursor[cell] as usize] = i as u32;
                cursor[cell] += 1;
            }
        }
        SrcIndex {
            num_nodes,
            n_rounds,
            offsets,
            items,
            addressed,
        }
    }

    /// The sends of `node` in `round` (indices into the round's send
    /// list, in issue order).
    fn sends_of(&self, node: NodeId, round: usize) -> &[u32] {
        let cell = node.index() * self.n_rounds + round;
        let (lo, hi) = (self.offsets[cell] as usize, self.offsets[cell + 1] as usize);
        &self.items[lo..hi]
    }

    /// Whether any send of any round falls in `row` (a node index, or
    /// `num_nodes` for the out-of-range row): O(1) from the offsets.
    fn originates(&self, row: usize) -> bool {
        self.offsets[row * self.n_rounds] != self.offsets[(row + 1) * self.n_rounds]
    }
}

/// A [`Schedule`] ready to replay on either engine: the simulator meters
/// one [`Session`](tamp_simulator::Session) round per schedule round, the
/// cluster's coordinator meters and delivers one round per superstep
/// while its workers absorb the deliveries. Both move — and meter —
/// bit-identical traffic, because they read the same schedule.
#[derive(Clone, Debug)]
pub struct ScheduleJob {
    name: String,
    schedule: Arc<Schedule>,
    by_src: Arc<SrcIndex>,
    /// Content hash of the schedule — the checkpoint token, hashed on
    /// first request: only a backend with a checkpoint store ever asks.
    token: OnceLock<u64>,
}

impl ScheduleJob {
    /// Wrap `schedule` (over a tree of `num_nodes` nodes) as a job named
    /// `name`. Never fails: whether the schedule fits a tree is
    /// [`check`](Self::check)ed by the backend that is about to run it.
    pub fn new(name: impl Into<String>, num_nodes: usize, schedule: Schedule) -> Self {
        ScheduleJob {
            name: name.into(),
            by_src: Arc::new(SrcIndex::build(num_nodes, &schedule)),
            schedule: Arc::new(schedule),
            token: OnceLock::new(),
        }
    }

    /// Human-readable job name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rounds in the underlying schedule: one superstep each on the
    /// simulator. The cluster runs `rounds() + 1` supersteps; the extra
    /// one absorbs the last round's deliveries into the nodes' states. It
    /// is not termination detection — the length is fixed here.
    pub fn rounds(&self) -> usize {
        self.schedule.rounds.len()
    }

    /// The key a parked checkpoint is filed under: a content hash of the
    /// whole schedule (round structure, endpoints, relation tags,
    /// payloads), so two jobs share a token only if their replays are
    /// interchangeable superstep for superstep. Every job is resumable —
    /// a round's sends do not depend on what earlier rounds delivered, so
    /// a run restored from a mid-run snapshot continues with the next
    /// round.
    pub fn checkpoint_token(&self) -> u64 {
        *self.token.get_or_init(|| {
            let mut h = DefaultHasher::new();
            (self.by_src.num_nodes, &self.schedule).hash(&mut h);
            h.finish()
        })
    }

    /// Refuse to run on a tree the schedule was not built for: the node
    /// counts must agree, and every send must originate at, and be
    /// addressed to, compute nodes of `tree`. O(|V|) from the source
    /// index's marks, never a walk over the sends. Both backends call
    /// this before anything runs, so they reject the same jobs with the
    /// same error.
    pub fn check(&self, tree: &Tree) -> Result<(), RuntimeError> {
        let built_for = self.by_src.num_nodes;
        let routers = || tree.nodes().filter(|&v| !tree.is_compute(v));
        let reason = if built_for != tree.num_nodes() {
            format!(
                "built for {built_for} nodes, run on a tree of {}",
                tree.num_nodes()
            )
        } else if self.by_src.originates(built_for) {
            format!("a send originates outside its {built_for} nodes")
        } else if self.by_src.addressed[built_for] {
            format!("a send is addressed outside its {built_for} nodes")
        } else if let Some(v) = routers().find(|v| self.by_src.originates(v.index())) {
            format!("a send originates at {v}, which is not a compute node")
        } else if let Some(v) = routers().find(|v| self.by_src.addressed[v.index()]) {
            format!("a send is addressed to {v}, which is not a compute node")
        } else {
            return Ok(());
        };
        Err(RuntimeError::ScheduleMismatch {
            job: self.name.clone(),
            reason,
        })
    }

    /// The schedule, for the simulator's round loop.
    pub(crate) fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Node `v`'s sends of `round`, in issue order: what the cluster's
    /// coordinator meters and delivers for `v`.
    pub(crate) fn sends_of(&self, v: NodeId, round: usize) -> impl Iterator<Item = &ScheduleSend> {
        let sends = &self.schedule.rounds[round];
        self.by_src
            .sends_of(v, round)
            .iter()
            .map(move |&i| &sends[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecBackend, PooledClusterBackend, SimulatorBackend};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tamp_simulator::{NodeState, Placement};
    use tamp_topology::builders;

    #[test]
    fn src_index_groups_by_node_and_round() {
        let mk = |src: u32, n: u64| ScheduleSend {
            src: NodeId(src),
            dsts: vec![NodeId(0)],
            rel: Rel::R,
            values: vec![n].into(),
        };
        let schedule = Schedule {
            rounds: vec![vec![mk(2, 0), mk(0, 1), mk(2, 2)], vec![], vec![mk(1, 3)]],
        };
        let idx = super::SrcIndex::build(3, &schedule);
        assert_eq!(idx.sends_of(NodeId(2), 0), &[0, 2]);
        assert_eq!(idx.sends_of(NodeId(0), 0), &[1]);
        assert_eq!(idx.sends_of(NodeId(1), 0), &[] as &[u32]);
        assert_eq!(idx.sends_of(NodeId(0), 1), &[] as &[u32]);
        assert_eq!(idx.sends_of(NodeId(1), 2), &[0]);
        assert!(idx.originates(1) && !idx.originates(3));
        assert_eq!(idx.addressed, [true, false, false, false]);
        // Built for two nodes, node 2's sends land in the extra row.
        let idx = super::SrcIndex::build(2, &schedule);
        assert_eq!(idx.sends_of(NodeId(2), 0), &[0, 2]);
        assert!(idx.originates(2));
    }

    #[test]
    fn long_schedule_replay_outlives_the_default_runaway_cap() {
        // An 80-round replay runs to completion: the cluster's superstep
        // count is the job's length plus the absorbing superstep.
        let tree = builders::star(3, 1.0);
        let vc = tree.compute_nodes().to_vec();
        let rounds: Vec<Vec<ScheduleSend>> = (0..80u64)
            .map(|r| {
                vec![ScheduleSend {
                    src: vc[(r % 3) as usize],
                    dsts: vec![vc[((r + 1) % 3) as usize]],
                    rel: Rel::R,
                    values: vec![r].into(),
                }]
            })
            .collect();
        let job = ScheduleJob::new("long-replay", tree.num_nodes(), Schedule { rounds });
        assert_eq!(job.rounds(), 80);
        let p = Placement::empty(&tree);
        let sim = SimulatorBackend.execute(&tree, &p, &job).unwrap();
        let rt = PooledClusterBackend::default()
            .execute(&tree, &p, &job)
            .unwrap();
        assert_eq!(sim.cost.edge_totals, rt.cost.edge_totals);
        assert_eq!((sim.rounds, rt.rounds, rt.supersteps), (80, 80, 81));
    }

    /// A random job of 2–4 rounds on a random tree: up to 12 sends per
    /// round, sources in random order, 0–4 destinations drawn with
    /// repetition (the source included), about one round in four empty.
    fn random_job(seed: u64) -> (Tree, Placement, ScheduleJob) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = builders::random_tree(
            rng.random_range(2..8usize),
            rng.random_range(1..4usize),
            0.5,
            8.0,
            seed ^ 0xC1,
        );
        let vc = tree.compute_nodes();
        let mut p = Placement::empty(&tree);
        for &v in vc {
            p.set_r(v, (0..rng.random_range(0..3u64)).collect());
        }
        let mut next = 100u64;
        let rounds = (0..rng.random_range(2..5usize))
            .map(|_| {
                let sends = match rng.random_range(0..4u32) {
                    0 => 0,
                    _ => rng.random_range(1..13usize),
                };
                (0..sends)
                    .map(|_| {
                        let dsts = (0..rng.random_range(0..5usize))
                            .map(|_| vc[rng.random_range(0..vc.len())])
                            .collect();
                        next += 10;
                        ScheduleSend {
                            src: vc[rng.random_range(0..vc.len())],
                            dsts,
                            rel: if rng.random_bool(0.5) { Rel::R } else { Rel::S },
                            values: (next..next + rng.random_range(0..4u64)).collect(),
                        }
                    })
                    .collect()
            })
            .collect();
        let job = ScheduleJob::new("random", tree.num_nodes(), Schedule { rounds });
        (tree, p, job)
    }

    /// The cluster's delivery, by definition: per round, sources
    /// ascending, each source's sends in issue order, one payload per
    /// destination occurrence.
    fn delivered(p: &Placement, schedule: &Schedule) -> Vec<NodeState> {
        let mut want = p.fragments().to_vec();
        for round in &schedule.rounds {
            let mut sends: Vec<&ScheduleSend> = round.iter().collect();
            sends.sort_by_key(|s| s.src.index()); // stable: issue order stays
            for s in sends {
                for d in &s.dsts {
                    want[d.index()].rel_mut(s.rel).extend_from_slice(&s.values);
                }
            }
        }
        want
    }

    fn sorted(state: &NodeState) -> (Vec<Value>, Vec<Value>) {
        let (mut r, mut s) = (state.r.clone(), state.s.clone());
        r.sort_unstable();
        s.sort_unstable();
        (r, s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Widths 1 and 3, and twice on one shared pool of 2: an inbox
        /// or outbox that kept a previous superstep's contents delivers
        /// twice and breaks the ordered comparison.
        #[test]
        fn cluster_delivery_matches_its_definition_at_every_width(seed in 0u64..1_000_000) {
            let (tree, p, job) = random_job(seed);
            let want = delivered(&p, job.schedule());
            let sim = SimulatorBackend.execute(&tree, &p, &job).unwrap();
            let shared = PooledClusterBackend::with_shared_pool(2);
            for backend in [
                PooledClusterBackend::with_workers(1),
                PooledClusterBackend::with_workers(3),
                shared.clone(),
                shared,
            ] {
                let run = backend.execute(&tree, &p, &job).unwrap();
                prop_assert_eq!(run.final_state, want);
                prop_assert_eq!(run.cost.edge_totals, sim.cost.edge_totals);
                prop_assert_eq!(run.cost.per_round, sim.cost.per_round);
                for (got, sim) in run.final_state.iter().zip(&sim.final_state) {
                    prop_assert_eq!(sorted(got), sorted(sim));
                }
            }
        }
    }
}
