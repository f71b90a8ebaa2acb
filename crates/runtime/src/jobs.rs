//! The one unit of work an [`ExecBackend`](crate::backend::ExecBackend)
//! runs: a [`Schedule`] — every send of every round, fixed before
//! anything executes — wrapped as a [`ScheduleJob`].
//!
//! Planners (the query layer's physical strategies, the fixpoint driver)
//! emit schedules; both engines replay them. A schedule fixes who sends
//! how many tuples to whom in every round, so its metered
//! [`Cost`] is a function of the schedule and the tree alone: the job
//! prices it once per tree (`ScheduleJob::ledger`) and both engines
//! hand back that one ledger. What an engine does itself is move data:
//! it appends each node's deliveries, read from the job's per-destination
//! index, to the node's state. A send holds [`SharedSlice`]s, so a planner
//! can cut a whole round's sends from shared buffers.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use tamp_simulator::cost::Cost;
use tamp_simulator::{NodeState, Placement, Rel, SharedSlice, TrafficMeter, Value};
use tamp_topology::{NodeId, Tree};

use crate::error::RuntimeError;

/// One multicast of a precomputed communication [`Schedule`].
#[derive(Clone, Debug, Hash)]
pub struct ScheduleSend {
    /// Sending compute node.
    pub src: NodeId,
    /// Destination compute nodes (charged along the union of tree paths),
    /// a range of a buffer other sends may share.
    pub dsts: SharedSlice<NodeId>,
    /// Relation tag.
    pub rel: Rel,
    /// Payload, a range of a buffer other sends may share; a replay reads
    /// it in place and copies it only into the receiving fragments.
    pub values: SharedSlice<Value>,
}

/// A complete, engine-independent communication schedule: every send of
/// every round, in order. This is the unit a *planner* produces — the
/// query layer's physical strategies, for instance, each emit their
/// exchanges as schedule rounds — and [`ScheduleJob`] replays it on any
/// [`ExecBackend`](crate::backend::ExecBackend) with one metered ledger.
#[derive(Clone, Debug, Default, Hash)]
pub struct Schedule {
    /// Rounds in execution order; a round may be empty (silent rounds are
    /// still metered).
    pub rounds: Vec<Vec<ScheduleSend>>,
}

/// Destination-major CSR index over a schedule: for `(node, round)`, the
/// indices of the sends that deliver to `node` in that round, in delivery
/// order — sources ascending, each source's sends in issue order, one
/// entry per occurrence of `node` in a destination list. Two flat arrays,
/// built by one counting-sort pass over the sends grouped by source.
///
/// The index has one row of cells per node plus one more, row
/// `num_nodes`, which collects the deliveries to out-of-range nodes;
/// `sources` and `addressed` likewise mark every source and destination,
/// with one extra entry for the out-of-range ones. Building never fails,
/// and [`ScheduleJob::check`] refuses a job whose extra row or entry is
/// used.
#[derive(Debug)]
struct DeliveryIndex {
    num_nodes: usize,
    n_rounds: usize,
    /// `offsets[node * n_rounds + round] .. offsets[.. + 1]` bounds the
    /// cell's slice in `items`.
    offsets: Vec<u32>,
    /// Send indices into `schedule.rounds[round]`, grouped by cell.
    items: Vec<u32>,
    /// `sources[v]`: some send originates at node `v`.
    sources: Vec<bool>,
    /// `addressed[v]`: some send names node `v` as a destination.
    addressed: Vec<bool>,
}

impl DeliveryIndex {
    fn build(num_nodes: usize, schedule: &Schedule) -> Self {
        let n_rounds = schedule.rounds.len();
        let row = |v: NodeId| v.index().min(num_nodes);
        let cell = |v: NodeId, r: usize| row(v) * n_rounds + r;
        let mut by_src = vec![0u32; num_nodes + 2];
        let mut offsets = vec![0u32; (num_nodes + 1) * n_rounds + 1];
        let mut addressed = vec![false; num_nodes + 1];
        for (r, round) in schedule.rounds.iter().enumerate() {
            for send in round {
                by_src[row(send.src) + 1] += 1;
                for &d in send.dsts.iter() {
                    addressed[row(d)] = true;
                    offsets[cell(d, r) + 1] += 1;
                }
            }
        }
        let sources = by_src[1..].iter().map(|&c| c > 0).collect();
        for counts in [&mut by_src, &mut offsets] {
            for i in 1..counts.len() {
                counts[i] += counts[i - 1];
            }
        }
        // The sends grouped by source, each source's in `(round, issue)`
        // order: filling the cells in this order puts every cell's
        // sources ascending.
        let mut grouped = vec![(0u32, 0u32); by_src[num_nodes + 1] as usize];
        for (r, round) in schedule.rounds.iter().enumerate() {
            for (i, send) in round.iter().enumerate() {
                let slot = &mut by_src[row(send.src)];
                grouped[*slot as usize] = (r as u32, i as u32);
                *slot += 1;
            }
        }
        let mut items = vec![0u32; *offsets.last().unwrap() as usize];
        let mut cursor = offsets.clone();
        for (r, i) in grouped {
            let r = r as usize;
            for &d in schedule.rounds[r][i as usize].dsts.iter() {
                let c = &mut cursor[cell(d, r)];
                items[*c as usize] = i;
                *c += 1;
            }
        }
        DeliveryIndex {
            num_nodes,
            n_rounds,
            offsets,
            items,
            sources,
            addressed,
        }
    }

    /// The sends delivering to `node` in `round` (indices into the
    /// round's send list, in delivery order).
    fn to(&self, node: NodeId, round: usize) -> &[u32] {
        let cell = node.index() * self.n_rounds + round;
        let (lo, hi) = (self.offsets[cell] as usize, self.offsets[cell + 1] as usize);
        &self.items[lo..hi]
    }
}

/// A [`Schedule`] ready to replay on either engine: both append each
/// node's deliveries from the job's per-destination index — the
/// simulator every round at once, the cluster a window of rounds a wake —
/// and both return the job's ledger, metered once per tree.
#[derive(Clone, Debug)]
pub struct ScheduleJob {
    name: String,
    schedule: Arc<Schedule>,
    index: Arc<DeliveryIndex>,
    /// The ledger on the first tree it was priced on, keyed by that
    /// tree's [`Tree::fingerprint`]; clones share it.
    ledger: Arc<OnceLock<(u64, Cost)>>,
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
            index: Arc::new(DeliveryIndex::build(num_nodes, &schedule)),
            schedule: Arc::new(schedule),
            ledger: Arc::default(),
            token: OnceLock::new(),
        }
    }

    /// Human-readable job name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rounds in the underlying schedule: one superstep each on the
    /// simulator. The cluster runs `rounds() + 1` logical supersteps, not
    /// wakes; the extra one absorbs the last round's deliveries. It is
    /// not termination detection — the length is fixed here.
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
            (self.index.num_nodes, &self.schedule).hash(&mut h);
            h.finish()
        })
    }

    /// Refuse to run on a tree the schedule was not built for: the node
    /// counts must agree, and every send must originate at, and be
    /// addressed to, compute nodes of `tree`. O(|V|) from the index's
    /// source and destination marks, never a walk over the sends. Both
    /// backends call this before anything runs, so they reject the same
    /// jobs with the same error.
    pub fn check(&self, tree: &Tree) -> Result<(), RuntimeError> {
        let DeliveryIndex {
            num_nodes,
            sources,
            addressed,
            ..
        } = &*self.index;
        let built_for = *num_nodes;
        let routers = || tree.nodes().filter(|&v| !tree.is_compute(v));
        let reason = if built_for != tree.num_nodes() {
            format!(
                "built for {built_for} nodes, run on a tree of {}",
                tree.num_nodes()
            )
        } else if sources[built_for] {
            format!("a send originates outside its {built_for} nodes")
        } else if addressed[built_for] {
            format!("a send is addressed outside its {built_for} nodes")
        } else if let Some(v) = routers().find(|v| sources[v.index()]) {
            format!("a send originates at {v}, which is not a compute node")
        } else if let Some(v) = routers().find(|v| addressed[v.index()]) {
            format!("a send is addressed to {v}, which is not a compute node")
        } else {
            return Ok(());
        };
        Err(RuntimeError::ScheduleMismatch {
            job: self.name.clone(),
            reason,
        })
    }

    /// The schedule's metered ledger on `tree`: each send charged as one
    /// union-of-paths multicast, every round committed, silent ones
    /// included. It is a pure function of `(schedule, tree)`, so it is
    /// metered once and cached under `tree`'s fingerprint; a run on
    /// another tree (one a `degrade_link` re-weighted, say) meters afresh
    /// and leaves the cached entry alone. The caller has
    /// [`check`](Self::check)ed the job against `tree`.
    pub(crate) fn ledger(&self, tree: &Tree) -> Cost {
        let key = tree.fingerprint();
        let (cached_for, cost) = self.ledger.get_or_init(|| (key, self.meter(tree)));
        if *cached_for == key {
            cost.clone()
        } else {
            self.meter(tree)
        }
    }

    fn meter(&self, tree: &Tree) -> Cost {
        let mut meter = TrafficMeter::new(tree);
        for round in &self.schedule.rounds {
            for send in round {
                meter.charge_multicast(send.src, &send.dsts, send.values.len() as u64);
            }
            meter.commit_round();
        }
        meter.finish()
    }

    /// Append to `state` every payload delivered to node `v` in `rounds`,
    /// rounds ascending and each round in delivery order (see
    /// `DeliveryIndex`), growing each fragment once.
    pub(crate) fn deliver(&self, v: NodeId, rounds: Range<usize>, state: &mut NodeState) {
        let deliveries = || {
            rounds.clone().flat_map(move |r| {
                let sends = &self.schedule.rounds[r];
                self.index.to(v, r).iter().map(move |&i| &sends[i as usize])
            })
        };
        let mut incoming = [0usize; 2];
        for send in deliveries() {
            incoming[send.rel as usize] += send.values.len();
        }
        state.r.reserve(incoming[0]);
        state.s.reserve(incoming[1]);
        for send in deliveries() {
            state.rel_mut(send.rel).extend_from_slice(&send.values);
        }
    }
}

/// The digest of its run's placement a parked checkpoint is filed with:
/// the token names the schedule, not the inputs it ran on.
pub(crate) fn placement_digest(placement: &Placement) -> u64 {
    let mut h = DefaultHasher::new();
    placement.fragments().hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecBackend, PooledClusterBackend, SimulatorBackend};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tamp_simulator::{run_protocol, Placement, Protocol, Session, SimError};
    use tamp_topology::{builders, EdgeId};

    #[test]
    fn delivery_index_groups_by_destination_and_round() {
        let mk = |src: u32, dsts: &[u32], n: u64| ScheduleSend {
            src: NodeId(src),
            dsts: dsts.iter().map(|&d| NodeId(d)).collect::<Vec<_>>().into(),
            rel: Rel::R,
            values: vec![n].into(),
        };
        let schedule = Schedule {
            rounds: vec![
                vec![mk(2, &[0], 0), mk(0, &[0, 1, 0], 1), mk(2, &[1, 0], 2)],
                vec![],
                vec![mk(1, &[2], 3)],
            ],
        };
        let idx = super::DeliveryIndex::build(3, &schedule);
        // Sources ascending, issue order within a source, one entry per
        // occurrence.
        assert_eq!(idx.to(NodeId(0), 0), &[1, 1, 0, 2]);
        assert_eq!(idx.to(NodeId(1), 0), &[1, 2]);
        assert_eq!(idx.to(NodeId(2), 0), &[] as &[u32]);
        assert_eq!(idx.to(NodeId(0), 1), &[] as &[u32]);
        assert_eq!(idx.to(NodeId(2), 2), &[0]);
        assert_eq!(idx.sources, [true, true, true, false]);
        assert_eq!(idx.addressed, [true, true, true, false]);
        // Built for two nodes, node 2's sends and deliveries land in the
        // extra row.
        let idx = super::DeliveryIndex::build(2, &schedule);
        assert_eq!(idx.to(NodeId(2), 2), &[0]);
        assert_eq!(idx.sources, [true, true, true]);
        assert_eq!(idx.addressed, [true, true, true]);
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
                    dsts: vec![vc[((r + 1) % 3) as usize]].into(),
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
                        let dsts: Vec<_> = (0..rng.random_range(0..5usize))
                            .map(|_| vc[rng.random_range(0..vc.len())])
                            .collect();
                        next += 10;
                        ScheduleSend {
                            src: vc[rng.random_range(0..vc.len())],
                            dsts: dsts.into(),
                            rel: if rng.random_bool(0.5) { Rel::R } else { Rel::S },
                            values: (next..next + rng.random_range(0..4u64))
                                .collect::<Vec<_>>()
                                .into(),
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
                for d in s.dsts.iter() {
                    want[d.index()].rel_mut(s.rel).extend_from_slice(&s.values);
                }
            }
        }
        want
    }

    /// The schedule priced by a second path: a [`Session`] replaying
    /// every send through `send`.
    fn session_cost(tree: &Tree, p: &Placement, schedule: &Schedule) -> Cost {
        struct Replay<'a>(&'a Schedule);
        impl Protocol for Replay<'_> {
            type Output = ();
            fn name(&self) -> String {
                "replay".into()
            }
            fn run(&self, session: &mut Session<'_>) -> Result<(), SimError> {
                for round in &self.0.rounds {
                    session.round(|r| {
                        for s in round {
                            r.send(s.src, &s.dsts, s.rel, &s.values)?;
                        }
                        Ok(())
                    })?;
                }
                Ok(())
            }
        }
        run_protocol(tree, p, &Replay(schedule)).unwrap().cost
    }

    /// One schedule built two ways — a fresh `Vec` per send, and every
    /// send cut from one payload buffer and one buffer of destinations —
    /// has one checkpoint token and one replay.
    #[test]
    fn a_schedule_cut_from_shared_buffers_keeps_its_token() {
        let tree = builders::star(4, 1.0);
        let vc = tree.compute_nodes();
        let payload: Arc<[Value]> = (0..14).collect();
        let nodes: Arc<[NodeId]> = vc.into();
        // Node i sends values 3i..3i+3 to node i+1; node 3 sends the
        // last two to everyone.
        let span = |i: usize| match i {
            3 => (9..11, 0..4),
            _ => (3 * i..3 * i + 3, i + 1..i + 2),
        };
        let per_send = |i: usize| {
            let (cells, dsts) = span(i);
            ScheduleSend {
                src: vc[i],
                dsts: vc[dsts].to_vec().into(),
                rel: Rel::S,
                values: payload[cells].to_vec().into(),
            }
        };
        let shared = |i: usize| {
            let (cells, dsts) = span(i);
            ScheduleSend {
                src: vc[i],
                dsts: SharedSlice::new(nodes.clone(), dsts),
                rel: Rel::S,
                values: SharedSlice::new(payload.clone(), cells),
            }
        };
        let job = |send: &dyn Fn(usize) -> ScheduleSend| {
            let rounds = vec![(0..4).map(send).collect(), vec![], vec![send(1)]];
            ScheduleJob::new("cut", tree.num_nodes(), Schedule { rounds })
        };
        let (owned, cut) = (job(&per_send), job(&shared));
        assert_eq!(owned.checkpoint_token(), cut.checkpoint_token());
        let p = Placement::empty(&tree);
        let (a, b) = (
            SimulatorBackend.execute(&tree, &p, &owned).unwrap(),
            PooledClusterBackend::default()
                .execute(&tree, &p, &cut)
                .unwrap(),
        );
        assert_eq!(a.final_state, b.final_state);
        assert_eq!(a.cost.edge_totals, b.cost.edge_totals);
        assert_eq!(b.final_state[vc[2].index()].s, [3, 4, 5, 9, 10, 3, 4, 5]);
    }

    #[test]
    fn ledger_is_priced_per_tree() {
        // Priced on T, on T with one edge scaled, then on T again: each
        // ledger is that tree's, never a cached one of another tree.
        let tree = builders::star(4, 1.0);
        let send = |src: u32, dsts: &[NodeId], n: u64| ScheduleSend {
            src: NodeId(src),
            dsts: dsts.into(),
            rel: Rel::S,
            values: (0..n).collect::<Vec<_>>().into(),
        };
        let rounds = vec![
            vec![send(0, tree.compute_nodes(), 5)],
            vec![],
            vec![send(2, &[NodeId(1)], 3)],
        ];
        let job = ScheduleJob::new("priced", tree.num_nodes(), Schedule { rounds });
        let p = Placement::empty(&tree);
        // Edge 0 is leaf 0's link, which round 0's broadcast crosses.
        let mut scaled = tree.clone();
        scaled.scale_bandwidth(EdgeId(0), 4.0).unwrap();
        let runs: Vec<Cost> = [&tree, &scaled, &tree]
            .into_iter()
            .map(|t| {
                let got = job.ledger(t);
                let want = session_cost(t, &p, &job.schedule);
                assert_eq!(got.per_round, want.per_round);
                assert_eq!(got.edge_totals, want.edge_totals);
                got
            })
            .collect();
        assert!(runs[0].edge_totals.iter().any(|&t| t > 0));
        assert_ne!(runs[1].per_round, runs[0].per_round);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Widths 1 and 3, and twice on one shared pool of 2: a
        /// superstep that kept a previous one's deliveries delivers twice
        /// and breaks the ordered comparison. Both engines share the
        /// job's ledger, so it is checked against a `Session` replay.
        #[test]
        fn cluster_delivery_matches_its_definition_at_every_width(seed in 0u64..1_000_000) {
            let (tree, p, job) = random_job(seed);
            let want = delivered(&p, &job.schedule);
            let priced = session_cost(&tree, &p, &job.schedule);
            let shared = PooledClusterBackend::with_shared_pool(2);
            let backends: [&dyn ExecBackend; 5] = [
                &SimulatorBackend,
                &PooledClusterBackend::with_workers(1),
                &PooledClusterBackend::with_workers(3),
                &shared,
                &shared,
            ];
            for backend in backends {
                let run = backend.execute(&tree, &p, &job).unwrap();
                prop_assert_eq!(&run.final_state, &want);
                prop_assert_eq!(&run.cost.edge_totals, &priced.edge_totals);
                prop_assert_eq!(&run.cost.per_round, &priced.per_round);
            }
        }
    }
}
