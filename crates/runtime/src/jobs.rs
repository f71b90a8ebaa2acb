//! Paired [`ExecJob`]s for the protocols this repository ships in both
//! centralized and distributed form.
//!
//! Each constructor bundles a `tamp-core` protocol with its
//! [`programs`](crate::programs) counterpart under one name, so drivers
//! (tests, benches, the experiment harness) run them on any
//! [`ExecBackend`](crate::backend::ExecBackend) through a single API.
//! The pairs are plan-deterministic: both views derive the same plan from
//! shared knowledge plus the seed, so their traffic — and therefore their
//! metered [`Cost`](tamp_simulator::cost::Cost) — is bit-identical.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use tamp_core::aggregate::{Aggregator, CombiningTreeAggregate, HashGroupBy};
use tamp_core::cartesian::TreeCartesianProduct;
use tamp_core::intersection::TreeIntersect;
use tamp_core::sorting::WeightedTeraSort;
use tamp_simulator::{NodeState, Rel, Session, SimError, Value};
use tamp_topology::NodeId;

use crate::backend::{CentralizedView, ExecJob, PairedJob};
use crate::cluster::NodeProgram;
use crate::message::{Outbox, Step};
use crate::programs::{
    DistributedCartesian, DistributedCombiningAggregate, DistributedGroupBy,
    DistributedTreeIntersect, DistributedWts,
};
use crate::NodeCtx;

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
/// single counting-sort pass, so each distributed replay program touches
/// only its own sends instead of scanning whole rounds every superstep.
#[derive(Debug)]
struct SrcIndex {
    n_rounds: usize,
    /// `offsets[node * n_rounds + round] .. offsets[.. + 1]` bounds the
    /// cell's slice in `items`.
    offsets: Vec<u32>,
    /// Send indices into `schedule.rounds[round]`, grouped by cell.
    items: Vec<u32>,
}

impl SrcIndex {
    fn build(num_nodes: usize, schedule: &Schedule) -> Self {
        let n_rounds = schedule.rounds.len();
        let cells = num_nodes * n_rounds;
        let mut offsets = vec![0u32; cells + 1];
        for (r, round) in schedule.rounds.iter().enumerate() {
            for send in round {
                offsets[send.src.index() * n_rounds + r + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut items = vec![0u32; *offsets.last().unwrap() as usize];
        let mut cursor = offsets.clone();
        for (r, round) in schedule.rounds.iter().enumerate() {
            for (i, send) in round.iter().enumerate() {
                let cell = send.src.index() * n_rounds + r;
                items[cursor[cell] as usize] = i as u32;
                cursor[cell] += 1;
            }
        }
        SrcIndex {
            n_rounds,
            offsets,
            items,
        }
    }

    /// The sends of `node` in `round` (indices into the round's send
    /// list, in issue order).
    fn sends_of(&self, node: NodeId, round: usize) -> &[u32] {
        let cell = node.index() * self.n_rounds + round;
        let (lo, hi) = (self.offsets[cell] as usize, self.offsets[cell + 1] as usize);
        &self.items[lo..hi]
    }
}

/// An [`ExecJob`] replaying a [`Schedule`] on either engine: the
/// centralized view drives one metered [`Session`] round per schedule
/// round, the distributed view hands each node a program emitting exactly
/// its own sends superstep by superstep. Both views move — and meter —
/// bit-identical traffic, because they read the same schedule.
#[derive(Clone, Debug)]
pub struct ScheduleJob {
    name: String,
    num_nodes: usize,
    schedule: Arc<Schedule>,
    by_src: Arc<SrcIndex>,
    /// Content hash of the schedule — the checkpoint token (see
    /// [`ExecJob::checkpoint_token`]), hashed on first request: only a
    /// backend with a checkpoint store ever asks.
    token: OnceLock<u64>,
}

impl ScheduleJob {
    /// Wrap `schedule` (over a tree of `num_nodes` nodes) as a job named
    /// `name`.
    pub fn new(name: impl Into<String>, num_nodes: usize, schedule: Schedule) -> Self {
        ScheduleJob {
            name: name.into(),
            num_nodes,
            by_src: Arc::new(SrcIndex::build(num_nodes, &schedule)),
            schedule: Arc::new(schedule),
            token: OnceLock::new(),
        }
    }

    /// Rounds in the underlying schedule.
    pub fn rounds(&self) -> usize {
        self.schedule.rounds.len()
    }
}

impl ExecJob for ScheduleJob {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn centralized(&self) -> Option<Box<dyn CentralizedView + '_>> {
        Some(Box::new(CentralReplay(&self.schedule)))
    }

    fn distributed(&self, v: NodeId) -> Option<Box<dyn NodeProgram>> {
        Some(Box::new(NodeReplay {
            schedule: Arc::clone(&self.schedule),
            by_src: Arc::clone(&self.by_src),
            node: v,
        }))
    }

    /// Schedule replay is stateless per round (the replaying node
    /// program reads only `ctx.round`), so it is resumable. The token
    /// hashes the schedule's full content (round structure, endpoints,
    /// relation tags, payloads): two schedules share one only if their
    /// replays are interchangeable superstep for superstep.
    fn checkpoint_token(&self) -> Option<u64> {
        Some(*self.token.get_or_init(|| {
            let mut h = DefaultHasher::new();
            (self.num_nodes, &self.schedule).hash(&mut h);
            h.finish()
        }))
    }

    /// A replay halts after exactly one superstep per schedule round
    /// (plus the engine's terminal barrier).
    fn superstep_hint(&self) -> Option<usize> {
        Some(self.schedule.rounds.len())
    }
}

/// Centralized replay: one [`Session`] round per schedule round.
struct CentralReplay<'t>(&'t Schedule);

impl CentralizedView for CentralReplay<'_> {
    fn run(&self, session: &mut Session<'_>) -> Result<(), SimError> {
        for round in &self.0.rounds {
            session.round(|r| {
                for s in round {
                    r.send_shared(s.src, &s.dsts, s.rel, Arc::clone(&s.values))?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }
}

/// Distributed replay: node `node` emits its own sends each superstep and
/// halts once the schedule is exhausted.
struct NodeReplay {
    schedule: Arc<Schedule>,
    by_src: Arc<SrcIndex>,
    node: NodeId,
}

impl NodeProgram for NodeReplay {
    fn round(&mut self, ctx: &NodeCtx<'_>, _state: &mut NodeState, out: &mut Outbox) -> Step {
        if ctx.round < self.schedule.rounds.len() {
            for &i in self.by_src.sends_of(self.node, ctx.round) {
                let s = &self.schedule.rounds[ctx.round][i as usize];
                out.send(&s.dsts, s.rel, Arc::clone(&s.values));
            }
            Step::Continue
        } else {
            Step::Halt
        }
    }
}

/// The seeded one-round set-intersection pair (Theorem 2).
pub fn tree_intersect(
    seed: u64,
) -> PairedJob<TreeIntersect, impl Fn(NodeId) -> Box<dyn NodeProgram>> {
    PairedJob::new("tree-intersect", TreeIntersect::new(seed), move |_| {
        Box::new(DistributedTreeIntersect::new(seed)) as Box<dyn NodeProgram>
    })
}

/// The weighted TeraSort pair (§5.2).
pub fn weighted_terasort(
    seed: u64,
) -> PairedJob<WeightedTeraSort, impl Fn(NodeId) -> Box<dyn NodeProgram>> {
    PairedJob::new(
        "weighted-terasort",
        WeightedTeraSort::new(seed),
        move |_| Box::new(DistributedWts::new(seed)) as Box<dyn NodeProgram>,
    )
}

/// The deterministic tree cartesian-product pair (§4.4).
pub fn tree_cartesian() -> PairedJob<TreeCartesianProduct, impl Fn(NodeId) -> Box<dyn NodeProgram>>
{
    PairedJob::new("tree-cartesian", TreeCartesianProduct::new(), move |_| {
        Box::new(DistributedCartesian::new()) as Box<dyn NodeProgram>
    })
}

/// The combining tree-aggregation pair.
pub fn combining_aggregate(
    target: NodeId,
    agg: Aggregator,
) -> PairedJob<CombiningTreeAggregate, impl Fn(NodeId) -> Box<dyn NodeProgram>> {
    PairedJob::new(
        "combining-aggregate",
        CombiningTreeAggregate::new(target, agg),
        move |_| Box::new(DistributedCombiningAggregate::new(target, agg)) as Box<dyn NodeProgram>,
    )
}

/// The weighted hash group-by pair.
pub fn hash_groupby(
    seed: u64,
    agg: Aggregator,
) -> PairedJob<HashGroupBy, impl Fn(NodeId) -> Box<dyn NodeProgram>> {
    PairedJob::new("hash-groupby", HashGroupBy::new(seed, agg), move |_| {
        Box::new(DistributedGroupBy::new(seed, agg)) as Box<dyn NodeProgram>
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{standard_backends, ExecOutcome};
    use tamp_simulator::{Placement, Rel};
    use tamp_topology::builders;

    fn check_parity(tree: &tamp_topology::Tree, p: &Placement, job: &dyn crate::backend::ExecJob) {
        let outcomes: Vec<ExecOutcome> = standard_backends()
            .iter()
            .map(|b| b.execute(tree, p, job).unwrap())
            .collect();
        assert_eq!(
            outcomes[0].cost.edge_totals,
            outcomes[1].cost.edge_totals,
            "job {}",
            job.name()
        );
        assert_eq!(outcomes[0].rounds, outcomes[1].rounds, "job {}", job.name());
    }

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
    }

    #[test]
    fn shipped_pairs_agree_on_every_backend() {
        let tree = builders::rack_tree(&[(2, 1.0, 2.0), (3, 2.0, 1.0)], 1.0);
        let vc = tree.compute_nodes().to_vec();

        // Intersection: two relations, values distinct within each.
        let mut p = Placement::empty(&tree);
        for x in 0..120u64 {
            p.push(vc[(x % vc.len() as u64) as usize], Rel::R, x);
            p.push(vc[(x % 3) as usize], Rel::S, 60 + x);
        }
        check_parity(&tree, &p, &tree_intersect(7));

        // Sorting: one relation of distinct keys.
        let mut p = Placement::empty(&tree);
        for x in 0..200u64 {
            p.push(
                vc[(x % vc.len() as u64) as usize],
                Rel::R,
                tamp_core::hashing::mix64(x),
            );
        }
        check_parity(&tree, &p, &weighted_terasort(7));
    }

    #[test]
    fn long_schedule_replay_outlives_the_default_runaway_cap() {
        // A declared-finite replay longer than the cluster's default
        // `max_supersteps` (64) must run to completion, not be aborted
        // as non-halting: `superstep_hint` raises the cap for it.
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
        assert_eq!(job.superstep_hint(), Some(80));
        check_parity(&tree, &Placement::empty(&tree), &job);
    }
}
