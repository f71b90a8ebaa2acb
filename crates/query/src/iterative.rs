//! Iterative graph analytics: a convergence-driven fixpoint driver over
//! the exchange fabric.
//!
//! Everything the engine could run before this module was one-shot — a
//! relational query or a single §2 protocol. Iterative analytics
//! (PageRank, BFS, connected components) run the *same* per-iteration
//! plan many times: scatter values along graph edges (the weighted
//! repartition shape), then combine a convergence aggregate up the tree
//! (the combining-tree convergecast shape). This module packages that
//! loop so it runs on any [`ExecBackend`] with bit-identical results:
//!
//! - [`IterativeJob`] describes the fixpoint: an edge relation, a vertex
//!   → owner map (see `tamp_workloads::GraphSpec` for generators), an
//!   algorithm, and an [`IterativeSpec`] (iteration budget, tolerance,
//!   [`IterMode`]).
//! - [`IterativeJob::prepare`] runs the whole fixpoint *locally and
//!   deterministically*, emitting one width-invariant
//!   [`Schedule`] slice per iteration: a scatter round of per-owner-pair
//!   pre-combined width-2 rows, followed by the combining-tree rounds
//!   that convergecast the iteration's residual to the valid-order
//!   target. Convergence is decided **only from the returned aggregate**
//!   — the residual the convergecast actually delivers at the target —
//!   so every backend replays the identical schedule and the fixpoint
//!   never depends on who executes it.
//! - A [`PreparedIterative`] is a replay-ready job, not its ingredients:
//!   `prepare` builds the [`ScheduleJob`] once and
//!   [`PreparedIterative::run_on`] hands that same job to the backend on
//!   every replay (so the cluster's checkpoint/recovery machinery
//!   applies: a service built with
//!   [`ServiceBuilder::checkpoints`](crate::service::ServiceBuilder::checkpoints)
//!   at the job's [`rounds_per_iteration`](PreparedIterative::rounds_per_iteration)
//!   snapshots exactly on iteration barriers, so a killed fixpoint resumes
//!   from the last completed iteration). That is what makes it
//!   cacheable — the serving layer keys it on the job's fingerprint and
//!   the tree's (see [`crate::service`]) — and why it replays only on
//!   the tree it was prepared on: any other tree is a typed error.
//!   `run_on` slices the metered ledger back into per-iteration costs
//!   and returns an [`IterativeOutcome`] whose
//!   [`explain_analyze`](IterativeOutcome::explain_analyze) prints the
//!   per-iteration table: estimated vs metered vs the per-cut lower
//!   bound, plus the convergence residual.
//!
//! # Estimated vs metered feedback
//!
//! [`IterMode::Jacobi`] runs dense rounds: every vertex contributes every
//! iteration, and the a-priori estimate (each cross-owner arc priced
//! individually, before per-destination combining) is reused for every
//! iteration — the gap between it and the metered cost is the combining
//! benefit. [`IterMode::FrontierDelta`] runs shrinking rounds: only the
//! active frontier sends, and iteration `i + 1` is re-priced from
//! iteration `i`'s *metered* cardinalities — the exchange the fabric
//! actually carried — making this the first consumer of the
//! estimated-vs-metered feedback loop. The per-iteration lower bound is a
//! per-cut counting argument: every destination vertex with cross-owner
//! senders forces at least one combined width-2 row across each edge of
//! the Steiner tree spanning its fan-in, priced on the same
//! [`CostModel`] ledger.
//!
//! A fixpoint that fails to converge within `max_iters` surfaces as the
//! typed [`QueryError::IterationLimit`] from `prepare` — nothing is
//! scheduled, and the serving layer rolls the failure up per tenant.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use tamp_core::aggregate::protocols::combining_schedule;
use tamp_core::sorting::valid_order;
use tamp_runtime::SimulatorBackend;
use tamp_runtime::{ExecBackend, Schedule, ScheduleJob, ScheduleSend};
use tamp_simulator::cost::Cost;
use tamp_simulator::{Placement, Rel};
use tamp_topology::{NodeId, Tree};

use crate::error::QueryError;
use crate::physical::cost::CostModel;

/// How each iteration selects its senders.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum IterMode {
    /// Dense rounds: every vertex contributes every iteration, and every
    /// iteration's exchange has the same shape. The classic synchronous
    /// PageRank / dense label propagation.
    #[default]
    Jacobi,
    /// Sparse rounds: only the active frontier (vertices whose value
    /// changed, or whose pending delta exceeds the threshold) sends, so
    /// per-iteration exchange volume shrinks as the fixpoint settles.
    /// Each iteration's estimate is re-priced from the previous
    /// iteration's metered cardinalities.
    FrontierDelta,
}

/// The fixpoint budget: iteration cap, convergence tolerance, and
/// [`IterMode`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterativeSpec {
    /// Hard iteration cap; exceeding it is
    /// [`QueryError::IterationLimit`].
    pub max_iters: usize,
    /// Convergence tolerance on the residual aggregate (total absolute
    /// rank change for PageRank; ignored by BFS/components, which
    /// converge exactly when no vertex changes).
    pub tolerance: f64,
    /// Dense or frontier iteration shape.
    pub mode: IterMode,
}

impl IterativeSpec {
    /// Dense Jacobi rounds.
    pub fn jacobi(max_iters: usize, tolerance: f64) -> Self {
        IterativeSpec {
            max_iters,
            tolerance,
            mode: IterMode::Jacobi,
        }
    }

    /// Shrinking frontier/delta rounds.
    pub fn frontier(max_iters: usize, tolerance: f64) -> Self {
        IterativeSpec {
            max_iters,
            tolerance,
            mode: IterMode::FrontierDelta,
        }
    }
}

/// Which fixpoint the job runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Algo {
    /// Damped PageRank over the out-edges.
    PageRank { damping: f64 },
    /// Single-source shortest hop counts.
    Bfs { source: u64 },
    /// Min-label propagation connected components.
    Components,
}

/// A fixpoint job: an edge relation over vertices `0..owners.len()`,
/// each vertex pinned to an owning compute node, plus the algorithm and
/// its [`IterativeSpec`].
///
/// The job is plain, immutable data — it does not depend on any workload
/// crate, so edges can come from `tamp_workloads::GraphSpec`, a
/// `DistributedTable`, or by hand — with an identity (a content
/// fingerprint and exact equality), which is what lets the serving layer
/// cache the [`PreparedIterative`] that [`prepare`](Self::prepare) turns
/// it into.
#[derive(Clone, Debug, PartialEq)]
pub struct IterativeJob {
    /// Content hash of every other field (floats by bit pattern). First,
    /// so the derived equality — exact, the cache's collision guard —
    /// rejects an unequal job before it walks the graph; equal `Arc`
    /// slices short-cut on the pointer.
    fingerprint: u64,
    name: &'static str,
    spec: IterativeSpec,
    algo: Algo,
    owners: Arc<[NodeId]>,
    arcs: Arc<[(u64, u64)]>,
}

/// Hashes the fingerprint, not the graph again.
impl Hash for IterativeJob {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.fingerprint.hash(h);
    }
}

impl IterativeJob {
    fn new(
        name: &'static str,
        arcs: Vec<(u64, u64)>,
        owners: Vec<NodeId>,
        spec: IterativeSpec,
        algo: Algo,
    ) -> Self {
        let param = match algo {
            Algo::PageRank { damping } => damping.to_bits(),
            Algo::Bfs { source } => source,
            Algo::Components => 0,
        };
        let budget = (spec.max_iters, spec.tolerance.to_bits(), spec.mode);
        let mut h = DefaultHasher::new();
        (name, budget, param, &owners, &arcs).hash(&mut h);
        IterativeJob {
            fingerprint: h.finish(),
            name,
            spec,
            algo,
            owners: owners.into(),
            arcs: arcs.into(),
        }
    }

    /// Damped PageRank. `arcs` are directed `(src, dst)` pairs; a
    /// vertex's rank mass splits evenly over its out-arcs, dangling mass
    /// redistributes uniformly.
    pub fn pagerank(
        arcs: Vec<(u64, u64)>,
        owners: Vec<NodeId>,
        damping: f64,
        spec: IterativeSpec,
    ) -> Self {
        IterativeJob::new("pagerank", arcs, owners, spec, Algo::PageRank { damping })
    }

    /// Breadth-first hop counts from `source` (unreached vertices keep
    /// `u64::MAX`).
    pub fn bfs(
        arcs: Vec<(u64, u64)>,
        owners: Vec<NodeId>,
        source: u64,
        spec: IterativeSpec,
    ) -> Self {
        IterativeJob::new("bfs", arcs, owners, spec, Algo::Bfs { source })
    }

    /// Connected components by min-label propagation (labels are vertex
    /// ids; arcs should be symmetric for the undirected reading).
    pub fn connected_components(
        arcs: Vec<(u64, u64)>,
        owners: Vec<NodeId>,
        spec: IterativeSpec,
    ) -> Self {
        IterativeJob::new("components", arcs, owners, spec, Algo::Components)
    }

    /// Job name (`pagerank`, `bfs`, `components`).
    pub fn name(&self) -> &str {
        self.name
    }

    /// The fixpoint budget.
    pub fn spec(&self) -> IterativeSpec {
        self.spec
    }

    fn validate(&self, tree: &Tree) -> Result<(), QueryError> {
        let n = self.owners.len();
        if n == 0 {
            return Err(QueryError::Plan("iterative job has no vertices".into()));
        }
        if self.spec.max_iters == 0 {
            return Err(QueryError::Plan("max_iters must be at least 1".into()));
        }
        if !self.spec.tolerance.is_finite() || self.spec.tolerance < 0.0 {
            return Err(QueryError::Plan(format!(
                "tolerance must be finite and non-negative (got {})",
                self.spec.tolerance
            )));
        }
        for &o in self.owners.iter() {
            if !tree.is_compute(o) {
                return Err(QueryError::Plan(format!(
                    "vertex owner {o} is not a compute node of the tree"
                )));
            }
        }
        for &(u, v) in self.arcs.iter() {
            if u as usize >= n || v as usize >= n {
                return Err(QueryError::Plan(format!(
                    "arc ({u}, {v}) references a vertex outside 0..{n}"
                )));
            }
        }
        match self.algo {
            Algo::PageRank { damping } => {
                if !(0.0..1.0).contains(&damping) {
                    return Err(QueryError::Plan(format!(
                        "PageRank damping must be in [0, 1) (got {damping})"
                    )));
                }
            }
            Algo::Bfs { source } => {
                if source as usize >= n {
                    return Err(QueryError::Plan(format!(
                        "BFS source {source} outside 0..{n}"
                    )));
                }
            }
            Algo::Components => {}
        }
        Ok(())
    }

    /// Run the whole fixpoint locally and deterministically, emitting the
    /// width-invariant per-iteration schedule. Fails with
    /// [`QueryError::IterationLimit`] if the fixpoint does not converge
    /// within `max_iters`, and with [`QueryError::Plan`] on malformed
    /// input (owners off the tree, out-of-range arcs, bad damping).
    pub fn prepare(&self, tree: &Tree) -> Result<PreparedIterative, QueryError> {
        self.validate(tree)?;
        let n = self.owners.len();
        let model = CostModel::new(tree);

        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(u, v) in self.arcs.iter() {
            adj[u as usize].push(v as usize);
        }

        // The combining convergecast over constant per-node weights (the
        // owned-vertex counts): its shape never depends on iteration
        // values, which is what keeps the per-iteration plan
        // width-invariant.
        let mut owned = vec![0u64; tree.num_nodes()];
        for &o in self.owners.iter() {
            owned[o.index()] += 1;
        }
        let target = valid_order(tree)[0];
        let combine = combining_schedule(tree, &owned, target);
        let rounds_per_iteration = 1 + combine.len();

        // Constant estimate of the convergecast: one width-2 row per move
        // per level.
        let mut combine_est = 0.0;
        for moves in &combine {
            let mut round = model.round();
            for &(src, dst) in moves {
                round.send(src, &[dst], 2.0);
            }
            combine_est += round.cost();
        }

        // The a-priori scatter estimate: every cross-owner arc priced
        // individually (no per-destination combining) — what a planner
        // knows before any iteration runs.
        let apriori = {
            let mut round = model.round();
            for &(u, v) in self.arcs.iter() {
                let (su, sv) = (self.owners[u as usize], self.owners[v as usize]);
                round.send(su, &[sv], 2.0); // free within one owner
            }
            round.cost() + combine_est
        };

        let mut fx = Fixpoint {
            owners: &self.owners,
            adj: &adj,
            model: &model,
            combine: &combine,
            target,
            spec: self.spec,
            apriori,
            combine_est,
            schedule: Schedule::default(),
            plans: Vec::new(),
            prev_price: None,
        };

        let values = match self.algo {
            Algo::PageRank { damping } => fx.pagerank(damping)?,
            Algo::Bfs { source } => {
                let mut init = vec![u64::MAX; n];
                init[source as usize] = 0;
                IterValues::Levels(fx.min_propagation(init, 1)?)
            }
            Algo::Components => {
                let init: Vec<u64> = (0..n as u64).collect();
                IterValues::Components(fx.min_propagation(init, 0)?)
            }
        };

        Ok(PreparedIterative {
            job: ScheduleJob::new(self.name, tree.num_nodes(), fx.schedule),
            tree_fp: tree.fingerprint(),
            rounds_per_iteration,
            plans: fx.plans,
            values,
        })
    }
}

/// One iteration's cross-owner exchange: per owner pair, the combined
/// value (as bits) bound for each destination vertex; per destination
/// vertex, its sending owners (the cut bound's input).
#[derive(Default)]
struct Scatter {
    pairs: BTreeMap<(NodeId, NodeId), BTreeMap<u64, u64>>,
    fanin: BTreeMap<u64, BTreeSet<NodeId>>,
}

impl Scatter {
    /// Fold a contribution from owner `su` into the row for vertex `v` on
    /// owner `sv` (`fold`: current bits, `None` on first touch, to new
    /// bits). Same-owner arcs never ship.
    fn add(&mut self, su: NodeId, sv: NodeId, v: usize, fold: impl FnOnce(Option<u64>) -> u64) {
        if su != sv {
            let row = self.pairs.entry((su, sv)).or_default();
            let folded = fold(row.get(&(v as u64)).copied());
            row.insert(v as u64, folded);
            self.fanin.entry(v as u64).or_default().insert(su);
        }
    }
}

/// Shared fixpoint-driver state: schedule under construction plus the
/// constant pricing inputs.
struct Fixpoint<'a> {
    owners: &'a [NodeId],
    adj: &'a [Vec<usize>],
    model: &'a CostModel<'a>,
    combine: &'a [Vec<(NodeId, NodeId)>],
    target: NodeId,
    spec: IterativeSpec,
    apriori: f64,
    combine_est: f64,
    schedule: Schedule,
    /// Per-iteration rows, planned columns only: the metered ones stay
    /// zero until a replay fills them in.
    plans: Vec<IterationCost>,
    prev_price: Option<f64>,
}

impl Fixpoint<'_> {
    /// This iteration's estimate: a-priori for Jacobi; for frontier
    /// rounds, the previous iteration's metered cardinalities re-priced
    /// on the same ledger ("yesterday's weather").
    fn estimate(&self) -> f64 {
        match self.spec.mode {
            IterMode::Jacobi => self.apriori,
            IterMode::FrontierDelta => self.prev_price.unwrap_or(self.apriori),
        }
    }

    /// Per-cut counting bound: each destination vertex with cross-owner
    /// fan-in forces one combined width-2 row across every edge of the
    /// Steiner tree spanning `{owner(v)} ∪ senders(v)` — priced as a
    /// multicast, whose union-of-paths charge is exactly that Steiner
    /// tree.
    fn cut_lower_bound(&self, fanin: &BTreeMap<u64, BTreeSet<NodeId>>) -> f64 {
        let mut round = self.model.round();
        for (&v, srcs) in fanin {
            let dsts: Vec<NodeId> = srcs.iter().copied().collect();
            round.send(self.owners[v as usize], &dsts, 2.0);
        }
        round.cost()
    }

    /// Emit one scatter round (sorted owner-pair order) followed by the
    /// constant convergecast of `partials`, record the iteration's plan
    /// row, and return the residual the convergecast delivered at the
    /// target — the only value convergence may consult.
    fn finish_iteration(&mut self, iter: usize, scatter: Scatter, mut partials: Vec<f64>) -> f64 {
        let estimated = self.estimate();
        let lower_bound = self.cut_lower_bound(&scatter.fanin);

        // Combined per-destination rows: [dst_vertex, value_bits] —
        // shipped, and priced on the model's ledger: the figure that,
        // fed forward, becomes the next frontier estimate.
        let mut rows = 0u64;
        let mut round = self.model.round();
        let mut sends = Vec::with_capacity(scatter.pairs.len());
        for ((src, dst), row) in scatter.pairs {
            rows += row.len() as u64;
            let width2 = (2 * row.len()) as f64;
            round.send(src, &[dst], width2);
            let values: Vec<u64> = row.into_iter().flat_map(|(v, bits)| [v, bits]).collect();
            sends.push(ScheduleSend {
                src,
                dsts: (&[dst]).into(),
                rel: Rel::R,
                values: values.into(),
            });
        }
        self.schedule.rounds.push(sends);
        self.prev_price = Some(round.cost() + self.combine_est);

        for moves in self.combine {
            let mut sends = Vec::with_capacity(moves.len());
            for &(src, dst) in moves {
                sends.push(ScheduleSend {
                    src,
                    dsts: (&[dst]).into(),
                    rel: Rel::S,
                    values: (&[iter as u64, partials[src.index()].to_bits()]).into(),
                });
            }
            self.schedule.rounds.push(sends);
            for &(src, dst) in moves {
                let moved = std::mem::take(&mut partials[src.index()]);
                partials[dst.index()] += moved;
            }
        }
        let residual = partials[self.target.index()];
        self.plans.push(IterationCost {
            iter,
            exchanged_rows: rows,
            estimated,
            metered: 0.0,
            cumulative: 0.0,
            lower_bound,
            residual,
        });
        residual
    }

    fn limit_error(&self) -> QueryError {
        QueryError::IterationLimit {
            limit: self.spec.max_iters,
            completed: self.plans.len(),
            residual: self.plans.last().map_or(f64::INFINITY, |p| p.residual),
        }
    }

    /// Damped PageRank. Jacobi mode iterates the dense power method;
    /// frontier mode runs delta-push (pending increments propagate only
    /// while above `tolerance / n`). Dangling mass redistributes
    /// uniformly, handled analytically so it never ships.
    fn pagerank(&mut self, damping: f64) -> Result<IterValues, QueryError> {
        let n = self.owners.len();
        let nf = n as f64;
        let outdeg: Vec<f64> = self.adj.iter().map(|a| a.len() as f64).collect();
        let frontier = self.spec.mode == IterMode::FrontierDelta;

        // Jacobi iterates `rank` directly; delta-push accumulates into
        // `rank` while propagating pending `delta` mass.
        let mut rank = if frontier {
            vec![0.0; n]
        } else {
            vec![1.0 / nf; n]
        };
        let mut delta = vec![(1.0 - damping) / nf; n];
        let thresh = self.spec.tolerance / nf;

        for it in 0..self.spec.max_iters {
            let mut incoming = vec![0.0f64; n];
            let mut dangling = 0.0f64;
            let mut scatter = Scatter::default();
            for u in 0..n {
                let mass = if frontier {
                    if delta[u].abs() <= thresh {
                        continue;
                    }
                    damping * delta[u]
                } else {
                    damping * rank[u]
                };
                if self.adj[u].is_empty() {
                    dangling += mass;
                    continue;
                }
                let share = mass / outdeg[u];
                for &v in &self.adj[u] {
                    incoming[v] += share;
                    scatter.add(self.owners[u], self.owners[v], v, |sum| {
                        (f64::from_bits(sum.unwrap_or(0)) + share).to_bits()
                    });
                }
            }

            // Apply, accumulating per-owner residual partials (vertex
            // order, so the sum order is fixed).
            let mut partials = vec![0.0f64; self.model.tree().num_nodes()];
            if frontier {
                let mut next = vec![0.0f64; n];
                for v in 0..n {
                    rank[v] += delta[v];
                    next[v] = incoming[v] + dangling / nf;
                    partials[self.owners[v].index()] += next[v].abs();
                }
                delta = next;
            } else {
                for v in 0..n {
                    let new = (1.0 - damping) / nf + incoming[v] + dangling / nf;
                    partials[self.owners[v].index()] += (new - rank[v]).abs();
                    rank[v] = new;
                }
            }

            let residual = self.finish_iteration(it, scatter, partials);
            if residual <= self.spec.tolerance {
                if frontier {
                    // Absorb the sub-tolerance remainder.
                    for v in 0..n {
                        rank[v] += delta[v];
                    }
                }
                return Ok(IterValues::Ranks(rank));
            }
        }
        Err(self.limit_error())
    }

    /// Min-label propagation: BFS (`bump = 1`, level counting from the
    /// source) and connected components (`bump = 0`, labels are vertex
    /// ids). The residual is the number of vertices whose value changed,
    /// so convergence (`residual == 0`) is exact. Jacobi mode sends
    /// dense rounds (every settled vertex re-sends to all neighbors);
    /// frontier mode ships only productive proposals from the changed
    /// set — the prepared plan holds the whole fixpoint, so it emits
    /// exactly the information-bearing frontier traffic.
    fn min_propagation(&mut self, init: Vec<u64>, bump: u64) -> Result<Vec<u64>, QueryError> {
        let n = self.owners.len();
        let mut val = init;
        // The first frontier is every vertex that already has a value.
        let mut active: Vec<bool> = val.iter().map(|&x| x != u64::MAX).collect();
        let frontier = self.spec.mode == IterMode::FrontierDelta;

        for it in 0..self.spec.max_iters {
            let mut best: BTreeMap<usize, u64> = BTreeMap::new();
            let mut scatter = Scatter::default();
            for u in 0..n {
                let sends = if frontier {
                    active[u]
                } else {
                    val[u] != u64::MAX
                };
                if !sends {
                    continue;
                }
                let cand = val[u].saturating_add(bump);
                for &v in &self.adj[u] {
                    let productive = cand < val[v];
                    if frontier && !productive {
                        continue;
                    }
                    if productive {
                        best.entry(v)
                            .and_modify(|b| *b = (*b).min(cand))
                            .or_insert(cand);
                    }
                    scatter.add(self.owners[u], self.owners[v], v, |best| {
                        best.map_or(cand, |b| b.min(cand))
                    });
                }
            }

            let mut partials = vec![0.0f64; self.model.tree().num_nodes()];
            let mut changed = vec![false; n];
            for (&v, &cand) in &best {
                if cand < val[v] {
                    val[v] = cand;
                    changed[v] = true;
                    partials[self.owners[v].index()] += 1.0;
                }
            }

            let residual = self.finish_iteration(it, scatter, partials);
            active = changed;
            if residual == 0.0 {
                return Ok(val);
            }
        }
        Err(self.limit_error())
    }
}

/// Final per-vertex values of a converged fixpoint.
#[derive(Clone, Debug, PartialEq)]
pub enum IterValues {
    /// PageRank scores (sum ≈ 1).
    Ranks(Vec<f64>),
    /// BFS hop counts (`u64::MAX` = unreachable).
    Levels(Vec<u64>),
    /// Connected-component labels (the minimum vertex id of each
    /// component).
    Components(Vec<u64>),
}

impl IterValues {
    /// PageRank scores, if this is a rank vector.
    pub fn ranks(&self) -> Option<&[f64]> {
        match self {
            IterValues::Ranks(r) => Some(r),
            _ => None,
        }
    }

    /// Integer labels (BFS levels or component ids), if any.
    pub fn labels(&self) -> Option<&[u64]> {
        match self {
            IterValues::Levels(l) | IterValues::Components(l) => Some(l),
            IterValues::Ranks(_) => None,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        match self {
            IterValues::Ranks(r) => r.len(),
            IterValues::Levels(l) | IterValues::Components(l) => l.len(),
        }
    }

    /// `true` when the fixpoint had no vertices (never produced by
    /// `prepare`, which rejects empty jobs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A converged, fully planned fixpoint, ready to replay: the
/// [`ScheduleJob`] over its width-invariant schedule (built once — a
/// replay constructs nothing), the per-iteration plan rows and the final
/// values. Replay it with [`run`](Self::run) / [`run_on`](Self::run_on)
/// on any backend, over the tree it was prepared on: its estimates are
/// priced on that tree's weights and its sends name that tree's nodes.
#[derive(Clone, Debug)]
pub struct PreparedIterative {
    job: ScheduleJob,
    /// [`Tree::fingerprint`] of that tree — the plan-cache key's value.
    tree_fp: u64,
    rounds_per_iteration: usize,
    /// The cost table with its metered columns still zero.
    plans: Vec<IterationCost>,
    values: IterValues,
}

impl PreparedIterative {
    /// Iterations until convergence.
    pub fn iterations(&self) -> usize {
        self.plans.len()
    }

    /// Schedule rounds per iteration (one scatter + the combining-tree
    /// levels) — constant across iterations by construction.
    pub fn rounds_per_iteration(&self) -> usize {
        self.rounds_per_iteration
    }

    /// The converged per-vertex values (identical to what any backend
    /// replay yields).
    pub fn values(&self) -> &IterValues {
        &self.values
    }

    /// Replay on the centralized simulator.
    pub fn run(&self, tree: &Tree) -> Result<IterativeOutcome, QueryError> {
        self.run_on(tree, &SimulatorBackend)
    }

    /// Replay the prepared schedule on `backend` and slice the metered
    /// ledger into per-iteration costs. Results — values, per-iteration
    /// metered costs, `edge_totals` — are bit-identical across backends
    /// because the schedule is fixed at prepare time. `tree` must be the
    /// tree this was prepared on (same fingerprint, weights included);
    /// any other is a [`QueryError::Plan`] and nothing executes.
    pub fn run_on(
        &self,
        tree: &Tree,
        backend: &dyn ExecBackend,
    ) -> Result<IterativeOutcome, QueryError> {
        if tree.fingerprint() != self.tree_fp {
            return Err(QueryError::Plan(
                "a prepared fixpoint replays only on the tree it was prepared on \
                 (topology fingerprints differ)"
                    .into(),
            ));
        }
        let outcome = backend
            .execute(tree, &Placement::empty(tree), &self.job)
            .map_err(QueryError::Exec)?;
        // Every iteration is `rounds_per_iteration` ledger rounds.
        let mut iterations = self.plans.clone();
        let mut cumulative = 0.0;
        let per_iteration = outcome.cost.per_round.chunks(self.rounds_per_iteration);
        for (row, rounds) in iterations.iter_mut().zip(per_iteration) {
            row.metered = rounds.iter().map(|r| r.tuple_cost).sum();
            cumulative += row.metered;
            row.cumulative = cumulative;
        }
        Ok(IterativeOutcome {
            name: outcome.job,
            values: self.values.clone(),
            iterations,
            rounds_per_iteration: self.rounds_per_iteration,
            cost: outcome.cost,
            rounds: outcome.rounds,
            supersteps: outcome.supersteps,
            resumed_from: outcome.resumed_from,
        })
    }
}

/// One row of the per-iteration cost table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationCost {
    /// Iteration index.
    pub iter: usize,
    /// Combined width-2 rows scattered cross-owner.
    pub exchanged_rows: u64,
    /// The planner's estimate (a-priori, or re-priced from the previous
    /// iteration's metered cardinalities in frontier mode).
    pub estimated: f64,
    /// The metered cost of this iteration's rounds.
    pub metered: f64,
    /// Running metered total through this iteration.
    cumulative: f64,
    /// The per-cut counting lower bound on this iteration's scatter.
    pub lower_bound: f64,
    /// The convergence residual the convergecast delivered.
    pub residual: f64,
}

/// The result of replaying a prepared fixpoint on a backend.
#[derive(Clone, Debug)]
pub struct IterativeOutcome {
    /// Job name.
    pub name: String,
    /// Converged per-vertex values.
    pub values: IterValues,
    /// Per-iteration cost table (estimated vs metered vs lower bound).
    pub iterations: Vec<IterationCost>,
    /// Schedule rounds per iteration.
    pub rounds_per_iteration: usize,
    /// The full metered ledger (per-round costs + `edge_totals`).
    pub cost: Cost,
    /// Metered communication rounds.
    pub rounds: usize,
    /// BSP supersteps executed (the cluster adds one that absorbs the last
    /// round's deliveries).
    pub supersteps: usize,
    /// `Some(r)` when the cluster resumed from a checkpoint at superstep
    /// `r`.
    pub resumed_from: Option<usize>,
}

impl IterativeOutcome {
    /// Total metered cost across all iterations.
    pub fn total_metered(&self) -> f64 {
        self.cost.tuple_cost()
    }

    /// Total combined rows scattered across all iterations (the exchange
    /// volume the frontier gate watches).
    pub fn total_exchanged_rows(&self) -> u64 {
        self.iterations.iter().map(|i| i.exchanged_rows).sum()
    }

    /// The per-iteration EXPLAIN ANALYZE table: estimated vs metered
    /// cost, cumulative metered vs cumulative per-cut lower bound, and
    /// the convergence residual.
    pub fn explain_analyze(&self) -> String {
        let mut out = format!(
            "ITERATIVE ANALYZE {} — {} iterations × {} rounds/iteration, final residual {:.3e}\n",
            self.name,
            self.iterations.len(),
            self.rounds_per_iteration,
            self.iterations.last().map_or(0.0, |i| i.residual),
        );
        out.push_str(&format!(
            "{:>5} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10} {:>12}\n",
            "iter", "rows", "estimated", "metered", "cumulative", "cut lb", "cum lb", "residual"
        ));
        let mut cum_lb = 0.0;
        for i in &self.iterations {
            cum_lb += i.lower_bound;
            out.push_str(&format!(
                "{:>5} {:>10} {:>12.2} {:>12.2} {:>12.2} {:>10.2} {:>10.2} {:>12.3e}\n",
                i.iter,
                i.exchanged_rows,
                i.estimated,
                i.metered,
                i.cumulative,
                i.lower_bound,
                cum_lb,
                i.residual
            ));
        }
        out.push_str(&format!(
            "total metered {:.2}, cumulative lower bound {:.2}{}\n",
            self.total_metered(),
            cum_lb,
            if cum_lb > 0.0 {
                format!(" (ratio {:.2})", self.total_metered() / cum_lb)
            } else {
                String::new()
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_runtime::PooledClusterBackend;
    use tamp_topology::builders;

    /// A 6-cycle split over a 3-leaf star: deterministic, every owner
    /// pair exercised.
    fn cycle_job() -> (Tree, Vec<(u64, u64)>, Vec<NodeId>) {
        let tree = builders::star(3, 1.0);
        let vc = tree.compute_nodes().to_vec();
        let n = 6u64;
        let mut arcs = Vec::new();
        for u in 0..n {
            let v = (u + 1) % n;
            arcs.push((u, v));
            arcs.push((v, u));
        }
        let owners: Vec<NodeId> = (0..n).map(|u| vc[(u / 2) as usize]).collect();
        (tree, arcs, owners)
    }

    #[test]
    fn pagerank_converges_and_sums_to_one() {
        let (tree, arcs, owners) = cycle_job();
        let prepared = IterativeJob::pagerank(arcs, owners, 0.5, IterativeSpec::jacobi(50, 1e-9))
            .prepare(&tree)
            .unwrap();
        let ranks = prepared.values().ranks().unwrap();
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "ranks sum to 1, got {sum}");
        // Symmetric cycle: uniform ranks.
        for &r in ranks {
            assert!((r - 1.0 / 6.0).abs() < 1e-6);
        }
        assert!(prepared.plans.last().is_some_and(|p| p.residual <= 1e-9));
    }

    #[test]
    fn frontier_pagerank_matches_jacobi() {
        let (tree, arcs, owners) = cycle_job();
        let j = IterativeJob::pagerank(
            arcs.clone(),
            owners.clone(),
            0.5,
            IterativeSpec::jacobi(60, 1e-10),
        )
        .prepare(&tree)
        .unwrap();
        let f = IterativeJob::pagerank(arcs, owners, 0.5, IterativeSpec::frontier(60, 1e-10))
            .prepare(&tree)
            .unwrap();
        for (a, b) in j
            .values()
            .ranks()
            .unwrap()
            .iter()
            .zip(f.values().ranks().unwrap())
        {
            assert!((a - b).abs() < 1e-8, "jacobi {a} vs frontier {b}");
        }
    }

    #[test]
    fn bfs_levels_are_cycle_distances() {
        let (tree, arcs, owners) = cycle_job();
        let prepared = IterativeJob::bfs(arcs, owners, 0, IterativeSpec::frontier(10, 0.0))
            .prepare(&tree)
            .unwrap();
        assert_eq!(
            prepared.values().labels().unwrap(),
            &[0, 1, 2, 3, 2, 1],
            "hop counts around the 6-cycle"
        );
    }

    #[test]
    fn components_find_two_islands() {
        let tree = builders::star(2, 1.0);
        let vc = tree.compute_nodes().to_vec();
        // Two triangles: {0,1,2} and {3,4,5}, owners split across leaves.
        let mut arcs = Vec::new();
        for base in [0u64, 3] {
            for i in 0..3 {
                let (u, v) = (base + i, base + (i + 1) % 3);
                arcs.push((u, v));
                arcs.push((v, u));
            }
        }
        let owners: Vec<NodeId> = (0..6).map(|u| vc[(u % 2) as usize]).collect();
        let prepared =
            IterativeJob::connected_components(arcs, owners, IterativeSpec::frontier(10, 0.0))
                .prepare(&tree)
                .unwrap();
        assert_eq!(prepared.values().labels().unwrap(), &[0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn backends_agree_bit_for_bit() {
        let (tree, arcs, owners) = cycle_job();
        let prepared = IterativeJob::pagerank(arcs, owners, 0.5, IterativeSpec::jacobi(50, 1e-6))
            .prepare(&tree)
            .unwrap();
        let sim = prepared.run(&tree).unwrap();
        let cluster = prepared
            .run_on(&tree, &PooledClusterBackend::default())
            .unwrap();
        assert_eq!(sim.cost.edge_totals, cluster.cost.edge_totals);
        assert_eq!(sim.values, cluster.values);
        assert_eq!(sim.iterations.len(), cluster.iterations.len());
        for (a, b) in sim.iterations.iter().zip(&cluster.iterations) {
            assert_eq!(a, b, "per-iteration tables match to the bit");
        }
        // The cluster's absorbing superstep is the only delta.
        assert_eq!(cluster.supersteps, sim.supersteps + 1);
    }

    #[test]
    fn metered_between_bound_and_estimate_for_jacobi_pagerank() {
        let (tree, arcs, owners) = cycle_job();
        let prepared = IterativeJob::pagerank(arcs, owners, 0.5, IterativeSpec::jacobi(50, 1e-6))
            .prepare(&tree)
            .unwrap();
        let out = prepared.run(&tree).unwrap();
        for i in &out.iterations {
            assert!(
                i.lower_bound <= i.metered + 1e-9,
                "iter {}: lb {} > metered {}",
                i.iter,
                i.lower_bound,
                i.metered
            );
            assert!(
                i.metered <= i.estimated + 1e-9,
                "iter {}: metered {} > a-priori estimate {}",
                i.iter,
                i.metered,
                i.estimated
            );
        }
    }

    #[test]
    fn frontier_estimates_track_previous_metered() {
        let (tree, arcs, owners) = cycle_job();
        let prepared = IterativeJob::bfs(arcs, owners, 0, IterativeSpec::frontier(10, 0.0))
            .prepare(&tree)
            .unwrap();
        let out = prepared.run(&tree).unwrap();
        // From iteration 1 on, the estimate is iteration i-1's exchange
        // re-priced on the same ledger — with the constant convergecast
        // added to both sides.
        for w in out.iterations.windows(2) {
            assert!(
                (w[1].estimated - w[0].metered).abs() < 1e-9,
                "frontier estimate {} re-priced from previous metered {}",
                w[1].estimated,
                w[0].metered
            );
        }
    }

    #[test]
    fn nonconvergence_is_the_typed_error() {
        // BFS around the 6-cycle needs 4 iterations (3 levels + the
        // confirming empty one); cap at 2.
        let (tree, arcs, owners) = cycle_job();
        let err = IterativeJob::bfs(arcs, owners, 0, IterativeSpec::frontier(2, 0.0))
            .prepare(&tree)
            .unwrap_err();
        match err {
            QueryError::IterationLimit {
                limit,
                completed,
                residual,
            } => {
                assert_eq!(limit, 2);
                assert_eq!(completed, 2);
                assert!(residual > 0.0, "vertices were still changing");
            }
            other => panic!("expected IterationLimit, got {other:?}"),
        }
    }

    #[test]
    fn malformed_jobs_are_plan_errors() {
        let (tree, arcs, mut owners) = cycle_job();
        let bad = IterativeJob::bfs(
            arcs.clone(),
            owners.clone(),
            99,
            IterativeSpec::jacobi(5, 0.0),
        );
        assert!(matches!(bad.prepare(&tree), Err(QueryError::Plan(_))));
        owners[0] = NodeId(tree.num_nodes() as u32 - 1); // the root: not a compute node
        let bad = IterativeJob::connected_components(arcs, owners, IterativeSpec::jacobi(5, 0.0));
        assert!(matches!(bad.prepare(&tree), Err(QueryError::Plan(_))));
    }

    #[test]
    fn replay_on_another_tree_is_a_typed_error_on_both_backends() {
        // Regression: the simulator used to index out of bounds and the
        // scoped cluster used to hang (its coordinator panicked while the
        // crew was parked). The cluster half runs under a watchdog so a
        // hang fails here instead of stalling the suite.
        let big = builders::fat_tree(2, 4, 1.0);
        let vc = big.compute_nodes().to_vec();
        let arcs: Vec<(u64, u64)> = (0..16).map(|u| (u, (u + 5) % 16)).collect();
        let owners: Vec<NodeId> = (0..16).map(|v| vc[v]).collect();
        let prepared = IterativeJob::pagerank(arcs, owners, 0.5, IterativeSpec::jacobi(50, 1e-6))
            .prepare(&big)
            .unwrap();
        assert!(prepared.run(&big).is_ok());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let small = builders::star(3, 1.0);
            // Same shape, one re-weighted link: still another tree.
            let mut degraded = big.clone();
            degraded
                .scale_bandwidth(tamp_topology::EdgeId(0), 0.5)
                .unwrap();
            for tree in [&small, &degraded] {
                let sim = prepared.run(tree);
                let cluster = prepared.run_on(tree, &PooledClusterBackend::default());
                let _ = tx.send((sim.unwrap_err(), cluster.unwrap_err()));
            }
        });
        for _ in 0..2 {
            let (sim, cluster) = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("replay on a foreign tree must return, not hang");
            assert!(matches!(sim, QueryError::Plan(_)), "{sim:?}");
            assert_eq!(sim, cluster);
            assert!(sim.to_string().contains("prepared on"), "{sim}");
        }
    }
}
