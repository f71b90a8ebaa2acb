//! Equi-join strategies: the paper's weighted-hash routings and their
//! topology-agnostic baseline.
//!
//! All four execute as *exchange + local probe*; they differ only in how
//! the exchange routes rows:
//!
//! - [`RepartitionJoin::weighted`] — both sides repartition under one
//!   hash weighted by each node's current data (the Algorithm 2 idea at
//!   the row level): co-located skew stays put;
//! - [`TreePartitionJoin`] — the §3 `TreeIntersect` routing: a balanced
//!   partition (Definition 1 / Algorithm 3) splits the compute nodes into
//!   blocks each holding at least the small side's weight; small rows
//!   multicast to every block's weighted-hash pick for their key while
//!   big rows hash only within their own block, so big-side tuples never
//!   cross β-edges;
//! - [`BroadcastSmallJoin`] — replicate the small side to every node
//!   holding big rows (the `V_β` idea of Algorithm 1);
//! - [`RepartitionJoin::uniform`] — the classic MPC uniform hash, blind to
//!   both topology and distribution.
//!
//! Every strategy's lower bound is Theorem 1 evaluated on the estimated
//! placement (`tamp_core::intersection::intersection_lower_bound`), so
//! `EXPLAIN` shows each candidate's Table-1 ratio.

use std::collections::BTreeMap;
use std::sync::Arc;

use tamp_core::intersection::intersection_lower_bound;
use tamp_core::ratio::LowerBound;
use tamp_simulator::{Rel, SharedSlice};
use tamp_topology::NodeId;

use crate::batch::{batch_rows, views, BatchFragments, RecordBatch};
use crate::error::QueryError;
use crate::physical::strategy::{
    CostEstimate, ExecArgs, OpInput, OpParams, OpTrace, OperatorKind, PhysicalStrategy, PlanArgs,
    TraceBuilder,
};

use super::columnar::{
    batch_frag_weights, batch_holders_of, broadcast_small_batches, counting_scatter, empty_trace,
    key_router, payloads, probe_join_batches, shuffle_batches_by_key, Run,
};

fn join_input(input: OpInput) -> (BatchFragments, BatchFragments, usize, usize, usize, usize) {
    let (
        OpParams::Join {
            left_key,
            right_key,
            left_width,
            right_width,
        },
        Ok([left, right]),
    ) = (input.params, <[_; 2]>::try_from(input.inputs))
    else {
        unreachable!("registered for Join");
    };
    (left, right, left_key, right_key, left_width, right_width)
}

fn join_lower_bound(a: &PlanArgs<'_>) -> Option<LowerBound> {
    if !a.symmetric() {
        return None;
    }
    Some(intersection_lower_bound(a.model.tree(), &a.value_stats()))
}

/// Repartition both sides under one hash: weighted by each node's current
/// data (the Algorithm 2 idea), or the uniform MPC hash.
#[derive(Debug)]
pub(crate) struct RepartitionJoin {
    weighted: bool,
}

impl RepartitionJoin {
    /// Distribution-weighted key owners.
    pub(crate) fn weighted() -> Self {
        RepartitionJoin { weighted: true }
    }

    /// Uniform key owners (the MPC baseline).
    pub(crate) fn uniform() -> Self {
        RepartitionJoin { weighted: false }
    }
}

impl PhysicalStrategy for RepartitionJoin {
    fn name(&self) -> &'static str {
        if self.weighted {
            "weighted-repartition"
        } else {
            "uniform-repartition"
        }
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::Join
    }

    fn algorithm(&self) -> Option<&'static str> {
        self.weighted.then_some("Alg 2 weighted hash")
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        let right = a.right.as_ref().expect("join has two inputs");
        let shares = self.output_shares(a);
        CostEstimate {
            tuple_cost: a
                .model
                .repartition_cost(&a.left.counts, a.left.width, &shares)
                + a.model
                    .repartition_cost(&right.counts, right.width, &shares),
            rounds: 2,
        }
    }

    fn lower_bound(&self, a: &PlanArgs<'_>) -> Option<LowerBound> {
        join_lower_bound(a)
    }

    fn output_shares(&self, a: &PlanArgs<'_>) -> Vec<f64> {
        if self.weighted {
            a.model.proportional_shares(&a.combined_counts())
        } else {
            a.model.uniform_shares()
        }
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let (lfrags, rfrags, li, ri, lw, rw) = join_input(input);
        let tree = a.tree;
        let mut trace = TraceBuilder::default();
        let weights = || batch_frag_weights(tree, &[&lfrags, &rfrags]);
        let Some(router) = key_router(a, self.weighted, weights) else {
            return empty_trace(tree);
        };
        let l_new = shuffle_batches_by_key(&mut trace, tree, &lfrags, li, lw, Rel::R, &*router);
        let r_new = shuffle_batches_by_key(&mut trace, tree, &rfrags, ri, rw, Rel::S, &*router);
        let output = probe_join_batches(tree, &l_new, &r_new, li, ri, lw, rw, false);
        trace.finish(output)
    }
}

/// Replicate the smaller side (by rows) to every node holding rows of the
/// larger side.
#[derive(Debug)]
pub(crate) struct BroadcastSmallJoin;

impl PhysicalStrategy for BroadcastSmallJoin {
    fn name(&self) -> &'static str {
        "broadcast-small"
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::Join
    }

    fn algorithm(&self) -> Option<&'static str> {
        Some("Alg 1 V_β broadcast")
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        let right = a.right.as_ref().expect("join has two inputs");
        let (small, big) = if a.left.total() <= right.total() {
            (&a.left, right)
        } else {
            (right, &a.left)
        };
        let vc = a.model.tree().compute_nodes().iter().copied();
        let holders: Vec<NodeId> = vc.filter(|&v| big.counts[v.index()] > 0.0).collect();
        CostEstimate {
            tuple_cost: a.model.multicast_cost(&small.counts, small.width, &holders),
            rounds: 1,
        }
    }

    fn lower_bound(&self, a: &PlanArgs<'_>) -> Option<LowerBound> {
        join_lower_bound(a)
    }

    fn output_shares(&self, a: &PlanArgs<'_>) -> Vec<f64> {
        let right = a.right.as_ref().expect("join has two inputs");
        let big = if a.left.total() <= right.total() {
            &right.counts
        } else {
            &a.left.counts
        };
        a.model.proportional_shares(big)
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let (lfrags, rfrags, li, ri, lw, rw) = join_input(input);
        let tree = a.tree;
        let mut trace = TraceBuilder::default();
        let l_total = batch_rows(lfrags.batches());
        let r_total = batch_rows(rfrags.batches());
        let left_is_small = l_total <= r_total;
        let (small_frags, small_w, small_rel, big_frags) = if left_is_small {
            (&lfrags, lw, Rel::R, &rfrags)
        } else {
            (&rfrags, rw, Rel::S, &lfrags)
        };
        let holders = batch_holders_of(tree, big_frags);
        let small_new =
            broadcast_small_batches(&mut trace, tree, small_frags, small_w, small_rel, &holders);
        let (l_new, r_new) = if left_is_small {
            (small_new, rfrags)
        } else {
            (lfrags, small_new)
        };
        // A replicated right side is the same batch list at every holder:
        // one build serves them all.
        let output = probe_join_batches(tree, &l_new, &r_new, li, ri, lw, rw, !left_is_small);
        trace.finish(output)
    }
}

/// The §3 `TreeIntersect` routing at the row level: small rows multicast
/// to every block's weighted-hash pick for their key; big rows hash only
/// within their own block. Each (small, big) match meets exactly once —
/// in the big row's block — so a plain local probe emits the join.
#[derive(Debug)]
pub(crate) struct TreePartitionJoin;

impl PhysicalStrategy for TreePartitionJoin {
    fn name(&self) -> &'static str {
        "tree-partition"
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::Join
    }

    fn algorithm(&self) -> Option<&'static str> {
        Some("§3 TreeIntersect routing")
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        let right = a.right.as_ref().expect("join has two inputs");
        let (small, big) = if a.left.total() <= right.total() {
            (&a.left, right)
        } else {
            (right, &a.left)
        };
        let small_total = small.total().round() as u64;
        if small_total == 0 {
            return CostEstimate {
                tuple_cost: 0.0,
                rounds: 1,
            };
        }
        let n: Vec<u64> = a
            .combined_counts()
            .iter()
            .map(|c| c.round() as u64)
            .collect();
        let (partition, hashes) = tamp_core::intersection::partition::partition_hashes(
            a.model.tree(),
            &n,
            small_total,
            a.seed,
        );
        // Both flows are product-shaped. Within a block, node `u` takes
        // its `n_u / n_block` share of what the block receives.
        let mut round = a.model.round();
        let mut shares = a.model.zero_counts();
        for (block, hash) in partition.blocks.iter().zip(&hashes) {
            let block_n: u64 = block.iter().map(|&v| n[v.index()]).sum();
            if hash.is_none() || block_n == 0 {
                continue;
            }
            for &u in block {
                shares[u.index()] = n[u.index()] as f64 / block_n as f64;
            }
            // Big rows: only sources inside the block reshuffle here.
            if block.len() > 1 {
                round.repartition(block, &big.counts, big.width, &shares);
            }
        }
        // Small rows: every source ships its expected share into every
        // block (one of k multicast legs), so the shares sum to k.
        let everyone = a.model.tree().compute_nodes();
        round.repartition(everyone, &small.counts, small.width, &shares);
        CostEstimate {
            tuple_cost: round.cost(),
            rounds: 1,
        }
    }

    fn lower_bound(&self, a: &PlanArgs<'_>) -> Option<LowerBound> {
        join_lower_bound(a)
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let (lfrags, rfrags, li, ri, lw, rw) = join_input(input);
        let tree = a.tree;
        let mut trace = TraceBuilder::default();
        let l_total = batch_rows(lfrags.batches());
        let r_total = batch_rows(rfrags.batches());
        let left_is_small = l_total <= r_total;
        let small_total = l_total.min(r_total) as u64;
        if small_total == 0 {
            return empty_trace(tree);
        }
        // Per-node value weights (`N_v`), the balanced-partition input.
        let n: Vec<u64> = lfrags
            .iter()
            .zip(rfrags.iter())
            .map(|(l, r)| (batch_rows(l) + batch_rows(r)) as u64)
            .collect();
        let (partition, hashes) =
            tamp_core::intersection::partition::partition_hashes(tree, &n, small_total, a.seed);
        let block_of = partition.block_of(tree.num_nodes());

        let sides = [(&lfrags, li, lw, Rel::R), (&rfrags, ri, rw, Rel::S)];
        let [(small_frags, small_key, small_w, small_rel), (big_frags, big_key, big_w, big_rel)] = [
            sides[usize::from(!left_is_small)],
            sides[usize::from(left_is_small)],
        ];

        // Route once. A small row goes to every block's pick for its key;
        // rows sharing a destination list form one group, ranked in list
        // order, and each source sends its groups in rank order. A big row
        // goes to its own block's pick only.
        let computes = tree.compute_nodes();
        let mut groups: BTreeMap<Vec<NodeId>, u32> = BTreeMap::new();
        let (mut dsts, mut ranks) = (Vec::new(), Vec::new());
        for b in computes.iter().flat_map(|v| &small_frags[v.index()]) {
            for &key in b.col(small_key) {
                dsts.clear();
                dsts.extend(hashes.iter().flatten().map(|h| h.pick(key)));
                dsts.sort_unstable();
                dsts.dedup();
                if !groups.contains_key(&dsts[..]) {
                    groups.insert(dsts.clone(), groups.len() as u32);
                }
                ranks.push(groups[&dsts[..]]);
            }
        }
        let mut rank_of = vec![0; groups.len()];
        for (&g, rank) in groups.values().zip(0..) {
            rank_of[g as usize] = rank;
        }
        ranks.iter_mut().for_each(|g| *g = rank_of[*g as usize]);
        let lists: Vec<Arc<[NodeId]>> = groups.into_keys().map(Arc::from).collect();
        let mut at = 0;
        let mut by_rank = |_, b: &RecordBatch, out: &mut Vec<u32>| {
            out.extend(&ranks[at..at + b.num_rows()]);
            at += b.num_rows();
        };
        let (small, _, small_runs) =
            counting_scatter(small_frags, small_w, computes, lists.len(), &mut by_rank);
        let hash_of = |v: NodeId| hashes.get(block_of[v.index()]).and_then(Option::as_ref);
        let mut sources = computes.to_vec();
        sources.retain(|&v| hash_of(v).is_some());
        let mut by_pick = |v, b: &RecordBatch, out: &mut Vec<u32>| {
            let h = hash_of(v).expect("a source's block has a hash");
            out.extend(b.col(big_key).iter().map(|&key| h.pick(key).index() as u32));
        };
        let (big, big_slots, big_runs) =
            counting_scatter(big_frags, big_w, &sources, tree.num_nodes(), &mut by_pick);

        // One round: each source's small groups, then its big runs, each
        // payload cut from one buffer per side.
        let small_sent = |run: &&Run| *lists[run.1] != [run.0];
        let big_sent = |run: &&Run| run.1 != run.0.index();
        let mut small_cut = payloads(&small, small_runs.iter().filter(small_sent), small_w);
        let mut big_cut = payloads(&big, big_runs.iter().filter(big_sent), big_w);
        let by_index: Arc<[NodeId]> = tree.nodes().collect();
        let (mut small_at, mut big_at) = (small_runs.iter().peekable(), big_runs.iter().peekable());
        trace.round(|round| {
            for &v in computes {
                while let Some(run) = small_at.next_if(|run| run.0 == v) {
                    if small_sent(&run) {
                        let payload = small_cut(run.2.len());
                        round.send(v, lists[run.1].clone(), small_rel, payload);
                    }
                }
                while let Some(run) = big_at.next_if(|run| run.0 == v) {
                    if big_sent(&run) {
                        let dst = SharedSlice::new(by_index.clone(), run.1..run.1 + 1);
                        round.send(v, dst, big_rel, big_cut(run.2.len()));
                    }
                }
            }
        });
        let mut small_at = Vec::new();
        for run in &small_runs {
            let at = |d: &NodeId| (d.index(), RecordBatch::view(&small, run.2.clone()));
            small_at.extend(lists[run.1].iter().map(at));
        }
        let small_new = BatchFragments::scatter(tree.num_nodes(), small_at);
        let mut big_at = views(&big, big_slots.windows(2).map(|at| at[1] - at[0]));
        let big_new = BatchFragments::from_fn(tree.num_nodes(), |_| big_at.next().flatten());

        let (l_new, r_new) = if left_is_small {
            (&small_new, &big_new)
        } else {
            (&big_new, &small_new)
        };
        let output = probe_join_batches(tree, l_new, r_new, li, ri, lw, rw, false);
        trace.finish(output)
    }
}
