//! The built-in physical strategies.
//!
//! For each pluggable operator the registry's defaults pair the paper's
//! topology-/distribution-aware algorithm with its topology-agnostic
//! baseline, so the planner's choice reproduces the paper's "who wins
//! where" question per query:
//!
//! | Operator | Paper algorithm | Baseline(s) |
//! |----------|-----------------|-------------|
//! | join | `weighted-repartition` (Alg 2 hash), `tree-partition` (§3 `TreeIntersect` routing), `broadcast-small` (`V_β`, Alg 1) | `uniform-repartition` |
//! | cross-join | `whc-grid` (§4 wHC / A.1 rectangles) | `broadcast-small`, `uniform-hypercube` |
//! | sort | `weighted-range-shuffle` (§5.2 wTS splitters) | `uniform-range-shuffle` (classic TeraSort) |
//! | aggregate | `combining-tree` (in-network convergecast) | `weighted-repartition`, `uniform-repartition` |
//! | distinct | — | `weighted-repartition` (whole-row hash) |
//! | limit | — | `gather` |
//!
//! All strategies are pure plan/trace pairs: they never touch an engine,
//! so every one of them runs on the simulator and the pooled cluster with
//! bit-identical ledgers through the schedule-replay fabric.
//!
//! Every strategy's row `trace` is the tuple engine's path and the oracle
//! for its columnar `trace_batch`, which shares the kernels in
//! [`columnar`]. Only `tree-partition` and the cross joins have no native
//! `trace_batch` and ride the default row shim (see
//! [`PhysicalStrategy::trace_batch`]).

use std::collections::HashMap;
use std::sync::Arc;

use tamp_core::hashing::{mix64, WeightedHash};
use tamp_core::sorting::valid_order;
use tamp_simulator::Rel;
use tamp_topology::{NodeId, Tree};

use crate::batch::{head, sort_rows, RecordBatch};
use crate::error::QueryError;
use crate::physical::strategy::{
    BatchInput, BatchTrace, CostEstimate, ExecArgs, Fragments, OpInput, OpTrace, OperatorKind,
    PhysicalStrategy, PlanArgs, RoundSends, TraceBuilder,
};
use crate::row::{canonicalize, flatten, Row};

use columnar::{
    batch_frag_weights, empty_batch_frags, exchange_batches, flatten_batches, BatchFragments,
};

pub(crate) mod aggregate;
pub(crate) mod columnar;
pub(crate) mod cross;
pub(crate) mod group_table;
pub(crate) mod join;
pub(crate) mod sort;

/// Every built-in strategy, in registration order — the order EXPLAIN
/// lists candidates in, distribution-aware first. It does not break
/// ties: `StrategyRegistry::plan` does, on baseline-then-name.
pub(crate) fn defaults() -> Vec<Arc<dyn PhysicalStrategy>> {
    vec![
        // Joins.
        Arc::new(join::WeightedRepartitionJoin),
        Arc::new(join::BroadcastSmallJoin),
        Arc::new(join::TreePartitionJoin),
        Arc::new(join::UniformRepartitionJoin),
        // Cross joins.
        Arc::new(cross::WhcGridCross),
        Arc::new(cross::BroadcastSmallCross),
        Arc::new(cross::UniformHyperCubeCross),
        // Sorts.
        Arc::new(sort::RangeShuffleSort::weighted()),
        Arc::new(sort::RangeShuffleSort::uniform()),
        // Aggregates.
        Arc::new(aggregate::HashAggregate::weighted()),
        Arc::new(aggregate::CombiningTreeAggregate),
        Arc::new(aggregate::HashAggregate::uniform()),
        // Fixed-exchange relational operators.
        Arc::new(WeightedDistinct),
        Arc::new(GatherLimit),
    ]
}

/// Empty fragments for `tree`.
pub(crate) fn empty_frags(tree: &Tree) -> Fragments {
    vec![Vec::new(); tree.num_nodes()]
}

/// Current per-node row counts, as weights for distribution-aware
/// hashing.
pub(crate) fn frag_weights(
    tree: &Tree,
    frags: &[Vec<Row>],
    extra: &[Vec<Row>],
) -> Vec<(NodeId, u64)> {
    tree.compute_nodes()
        .iter()
        .map(|&v| (v, (frags[v.index()].len() + extra[v.index()].len()) as u64))
        .collect()
}

/// The nodes holding rows of `frags` — broadcast destinations.
pub(crate) fn holders_of(tree: &Tree, frags: &Fragments) -> Vec<NodeId> {
    tree.compute_nodes()
        .iter()
        .copied()
        .filter(|&v| !frags[v.index()].is_empty())
        .collect()
}

/// One-round replication of `small_frags` (rows of `small_w` values) to
/// every holder: records the multicast round and returns the replicated
/// fragments (every holder ends up with the full small side).
pub(crate) fn broadcast_small(
    trace: &mut TraceBuilder,
    tree: &Tree,
    small_frags: &Fragments,
    small_w: usize,
    holders: &[NodeId],
) -> Fragments {
    trace.round(|round| {
        for &v in tree.compute_nodes() {
            let local = &small_frags[v.index()];
            if local.is_empty() || holders.is_empty() {
                continue;
            }
            round.send_rows(v, holders, Rel::R, flatten(local, small_w), small_w);
        }
    });
    let mut small_new = empty_frags(tree);
    for &h in holders {
        for frag in small_frags.iter() {
            small_new[h.index()].extend(frag.iter().cloned());
        }
    }
    small_new
}

/// Drain a grouping map in ascending key order.
///
/// Exchange emission must be *deterministic*, not merely correct: the
/// schedule's content hash doubles as the checkpoint-resume token, so
/// two executions of the same pinned plan must produce byte-identical
/// schedules — the same sends in the same order — or a faulted run's
/// parked snapshot can never match its own retry. Iterating the
/// `HashMap` directly would emit sends in `RandomState` order, which
/// differs per map instance.
pub(crate) fn drain_sorted<K: Ord, V>(map: HashMap<K, V>) -> Vec<(K, V)> {
    // lint: allow(D1) — this IS the sanctioned route: the unordered
    // drain is re-sorted on the next line, which is the whole contract.
    let mut entries: Vec<(K, V)> = map.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

/// One-round repartition of row fragments by a key router.
pub(crate) fn shuffle_by_key(
    trace: &mut TraceBuilder,
    tree: &Tree,
    frags: &Fragments,
    key_idx: usize,
    width: usize,
    rel: Rel,
    router: &dyn Fn(u64) -> NodeId,
) -> Fragments {
    let mut new_frags = empty_frags(tree);
    let mut outgoing: Vec<(NodeId, NodeId, Vec<u64>)> = Vec::new();
    for &v in tree.compute_nodes() {
        let mut by_dst: HashMap<NodeId, Vec<Row>> = HashMap::new();
        for row in &frags[v.index()] {
            let dst = router(row[key_idx]);
            if dst == v {
                new_frags[v.index()].push(row.clone());
            } else {
                by_dst.entry(dst).or_default().push(row.clone());
            }
        }
        for (dst, rows) in drain_sorted(by_dst) {
            outgoing.push((v, dst, flatten(&rows, width)));
            new_frags[dst.index()].extend(rows);
        }
    }
    trace.round(|round| {
        for (src, dst, buf) in outgoing {
            round.send_rows(src, &[dst], rel, buf, width);
        }
    });
    new_frags
}

/// Local probe join of co-located fragments: `left ⋈ right` on
/// `left[li] = right[ri]`, output rows `left ++ right`.
pub(crate) fn probe_join(
    tree: &Tree,
    l_new: &Fragments,
    r_new: &Fragments,
    li: usize,
    ri: usize,
) -> Fragments {
    let mut out = empty_frags(tree);
    for &v in tree.compute_nodes() {
        let mut by_key: HashMap<u64, Vec<&Row>> = HashMap::new();
        for row in &r_new[v.index()] {
            by_key.entry(row[ri]).or_default().push(row);
        }
        for lrow in &l_new[v.index()] {
            if let Some(matches) = by_key.get(&lrow[li]) {
                for rrow in matches {
                    let mut joined = lrow.clone();
                    joined.extend_from_slice(rrow);
                    out[v.index()].push(joined);
                }
            }
        }
    }
    out
}

/// Send each `(src, dst, rows)` payload of `width`-value rows as
/// batch-chunked unicasts in a single round.
pub(crate) fn unicast_round(
    round: &mut RoundSends,
    outgoing: Vec<(NodeId, NodeId, Vec<u64>)>,
    rel: Rel,
    width: usize,
) {
    for (src, dst, buf) in outgoing {
        round.send_rows(src, &[dst], rel, buf, width);
    }
}

/// Duplicate elimination: dedup locally, shuffle under a whole-row hash
/// weighted by current loads, dedup again at the destination — a
/// duplicate never travels twice.
#[derive(Debug)]
pub(crate) struct WeightedDistinct;

impl PhysicalStrategy for WeightedDistinct {
    fn name(&self) -> &'static str {
        "weighted-repartition"
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::Distinct
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        // Assume rows are mostly distinct already (upper bound on
        // traffic): everything shuffles under the weighted hash.
        let shares = a.model.proportional_shares(&a.left.counts);
        CostEstimate {
            tuple_cost: a
                .model
                .repartition_cost(&a.left.counts, a.left.width, &shares),
            rounds: 1,
        }
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let OpInput::Distinct { input, width } = input else {
            unreachable!("registered for Distinct");
        };
        let tree = a.tree;
        let weights = frag_weights(tree, &input, &empty_frags(tree));
        let mut trace = TraceBuilder::batched(a.batch);
        let Some(hash) = WeightedHash::new(a.seed ^ 0xD157, &weights) else {
            return Ok(OpTrace {
                rounds: trace.into_rounds(),
                output: empty_frags(tree),
            });
        };
        let row_key = |row: &Row| {
            row.iter()
                .fold(0xCBF29CE484222325u64, |h, &c| mix64(h ^ mix64(c)))
        };
        let mut new_frags = empty_frags(tree);
        let mut outgoing: Vec<(NodeId, NodeId, Vec<u64>)> = Vec::new();
        for &v in tree.compute_nodes() {
            let mut by_dst: HashMap<NodeId, Vec<Row>> = HashMap::new();
            // Dedup locally first: duplicates never need to travel twice.
            let mut local = input[v.index()].clone();
            canonicalize(&mut local);
            local.dedup();
            for row in local {
                let dst = hash.pick(row_key(&row));
                if dst == v {
                    new_frags[v.index()].push(row);
                } else {
                    by_dst.entry(dst).or_default().push(row);
                }
            }
            for (dst, rows) in drain_sorted(by_dst) {
                outgoing.push((v, dst, flatten(&rows, width)));
                new_frags[dst.index()].extend(rows);
            }
        }
        trace.round(|round| unicast_round(round, outgoing, Rel::R, width));
        for frag in &mut new_frags {
            canonicalize(frag);
            frag.dedup();
        }
        Ok(OpTrace {
            rounds: trace.into_rounds(),
            output: new_frags,
        })
    }

    fn trace_batch(&self, a: &ExecArgs<'_>, input: BatchInput) -> Result<BatchTrace, QueryError> {
        let BatchInput::Distinct { input, width } = input else {
            unreachable!("registered for Distinct");
        };
        let tree = a.tree;
        let weights = batch_frag_weights(tree, &input, &empty_batch_frags(tree));
        let mut trace = TraceBuilder::batched(a.batch);
        let Some(hash) = WeightedHash::new(a.seed ^ 0xD157, &weights) else {
            return Ok(BatchTrace {
                rounds: trace.into_rounds(),
                output: empty_batch_frags(tree),
            });
        };
        // Dedup locally first: duplicates never need to travel twice.
        let local: BatchFragments = input.iter().map(|b| sorted_distinct(b, width)).collect();
        let by_index: Vec<NodeId> = tree.nodes().collect();
        let mut row_keys: Vec<u64> = Vec::new();
        let shuffled = exchange_batches(
            &mut trace,
            &local,
            width,
            Rel::R,
            tree.compute_nodes(),
            &by_index,
            // The row path's whole-row hash, folded a column at a time.
            &mut |b, out| {
                row_keys.clear();
                row_keys.resize(b.num_rows(), 0xCBF29CE484222325);
                for c in 0..width {
                    for (h, &x) in row_keys.iter_mut().zip(b.col(c)) {
                        *h = mix64(*h ^ mix64(x));
                    }
                }
                out.extend(row_keys.iter().map(|&h| hash.pick(h).index() as u32));
            },
        );
        Ok(BatchTrace {
            rounds: trace.into_rounds(),
            output: shuffled.iter().map(|b| sorted_distinct(b, width)).collect(),
        })
    }
}

/// A batch list's distinct rows in canonical order, as at most one batch.
fn sorted_distinct(batches: &[RecordBatch], width: usize) -> Vec<RecordBatch> {
    sort_rows(batches, width, None, |all, perm| {
        perm.dedup_by(|x, y| all.cmp_rows(*x, *y).is_eq())
    })
}

/// Limit: a bounded gather to the first compute node — each node
/// contributes at most `n` rows, so the gather ships `O(n·|V_C|)` rows
/// regardless of input size.
#[derive(Debug)]
pub(crate) struct GatherLimit;

impl PhysicalStrategy for GatherLimit {
    fn name(&self) -> &'static str {
        "gather"
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::Limit
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        let target = valid_order(a.model.tree())[0];
        let contributions: Vec<f64> = a
            .left
            .counts
            .iter()
            .map(|&c| c.min(a.limit as f64))
            .collect();
        CostEstimate {
            tuple_cost: a.model.gather_cost(&contributions, a.left.width, target),
            rounds: 1,
        }
    }

    fn output_shares(&self, a: &PlanArgs<'_>) -> Vec<f64> {
        let target = valid_order(a.model.tree())[0];
        let mut shares = a.model.zero_counts();
        shares[target.index()] = 1.0;
        shares
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let OpInput::Limit {
            input,
            n,
            width,
            order_preserving,
        } = input
        else {
            unreachable!("registered for Limit");
        };
        let tree = a.tree;
        let order = valid_order(tree);
        let target = order[0];
        // Each node contributes at most n rows (its first n in local
        // order).
        let mut contributions: Vec<(NodeId, Vec<Row>)> = Vec::new();
        for &v in &order {
            let mut local = input[v.index()].clone();
            if !order_preserving {
                canonicalize(&mut local);
            }
            local.truncate(n);
            contributions.push((v, local));
        }
        let mut trace = TraceBuilder::batched(a.batch);
        trace.round(|round| {
            for (v, rows) in &contributions {
                if *v != target && !rows.is_empty() {
                    round.send_rows(*v, &[target], Rel::R, flatten(rows, width), width);
                }
            }
        });
        // Concatenate in node order (global order for order-preserving
        // inputs), else canonicalize, then cut.
        let mut all: Vec<Row> = contributions.into_iter().flat_map(|(_, r)| r).collect();
        if !order_preserving {
            canonicalize(&mut all);
        }
        all.truncate(n);
        let mut out = empty_frags(tree);
        out[target.index()] = all;
        Ok(OpTrace {
            rounds: trace.into_rounds(),
            output: out,
        })
    }

    fn trace_batch(&self, a: &ExecArgs<'_>, input: BatchInput) -> Result<BatchTrace, QueryError> {
        let BatchInput::Limit {
            input,
            n,
            width,
            order_preserving,
        } = input
        else {
            unreachable!("registered for Limit");
        };
        let tree = a.tree;
        let order = valid_order(tree);
        let target = order[0];
        // The first `n` rows of a batch list — in list order when that
        // order is meaningful, in canonical order otherwise.
        let first_n = |batches: &[RecordBatch]| {
            if order_preserving {
                head(batches, n)
            } else {
                sort_rows(batches, width, None, |_, perm| perm.truncate(n))
            }
        };
        // Each node contributes at most n rows; the target cuts the
        // node-order concatenation of the contributions the same way.
        let mut trace = TraceBuilder::batched(a.batch);
        let mut gathered: Vec<RecordBatch> = Vec::new();
        trace.round(|round| {
            for &v in &order {
                let local = first_n(&input[v.index()]);
                if v != target {
                    round.send_rows(v, &[target], Rel::R, flatten_batches(&local, width), width);
                }
                gathered.extend(local);
            }
        });
        let mut out = empty_batch_frags(tree);
        out[target.index()] = first_n(&gathered);
        Ok(BatchTrace {
            rounds: trace.into_rounds(),
            output: out,
        })
    }
}
