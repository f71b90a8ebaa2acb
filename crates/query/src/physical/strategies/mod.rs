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
//! bit-identical ledgers through the schedule-replay fabric. They share
//! the exchange kernels in [`columnar`].
//!
//! Two tests hold every entry of the table to account, whatever it
//! computes locally. `every_registered_strategy_is_exchange_sound` (the
//! `soundness` module below, over whatever [`defaults`] registers) checks
//! that each node's output is made only of values it held or was sent —
//! a strategy that under-sends is caught even though its rows are right.
//! `tests/plan_parity.rs` pins each strategy's rounds and `edge_totals`
//! on a fixed instance (`PINNED_LEDGERS`), so a change to what a
//! strategy sends is a deliberate edit of that table.

use std::sync::Arc;

use tamp_core::hashing::{mix64, WeightedHash};
use tamp_simulator::{Rel, SharedSlice};
use tamp_topology::NodeId;

use crate::batch::{
    batch_rows, cut, flatten, head, sort_segments, whole, BatchFragments, Keep, RecordBatch,
};
use crate::error::QueryError;
use crate::physical::strategy::{
    CostEstimate, ExecArgs, OpInput, OpParams, OpTrace, OperatorKind, PhysicalStrategy, PlanArgs,
    TraceBuilder,
};

use columnar::{batch_frag_weights, empty_batch_frags, exchange_batches};

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
        Arc::new(join::RepartitionJoin::weighted()),
        Arc::new(join::BroadcastSmallJoin),
        Arc::new(join::TreePartitionJoin),
        Arc::new(join::RepartitionJoin::uniform()),
        // Cross joins.
        Arc::new(cross::RectCross::whc()),
        Arc::new(cross::BroadcastSmallCross),
        Arc::new(cross::RectCross::hypercube()),
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
        let (OpParams::Distinct { width }, Ok([input])) =
            (input.params, <[_; 1]>::try_from(input.inputs))
        else {
            unreachable!("registered for Distinct");
        };
        let tree = a.tree;
        let weights = batch_frag_weights(tree, &[&input]);
        let mut trace = TraceBuilder::default();
        let Some(hash) = WeightedHash::new(a.seed ^ 0xD157, &weights) else {
            return Ok(OpTrace {
                rounds: trace.into_rounds(),
                output: empty_batch_frags(tree),
            });
        };
        // Dedup locally first: duplicates never need to travel twice.
        let local = sort_segments(&input, width, None, Keep::Distinct);
        let by_index: Arc<[NodeId]> = tree.nodes().collect();
        let mut row_keys: Vec<u64> = Vec::new();
        let shuffled = exchange_batches(
            &mut trace,
            &local,
            width,
            Rel::R,
            tree.compute_nodes(),
            &by_index,
            // A whole-row hash, folded a column at a time.
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
        Ok(OpTrace {
            rounds: trace.into_rounds(),
            output: sort_segments(&shuffled, width, None, Keep::Distinct),
        })
    }
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
        let target = a.order[0];
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
        let target = a.order[0];
        let mut shares = a.model.zero_counts();
        shares[target.index()] = 1.0;
        shares
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let (
            OpParams::Limit {
                n,
                width,
                order_preserving,
            },
            Ok([input]),
        ) = (input.params, <[_; 1]>::try_from(input.inputs))
        else {
            unreachable!("registered for Limit");
        };
        let (tree, order) = (a.tree, &a.order);
        let target = order[0];
        // The first `n` rows of each batch list — in list order when that
        // order is meaningful, in canonical order otherwise.
        let first_n = |lists: &[&[RecordBatch]]| -> BatchFragments {
            match order_preserving {
                true => lists.iter().map(|batches| head(batches, n)).collect(),
                false => sort_segments(lists, width, None, Keep::First(n)),
            }
        };
        // Each node contributes at most n rows; the target cuts the
        // node-order concatenation of the contributions the same way. The
        // others' are ranges of one row-major buffer.
        let mut trace = TraceBuilder::default();
        let lists: Vec<&[RecordBatch]> = order.iter().map(|v| &input[v.index()][..]).collect();
        let locals = first_n(&lists);
        let sent = &locals[1..];
        let rows = sent.iter().map(|l| batch_rows(l)).sum();
        let all = sent.iter().flat_map(|l| whole(l));
        let mut cut = cut(flatten(rows, all, width), width);
        let dst = SharedSlice::from(&[target]);
        trace.round_with_capacity(sent.len(), |round| {
            for (&v, local) in order[1..].iter().zip(sent) {
                round.send(v, dst.clone(), Rel::R, cut(batch_rows(local)));
            }
        });
        let gathered: Vec<RecordBatch> = locals.into_iter().flatten().collect();
        let mut out = empty_batch_frags(tree);
        out[target.index()] = first_n(&[&gathered]).remove(0);
        Ok(OpTrace {
            rounds: trace.into_rounds(),
            output: out,
        })
    }
}

#[cfg(test)]
mod tests {
    use tamp_core::sorting::valid_order;
    use tamp_runtime::jobs::ScheduleSend;
    use tamp_topology::builders;

    use super::*;
    use crate::batch::convert::{batches_to_rows, rows_to_batches};
    use crate::row::Row;

    /// One payload is one send, however many rows it carries: a gather
    /// whose only source holds 5,000 rows (in five batches) ships them to
    /// the target as one send carrying every row, row-major, in order.
    #[test]
    fn a_payload_is_one_send() {
        let tree = builders::star(3, 1.0);
        let target = valid_order(&tree)[0];
        let source = *tree.compute_nodes().iter().find(|&&v| v != target).unwrap();
        let rows: Vec<Row> = (0..5_000u64).map(|i| vec![i, i * 7]).collect();
        let mut input = empty_batch_frags(&tree);
        input[source.index()] = rows_to_batches(&rows, 2, 1_000);
        let args = ExecArgs {
            tree: &tree,
            seed: 0,
            order: valid_order(&tree).into(),
        };
        let traced = GatherLimit
            .trace(
                &args,
                OpInput {
                    params: OpParams::Limit {
                        n: rows.len(),
                        width: 2,
                        order_preserving: true,
                    },
                    inputs: vec![input],
                },
            )
            .unwrap();
        let [round] = &traced.rounds[..] else {
            panic!("{} rounds", traced.rounds.len());
        };
        let [send] = &round[..] else {
            panic!("{} sends", round.len());
        };
        assert_eq!((send.src, &send.dsts[..]), (source, &[target][..]));
        assert_eq!(*send.values, *rows.concat());
        assert_eq!(batches_to_rows(&traced.output)[target.index()], rows);
    }

    /// Every send of `round` is cut from one payload buffer and one
    /// destination buffer, and the payloads, in send order, tile the
    /// payload buffer.
    fn assert_cut_from_one_buffer(what: &str, round: &[ScheduleSend]) {
        assert!(round.len() > 1, "{what}: {} sends", round.len());
        let (values, dsts) = (round[0].values.buffer(), round[0].dsts.buffer());
        let mut at = values.as_ptr();
        for send in round {
            assert!(
                Arc::ptr_eq(send.values.buffer(), values),
                "{what}: payload buffers"
            );
            assert!(
                Arc::ptr_eq(send.dsts.buffer(), dsts),
                "{what}: destination buffers"
            );
            let cells = send.values.as_ptr_range();
            assert_eq!(
                cells.start, at,
                "{what}: a payload leaves a gap or overlaps"
            );
            at = cells.end;
        }
        assert_eq!(
            at,
            values.as_ptr_range().end,
            "{what}: the payloads stop short"
        );
    }

    /// A send allocates nothing: the hash shuffle, the range shuffle's
    /// sample round and its exchange, the limit gather and the small-side
    /// broadcast each cut their round's sends from one buffer.
    #[test]
    fn an_exchange_cuts_its_sends_from_one_buffer() {
        let tree = builders::fat_tree(2, 8, 1.0);
        let vc = tree.compute_nodes();
        let spread = |rows: Vec<Row>, width| {
            let mut frags = empty_batch_frags(&tree);
            for (i, chunk) in rows.chunks(7).enumerate() {
                frags[vc[i % vc.len()].index()].push(RecordBatch::from_rows(chunk, width));
            }
            frags
        };
        let left = || {
            spread(
                (0..900).map(|i| vec![i, mix64(i) % 50, i % 97]).collect(),
                3,
            )
        };
        let right = || spread((0..50).map(|k| vec![k, 100 + k]).collect(), 2);
        let join = || OpInput {
            params: OpParams::Join {
                left_key: 1,
                right_key: 0,
                left_width: 3,
                right_width: 2,
            },
            inputs: vec![left(), right()],
        };
        let args = ExecArgs {
            tree: &tree,
            seed: 3,
            order: valid_order(&tree).into(),
        };
        let rounds =
            |strategy: &dyn PhysicalStrategy, input| strategy.trace(&args, input).unwrap().rounds;

        let shuffle = rounds(&join::RepartitionJoin::weighted(), join());
        assert_cut_from_one_buffer("hash shuffle, left", &shuffle[0]);
        assert_cut_from_one_buffer("hash shuffle, right", &shuffle[1]);
        let sort = OpInput {
            params: OpParams::Sort { key: 2, width: 3 },
            inputs: vec![left()],
        };
        let sort = rounds(&sort::RangeShuffleSort::weighted(), sort);
        assert_cut_from_one_buffer("sample round", &sort[0]);
        assert_cut_from_one_buffer("range shuffle", &sort[2]);
        let limit = OpInput {
            params: OpParams::Limit {
                n: 5,
                width: 3,
                order_preserving: true,
            },
            inputs: vec![left()],
        };
        assert_cut_from_one_buffer("gather", &rounds(&GatherLimit, limit)[0]);
        let broadcast = rounds(&join::BroadcastSmallJoin, join());
        assert_cut_from_one_buffer("broadcast-small", &broadcast[0]);
        // The small side is the right one, and travels as `S`.
        assert!(broadcast[0].iter().all(|send| send.rel == Rel::S));
    }
}

/// Exchange soundness: a node emits only what it held or was sent.
///
/// Strategies compute their output from model knowledge, not from what
/// their rounds deliver, so one whose exchange under-sends still returns
/// the right rows — at an under-reported cost — and no comparison with
/// `reference::evaluate` can tell. This check can: it delivers each
/// trace's sends by hand and looks every emitted value up in what the
/// emitting node then knows.
#[cfg(test)]
mod soundness {
    use std::collections::BTreeSet;

    use tamp_runtime::jobs::ScheduleSend;
    use tamp_simulator::Value;
    use tamp_topology::{builders, Tree};

    use super::*;
    use crate::batch::convert::{batches_to_rows, rows_to_batches};
    use crate::physical::strategy::StrategyRegistry;
    use crate::plan::AggFunc;
    use crate::row::Row;
    use crate::schema::Schema;
    use crate::table::DistributedTable;

    const OPERATORS: [OperatorKind; 6] = [
        OperatorKind::Join,
        OperatorKind::CrossJoin,
        OperatorKind::Sort,
        OperatorKind::Aggregate,
        OperatorKind::Distinct,
        OperatorKind::Limit,
    ];
    /// Left rows are `(id, key, x)`, right rows `(key, id)`.
    const LW: usize = 3;
    const RW: usize = 2;
    const L_KEY: usize = 1;
    const R_KEY: usize = 0;

    /// `rows` placed 60 % on one compute node (which one moves with the
    /// seed), the rest round-robin, as 5-row batches.
    fn skewed(tree: &Tree, rows: Vec<Row>, width: usize, seed: u64) -> BatchFragments {
        let vc = tree.compute_nodes();
        let heavy = vc[seed as usize % vc.len()];
        let schema = Schema::new(["a", "b", "c"][..width].to_vec()).unwrap();
        let table = DistributedTable::skewed("t", schema, rows, tree, heavy, 0.6);
        let own = batches_to_rows(&table.scan_batches());
        own.iter()
            .map(|rows| rows_to_batches(rows, width, 5))
            .collect()
    }

    /// Every width-`w` chunk of every payload of relation `rel` the
    /// rounds deliver to `v`. A left input travels as `R`, a right input
    /// (and an aggregate's partials) as `S`: a side sent under the other
    /// tag lands in the wrong fragment on replay.
    fn delivered(
        rounds: &[Vec<ScheduleSend>],
        v: NodeId,
        (w, rel): (usize, Rel),
    ) -> impl Iterator<Item = &[Value]> {
        rounds
            .iter()
            .flatten()
            .filter(move |s| s.rel == rel && s.dsts.contains(&v))
            .flat_map(move |s| s.values.chunks_exact(w))
    }

    /// What `v` knows of relation `rel` at width `w`: its own rows plus
    /// what it was sent.
    fn have(
        own: &[Row],
        rounds: &[Vec<ScheduleSend>],
        v: NodeId,
        w_rel: (usize, Rel),
    ) -> BTreeSet<Row> {
        let sent = delivered(rounds, v, w_rel).map(<[Value]>::to_vec);
        own.iter().cloned().chain(sent).collect()
    }

    /// The inputs `op` is traced on: once, except `limit`, which runs
    /// with and without a meaningful input order.
    fn inputs(
        op: OperatorKind,
        left: &BatchFragments,
        right: &BatchFragments,
        seed: u64,
    ) -> Vec<OpInput> {
        let params = match op {
            OperatorKind::Join => vec![OpParams::Join {
                left_key: L_KEY,
                right_key: R_KEY,
                left_width: LW,
                right_width: RW,
            }],
            OperatorKind::CrossJoin => vec![OpParams::CrossJoin {
                left_width: LW,
                right_width: RW,
            }],
            OperatorKind::Sort => vec![OpParams::Sort {
                key: seed as usize % LW,
                width: LW,
            }],
            OperatorKind::Aggregate => vec![OpParams::Aggregate {
                group: L_KEY,
                measure: 2,
                agg: [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max][seed as usize % 4],
            }],
            OperatorKind::Distinct => vec![OpParams::Distinct { width: LW }],
            OperatorKind::Limit => [false, true]
                .into_iter()
                .map(|order_preserving| OpParams::Limit {
                    n: 7,
                    width: LW,
                    order_preserving,
                })
                .collect(),
        };
        let inputs = match op {
            OperatorKind::Join | OperatorKind::CrossJoin => vec![left.clone(), right.clone()],
            _ => vec![left.clone()],
        };
        params
            .into_iter()
            .map(|params| OpInput {
                params,
                inputs: inputs.clone(),
            })
            .collect()
    }

    /// Check one trace's output at every node; returns the rows checked.
    fn check(
        what: &str,
        tree: &Tree,
        op: OperatorKind,
        (l_own, r_own): (&[Vec<Row>], &[Vec<Row>]),
        traced: &OpTrace,
    ) -> usize {
        let rounds = &traced.rounds;
        let output = batches_to_rows(&traced.output);
        for v in tree.nodes() {
            let out = &output[v.index()];
            if out.is_empty() {
                continue;
            }
            let (l_own, r_own) = (&l_own[v.index()], &r_own[v.index()]);
            match op {
                OperatorKind::Join | OperatorKind::CrossJoin => {
                    let l_have = have(l_own, rounds, v, (LW, Rel::R));
                    let r_have = have(r_own, rounds, v, (RW, Rel::S));
                    for row in out {
                        assert!(
                            l_have.contains(&row[..LW]) && r_have.contains(&row[LW..]),
                            "{what}: {v:?} emits {row:?} from rows it never had"
                        );
                    }
                }
                OperatorKind::Aggregate => {
                    let groups: BTreeSet<Value> = l_own
                        .iter()
                        .map(|r| r[L_KEY])
                        .chain(delivered(rounds, v, (2, Rel::S)).map(|partial| partial[0]))
                        .collect();
                    for row in out {
                        assert!(
                            groups.contains(&row[0]),
                            "{what}: {v:?} emits group {}, which it never had",
                            row[0]
                        );
                    }
                }
                OperatorKind::Sort | OperatorKind::Distinct | OperatorKind::Limit => {
                    let l_have = have(l_own, rounds, v, (LW, Rel::R));
                    for row in out {
                        assert!(
                            l_have.contains(row),
                            "{what}: {v:?} emits {row:?}, a row it never had"
                        );
                    }
                }
            }
        }
        output.iter().map(Vec::len).sum()
    }

    #[test]
    fn every_registered_strategy_is_exchange_sound() {
        let registry = StrategyRegistry::with_defaults();
        let trees = [
            ("star", builders::star(5, 1.0)),
            (
                "rack-tree",
                builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0),
            ),
            ("caterpillar", builders::caterpillar(3, 2, 1.5)),
            ("fat-tree", builders::fat_tree(2, 3, 1.0)),
        ];
        let mut checked = 0;
        for (tree_name, tree) in &trees {
            for seed in 0..6u64 {
                for (l_total, r_total) in [(40, 9), (9, 40), (25, 25), (0, 5)] {
                    let l_rows = (0..l_total)
                        .map(|i| vec![i, mix64(i ^ seed) % 7, mix64(i) % 50])
                        .collect();
                    let r_rows = (0..r_total).map(|k| vec![k % 7, 100 + k]).collect();
                    let left = skewed(tree, l_rows, LW, seed);
                    let right = skewed(tree, r_rows, RW, seed + 1);
                    let own = (batches_to_rows(&left), batches_to_rows(&right));
                    let order = tamp_core::sorting::valid_order(tree).into();
                    let args = ExecArgs { tree, seed, order };
                    for op in OPERATORS {
                        for strategy in registry.candidates(op) {
                            for input in inputs(op, &left, &right, seed) {
                                let what = format!(
                                    "{op} {} on {tree_name}, seed {seed}, {l_total}×{r_total}",
                                    strategy.name()
                                );
                                let traced = strategy.trace(&args, input).unwrap();
                                let emitted = check(&what, tree, op, (&own.0, &own.1), &traced);
                                if op == OperatorKind::CrossJoin {
                                    assert_eq!(emitted as u64, l_total * r_total, "{what}");
                                }
                                checked += emitted;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked >= 10_000, "only {checked} rows checked");
    }
}
