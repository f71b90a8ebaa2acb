//! Exchange kernels shared by the built-in strategies.
//!
//! Routing scans columns, a shuffle is one counting scatter into one
//! column list that each destination's batch views a range of, and
//! replication shares the source batches. The exchanges all keep one
//! order: per destination, rows arrive in source order, each source's in
//! its scan order, and the rows a source keeps for itself sit at that
//! source's own position. Sends leave in the same source-then-destination
//! order, which the schedule's content hash — the checkpoint token —
//! covers.

use std::ops::Range;
use std::sync::Arc;

use tamp_core::hashing::{mix64, WeightedHash};
use tamp_simulator::{Rel, SharedSlice, Value};
use tamp_topology::{NodeId, Tree};

use crate::batch::{
    batch_rows, cut, flatten, gather_runs, new_columns, runs, starts, views, whole, BatchFragments,
    Columns, RecordBatch,
};
use crate::error::QueryError;
use crate::physical::strategy::{ExecArgs, OpTrace, TraceBuilder};
use crate::plan::AggFunc;

use super::group_table::{GroupTable, KeyTable};

/// The trace of an exchange with no rows to move: no rounds, no output.
pub(crate) fn empty_trace(tree: &Tree) -> Result<OpTrace, QueryError> {
    TraceBuilder::default().finish(BatchFragments::from_fn(tree.num_nodes(), |_| None))
}

/// Current per-node row counts of all `sides`, as weights for
/// distribution-aware hashing.
pub(crate) fn batch_frag_weights(tree: &Tree, sides: &[&BatchFragments]) -> Vec<(NodeId, u64)> {
    let rows = |v: NodeId| {
        (sides.iter())
            .map(|f| batch_rows(&f[v.index()]) as u64)
            .sum()
    };
    (tree.compute_nodes().iter())
        .map(|&v| (v, rows(v)))
        .collect()
}

/// The nodes holding rows of `frags` — broadcast destinations.
pub(crate) fn batch_holders_of(tree: &Tree, frags: &BatchFragments) -> Vec<NodeId> {
    tree.compute_nodes()
        .iter()
        .copied()
        .filter(|&v| batch_rows(&frags[v.index()]) > 0)
        .collect()
}

/// A source's rows bound for one slot: `(source, slot, rows of the list)`.
pub(crate) type Run = (NodeId, usize, Range<usize>);

/// Scatter `sources`' rows into slots (`route` appends one per row of the
/// source batch it is shown): slot `s` is `starts[s]..starts[s + 1]` of
/// one column list, each source's run in turn. Returns the list, `starts`
/// and every source's runs, in `sources` order, slots ascending.
pub(crate) fn counting_scatter(
    frags: &BatchFragments,
    width: usize,
    sources: &[NodeId],
    slots: usize,
    route: &mut dyn FnMut(NodeId, &RecordBatch, &mut Vec<u32>),
) -> (Columns, Vec<usize>, Vec<Run>) {
    // Route and count: each row's `(slot, position)` and each source's
    // runs; `seen[s]` is the last source to touch `s`.
    let (mut counts, mut seen) = (vec![0; slots], vec![usize::MAX; slots]);
    let total = sources.iter().map(|v| batch_rows(&frags[v.index()])).sum();
    let (mut row_slots, mut place) = (Vec::new(), Vec::<(u32, u32)>::with_capacity(total));
    let mut runs: Vec<Run> = Vec::new();
    for (i, &v) in sources.iter().enumerate() {
        let first = runs.len();
        row_slots.clear();
        for b in &frags[v.index()] {
            route(v, b, &mut row_slots);
        }
        debug_assert_eq!(row_slots.len(), batch_rows(&frags[v.index()]));
        for &s in &row_slots {
            let s = s as usize;
            if std::mem::replace(&mut seen[s], i) != i {
                runs.push((v, s, counts[s]..counts[s]));
            }
            place.push((s as u32, counts[s] as u32));
            counts[s] += 1;
        }
        for run in &mut runs[first..] {
            run.2.end = counts[run.1];
        }
        runs[first..].sort_unstable_by_key(|run| run.1);
    }
    // Slot `s`'s rows are `start[s]..start[s + 1]` of the list.
    let start = starts(counts);
    let cols = new_columns(width, total, |c, col| {
        let mut at = 0;
        for b in sources.iter().flat_map(|v| &frags[v.index()]) {
            for (&x, &(s, p)) in b.col(c).iter().zip(&place[at..]) {
                col[start[s as usize] + p as usize] = x;
            }
            at += b.num_rows();
        }
    });
    for (_, s, rows) in &mut runs {
        *rows = start[*s] + rows.start..start[*s] + rows.end;
    }
    (cols, start, runs)
}

/// The payloads of `runs` of `cols`, in order: consecutive cuts of one
/// row-major buffer of all their rows.
pub(crate) fn payloads<'a>(
    cols: &Columns,
    runs: impl Iterator<Item = &'a Run> + Clone,
    width: usize,
) -> impl FnMut(usize) -> SharedSlice<Value> {
    let all = RecordBatch::view(cols, 0..cols.first().map_or(0, |c| c.len()));
    let rows = runs.clone().map(|run| run.2.len()).sum();
    let places = runs.map(|run| (&all, run.2.clone()));
    cut(flatten(rows, places, width), width)
}

/// One-round exchange of batch fragments among destination *slots*.
///
/// Each source, in `sources` order, splits its rows by slot (`route` as
/// in [`counting_scatter`]), and slot `s` delivers to node `slots[s]`, no
/// two slots to one node — whatever a slot stands for: the destination
/// node for the hash shuffles, the splitter bucket for the range shuffle.
///
/// A slot's one output batch is a range of the scatter's column list. A
/// source sends each of its runs but the one it keeps, in ascending slot
/// order: its payload cut from one row-major buffer of all sent runs, its
/// one-node destination list from `slots`.
pub(crate) fn exchange_batches(
    trace: &mut TraceBuilder,
    frags: &BatchFragments,
    width: usize,
    rel: Rel,
    sources: &[NodeId],
    slots: &Arc<[NodeId]>,
    route: &mut dyn FnMut(NodeId, &RecordBatch, &mut Vec<u32>),
) -> BatchFragments {
    let (cols, at, runs) = counting_scatter(frags, width, sources, slots.len(), route);
    let sent = || runs.iter().filter(|run| slots[run.1] != run.0);
    let mut cut = payloads(&cols, sent(), width);
    trace.round_with_capacity(sent().count(), |round| {
        for (src, s, rows) in sent() {
            let dst = SharedSlice::new(slots.clone(), *s..*s + 1);
            round.send(*src, dst, rel, cut(rows.len()));
        }
    });
    let held = slots
        .iter()
        .zip(at.windows(2))
        .filter(|(_, at)| at[0] < at[1]);
    let held = held.map(|(dst, at)| (dst.index(), RecordBatch::view(&cols, at[0]..at[1])));
    BatchFragments::scatter(frags.len(), held.collect())
}

/// One-round repartition of batch fragments by a key router: one key-column
/// scan, one batch per destination, one send per `(src, dst)` pair,
/// destinations in ascending node order.
pub(crate) fn shuffle_batches_by_key(
    trace: &mut TraceBuilder,
    tree: &Tree,
    frags: &BatchFragments,
    key_idx: usize,
    width: usize,
    rel: Rel,
    router: &dyn Fn(u64) -> NodeId,
) -> BatchFragments {
    let by_index: Arc<[NodeId]> = tree.nodes().collect();
    exchange_batches(
        trace,
        frags,
        width,
        rel,
        tree.compute_nodes(),
        &by_index,
        &mut |_, b, out| out.extend(b.col(key_idx).iter().map(|&k| router(k).index() as u32)),
    )
}

/// The key → owner map of a hash exchange: the hash weighted by
/// `weights` (current per-node row counts; `None` when there are no rows
/// to weigh), or the uniform MPC hash.
pub(crate) fn key_router(
    a: &ExecArgs<'_>,
    weighted: bool,
    weights: impl FnOnce() -> Vec<(NodeId, u64)>,
) -> Option<Box<dyn Fn(u64) -> NodeId>> {
    if weighted {
        let hash = WeightedHash::new(a.seed, &weights())?;
        return Some(Box::new(move |key| hash.pick(key)));
    }
    let (vc, seed) = (a.tree.compute_nodes().to_vec(), a.seed);
    let pick = move |k: u64| vc[(mix64(k ^ seed) % vc.len() as u64) as usize];
    Some(Box::new(pick))
}

/// One-round replication of `small_frags` (relation `rel`) to every
/// holder: each source's rows are one range of one row-major buffer, all
/// sends share one destination list, and every holder's fragment is the
/// small side's runs, shared — no row copies at all.
pub(crate) fn broadcast_small_batches(
    trace: &mut TraceBuilder,
    tree: &Tree,
    small_frags: &BatchFragments,
    small_w: usize,
    rel: Rel,
    holders: &[NodeId],
) -> BatchFragments {
    let local = |v: &NodeId| &small_frags[v.index()];
    let sources = tree.compute_nodes();
    let rows = sources.iter().map(|v| batch_rows(local(v))).sum();
    let all = sources.iter().flat_map(|v| whole(local(v)));
    let mut cut = cut(flatten(rows, all, small_w), small_w);
    let dsts = SharedSlice::from(holders);
    trace.round_with_capacity(sources.len(), |round| {
        for v in sources {
            round.send(*v, dsts.clone(), rel, cut(batch_rows(local(v))));
        }
    });
    let (small, mut holders) = (&runs(small_frags.batches()).0, holders.iter().peekable());
    BatchFragments::from_fn(small_frags.len(), move |v| {
        let held = holders.next_if(|h| h.index() == v).is_some();
        small.iter().filter(move |_| held).cloned()
    })
}
/// A join build side: a multimap from join key to the `(batch, row)`
/// locations holding it, in scan order per key — all the join output
/// depends on, so nothing downstream sees where the table put a key.
struct JoinBuild {
    /// CSR over `locs`: each key's `(start, end)`.
    spans: KeyTable<(u32, u32)>,
    locs: Vec<(u32, u32)>,
}

impl JoinBuild {
    fn new(batches: &[RecordBatch], key_idx: usize) -> Self {
        // Pass 1: count rows per distinct key, in `end`.
        let mut spans = KeyTable::new();
        for b in batches {
            for &key in b.col(key_idx) {
                spans.upsert(key, (0u32, 1u32), |span| span.1 += 1);
            }
        }
        // Counts become each list's start, and its cursor …
        let mut rows = 0;
        for span in spans.values_mut() {
            let count = std::mem::replace(span, (rows, rows)).1;
            rows += count;
        }
        // … and pass 2 drops each row's location at its key's cursor (no
        // key is new now), in scan order: cursors stop at their lists' ends.
        let mut locs = vec![(0u32, 0u32); rows as usize];
        for (bi, b) in batches.iter().enumerate() {
            for (ri, &key) in b.col(key_idx).iter().enumerate() {
                spans.upsert(key, (0, 0), |span| {
                    locs[span.1 as usize] = (bi as u32, ri as u32);
                    span.1 += 1;
                });
            }
        }
        JoinBuild { spans, locs }
    }

    fn get(&self, key: u64) -> &[(u32, u32)] {
        let (start, end) = self.spans.find(key).copied().unwrap_or((0, 0));
        &self.locs[start as usize..end as usize]
    }
}

/// A probing node and its output rows.
type Probe = (NodeId, Range<usize>);

/// Local probe join of co-located batch fragments: build on the right,
/// probe in left order — `left ++ right` rows, left scan order outermost,
/// each left row's matches in right scan order — then one gather per
/// output column into one column list that every node's output batch
/// views a range of.
///
/// `right_replicated` says every non-empty `r_new[v]` is the same batch
/// list (a broadcast right side): the build then happens once and every
/// node probes the shared table.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_join_batches(
    tree: &Tree,
    l_new: &BatchFragments,
    r_new: &BatchFragments,
    li: usize,
    ri: usize,
    lw: usize,
    rw: usize,
    right_replicated: bool,
) -> BatchFragments {
    let mut shared: Option<JoinBuild> = None;
    // Every node's matches back to back, a left and a right pick per output
    // row. While each probing node's left side is one batch of a list all
    // view, past the previous node's rows (the right columns are written at
    // those rows), and each row matches once (a foreign-key join), left
    // picks stay implicit and the output shares its columns; `spell` writes
    // them out.
    let (mut fk, mut fk_list, mut fk_end) = (true, None, 0);
    let (mut l_picks, mut r_picks) = (Vec::new(), Vec::with_capacity(batch_rows(l_new.batches())));
    let mut nodes: Vec<Probe> = Vec::new();
    let spell = |l_picks: &mut Vec<(u32, u32)>, lens: &mut dyn Iterator<Item = usize>| {
        lens.for_each(|n| l_picks.extend((0..n as u32).map(|r| (0, r))));
    };
    for &v in tree.compute_nodes() {
        let (lbatches, rbatches) = (&l_new[v.index()], &r_new[v.index()]);
        if batch_rows(rbatches) == 0 || batch_rows(lbatches) == 0 {
            continue;
        }
        if !right_replicated {
            shared = None;
        }
        let build = shared.get_or_insert_with(|| JoinBuild::new(rbatches, ri));
        let (list, rows) = (&lbatches[0].cols, lbatches[0].range());
        let fits = fk_list.is_none_or(|l| Arc::ptr_eq(l, list)) && rows.start >= fk_end;
        if fk && (lbatches.len() > 1 || !fits) {
            fk = false;
            spell(&mut l_picks, &mut nodes.iter().map(|n| n.1.len()));
        }
        (fk_list, fk_end) = (fk_list.or(Some(list)), rows.end);
        // Probe in left scan order.
        let start = r_picks.len();
        for (bi, b) in lbatches.iter().enumerate() {
            for (lr, &key) in b.col(li).iter().enumerate() {
                let found = build.get(key);
                if fk && found.len() != 1 {
                    fk = false;
                    let done = nodes.iter().map(|n| n.1.len());
                    spell(&mut l_picks, &mut done.chain([lr]));
                }
                for &loc in found {
                    l_picks.extend((!fk).then_some((bi as u32, lr as u32)));
                    r_picks.push(loc);
                }
            }
        }
        if r_picks.len() > start {
            nodes.push((v, start..r_picks.len()));
        }
    }
    // One gather per column over every node's picks: at the node's left
    // rows of the shared list, or back to back.
    let left = |v: NodeId| l_new[v.index()][0].range();
    let at = |(v, rows): &Probe| if fk { left(*v) } else { rows.clone() };
    let len = nodes.iter().map(|n| at(n).end).max().unwrap_or(0);
    let r_run = |n: &Probe| (&r_new[n.0.index()][..], &r_picks[n.1.clone()], at(n).start);
    let right: Vec<Arc<[Value]>> = gather_runs(rw, len, || nodes.iter().map(r_run));
    let cols: Columns = match (fk, fk_list) {
        (true, Some(list)) => list.iter().cloned().chain(right).collect(),
        _ => {
            let l_run = |n: &Probe| (&l_new[n.0.index()][..], &l_picks[n.1.clone()], n.1.start);
            let left: Vec<Arc<[Value]>> = gather_runs(lw, len, || nodes.iter().map(l_run));
            left.into_iter().chain(right).collect()
        }
    };
    let mut nodes = nodes.iter().peekable();
    BatchFragments::from_fn(l_new.len(), |v| {
        let n = nodes.next_if(|n| n.0.index() == v)?;
        Some(RecordBatch::view(&cols, at(n)))
    })
}

/// Fold the `(group, measure)` column pairs of each segment's batches —
/// a segment is one node's batch list — into one width-2 batch of
/// `(group, partial)` rows in ascending group order (none for a segment
/// without rows); the batches view one column list, and fragment `i` is
/// segment `i`. `lift` tells raw measures (local pre-aggregation) from
/// partials that were lifted already (merging shipped partials).
pub(crate) fn fold_groups<'a, S: IntoIterator<Item = &'a RecordBatch>>(
    table: &mut GroupTable,
    segments: impl ExactSizeIterator<Item = S>,
    group: usize,
    measure: usize,
    agg: AggFunc,
    lift: bool,
) -> BatchFragments {
    let mut lens = Vec::with_capacity(segments.len());
    for batches in segments {
        for b in batches {
            let pairs = b.col(group).iter().zip(b.col(measure));
            if lift {
                pairs.for_each(|(&g, &m)| table.merge(agg, g, agg.lift(m)));
            } else {
                pairs.for_each(|(&g, &m)| table.merge(agg, g, m));
            }
        }
        lens.push(table.seal_sorted());
    }
    // Every segment's pairs sit sealed in the table, back to back.
    let cols: Columns = table.drain_sorted(|pairs| {
        let col = |c: usize| pairs.iter().map(|e| [e.0, e.1][c]).collect();
        Arc::from([col(0), col(1)])
    });
    let mut out = views(&cols, lens.iter().copied());
    BatchFragments::from_fn(lens.len(), |_| out.next().flatten())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use tamp_core::hashing::mix64;
    use tamp_core::sorting::valid_order;

    use super::*;
    use crate::batch::convert::{batches_to_rows, on_node, rows_to_batches};
    use crate::row::Row;

    /// `exchange_batches` on seeded inputs against its row-level
    /// definition: each node ends with one batch holding, in `sources`
    /// order, each source's rows routed to it in scan order, and each
    /// source sends, slots ascending, the row-major rows of every
    /// non-empty slot but its own. A third of the nodes hold nothing, the
    /// rest up to 19 rows in 1–4-row batches; a quarter of the rows stay
    /// on their source.
    fn check_exchange(
        tree: &Tree,
        sources: &[NodeId],
        slots: &Arc<[NodeId]>,
        width: usize,
        seed: u64,
    ) {
        let rnd = |x: u64| mix64(seed.wrapping_mul(0x9E37_79B9) ^ x);
        let rows: Vec<Vec<Row>> = tree
            .nodes()
            .map(|v| {
                let h = rnd(v.index() as u64);
                let n = if h % 3 == 0 { 0 } else { (h >> 8) % 20 };
                let cell = |i, c| rnd((v.index() * 1_000 + i * 8 + c) as u64) % 100;
                (0..n as usize)
                    .map(|i| (0..width).map(|c| cell(i, c)).collect())
                    .collect()
            })
            .collect();
        let frags = BatchFragments::from_fn(rows.len(), |v| {
            rows_to_batches(&rows[v], width, 1 + rnd(v as u64) as usize % 4)
        });
        let mut row_slots: Vec<u32> = Vec::new();
        for &v in sources {
            let stay = slots.iter().position(|&s| s == v).unwrap() as u64;
            let k = row_slots.len();
            row_slots.extend((k..k + rows[v.index()].len()).map(|k| {
                let h = rnd(1 << 20 | k as u64);
                (if h % 4 == 0 {
                    stay
                } else {
                    h % slots.len() as u64
                }) as u32
            }));
        }

        // The definition, row by row.
        let mut want_rows: Vec<Vec<Row>> = vec![Vec::new(); tree.num_nodes()];
        let mut want_sends: Vec<(NodeId, Vec<NodeId>, Vec<Value>)> = Vec::new();
        let mut picked = row_slots.iter();
        for &v in sources {
            let own: Vec<(&Row, u32)> = rows[v.index()]
                .iter()
                .zip(picked.by_ref().copied())
                .collect();
            for (s, &dst) in slots.iter().enumerate() {
                let run: Vec<Row> = own
                    .iter()
                    .filter(|p| p.1 as usize == s)
                    .map(|p| p.0.clone())
                    .collect();
                // Width-0 payloads are empty, and empty sends are dropped.
                if dst != v && width > 0 && !run.is_empty() {
                    want_sends.push((v, vec![dst], run.concat()));
                }
                want_rows[dst.index()].extend(run);
            }
        }

        let mut trace = TraceBuilder::default();
        let mut at = 0;
        let got = exchange_batches(
            &mut trace,
            &frags,
            width,
            Rel::S,
            sources,
            slots,
            &mut |_, b, out| {
                out.extend(&row_slots[at..at + b.num_rows()]);
                at += b.num_rows();
            },
        );
        let what = format!("seed {seed}, width {width}, {} slots", slots.len());
        for v in tree.nodes() {
            let one = usize::from(!want_rows[v.index()].is_empty());
            assert_eq!(got[v.index()].len(), one, "{what}: {v:?}'s batches");
        }
        assert_eq!(batches_to_rows(&got), want_rows, "{what}");
        let [round] = &trace.into_rounds()[..] else {
            panic!("{what}: not one round");
        };
        assert!(round
            .iter()
            .all(|s| s.rel == Rel::S && !s.dsts.contains(&s.src)));
        let got_sends: Vec<_> = round
            .iter()
            .map(|s| (s.src, s.dsts.to_vec(), s.values.to_vec()))
            .collect();
        assert_eq!(got_sends, want_sends, "{what}");
    }

    #[test]
    fn exchange_is_one_scatter_into_one_batch_per_destination() {
        let tree = tamp_topology::builders::fat_tree(2, 3, 1.0);
        // The hash shuffles' identity slot map, and the sort's `order`.
        let identity: Arc<[NodeId]> = tree.nodes().collect();
        let order: Arc<[NodeId]> = valid_order(&tree).into();
        for seed in 0..8 {
            for width in 0..4 {
                check_exchange(&tree, tree.compute_nodes(), &identity, width, seed);
                check_exchange(&tree, &order, &order, width, seed);
            }
        }
    }

    #[test]
    fn join_build_lists_each_keys_locations_in_scan_order() {
        let rows: Vec<Row> = [5, 0, 5, u64::MAX, 0, 5, 9]
            .into_iter()
            .zip(100..)
            .map(|(k, payload)| vec![payload, k])
            .collect();
        let batches = rows_to_batches(&rows, 2, 3);
        let build = JoinBuild::new(&batches, 1);
        assert_eq!(build.get(5), [(0, 0), (0, 2), (1, 2)]);
        assert_eq!(build.get(0), [(0, 1), (1, 1)]);
        assert_eq!(build.get(u64::MAX), [(1, 0)]);
        assert_eq!(build.get(9), [(2, 0)]);
        assert!(build.get(7).is_empty());
        assert!(JoinBuild::new(&[], 0).get(0).is_empty());
    }

    #[test]
    fn join_build_lists_a_wide_build_side_in_scan_order() {
        let rows: Vec<Row> = (0..100_000u64).map(|i| vec![i % 8, i]).collect();
        let batches = rows_to_batches(&rows, 2, 30_000);
        let build = JoinBuild::new(&batches, 0);
        for key in 0..8u32 {
            let want: Vec<(u32, u32)> = (key..100_000)
                .step_by(8)
                .map(|i| (i / 30_000, i % 30_000))
                .collect();
            assert_eq!(build.get(key as u64), want);
        }
        assert!(build.get(8).is_empty());
    }

    /// `left ⋈ right` on column 0 of both, as rows, on a one-compute-node
    /// tree; `left` arrives chunked into `batch`-row batches.
    fn probe(left: &[Row], batch: usize, right: &[Row]) -> (Vec<RecordBatch>, Vec<RecordBatch>) {
        let tree = tamp_topology::builders::star(1, 1.0);
        let v = tree.compute_nodes()[0].index();
        let l = on_node(tree.num_nodes(), v, rows_to_batches(left, 2, batch));
        let r = on_node(tree.num_nodes(), v, rows_to_batches(right, 2, usize::MAX));
        let out = probe_join_batches(&tree, &l, &r, 0, 0, 2, 2, false);
        (l[v].to_vec(), out[v].to_vec())
    }

    /// The nested-loop join the kernel must equal, left order outermost.
    fn nested_loop(left: &[Row], right: &[Row]) -> Vec<Row> {
        let pairs = left.iter().flat_map(|l| right.iter().map(move |r| (l, r)));
        pairs
            .filter(|(l, r)| l[0] == r[0])
            .map(|(l, r)| [&l[..], &r[..]].concat())
            .collect()
    }

    #[test]
    fn probe_shares_left_columns_on_a_one_batch_foreign_key_join_only() {
        let left: Vec<Row> = (0..50u64).map(|i| vec![i % 10, 100 + i]).collect();
        let dims: Vec<Row> = (0..10u64).rev().map(|k| vec![k, k * k]).collect();
        let shares_left = |(input, out): &(Vec<RecordBatch>, Vec<RecordBatch>)| {
            (0..2).all(|c| std::ptr::eq(out[0].col(c), input[0].col(c)))
        };
        // Every left row matches once, one batch: shared, and right.
        let fk = probe(&left, usize::MAX, &dims);
        assert!(shares_left(&fk));
        assert_eq!(fk.1[0].to_rows(), nested_loop(&left, &dims));
        // (a) a left row without a match, (b) a left row with two, (c) a
        // two-batch left fragment, (d) as many picks as rows but some
        // rows twice and some never: gathered, and still right.
        let mut twice = dims.clone();
        twice.push(vec![3, 1_000]);
        for (batch, right) in [
            (usize::MAX, &dims[1..]),
            (usize::MAX, &twice[..]),
            (25, &dims[..]),
            (usize::MAX, &twice[1..]),
        ] {
            let got = probe(&left, batch, right);
            assert!(!shares_left(&got));
            assert_eq!(got.1[0].to_rows(), nested_loop(&left, right));
        }
    }
}
