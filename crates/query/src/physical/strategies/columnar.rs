//! Exchange kernels shared by the built-in strategies.
//!
//! Routing scans columns, a shuffle is one counting scatter into one
//! buffer per column that each destination's batch views a range of, and
//! replication is a refcount bump per batch. The
//! exchanges all keep one order: per destination, rows arrive in source
//! order, each source's in its scan order, and the rows a source keeps
//! for itself sit at that source's own position. Sends leave in the same
//! source-then-destination order, which the schedule's content hash —
//! the checkpoint token — covers.

use std::ops::Range;
use std::sync::Arc;

use tamp_core::hashing::{mix64, WeightedHash};
use tamp_simulator::{Rel, SharedSlice, Value};
use tamp_topology::{NodeId, Tree};

use crate::batch::{
    batch_rows, cut, flatten, gather_runs, new_columns, starts, views, whole, BatchFragments,
    RecordBatch,
};
use crate::physical::strategy::{ExecArgs, TraceBuilder};
use crate::plan::AggFunc;

use super::group_table::{GroupTable, KeyTable};

/// Empty batch fragments for `tree`.
pub(crate) fn empty_batch_frags(tree: &Tree) -> BatchFragments {
    vec![Vec::new(); tree.num_nodes()]
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

/// One-round exchange of batch fragments among destination *slots*.
///
/// Each source, in `sources` order, splits its rows by slot — `route`
/// appends one slot per row of the batch it is shown — and slot `s`
/// delivers to node `slots[s]`, no two slots to one node — whatever a
/// slot stands for: the destination node for the hash shuffles, the
/// splitter bucket for the range shuffle.
///
/// One counting scatter: a slot's one output batch holds, source after
/// source, one contiguous run of each source's rows in scan order — a
/// range of one buffer per column, filled a column at a time. A source
/// sends each of its runs but the one it keeps, in ascending slot order:
/// its payload cut from one row-major buffer of all sent runs (sized from
/// the counts), its one-node destination list from `slots`.
pub(crate) fn exchange_batches(
    trace: &mut TraceBuilder,
    frags: &BatchFragments,
    width: usize,
    rel: Rel,
    sources: &[NodeId],
    slots: &Arc<[NodeId]>,
    route: &mut dyn FnMut(&RecordBatch, &mut Vec<u32>),
) -> BatchFragments {
    // Route and count: each row's `(slot, position)` and each source's
    // `(src, slot, rows)` runs; `seen[s]` is the last source to touch `s`.
    let (mut counts, mut seen) = (vec![0; slots.len()], vec![usize::MAX; slots.len()]);
    let total = sources.iter().map(|v| batch_rows(&frags[v.index()])).sum();
    let (mut row_slots, mut place) = (Vec::new(), Vec::<(u32, u32)>::with_capacity(total));
    let mut runs: Vec<(NodeId, usize, Range<usize>)> = Vec::new();
    for (i, &v) in sources.iter().enumerate() {
        let first = runs.len();
        row_slots.clear();
        for b in &frags[v.index()] {
            route(b, &mut row_slots);
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
    // Slot `s`'s rows are `start[s]..start[s] + counts[s]` of one buffer
    // per column.
    let start = starts(&counts);
    let cols = new_columns(width, total, |c, col| {
        let mut at = 0;
        for b in sources.iter().flat_map(|v| &frags[v.index()]) {
            for (&x, &(s, p)) in b.col(c).iter().zip(&place[at..]) {
                col[start[s as usize] + p as usize] = x;
            }
            at += b.num_rows();
        }
    });
    let mut new_frags: BatchFragments = vec![Vec::new(); frags.len()];
    for (&dst, b) in slots.iter().zip(views(&cols, counts)) {
        new_frags[dst.index()].extend(b);
    }
    let sent = || runs.iter().filter(|run| slots[run.1] != run.0);
    let places = sent().map(|(_, s, rows)| (&new_frags[slots[*s].index()][0], rows.clone()));
    let rows = sent().map(|run| run.2.len()).sum();
    let mut cut = cut(flatten(rows, places, width), width);
    trace.round_with_capacity(sent().count(), |round| {
        for (src, s, rows) in sent() {
            let dst = SharedSlice::new(slots.clone(), *s..*s + 1);
            round.send(*src, dst, rel, cut(rows.len()));
        }
    });
    new_frags
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
        &mut |b, out| out.extend(b.col(key_idx).iter().map(|&key| router(key).index() as u32)),
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
/// sends share one destination list, and the replicated fragments are
/// refcount bumps on the source columns — no row copies at all.
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
    let mut small_new = empty_batch_frags(tree);
    for &h in holders {
        small_new[h.index()] = small_frags.concat();
    }
    small_new
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

/// Local probe join of co-located batch fragments: build on the right,
/// probe in left order — `left ++ right` rows, left scan order outermost,
/// each left row's matches in right scan order — then one gather per
/// output column into one buffer that every node's output batch views a
/// range of.
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
    // Every node's matches, back to back: `(node, left picks, right picks)`.
    // While every row of a one-batch left side matches exactly once (a
    // foreign-key join) its picks are implicit: its columns are shared.
    let l_rows = l_new.iter().map(|b| batch_rows(b)).sum();
    let (mut l_picks, mut r_picks) = (Vec::new(), Vec::with_capacity(l_rows));
    let mut nodes = Vec::new();
    for &v in tree.compute_nodes() {
        let rbatches = &r_new[v.index()];
        let lbatches = &l_new[v.index()];
        if batch_rows(rbatches) == 0 || batch_rows(lbatches) == 0 {
            continue;
        }
        if !right_replicated {
            shared = None;
        }
        let build = shared.get_or_insert_with(|| JoinBuild::new(rbatches, ri));
        // Probe in left scan order.
        let (l_start, r_start, mut fk) = (l_picks.len(), r_picks.len(), lbatches.len() == 1);
        for (bi, b) in lbatches.iter().enumerate() {
            for (lr, &key) in b.col(li).iter().enumerate() {
                let found = build.get(key);
                if fk && found.len() != 1 {
                    fk = false;
                    l_picks.extend((0..lr as u32).map(|r| (0, r)));
                }
                for &loc in found {
                    l_picks.extend((!fk).then_some((bi as u32, lr as u32)));
                    r_picks.push(loc);
                }
            }
        }
        if r_picks.len() > r_start {
            nodes.push((v, l_start..l_picks.len(), r_start..r_picks.len()));
        }
    }
    // One gather per column over every node's picks.
    type Run = (NodeId, Range<usize>, Range<usize>);
    let l_run = |(v, l, _): &Run| (&l_new[v.index()][..], &l_picks[l.clone()]);
    let r_run = |(v, _, r): &Run| (&r_new[v.index()][..], &r_picks[r.clone()]);
    let l_cols = gather_runs(lw, || nodes.iter().map(l_run));
    let r_cols = gather_runs(rw, || nodes.iter().map(r_run));
    let mut out = empty_batch_frags(tree);
    for (v, l, r) in nodes {
        let left = |c: usize| match l.is_empty() {
            true => l_new[v.index()][0].col_shared(c).clone(),
            false => SharedSlice::new(l_cols[c].clone(), l.clone()),
        };
        let right = |c: usize| SharedSlice::new(r_cols[c].clone(), r.clone());
        let cols = (0..lw).map(left).chain((0..rw).map(right)).collect();
        out[v.index()].push(RecordBatch::from_cols_rows(cols, r.len()));
    }
    out
}

/// Fold the `(group, measure)` column pairs of each segment's batches —
/// a segment is one node's batch list — into one width-2 batch of
/// `(group, partial)` rows in ascending group order (none for a segment
/// without rows); the batches view one buffer per column.
/// `lift` tells raw measures (local pre-aggregation) from partials that
/// were lifted already (merging shipped partials).
pub(crate) fn fold_groups(
    table: &mut GroupTable,
    segments: &[Vec<RecordBatch>],
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
    let cols: [Arc<[Value]>; 2] = table.drain_sorted(|pairs| {
        let col = |c: usize| pairs.iter().map(|e| [e.0, e.1][c]).collect();
        [col(0), col(1)]
    });
    let out = views(&cols, lens).map(|b| b.into_iter().collect());
    out.collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use tamp_core::hashing::mix64;
    use tamp_core::sorting::valid_order;

    use super::*;
    use crate::batch::convert::{batches_to_rows, rows_to_batches};
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
        let frags: BatchFragments = (rows.iter().zip(0..))
            .map(|(rows, i)| rows_to_batches(rows, width, 1 + rnd(i) as usize % 4))
            .collect();
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
            &mut |b, out| {
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
        let mut l = empty_batch_frags(&tree);
        let mut r = empty_batch_frags(&tree);
        l[v] = rows_to_batches(left, 2, batch);
        r[v] = rows_to_batches(right, 2, usize::MAX);
        let out = probe_join_batches(&tree, &l, &r, 0, 0, 2, 2, false);
        (std::mem::take(&mut l[v]), out[v].clone())
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
