//! Columnar record batches: the storage, the wire and the result.
//!
//! A [`RecordBatch`] is a row range of a shared *column list*, one
//! `Arc<[Value]>` buffer per column; a clone is one reference-count bump.
//! A kernel allocates per operator, not per node: it fills one column list
//! for its whole output (`new_columns`), every node's batch views a range
//! of it, and it evaluates an expression once per run of consecutive rows
//! of one list (`runs`). Rows ([`Row`]) are built only when asked for
//! ([`RecordBatch::append_rows`]); equality and `Debug` read values.
//!
//! [`BatchFragments`] holds every node's batches in one vector: `frags[v]`
//! is node `v`'s `&[RecordBatch]`, read as their concatenation. On the
//! wire a payload is row-major ([`flatten_batches`]), one send each.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Index, Range};
use std::sync::Arc;

use tamp_simulator::{SharedSlice, Value};

use crate::row::Row;

/// One buffer per column, each as long as any batch that views it needs.
pub(crate) type Columns = Arc<[Arc<[Value]>]>;

/// A column-major batch of rows: a row range of a shared column list.
#[derive(Clone)]
pub struct RecordBatch {
    /// The column list this batch views; each column covers `rows`.
    pub(crate) cols: Columns,
    rows: Range<usize>,
}

impl RecordBatch {
    /// Rows `rows` of the column list `cols`: a node's share of a
    /// kernel's output.
    pub(crate) fn view(cols: &Columns, rows: Range<usize>) -> Self {
        debug_assert!(cols.iter().all(|c| rows.end <= c.len()));
        let cols = cols.clone();
        RecordBatch { cols, rows }
    }

    /// Transpose `width`-wide rows into a batch (lossless).
    pub fn from_rows(rows: &[Row], width: usize) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == width));
        let cols = new_columns(width, rows.len(), |c, col| {
            col.iter_mut().zip(rows).for_each(|(x, r)| *x = r[c]);
        });
        RecordBatch::view(&cols, 0..rows.len())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The values of column `c`.
    pub fn col(&self, c: usize) -> &[Value] {
        &self.cols[c][self.range()]
    }

    /// The rows of its column list this batch views.
    pub(crate) fn range(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Rows `range` of this batch, sharing its column list.
    pub(crate) fn slice(&self, range: Range<usize>) -> Self {
        let at = self.rows.start;
        RecordBatch::view(&self.cols, at + range.start..at + range.end)
    }

    /// This batch and `next` as one, if `next` views the rows right after
    /// it in the same column list.
    fn join(&self, next: &RecordBatch) -> Option<RecordBatch> {
        let follows = Arc::ptr_eq(&self.cols, &next.cols) && self.rows.end == next.rows.start;
        follows.then(|| RecordBatch::view(&self.cols, self.rows.start..next.rows.end))
    }

    /// Transpose back into rows, appending to `out`.
    pub fn append_rows(&self, out: &mut Vec<Row>) {
        out.reserve(self.num_rows());
        for i in self.range() {
            out.push(self.cols.iter().map(|c| c[i]).collect());
        }
    }

    /// Transpose back into rows.
    #[cfg(test)]
    pub(crate) fn to_rows(&self) -> Vec<Row> {
        let mut out = Vec::new();
        self.append_rows(&mut out);
        out
    }

    /// Lexicographic whole-row comparison of row `a` with row `b` of
    /// `other` — the order of [`crate::row::canonicalize`].
    pub(crate) fn cmp_row(&self, a: usize, other: &RecordBatch, b: usize) -> Ordering {
        let (a, b) = (self.rows.start + a, other.rows.start + b);
        (self.cols.iter().zip(other.cols.iter()))
            .map(|(x, y)| x[a].cmp(&y[b]))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }
}

impl PartialEq for RecordBatch {
    fn eq(&self, other: &Self) -> bool {
        (self.width(), self.num_rows()) == (other.width(), other.num_rows())
            && (0..self.width()).all(|c| self.col(c) == other.col(c))
    }
}

impl Eq for RecordBatch {}

impl fmt::Debug for RecordBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<&[Value]> = (0..self.width()).map(|c| self.col(c)).collect();
        let rows = self.num_rows();
        write!(f, "RecordBatch {{ cols: {cols:?}, rows: {rows} }}")
    }
}

/// `width` buffers of `rows` values, column `c` zero-filled and then
/// written by `fill(c, ..)`, collected (as a column list, mostly): the one
/// allocation per output column a kernel makes for every node's rows
/// together.
pub(crate) fn new_columns<C: FromIterator<Arc<[Value]>>>(
    width: usize,
    rows: usize,
    mut fill: impl FnMut(usize, &mut [Value]),
) -> C {
    let column = |c| {
        let mut col: Arc<[Value]> = std::iter::repeat_n(0, rows).collect();
        fill(c, Arc::get_mut(&mut col).expect("not shared yet"));
        col
    };
    (0..width).map(column).collect()
}

/// Where each run of `lens` starts when the runs sit back to back, and
/// where the last one ends.
pub(crate) fn starts(lens: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut end = 0;
    let ends = lens.into_iter().map(|n| {
        end += n;
        end
    });
    std::iter::once(0).chain(ends).collect()
}

/// Consecutive runs of `cols`' rows, `lens[i]` rows for run `i`, as one
/// batch each (`None` for an empty run).
pub(crate) fn views<'a>(
    cols: &'a Columns,
    lens: impl IntoIterator<Item = usize> + 'a,
) -> impl Iterator<Item = Option<RecordBatch>> + 'a {
    let mut at = 0;
    lens.into_iter().map(move |n| {
        at += n;
        (n > 0).then(|| RecordBatch::view(cols, at - n..at))
    })
}

/// The maximal runs of `batches` that view consecutive rows of one column
/// list, each as one batch (empty batches dropped): what a kernel
/// evaluates an expression over, once per run. Also each batch's run (an
/// empty batch's is the last run before it, or 0).
pub(crate) fn runs(batches: &[RecordBatch]) -> (Vec<RecordBatch>, Vec<usize>) {
    let (mut out, mut run_of) = (Vec::<RecordBatch>::new(), Vec::with_capacity(batches.len()));
    for b in batches {
        if b.num_rows() > 0 {
            match out.last().and_then(|run| run.join(b)) {
                Some(run) => *out.last_mut().expect("a run") = run,
                None => out.push(b.clone()),
            }
        }
        run_of.push(out.len().saturating_sub(1));
    }
    (out, run_of)
}

/// Per-node batch lists, indexed by node id: the fragments operators and
/// strategies exchange. One vector holds every node's batches, node after
/// node; `frags[v]` is node `v`'s `&[RecordBatch]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchFragments {
    batches: Vec<RecordBatch>,
    ends: Vec<usize>,
}

impl BatchFragments {
    /// The fragments of nodes `0..nodes`, node `v` holding the batches
    /// `f(v)` yields.
    pub fn from_fn<I>(nodes: usize, mut f: impl FnMut(usize) -> I) -> Self
    where
        I: IntoIterator<Item = RecordBatch>,
    {
        let (mut batches, mut ends) = (Vec::new(), Vec::with_capacity(nodes));
        for v in 0..nodes {
            for b in f(v) {
                batches.reserve(nodes - v);
                batches.push(b);
            }
            ends.push(batches.len());
        }
        BatchFragments { batches, ends }
    }

    /// `(node, batch)` pairs as the fragments of nodes `0..nodes`; each
    /// node's batches keep their order in `pairs`.
    pub(crate) fn scatter(nodes: usize, mut pairs: Vec<(usize, RecordBatch)>) -> Self {
        pairs.sort_by_key(|p| p.0);
        let ends = (0..nodes).map(|v| pairs.partition_point(|p| p.0 <= v));
        let ends = ends.collect();
        let batches = pairs.into_iter().map(|p| p.1).collect();
        BatchFragments { batches, ends }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Every node's batches, node after node.
    pub(crate) fn batches(&self) -> &[RecordBatch] {
        &self.batches
    }

    /// Each node's batch list, in node-id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[RecordBatch]> + Clone {
        (0..self.len()).map(|v| &self[v])
    }
}

impl Index<usize> for BatchFragments {
    type Output = [RecordBatch];

    fn index(&self, v: usize) -> &[RecordBatch] {
        let start = v.checked_sub(1).map_or(0, |u| self.ends[u]);
        &self.batches[start..self.ends[v]]
    }
}

/// Total rows across a node's batch list.
pub(crate) fn batch_rows(batches: &[RecordBatch]) -> usize {
    batches.iter().map(RecordBatch::num_rows).sum()
}

/// Concatenate a batch list into one batch of the given width; a list
/// that views consecutive rows of one column list is shared, not copied.
pub(crate) fn concat(batches: &[RecordBatch], width: usize) -> RecordBatch {
    let mut live = batches.iter().filter(|b| b.num_rows() > 0);
    let first = live.next().cloned();
    match first.and_then(|first| live.try_fold(first, |run, b| run.join(b))) {
        Some(run) => run,
        None => copy(batches, width),
    }
}

/// A batch list's rows, copied into a column list of their own.
pub(crate) fn copy(batches: &[RecordBatch], width: usize) -> RecordBatch {
    let rows = batch_rows(batches);
    let cols = new_columns(width, rows, |c, col| {
        let mut at = 0;
        for b in batches {
            col[at..at + b.num_rows()].copy_from_slice(b.col(c));
            at += b.num_rows();
        }
    });
    RecordBatch::view(&cols, 0..rows)
}

/// What a sort keeps of a segment's sorted rows: all, distinct, or the first `n`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Keep {
    All,
    Distinct,
    First(usize),
}

/// Each segment's rows — a segment is one node's batch list — sorted by
/// column `lead` (if any), ties broken by the whole row (with `None`, the
/// order of [`crate::row::canonicalize`]), thinned by `keep`, as at most
/// one batch per segment (fragment `i` is segment `i`). One key buffer
/// serves every segment, each sorted on its own where it sits, then one
/// gather per column fills the column list the segments' batches view.
/// Rows that compare equal are identical, so the result does not depend on
/// how the sort places them.
pub(crate) fn sort_segments<'a>(
    segments: impl Iterator<Item = &'a [RecordBatch]> + Clone,
    width: usize,
    lead: Option<usize>,
    keep: Keep,
) -> BatchFragments {
    // `(leading key, (batch, row))`: most comparisons are decided on the
    // key without touching the columns.
    let rows = segments.clone().map(batch_rows).sum();
    let (mut keyed, mut parts, mut kept) = (Vec::with_capacity(rows), Vec::new(), Vec::new());
    for s in segments {
        let start = keyed.len();
        for b in s {
            let rows = (0..b.num_rows() as u32).map(|i| (parts.len() as u32, i));
            match width {
                0 => keyed.extend(rows.map(|at| (0, at))),
                _ => keyed.extend(b.col(lead.unwrap_or(0)).iter().copied().zip(rows)),
            }
            parts.push(b.clone());
        }
        let rows = |x: (u32, u32), y: (u32, u32)| {
            let (a, b) = (&parts[x.0 as usize], &parts[y.0 as usize]);
            a.cmp_row(x.1 as usize, b, y.1 as usize)
        };
        let seg = &mut keyed[start..];
        seg.sort_unstable_by(|x, y| x.0.cmp(&y.0).then_with(|| rows(x.1, y.1)));
        let n = match keep {
            Keep::All => seg.len(),
            Keep::First(n) => n.min(seg.len()),
            Keep::Distinct => (0..seg.len()).fold(0, |n, i| {
                let new = n == 0 || rows(seg[n - 1].1, seg[i].1).is_ne();
                seg[n] = seg[i];
                n + new as usize
            }),
        };
        keyed.truncate(start + n);
        kept.push(n);
    }
    let picks: Vec<(u32, u32)> = keyed.iter().map(|k| k.1).collect();
    let once = || std::iter::once((&parts[..], &picks[..], 0));
    let cols = gather_runs(width, picks.len(), once);
    let mut out = views(&cols, kept.iter().copied());
    BatchFragments::from_fn(kept.len(), |_| out.next().flatten())
}

/// The first `n` rows of a batch list, as views of its batches.
pub(crate) fn head(batches: &[RecordBatch], n: usize) -> impl Iterator<Item = RecordBatch> + '_ {
    let mut left = n;
    let cut = move |b: &RecordBatch| {
        let take = b.num_rows().min(left);
        left -= take;
        (take > 0).then(|| b.slice(0..take))
    };
    batches.iter().filter(|b| b.num_rows() > 0).map_while(cut)
}

/// One column list of `len` rows holding each run's picks — the
/// `(batch, row)` pairs it selects from its batch list — from row `at`
/// on. A run's column slices are resolved once; a one-batch list (what a
/// scan leaves on a node) is indexed directly.
pub(crate) fn gather_runs<'a, I, C>(width: usize, len: usize, runs: impl Fn() -> I) -> C
where
    I: Iterator<Item = (&'a [RecordBatch], &'a [(u32, u32)], usize)>,
    C: FromIterator<Arc<[Value]>>,
{
    let mut slices = Vec::new();
    new_columns(width, len, |c, col| {
        for (batches, picks, at) in runs() {
            let cells = col[at..at + picks.len()].iter_mut().zip(picks);
            if let [only] = batches {
                let src = only.col(c);
                cells.for_each(|(x, &(_, i))| *x = src[i as usize]);
                continue;
            }
            slices.clear();
            slices.extend(batches.iter().map(|b| b.col(c)));
            cells.for_each(|(x, &(b, i))| *x = slices[b as usize][i as usize]);
        }
    })
}

/// Row-major flatten of the `rows` rows of `(batch, rows)` runs into one
/// zeroed, then filled allocation (none if empty) — the one sends share.
pub(crate) fn flatten<'a>(
    rows: usize,
    runs: impl Iterator<Item = (&'a RecordBatch, Range<usize>)>,
    width: usize,
) -> Arc<[Value]> {
    if rows * width == 0 {
        return Arc::default();
    }
    let mut out: Arc<[Value]> = std::iter::repeat_n(0, rows * width).collect();
    let cells = Arc::get_mut(&mut out).expect("not shared yet");
    let places = runs.flat_map(|(b, rows)| rows.map(move |r| (b, r)));
    for (row, (b, r)) in cells.chunks_exact_mut(width.max(1)).zip(places) {
        for (cell, c) in row.iter_mut().zip(0..) {
            *cell = b.col(c)[r];
        }
    }
    out
}

/// Row-major flatten of whole batches, in batch then row order: the wire
/// payload of a node's fragment.
pub fn flatten_batches(batches: &[RecordBatch], width: usize) -> Arc<[Value]> {
    flatten(batch_rows(batches), whole(batches), width)
}

/// Each batch of a list as one run of all its rows.
pub(crate) fn whole(batches: &[RecordBatch]) -> impl Iterator<Item = (&RecordBatch, Range<usize>)> {
    batches.iter().map(|b| (b, 0..b.num_rows()))
}

/// Cuts consecutive payloads of `n` `width`-wide rows off `buf`, a row-major
/// buffer: the sends of one exchange, sharing it.
pub(crate) fn cut(buf: Arc<[Value]>, width: usize) -> impl FnMut(usize) -> SharedSlice<Value> {
    let mut at = 0;
    move |n| {
        at += n * width;
        SharedSlice::new(buf.clone(), at - n * width..at)
    }
}

/// Row ↔ batch conversions for tests, which state inputs and expected
/// outputs as rows.
#[cfg(test)]
pub(crate) mod convert {
    use super::{BatchFragments, RecordBatch};
    use crate::row::Row;

    /// Chunk `width`-wide rows into batches of at most `batch` rows each.
    pub(crate) fn rows_to_batches(rows: &[Row], width: usize, batch: usize) -> Vec<RecordBatch> {
        rows.chunks(batch.max(1))
            .map(|chunk| RecordBatch::from_rows(chunk, width))
            .collect()
    }

    /// Fragments of `nodes` nodes, node `v` holding `batches`.
    pub(crate) fn on_node(nodes: usize, v: usize, batches: Vec<RecordBatch>) -> BatchFragments {
        BatchFragments::scatter(nodes, batches.into_iter().map(|b| (v, b)).collect())
    }

    /// Each node's rows, in batch then row order.
    pub(crate) fn batches_to_rows(frags: &BatchFragments) -> Vec<Vec<Row>> {
        frags
            .iter()
            .map(|batches| batches.iter().flat_map(RecordBatch::to_rows).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::convert::rows_to_batches;
    use super::*;

    /// The `(batch, row)` picks `idx` of `batches`, gathered in order.
    fn gather(batches: &[RecordBatch], idx: &[(u32, u32)], width: usize) -> RecordBatch {
        let cols = gather_runs(width, idx.len(), || std::iter::once((batches, idx, 0)));
        RecordBatch::view(&cols, 0..idx.len())
    }

    #[test]
    fn rows_roundtrip_losslessly() {
        let rows: Vec<Row> = (0..10u64).map(|i| vec![i, i * 2, i * 3]).collect();
        let b = RecordBatch::from_rows(&rows, 3);
        assert_eq!(b.num_rows(), 10);
        assert_eq!(b.width(), 3);
        assert_eq!(b.to_rows(), rows);
        // Chunked conversion concatenates back to the same sequence.
        let batches = rows_to_batches(&rows, 3, 4);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[2].num_rows(), 2);
        let mut back = Vec::new();
        for b in &batches {
            b.append_rows(&mut back);
        }
        assert_eq!(back, rows);
    }

    #[test]
    fn empty_and_zero_width_batches() {
        let b = RecordBatch::from_rows(&[], 4);
        assert_eq!(b.num_rows(), 0);
        assert_eq!(b.width(), 4);
        assert!(b.to_rows().is_empty());
        assert!(rows_to_batches(&[], 4, 8).is_empty());
    }

    #[test]
    fn gather_and_flatten_follow_index_order() {
        let rows: Vec<Row> = (0..6u64).map(|i| vec![i, 10 + i]).collect();
        let b = RecordBatch::from_rows(&rows, 2);
        let g = gather(&[b], &[(0, 4), (0, 1), (0, 1)], 2);
        assert_eq!(g.to_rows(), vec![vec![4, 14], vec![1, 11], vec![1, 11]]);
    }

    #[test]
    fn multi_batch_gather_spans_boundaries() {
        let rows: Vec<Row> = (0..7u64).map(|i| vec![i]).collect();
        let batches = rows_to_batches(&rows, 1, 3);
        let g = gather(&batches, &[(2, 0), (0, 1), (1, 2)], 1);
        assert_eq!(g.to_rows(), vec![vec![6], vec![1], vec![5]]);
        let runs = [(&batches[2], 0..1), (&batches[0], 1..3)];
        assert_eq!(*flatten(3, runs.into_iter(), 1), [6, 1, 2]);
        // Whole-list flatten is row-major across batch boundaries.
        let wide: Vec<Row> = (0..5u64).map(|i| vec![i, 10 + i]).collect();
        assert_eq!(
            *flatten_batches(&rows_to_batches(&wide, 2, 2), 2),
            [0, 10, 1, 11, 2, 12, 3, 13, 4, 14]
        );
        assert_eq!(concat(&batches, 1).to_rows(), rows);
    }

    #[test]
    fn sort_permutation_orders_by_lead_then_whole_row() {
        let mut rows: Vec<Row> = vec![
            vec![7, 1, 9],
            vec![2, 1, 9],
            vec![7, 0, 3],
            vec![2, 1, 9],
            vec![0, 1, 0],
            vec![u64::MAX, 0, 3],
        ];
        let batches = rows_to_batches(&rows, 3, 4);
        let sort = |batches: &[RecordBatch], width, lead, keep| {
            let out = sort_segments(std::iter::once(batches), width, lead, keep);
            assert_eq!(out.len(), 1);
            out[0].to_vec()
        };
        // Lead column 1, ties on the whole row — the row sort's order.
        let by_lead = sort(&batches, 3, Some(1), Keep::All);
        rows.sort_by(|x, y| x[1].cmp(&y[1]).then_with(|| x.cmp(y)));
        assert_eq!(concat(&by_lead, 3).to_rows(), rows);
        // No lead: canonical order; `keep` thins before the gather.
        let distinct = sort(&batches, 3, None, Keep::Distinct);
        crate::row::canonicalize(&mut rows);
        rows.dedup();
        assert_eq!(concat(&distinct, 3).to_rows(), rows);
        assert_eq!(
            concat(&sort(&batches, 3, None, Keep::First(2)), 3).to_rows(),
            rows[..2]
        );
        assert!(sort(&batches, 3, None, Keep::First(0)).is_empty());
        assert!(sort(&[], 3, Some(0), Keep::All).is_empty());
        assert_eq!(
            sort_segments(std::iter::empty(), 3, None, Keep::All).len(),
            0
        );
        // Width-0 rows are all equal: any order is sorted, one is distinct.
        let unit = RecordBatch::view(&Columns::from(Vec::new()), 0..3);
        assert_eq!(
            batch_rows(&sort(std::slice::from_ref(&unit), 0, None, Keep::All)),
            3
        );
        assert_eq!(batch_rows(&sort(&[unit], 0, Some(0), Keep::Distinct)), 1);
    }

    /// Segments sort on their own, and their batches view one column
    /// list; an empty segment yields no batch.
    #[test]
    fn a_segmented_sort_sorts_each_segment_into_one_buffer_per_column() {
        let seg = |xs: &[u64]| -> Vec<RecordBatch> {
            let rows: Vec<Row> = xs.iter().map(|&x| vec![x % 3, x]).collect();
            rows_to_batches(&rows, 2, 2)
        };
        let segments = [seg(&[5, 1, 4, 1]), Vec::new(), seg(&[9, 2, 6, 2, 3])];
        let out = sort_segments(
            segments.iter().map(Vec::as_slice),
            2,
            Some(0),
            Keep::Distinct,
        );
        assert_eq!(out.len(), 3);
        let rows = |b: &[RecordBatch]| concat(b, 2).to_rows();
        assert_eq!(rows(&out[0]), [[1, 1], [1, 4], [2, 5]]);
        assert!(out[1].is_empty());
        assert_eq!(rows(&out[2]), [[0, 3], [0, 6], [0, 9], [2, 2]]);
        assert!(Arc::ptr_eq(&out[0][0].cols, &out[2][0].cols));
        assert!(out[0][0].cols.iter().all(|c| c.len() == 7));
    }

    #[test]
    fn head_cuts_across_batches_and_shares_whole_ones() {
        let rows: Vec<Row> = (0..7u64).map(|i| vec![i]).collect();
        let batches = rows_to_batches(&rows, 1, 3);
        let cut: Vec<RecordBatch> = head(&batches, 5).collect();
        assert_eq!(cut.len(), 2);
        assert!(cut
            .iter()
            .zip(&batches)
            .all(|(c, b)| Arc::ptr_eq(&c.cols, &b.cols)));
        assert_eq!(concat(&cut, 1).to_rows(), rows[..5]);
        assert_eq!(head(&batches, 0).count(), 0);
        assert_eq!(head(&batches, 100).map(|b| b.num_rows()).sum::<usize>(), 7);
    }

    /// Fragments index by node; a scatter keeps each node's batches in
    /// the order they came; `runs` merges consecutive views of one list
    /// and `concat` shares them.
    #[test]
    fn fragments_index_by_node_and_runs_merge_consecutive_views() {
        let cols = new_columns(1, 6, |_, col| col.copy_from_slice(&[0, 1, 2, 3, 4, 5]));
        let view = |r: Range<usize>| RecordBatch::view(&cols, r);
        let frags = BatchFragments::scatter(
            4,
            vec![
                (2, view(3..4)),
                (0, view(0..2)),
                (2, view(4..6)),
                (0, view(2..3)),
            ],
        );
        assert_eq!(frags.len(), 4);
        let rows = |b: &[RecordBatch]| concat(b, 1).to_rows();
        assert_eq!(rows(&frags[0]), [[0], [1], [2]]);
        assert!(frags[1].is_empty() && frags[3].is_empty());
        assert_eq!(rows(&frags[2]), [[3], [4], [5]]);
        let (all, run_of) = runs(frags.batches());
        assert_eq!((all.len(), run_of), (1, vec![0; 4]));
        assert_eq!((all[0].range(), concat(&frags[2], 1).range()), (0..6, 3..6));
        let gap = [view(0..2), view(3..3), view(3..4), view(4..5)];
        let (gap_runs, run_of) = runs(&gap);
        let ranges: Vec<_> = gap_runs.iter().map(RecordBatch::range).collect();
        assert_eq!((ranges, run_of), (vec![0..2, 3..5], vec![0, 0, 1, 1]));
        let per_node = BatchFragments::from_fn(3, |v| (v != 1).then(|| view(v..v + 1)));
        assert_eq!(
            per_node,
            BatchFragments::scatter(3, vec![(0, view(0..1)), (2, view(2..3))])
        );
    }

    /// Equality and `Debug` read values, not buffers: two batches viewing
    /// equal rows of different buffers are equal and print alike.
    #[test]
    fn batches_compare_and_print_by_value() {
        let a = new_columns(2, 5, |c, col| {
            col.copy_from_slice(&[[9, 1, 2, 3, 9], [9, 4, 5, 6, 9]][c]);
        });
        let b = RecordBatch::from_rows(&[vec![1, 4], vec![2, 5], vec![3, 6]], 2);
        let a = RecordBatch::view(&a, 1..4);
        assert!(!Arc::ptr_eq(&a.cols, &b.cols));
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(a, RecordBatch::from_rows(&[vec![1, 4], vec![2, 5]], 2));
    }

    /// A clone is one refcount bump: it shares the column list itself.
    #[test]
    fn a_batch_clone_shares_its_column_list() {
        let b = RecordBatch::from_rows(&[vec![1, 2, 3]], 3);
        let copy = b.clone();
        assert!(Arc::ptr_eq(&b.cols, &copy.cols));
        assert_eq!(Arc::strong_count(&b.cols), 2);
    }
}
