//! Columnar record batches: the storage, the wire and the result.
//!
//! A [`RecordBatch`] is one shared list of columns, each a
//! [`SharedSlice`] — a range of a shared `Arc<[Value]>` buffer, the same
//! zero-copy currency the exchange fabric ships in `ScheduleSend::values`
//! — so cloning a batch, or replicating it to another node's fragment
//! list, is one reference-count bump, not a copy.
//! A kernel that writes every node's output allocates per column, not per
//! node: it fills one buffer per output column (`new_columns`) and each
//! node's batch views a range of it (`RecordBatch::view`). A registered
//! table holds one batch per node, cut the same way; operators and
//! strategies pass batch lists, and a query result keeps the batches its
//! last operator produced; rows ([`Row`]) are built from them only when
//! asked for ([`RecordBatch::append_rows`]). Equality, ordering and
//! `Debug` read values, never which buffer holds them.
//!
//! A node's fragment is a *list* of batches ([`BatchFragments`]); the
//! list is read as the concatenation of its batches, so batch boundaries
//! carry no meaning — only the row sequence does. On the wire a payload
//! is row-major: each row's values in column order, rows back to back
//! ([`flatten_batches`], `flatten_multi`), and one payload is one send.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use tamp_simulator::{SharedSlice, Value};

use crate::row::Row;

/// A column-major batch of rows: `width()` columns, each `num_rows()`
/// values long and each a range of a shared buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordBatch {
    cols: Arc<[SharedSlice<Value>]>,
    rows: usize,
}

impl RecordBatch {
    /// Build a batch from columns with an explicit row count — required
    /// for width-0 batches, which cannot otherwise carry their length.
    ///
    /// # Panics
    /// If a column's length differs from `rows`.
    pub fn from_cols_rows(cols: Arc<[SharedSlice<Value>]>, rows: usize) -> Self {
        assert!(
            cols.iter().all(|c| c.len() == rows),
            "RecordBatch columns must have equal length"
        );
        RecordBatch { cols, rows }
    }

    /// Rows `range` of one buffer per column: a node's share of a kernel's
    /// output.
    pub(crate) fn view(cols: &[Arc<[Value]>], range: Range<usize>) -> Self {
        let col = |buf: &Arc<[Value]>| SharedSlice::new(buf.clone(), range.clone());
        RecordBatch::from_cols_rows(cols.iter().map(col).collect(), range.len())
    }

    /// Transpose `width`-wide rows into a batch (lossless; see
    /// [`RecordBatch::to_rows`] for the inverse).
    pub fn from_rows(rows: &[Row], width: usize) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == width));
        let cols = new_columns(width, rows.len(), |c, col| {
            col.iter_mut().zip(rows).for_each(|(x, r)| *x = r[c]);
        });
        RecordBatch::view(&cols, 0..rows.len())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The values of column `c`.
    pub fn col(&self, c: usize) -> &[Value] {
        &self.cols[c]
    }

    /// Column `c` as a range of its shared buffer (a clone is a refcount
    /// bump).
    pub fn col_shared(&self, c: usize) -> &SharedSlice<Value> {
        &self.cols[c]
    }

    /// Transpose back into rows, appending to `out`.
    pub fn append_rows(&self, out: &mut Vec<Row>) {
        out.reserve(self.rows);
        for i in 0..self.rows {
            out.push(self.cols.iter().map(|c| c[i]).collect());
        }
    }

    /// Transpose back into rows.
    pub fn to_rows(&self) -> Vec<Row> {
        let mut out = Vec::new();
        self.append_rows(&mut out);
        out
    }

    /// Select the rows at `idx` (in order, duplicates allowed) into a new
    /// batch.
    pub fn gather(&self, idx: &[usize]) -> RecordBatch {
        let cols = new_columns(self.width(), idx.len(), |c, col| {
            let src = self.col(c);
            col.iter_mut().zip(idx).for_each(|(x, &i)| *x = src[i]);
        });
        RecordBatch::view(&cols, 0..idx.len())
    }

    /// Lexicographic whole-row comparison of rows `a` and `b` — the order
    /// of [`crate::row::canonicalize`].
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        self.cols
            .iter()
            .map(|c| c[a].cmp(&c[b]))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }
}

/// `width` buffers of `rows` values, column `c` zero-filled and then
/// written by `fill(c, ..)`: the one allocation per output column a kernel
/// makes for every node's rows together.
pub(crate) fn new_columns(
    width: usize,
    rows: usize,
    mut fill: impl FnMut(usize, &mut [Value]),
) -> Vec<Arc<[Value]>> {
    let column = |c| {
        let mut col: Arc<[Value]> = std::iter::repeat_n(0, rows).collect();
        fill(c, Arc::get_mut(&mut col).expect("not shared yet"));
        col
    };
    (0..width).map(column).collect()
}

/// Where each run of `lens` starts when the runs sit back to back.
pub(crate) fn starts(lens: &[usize]) -> Vec<usize> {
    let ends = lens
        .iter()
        .scan(0, |end, n| Some(std::mem::replace(end, *end + n)));
    ends.collect()
}

/// Consecutive runs of `cols`' rows, `lens[i]` rows for run `i`, as one
/// batch each (`None` for an empty run).
pub(crate) fn views<'a>(
    cols: &'a [Arc<[Value]>],
    lens: impl IntoIterator<Item = usize> + 'a,
) -> impl Iterator<Item = Option<RecordBatch>> + 'a {
    let mut at = 0;
    lens.into_iter().map(move |n| {
        at += n;
        (n > 0).then(|| RecordBatch::view(cols, at - n..at))
    })
}

/// Per-node batch lists, indexed by node id: the fragments operators and
/// strategies exchange.
pub type BatchFragments = Vec<Vec<RecordBatch>>;

/// Total rows across a node's batch list.
pub fn batch_rows(batches: &[RecordBatch]) -> usize {
    batches.iter().map(RecordBatch::num_rows).sum()
}

/// Concatenate a node's batch list into one batch of the given width; a
/// one-batch list is shared, not copied.
pub fn concat(batches: &[RecordBatch], width: usize) -> RecordBatch {
    if let [only] = batches {
        return only.clone();
    }
    let rows = batch_rows(batches);
    let cols = new_columns(width, rows, |c, col| {
        let mut at = 0;
        for b in batches {
            col[at..at + b.rows].copy_from_slice(b.col(c));
            at += b.rows;
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
/// one batch per segment. One key buffer serves every segment, each
/// sorted on its own where it sits, then one gather per column fills the
/// buffer the segments' batches view. Rows that compare equal are
/// identical, so the result does not depend on how the sort places them.
pub(crate) fn sort_segments<S: AsRef<[RecordBatch]>>(
    segments: &[S],
    width: usize,
    lead: Option<usize>,
    keep: Keep,
) -> BatchFragments {
    // `(leading key, (part, row))`: most comparisons are decided on the
    // key without touching the columns.
    let rows = segments.iter().map(|s| batch_rows(s.as_ref())).sum();
    let (mut keyed, mut parts, mut kept) = (Vec::with_capacity(rows), Vec::new(), Vec::new());
    for s in segments.iter().map(S::as_ref) {
        if batch_rows(s) == 0 {
            kept.push(0);
            continue;
        }
        let (b, start, p) = (concat(s, width), keyed.len(), parts.len() as u32);
        let rows = (0..b.rows as u32).map(|i| (p, i));
        match width {
            0 => keyed.extend(rows.map(|at| (0, at))),
            _ => keyed.extend(b.col(lead.unwrap_or(0)).iter().copied().zip(rows)),
        }
        let rows = |x: (u32, u32), y: (u32, u32)| b.cmp_rows(x.1 as usize, y.1 as usize);
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
        parts.push(b);
        kept.push(n);
    }
    let picks: Vec<(u32, u32)> = keyed.iter().map(|k| k.1).collect();
    let cols = gather_runs(width, || std::iter::once((&parts[..], &picks[..])));
    let out = views(&cols, kept).map(|b| b.into_iter().collect());
    out.collect()
}

/// The first `n` rows of a batch list. A batch that fits whole is shared
/// if it spans its buffers and copied like a partial cut otherwise, so
/// the cut keeps no rows alive but its own.
pub fn head(batches: &[RecordBatch], n: usize) -> Vec<RecordBatch> {
    let mut out = Vec::new();
    let mut left = n;
    for b in batches {
        if left == 0 {
            break;
        }
        let take = b.rows.min(left);
        let spans = b.cols.iter().all(|c| c.len() == c.buffer().len());
        out.push(match take == b.rows && spans {
            true => b.clone(),
            false => b.gather(&(0..take).collect::<Vec<_>>()),
        });
        left -= take;
    }
    out
}

/// One buffer per column holding, run after run, each run's picks: the
/// `(batch, row)` pairs it selects from its batch list. A run's column
/// slices are resolved once; a one-batch list (what a scan leaves on a
/// node) is indexed directly.
pub(crate) fn gather_runs<'a, I>(width: usize, runs: impl Fn() -> I) -> Vec<Arc<[Value]>>
where
    I: Iterator<Item = (&'a [RecordBatch], &'a [(u32, u32)])>,
{
    let (rows, mut slices) = (runs().map(|run| run.1.len()).sum(), Vec::new());
    new_columns(width, rows, |c, col| {
        let mut at = 0;
        for (batches, picks) in runs() {
            let cells = col[at..at + picks.len()].iter_mut().zip(picks);
            at += picks.len();
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

/// Select rows spanning a node's batch list into a new batch: `idx` holds
/// `(batch, row)` pairs in output order.
pub(crate) fn gather_multi(
    batches: &[RecordBatch],
    idx: &[(u32, u32)],
    width: usize,
) -> RecordBatch {
    let cols = gather_runs(width, || std::iter::once((batches, idx)));
    RecordBatch::view(&cols, 0..idx.len())
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

/// Row-major flatten of the `(batch, row)` pairs in `idx`: the wire
/// payload of the selected rows.
pub(crate) fn flatten_multi(
    batches: &[RecordBatch],
    idx: &[(u32, u32)],
    width: usize,
) -> Arc<[Value]> {
    let runs = idx
        .iter()
        .map(|&(b, i)| (&batches[b as usize], i as usize..i as usize + 1));
    flatten(idx.len(), runs, width)
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
        let g = b.gather(&[4, 1, 1]);
        assert_eq!(g.to_rows(), vec![vec![4, 14], vec![1, 11], vec![1, 11]]);
    }

    #[test]
    fn multi_batch_gather_spans_boundaries() {
        let rows: Vec<Row> = (0..7u64).map(|i| vec![i]).collect();
        let batches = rows_to_batches(&rows, 1, 3);
        let g = gather_multi(&batches, &[(2, 0), (0, 1), (1, 2)], 1);
        assert_eq!(g.to_rows(), vec![vec![6], vec![1], vec![5]]);
        assert_eq!(*flatten_multi(&batches, &[(2, 0), (0, 1)], 1), [6, 1]);
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
            let mut out = sort_segments(&[batches], width, lead, keep);
            assert_eq!(out.len(), 1);
            out.pop().unwrap()
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
        // Width-0 rows are all equal: any order is sorted, one is distinct.
        let unit = RecordBatch::from_cols_rows(Vec::new().into(), 3);
        assert_eq!(
            batch_rows(&sort(std::slice::from_ref(&unit), 0, None, Keep::All)),
            3
        );
        assert_eq!(batch_rows(&sort(&[unit], 0, Some(0), Keep::Distinct)), 1);
    }

    /// Segments sort on their own, and their batches view one buffer per
    /// column; an empty segment yields no batch.
    #[test]
    fn a_segmented_sort_sorts_each_segment_into_one_buffer_per_column() {
        let seg = |xs: &[u64]| -> Vec<RecordBatch> {
            let rows: Vec<Row> = xs.iter().map(|&x| vec![x % 3, x]).collect();
            rows_to_batches(&rows, 2, 2)
        };
        let segments = [seg(&[5, 1, 4, 1]), Vec::new(), seg(&[9, 2, 6, 2, 3])];
        let out = sort_segments(&segments, 2, Some(0), Keep::Distinct);
        assert_eq!(out.len(), 3);
        let rows = |b: &[RecordBatch]| concat(b, 2).to_rows();
        assert_eq!(rows(&out[0]), [[1, 1], [1, 4], [2, 5]]);
        assert!(out[1].is_empty());
        assert_eq!(rows(&out[2]), [[0, 3], [0, 6], [0, 9], [2, 2]]);
        for c in 0..2 {
            let (a, b) = (out[0][0].col_shared(c), out[2][0].col_shared(c));
            assert!(Arc::ptr_eq(a.buffer(), b.buffer()));
            assert_eq!(a.buffer().len(), 7);
        }
    }

    #[test]
    fn head_cuts_across_batches_and_shares_whole_ones() {
        let rows: Vec<Row> = (0..7u64).map(|i| vec![i]).collect();
        let batches = rows_to_batches(&rows, 1, 3);
        let cut = head(&batches, 5);
        assert_eq!(cut.len(), 2);
        assert!(Arc::ptr_eq(&cut[0].cols, &batches[0].cols));
        assert_eq!(concat(&cut, 1).to_rows(), rows[..5]);
        assert!(head(&batches, 0).is_empty());
        assert_eq!(batch_rows(&head(&batches, 100)), 7);
        // A whole batch cut from a larger buffer is copied, not shared:
        // the cut keeps only its own rows alive.
        let cols = new_columns(1, 7, |_, col| col.copy_from_slice(&[0, 1, 2, 3, 4, 5, 6]));
        let part = RecordBatch::view(&cols, 2..4);
        let [kept] = &head(std::slice::from_ref(&part), 5)[..] else {
            panic!("one batch");
        };
        assert_eq!(kept, &part);
        assert_eq!(kept.col_shared(0).buffer().len(), 2);
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
        assert!(!Arc::ptr_eq(
            a.col_shared(0).buffer(),
            b.col_shared(0).buffer()
        ));
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
