//! Columnar record batches: the storage, the wire and the result.
//!
//! A [`RecordBatch`] stores a fixed number of columns as shared
//! `Arc<[Value]>` allocations — the same zero-copy currency the exchange
//! fabric ships in `ScheduleSend::values`, as ranges of one buffer per
//! exchange — so replicating a batch to another node's fragment list is a
//! reference-count bump, not a copy.
//! A registered table holds one batch per node, operators and strategies
//! pass batch lists, and a query result keeps the batches its last
//! operator produced; rows ([`Row`]) are built from them only when asked
//! for ([`RecordBatch::append_rows`]).
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
/// values long, individually shared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordBatch {
    cols: Vec<Arc<[Value]>>,
    rows: usize,
}

impl RecordBatch {
    /// An empty batch of the given width.
    pub fn empty(width: usize) -> Self {
        RecordBatch {
            cols: (0..width).map(|_| Arc::from(Vec::new())).collect(),
            rows: 0,
        }
    }

    /// Build a batch from equal-length columns.
    ///
    /// # Panics
    /// If the columns disagree on length.
    pub fn from_cols(cols: Vec<Arc<[Value]>>) -> Self {
        let rows = cols.first().map_or(0, |c| c.len());
        Self::from_cols_rows(cols, rows)
    }

    /// Build a batch from columns with an explicit row count — required
    /// for width-0 batches, which cannot otherwise carry their length.
    ///
    /// # Panics
    /// If a column's length differs from `rows`.
    pub fn from_cols_rows(cols: Vec<Arc<[Value]>>, rows: usize) -> Self {
        assert!(
            cols.iter().all(|c| c.len() == rows),
            "RecordBatch columns must have equal length"
        );
        RecordBatch { cols, rows }
    }

    /// Transpose `width`-wide rows into a batch (lossless; see
    /// [`RecordBatch::to_rows`] for the inverse).
    pub fn from_rows(rows: &[Row], width: usize) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == width));
        let cols = (0..width)
            .map(|c| rows.iter().map(|r| r[c]).collect())
            .collect();
        RecordBatch {
            cols,
            rows: rows.len(),
        }
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

    /// The shared allocation of column `c` (a clone is a refcount bump).
    pub fn col_arc(&self, c: usize) -> &Arc<[Value]> {
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
        let cols = self
            .cols
            .iter()
            .map(|c| idx.iter().map(|&i| c[i]).collect())
            .collect();
        RecordBatch {
            cols,
            rows: idx.len(),
        }
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

/// Per-node batch lists, indexed by node id: the fragments operators and
/// strategies exchange.
pub type BatchFragments = Vec<Vec<RecordBatch>>;

/// Total rows across a node's batch list.
pub fn batch_rows(batches: &[RecordBatch]) -> usize {
    batches.iter().map(RecordBatch::num_rows).sum()
}

/// Concatenate a node's batch list into one batch of the given width.
pub fn concat(batches: &[RecordBatch], width: usize) -> RecordBatch {
    if batches.len() == 1 {
        return batches[0].clone();
    }
    let rows = batch_rows(batches);
    let cols = (0..width)
        .map(|c| {
            let mut col = Vec::with_capacity(rows);
            for b in batches {
                col.extend_from_slice(b.col(c));
            }
            Arc::from(col)
        })
        .collect();
    RecordBatch { cols, rows }
}

/// The permutation behind [`sort_rows`]. Rows that compare equal are
/// identical, so the gathered result does not depend on how the sort
/// places them.
fn sort_permutation(batch: &RecordBatch, lead: Option<usize>) -> Vec<usize> {
    if batch.width() == 0 {
        return (0..batch.num_rows()).collect();
    }
    // Carry the leading key next to the index: most comparisons are
    // decided on it without touching the columns.
    let mut keyed: Vec<(Value, usize)> = batch
        .col(lead.unwrap_or(0))
        .iter()
        .copied()
        .zip(0..)
        .collect();
    keyed.sort_unstable_by(|x, y| x.0.cmp(&y.0).then_with(|| batch.cmp_rows(x.1, y.1)));
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// A batch list's rows sorted by column `lead` (if any), ties broken by
/// the whole row — with `None`, the order of [`crate::row::canonicalize`]
/// — as at most one batch: one index sort, then one gather per column.
/// `keep` may thin the sorted permutation first (cut it, drop duplicates)
/// so rows it rejects are never gathered.
pub fn sort_rows(
    batches: &[RecordBatch],
    width: usize,
    lead: Option<usize>,
    keep: impl FnOnce(&RecordBatch, &mut Vec<usize>),
) -> Vec<RecordBatch> {
    if batch_rows(batches) == 0 {
        return Vec::new();
    }
    let all = concat(batches, width);
    let mut perm = sort_permutation(&all, lead);
    keep(&all, &mut perm);
    if perm.is_empty() {
        return Vec::new();
    }
    vec![all.gather(&perm)]
}

/// The first `n` rows of a batch list; batches that fit whole are shared,
/// not copied.
pub fn head(batches: &[RecordBatch], n: usize) -> Vec<RecordBatch> {
    let mut out = Vec::new();
    let mut left = n;
    for b in batches {
        if left == 0 {
            break;
        }
        if b.num_rows() <= left {
            out.push(b.clone());
        } else {
            let first: Vec<usize> = (0..left).collect();
            out.push(b.gather(&first));
        }
        left -= b.num_rows().min(left);
    }
    out
}

/// Select rows spanning a node's batch list: `idx` holds `(batch, row)`
/// pairs in output order. Column slices are resolved once per column, and
/// a one-batch list (what a scan leaves on a node) is indexed directly.
pub(crate) fn gather_multi(
    batches: &[RecordBatch],
    idx: &[(u32, u32)],
    width: usize,
) -> RecordBatch {
    let mut slices: Vec<&[Value]> = Vec::new();
    let cols = (0..width)
        .map(|c| {
            if let [only] = batches {
                debug_assert!(idx.iter().all(|&(b, _)| b == 0));
                let col = only.col(c);
                return idx.iter().map(|&(_, i)| col[i as usize]).collect();
            }
            slices.clear();
            slices.extend(batches.iter().map(|b| b.col(c)));
            idx.iter()
                .map(|&(b, i)| slices[b as usize][i as usize])
                .collect()
        })
        .collect();
    RecordBatch {
        cols,
        rows: idx.len(),
    }
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
        let b = RecordBatch::empty(4);
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
        // Lead column 1, ties on the whole row — the row sort's order.
        let by_lead = sort_rows(&batches, 3, Some(1), |_, _| {});
        rows.sort_by(|x, y| x[1].cmp(&y[1]).then_with(|| x.cmp(y)));
        assert_eq!(concat(&by_lead, 3).to_rows(), rows);
        // No lead: canonical order; `keep` thins before the gather.
        let distinct = sort_rows(&batches, 3, None, |all, perm| {
            perm.dedup_by(|x, y| all.cmp_rows(*x, *y).is_eq())
        });
        crate::row::canonicalize(&mut rows);
        rows.dedup();
        assert_eq!(concat(&distinct, 3).to_rows(), rows);
        assert!(sort_rows(&batches, 3, None, |_, perm| perm.clear()).is_empty());
        assert!(sort_rows(&[], 3, Some(0), |_, _| {}).is_empty());
        // Width-0 rows are all equal: any order is sorted.
        let unit = RecordBatch::from_cols_rows(Vec::new(), 3);
        assert_eq!(sort_permutation(&unit, None), vec![0, 1, 2]);
    }

    #[test]
    fn head_cuts_across_batches_and_shares_whole_ones() {
        let rows: Vec<Row> = (0..7u64).map(|i| vec![i]).collect();
        let batches = rows_to_batches(&rows, 1, 3);
        let cut = head(&batches, 5);
        assert_eq!(cut.len(), 2);
        assert!(Arc::ptr_eq(cut[0].col_arc(0), batches[0].col_arc(0)));
        assert_eq!(concat(&cut, 1).to_rows(), rows[..5]);
        assert!(head(&batches, 0).is_empty());
        assert_eq!(batch_rows(&head(&batches, 100)), 7);
    }
}
