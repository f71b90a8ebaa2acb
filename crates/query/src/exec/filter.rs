//! The columnar filter kernel.

use tamp_simulator::Value;

use crate::batch::{batch_rows, new_columns, runs, BatchFragments, RecordBatch};
use crate::error::QueryError;
use crate::exec::eval::{eval, Sel};
use crate::expr::Expr;

/// Keep rows matching the bound `predicate`: one vectorized evaluation per
/// run of consecutive rows of one column list, then (unless every row is
/// kept and the input passes through) one gather per column into one
/// column list, each node's kept rows one range of it.
pub(crate) fn filter(
    frags: BatchFragments,
    predicate: &Expr,
) -> Result<BatchFragments, QueryError> {
    // Each run's kept rows, list positions written over its predicates.
    let (runs, run_of) = runs(frags.batches());
    let mut kept = Vec::with_capacity(runs.len());
    for run in &runs {
        let mut v = eval(predicate, run, &Sel::All(run.num_rows()))?;
        // The nonzero positions, branch-free and in place: write every
        // position, advance the cursor past the kept ones only.
        let mut n = 0;
        for k in 0..v.len() {
            let x = v[k];
            v[n] = (run.range().start + k) as Value;
            n += (x != 0) as usize;
        }
        v.truncate(n);
        kept.push(v);
    }
    let rows = kept.iter().map(Vec::len).sum();
    if rows == batch_rows(frags.batches()) {
        return Ok(frags);
    }
    let cols = new_columns(runs[0].width(), rows, |c, col| {
        let mut at = 0;
        for (run, idx) in runs.iter().zip(&kept) {
            let src = &run.cols[c];
            let dst = &mut col[at..at + idx.len()];
            dst.iter_mut()
                .zip(idx)
                .for_each(|(x, &i)| *x = src[i as usize]);
            at += idx.len();
        }
    });
    // A batch's kept rows: its run's kept positions within its rows.
    let count = |(b, &run): (&RecordBatch, &usize)| {
        let below = |at: usize| kept[run].partition_point(|&i| (i as usize) < at);
        below(b.range().end) - below(b.range().start)
    };
    let (mut at, mut run_of) = (0, run_of.iter());
    Ok(BatchFragments::from_fn(frags.len(), |v| {
        let n: usize = frags[v].iter().zip(run_of.by_ref()).map(count).sum();
        at += n;
        (n > 0).then(|| RecordBatch::view(&cols, at - n..at))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::convert::batches_to_rows;
    use crate::row::Row;

    /// Nothing, everything, every other row and an irregular mix: the
    /// kept rows are the ones a branching scan keeps, whole batches pass
    /// through shared and empty ones vanish.
    #[test]
    fn keeps_the_matching_rows_at_any_selectivity() {
        let patterns: [fn(u64) -> u64; 4] = [|_| 0, |_| u64::MAX, |i| i % 2, |i| (i * i) % 3];
        for keep in patterns {
            let rows: Vec<Row> = (0..9).map(|i| vec![i, keep(i)]).collect();
            let batch = RecordBatch::from_rows(&rows, 2);
            let frags = BatchFragments::from_fn(2, |v| (v == 0).then(|| batch.clone()));
            let out = filter(frags, &Expr::ColIdx(1)).unwrap();
            let want: Vec<Row> = rows.iter().filter(|r| r[1] != 0).cloned().collect();
            assert_eq!(batches_to_rows(&out), vec![want.clone(), Vec::new()]);
            assert_eq!(out[0].len(), !want.is_empty() as usize);
            if want.len() == rows.len() {
                assert!(std::ptr::eq(out[0][0].col(0), batch.col(0)));
            }
        }
    }
}
