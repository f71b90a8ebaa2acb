//! The columnar filter kernel.

use tamp_simulator::Value;

use crate::batch::{new_columns, BatchFragments, RecordBatch};
use crate::error::QueryError;
use crate::exec::eval::{eval, Sel};
use crate::expr::Expr;

/// Keep rows matching the bound `predicate`: one vectorized predicate
/// evaluation per batch, then one gather per column into one buffer that
/// every partly kept batch views a range of. Fully selected batches pass
/// through untouched (a refcount bump); empty results vanish.
pub(crate) fn filter(
    frags: BatchFragments,
    predicate: &Expr,
) -> Result<BatchFragments, QueryError> {
    // Each batch's kept row positions, written over its predicate values.
    let mut picks = Vec::new();
    for b in frags.iter().flatten() {
        let mut v = eval(predicate, b, &Sel::All(b.num_rows()))?;
        // The nonzero positions, branch-free and in place: write every
        // position, advance the cursor past the kept ones only.
        let mut n = 0;
        for k in 0..v.len() {
            let x = v[k];
            v[n] = k as Value;
            n += (x != 0) as usize;
        }
        v.truncate(n);
        picks.push(v);
    }
    let partly = |b: &RecordBatch, idx: &Vec<Value>| (1..b.num_rows()).contains(&idx.len());
    let picked = || {
        frags
            .iter()
            .flatten()
            .zip(&picks)
            .filter(|(b, i)| partly(b, i))
    };
    let width = frags.iter().flatten().next().map_or(0, RecordBatch::width);
    let cols = new_columns(width, picked().map(|(_, i)| i.len()).sum(), |c, col| {
        let mut at = 0;
        for (b, idx) in picked() {
            let (src, dst) = (b.col(c), &mut col[at..at + idx.len()]);
            dst.iter_mut()
                .zip(idx)
                .for_each(|(x, &i)| *x = src[i as usize]);
            at += idx.len();
        }
    });
    let (mut at, mut picks) = (0, picks.iter());
    let out = frags.into_iter().map(|node| {
        let kept = node.into_iter().filter_map(|b| {
            let idx = picks.next().expect("picks per batch");
            if !partly(&b, idx) {
                return (!idx.is_empty()).then_some(b);
            }
            at += idx.len();
            Some(RecordBatch::view(&cols, at - idx.len()..at))
        });
        kept.collect()
    });
    Ok(out.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::convert::batches_to_rows;
    use crate::batch::RecordBatch;
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
            let frags = vec![vec![batch.clone()], Vec::new()];
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
