//! The columnar filter kernel.

use crate::batch::BatchFragments;
use crate::error::QueryError;
use crate::exec::eval::{eval, Sel};
use crate::expr::Expr;

/// Keep rows matching the bound `predicate`: one vectorized predicate
/// evaluation plus one gather per batch. Fully selected batches pass
/// through untouched (a refcount bump per column).
pub(crate) fn filter(
    frags: BatchFragments,
    predicate: &Expr,
) -> Result<BatchFragments, QueryError> {
    let mut out = Vec::with_capacity(frags.len());
    let mut idx = Vec::new();
    for node in frags {
        let mut kept = Vec::new();
        for b in node {
            let v = eval(predicate, &b, &Sel::All(b.num_rows()))?;
            // The nonzero positions, branch-free: write every position,
            // advance the cursor past the kept ones only.
            idx.clear();
            idx.resize(v.len(), 0);
            let mut hits = 0;
            for (k, &x) in v.iter().enumerate() {
                idx[hits] = k;
                hits += (x != 0) as usize;
            }
            idx.truncate(hits);
            match idx.len() {
                0 => {}
                all if all == b.num_rows() => kept.push(b),
                _ => kept.push(b.gather(&idx)),
            }
        }
        out.push(kept);
    }
    Ok(out)
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
                assert!(std::sync::Arc::ptr_eq(
                    out[0][0].col_arc(0),
                    batch.col_arc(0)
                ));
            }
        }
    }
}
