//! The columnar projection kernel.

use tamp_simulator::SharedSlice;

use crate::batch::{new_columns, BatchFragments, RecordBatch};
use crate::error::QueryError;
use crate::exec::eval::{eval, Sel};
use crate::expr::Expr;

/// Evaluate bound expressions column-at-a-time: a kept column is a
/// refcount bump, any other one vectorized evaluation per batch into one
/// buffer per expression that every batch views a range of.
pub(crate) fn project(
    frags: &BatchFragments,
    exprs: &[Expr],
) -> Result<BatchFragments, QueryError> {
    let batches = || frags.iter().flatten();
    let width = batches().next().map_or(0, RecordBatch::width);
    let kept = |e: &Expr| matches!(e, Expr::ColIdx(i) if *i < width);
    let computed: Vec<&Expr> = exprs.iter().filter(|e| !kept(e)).collect();
    let (rows, mut failed) = (batches().map(RecordBatch::num_rows).sum(), Ok(()));
    let bufs = new_columns(computed.len(), rows, |c, col| {
        let mut at = 0;
        for b in batches() {
            match eval(computed[c], b, &Sel::All(b.num_rows())) {
                Ok(v) => col[at..at + v.len()].copy_from_slice(&v),
                Err(e) => failed = failed.clone().and(Err(e)),
            }
            at += b.num_rows();
        }
    });
    failed?;
    let mut at = 0;
    let mut batch = |b: &RecordBatch| {
        let (rows, mut bufs) = (at..at + b.num_rows(), bufs.iter());
        at = rows.end;
        let col = |e| match e {
            &Expr::ColIdx(i) if kept(e) => b.col_shared(i).clone(),
            _ => SharedSlice::new(bufs.next().expect("computed").clone(), rows.clone()),
        };
        RecordBatch::from_cols_rows(exprs.iter().map(col).collect(), b.num_rows())
    };
    let out = frags.iter().map(|n| n.iter().map(&mut batch).collect());
    Ok(out.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::lit;
    use tamp_simulator::Value;

    #[test]
    fn a_kept_column_is_shared_and_a_computed_one_is_not() {
        let rows: Vec<Vec<Value>> = (0..5u64).map(|i| vec![i, 10 * i]).collect();
        let frags = vec![vec![RecordBatch::from_rows(&rows, 2)], Vec::new()];
        let exprs = [Expr::ColIdx(1), Expr::ColIdx(0).add(lit(1)), lit(2)];
        let out = project(&frags, &exprs).unwrap();
        assert!(std::ptr::eq(out[0][0].col(0), frags[0][0].col(1)));
        let want: Vec<Vec<Value>> = (0..5u64).map(|i| vec![10 * i, i + 1, 2]).collect();
        assert_eq!(out[0][0].to_rows(), want);
        assert!(out[1].is_empty());
    }
}
