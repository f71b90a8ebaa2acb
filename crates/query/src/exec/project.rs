//! The columnar projection kernel.

use std::sync::Arc;

use tamp_simulator::Value;

use crate::batch::{BatchFragments, RecordBatch};
use crate::error::QueryError;
use crate::exec::eval::{eval, Sel};
use crate::expr::Expr;

/// Evaluate bound expressions column-at-a-time: a kept column is a
/// refcount bump, any other one vectorized evaluation over the batch.
pub(crate) fn project(
    frags: &BatchFragments,
    exprs: &[Expr],
) -> Result<BatchFragments, QueryError> {
    let mut out = Vec::with_capacity(frags.len());
    for node in frags {
        let mut batches = Vec::with_capacity(node.len());
        for b in node {
            let cols: Vec<Arc<[Value]>> = exprs
                .iter()
                .map(|e| match e {
                    Expr::ColIdx(i) if *i < b.width() => Ok(b.col_arc(*i).clone()),
                    _ => eval(e, b, &Sel::All(b.num_rows())).map(Arc::from),
                })
                .collect::<Result<_, _>>()?;
            batches.push(RecordBatch::from_cols_rows(cols, b.num_rows()));
        }
        out.push(batches);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::lit;

    #[test]
    fn a_kept_column_is_shared_and_a_computed_one_is_not() {
        let rows: Vec<Vec<Value>> = (0..5u64).map(|i| vec![i, 10 * i]).collect();
        let frags = vec![vec![RecordBatch::from_rows(&rows, 2)], Vec::new()];
        let exprs = [Expr::ColIdx(1), Expr::ColIdx(0).add(lit(1)), lit(2)];
        let out = project(&frags, &exprs).unwrap();
        assert!(Arc::ptr_eq(out[0][0].col_arc(0), frags[0][0].col_arc(1)));
        let want: Vec<Vec<Value>> = (0..5u64).map(|i| vec![10 * i, i + 1, 2]).collect();
        assert_eq!(out[0][0].to_rows(), want);
        assert!(out[1].is_empty());
    }
}
