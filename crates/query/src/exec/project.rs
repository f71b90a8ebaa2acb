//! The columnar projection kernel.

use std::sync::Arc;

use tamp_simulator::Value;

use crate::batch::{runs, BatchFragments, Columns, RecordBatch};
use crate::error::QueryError;
use crate::exec::eval::{eval, Sel};
use crate::expr::Expr;

/// Evaluate bound expressions column-at-a-time: a kept column is a
/// refcount bump, any other one evaluated once per run of consecutive rows
/// of one column list, into one buffer per expression and input list; each
/// batch keeps its rows of its input list's output list.
pub(crate) fn project(
    frags: &BatchFragments,
    exprs: &[Expr],
) -> Result<BatchFragments, QueryError> {
    let width = frags.batches().first().map_or(0, RecordBatch::width);
    let kept = |e: &Expr| matches!(e, Expr::ColIdx(i) if *i < width);
    let (runs, run_of) = runs(frags.batches());
    // Each run's output list: the first run of an input list evaluates
    // every run of that list into one buffer per expression.
    let mut outs: Vec<Option<Columns>> = vec![None; runs.len()];
    for i in 0..runs.len() {
        if outs[i].is_some() {
            continue;
        }
        let list = &runs[i].cols;
        let mine = || (i..runs.len()).filter(|&j| Arc::ptr_eq(&runs[j].cols, list));
        let len = mine().map(|j| runs[j].range().end).max().unwrap_or(0);
        let col = |e: &Expr| match e {
            &Expr::ColIdx(i) if kept(e) => Ok(list[i].clone()),
            _ => {
                let mut buf: Arc<[Value]> = std::iter::repeat_n(0, len).collect();
                let cells = Arc::get_mut(&mut buf).expect("not shared yet");
                for r in mine().map(|j| &runs[j]) {
                    cells[r.range()].copy_from_slice(&eval(e, r, &Sel::All(r.num_rows()))?);
                }
                Ok(buf)
            }
        };
        let cols: Columns = exprs.iter().map(col).collect::<Result<_, QueryError>>()?;
        mine().for_each(|j| outs[j] = Some(cols.clone()));
    }
    // Each node's batches are the next `frags[v].len()` of `run_of`.
    let (run_of, outs, mut at) = (&run_of, &outs, 0);
    Ok(BatchFragments::from_fn(frags.len(), |v| {
        let batches = &frags[v];
        at += batches.len();
        let view = |(b, &run): (&RecordBatch, &usize)| {
            let cols = outs[run].as_ref().expect("a non-empty batch's run");
            RecordBatch::view(cols, b.range())
        };
        let batches = batches.iter().zip(&run_of[at - batches.len()..at]);
        batches.filter(|(b, _)| b.num_rows() > 0).map(view)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::lit;
    use tamp_simulator::Value;

    #[test]
    fn a_kept_column_is_shared_and_a_computed_one_is_not() {
        let rows: Vec<Vec<Value>> = (0..5u64).map(|i| vec![i, 10 * i]).collect();
        let batch = RecordBatch::from_rows(&rows, 2);
        let frags = BatchFragments::from_fn(2, |v| (v == 0).then(|| batch.clone()));
        let exprs = [Expr::ColIdx(1), Expr::ColIdx(0).add(lit(1)), lit(2)];
        let out = project(&frags, &exprs).unwrap();
        assert!(std::ptr::eq(out[0][0].col(0), frags[0][0].col(1)));
        let want: Vec<Vec<Value>> = (0..5u64).map(|i| vec![10 * i, i + 1, 2]).collect();
        assert_eq!(out[0][0].to_rows(), want);
        assert!(out[1].is_empty());
    }
}
