//! The plan walker.
//!
//! Fragments flow between operators as per-node lists of
//! [`RecordBatch`](crate::batch::RecordBatch)es. Local operators run the
//! per-operator kernels ([`filter`], [`project`]); communicating
//! operators hand their fragments to the chosen strategy's
//! [`trace`](crate::physical::strategy::PhysicalStrategy::trace), which
//! returns the output fragments and the exchange rounds that move them.
//!
//! Every built-in strategy works on columns — groups fold out of the
//! group and measure columns into one reusable table, sorts are an index
//! permutation plus one gather per column, shuffles scatter each column
//! into one batch per destination, products repeat and tile column
//! slices — so no row is
//! materialized between the scan and the
//! [`QueryResult`](crate::exec::QueryResult), which keeps batches too.

pub(crate) mod eval;
pub(crate) mod filter;
pub(crate) mod project;

use crate::batch::BatchFragments;
use crate::error::QueryError;
use crate::exec::ExecCtx;
use crate::physical::strategy::OpInput;
use crate::physical::{PhysicalOp, PhysicalPlan};
use crate::schema::Schema;

/// Execute one physical operator (post-order) on batch fragments,
/// recording its rounds and mark.
pub(crate) fn exec_batches(
    ctx: &mut ExecCtx<'_>,
    plan: &PhysicalPlan,
) -> Result<(Schema, BatchFragments), QueryError> {
    let result = match &plan.op {
        PhysicalOp::TableScan { table } => {
            let t = ctx.catalog.table(table)?;
            (t.schema.clone(), t.scan_batches())
        }
        PhysicalOp::Filter { input, predicate } => {
            let (schema, frags) = exec_batches(ctx, input)?;
            let frags = filter::filter(&schema, frags, predicate)?;
            (schema, frags)
        }
        PhysicalOp::Project { input, exprs } => {
            let (schema, frags) = exec_batches(ctx, input)?;
            project::project(&schema, &frags, exprs)?
        }
        PhysicalOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            exchange,
        } => {
            let (ls, lfrags) = exec_batches(ctx, left)?;
            let (rs, rfrags) = exec_batches(ctx, right)?;
            let li = ls.index_of(left_key)?;
            let ri = rs.index_of(right_key)?;
            let out_schema = ls.join(&rs, "r_")?;
            let frags = ctx.run_strategy(
                exchange,
                OpInput::Join {
                    left: lfrags,
                    right: rfrags,
                    left_key: li,
                    right_key: ri,
                    left_width: ls.width(),
                    right_width: rs.width(),
                },
            )?;
            (out_schema, frags)
        }
        PhysicalOp::CrossJoin {
            left,
            right,
            exchange,
        } => {
            let (ls, lfrags) = exec_batches(ctx, left)?;
            let (rs, rfrags) = exec_batches(ctx, right)?;
            let out_schema = ls.join(&rs, "r_")?;
            let frags = ctx.run_strategy(
                exchange,
                OpInput::CrossJoin {
                    left: lfrags,
                    right: rfrags,
                    left_width: ls.width(),
                    right_width: rs.width(),
                },
            )?;
            (out_schema, frags)
        }
        PhysicalOp::Sort {
            input,
            key,
            exchange,
        } => {
            let (schema, frags) = exec_batches(ctx, input)?;
            let ki = schema.index_of(key)?;
            let frags = ctx.run_strategy(
                exchange,
                OpInput::Sort {
                    input: frags,
                    key: ki,
                    width: schema.width(),
                },
            )?;
            (schema, frags)
        }
        PhysicalOp::HashAggregate {
            input,
            group_by,
            agg,
            measure,
            exchange,
        } => {
            let (schema, frags) = exec_batches(ctx, input)?;
            let gi = schema.index_of(group_by)?;
            let mi = schema.index_of(measure)?;
            let frags = ctx.run_strategy(
                exchange,
                OpInput::Aggregate {
                    input: frags,
                    group: gi,
                    measure: mi,
                    agg: *agg,
                },
            )?;
            let out = Schema::new(vec![
                group_by.clone(),
                format!("{}_{}", agg.name(), measure),
            ])?;
            (out, frags)
        }
        PhysicalOp::Limit {
            input,
            n,
            order_preserving,
            exchange,
        } => {
            let (schema, frags) = exec_batches(ctx, input)?;
            let frags = ctx.run_strategy(
                exchange,
                OpInput::Limit {
                    input: frags,
                    n: *n,
                    width: schema.width(),
                    order_preserving: *order_preserving,
                },
            )?;
            (schema, frags)
        }
        PhysicalOp::Distinct { input, exchange } => {
            let (schema, frags) = exec_batches(ctx, input)?;
            let frags = ctx.run_strategy(
                exchange,
                OpInput::Distinct {
                    input: frags,
                    width: schema.width(),
                },
            )?;
            (schema, frags)
        }
        PhysicalOp::UnionAll { left, right } => {
            let (ls, mut lfrags) = exec_batches(ctx, left)?;
            let (rs, mut rfrags) = exec_batches(ctx, right)?;
            if ls != rs {
                return Err(QueryError::Plan(format!(
                    "UNION ALL schema mismatch: {ls} vs {rs}"
                )));
            }
            for (f, r) in lfrags.iter_mut().zip(rfrags.iter_mut()) {
                f.append(r);
            }
            (ls, lfrags)
        }
    };
    ctx.mark(plan);
    Ok(result)
}
