//! Single-node reference evaluator.
//!
//! Evaluates a [`LogicalPlan`] directly over the catalog's gathered rows,
//! with no distribution and no cost model. The distributed executor's
//! results are checked against this oracle (up to row order — both sides
//! are canonicalized before comparison).

use std::collections::BTreeMap;

use crate::error::QueryError;
use crate::expr::Expr;
use crate::plan::LogicalPlan;
use crate::row::{canonicalize, Row};
use crate::table::Catalog;

/// Evaluate `plan` centrally and return its rows in canonical
/// (lexicographic) order — except [`LogicalPlan::OrderBy`] prefixes and
/// [`LogicalPlan::Limit`], whose semantic order is preserved.
///
/// The whole plan is validated first ([`LogicalPlan::schema`]), so a
/// plan the engine refuses to prepare is refused here with the same
/// error.
pub fn evaluate(plan: &LogicalPlan, catalog: &Catalog) -> Result<Vec<Row>, QueryError> {
    plan.schema(catalog)?;
    let mut rows = eval_inner(plan, catalog)?;
    if !preserves_order(plan) {
        canonicalize(&mut rows);
    }
    Ok(rows)
}

/// `true` if the plan's top operator defines a semantic row order.
pub fn preserves_order(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::OrderBy { .. } => true,
        LogicalPlan::Limit { input, .. } => preserves_order(input),
        _ => false,
    }
}

fn eval_inner(plan: &LogicalPlan, catalog: &Catalog) -> Result<Vec<Row>, QueryError> {
    match plan {
        LogicalPlan::Scan { table } => Ok(catalog.table(table)?.all_rows()),
        LogicalPlan::Filter { input, predicate } => {
            let schema = input.schema(catalog)?;
            let bound = predicate.bind(&schema)?;
            let rows = eval_inner(input, catalog)?;
            let mut out = Vec::new();
            for row in rows {
                if bound.matches(&row)? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, exprs } => {
            let schema = input.schema(catalog)?;
            let bound: Vec<Expr> = exprs
                .iter()
                .map(|(_, e)| e.bind(&schema))
                .collect::<Result<_, _>>()?;
            let rows = eval_inner(input, catalog)?;
            rows.into_iter()
                .map(|row| bound.iter().map(|e| e.eval(&row)).collect())
                .collect()
        }
        LogicalPlan::HashJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let ls = left.schema(catalog)?;
            let rs = right.schema(catalog)?;
            let li = ls.index_of(left_key)?;
            let ri = rs.index_of(right_key)?;
            let lrows = eval_inner(left, catalog)?;
            let rrows = eval_inner(right, catalog)?;
            let mut by_key: BTreeMap<u64, Vec<&Row>> = BTreeMap::new();
            for row in &rrows {
                by_key.entry(row[ri]).or_default().push(row);
            }
            let mut out = Vec::new();
            for lrow in &lrows {
                if let Some(matches) = by_key.get(&lrow[li]) {
                    for rrow in matches {
                        let mut joined = lrow.clone();
                        joined.extend_from_slice(rrow);
                        out.push(joined);
                    }
                }
            }
            Ok(out)
        }
        LogicalPlan::CrossJoin { left, right } => {
            let lrows = eval_inner(left, catalog)?;
            let rrows = eval_inner(right, catalog)?;
            let mut out = Vec::with_capacity(lrows.len() * rrows.len());
            for lrow in &lrows {
                for rrow in &rrows {
                    let mut joined = lrow.clone();
                    joined.extend_from_slice(rrow);
                    out.push(joined);
                }
            }
            Ok(out)
        }
        LogicalPlan::OrderBy { input, key } => {
            let schema = input.schema(catalog)?;
            let ki = schema.index_of(key)?;
            let mut rows = eval_inner(input, catalog)?;
            rows.sort_by_key(|r| (r[ki], r.clone()));
            Ok(rows)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            agg,
            measure,
        } => {
            let schema = input.schema(catalog)?;
            let gi = schema.index_of(group_by)?;
            let mi = schema.index_of(measure)?;
            let rows = eval_inner(input, catalog)?;
            let mut acc: BTreeMap<u64, u64> = BTreeMap::new();
            for row in rows {
                let lifted = agg.lift(row[mi]);
                acc.entry(row[gi])
                    .and_modify(|p| *p = agg.combine(*p, lifted))
                    .or_insert(lifted);
            }
            Ok(acc.into_iter().map(|(g, m)| vec![g, m]).collect())
        }
        LogicalPlan::Limit { input, n } => {
            let mut rows = eval_inner(input, catalog)?;
            if !preserves_order(input) {
                canonicalize(&mut rows);
            }
            rows.truncate(*n);
            Ok(rows)
        }
        LogicalPlan::Distinct { input } => {
            let mut rows = eval_inner(input, catalog)?;
            canonicalize(&mut rows);
            rows.dedup();
            Ok(rows)
        }
        LogicalPlan::UnionAll { left, right } => {
            let mut rows = eval_inner(left, catalog)?;
            rows.extend(eval_inner(right, catalog)?);
            Ok(rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::QueryContext;
    use crate::expr::{col, lit};
    use crate::plan::AggFunc;
    use crate::schema::Schema;
    use crate::table::DistributedTable;
    use tamp_topology::builders;

    fn catalog() -> Catalog {
        let tree = builders::star(3, 1.0);
        let mut c = Catalog::new(tree);
        let rows: Vec<Row> = (0..20).map(|i| vec![i, i % 4, i * 3]).collect();
        let t = DistributedTable::round_robin(
            "t",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            c.tree(),
        );
        c.register(t).unwrap();
        let small: Vec<Row> = (0..4).map(|g| vec![g, 100 + g]).collect();
        let d = DistributedTable::round_robin(
            "dim",
            Schema::new(vec!["g", "label"]).unwrap(),
            small,
            c.tree(),
        );
        c.register(d).unwrap();
        c
    }

    #[test]
    fn filter_project() {
        let c = catalog();
        let q = LogicalPlan::scan("t")
            .filter(col("g").eq(lit(1)))
            .project(vec![("id", col("id")), ("x2", col("x").mul(lit(2)))]);
        let rows = evaluate(&q, &c).unwrap();
        assert_eq!(rows.len(), 5); // ids 1, 5, 9, 13, 17
        assert!(rows.iter().all(|r| r[1] == r[0] * 6));
    }

    #[test]
    fn join_matches_nested_loop() {
        let c = catalog();
        let q = LogicalPlan::scan("t").join_on(LogicalPlan::scan("dim"), "g", "g");
        let rows = evaluate(&q, &c).unwrap();
        assert_eq!(rows.len(), 20); // every row matches exactly one dim row
        for r in &rows {
            assert_eq!(r[1], r[3]); // g = r_g
            assert_eq!(r[4], 100 + r[1]);
        }
    }

    #[test]
    fn cross_join_counts() {
        let c = catalog();
        let q = LogicalPlan::scan("dim").cross(LogicalPlan::scan("dim"));
        assert_eq!(evaluate(&q, &c).unwrap().len(), 16);
    }

    #[test]
    fn order_by_and_limit() {
        let c = catalog();
        let q = LogicalPlan::scan("t").order_by("x").limit(3);
        let rows = evaluate(&q, &c).unwrap();
        assert_eq!(rows.iter().map(|r| r[2]).collect::<Vec<_>>(), vec![0, 3, 6]);
    }

    /// A plan the engine refuses to prepare — mismatched union sides, a
    /// repeated output name, a join whose `r_` prefix clashes — the
    /// reference refuses with the same error instead of evaluating it.
    #[test]
    fn rejects_what_the_engine_rejects() {
        let c = catalog();
        let ctx = QueryContext::with_catalog(c.clone());
        let t = || LogicalPlan::scan("t");
        for (q, want) in [
            (
                t().union_all(t().aggregate("g", AggFunc::Sum, "x")),
                "UNION ALL schema mismatch",
            ),
            (
                t().project(vec![("a", col("id")), ("a", col("x"))]),
                "duplicate column name `a`",
            ),
            (
                t().join_on(t(), "id", "id").join_on(t(), "id", "id"),
                "duplicate column name `r_id`",
            ),
        ] {
            let engine = ctx.execute(&q).unwrap_err();
            assert_eq!(evaluate(&q, &c).unwrap_err(), engine, "{q}");
            assert!(engine.to_string().contains(want), "{engine}");
        }
    }

    #[test]
    fn aggregate_groups() {
        let c = catalog();
        let q = LogicalPlan::scan("t").aggregate("g", AggFunc::Count, "x");
        let rows = evaluate(&q, &c).unwrap();
        assert_eq!(rows, vec![vec![0, 5], vec![1, 5], vec![2, 5], vec![3, 5]]);
        let q = LogicalPlan::scan("t").aggregate("g", AggFunc::Max, "x");
        let rows = evaluate(&q, &c).unwrap();
        assert_eq!(rows[0], vec![0, 48]); // max x among ids 0,4,8,12,16
    }
}
