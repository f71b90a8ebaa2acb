//! Logical plan rewrites.
//!
//! Communication is the only cost in the model (§2), so the optimizer's
//! single goal is to shrink what crosses the network:
//!
//! 1. **Constant folding** — evaluate column-free sub-expressions once at
//!    plan time ([`Expr::fold`]).
//! 2. **Conjunction splitting** — `Filter (a AND b)` becomes two stacked
//!    filters so each conjunct can move independently.
//! 3. **Filter pushdown** — filters slide below order-by, below
//!    projections that pass their columns through unchanged, and into the
//!    join side that defines their columns, so rows are dropped *before*
//!    they are shuffled.
//!
//! All rewrites are semantics-preserving; the tests execute optimized and
//! unoptimized plans side by side and compare both results and costs.
//!
//! The optimizer's second stage — lowering the rewritten logical plan
//! into a cost-estimated [`PhysicalPlan`](crate::physical::PhysicalPlan)
//! with explicit exchanges — lives in [`crate::physical`].

use std::cell::Cell;

use crate::error::QueryError;
use crate::expr::Expr;
use crate::plan::LogicalPlan;
use crate::table::Catalog;

/// Apply all rewrites until a fixpoint (bounded, defensively).
///
/// Each pass reports whether it rewrote anything, so the loop stops as
/// soon as a pass comes back unchanged — no clone-and-compare of the
/// whole plan per iteration.
pub fn optimize(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan, QueryError> {
    // Validate once; rewrites preserve validity.
    plan.schema(catalog)?;
    let mut plan = plan;
    for _ in 0..64 {
        let (next, changed) = pass(plan, catalog)?;
        plan = next;
        if !changed {
            break;
        }
    }
    Ok(plan)
}

/// One rewrite pass. Returns the rewritten plan and whether any rewrite
/// fired (`false` means `plan` is already a fixpoint).
fn pass(plan: LogicalPlan, catalog: &Catalog) -> Result<(LogicalPlan, bool), QueryError> {
    let changed = Cell::new(false);
    let plan = pass_inner(plan, catalog, &changed)?;
    Ok((plan, changed.get()))
}

fn pass_inner(
    plan: LogicalPlan,
    catalog: &Catalog,
    changed: &Cell<bool>,
) -> Result<LogicalPlan, QueryError> {
    use LogicalPlan::*;
    let plan = map_children(plan, &|p| pass_inner(p, catalog, changed))?;
    Ok(match plan {
        Filter { input, predicate } => {
            let folded = predicate.fold();
            if folded != predicate {
                changed.set(true);
            }
            let predicate = folded;
            // Split conjunctions so each conjunct moves independently.
            if let Expr::And(a, b) = predicate {
                changed.set(true);
                return pass_inner(
                    Filter {
                        input: Box::new(Filter {
                            input,
                            predicate: *b,
                        }),
                        predicate: *a,
                    },
                    catalog,
                    changed,
                );
            }
            // Constant-true filters disappear.
            if predicate == Expr::Lit(1) {
                changed.set(true);
                return Ok(*input);
            }
            push_filter(*input, predicate, catalog, changed)?
        }
        Project { input, exprs } => Project {
            input,
            exprs: exprs
                .into_iter()
                .map(|(n, e)| {
                    let folded = e.fold();
                    if folded != e {
                        changed.set(true);
                    }
                    (n, folded)
                })
                .collect(),
        },
        other => other,
    })
}

/// Push `Filter(predicate)` one level below `input` where provably safe,
/// flagging `changed` whenever the filter actually moves.
fn push_filter(
    input: LogicalPlan,
    predicate: Expr,
    catalog: &Catalog,
    changed: &Cell<bool>,
) -> Result<LogicalPlan, QueryError> {
    use LogicalPlan::*;
    let refs: Vec<String> = {
        let mut r: Vec<String> = predicate
            .referenced_columns()
            .into_iter()
            .map(str::to_string)
            .collect();
        r.sort_unstable();
        r.dedup();
        r
    };
    Ok(match input {
        // Below OrderBy: filtering commutes with sorting.
        OrderBy { input, key } => {
            changed.set(true);
            OrderBy {
                input: Box::new(push_filter(*input, predicate, catalog, changed)?),
                key,
            }
        }
        // Into the join side that defines every referenced column.
        // Left columns keep their names in the join output; a right
        // column keeps its name only when it does not clash with a left
        // column (clashes get the `r_` prefix), so a non-prefixed name
        // that exists on the left always binds to the left side.
        HashJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let ls = left.schema(catalog)?;
            let rs = right.schema(catalog)?;
            let on_left = |c: &String| ls.index_of(c).is_ok();
            let on_right_only = |c: &String| rs.index_of(c).is_ok() && ls.index_of(c).is_err();
            if !refs.is_empty() && refs.iter().all(on_left) {
                changed.set(true);
                HashJoin {
                    left: Box::new(Filter {
                        input: left,
                        predicate,
                    }),
                    right,
                    left_key,
                    right_key,
                }
            } else if !refs.is_empty() && refs.iter().all(on_right_only) {
                changed.set(true);
                HashJoin {
                    left,
                    right: Box::new(Filter {
                        input: right,
                        predicate,
                    }),
                    left_key,
                    right_key,
                }
            } else {
                Filter {
                    input: Box::new(HashJoin {
                        left,
                        right,
                        left_key,
                        right_key,
                    }),
                    predicate,
                }
            }
        }
        // Through a projection whose referenced outputs are plain column
        // passthroughs: substitute and push.
        Project { input, exprs } => {
            let passthrough: Option<Vec<(String, String)>> = refs
                .iter()
                .map(|r| {
                    exprs.iter().find_map(|(n, e)| match e {
                        Expr::Col(src) if n == r => Some((r.clone(), src.clone())),
                        _ => None,
                    })
                })
                .collect();
            match passthrough {
                Some(subs) if !refs.is_empty() => {
                    changed.set(true);
                    let rewritten = substitute(&predicate, &subs);
                    Project {
                        input: Box::new(push_filter(*input, rewritten, catalog, changed)?),
                        exprs,
                    }
                }
                _ => Filter {
                    input: Box::new(Project { input, exprs }),
                    predicate,
                },
            }
        }
        other => Filter {
            input: Box::new(other),
            predicate,
        },
    })
}

/// Rename column references per the `(from, to)` substitution list.
fn substitute(expr: &Expr, subs: &[(String, String)]) -> Expr {
    let s = |e: &Expr| Box::new(substitute(e, subs));
    match expr {
        Expr::Col(name) => {
            for (from, to) in subs {
                if name == from {
                    return Expr::Col(to.clone());
                }
            }
            Expr::Col(name.clone())
        }
        Expr::ColIdx(i) => Expr::ColIdx(*i),
        Expr::Lit(v) => Expr::Lit(*v),
        Expr::Add(l, r) => Expr::Add(s(l), s(r)),
        Expr::Sub(l, r) => Expr::Sub(s(l), s(r)),
        Expr::Mul(l, r) => Expr::Mul(s(l), s(r)),
        Expr::Div(l, r) => Expr::Div(s(l), s(r)),
        Expr::Mod(l, r) => Expr::Mod(s(l), s(r)),
        Expr::Eq(l, r) => Expr::Eq(s(l), s(r)),
        Expr::Ne(l, r) => Expr::Ne(s(l), s(r)),
        Expr::Lt(l, r) => Expr::Lt(s(l), s(r)),
        Expr::Le(l, r) => Expr::Le(s(l), s(r)),
        Expr::Gt(l, r) => Expr::Gt(s(l), s(r)),
        Expr::Ge(l, r) => Expr::Ge(s(l), s(r)),
        Expr::And(l, r) => Expr::And(s(l), s(r)),
        Expr::Or(l, r) => Expr::Or(s(l), s(r)),
        Expr::Not(e) => Expr::Not(s(e)),
    }
}

fn map_children(
    plan: LogicalPlan,
    f: &dyn Fn(LogicalPlan) -> Result<LogicalPlan, QueryError>,
) -> Result<LogicalPlan, QueryError> {
    use LogicalPlan::*;
    Ok(match plan {
        Scan { table } => Scan { table },
        Filter { input, predicate } => Filter {
            input: Box::new(f(*input)?),
            predicate,
        },
        Project { input, exprs } => Project {
            input: Box::new(f(*input)?),
            exprs,
        },
        HashJoin {
            left,
            right,
            left_key,
            right_key,
        } => HashJoin {
            left: Box::new(f(*left)?),
            right: Box::new(f(*right)?),
            left_key,
            right_key,
        },
        CrossJoin { left, right } => CrossJoin {
            left: Box::new(f(*left)?),
            right: Box::new(f(*right)?),
        },
        OrderBy { input, key } => OrderBy {
            input: Box::new(f(*input)?),
            key,
        },
        Aggregate {
            input,
            group_by,
            agg,
            measure,
        } => Aggregate {
            input: Box::new(f(*input)?),
            group_by,
            agg,
            measure,
        },
        Limit { input, n } => Limit {
            input: Box::new(f(*input)?),
            n,
        },
        Distinct { input } => Distinct {
            input: Box::new(f(*input)?),
        },
        UnionAll { left, right } => UnionAll {
            left: Box::new(f(*left)?),
            right: Box::new(f(*right)?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::QueryContext;
    use crate::expr::{col, lit};
    use crate::physical::strategy::OperatorKind;
    use crate::plan::AggFunc;
    use crate::reference;
    use crate::row::Row;
    use crate::schema::Schema;
    use crate::table::DistributedTable;
    use tamp_topology::builders;

    fn catalog() -> Catalog {
        let tree = builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0);
        let mut c = Catalog::new(tree);
        let rows: Vec<Row> = (0..120).map(|i| vec![i, i % 6, (i * 37) % 500]).collect();
        let t = DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            c.tree(),
        );
        c.register(t).unwrap();
        let dims: Vec<Row> = (0..6).map(|g| vec![g, g + 10]).collect();
        let d = DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            dims,
            c.tree(),
        );
        c.register(d).unwrap();
        c
    }

    fn assert_equivalent_on(q: &LogicalPlan, ctx: &QueryContext) -> (f64, f64) {
        let c = ctx.catalog();
        let opt = optimize(q.clone(), c).unwrap();
        let before = ctx.execute(q).unwrap();
        let after = ctx.execute(&opt).unwrap();
        let ord = reference::preserves_order(q);
        assert_eq!(before.rows(ord), after.rows(ord), "optimized:\n{opt}");
        assert_eq!(after.rows(ord), reference::evaluate(q, c).unwrap());
        (before.cost.tuple_cost(), after.cost.tuple_cost())
    }

    fn assert_equivalent(q: &LogicalPlan, c: &Catalog) -> (f64, f64) {
        assert_equivalent_on(q, &QueryContext::with_catalog(c.clone()))
    }

    #[test]
    fn filter_pushes_below_join_and_saves_cost() {
        let c = catalog();
        // Filter references only the facts side but sits above the join.
        let q = LogicalPlan::scan("facts")
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .filter(col("x").lt(lit(50)));
        let opt = optimize(q.clone(), &c).unwrap();
        // Structure: the filter moved below the join.
        match &opt {
            LogicalPlan::HashJoin { left, .. } => {
                assert!(matches!(**left, LogicalPlan::Filter { .. }));
            }
            other => panic!("expected join on top, got:\n{other}"),
        }
        // Under a fixed repartition strategy, dropping rows before the
        // shuffle is a strict win. (Cost-based, the comparison can flip:
        // filtering shrinks the big side until broadcast loses to
        // repartition — a strategy change, not a pushdown regression.)
        let forced = QueryContext::with_catalog(c.clone())
            .with_strategy(OperatorKind::Join, "weighted-repartition");
        let (before, after) = assert_equivalent_on(&q, &forced);
        assert!(
            after < before,
            "pushdown saved nothing: {after} vs {before}"
        );
    }

    #[test]
    fn right_only_filter_pushes_right() {
        let c = catalog();
        let q = LogicalPlan::scan("facts")
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .filter(col("tier").ge(lit(12)));
        let opt = optimize(q.clone(), &c).unwrap();
        match &opt {
            LogicalPlan::HashJoin { right, .. } => {
                assert!(matches!(**right, LogicalPlan::Filter { .. }));
            }
            other => panic!("expected join on top, got:\n{other}"),
        }
        assert_equivalent(&q, &c);
    }

    #[test]
    fn ambiguous_filter_stays_put() {
        let c = catalog();
        // References both sides: cannot push.
        let q = LogicalPlan::scan("facts")
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .filter(col("x").lt(col("tier")));
        let opt = optimize(q.clone(), &c).unwrap();
        assert!(matches!(opt, LogicalPlan::Filter { .. }));
        assert_equivalent(&q, &c);
    }

    #[test]
    fn conjunctions_split_and_scatter() {
        let c = catalog();
        let q = LogicalPlan::scan("facts")
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .filter(col("x").lt(lit(100)).and(col("tier").ge(lit(11))));
        let opt = optimize(q.clone(), &c).unwrap();
        // Both conjuncts pushed into their respective sides.
        match &opt {
            LogicalPlan::HashJoin { left, right, .. } => {
                assert!(matches!(**left, LogicalPlan::Filter { .. }));
                assert!(matches!(**right, LogicalPlan::Filter { .. }));
            }
            other => panic!("expected join on top, got:\n{other}"),
        }
        assert_equivalent(&q, &c);
    }

    #[test]
    fn filter_pushes_below_order_by() {
        let c = catalog();
        let q = LogicalPlan::scan("facts")
            .order_by("x")
            .filter(col("g").eq(lit(2)));
        let opt = optimize(q.clone(), &c).unwrap();
        assert!(matches!(opt, LogicalPlan::OrderBy { .. }));
        let (before, after) = assert_equivalent(&q, &c);
        assert!(after <= before);
    }

    #[test]
    fn filter_substitutes_through_projection() {
        let c = catalog();
        let q = LogicalPlan::scan("facts")
            .project(vec![("key", col("id")), ("grp", col("g"))])
            .filter(col("grp").eq(lit(3)));
        let opt = optimize(q.clone(), &c).unwrap();
        assert!(
            matches!(opt, LogicalPlan::Project { .. }),
            "filter did not slide below the projection:\n{opt}"
        );
        assert_equivalent(&q, &c);
    }

    #[test]
    fn computed_projection_blocks_pushdown() {
        let c = catalog();
        let q = LogicalPlan::scan("facts")
            .project(vec![("y", col("x").add(lit(1)))])
            .filter(col("y").gt(lit(10)));
        let opt = optimize(q.clone(), &c).unwrap();
        assert!(matches!(opt, LogicalPlan::Filter { .. }));
        assert_equivalent(&q, &c);
    }

    #[test]
    fn constant_folding_in_filters_and_projections() {
        let c = catalog();
        let q = LogicalPlan::scan("facts")
            .filter(col("x").lt(lit(20).mul(lit(5))))
            .project(vec![("z", col("x").add(lit(1).add(lit(2))))]);
        let opt = optimize(q.clone(), &c).unwrap();
        let text = opt.to_string();
        assert!(text.contains("100"), "not folded:\n{text}");
        assert!(text.contains("(x + 3)"), "not folded:\n{text}");
        assert_equivalent(&q, &c);
    }

    #[test]
    fn pass_reports_fixpoint_without_comparing_plans() {
        let c = catalog();
        let q = LogicalPlan::scan("facts")
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .filter(col("x").lt(lit(100)).and(col("tier").ge(lit(11))));
        let (opt, changed) = pass(q, &c).unwrap();
        assert!(changed, "rewrites should fire on the first pass");
        // Drive to the fixpoint, then one more pass reports no change.
        let opt = optimize(opt, &c).unwrap();
        let (same, changed) = pass(opt.clone(), &c).unwrap();
        assert!(!changed, "fixpoint must report unchanged");
        assert_eq!(same, opt);
    }

    #[test]
    fn true_filter_is_eliminated() {
        let c = catalog();
        let q = LogicalPlan::scan("facts").filter(lit(1).eq(lit(1)));
        let opt = optimize(q, &c).unwrap();
        assert_eq!(opt, LogicalPlan::scan("facts"));
    }

    #[test]
    fn aggregate_and_limit_pass_through_unchanged() {
        let c = catalog();
        let q = LogicalPlan::scan("facts")
            .aggregate("g", AggFunc::Sum, "x")
            .limit(3);
        let opt = optimize(q.clone(), &c).unwrap();
        assert_eq!(opt, q);
        assert_equivalent(&q, &c);
    }
}
