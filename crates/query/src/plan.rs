//! Logical query plans.
//!
//! A [`LogicalPlan`] is a tree of relational operators over named tables.
//! Plans are built fluently:
//!
//! ```
//! use tamp_query::plan::LogicalPlan;
//! use tamp_query::expr::{col, lit};
//! use tamp_query::plan::AggFunc;
//!
//! let q = LogicalPlan::scan("orders")
//!     .filter(col("amount").gt(lit(100)))
//!     .join_on(LogicalPlan::scan("customers"), "cust_id", "id")
//!     .aggregate("region", AggFunc::Sum, "amount");
//! assert!(format!("{q}").contains("HashJoin"));
//! ```
//!
//! Schema inference ([`LogicalPlan::schema`]) resolves column names
//! against a [`Catalog`]; execution maps each
//! operator onto the paper's topology-aware primitives (see
//! [`exec`](crate::exec)).

use std::fmt;

use crate::error::QueryError;
use crate::expr::Expr;
use crate::physical::strategy::OpParams;
use crate::reference;
use crate::schema::Schema;
use crate::table::Catalog;

/// Distributive aggregate functions over full-width `u64` measures.
///
/// (Unlike [`tamp_core::aggregate::Aggregator`], which bit-packs groups
/// and measures into single simulator values, query rows carry columns
/// natively — so sums saturate at `u64::MAX`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of input rows per group.
    Count,
    /// Saturating sum of the measure per group.
    Sum,
    /// Minimum measure per group.
    Min,
    /// Maximum measure per group.
    Max,
}

impl AggFunc {
    /// The partial a single measure contributes.
    #[inline]
    pub fn lift(self, measure: u64) -> u64 {
        match self {
            AggFunc::Count => 1,
            _ => measure,
        }
    }

    /// Merge two partials.
    #[inline]
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            AggFunc::Count | AggFunc::Sum => a.saturating_add(b),
            AggFunc::Min => a.min(b),
            AggFunc::Max => a.max(b),
        }
    }

    /// Lower-case name, used for output column naming.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// A tree of relational operators.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LogicalPlan {
    /// Read a named base table.
    Scan {
        /// Catalog table name.
        table: String,
    },
    /// Keep rows matching a predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate (nonzero ⇒ keep).
        predicate: Expr,
    },
    /// Compute named output expressions.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(output name, expression)` pairs.
        exprs: Vec<(String, Expr)>,
    },
    /// Equi-join on one column from each side.
    HashJoin {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join column on the left schema.
        left_key: String,
        /// Join column on the right schema.
        right_key: String,
    },
    /// Full cartesian product.
    CrossJoin {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Globally sort by a key column (ascending). The distributed output
    /// is range-partitioned along the tree's valid compute-node order.
    OrderBy {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort column.
        key: String,
    },
    /// Grouped aggregation to `(group, aggregate)` rows.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping column.
        group_by: String,
        /// Aggregate function.
        agg: AggFunc,
        /// Measured column.
        measure: String,
    },
    /// Keep the first `n` rows (after gathering; deterministic only
    /// downstream of an `OrderBy`).
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row budget.
        n: usize,
    },
    /// Remove duplicate rows (bag → set).
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Bag union of two inputs with identical schemas.
    UnionAll {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Scan a base table.
    pub fn scan(table: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.to_string(),
        }
    }

    /// Keep rows where `predicate` is nonzero.
    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Compute named expressions.
    pub fn project(self, exprs: Vec<(&str, Expr)>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(n, e)| (n.to_string(), e)).collect(),
        }
    }

    /// Equi-join with `right` on `self.left_key = right.right_key`.
    pub fn join_on(self, right: LogicalPlan, left_key: &str, right_key: &str) -> LogicalPlan {
        LogicalPlan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_key: left_key.to_string(),
            right_key: right_key.to_string(),
        }
    }

    /// Cartesian product with `right`.
    pub fn cross(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::CrossJoin {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Globally sort by `key`.
    pub fn order_by(self, key: &str) -> LogicalPlan {
        LogicalPlan::OrderBy {
            input: Box::new(self),
            key: key.to_string(),
        }
    }

    /// Group by `group_by` and aggregate `measure` with `agg`.
    pub fn aggregate(self, group_by: &str, agg: AggFunc, measure: &str) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by: group_by.to_string(),
            agg,
            measure: measure.to_string(),
        }
    }

    /// Keep at most `n` rows.
    pub fn limit(self, n: usize) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Remove duplicate rows.
    pub fn distinct(self) -> LogicalPlan {
        LogicalPlan::Distinct {
            input: Box::new(self),
        }
    }

    /// Bag union with `right` (schemas must match exactly).
    #[cfg(test)]
    pub(crate) fn union_all(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::UnionAll {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Infer the output schema against a catalog, validating every column
    /// reference along the way.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema, QueryError> {
        let inputs = self
            .inputs()
            .into_iter()
            .map(|input| input.schema(catalog))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.bind(catalog, &inputs.iter().collect::<Vec<_>>())?.0)
    }

    /// The input plans, left to right.
    pub(crate) fn inputs(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::OrderBy { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::HashJoin { left, right, .. }
            | LogicalPlan::CrossJoin { left, right }
            | LogicalPlan::UnionAll { left, right } => vec![left, right],
        }
    }

    /// Resolve this operator's names against its inputs' schemas (in
    /// [`inputs`](Self::inputs) order): its output schema and its
    /// parameters in index form. The one home of the naming rules — a
    /// join prefixes clashing right-side columns with `r_`, an aggregate
    /// names its result `{agg}_{measure}` — for schema inference and
    /// lowering alike.
    pub(crate) fn bind(
        &self,
        catalog: &Catalog,
        inputs: &[&Schema],
    ) -> Result<(Schema, BoundOp<'_>), QueryError> {
        Ok(match self {
            LogicalPlan::Scan { table } => {
                (catalog.table(table)?.schema.clone(), BoundOp::Scan(table))
            }
            LogicalPlan::Filter { predicate, .. } => (
                inputs[0].clone(),
                BoundOp::Filter(predicate.bind(inputs[0])?),
            ),
            LogicalPlan::Project { exprs, .. } => {
                let bound = exprs
                    .iter()
                    .map(|(_, e)| e.bind(inputs[0]))
                    .collect::<Result<_, _>>()?;
                let names = exprs.iter().map(|(n, _)| n.clone()).collect();
                (Schema::new(names)?, BoundOp::Project(bound))
            }
            LogicalPlan::HashJoin {
                left_key,
                right_key,
                ..
            } => {
                let (ls, rs) = (inputs[0], inputs[1]);
                let params = OpParams::Join {
                    left_key: ls.index_of(left_key)?,
                    right_key: rs.index_of(right_key)?,
                    left_width: ls.width(),
                    right_width: rs.width(),
                };
                (ls.join(rs, "r_")?, BoundOp::Exchange(params))
            }
            LogicalPlan::CrossJoin { .. } => {
                let (ls, rs) = (inputs[0], inputs[1]);
                let params = OpParams::CrossJoin {
                    left_width: ls.width(),
                    right_width: rs.width(),
                };
                (ls.join(rs, "r_")?, BoundOp::Exchange(params))
            }
            LogicalPlan::OrderBy { key, .. } => {
                let params = OpParams::Sort {
                    key: inputs[0].index_of(key)?,
                    width: inputs[0].width(),
                };
                (inputs[0].clone(), BoundOp::Exchange(params))
            }
            LogicalPlan::Aggregate {
                group_by,
                agg,
                measure,
                ..
            } => {
                let params = OpParams::Aggregate {
                    group: inputs[0].index_of(group_by)?,
                    measure: inputs[0].index_of(measure)?,
                    agg: *agg,
                };
                let names = vec![group_by.clone(), format!("{}_{}", agg.name(), measure)];
                (Schema::new(names)?, BoundOp::Exchange(params))
            }
            LogicalPlan::Limit { input, n } => {
                let params = OpParams::Limit {
                    n: *n,
                    width: inputs[0].width(),
                    order_preserving: reference::preserves_order(input),
                };
                (inputs[0].clone(), BoundOp::Exchange(params))
            }
            LogicalPlan::Distinct { .. } => {
                let params = OpParams::Distinct {
                    width: inputs[0].width(),
                };
                (inputs[0].clone(), BoundOp::Exchange(params))
            }
            LogicalPlan::UnionAll { .. } => {
                let (ls, rs) = (inputs[0], inputs[1]);
                if ls != rs {
                    return Err(QueryError::Plan(format!(
                        "UNION ALL schema mismatch: {ls} vs {rs}"
                    )));
                }
                (ls.clone(), BoundOp::Union)
            }
        })
    }

    /// The operator's label in EXPLAIN and per-operator cost
    /// attribution, in its unbound names.
    pub(crate) fn label(&self) -> String {
        match self {
            LogicalPlan::Scan { table } => format!("Scan {table}"),
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Project { .. } => "Project".into(),
            LogicalPlan::HashJoin {
                left_key,
                right_key,
                ..
            } => format!("HashJoin {left_key}={right_key}"),
            LogicalPlan::CrossJoin { .. } => "CrossJoin".into(),
            LogicalPlan::OrderBy { key, .. } => format!("OrderBy {key}"),
            LogicalPlan::Aggregate { agg, .. } => format!("Aggregate {}", agg.name()),
            LogicalPlan::Limit { n, .. } => format!("Limit {n}"),
            LogicalPlan::Distinct { .. } => "Distinct".into(),
            LogicalPlan::UnionAll { .. } => "UnionAll".into(),
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Scan { table } => writeln!(f, "{pad}Scan {table}"),
            LogicalPlan::Filter { input, predicate } => {
                writeln!(f, "{pad}Filter {predicate}")?;
                input.fmt_indented(f, indent + 1)
            }
            LogicalPlan::Project { input, exprs } => {
                let cols: Vec<String> = exprs.iter().map(|(n, e)| format!("{n}={e}")).collect();
                writeln!(f, "{pad}Project [{}]", cols.join(", "))?;
                input.fmt_indented(f, indent + 1)
            }
            LogicalPlan::HashJoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                writeln!(f, "{pad}HashJoin {left_key} = {right_key}")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            LogicalPlan::CrossJoin { left, right } => {
                writeln!(f, "{pad}CrossJoin")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            LogicalPlan::OrderBy { input, key } => {
                writeln!(f, "{pad}OrderBy {key}")?;
                input.fmt_indented(f, indent + 1)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                agg,
                measure,
            } => {
                writeln!(
                    f,
                    "{pad}Aggregate {}({measure}) group by {group_by}",
                    agg.name()
                )?;
                input.fmt_indented(f, indent + 1)
            }
            LogicalPlan::Limit { input, n } => {
                writeln!(f, "{pad}Limit {n}")?;
                input.fmt_indented(f, indent + 1)
            }
            LogicalPlan::Distinct { input } => {
                writeln!(f, "{pad}Distinct")?;
                input.fmt_indented(f, indent + 1)
            }
            LogicalPlan::UnionAll { left, right } => {
                writeln!(f, "{pad}UnionAll")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
        }
    }
}

/// One operator's work with its names resolved (see
/// [`LogicalPlan::bind`]).
#[derive(Debug)]
pub(crate) enum BoundOp<'p> {
    /// Read the named base table.
    Scan(&'p str),
    /// Keep rows where the bound predicate is nonzero.
    Filter(Expr),
    /// Evaluate the bound output expressions.
    Project(Vec<Expr>),
    /// Concatenate the two inputs' fragments.
    Union,
    /// Run an exchanging operator's strategy.
    Exchange(OpParams),
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::table::{Catalog, DistributedTable};
    use tamp_topology::builders;

    fn catalog() -> Catalog {
        let tree = builders::star(3, 1.0);
        let mut c = Catalog::new(tree);
        let orders = DistributedTable::round_robin(
            "orders",
            Schema::new(vec!["id", "cust_id", "amount"]).unwrap(),
            vec![vec![1, 10, 500], vec![2, 11, 30]],
            c.tree(),
        );
        let customers = DistributedTable::round_robin(
            "customers",
            Schema::new(vec!["id", "region"]).unwrap(),
            vec![vec![10, 1], vec![11, 2]],
            c.tree(),
        );
        c.register(orders).unwrap();
        c.register(customers).unwrap();
        c
    }

    #[test]
    fn schema_inference_chain() {
        let c = catalog();
        let q = LogicalPlan::scan("orders")
            .filter(col("amount").gt(lit(100)))
            .join_on(LogicalPlan::scan("customers"), "cust_id", "id")
            .aggregate("region", AggFunc::Sum, "amount");
        let s = q.schema(&c).unwrap();
        assert_eq!(s.columns(), &["region", "sum_amount"]);
    }

    #[test]
    fn join_schema_prefixes_duplicates() {
        let c = catalog();
        let q =
            LogicalPlan::scan("orders").join_on(LogicalPlan::scan("customers"), "cust_id", "id");
        let s = q.schema(&c).unwrap();
        assert_eq!(s.columns(), &["id", "cust_id", "amount", "r_id", "region"]);
    }

    #[test]
    fn unknown_references_fail_inference() {
        let c = catalog();
        assert!(LogicalPlan::scan("nope").schema(&c).is_err());
        assert!(LogicalPlan::scan("orders")
            .filter(col("zzz").gt(lit(0)))
            .schema(&c)
            .is_err());
        assert!(LogicalPlan::scan("orders")
            .order_by("zzz")
            .schema(&c)
            .is_err());
        assert!(LogicalPlan::scan("orders")
            .aggregate("zzz", AggFunc::Count, "amount")
            .schema(&c)
            .is_err());
    }

    #[test]
    fn display_renders_tree() {
        let q = LogicalPlan::scan("orders")
            .filter(col("amount").gt(lit(100)))
            .limit(5);
        let text = q.to_string();
        assert!(text.contains("Limit 5"));
        assert!(text.contains("Filter (amount > 100)"));
        assert!(text.contains("Scan orders"));
    }

    #[test]
    fn aggfunc_semantics() {
        assert_eq!(AggFunc::Count.lift(999), 1);
        assert_eq!(AggFunc::Sum.combine(u64::MAX, 5), u64::MAX);
        assert_eq!(AggFunc::Min.combine(3, 9), 3);
        assert_eq!(AggFunc::Max.combine(3, 9), 9);
    }
}
