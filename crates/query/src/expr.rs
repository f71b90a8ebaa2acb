//! Scalar expressions over rows.
//!
//! Expressions evaluate to `u64`; comparisons and boolean operators yield
//! `0` / `1`. Arithmetic is saturating (no silent wraparound), division by
//! zero is an error. Column references are by *name* at plan-build time
//! and resolved to indices against the input schema during binding.

use std::fmt;

use tamp_simulator::Value;

use crate::error::QueryError;
use crate::schema::Schema;

/// A scalar expression tree.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A named column reference (unbound).
    Col(String),
    /// A bound column reference (index into the row).
    ColIdx(usize),
    /// A literal value.
    Lit(Value),
    /// Saturating addition.
    Add(Box<Expr>, Box<Expr>),
    /// Saturating subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Saturating multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Integer division (`DivideByZero` on zero divisor).
    Div(Box<Expr>, Box<Expr>),
    /// Remainder (`DivideByZero` on zero divisor).
    Mod(Box<Expr>, Box<Expr>),
    /// Equality (`1` / `0`).
    Eq(Box<Expr>, Box<Expr>),
    /// Inequality.
    Ne(Box<Expr>, Box<Expr>),
    /// Strictly less.
    Lt(Box<Expr>, Box<Expr>),
    /// Less or equal.
    Le(Box<Expr>, Box<Expr>),
    /// Strictly greater.
    Gt(Box<Expr>, Box<Expr>),
    /// Greater or equal.
    Ge(Box<Expr>, Box<Expr>),
    /// Logical and (inputs interpreted as `!= 0`).
    And(Box<Expr>, Box<Expr>),
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

/// Shorthand for a named column reference.
pub fn col(name: &str) -> Expr {
    Expr::Col(name.to_string())
}

/// Shorthand for a literal.
pub fn lit(v: Value) -> Expr {
    Expr::Lit(v)
}

macro_rules! binop_builder {
    ($( $(#[$doc:meta])* $fn_name:ident => $variant:ident ),* $(,)?) => {
        impl Expr {
            $(
                $(#[$doc])*
                #[allow(clippy::should_implement_trait)] // fluent builder API
                pub fn $fn_name(self, rhs: Expr) -> Expr {
                    Expr::$variant(Box::new(self), Box::new(rhs))
                }
            )*
        }
    };
}

binop_builder! {
    /// `self + rhs` (saturating).
    add => Add,
    /// `self - rhs` (saturating).
    sub => Sub,
    /// `self * rhs` (saturating).
    mul => Mul,
    /// `self / rhs`.
    div => Div,
    /// `self % rhs`.
    rem => Mod,
    /// `self == rhs`.
    eq => Eq,
    /// `self != rhs`.
    ne => Ne,
    /// `self < rhs`.
    lt => Lt,
    /// `self <= rhs`.
    le => Le,
    /// `self > rhs`.
    gt => Gt,
    /// `self >= rhs`.
    ge => Ge,
    /// `self && rhs`.
    and => And,
    /// `self || rhs`.
    or => Or,
}

impl Expr {
    /// Resolve all named column references against `schema`, producing a
    /// bound expression that evaluates by index.
    pub(crate) fn bind(&self, schema: &Schema) -> Result<Expr, QueryError> {
        let b = |e: &Expr| -> Result<Box<Expr>, QueryError> { Ok(Box::new(e.bind(schema)?)) };
        Ok(match self {
            Expr::Col(name) => Expr::ColIdx(schema.index_of(name)?),
            Expr::ColIdx(i) => Expr::ColIdx(*i),
            Expr::Lit(v) => Expr::Lit(*v),
            Expr::Add(l, r) => Expr::Add(b(l)?, b(r)?),
            Expr::Sub(l, r) => Expr::Sub(b(l)?, b(r)?),
            Expr::Mul(l, r) => Expr::Mul(b(l)?, b(r)?),
            Expr::Div(l, r) => Expr::Div(b(l)?, b(r)?),
            Expr::Mod(l, r) => Expr::Mod(b(l)?, b(r)?),
            Expr::Eq(l, r) => Expr::Eq(b(l)?, b(r)?),
            Expr::Ne(l, r) => Expr::Ne(b(l)?, b(r)?),
            Expr::Lt(l, r) => Expr::Lt(b(l)?, b(r)?),
            Expr::Le(l, r) => Expr::Le(b(l)?, b(r)?),
            Expr::Gt(l, r) => Expr::Gt(b(l)?, b(r)?),
            Expr::Ge(l, r) => Expr::Ge(b(l)?, b(r)?),
            Expr::And(l, r) => Expr::And(b(l)?, b(r)?),
            Expr::Or(l, r) => Expr::Or(b(l)?, b(r)?),
            Expr::Not(e) => Expr::Not(b(e)?),
        })
    }

    /// Evaluate a *bound* expression on a row.
    ///
    /// # Errors
    ///
    /// [`QueryError::ColumnOutOfRange`] for stray indices (or unbound
    /// `Col`), [`QueryError::DivideByZero`] for zero divisors.
    pub(crate) fn eval(&self, row: &[Value]) -> Result<Value, QueryError> {
        Ok(match self {
            Expr::Col(name) => {
                return Err(QueryError::UnknownColumn(format!("{name} (unbound)")));
            }
            Expr::ColIdx(i) => *row.get(*i).ok_or(QueryError::ColumnOutOfRange {
                index: *i,
                width: row.len(),
            })?,
            Expr::Lit(v) => *v,
            Expr::Add(l, r) => l.eval(row)?.saturating_add(r.eval(row)?),
            Expr::Sub(l, r) => l.eval(row)?.saturating_sub(r.eval(row)?),
            Expr::Mul(l, r) => l.eval(row)?.saturating_mul(r.eval(row)?),
            Expr::Div(l, r) => {
                let d = r.eval(row)?;
                if d == 0 {
                    return Err(QueryError::DivideByZero);
                }
                l.eval(row)? / d
            }
            Expr::Mod(l, r) => {
                let d = r.eval(row)?;
                if d == 0 {
                    return Err(QueryError::DivideByZero);
                }
                l.eval(row)? % d
            }
            Expr::Eq(l, r) => (l.eval(row)? == r.eval(row)?) as Value,
            Expr::Ne(l, r) => (l.eval(row)? != r.eval(row)?) as Value,
            Expr::Lt(l, r) => (l.eval(row)? < r.eval(row)?) as Value,
            Expr::Le(l, r) => (l.eval(row)? <= r.eval(row)?) as Value,
            Expr::Gt(l, r) => (l.eval(row)? > r.eval(row)?) as Value,
            Expr::Ge(l, r) => (l.eval(row)? >= r.eval(row)?) as Value,
            Expr::And(l, r) => ((l.eval(row)? != 0) && (r.eval(row)? != 0)) as Value,
            Expr::Or(l, r) => ((l.eval(row)? != 0) || (r.eval(row)? != 0)) as Value,
            Expr::Not(e) => (e.eval(row)? == 0) as Value,
        })
    }

    /// Evaluate a bound predicate: nonzero ⇒ `true`.
    pub fn matches(&self, row: &[Value]) -> Result<bool, QueryError> {
        Ok(self.eval(row)? != 0)
    }

    /// The set of column *names* this (unbound) expression references.
    pub(crate) fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Col(name) = e {
                out.push(name.as_str());
            }
        });
        out
    }

    /// Constant-fold: replace sub-expressions with no column references by
    /// their value (division by zero is left in place to fail at runtime).
    pub fn fold(&self) -> Expr {
        if self.referenced_columns().is_empty() && !matches!(self, Expr::ColIdx(_)) {
            if let Ok(v) = self.clone().bind_free().and_then(|e| e.eval(&[])) {
                return Expr::Lit(v);
            }
        }
        let f = |e: &Expr| Box::new(e.fold());
        match self {
            Expr::Add(l, r) => Expr::Add(f(l), f(r)),
            Expr::Sub(l, r) => Expr::Sub(f(l), f(r)),
            Expr::Mul(l, r) => Expr::Mul(f(l), f(r)),
            Expr::Div(l, r) => Expr::Div(f(l), f(r)),
            Expr::Mod(l, r) => Expr::Mod(f(l), f(r)),
            Expr::Eq(l, r) => Expr::Eq(f(l), f(r)),
            Expr::Ne(l, r) => Expr::Ne(f(l), f(r)),
            Expr::Lt(l, r) => Expr::Lt(f(l), f(r)),
            Expr::Le(l, r) => Expr::Le(f(l), f(r)),
            Expr::Gt(l, r) => Expr::Gt(f(l), f(r)),
            Expr::Ge(l, r) => Expr::Ge(f(l), f(r)),
            Expr::And(l, r) => Expr::And(f(l), f(r)),
            Expr::Or(l, r) => Expr::Or(f(l), f(r)),
            Expr::Not(e) => Expr::Not(f(e)),
            other => other.clone(),
        }
    }

    /// Bind with no schema — only valid for column-free expressions.
    fn bind_free(self) -> Result<Expr, QueryError> {
        let empty = Schema::new(Vec::<String>::new()).expect("empty schema is valid");
        self.bind(&empty)
    }

    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Add(l, r)
            | Expr::Sub(l, r)
            | Expr::Mul(l, r)
            | Expr::Div(l, r)
            | Expr::Mod(l, r)
            | Expr::Eq(l, r)
            | Expr::Ne(l, r)
            | Expr::Lt(l, r)
            | Expr::Le(l, r)
            | Expr::Gt(l, r)
            | Expr::Ge(l, r)
            | Expr::And(l, r)
            | Expr::Or(l, r) => {
                l.visit(f);
                r.visit(f);
            }
            Expr::Not(e) => e.visit(f),
            Expr::Col(_) | Expr::ColIdx(_) | Expr::Lit(_) => {}
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::ColIdx(i) => write!(f, "#{i}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Add(l, r) => write!(f, "({l} + {r})"),
            Expr::Sub(l, r) => write!(f, "({l} - {r})"),
            Expr::Mul(l, r) => write!(f, "({l} * {r})"),
            Expr::Div(l, r) => write!(f, "({l} / {r})"),
            Expr::Mod(l, r) => write!(f, "({l} % {r})"),
            Expr::Eq(l, r) => write!(f, "({l} = {r})"),
            Expr::Ne(l, r) => write!(f, "({l} != {r})"),
            Expr::Lt(l, r) => write!(f, "({l} < {r})"),
            Expr::Le(l, r) => write!(f, "({l} <= {r})"),
            Expr::Gt(l, r) => write!(f, "({l} > {r})"),
            Expr::Ge(l, r) => write!(f, "({l} >= {r})"),
            Expr::And(l, r) => write!(f, "({l} AND {r})"),
            Expr::Or(l, r) => write!(f, "({l} OR {r})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec!["a", "b"]).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let s = schema();
        let e = col("a").add(lit(10)).mul(lit(2)).bind(&s).unwrap();
        assert_eq!(e.eval(&[5, 0]).unwrap(), 30);
        let p = col("a").lt(col("b")).bind(&s).unwrap();
        assert!(p.matches(&[1, 2]).unwrap());
        assert!(!p.matches(&[2, 2]).unwrap());
    }

    #[test]
    fn saturating_semantics() {
        let s = schema();
        let e = col("a").sub(lit(100)).bind(&s).unwrap();
        assert_eq!(e.eval(&[5, 0]).unwrap(), 0);
        let e = lit(u64::MAX).add(lit(1)).bind(&s).unwrap();
        assert_eq!(e.eval(&[0, 0]).unwrap(), u64::MAX);
    }

    #[test]
    fn division_errors() {
        let s = schema();
        let e = col("a").div(col("b")).bind(&s).unwrap();
        assert_eq!(e.eval(&[10, 3]).unwrap(), 3);
        assert_eq!(e.eval(&[10, 0]).unwrap_err(), QueryError::DivideByZero);
        let m = col("a").rem(lit(0)).bind(&s).unwrap();
        assert_eq!(m.eval(&[1, 1]).unwrap_err(), QueryError::DivideByZero);
    }

    #[test]
    fn boolean_logic() {
        let s = schema();
        let p = col("a")
            .gt(lit(0))
            .and(Expr::Not(Box::new(col("b").eq(lit(7)))))
            .bind(&s)
            .unwrap();
        assert!(p.matches(&[1, 8]).unwrap());
        assert!(!p.matches(&[1, 7]).unwrap());
        assert!(!p.matches(&[0, 8]).unwrap());
        let q = col("a")
            .eq(lit(1))
            .or(col("b").eq(lit(1)))
            .bind(&s)
            .unwrap();
        assert!(q.matches(&[0, 1]).unwrap());
    }

    #[test]
    fn unknown_column_fails_at_bind() {
        let s = schema();
        assert!(matches!(
            col("zzz").bind(&s),
            Err(QueryError::UnknownColumn(_))
        ));
    }

    #[test]
    fn unbound_eval_fails() {
        assert!(col("a").eval(&[1]).is_err());
    }

    #[test]
    fn referenced_columns_are_collected() {
        let e = col("a").add(col("b")).lt(col("a").mul(lit(2)));
        let mut refs = e.referenced_columns();
        refs.sort_unstable();
        refs.dedup();
        assert_eq!(refs, vec!["a", "b"]);
    }

    #[test]
    fn constant_folding() {
        let e = lit(2).add(lit(3)).mul(col("a"));
        let folded = e.fold();
        assert_eq!(
            folded,
            Expr::Mul(Box::new(Expr::Lit(5)), Box::new(col("a")))
        );
        // Division by zero is preserved, not folded into a panic.
        let bad = lit(1).div(lit(0));
        assert_eq!(bad.fold(), lit(1).div(lit(0)));
    }

    #[test]
    fn display_is_readable() {
        let e = col("a").add(lit(1)).le(col("b"));
        assert_eq!(e.to_string(), "((a + 1) <= b)");
    }
}
