//! Relation schemas: named, fixed-width columns of `u64` values.

use std::fmt;

use crate::error::QueryError;

/// A relation schema: an ordered list of column names. All columns hold
/// `u64` values (the simulator's element domain).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<String>,
}

impl Schema {
    /// Build a schema from column names.
    ///
    /// # Errors
    ///
    /// Rejects duplicate or empty column names.
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Result<Self, QueryError> {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        for (i, c) in columns.iter().enumerate() {
            if c.is_empty() {
                return Err(QueryError::EmptyColumnName);
            }
            if columns[..i].contains(c) {
                return Err(QueryError::DuplicateColumn(c.clone()));
            }
        }
        Ok(Schema { columns })
    }

    /// Number of columns (the row width).
    #[inline]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column names in order.
    #[inline]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Index of a column by name.
    pub(crate) fn index_of(&self, name: &str) -> Result<usize, QueryError> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| QueryError::UnknownColumn(name.to_string()))
    }

    /// The schema of `self × other`, prefixing clashing right-side names
    /// with `right_prefix`.
    pub fn join(&self, other: &Schema, right_prefix: &str) -> Result<Schema, QueryError> {
        let mut cols = self.columns.clone();
        for c in &other.columns {
            if cols.contains(c) {
                cols.push(format!("{right_prefix}{c}"));
            } else {
                cols.push(c.clone());
            }
        }
        Schema::new(cols)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.columns.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_lookup() {
        let s = Schema::new(vec!["a", "b", "c"]).unwrap();
        assert_eq!(s.width(), 3);
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.index_of("z").is_err());
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        assert!(matches!(
            Schema::new(vec!["a", "a"]),
            Err(QueryError::DuplicateColumn(_))
        ));
        assert!(matches!(
            Schema::new(vec![""]),
            Err(QueryError::EmptyColumnName)
        ));
    }

    #[test]
    fn join_prefixes_clashes() {
        let l = Schema::new(vec!["id", "x"]).unwrap();
        let r = Schema::new(vec!["id", "y"]).unwrap();
        let j = l.join(&r, "r_").unwrap();
        assert_eq!(j.columns(), &["id", "x", "r_id", "y"]);
    }

    #[test]
    fn display() {
        let s = Schema::new(vec!["a", "b"]).unwrap();
        assert_eq!(s.to_string(), "(a, b)");
    }
}
