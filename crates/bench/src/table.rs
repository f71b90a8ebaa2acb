//! Minimal aligned-column text tables for experiment output.

use std::fmt;

/// How the baseline (`crate::baseline`) treats a column's cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pin {
    /// Pinned by exact text (every column starts here).
    Exact,
    /// A count that may fall but not rise above its pinned value.
    Ceiling,
    /// Printed, never pinned: the cell reads a clock or depends on
    /// thread timing.
    Unpinned,
}

/// A text table: headers plus rows, rendered with aligned columns.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    pins: Vec<Pin>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, headers: &[impl AsRef<str>]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.as_ref().to_string()).collect(),
            pins: vec![Pin::Exact; headers.len()],
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Declare `columns` unpinned (see [`Pin::Unpinned`]). Panics if the
    /// table has no such column.
    pub(crate) fn unpinned(self, columns: &[&str]) -> Self {
        self.pin(columns, Pin::Unpinned)
    }

    /// Declare `columns` ceilings (see [`Pin::Ceiling`]). Panics if the
    /// table has no such column.
    pub(crate) fn ceilings(self, columns: &[&str]) -> Self {
        self.pin(columns, Pin::Ceiling)
    }

    fn pin(mut self, columns: &[&str], pin: Pin) -> Self {
        for c in columns {
            let i = self.headers.iter().position(|h| h == c);
            let i = i.unwrap_or_else(|| panic!("table `{}` has no column `{c}`", self.title));
            self.pins[i] = pin;
        }
        self
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a free-text note rendered under the table.
    pub(crate) fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Access a cell (row, column) for assertions in tests.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub(crate) fn headers(&self) -> &[String] {
        &self.headers
    }

    /// How the baseline treats each column, in header order.
    pub(crate) fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "\n== {} ==", self.title)?;
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            writeln!(f, "  {}", line.join("  "))
        };
        render(f, &self.headers)?;
        let total = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "  {}", "-".repeat(total))?;
        for row in &self.rows {
            render(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// Format a float compactly for table cells.
pub(crate) fn fnum(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-header"));
        assert!(s.contains("note: hello"));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.cell(1, 0), "100");
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(3.141_51), "3.142");
        assert_eq!(fnum(42.42), "42.4");
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(f64::INFINITY), "inf");
    }

    #[test]
    #[should_panic(expected = "table `x` has no column `wall_ms`")]
    fn pinning_a_missing_column_panics() {
        let _ = Table::new("x", &["a", "b"]).unpinned(&["wall_ms"]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_bad_arity() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
