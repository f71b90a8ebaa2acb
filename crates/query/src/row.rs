//! Rows: a view of the data, built on demand.
//!
//! A row is a fixed-width vector of `u64` values. Tables are built from
//! rows and a [`QueryResult`](crate::exec::QueryResult) builds rows when
//! asked, but nothing in between holds one: tables store, exchanges ship
//! and results keep columns ([`crate::batch`]). The simulator transports
//! single `u64` elements, so a shipped row of width `w` costs `w`
//! transported tuples, which keeps the metered cost proportional to the
//! actual bytes a real system would move.

use tamp_simulator::Value;

/// A row: one `u64` per column.
pub type Row = Vec<Value>;

/// Sort rows lexicographically — the canonical order used when comparing
/// result sets.
pub fn canonicalize(rows: &mut [Row]) {
    rows.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order() {
        let mut rows = vec![vec![2, 1], vec![1, 9], vec![1, 2]];
        canonicalize(&mut rows);
        assert_eq!(rows, vec![vec![1, 2], vec![1, 9], vec![2, 1]]);
    }
}
