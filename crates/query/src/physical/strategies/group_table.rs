//! The aggregate strategies' `group → partial` table.
//!
//! Open addressing over a dense entry list: the slot array holds entry
//! indices, so vacancy is a slot marker and every `u64` — `0` and
//! `u64::MAX` included — is an ordinary group. One table serves every
//! node of a trace: it is emptied between nodes, never reallocated, and
//! starts small, so a query with a handful of rows per node does not pay
//! for a large one.
//!
//! Groups leave the table in ascending key order only
//! ([`GroupTable::drain_sorted`]), so nothing a strategy emits — and so
//! nothing the schedule's content hash covers — depends on slot order.

use tamp_core::hashing::mix64;

use crate::plan::AggFunc;

const VACANT: u32 = u32::MAX;
const MIN_SLOTS: usize = 16;

#[derive(Debug)]
pub(crate) struct GroupTable {
    /// Slot → index into `entries`, or [`VACANT`]. A power of two long,
    /// at most half full.
    slots: Vec<u32>,
    /// `(group, partial)` pairs in first-seen order.
    entries: Vec<(u64, u64)>,
}

impl GroupTable {
    pub fn new() -> Self {
        GroupTable {
            slots: vec![VACANT; MIN_SLOTS],
            entries: Vec::new(),
        }
    }

    /// Fold `partial` into `group`'s running partial under `agg`.
    #[inline]
    pub fn merge(&mut self, agg: AggFunc, group: u64, partial: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = mix64(group) as usize & mask;
        loop {
            let e = self.slots[slot];
            if e == VACANT {
                break;
            }
            let entry = &mut self.entries[e as usize];
            if entry.0 == group {
                entry.1 = agg.combine(entry.1, partial);
                return;
            }
            slot = (slot + 1) & mask;
        }
        assert!(self.entries.len() < VACANT as usize, "group table full");
        self.slots[slot] = self.entries.len() as u32;
        self.entries.push((group, partial));
        if self.entries.len() * 2 > self.slots.len() {
            self.grow();
        }
    }

    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        self.slots.clear();
        self.slots.resize(mask + 1, VACANT);
        for (e, &(group, _)) in self.entries.iter().enumerate() {
            let mut slot = mix64(group) as usize & mask;
            while self.slots[slot] != VACANT {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = e as u32;
        }
    }

    /// Hand `f` the `(group, partial)` pairs in ascending group order,
    /// then empty the table (keeping its allocations) for the next node.
    pub fn drain_sorted<R>(&mut self, f: impl FnOnce(&[(u64, u64)]) -> R) -> R {
        self.entries.sort_unstable_by_key(|e| e.0);
        let out = f(&self.entries);
        self.entries.clear();
        self.slots.fill(VACANT);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Feed `rows` to a table and to a `BTreeMap` oracle, and compare the
    /// drains.
    fn check(table: &mut GroupTable, agg: AggFunc, rows: &[(u64, u64)]) {
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for &(g, m) in rows {
            let lifted = agg.lift(m);
            table.merge(agg, g, lifted);
            oracle
                .entry(g)
                .and_modify(|p| *p = agg.combine(*p, lifted))
                .or_insert(lifted);
        }
        let want: Vec<(u64, u64)> = oracle.into_iter().collect();
        let got = table.drain_sorted(|sorted| sorted.to_vec());
        assert_eq!(got, want, "{agg:?}");
    }

    const ALL: [AggFunc; 4] = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max];

    #[test]
    fn matches_btreemap_for_every_function_and_extreme_keys() {
        let rows: Vec<(u64, u64)> = (0..500u64)
            .map(|i| {
                let g = match i % 5 {
                    0 => 0,
                    1 => u64::MAX,
                    2 => u64::MAX - 1,
                    _ => mix64(i) % 7,
                };
                (g, mix64(i ^ 0xABCD) % 1000)
            })
            .collect();
        let mut table = GroupTable::new();
        for agg in ALL {
            check(&mut table, agg, &rows);
        }
    }

    #[test]
    fn sum_saturates_like_the_row_path() {
        let rows = [
            (3, u64::MAX - 1),
            (3, 5),
            (3, 7),
            (u64::MAX, u64::MAX),
            (0, 1),
        ];
        let mut table = GroupTable::new();
        check(&mut table, AggFunc::Sum, &rows);
        table.merge(AggFunc::Sum, 3, u64::MAX);
        table.merge(AggFunc::Sum, 3, u64::MAX);
        assert_eq!(table.drain_sorted(|s| s.to_vec()), vec![(3, u64::MAX)]);
    }

    #[test]
    fn grows_past_initial_capacity_and_is_reusable_across_nodes() {
        let mut table = GroupTable::new();
        // "Node" sizes straddle the initial capacity in both directions:
        // a big node grows the table, the small ones after it must not
        // see any of its groups.
        for (node, n) in [3u64, 5_000, 0, 17, 1, 40_000, 8].into_iter().enumerate() {
            let rows: Vec<(u64, u64)> = (0..n)
                .map(|i| (mix64(i ^ node as u64) % (n / 2 + 1), i))
                .collect();
            for agg in ALL {
                check(&mut table, agg, &rows);
            }
        }
    }

    #[test]
    fn empty_input_drains_empty() {
        let mut table = GroupTable::new();
        assert!(table.drain_sorted(|s| s.is_empty()));
        check(&mut table, AggFunc::Min, &[]);
    }
}
