//! The one local hash table under `strategies/`: [`KeyTable`], under the
//! aggregates' `group → partial` fold ([`GroupTable`]) and the join build
//! side (`columnar.rs`). Open addressing over a dense entry list: slots
//! hold entry ids, so every `u64` is an ordinary key; a table starts
//! small and grows by *distinct keys*, never by rows. Two contracts make
//! the slot hash a private choice:
//!
//! - **Slot order is unobservable.** Entries are read in first-seen (id)
//!   order or drained in ascending key order, so nothing a strategy emits
//!   — nothing the schedule's content hash covers — depends on it.
//! - **Routing hashes are not table hashes.** Where a row *goes*
//!   (`WeightedHash::pick`, the `mix64` routers) fixes the schedule and
//!   is not decided here; this hash only places keys a node holds.

use crate::plan::AggFunc;

const VACANT: u32 = u32::MAX;

/// `key → (dense id, V)`: ids count distinct keys in first-seen order.
#[derive(Debug)]
pub(crate) struct KeyTable<V> {
    /// Slot → entry id or [`VACANT`]; a power of two, at most half full.
    slots: Vec<u32>,
    /// `(key, value)` pairs in id order.
    entries: Vec<(u64, V)>,
    /// Where the open segment starts: entries before it were sealed and
    /// no slot refers to them.
    sealed: usize,
}

/// One table serves every node of a trace: `fold_groups` seals one
/// segment per node ([`seal_sorted`](KeyTable::seal_sorted)) and fills
/// its output columns from the entry list; the slots are emptied between
/// nodes, never reallocated.
pub(crate) type GroupTable = KeyTable<u64>;

impl<V> KeyTable<V> {
    pub(crate) fn new() -> Self {
        KeyTable {
            slots: vec![VACANT; 16],
            entries: Vec::new(),
            sealed: 0,
        }
    }

    /// Fibonacci multiply-shift on the product's *top* bits, which depend
    /// on every key bit: dense small integers spread almost perfectly and
    /// keys differing only in high bits (zero middle bits) still spread.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let shift = 64 - self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// The slot holding `key`'s id, or the vacant slot where it belongs.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mut slot = self.home(key);
        loop {
            let id = self.slots[slot];
            if id == VACANT || self.entries[id as usize].0 == key {
                return slot;
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
    }

    /// `key`'s value, if it was inserted.
    #[inline]
    pub(super) fn find(&self, key: u64) -> Option<&V> {
        let id = self.slots[self.probe(key)];
        (id != VACANT).then(|| &self.entries[id as usize].1)
    }

    /// `found` updates the value of a key seen before; a new key takes
    /// the next id with `fresh`.
    #[inline]
    pub(super) fn upsert(&mut self, key: u64, fresh: V, found: impl FnOnce(&mut V)) {
        let slot = self.probe(key);
        match self.slots[slot] {
            VACANT => self.insert(slot, key, fresh),
            id => found(&mut self.entries[id as usize].1),
        }
    }

    /// Off the hot path: enter `key` at its vacant `slot`, and at half
    /// load double the slots.
    #[inline(never)]
    fn insert(&mut self, slot: usize, key: u64, fresh: V) {
        assert!(self.entries.len() < VACANT as usize, "key table full");
        self.slots[slot] = self.entries.len() as u32;
        self.entries.push((key, fresh));
        if (self.entries.len() - self.sealed) * 2 > self.slots.len() {
            let doubled = self.slots.len() * 2;
            self.slots.clear();
            self.slots.resize(doubled, VACANT);
            // Distinct keys, so each probe ends on a vacancy.
            for e in self.sealed..self.entries.len() {
                let slot = self.probe(self.entries[e].0);
                self.slots[slot] = e as u32;
            }
        }
    }

    /// The values in id order.
    pub(super) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|e| &mut e.1)
    }

    /// Sort the open segment's entries in ascending key order and seal
    /// them: they stay in the entry list, the slots forget them, and the
    /// next key opens a new segment. Returns the sealed segment's length.
    pub(crate) fn seal_sorted(&mut self) -> usize {
        self.entries[self.sealed..].sort_unstable_by_key(|e| e.0);
        let len = self.entries.len() - self.sealed;
        self.sealed = self.entries.len();
        self.slots.fill(VACANT);
        len
    }

    /// Seal the open segment, hand `f` every segment's entries back to
    /// back, then empty the table, keeping its allocations for the next
    /// node.
    pub(crate) fn drain_sorted<R>(&mut self, f: impl FnOnce(&[(u64, V)]) -> R) -> R {
        self.seal_sorted();
        let out = f(&self.entries);
        self.entries.clear();
        self.sealed = 0;
        out
    }
}

impl GroupTable {
    /// Fold `partial` into `group`'s running partial under `agg`.
    #[inline]
    pub(crate) fn merge(&mut self, agg: AggFunc, group: u64, partial: u64) {
        self.upsert(group, partial, |p| *p = agg.combine(*p, partial));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tamp_core::hashing::mix64;

    /// The slots `find(key)` looks at, the hit or the vacancy included.
    fn probe_steps<V>(table: &KeyTable<V>, key: u64) -> usize {
        let from_home = table.probe(key).wrapping_sub(table.home(key));
        (from_home & (table.slots.len() - 1)) + 1
    }

    /// Ids, values, `find` and reuse after `drain` against a `BTreeMap`,
    /// on key families built to defeat a weak placement — and the property
    /// that makes the placement good, whatever its constant: a handful of
    /// probe steps per operation. (Taking the product's middle bits
    /// instead of its top ones fails this on `i << 48` by five orders of
    /// magnitude; `mix64` would pass it.)
    #[test]
    fn key_table_matches_btreemap_within_four_probe_steps_on_adversarial_keys() {
        const KEYS: u64 = 2_000;
        type Family = (&'static str, fn(u64) -> u64);
        let families: [Family; 7] = [
            ("i", |i| i),
            ("i << 16", |i| i << 16),
            ("i << 32", |i| i << 32),
            ("i << 48", |i| i << 48),
            ("i * 1000", |i| i * 1000),
            ("u64::MAX - i", |i| u64::MAX - i),
            ("mix64(i)", mix64),
        ];
        // One table for every family, like one table for every node.
        let mut table: KeyTable<u64> = KeyTable::new();
        for (name, key) in families {
            let mut oracle: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
            let (mut steps, mut ops) = (0, 0);
            for i in (0..KEYS).chain((0..KEYS).rev().step_by(3)) {
                let k = key(i);
                steps += probe_steps(&table, k);
                ops += 1;
                let next = oracle.len();
                let want = oracle
                    .entry(k)
                    .and_modify(|e| e.1 += i)
                    .or_insert((next, i));
                table.upsert(k, i, |v| *v += i);
                assert_eq!(table.entries[want.0], (k, want.1), "{name}");
            }
            assert_eq!(oracle.len() as u64, KEYS, "{name}: keys are distinct");
            for i in 0..KEYS {
                let (present, absent) = (key(i), key(KEYS + i));
                steps += probe_steps(&table, present) + probe_steps(&table, absent);
                ops += 2;
                assert_eq!(table.find(present), Some(&oracle[&present].1), "{name}");
                assert_eq!(table.find(absent), None, "{name}");
            }
            assert!(steps <= 4 * ops, "{name}: {steps} steps / {ops} ops");
            let mut by_id: Vec<(usize, u64, u64)> =
                oracle.iter().map(|(&k, &(id, v))| (id, k, v)).collect();
            by_id.sort_unstable();
            let want: Vec<(u64, u64)> = by_id.into_iter().map(|(_, k, v)| (k, v)).collect();
            assert_eq!(table.entries, want, "{name}");
            let sorted: Vec<(u64, u64)> = oracle.iter().map(|(&k, &(_, v))| (k, v)).collect();
            assert_eq!(table.drain_sorted(|entries| entries.to_vec()), sorted);
            assert!(table.entries.is_empty());
            assert_eq!(table.find(key(0)), None, "{name}");
        }
        assert_eq!(table.find(0), None);
        assert_eq!(table.find(u64::MAX), None);
    }

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

    /// A join build side over 100,000 rows of 8 keys used to take 262,144
    /// slots; the table is sized by what it holds.
    #[test]
    fn slots_grow_with_distinct_keys_not_rows() {
        let mut table = KeyTable::new();
        for row in 0..100_000u64 {
            table.upsert(row % 8, 1u32, |n| *n += 1);
        }
        assert!(table.slots.len() <= 32, "{}", table.slots.len());
        let want: Vec<(u64, u32)> = (0..8).map(|k| (k, 12_500)).collect();
        assert_eq!(table.entries, want);
    }

    #[test]
    fn sealed_segments_drain_back_to_back_each_sorted() {
        let mut table = GroupTable::new();
        // Key 7 in both segments: the second must not see the first's.
        for (g, m) in [(7, 1), (3, 2), (7, 4)] {
            table.merge(AggFunc::Sum, g, m);
        }
        assert_eq!(table.seal_sorted(), 2);
        assert_eq!(table.seal_sorted(), 0);
        for g in (0..40).rev() {
            table.merge(AggFunc::Sum, g % 20 + 5, 1);
        }
        assert_eq!(table.seal_sorted(), 20);
        let mut want = vec![(3, 2), (7, 5)];
        want.extend((5..25).map(|g| (g, 2)));
        assert_eq!(table.drain_sorted(|s| s.to_vec()), want);
        assert_eq!((table.entries.len(), table.sealed), (0, 0));
    }

    #[test]
    fn empty_input_drains_empty() {
        let mut table = GroupTable::new();
        assert!(table.drain_sorted(|s| s.is_empty()));
        check(&mut table, AggFunc::Min, &[]);
    }
}
