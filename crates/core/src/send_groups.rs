//! Sort-based send grouping, shared by every protocol that routes each
//! tuple by a hash of its value.
//!
//! A node that hashes its tuples to destinations sends one message per
//! distinct destination set, so that shared path segments are charged
//! once. [`SendGroups`] batches a node's `(value, destinations)` pairs in
//! flat scratch buffers and emits the groups by sorting: ascending by
//! destination vector, values in the order they were pushed. Nothing is
//! allocated per tuple or per group once the buffers have grown, and —
//! unlike grouping in a `HashMap` — the emission order is a function of
//! the input alone, so a protocol's send order (hence every node's
//! arrival order) is the same on every run.

use tamp_simulator::{SimError, Value};
use tamp_topology::NodeId;

/// Node ids below this pack into one 21-bit field of a [`packed`] key.
const PACK_LIMIT: u32 = (1 << 21) - 1;

/// A sort key whose numeric order is the lexicographic order of the
/// destination vectors: `(d₀+1)<<42 | (d₁+1)<<21 | (d₂+1)`, 0 for an
/// absent slot, so a prefix sorts first. `u64::MAX` (above every packed
/// key) marks a vector of more than three nodes or an id of at least
/// [`PACK_LIMIT`], which only the slice comparator can order.
fn packed(dsts: &[NodeId]) -> u64 {
    if dsts.len() > 3 || dsts.iter().any(|d| d.0 >= PACK_LIMIT) {
        return u64::MAX;
    }
    (0..3).fold(0, |key, i| {
        key << 21 | dsts.get(i).map_or(0, |d| u64::from(d.0) + 1)
    })
}

/// Scratch for grouping one node's sends; reuse it across nodes.
#[derive(Default)]
pub(crate) struct SendGroups {
    /// Destination vectors of the pushed values, concatenated; each is
    /// sorted and duplicate-free.
    dsts: Vec<NodeId>,
    /// Per pushed value: its destination vector's [`packed`] key, its run
    /// `start..end` of `dsts`, and the value.
    entries: Vec<(u64, u32, u32, Value)>,
    /// The values in emission order (rebuilt by [`SendGroups::drain`]).
    vals: Vec<Value>,
}

impl SendGroups {
    /// Queue `value` for the destination *set* `dsts` (order and
    /// repetitions are ignored; an empty set queues nothing).
    pub(crate) fn push(&mut self, value: Value, dsts: impl IntoIterator<Item = NodeId>) {
        let start = self.dsts.len();
        self.dsts.extend(dsts);
        self.dsts[start..].sort_unstable();
        let mut end = start;
        for i in start..self.dsts.len() {
            if end == start || self.dsts[i] != self.dsts[end - 1] {
                self.dsts[end] = self.dsts[i];
                end += 1;
            }
        }
        self.dsts.truncate(end);
        if end > start {
            let key = packed(&self.dsts[start..]);
            self.entries.push((key, start as u32, end as u32, value));
        }
    }

    /// Hand each group to `emit` as `(destinations, values)` — groups in
    /// ascending destination-vector order, values in push order — and
    /// leave the scratch empty.
    pub(crate) fn drain(
        &mut self,
        mut emit: impl FnMut(&[NodeId], &[Value]) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let dsts = &self.dsts;
        let key = |e: &(u64, u32, u32, Value)| &dsts[e.1 as usize..e.2 as usize];
        // `start` grows with every push, so it breaks ties in push order
        // and an unstable (allocation-free) sort is deterministic. Packed
        // keys order as their vectors, so they sort as integers unless a
        // vector did not pack.
        if self.entries.iter().all(|e| e.0 != u64::MAX) {
            self.entries.sort_unstable_by_key(|e| (e.0, e.1));
        } else {
            self.entries
                .sort_unstable_by(|a, b| key(a).cmp(key(b)).then(a.1.cmp(&b.1)));
        }
        self.vals.clear();
        self.vals.extend(self.entries.iter().map(|e| e.3));
        let mut start = 0;
        let result = self
            .entries
            .chunk_by(|a, b| key(a) == key(b))
            .try_for_each(|group| {
                let vals = &self.vals[start..start + group.len()];
                start += group.len();
                emit(key(&group[0]), vals)
            });
        self.dsts.clear();
        self.entries.clear();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(groups: &mut SendGroups) -> Vec<(Vec<u32>, Vec<Value>)> {
        let mut out = Vec::new();
        groups
            .drain(|dsts, vals| {
                out.push((dsts.iter().map(|d| d.0).collect(), vals.to_vec()));
                Ok(())
            })
            .unwrap();
        out
    }

    #[test]
    fn groups_ascend_and_values_keep_push_order() {
        let mut g = SendGroups::default();
        g.push(10, [NodeId(3)]);
        g.push(11, [NodeId(1), NodeId(2)]);
        g.push(12, [NodeId(3), NodeId(3)]); // repetition collapses
        g.push(13, [NodeId(2), NodeId(1)]); // order is ignored
        g.push(14, []); // no destination: dropped
        g.push(15, [NodeId(1)]);
        assert_eq!(
            drained(&mut g),
            vec![
                (vec![1], vec![15]),
                (vec![1, 2], vec![11, 13]),
                (vec![3], vec![10, 12]),
            ]
        );
        // Drained scratch is empty and reusable.
        assert!(drained(&mut g).is_empty());
        g.push(1, [NodeId(0)]);
        assert_eq!(drained(&mut g), vec![(vec![0], vec![1])]);
    }

    /// Random pushes of 0–5 destinations, drained against the slice
    /// order: up to three small ids (every key packs), up to five (the
    /// longer vectors do not), and ids up to and past the packing limit.
    #[test]
    fn packed_keys_drain_in_the_slice_order() {
        use std::collections::BTreeMap;

        let edge = [
            PACK_LIMIT - 2,
            PACK_LIMIT - 1,
            PACK_LIMIT,
            PACK_LIMIT + 1,
            u32::MAX,
        ];
        let mut g = SendGroups::default();
        for seed in 0..80u64 {
            let rnd = |x: u64| crate::hashing::mix64(seed << 32 ^ x);
            let (most, edges) = [(3, false), (5, false), (5, true), (3, true)][seed as usize % 4];
            let pick = |x: u64| match rnd(x) % 9 {
                k if edges && k < 5 => edge[k as usize],
                k => k as u32,
            };
            let mut want: BTreeMap<Vec<u32>, Vec<Value>> = BTreeMap::new();
            for i in 0..200u64 {
                let mut dsts: Vec<u32> =
                    (0..rnd(i) % (most + 1)).map(|j| pick(i << 3 | j)).collect();
                g.push(i, dsts.iter().map(|&d| NodeId(d)));
                dsts.sort_unstable();
                dsts.dedup();
                if !dsts.is_empty() {
                    want.entry(dsts).or_default().push(i);
                }
            }
            let all_pack = g.entries.iter().all(|e| e.0 != u64::MAX);
            assert_eq!(all_pack, seed % 4 == 0, "seed {seed}");
            let want: Vec<_> = want.into_iter().collect();
            assert_eq!(drained(&mut g), want, "seed {seed}");
        }
        let keys = [&[][..], &[0, 5], &[0, 5, 7], &[1], &[PACK_LIMIT - 2; 3][..]]
            .map(|d| packed(&d.iter().map(|&d| NodeId(d)).collect::<Vec<_>>()));
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert_eq!(packed(&[NodeId(PACK_LIMIT)]), u64::MAX);
        assert_eq!(packed(&[NodeId(0); 4]), u64::MAX);
    }

    #[test]
    fn an_emit_error_stops_the_drain_and_still_empties_the_scratch() {
        let mut g = SendGroups::default();
        g.push(1, [NodeId(0)]);
        g.push(2, [NodeId(1)]);
        let mut seen = 0;
        let err = g.drain(|_, _| {
            seen += 1;
            Err(SimError::Protocol("stop".into()))
        });
        assert!(err.is_err());
        assert_eq!(seen, 1);
        assert!(drained(&mut g).is_empty());
    }
}
