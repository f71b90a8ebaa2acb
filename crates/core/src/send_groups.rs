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

/// Scratch for grouping one node's sends; reuse it across nodes.
#[derive(Default)]
pub(crate) struct SendGroups {
    /// Destination vectors of the pushed values, concatenated; each is
    /// sorted and duplicate-free.
    dsts: Vec<NodeId>,
    /// Per pushed value: its run `start..end` of `dsts`, and the value.
    entries: Vec<(u32, u32, Value)>,
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
            self.entries.push((start as u32, end as u32, value));
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
        let key = |e: &(u32, u32, Value)| &dsts[e.0 as usize..e.1 as usize];
        // `start` grows with every push, so it breaks ties in push order
        // and an unstable (allocation-free) sort is deterministic.
        self.entries
            .sort_unstable_by(|a, b| key(a).cmp(key(b)).then(a.0.cmp(&b.0)));
        self.vals.clear();
        self.vals.extend(self.entries.iter().map(|e| e.2));
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
