//! Messages exchanged between node programs.

use std::ops::Range;
use std::sync::Arc;

use tamp_simulator::{Rel, Value};
use tamp_topology::NodeId;

/// A delivered message: who sent it, which relation it belongs to, and the
/// payload. Values are also appended to the receiving node's
/// [`NodeState`](tamp_simulator::NodeState) before the program's round
/// callback runs, so the envelope is informational (e.g. for protocols
/// that care about provenance).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// The sending compute node.
    pub src: NodeId,
    /// Which relation fragment the payload extends.
    pub rel: Rel,
    /// The payload values, in send order. Shared (`Arc`) so a multicast
    /// to thousands of destinations costs one allocation, not one per
    /// destination.
    pub values: Arc<[Value]>,
}

/// A program's vote at the end of a superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Keep running.
    Continue,
    /// Vote to halt. The run terminates at the first superstep in which
    /// every node votes halt *and* no messages were sent.
    Halt,
}

/// One outgoing multicast: `values` are delivered to every node in `dsts`,
/// charged along the union of the tree paths (exactly like
/// [`RoundCtx::send`](tamp_simulator::RoundCtx::send)).
#[derive(Clone, Debug)]
pub(crate) struct OutMsg {
    /// The destinations: a range into the owning [`Outbox`]'s `dsts`.
    pub dsts: Range<usize>,
    pub rel: Rel,
    /// Shared payload: queued once, delivered to every destination's
    /// envelope as an `Arc` clone — the zero-copy fabric end to end.
    pub values: Arc<[Value]>,
}

/// Collects a node's outgoing messages during one superstep. The cluster
/// keeps one per node and clears it before each superstep, so the send
/// list and the one destination arena keep their capacity.
#[derive(Clone, Debug, Default)]
pub struct Outbox {
    pub(crate) sends: Vec<OutMsg>,
    /// Every send's destinations, back to back.
    pub(crate) dsts: Vec<NodeId>,
}

impl Outbox {
    /// Multicast `values` of relation `rel` to `dsts`. Empty payloads and
    /// empty destination sets are no-ops, mirroring the simulator.
    ///
    /// Accepts anything convertible into a shared `Arc<[Value]>` payload:
    /// a `Vec<Value>` moves its allocation in; an `Arc<[Value]>` (e.g. a
    /// replayed trace payload) is queued without copying at all.
    pub fn send(&mut self, dsts: &[NodeId], rel: Rel, values: impl Into<Arc<[Value]>>) {
        let values = values.into();
        if values.is_empty() || dsts.is_empty() {
            return;
        }
        let start = self.dsts.len();
        self.dsts.extend_from_slice(dsts);
        self.sends.push(OutMsg {
            dsts: start..self.dsts.len(),
            rel,
            values,
        });
    }

    /// Unicast convenience wrapper.
    pub fn send_to(&mut self, dst: NodeId, rel: Rel, values: impl Into<Arc<[Value]>>) {
        self.send(&[dst], rel, values);
    }

    /// Number of queued sends.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// `true` if no sends are queued.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }

    /// Drop every queued send, keeping both buffers' capacity.
    pub(crate) fn clear(&mut self) {
        self.sends.clear();
        self.dsts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sends_are_dropped() {
        let mut out = Outbox::default();
        out.send(&[NodeId(1)], Rel::R, vec![]);
        out.send(&[], Rel::R, vec![1, 2]);
        assert!(out.is_empty());
        out.send_to(NodeId(1), Rel::S, vec![3]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn destinations_share_one_arena_that_clear_keeps() {
        let mut out = Outbox::default();
        out.send(&[NodeId(1), NodeId(2)], Rel::R, vec![1]);
        out.send_to(NodeId(3), Rel::S, vec![2]);
        let dsts: Vec<&[NodeId]> = out
            .sends
            .iter()
            .map(|m| &out.dsts[m.dsts.clone()])
            .collect();
        assert_eq!(dsts, [&[NodeId(1), NodeId(2)][..], &[NodeId(3)]]);
        let capacity = out.dsts.capacity();
        out.clear();
        assert!(out.is_empty() && out.dsts.is_empty());
        assert_eq!(out.dsts.capacity(), capacity);
    }
}
