//! Global labelling of tuples and interval-based distribution.
//!
//! The wHC protocols order the compute nodes (by node id) and label each
//! node's local tuples consecutively, so tuple `j` of node `v` has global
//! index `offset(v) + j`. Every output pair then maps to a point of the
//! `{1..|R|} × {1..|S|}` grid, and "send node `u` the `R`-rows of its
//! square" becomes an interval transfer.

use std::ops::Range;

use tamp_simulator::{PlacementStats, Rel, RoundCtx, SimError, Value};
use tamp_topology::{NodeId, Tree};

/// Global index offsets per node for both relations.
#[derive(Clone, Debug)]
pub(crate) struct Labels {
    r_offset: Vec<u64>,
    s_offset: Vec<u64>,
    /// `|R|`.
    pub total_r: u64,
    /// `|S|`.
    pub total_s: u64,
}

impl Labels {
    /// Label tuples following the node-id order of compute nodes.
    pub fn new(tree: &Tree, stats: &PlacementStats) -> Self {
        let n = tree.num_nodes();
        let mut r_offset = vec![0u64; n];
        let mut s_offset = vec![0u64; n];
        let (mut r_acc, mut s_acc) = (0u64, 0u64);
        for &v in tree.compute_nodes() {
            r_offset[v.index()] = r_acc;
            s_offset[v.index()] = s_acc;
            r_acc += stats.r_v(v);
            s_acc += stats.s_v(v);
        }
        Labels {
            r_offset,
            s_offset,
            total_r: r_acc,
            total_s: s_acc,
        }
    }

    /// Global index range of node `v`'s local tuples in relation `rel`.
    pub fn range(&self, v: NodeId, rel: Rel, stats: &PlacementStats) -> Range<u64> {
        match rel {
            Rel::R => self.r_offset[v.index()]..self.r_offset[v.index()] + stats.r_v(v),
            Rel::S => self.s_offset[v.index()]..self.s_offset[v.index()] + stats.s_v(v),
        }
    }
}

/// Split the local index interval `[local_start, local_start + local_len)`
/// into maximal segments whose recipient set is constant, returning
/// `(recipients, local index sub-range)` pairs. Segments covered by no
/// recipient are omitted.
pub fn interval_segments(
    local_len: usize,
    local_start: u64,
    recipients: &[(NodeId, Range<u64>)],
) -> Vec<(Vec<NodeId>, Range<usize>)> {
    if local_len == 0 {
        return Vec::new();
    }
    let local_end = local_start + local_len as u64;
    // Breakpoints where the recipient set can change.
    let mut cuts: Vec<u64> = vec![local_start, local_end];
    for (_, range) in recipients {
        for b in [range.start, range.end] {
            if b > local_start && b < local_end {
                cuts.push(b);
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = Vec::new();
    for seg in cuts.windows(2) {
        let (a, b) = (seg[0], seg[1]);
        let dsts: Vec<NodeId> = recipients
            .iter()
            .filter(|(_, range)| range.start <= a && b <= range.end)
            .map(|&(v, _)| v)
            .collect();
        if dsts.is_empty() {
            continue;
        }
        out.push((dsts, (a - local_start) as usize..(b - local_start) as usize));
    }
    out
}

/// Send the locally-held tuples of `rel` (with global indices starting at
/// `local_start`) to every recipient whose interval contains them, as
/// segment multicasts: tuples in the same set of recipient intervals share
/// one send, so common path prefixes are charged once.
///
/// With `relay = Some(r)`, each segment is routed `src → r → dsts`
/// (the §4.4 pattern); otherwise directly.
pub(crate) fn distribute_intervals(
    round: &mut RoundCtx<'_, '_>,
    src: NodeId,
    rel: Rel,
    local: &[Value],
    local_start: u64,
    recipients: &[(NodeId, Range<u64>)],
    relay: Option<NodeId>,
) -> Result<(), SimError> {
    for (dsts, idx) in interval_segments(local.len(), local_start, recipients) {
        let slice = &local[idx];
        match relay {
            Some(r) => round.send_via(src, r, &dsts, rel, slice)?,
            None => round.send(src, &dsts, rel, slice)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_simulator::{run_protocol, Placement, Protocol, Session};
    use tamp_topology::builders;

    #[test]
    fn labels_are_consecutive() {
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), vec![10, 11]);
        p.set_r(NodeId(2), vec![12, 13, 14]);
        p.set_s(NodeId(1), vec![20]);
        let stats = p.stats();
        let labels = Labels::new(&t, &stats);
        assert_eq!(labels.range(NodeId(0), Rel::R, &stats), 0..2);
        assert_eq!(labels.range(NodeId(1), Rel::R, &stats), 2..2);
        assert_eq!(labels.range(NodeId(2), Rel::R, &stats), 2..5);
        assert_eq!(labels.range(NodeId(1), Rel::S, &stats), 0..1);
        assert_eq!(labels.total_r, 5);
        assert_eq!(labels.total_s, 1);
    }

    struct Distribute {
        recipients: Vec<(NodeId, Range<u64>)>,
    }

    impl Protocol for Distribute {
        type Output = ();
        fn name(&self) -> String {
            "distribute".into()
        }
        fn run(&self, s: &mut Session<'_>) -> Result<(), SimError> {
            let vals: Vec<Value> = s.state(NodeId(0)).r.clone();
            s.round(|round| {
                distribute_intervals(round, NodeId(0), Rel::R, &vals, 0, &self.recipients, None)
            })
        }
    }

    #[test]
    fn interval_distribution_delivers_and_dedups() {
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), (100..110).collect()); // global indices 0..10
                                                  // Node 1 wants [0, 6), node 2 wants [4, 10): overlap [4, 6).
        let proto = Distribute {
            recipients: vec![(NodeId(1), 0..6), (NodeId(2), 4..10)],
        };
        let run = run_protocol(&t, &p, &proto).unwrap();
        assert_eq!(run.final_state[1].r, (100..106).collect::<Vec<_>>());
        assert_eq!(run.final_state[2].r, (104..110).collect::<Vec<_>>());
        // Uplink 0→hub carries each tuple once: 10, not 12.
        let up = t.dir_edge_between(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(run.cost.edge_total(up), 10);
    }

    #[test]
    fn uncovered_segments_are_skipped() {
        let t = builders::star(2, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), (0..10).collect());
        let proto = Distribute {
            recipients: vec![(NodeId(1), 3..5)],
        };
        let run = run_protocol(&t, &p, &proto).unwrap();
        assert_eq!(run.final_state[1].r, vec![3, 4]);
        assert_eq!(run.cost.total_tuples(), 4); // 2 tuples × 2 hops
    }
}
