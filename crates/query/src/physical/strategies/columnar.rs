//! Exchange kernels shared by the built-in strategies.
//!
//! Routing scans columns, movement is index gathers over shared column
//! buffers, and replication is a refcount bump per column. The exchanges
//! all keep one order: per destination, chunks arrive in source order
//! with rows in the source's scan order, and the chunk a source keeps for
//! itself sits at that source's own position. Sends leave in the same
//! source-then-destination order, which the schedule's content hash —
//! the checkpoint token — covers.

use tamp_core::hashing::mix64;
use tamp_simulator::{Rel, Value};
use tamp_topology::{NodeId, Tree};

use crate::batch::{
    batch_rows, flatten_batches, flatten_multi, gather_multi, BatchFragments, RecordBatch,
};
use crate::physical::strategy::TraceBuilder;
use crate::plan::AggFunc;

use super::group_table::GroupTable;

/// Empty batch fragments for `tree`.
pub(crate) fn empty_batch_frags(tree: &Tree) -> BatchFragments {
    vec![Vec::new(); tree.num_nodes()]
}

/// Current per-node row counts, as weights for distribution-aware
/// hashing.
pub(crate) fn batch_frag_weights(
    tree: &Tree,
    frags: &BatchFragments,
    extra: &BatchFragments,
) -> Vec<(NodeId, u64)> {
    tree.compute_nodes()
        .iter()
        .map(|&v| {
            (
                v,
                (batch_rows(&frags[v.index()]) + batch_rows(&extra[v.index()])) as u64,
            )
        })
        .collect()
}

/// The nodes holding rows of `frags` — broadcast destinations.
pub(crate) fn batch_holders_of(tree: &Tree, frags: &BatchFragments) -> Vec<NodeId> {
    tree.compute_nodes()
        .iter()
        .copied()
        .filter(|&v| batch_rows(&frags[v.index()]) > 0)
        .collect()
}

/// One-round exchange of batch fragments among destination *slots*.
///
/// Each source, in `sources` order, splits its rows by slot — `route`
/// appends one slot per row of the batch it is shown — and slot `s`
/// delivers to node `slots[s]`. A source serves its slots in ascending
/// order: one gather per slot, plus one (chunked) send unless the slot is
/// the source itself — whatever a slot stands for: the destination node
/// for the hash shuffles, the splitter bucket for the range shuffle.
pub(crate) fn exchange_batches(
    trace: &mut TraceBuilder,
    frags: &BatchFragments,
    width: usize,
    rel: Rel,
    sources: &[NodeId],
    slots: &[NodeId],
    route: &mut dyn FnMut(&RecordBatch, &mut Vec<u32>),
) -> BatchFragments {
    let mut new_frags: BatchFragments = vec![Vec::new(); frags.len()];
    let mut outgoing: Vec<(NodeId, NodeId, Vec<Value>)> = Vec::new();
    // Scratch reused across sources and batches.
    let mut picks: Vec<Vec<(u32, u32)>> = vec![Vec::new(); slots.len()];
    let mut touched: Vec<usize> = Vec::new();
    let mut row_slots: Vec<u32> = Vec::new();
    for &v in sources {
        let batches = &frags[v.index()];
        for (bi, b) in batches.iter().enumerate() {
            row_slots.clear();
            route(b, &mut row_slots);
            debug_assert_eq!(row_slots.len(), b.num_rows());
            for (ri, &slot) in row_slots.iter().enumerate() {
                let pick = &mut picks[slot as usize];
                if pick.is_empty() {
                    touched.push(slot as usize);
                }
                pick.push((bi as u32, ri as u32));
            }
        }
        touched.sort_unstable();
        for &slot in &touched {
            let pick = &mut picks[slot];
            let dst = slots[slot];
            if dst != v {
                outgoing.push((v, dst, flatten_multi(batches, pick, width)));
            }
            new_frags[dst.index()].push(gather_multi(batches, pick, width));
            pick.clear();
        }
        touched.clear();
    }
    trace.round(|round| {
        for (src, dst, payload) in outgoing {
            round.send_rows(src, &[dst], rel, payload, width);
        }
    });
    new_frags
}

/// One-round repartition of batch fragments by a key router: one key-column
/// scan and one gather per destination, one (chunked) send per `(src,
/// dst)` pair, destinations in ascending node order.
pub(crate) fn shuffle_batches_by_key(
    trace: &mut TraceBuilder,
    tree: &Tree,
    frags: &BatchFragments,
    key_idx: usize,
    width: usize,
    rel: Rel,
    router: &dyn Fn(u64) -> NodeId,
) -> BatchFragments {
    let by_index: Vec<NodeId> = tree.nodes().collect();
    exchange_batches(
        trace,
        frags,
        width,
        rel,
        tree.compute_nodes(),
        &by_index,
        &mut |b, out| out.extend(b.col(key_idx).iter().map(|&key| router(key).index() as u32)),
    )
}

/// One-round replication of `small_frags` to every holder: the multicast
/// payload flattens once per source, and the replicated fragments are
/// refcount bumps on the source columns — no row copies at all.
pub(crate) fn broadcast_small_batches(
    trace: &mut TraceBuilder,
    tree: &Tree,
    small_frags: &BatchFragments,
    small_w: usize,
    holders: &[NodeId],
) -> BatchFragments {
    trace.round(|round| {
        for &v in tree.compute_nodes() {
            let local = &small_frags[v.index()];
            if batch_rows(local) == 0 || holders.is_empty() {
                continue;
            }
            round.send_rows(v, holders, Rel::R, flatten_batches(local, small_w), small_w);
        }
    });
    let mut small_new = empty_batch_frags(tree);
    for &h in holders {
        for frag in small_frags.iter() {
            small_new[h.index()].extend(frag.iter().cloned());
        }
    }
    small_new
}

/// A join build side: an open-addressing multimap from join key to the
/// `(batch, row)` locations holding it, in scan order per key. The join
/// output depends only on key → location list, probed in left order, so
/// nothing downstream sees the table's slot order.
///
/// The lists are CSR — one offsets array over one flat location array,
/// filled by a counting pass — so a build is a fixed handful of
/// allocations however many distinct keys there are.
struct JoinBuild {
    mask: usize,
    slot_key: Vec<u64>,
    /// Slot → dense key id, or [`EMPTY`].
    slot_id: Vec<u32>,
    /// Key id `k`'s locations are `locs[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    locs: Vec<(u32, u32)>,
}

const EMPTY: u32 = u32::MAX;

impl JoinBuild {
    fn new(batches: &[RecordBatch], key_idx: usize) -> Self {
        let rows = batch_rows(batches);
        let cap = (rows * 2).next_power_of_two().max(8);
        let mask = cap - 1;
        let mut slot_key = vec![0u64; cap];
        let mut slot_id = vec![EMPTY; cap];
        // Pass 1: give each distinct key a dense id, remember each row's
        // id, and count rows per id (shifted by one for the prefix sum).
        let mut row_id: Vec<u32> = Vec::with_capacity(rows);
        let mut offsets: Vec<u32> = vec![0];
        for b in batches {
            for &key in b.col(key_idx) {
                let mut slot = mix64(key) as usize & mask;
                let id = loop {
                    match slot_id[slot] {
                        EMPTY => {
                            let id = (offsets.len() - 1) as u32;
                            slot_key[slot] = key;
                            slot_id[slot] = id;
                            offsets.push(0);
                            break id;
                        }
                        id if slot_key[slot] == key => break id,
                        _ => slot = (slot + 1) & mask,
                    }
                };
                offsets[id as usize + 1] += 1;
                row_id.push(id);
            }
        }
        for k in 1..offsets.len() {
            offsets[k] += offsets[k - 1];
        }
        // Pass 2: drop each row's location at its id's cursor — scan
        // order within a key is preserved.
        let mut cursor = offsets.clone();
        let mut locs = vec![(0u32, 0u32); rows];
        let mut scanned = 0;
        for (bi, b) in batches.iter().enumerate() {
            for ri in 0..b.num_rows() {
                let id = row_id[scanned] as usize;
                scanned += 1;
                locs[cursor[id] as usize] = (bi as u32, ri as u32);
                cursor[id] += 1;
            }
        }
        JoinBuild {
            mask,
            slot_key,
            slot_id,
            offsets,
            locs,
        }
    }

    fn get(&self, key: u64) -> &[(u32, u32)] {
        let mut slot = mix64(key) as usize & self.mask;
        loop {
            match self.slot_id[slot] {
                EMPTY => return &[],
                id if self.slot_key[slot] == key => {
                    let id = id as usize;
                    return &self.locs[self.offsets[id] as usize..self.offsets[id + 1] as usize];
                }
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }
}

/// Local probe join of co-located batch fragments: build on the right,
/// probe in left order, emit one output batch per node as column gathers
/// — `left ++ right` rows, left scan order outermost, each left row's
/// matches in right scan order.
///
/// `right_replicated` says every non-empty `r_new[v]` is the same batch
/// list (a broadcast right side): the build then happens once and every
/// node probes the shared table.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_join_batches(
    tree: &Tree,
    l_new: &BatchFragments,
    r_new: &BatchFragments,
    li: usize,
    ri: usize,
    lw: usize,
    rw: usize,
    right_replicated: bool,
) -> BatchFragments {
    let mut out = empty_batch_frags(tree);
    let mut shared: Option<JoinBuild> = None;
    for &v in tree.compute_nodes() {
        let rbatches = &r_new[v.index()];
        let lbatches = &l_new[v.index()];
        if batch_rows(rbatches) == 0 || batch_rows(lbatches) == 0 {
            continue;
        }
        if !right_replicated {
            shared = None;
        }
        let build = shared.get_or_insert_with(|| JoinBuild::new(rbatches, ri));
        // Probe in left scan order.
        let mut l_picks: Vec<(u32, u32)> = Vec::new();
        let mut r_picks: Vec<(u32, u32)> = Vec::new();
        for (bi, b) in lbatches.iter().enumerate() {
            for (lr, &key) in b.col(li).iter().enumerate() {
                for &loc in build.get(key) {
                    l_picks.push((bi as u32, lr as u32));
                    r_picks.push(loc);
                }
            }
        }
        if l_picks.is_empty() {
            continue;
        }
        let left_part = gather_multi(lbatches, &l_picks, lw);
        let right_part = gather_multi(rbatches, &r_picks, rw);
        let mut cols = Vec::with_capacity(lw + rw);
        for c in 0..lw {
            cols.push(left_part.col_arc(c).clone());
        }
        for c in 0..rw {
            cols.push(right_part.col_arc(c).clone());
        }
        out[v.index()].push(RecordBatch::from_cols_rows(cols, l_picks.len()));
    }
    out
}

/// Fold the `(group, measure)` column pairs of `batches` into one
/// width-2 batch of `(group, partial)` rows in ascending group order, or
/// `None` when there are no rows.
/// `lift` tells raw measures (local pre-aggregation) from partials that
/// were lifted already (merging shipped partials).
pub(crate) fn fold_groups(
    table: &mut GroupTable,
    batches: &[RecordBatch],
    group: usize,
    measure: usize,
    agg: AggFunc,
    lift: bool,
) -> Option<RecordBatch> {
    for b in batches {
        let pairs = b.col(group).iter().zip(b.col(measure));
        if lift {
            pairs.for_each(|(&g, &m)| table.merge(agg, g, agg.lift(m)));
        } else {
            pairs.for_each(|(&g, &m)| table.merge(agg, g, m));
        }
    }
    table.drain_sorted(|sorted| {
        (!sorted.is_empty()).then(|| {
            RecordBatch::from_cols(vec![
                sorted.iter().map(|e| e.0).collect(),
                sorted.iter().map(|e| e.1).collect(),
            ])
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::rows_to_batches;
    use crate::row::Row;

    #[test]
    fn join_build_lists_each_keys_locations_in_scan_order() {
        let rows: Vec<Row> = [5, 0, 5, u64::MAX, 0, 5, 9]
            .into_iter()
            .zip(100..)
            .map(|(k, payload)| vec![payload, k])
            .collect();
        let batches = rows_to_batches(&rows, 2, 3);
        let build = JoinBuild::new(&batches, 1);
        assert_eq!(build.get(5), [(0, 0), (0, 2), (1, 2)]);
        assert_eq!(build.get(0), [(0, 1), (1, 1)]);
        assert_eq!(build.get(u64::MAX), [(1, 0)]);
        assert_eq!(build.get(9), [(2, 0)]);
        assert!(build.get(7).is_empty());
        assert!(JoinBuild::new(&[], 0).get(0).is_empty());
    }
}
