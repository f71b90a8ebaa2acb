//! Cartesian-product strategies.
//!
//! - [`RectCross::whc`] — the §4 weighted-HyperCube idea generalized to
//!   `|L| ≠ |R|` via the Appendix A.1 rectangle packing
//!   (`tamp_core::cartesian::unequal::plan_unequal`): rows and columns of
//!   the `|L| × |R|` output grid are globally labelled, every node is
//!   assigned rectangles sized to its link bandwidth, and each node
//!   receives exactly the `L`-row and `R`-row intervals its rectangles
//!   span (one round, interval multicasts);
//! - [`BroadcastSmallCross`] — replicate the smaller side (by values) to
//!   every node holding rows of the larger side;
//! - [`RectCross::hypercube`] — the classic HyperCube/shares baseline: a
//!   near-square `p₁ × p₂` node grid with uniform row/column bands,
//!   blind to bandwidths and placement.
//!
//! Lower bound: Theorems 3 + 4
//! ([`tamp_core::cartesian::cartesian_lower_bound`]) on the estimated
//! placement.

use std::ops::Range;

use tamp_core::cartesian::cartesian_lower_bound;
use tamp_core::cartesian::grid::interval_segments;
use tamp_core::cartesian::unequal::{plan_unequal, Rect};
use tamp_core::ratio::LowerBound;
use tamp_simulator::{Rel, SharedSlice};
use tamp_topology::{DirEdgeId, NodeId, Tree};

use crate::batch::{batch_rows, concat, flatten_batches, new_columns, BatchFragments, RecordBatch};
use crate::error::QueryError;
use crate::physical::strategy::{
    CostEstimate, ExecArgs, OpInput, OpParams, OpTrace, OperatorKind, PhysicalStrategy, PlanArgs,
    PlanSide, TraceBuilder,
};

use super::columnar::{batch_holders_of, broadcast_small_batches, empty_batch_frags};

fn cross_input(input: OpInput) -> (BatchFragments, BatchFragments, usize, usize) {
    let (
        OpParams::CrossJoin {
            left_width,
            right_width,
        },
        Ok([left, right]),
    ) = (input.params, <[_; 2]>::try_from(input.inputs))
    else {
        unreachable!("registered for CrossJoin");
    };
    (left, right, left_width, right_width)
}

/// The product of `left`'s rows `l` with `right`'s rows `r` as one batch
/// of `left ++ right` rows, outer side outermost: each outer row repeats
/// over one full pass of the inner rows. The left side is the outer one
/// unless `right_outer`.
fn product(
    left: &RecordBatch,
    l: Range<usize>,
    right: &RecordBatch,
    r: Range<usize>,
    right_outer: bool,
) -> RecordBatch {
    let (rows, lw) = (l.len() * r.len(), left.width());
    let cols = new_columns(lw + right.width(), rows, |c, out| {
        let (col, outer, other) = match c < lw {
            true => (&left.col(c)[l.clone()], !right_outer, r.len()),
            false => (&right.col(c - lw)[r.clone()], right_outer, l.len()),
        };
        if rows == 0 {
        } else if outer {
            // Each value repeats over one pass of the other side.
            let runs = out.chunks_exact_mut(other).zip(col);
            runs.for_each(|(run, &x)| run.fill(x));
        } else {
            let passes = out.chunks_exact_mut(col.len());
            passes.for_each(|pass| pass.copy_from_slice(col));
        }
    });
    RecordBatch::view(&cols, 0..rows)
}

fn cross_lower_bound(a: &PlanArgs<'_>) -> Option<LowerBound> {
    if !a.symmetric() {
        return None;
    }
    Some(cartesian_lower_bound(a.model.tree(), &a.value_stats()))
}

/// Per-compute-node capacity: the bandwidth of the node's adjacent edge
/// (the wHC convention), with infinite links clamped.
fn capacities(tree: &Tree) -> Vec<(NodeId, f64)> {
    tree.compute_nodes()
        .iter()
        .map(|&v| {
            let (_, e) = tree.neighbors(v)[0];
            let bw = tree
                .bandwidth(DirEdgeId::new(e, false))
                .min(tree.bandwidth(DirEdgeId::new(e, true)));
            let w = if bw.is_infinite() { 1e9 } else { bw.get() };
            (v, w)
        })
        .collect()
}

/// Replicate the smaller side (by values) to the big side's holders.
#[derive(Debug)]
pub(crate) struct BroadcastSmallCross;

impl PhysicalStrategy for BroadcastSmallCross {
    fn name(&self) -> &'static str {
        "broadcast-small"
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::CrossJoin
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        let right = a.right.as_ref().expect("cross join has two inputs");
        // The executor broadcasts the side with fewer values.
        let left_is_small =
            a.left.total() * a.left.width as f64 <= right.total() * right.width as f64;
        let (small, big) = if left_is_small {
            (&a.left, right)
        } else {
            (right, &a.left)
        };
        let vc = a.model.tree().compute_nodes().iter().copied();
        let holders: Vec<NodeId> = vc.filter(|&v| big.counts[v.index()] > 0.0).collect();
        CostEstimate {
            tuple_cost: a.model.multicast_cost(&small.counts, small.width, &holders),
            rounds: 1,
        }
    }

    fn lower_bound(&self, a: &PlanArgs<'_>) -> Option<LowerBound> {
        cross_lower_bound(a)
    }

    fn output_shares(&self, a: &PlanArgs<'_>) -> Vec<f64> {
        let right = a.right.as_ref().expect("cross join has two inputs");
        let big = if a.left.total() * a.left.width as f64 <= right.total() * right.width as f64 {
            &right.counts
        } else {
            &a.left.counts
        };
        a.model.proportional_shares(big)
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let (lfrags, rfrags, lw, rw) = cross_input(input);
        let tree = a.tree;
        let mut trace = TraceBuilder::default();
        let l_total: usize = lfrags.iter().map(|b| batch_rows(b)).sum();
        let r_total: usize = rfrags.iter().map(|b| batch_rows(b)).sum();
        let left_is_small = l_total * lw <= r_total * rw;
        let (small_frags, small_w, small_rel, big_frags, big_w) = if left_is_small {
            (&lfrags, lw, Rel::R, &rfrags, rw)
        } else {
            (&rfrags, rw, Rel::S, &lfrags, lw)
        };
        let holders = batch_holders_of(tree, big_frags);
        let small_new =
            broadcast_small_batches(&mut trace, tree, small_frags, small_w, small_rel, &holders);
        // Each holder pairs its big rows, outermost, with the whole
        // small side.
        let mut out = empty_batch_frags(tree);
        if l_total.min(r_total) > 0 {
            for &h in &holders {
                let small = concat(&small_new[h.index()], small_w);
                let big = concat(&big_frags[h.index()], big_w);
                let (l, r) = if left_is_small {
                    (&small, &big)
                } else {
                    (&big, &small)
                };
                out[h.index()].push(product(
                    l,
                    0..l.num_rows(),
                    r,
                    0..r.num_rows(),
                    left_is_small,
                ));
            }
        }
        Ok(OpTrace {
            rounds: trace.into_rounds(),
            output: out,
        })
    }
}

/// A rectangle cover of the `|L| × |R|` output grid: rows index `L`,
/// columns index `R`, both labelled in compute-node order.
fn clip(rects: &[Rect], l_total: u64, r_total: u64) -> Vec<Rect> {
    rects
        .iter()
        .filter_map(|r| {
            let h = r.h.min(l_total.saturating_sub(r.row));
            let w = r.w.min(r_total.saturating_sub(r.col));
            (h > 0 && w > 0).then_some(Rect { h, w, ..*r })
        })
        .collect()
}

/// Execute the rectangle cover `plan` lays over the `|L| × |R|` grid: one
/// round of interval multicasts, then each owner enumerates its
/// rectangles' row×column products.
fn rect_cross_trace(
    a: &ExecArgs<'_>,
    input: OpInput,
    plan: impl Fn(&Tree, u64, u64) -> Vec<Rect>,
) -> OpTrace {
    let (lfrags, rfrags, lw, rw) = cross_input(input);
    let (lfrags, rfrags) = (&lfrags, &rfrags);
    let tree = a.tree;
    let mut trace = TraceBuilder::default();
    // Global labels: concatenate fragments in compute-node order.
    let order = tree.compute_nodes();
    let mut l_start = vec![0u64; tree.num_nodes()];
    let mut r_start = vec![0u64; tree.num_nodes()];
    let (mut l_acc, mut r_acc) = (0u64, 0u64);
    for &v in order {
        l_start[v.index()] = l_acc;
        r_start[v.index()] = r_acc;
        l_acc += batch_rows(&lfrags[v.index()]) as u64;
        r_acc += batch_rows(&rfrags[v.index()]) as u64;
    }
    let rects = plan(tree, l_acc, r_acc);
    let l_recipients: Vec<(NodeId, Range<u64>)> = rects
        .iter()
        .map(|r| (r.owner, r.row..r.row + r.h))
        .collect();
    let r_recipients: Vec<(NodeId, Range<u64>)> = rects
        .iter()
        .map(|r| (r.owner, r.col..r.col + r.w))
        .collect();
    trace.round(|round| {
        for &v in order {
            for (frags, width, start, recipients, rel) in [
                (lfrags, lw, &l_start, &l_recipients, Rel::R),
                (rfrags, rw, &r_start, &r_recipients, Rel::S),
            ] {
                let local = &frags[v.index()];
                let flat = flatten_batches(local, width);
                for (mut dsts, sub) in
                    interval_segments(batch_rows(local), start[v.index()], recipients)
                {
                    dsts.sort_unstable();
                    dsts.dedup();
                    let payload =
                        SharedSlice::new(flat.clone(), sub.start * width..sub.end * width);
                    round.send(v, &dsts, rel, payload);
                }
            }
        }
    });
    // Output from model knowledge: every owner enumerates its rectangles
    // over the globally labelled rows — exactly the data it was sent.
    let global = |frags: &BatchFragments, width| {
        let all: Vec<RecordBatch> = order
            .iter()
            .flat_map(|&v| frags[v.index()].iter().cloned())
            .collect();
        concat(&all, width)
    };
    let (l_global, r_global) = (global(lfrags, lw), global(rfrags, rw));
    let mut out = empty_batch_frags(tree);
    for rect in &rects {
        let rows = rect.row as usize..(rect.row + rect.h) as usize;
        let cols = rect.col as usize..(rect.col + rect.w) as usize;
        out[rect.owner.index()].push(product(&l_global, rows, &r_global, cols, false));
    }
    OpTrace {
        rounds: trace.into_rounds(),
        output: out,
    }
}

/// Price a rectangle cover: each source ships its interval overlaps to
/// every owner (per-rectangle, a slight over-estimate of the multicast
/// union).
fn rect_cross_estimate(a: &PlanArgs<'_>, rects: &[Rect], left: &PlanSide, right: &PlanSide) -> f64 {
    fn row_range(r: &Rect) -> (u64, u64) {
        (r.row, r.row + r.h)
    }
    fn col_range(r: &Rect) -> (u64, u64) {
        (r.col, r.col + r.w)
    }
    let mut round = a.model.round();
    for (side, range_of) in [
        (left, row_range as fn(&Rect) -> (u64, u64)),
        (right, col_range),
    ] {
        let mut start = 0.0f64;
        for &v in a.model.tree().compute_nodes() {
            let end = start + side.counts[v.index()];
            for rect in rects {
                let (lo, hi) = range_of(rect);
                let overlap = (end.min(hi as f64) - start.max(lo as f64)).max(0.0);
                round.send(v, &[rect.owner], overlap * side.width as f64);
            }
            start = end;
        }
    }
    round.cost()
}

/// A rectangle cover of the `|L| × |R|` output grid: the §4 wHC /
/// Appendix A.1 rectangles sized to link bandwidths, or the classic
/// HyperCube/shares near-square node grid with uniform bands.
#[derive(Debug)]
pub(crate) struct RectCross {
    whc: bool,
}

impl RectCross {
    /// The §4 wHC / A.1 rectangle packing.
    pub(crate) fn whc() -> Self {
        RectCross { whc: true }
    }

    /// The uniform HyperCube baseline.
    pub(crate) fn hypercube() -> Self {
        RectCross { whc: false }
    }

    fn plan(&self, tree: &Tree, l_total: u64, r_total: u64) -> Vec<Rect> {
        if l_total == 0 || r_total == 0 {
            return Vec::new();
        }
        if self.whc {
            let plan = plan_unequal(l_total, r_total, &capacities(tree));
            return clip(&plan.rects, l_total, r_total);
        }
        let computes = tree.compute_nodes();
        let p = computes.len() as u64;
        let p1 = ((p as f64).sqrt().floor() as u64).max(1);
        let p2 = (p / p1).max(1);
        let band = |total: u64, parts: u64, i: u64| -> Range<u64> {
            (total * i / parts)..(total * (i + 1) / parts)
        };
        let mut rects = Vec::new();
        for (k, &v) in computes.iter().enumerate().take((p1 * p2) as usize) {
            let (i, j) = (k as u64 / p2, k as u64 % p2);
            let rows = band(l_total, p1, i);
            let cols = band(r_total, p2, j);
            rects.push(Rect {
                owner: v,
                row: rows.start,
                h: rows.end - rows.start,
                col: cols.start,
                w: cols.end - cols.start,
            });
        }
        clip(&rects, l_total, r_total)
    }

    /// The cover of the estimated grid, and its sides.
    fn planned(&self, a: &PlanArgs<'_>) -> (Vec<Rect>, u64, u64) {
        let right = a.right.as_ref().expect("cross join has two inputs");
        let (l_total, r_total) = (a.left.total().round() as u64, right.total().round() as u64);
        (
            self.plan(a.model.tree(), l_total, r_total),
            l_total,
            r_total,
        )
    }
}

impl PhysicalStrategy for RectCross {
    fn name(&self) -> &'static str {
        if self.whc {
            "whc-grid"
        } else {
            "uniform-hypercube"
        }
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::CrossJoin
    }

    fn algorithm(&self) -> Option<&'static str> {
        self.whc.then_some("§4 wHC / A.1 rectangles")
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        let right = a.right.as_ref().expect("cross join has two inputs");
        CostEstimate {
            tuple_cost: rect_cross_estimate(a, &self.planned(a).0, &a.left, right),
            rounds: 1,
        }
    }

    fn lower_bound(&self, a: &PlanArgs<'_>) -> Option<LowerBound> {
        cross_lower_bound(a)
    }

    fn output_shares(&self, a: &PlanArgs<'_>) -> Vec<f64> {
        if !self.whc {
            return a.model.uniform_shares();
        }
        let (rects, l_total, r_total) = self.planned(a);
        let mut shares = a.model.zero_counts();
        let grid = (l_total as f64 * r_total as f64).max(1.0);
        for r in &rects {
            shares[r.owner.index()] += (r.h as f64 * r.w as f64) / grid;
        }
        shares
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        Ok(rect_cross_trace(a, input, |tree, l, r| {
            self.plan(tree, l, r)
        }))
    }
}
