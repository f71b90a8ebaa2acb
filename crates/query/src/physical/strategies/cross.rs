//! Cartesian-product strategies.
//!
//! - [`WhcGridCross`] — the §4 weighted-HyperCube idea generalized to
//!   `|L| ≠ |R|` via the Appendix A.1 rectangle packing
//!   (`tamp_core::cartesian::unequal::plan_unequal`): rows and columns of
//!   the `|L| × |R|` output grid are globally labelled, every node is
//!   assigned rectangles sized to its link bandwidth, and each node
//!   receives exactly the `L`-row and `R`-row intervals its rectangles
//!   span (one round, interval multicasts);
//! - [`BroadcastSmallCross`] — replicate the smaller side (by values) to
//!   every node holding rows of the larger side;
//! - [`UniformHyperCubeCross`] — the classic HyperCube/shares baseline: a
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
use tamp_simulator::Rel;
use tamp_topology::{DirEdgeId, NodeId, Tree};

use crate::error::QueryError;
use crate::physical::strategy::{
    CostEstimate, ExecArgs, Fragments, OpInput, OpTrace, OperatorKind, PhysicalStrategy, PlanArgs,
    PlanSide, TraceBuilder,
};
use crate::row::{flatten, Row};

use super::{broadcast_small, empty_frags, holders_of};

fn cross_input(input: OpInput) -> (Fragments, Fragments, usize, usize) {
    let OpInput::CrossJoin {
        left,
        right,
        left_width,
        right_width,
    } = input
    else {
        unreachable!("registered for CrossJoin");
    };
    (left, right, left_width, right_width)
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
        let holders: Vec<NodeId> = a
            .model
            .tree()
            .compute_nodes()
            .iter()
            .copied()
            .filter(|&v| big.counts[v.index()] > 0.0)
            .collect();
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
        let mut trace = TraceBuilder::batched(a.batch);
        let l_total: usize = lfrags.iter().map(Vec::len).sum();
        let r_total: usize = rfrags.iter().map(Vec::len).sum();
        let left_is_small = l_total * lw <= r_total * rw;
        let (small_frags, small_w, big_frags) = if left_is_small {
            (&lfrags, lw, &rfrags)
        } else {
            (&rfrags, rw, &lfrags)
        };
        let holders = holders_of(tree, big_frags);
        let small_new = broadcast_small(&mut trace, tree, small_frags, small_w, &holders);
        let mut out = empty_frags(tree);
        for &h in &holders {
            for big_row in &big_frags[h.index()] {
                for small_row in &small_new[h.index()] {
                    let joined = if left_is_small {
                        let mut j = small_row.clone();
                        j.extend_from_slice(big_row);
                        j
                    } else {
                        let mut j = big_row.clone();
                        j.extend_from_slice(small_row);
                        j
                    };
                    out[h.index()].push(joined);
                }
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

/// Execute a rectangle cover: one round of interval multicasts, then each
/// owner enumerates its rectangles' row×column products.
fn rect_cross_trace(
    tree: &Tree,
    rects: &[Rect],
    lfrags: &Fragments,
    rfrags: &Fragments,
    lw: usize,
    rw: usize,
    batch: usize,
) -> OpTrace {
    let mut trace = TraceBuilder::batched(batch);
    // Global labels: concatenate fragments in compute-node order.
    let order = tree.compute_nodes();
    let mut l_start = vec![0u64; tree.num_nodes()];
    let mut r_start = vec![0u64; tree.num_nodes()];
    let (mut l_acc, mut r_acc) = (0u64, 0u64);
    for &v in order {
        l_start[v.index()] = l_acc;
        r_start[v.index()] = r_acc;
        l_acc += lfrags[v.index()].len() as u64;
        r_acc += rfrags[v.index()].len() as u64;
    }
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
                for (mut dsts, sub) in interval_segments(local.len(), start[v.index()], recipients)
                {
                    dsts.sort_unstable();
                    dsts.dedup();
                    round.send_rows(v, &dsts, rel, flatten(&local[sub], width), width);
                }
            }
        }
    });
    // Output from model knowledge: every owner enumerates its rectangles
    // over the globally labelled rows — exactly the data it was sent.
    let l_global: Vec<&Row> = order
        .iter()
        .flat_map(|&v| lfrags[v.index()].iter())
        .collect();
    let r_global: Vec<&Row> = order
        .iter()
        .flat_map(|&v| rfrags[v.index()].iter())
        .collect();
    let mut out = empty_frags(tree);
    for rect in rects {
        let rows = &l_global[rect.row as usize..(rect.row + rect.h) as usize];
        let cols = &r_global[rect.col as usize..(rect.col + rect.w) as usize];
        let dst = &mut out[rect.owner.index()];
        for &lrow in rows {
            for &rrow in cols {
                let mut j = lrow.clone();
                j.extend_from_slice(rrow);
                dst.push(j);
            }
        }
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

/// The §4 wHC / Appendix A.1 rectangle strategy.
#[derive(Debug)]
pub(crate) struct WhcGridCross;

impl WhcGridCross {
    fn plan(tree: &Tree, l_total: u64, r_total: u64) -> Vec<Rect> {
        if l_total == 0 || r_total == 0 {
            return Vec::new();
        }
        let plan = plan_unequal(l_total, r_total, &capacities(tree));
        clip(&plan.rects, l_total, r_total)
    }
}

impl PhysicalStrategy for WhcGridCross {
    fn name(&self) -> &'static str {
        "whc-grid"
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::CrossJoin
    }

    fn algorithm(&self) -> Option<&'static str> {
        Some("§4 wHC / A.1 rectangles")
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        let right = a.right.as_ref().expect("cross join has two inputs");
        let (l_total, r_total) = (a.left.total().round() as u64, right.total().round() as u64);
        let rects = Self::plan(a.model.tree(), l_total, r_total);
        CostEstimate {
            tuple_cost: rect_cross_estimate(a, &rects, &a.left, right),
            rounds: 1,
        }
    }

    fn lower_bound(&self, a: &PlanArgs<'_>) -> Option<LowerBound> {
        cross_lower_bound(a)
    }

    fn output_shares(&self, a: &PlanArgs<'_>) -> Vec<f64> {
        let right = a.right.as_ref().expect("cross join has two inputs");
        let (l_total, r_total) = (a.left.total().round() as u64, right.total().round() as u64);
        let rects = Self::plan(a.model.tree(), l_total, r_total);
        let mut shares = a.model.zero_counts();
        let grid = (l_total as f64 * r_total as f64).max(1.0);
        for r in &rects {
            shares[r.owner.index()] += (r.h as f64 * r.w as f64) / grid;
        }
        shares
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let (lfrags, rfrags, lw, rw) = cross_input(input);
        let l_total: usize = lfrags.iter().map(Vec::len).sum();
        let r_total: usize = rfrags.iter().map(Vec::len).sum();
        let rects = Self::plan(a.tree, l_total as u64, r_total as u64);
        Ok(rect_cross_trace(
            a.tree, &rects, &lfrags, &rfrags, lw, rw, a.batch,
        ))
    }
}

/// The classic HyperCube/shares baseline on a near-square node grid.
#[derive(Debug)]
pub(crate) struct UniformHyperCubeCross;

impl UniformHyperCubeCross {
    fn plan(tree: &Tree, l_total: u64, r_total: u64) -> Vec<Rect> {
        if l_total == 0 || r_total == 0 {
            return Vec::new();
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
}

impl PhysicalStrategy for UniformHyperCubeCross {
    fn name(&self) -> &'static str {
        "uniform-hypercube"
    }

    fn operator(&self) -> OperatorKind {
        OperatorKind::CrossJoin
    }

    fn estimate(&self, a: &PlanArgs<'_>) -> CostEstimate {
        let right = a.right.as_ref().expect("cross join has two inputs");
        let (l_total, r_total) = (a.left.total().round() as u64, right.total().round() as u64);
        let rects = Self::plan(a.model.tree(), l_total, r_total);
        CostEstimate {
            tuple_cost: rect_cross_estimate(a, &rects, &a.left, right),
            rounds: 1,
        }
    }

    fn lower_bound(&self, a: &PlanArgs<'_>) -> Option<LowerBound> {
        cross_lower_bound(a)
    }

    fn output_shares(&self, a: &PlanArgs<'_>) -> Vec<f64> {
        a.model.uniform_shares()
    }

    fn trace(&self, a: &ExecArgs<'_>, input: OpInput) -> Result<OpTrace, QueryError> {
        let (lfrags, rfrags, lw, rw) = cross_input(input);
        let l_total: usize = lfrags.iter().map(Vec::len).sum();
        let r_total: usize = rfrags.iter().map(Vec::len).sum();
        let rects = Self::plan(a.tree, l_total as u64, r_total as u64);
        Ok(rect_cross_trace(
            a.tree, &rects, &lfrags, &rfrags, lw, rw, a.batch,
        ))
    }
}
