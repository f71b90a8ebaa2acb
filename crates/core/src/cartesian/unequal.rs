//! Appendix A.1: cartesian product with `|R| ≠ |S|` on symmetric stars.
//!
//! W.l.o.g. `|R| < |S|`. The output grid is a `|R| × |S|` rectangle, so a
//! node's optimal share is no longer a square: nodes with budget
//! `C·w_v ≥ |R|` take full-height *strips* while the rest take squares.
//! The scale `L* = L(R, S, V_C)` is the least `C` satisfying the counting
//! inequality `Σ_v min{C·w_v, |R|} · C·w_v ≥ |R|·|S|` (equation (2)).
//!
//! The paper sketches the packing ("while the grid is not fully covered");
//! we make it concrete: strips go first, the remaining columns split into
//! panels of power-of-two width `H ≥ |R|`, and squares (sides rounded to
//! powers of two) buddy-pack into the panels, lowest rows first. If
//! rounding/clipping leaves the grid uncovered the scale doubles and the
//! packing retries — the planner records the final scale, keeping the
//! measured cost honest.
//!
//! `GeneralizedStarCartesianProduct` (Algorithm 8) broadcasts `R` to the
//! `V_β` nodes and then picks the cheapest of the three strategies the
//! paper lists; the lower bounds are Theorems 8 and 9.

use std::ops::Range;

use tamp_simulator::{Placement, Protocol, Rel, Session, SimError};
use tamp_topology::{NodeId, Tree};

use crate::ratio::LowerBound;

use super::grid::distribute_intervals;
use super::star::all_to_node;
use super::whc::log2_ceil;

/// A rectangle of the output grid assigned to a node: rows
/// `[row, row+h)` of `R` × columns `[col, col+w)` of `S`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rect {
    /// Assigned compute node.
    pub owner: NodeId,
    /// First `R`-row.
    pub row: u64,
    /// First `S`-column.
    pub col: u64,
    /// Number of rows.
    pub h: u64,
    /// Number of columns.
    pub w: u64,
}

/// The generalized-wHC plan: rectangles covering the `|R| × |S|` grid.
#[derive(Clone, Debug)]
pub struct UnequalPlan {
    /// Assigned rectangles (disjoint inside the grid, union covers it).
    pub rects: Vec<Rect>,
    /// The scale `C` actually used (`≥ L*`; doubled on packing retries).
    pub c: f64,
    /// How many times the scale was doubled to achieve coverage.
    pub retries: u32,
}

/// Solve equation (2): the least `C ≥ 0` with
/// `Σ_v min{C·w_v, r_total} · C·w_v ≥ r_total · s_total`.
pub fn solve_l_star(r_total: u64, s_total: u64, caps: &[f64]) -> f64 {
    let need = r_total as f64 * s_total as f64;
    if need == 0.0 || caps.is_empty() {
        return 0.0;
    }
    let area = |c: f64| -> f64 {
        caps.iter()
            .map(|&w| (c * w).min(r_total as f64) * c * w)
            .sum()
    };
    let mut hi = 1.0f64;
    while area(hi) < need {
        hi *= 2.0;
        if hi > 1e30 {
            return f64::INFINITY;
        }
    }
    let mut lo = 0.0f64;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if area(mid) >= need {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Quadtree buddy cell used while packing squares into a panel.
enum Cell {
    Free,
    Allocated,
    Split(Box<[Cell; 4]>),
}

impl Cell {
    /// Child quadrant offsets `(d_col, d_row)` in fill-priority order
    /// (low rows first, then low columns).
    fn offsets(half: u64) -> [(u64, u64); 4] {
        [(0, 0), (half, 0), (0, half), (half, half)]
    }

    /// Allocate a `side × side` cell; returns its `(col, row)` offset.
    fn alloc(&mut self, size: u64, side: u64) -> Option<(u64, u64)> {
        debug_assert!(side <= size);
        match self {
            Cell::Allocated => None,
            Cell::Free if side == size => {
                *self = Cell::Allocated;
                Some((0, 0))
            }
            Cell::Free => {
                *self = Cell::Split(Box::new([Cell::Free, Cell::Free, Cell::Free, Cell::Free]));
                self.alloc(size, side)
            }
            Cell::Split(children) => {
                let half = size / 2;
                if side > half {
                    return None;
                }
                for (i, (dc, dr)) in Self::offsets(half).into_iter().enumerate() {
                    if let Some((c, r)) = children[i].alloc(half, side) {
                        return Some((dc + c, dr + r));
                    }
                }
                None
            }
        }
    }

    /// `true` if the region of interest (rows `< row_lim`, cols `< col_lim`,
    /// relative to this cell) is fully allocated.
    fn covers(&self, size: u64, row_lim: u64, col_lim: u64) -> bool {
        if row_lim == 0 || col_lim == 0 {
            return true;
        }
        match self {
            Cell::Allocated => true,
            Cell::Free => false,
            Cell::Split(children) => {
                let half = size / 2;
                for (i, (dc, dr)) in Self::offsets(half).into_iter().enumerate() {
                    let rl = row_lim.saturating_sub(dr).min(half);
                    let cl = col_lim.saturating_sub(dc).min(half);
                    if !children[i].covers(half, rl, cl) {
                        return false;
                    }
                }
                true
            }
        }
    }
}

/// Plan the generalized wHC packing for an `r_total × s_total` grid over
/// nodes with capacities `caps` (pairs `(node, w)`).
pub fn plan_unequal(r_total: u64, s_total: u64, caps: &[(NodeId, f64)]) -> UnequalPlan {
    if r_total == 0 || s_total == 0 || caps.is_empty() {
        return UnequalPlan {
            rects: Vec::new(),
            c: 0.0,
            retries: 0,
        };
    }
    let ws: Vec<f64> = caps.iter().map(|&(_, w)| w).collect();
    let l_star = solve_l_star(r_total, s_total, &ws);
    let mut sorted: Vec<(NodeId, f64)> = caps.to_vec();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut c = l_star.max(1.0 / sorted[0].1.max(f64::MIN_POSITIVE));
    for retry in 0..16u32 {
        if let Some(rects) = try_pack(r_total, s_total, &sorted, c) {
            return UnequalPlan {
                rects,
                c,
                retries: retry,
            };
        }
        c *= 2.0;
    }
    unreachable!("a scale with one node spanning the whole grid always packs");
}

fn try_pack(r_total: u64, s_total: u64, sorted: &[(NodeId, f64)], c: f64) -> Option<Vec<Rect>> {
    let side_cap = 1u64 << log2_ceil(r_total.max(s_total).max(1) + 1).min(62);
    let h_panel = 1u64 << log2_ceil(r_total);
    let mut rects = Vec::new();
    // `frontier`: first column not yet claimed by a strip or an opened
    // panel. Strips cover their columns outright; panel coverage is
    // verified at the end.
    let mut frontier = 0u64;
    let mut panels: Vec<(u64, Cell)> = Vec::new(); // (panel start col, buddy)
    for &(owner, w) in sorted {
        let budget = (c * w).ceil().max(1.0).min(side_cap as f64) as u64;
        let side = 1u64 << log2_ceil(budget).min(62);
        if budget >= r_total || side >= h_panel {
            // Full-height strip (either by budget or by rounding).
            if frontier < s_total {
                let width = budget.max(side).min(s_total - frontier);
                rects.push(Rect {
                    owner,
                    row: 0,
                    col: frontier,
                    h: r_total,
                    w: width,
                });
                frontier += width;
            }
            continue;
        }
        // Square node: try existing panels, else open a new one at the
        // frontier. (Sorted descending, so strips always precede squares.)
        let mut placed = false;
        for (start, cell) in panels.iter_mut() {
            if let Some((dc, dr)) = cell.alloc(h_panel, side) {
                rects.push(Rect {
                    owner,
                    row: dr,
                    col: *start + dc,
                    h: side,
                    w: side,
                });
                placed = true;
                break;
            }
        }
        if !placed && frontier < s_total {
            let mut cell = Cell::Free;
            let (dc, dr) = cell
                .alloc(h_panel, side)
                .expect("fresh panel fits any side");
            rects.push(Rect {
                owner,
                row: dr,
                col: frontier + dc,
                h: side,
                w: side,
            });
            panels.push((frontier, cell));
            frontier += h_panel;
        }
    }
    // Coverage: frontier must reach s_total, and every panel must cover
    // its in-grid region (rows < r_total, columns up to the grid edge).
    if frontier < s_total {
        return None;
    }
    for (start, cell) in &panels {
        let col_lim = (s_total.saturating_sub(*start)).min(h_panel);
        if !cell.covers(h_panel, r_total.min(h_panel), col_lim) {
            return None;
        }
    }
    Some(rects)
}

/// Theorem 8: `C ≥ max{ max_{v∈V_α} min{N_v, N−N_v}/w_v,
/// max_{v∈V_β} |R|/w_v }` on a symmetric star, where
/// `V_α = {v : min{N_v, N−N_v} < |R|}`.
pub fn unequal_lower_bound_thm8(tree: &Tree, stats: &tamp_simulator::PlacementStats) -> LowerBound {
    let r_total = stats.total_r.min(stats.total_s);
    let n_total = stats.total_n();
    let mut best = LowerBound::zero();
    for &v in tree.compute_nodes() {
        let (_, e) = tree.neighbors(v)[0];
        let w = tree.sym_bandwidth(e);
        let nv = stats.n_v(v);
        let cut = nv.min(n_total - nv);
        let numer = if cut < r_total { cut } else { r_total };
        let value = w.cost_of(numer as f64);
        if value > best.value() {
            best = LowerBound::new(value, Some(e));
        }
    }
    best
}

/// Theorem 9: when `max_v N_v ≤ N/2`,
/// `C ≥ min{ |S|/max_v w_v, Σ_{V_α}|S_v| / (2·Σ_{V_β} w_v),
/// L(R, ⋃_{V_α} S_v, V_α) }`. Returns `None` when the premise fails.
pub fn unequal_lower_bound_thm9(
    tree: &Tree,
    stats: &tamp_simulator::PlacementStats,
) -> Option<LowerBound> {
    let n_total = stats.total_n();
    let max_nv = tree
        .compute_nodes()
        .iter()
        .map(|&v| stats.n_v(v))
        .max()
        .unwrap_or(0);
    if max_nv * 2 > n_total {
        return None;
    }
    // Orient so R is the smaller relation.
    let (r_total, s_rel) = if stats.total_r <= stats.total_s {
        (stats.total_r, Rel::S)
    } else {
        (stats.total_s, Rel::R)
    };
    let s_total = stats.total_rel(s_rel);
    let w_of = |v: NodeId| {
        let (_, e) = tree.neighbors(v)[0];
        tree.sym_bandwidth(e).get()
    };
    let mut max_w = 0.0f64;
    let mut s_alpha = 0u64;
    let mut w_beta_sum = 0.0f64;
    let mut alpha_caps = Vec::new();
    for &v in tree.compute_nodes() {
        let w = w_of(v);
        max_w = max_w.max(w);
        let nv = stats.n_v(v);
        if nv.min(n_total - nv) < r_total {
            s_alpha += stats.rel(s_rel)[v.index()];
            alpha_caps.push(w);
        } else {
            w_beta_sum += w;
        }
    }
    let term1 = if max_w > 0.0 {
        s_total as f64 / max_w
    } else {
        f64::INFINITY
    };
    let term2 = if w_beta_sum > 0.0 {
        s_alpha as f64 / (2.0 * w_beta_sum)
    } else {
        f64::INFINITY
    };
    let term3 = solve_l_star(r_total, s_alpha, &alpha_caps);
    Some(LowerBound::new(term1.min(term2).min(term3), None))
}

/// `max(Theorem 8, Theorem 9)`.
pub fn unequal_lower_bound(tree: &Tree, stats: &tamp_simulator::PlacementStats) -> LowerBound {
    let t8 = unequal_lower_bound_thm8(tree, stats);
    match unequal_lower_bound_thm9(tree, stats) {
        Some(t9) => t8.max(t9),
        None => t8,
    }
}

/// Which strategy Algorithm 8 executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnequalStrategy {
    /// Some node held more than half the data: everything went to it.
    HeavyNode,
    /// Everything to the node with the fattest link.
    AllToFattest,
    /// `R` broadcast to `V_β`; `V_α`'s `S`-tuples spread over `V_β`
    /// proportionally to bandwidth.
    ProportionalToBeta,
    /// `R` broadcast to `V_β`; generalized wHC on `V_α` for
    /// `R × ⋃_{V_α} S_v`.
    WhcOnAlpha,
}

/// Algorithm 8: cartesian product with `|R| ≠ |S|` on a symmetric star.
/// Runs the heavy-node shortcut if applicable; otherwise simulates the
/// three candidate strategies on the initial placement and executes the
/// cheapest (planning is local computation — free in the model).
#[derive(Clone, Debug, Default)]
pub struct GeneralizedStarCartesianProduct;

impl GeneralizedStarCartesianProduct {
    /// Create the protocol.
    pub fn new() -> Self {
        GeneralizedStarCartesianProduct
    }
}

impl Protocol for GeneralizedStarCartesianProduct {
    type Output = UnequalStrategy;

    fn name(&self) -> String {
        "generalized-star-cartesian-product".into()
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        if tree.num_nodes() != tree.num_compute() + 1 || !tree.compute_nodes_are_leaves() {
            return Err(SimError::Protocol(
                "GeneralizedStarCartesianProduct requires a star topology".into(),
            ));
        }
        let stats = session.stats().clone();
        let n_total = stats.total_n();
        if n_total == 0 {
            return Ok(UnequalStrategy::HeavyNode);
        }
        let heavy = tree
            .compute_nodes()
            .iter()
            .copied()
            .max_by_key(|&v| stats.n_v(v))
            .expect("star has compute nodes");
        if stats.n_v(heavy) * 2 > n_total {
            all_to_node(session, heavy)?;
            return Ok(UnequalStrategy::HeavyNode);
        }
        // Candidate strategies, evaluated by private simulation on the
        // initial placement.
        let placement = Placement::from_fragments(session.states().to_vec());
        let candidates = [
            UnequalStrategy::AllToFattest,
            UnequalStrategy::ProportionalToBeta,
            UnequalStrategy::WhcOnAlpha,
        ];
        let mut best: Option<(f64, UnequalStrategy)> = None;
        for &strat in &candidates {
            let proto = FixedStrategy(strat);
            if let Ok(run) = tamp_simulator::run_protocol(tree, &placement, &proto) {
                let cost = run.cost.tuple_cost();
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, strat));
                }
            }
        }
        let (_, strat) =
            best.ok_or_else(|| SimError::Protocol("no unequal-CP strategy applies".into()))?;
        FixedStrategy(strat).run(session)?;
        Ok(strat)
    }
}

/// Run one specific Algorithm-8 strategy (used for planning and ablation).
#[derive(Clone, Copy, Debug)]
pub struct FixedStrategy(pub UnequalStrategy);

impl Protocol for FixedStrategy {
    type Output = ();

    fn name(&self) -> String {
        format!("unequal-cp[{:?}]", self.0)
    }

    fn run(&self, session: &mut Session<'_>) -> Result<(), SimError> {
        let tree = session.tree();
        let stats = session.stats().clone();
        let n_total = stats.total_n();
        // Orient: `small` plays R.
        let (small, big) = if stats.total_r <= stats.total_s {
            (Rel::R, Rel::S)
        } else {
            (Rel::S, Rel::R)
        };
        let r_total = stats.total_rel(small);
        let computes: Vec<NodeId> = tree.compute_nodes().to_vec();
        let w_of = |v: NodeId| {
            let (_, e) = tree.neighbors(v)[0];
            tree.sym_bandwidth(e).get()
        };
        let v_beta: Vec<NodeId> = computes
            .iter()
            .copied()
            .filter(|&v| stats.n_v(v).min(n_total - stats.n_v(v)) >= r_total)
            .collect();
        let v_alpha: Vec<NodeId> = computes
            .iter()
            .copied()
            .filter(|&v| !v_beta.contains(&v))
            .collect();

        match self.0 {
            UnequalStrategy::HeavyNode | UnequalStrategy::AllToFattest => {
                let target = if self.0 == UnequalStrategy::HeavyNode {
                    computes
                        .iter()
                        .copied()
                        .max_by_key(|&v| stats.n_v(v))
                        .expect("nonempty")
                } else {
                    *computes
                        .iter()
                        .max_by(|&&a, &&b| w_of(a).total_cmp(&w_of(b)))
                        .expect("nonempty")
                };
                all_to_node(session, target)
            }
            UnequalStrategy::ProportionalToBeta => {
                if v_beta.is_empty() {
                    return Err(SimError::Protocol("V_β is empty".into()));
                }
                let w_sum: f64 = v_beta.iter().map(|&v| w_of(v)).sum();
                session.round(|round| {
                    for &v in &computes {
                        // R (small) tuples → all of V_β.
                        let small_vals = round.state(v).rel(small);
                        round.send(v, &v_beta, small, small_vals)?;
                        // S (big) tuples of V_α nodes → proportional split.
                        if v_alpha.contains(&v) {
                            let big_vals = round.state(v).rel(big);
                            let mut start = 0usize;
                            let total = big_vals.len() as f64;
                            let mut acc = 0.0f64;
                            for (i, &u) in v_beta.iter().enumerate() {
                                acc += w_of(u);
                                let end = if i + 1 == v_beta.len() {
                                    big_vals.len()
                                } else {
                                    ((acc / w_sum) * total).round() as usize
                                };
                                let end = end.clamp(start, big_vals.len());
                                round.send(v, &[u], big, &big_vals[start..end])?;
                                start = end;
                            }
                        }
                    }
                    Ok(())
                })
            }
            UnequalStrategy::WhcOnAlpha => {
                // Global column labels over V_α's big-relation tuples.
                let mut offsets = vec![0u64; tree.num_nodes()];
                let mut s_alpha = 0u64;
                for &v in &v_alpha {
                    offsets[v.index()] = s_alpha;
                    s_alpha += stats.rel(big)[v.index()];
                }
                let caps: Vec<(NodeId, f64)> = v_alpha.iter().map(|&v| (v, w_of(v))).collect();
                let plan = plan_unequal(r_total, s_alpha, &caps);
                // Row (small-relation) recipients: V_β wants everything;
                // each rect owner wants its rows.
                let mut small_recipients: Vec<(NodeId, Range<u64>)> =
                    v_beta.iter().map(|&u| (u, 0..r_total)).collect();
                for rect in &plan.rects {
                    small_recipients.push((rect.owner, rect.row..(rect.row + rect.h).min(r_total)));
                }
                let big_recipients: Vec<(NodeId, Range<u64>)> = plan
                    .rects
                    .iter()
                    .filter(|rc| rc.col < s_alpha)
                    .map(|rc| (rc.owner, rc.col..(rc.col + rc.w).min(s_alpha)))
                    .collect();
                // Row labels over the small relation (all compute nodes).
                let mut small_offsets = vec![0u64; tree.num_nodes()];
                let mut acc = 0u64;
                for &v in &computes {
                    small_offsets[v.index()] = acc;
                    acc += stats.rel(small)[v.index()];
                }
                session.round(|round| {
                    for &v in &computes {
                        let small_vals = round.state(v).rel(small);
                        distribute_intervals(
                            round,
                            v,
                            small,
                            small_vals,
                            small_offsets[v.index()],
                            &small_recipients,
                            None,
                        )?;
                        if v_alpha.contains(&v) {
                            let big_vals = round.state(v).rel(big);
                            distribute_intervals(
                                round,
                                v,
                                big,
                                big_vals,
                                offsets[v.index()],
                                &big_recipients,
                                None,
                            )?;
                        }
                    }
                    Ok(())
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::ratio;
    use tamp_simulator::{run_protocol, verify, Placement};
    use tamp_topology::builders;

    #[test]
    fn l_star_solves_equation() {
        // Symmetric case: with all budgets below |R|, equation (2) becomes
        // C²·Σw² = |R||S| ⇒ C = √(|R||S|/Σw²).
        let caps = vec![1.0, 1.0, 1.0, 1.0];
        let c = solve_l_star(100, 100, &caps);
        assert!((c - 50.0).abs() < 1e-6, "c = {c}");
        // Degenerate inputs.
        assert_eq!(solve_l_star(0, 100, &caps), 0.0);
        assert_eq!(solve_l_star(100, 100, &[]), 0.0);
    }

    fn coverage_of(rects: &[Rect], rows: u64, cols: u64) -> Result<(), String> {
        // Exact cell check on small grids.
        let mut grid = vec![false; (rows * cols) as usize];
        for rc in rects {
            for i in rc.row..(rc.row + rc.h).min(rows) {
                for j in rc.col..(rc.col + rc.w).min(cols) {
                    grid[(i * cols + j) as usize] = true;
                }
            }
        }
        match grid.iter().position(|&b| !b) {
            None => Ok(()),
            Some(k) => Err(format!(
                "cell ({}, {}) uncovered",
                k as u64 / cols,
                k as u64 % cols
            )),
        }
    }

    #[test]
    fn plan_covers_rectangular_grids() {
        for (r, s) in [(16u64, 64u64), (10, 100), (7, 93), (32, 33), (1, 50)] {
            let caps: Vec<(NodeId, f64)> = (0..6)
                .map(|i| (NodeId(i), [8.0, 4.0, 2.0, 1.0, 1.0, 0.5][i as usize]))
                .collect();
            let plan = plan_unequal(r, s, &caps);
            coverage_of(&plan.rects, r, s).unwrap_or_else(|e| panic!("{r}×{s}: {e}"));
            assert!(plan.retries <= 6, "{r}×{s} took {} retries", plan.retries);
        }
    }

    fn skewed_placement(tree: &Tree, r_size: u64, s_size: u64) -> Placement {
        let mut p = Placement::empty(tree);
        let vc = tree.compute_nodes();
        for a in 0..r_size {
            p.push(vc[(a % vc.len() as u64) as usize], Rel::R, a);
        }
        for a in 0..s_size {
            p.push(
                vc[((a * 7 + 1) % vc.len() as u64) as usize],
                Rel::S,
                1_000_000 + a,
            );
        }
        p
    }

    #[test]
    fn generalized_cp_covers_all_pairs() {
        let t = builders::heterogeneous_star(&[4.0, 2.0, 1.0, 1.0]);
        let p = skewed_placement(&t, 12, 120);
        let run = run_protocol(&t, &p, &GeneralizedStarCartesianProduct::new()).unwrap();
        verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
    }

    #[test]
    fn heavy_node_unequal() {
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), (0..5).collect());
        p.set_s(NodeId(0), (100..200).collect());
        p.set_s(NodeId(1), (200..210).collect());
        let run = run_protocol(&t, &p, &GeneralizedStarCartesianProduct::new()).unwrap();
        assert_eq!(run.output, UnequalStrategy::HeavyNode);
        verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
    }

    #[test]
    fn cost_within_constant_of_lower_bound() {
        for (r, s) in [(20u64, 200u64), (8, 512)] {
            let t = builders::heterogeneous_star(&[8.0, 4.0, 2.0, 1.0, 1.0]);
            let p = skewed_placement(&t, r, s);
            let run = run_protocol(&t, &p, &GeneralizedStarCartesianProduct::new()).unwrap();
            verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s()).unwrap();
            let lb = unequal_lower_bound(&t, &p.stats());
            let rat = ratio(run.cost.tuple_cost(), lb.value());
            assert!(
                rat.is_finite() && rat <= 40.0,
                "{r}×{s}: cost {} vs LB {} (ratio {rat})",
                run.cost.tuple_cost(),
                lb.value()
            );
        }
    }

    #[test]
    fn strategies_all_cover() {
        let t = builders::heterogeneous_star(&[4.0, 1.0, 1.0]);
        let p = skewed_placement(&t, 6, 60);
        for strat in [
            UnequalStrategy::AllToFattest,
            UnequalStrategy::ProportionalToBeta,
            UnequalStrategy::WhcOnAlpha,
        ] {
            match run_protocol(&t, &p, &FixedStrategy(strat)) {
                Ok(run) => {
                    verify::check_pair_coverage(&run.final_state, &p.all_r(), &p.all_s())
                        .unwrap_or_else(|e| panic!("{strat:?}: {e}"));
                }
                Err(SimError::Protocol(_)) => {} // strategy not applicable
                Err(e) => panic!("{strat:?}: {e}"),
            }
        }
    }
}
