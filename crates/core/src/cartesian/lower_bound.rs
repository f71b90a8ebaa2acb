//! Theorems 3 and 4: cartesian-product lower bounds on symmetric trees.

use tamp_simulator::PlacementStats;
use tamp_topology::{CutWeights, Dagger, Tree};

use crate::ratio::LowerBound;

/// Theorem 3 (cut bound):
/// `C_LB = max_e (1/w_e) · min{Σ_{v∈V⁻_e} N_v, Σ_{v∈V⁺_e} N_v}`, in tuples.
///
/// If fewer than `min{…}` tuples cross a cut, some `R`-element never leaves
/// its side, forcing all of `S` to visit it — either way the cut carries
/// the min side.
fn cartesian_lower_bound_cut(tree: &Tree, stats: &PlacementStats) -> LowerBound {
    tree.require_symmetric()
        .expect("Theorem 3 requires a symmetric tree");
    let cuts = CutWeights::compute(tree, &stats.n);
    let mut best = LowerBound::zero();
    for e in tree.edges() {
        let value = tree.sym_bandwidth(e).cost_of(cuts.min_side(e) as f64);
        if value > best.value() {
            best = LowerBound::new(value, Some(e));
        }
    }
    best
}

/// Theorem 4 (counting bound): `C_LB = N / √(Σ_{v∈U} w_v²)` for the best
/// minimal cover `U ≠ {r}` of `G†`.
///
/// The best cover is found by the `w̃` recursion of Algorithm 5
/// (`w̃_v = min{w_v, √(Σ_{u∈ζ(v)} w̃_u²)}`), which computes exactly
/// `min_U √(Σ_{v∈U} w_v²)` over covers of each subtree; hence
/// `C_LB = N / w̃_r`. Returns `None` when the root of `G†` is a compute
/// node (then routing everything to the root is already optimal by
/// Theorem 3 and the counting bound is not needed).
fn cartesian_lower_bound_cover(tree: &Tree, stats: &PlacementStats) -> Option<LowerBound> {
    tree.require_symmetric()
        .expect("Theorem 4 requires a symmetric tree");
    let dagger = Dagger::build(tree, &stats.n);
    if tree.is_compute(dagger.root()) {
        return None;
    }
    let w_tilde = compute_w_tilde(tree, &dagger);
    let n_total = stats.total_n() as f64;
    let wr = w_tilde[dagger.root().index()];
    if wr <= 0.0 || !wr.is_finite() {
        return None;
    }
    Some(LowerBound::new(n_total / wr, None))
}

/// The pointwise max of Theorems 3 and 4.
pub fn cartesian_lower_bound(tree: &Tree, stats: &PlacementStats) -> LowerBound {
    let cut = cartesian_lower_bound_cut(tree, stats);
    match cartesian_lower_bound_cover(tree, stats) {
        Some(cover) => cut.max(cover),
        None => cut,
    }
}

/// Which `G†` nodes have a compute node in their subtree. Barren (router
/// only) branches produce no output, so they are excluded from the `w̃`
/// recursion and from the packing budget — the paper's w.l.o.g. "every
/// leaf is a compute node" makes every branch fertile, but we support
/// arbitrary trees.
pub(crate) fn fertile_nodes(tree: &Tree, dagger: &Dagger) -> Vec<bool> {
    let mut fertile = vec![false; tree.num_nodes()];
    for v in dagger.post_order() {
        fertile[v.index()] =
            tree.is_compute(v) || dagger.children(v).iter().any(|&u| fertile[u.index()]);
    }
    fertile
}

/// The `w̃` recursion of Algorithm 5 over `G†` (indexed by node id),
/// restricted to fertile branches.
pub(crate) fn compute_w_tilde(tree: &Tree, dagger: &Dagger) -> Vec<f64> {
    let fertile = fertile_nodes(tree, dagger);
    let mut w_tilde = vec![0.0f64; tree.num_nodes()];
    for v in dagger.post_order() {
        if !fertile[v.index()] {
            continue;
        }
        let kids: Vec<_> = dagger
            .children(v)
            .iter()
            .copied()
            .filter(|&u| fertile[u.index()])
            .collect();
        if kids.is_empty() {
            w_tilde[v.index()] = dagger.out_bandwidth(tree, v).map_or(0.0, |b| b.get());
        } else {
            let sub: f64 = kids
                .iter()
                .map(|&u| w_tilde[u.index()] * w_tilde[u.index()])
                .sum::<f64>()
                .sqrt();
            w_tilde[v.index()] = match dagger.out_bandwidth(tree, v) {
                Some(w) => w.get().min(sub),
                None => sub, // the root takes √(Σ ζ(r) w̃²)
            };
        }
    }
    w_tilde
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_simulator::{Placement, Rel};
    use tamp_topology::{builders, NodeId};

    fn uniform_star_placement(p: usize, per_node: u64) -> (Tree, Placement) {
        let t = builders::star(p, 1.0);
        let mut pl = Placement::empty(&t);
        let mut next = 0u64;
        for &v in t.compute_nodes() {
            for _ in 0..per_node / 2 {
                pl.push(v, Rel::R, next);
                next += 1;
            }
            for _ in 0..per_node / 2 {
                pl.push(v, Rel::S, 1_000_000 + next);
                next += 1;
            }
        }
        (t, pl)
    }

    #[test]
    fn cut_bound_on_uniform_star() {
        let (t, pl) = uniform_star_placement(4, 10);
        let lb = cartesian_lower_bound_cut(&t, &pl.stats());
        // Every leaf cut is min{10, 30} = 10 over bw 1.
        assert_eq!(lb.value(), 10.0);
    }

    #[test]
    fn cover_bound_on_uniform_star() {
        let (t, pl) = uniform_star_placement(4, 10);
        // G† root is the hub (router); U = the 4 leaves, each w = 1:
        // LB = N / √4 = 40 / 2 = 20.
        let lb = cartesian_lower_bound_cover(&t, &pl.stats()).unwrap();
        assert!((lb.value() - 20.0).abs() < 1e-9);
        // Combined takes the max.
        assert_eq!(cartesian_lower_bound(&t, &pl.stats()).value(), 20.0);
    }

    #[test]
    fn cover_bound_none_when_root_is_compute() {
        let t = builders::star(3, 1.0);
        let mut pl = Placement::empty(&t);
        pl.set_r(NodeId(0), (0..80).collect());
        pl.set_s(NodeId(0), (100..180).collect());
        pl.set_s(NodeId(1), (200..210).collect());
        // Node 0 holds > N/2 ⇒ it is the root of G†.
        assert!(cartesian_lower_bound_cover(&t, &pl.stats()).is_none());
        assert!(cartesian_lower_bound(&t, &pl.stats()).value() > 0.0);
    }

    #[test]
    fn w_tilde_caps_at_uplink() {
        // Rack tree with thin uplinks: w̃ of a rack router is capped by its
        // uplink, so the best cover uses the uplinks, not the leaves.
        // (Three racks so that every rack side is strictly light and the
        // core router is the root of G†.)
        let t = builders::rack_tree(&[(4, 10.0, 1.0), (4, 10.0, 1.0), (4, 10.0, 1.0)], 1.0);
        let mut pl = Placement::empty(&t);
        for &v in t.compute_nodes() {
            pl.set_r(v, vec![v.index() as u64]);
            pl.set_s(v, vec![100 + v.index() as u64]);
        }
        let stats = pl.stats();
        let dagger = Dagger::build(&t, &stats.n);
        assert!(!t.is_compute(dagger.root()));
        let wt = compute_w_tilde(&t, &dagger);
        // Rack router w̃ = min{1, √(4·10²)} = 1; root = √(1+1+1) = √3.
        assert!((wt[dagger.root().index()] - 3f64.sqrt()).abs() < 1e-9);
        let lb = cartesian_lower_bound_cover(&t, &stats).unwrap();
        assert!((lb.value() - 24.0 / 3f64.sqrt()).abs() < 1e-9);
    }
}
