//! Placement strategies: where the input starts.
//!
//! The paper's algorithms are *distribution-aware*; these strategies span
//! the benign (uniform) to the adversarial (everything far from where it
//! is needed, or piled on the slowest link).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tamp_simulator::{Placement, Rel, Value};
use tamp_topology::{NodeId, Tree};

use crate::sets::Workload;

/// How to scatter a [`Workload`] over the compute nodes of a tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlacementStrategy {
    /// Independently uniform over compute nodes.
    Uniform,
    /// Zipf-distributed over compute nodes: node `i` (in id order) gets
    /// mass `∝ 1/(i+1)^alpha`.
    Zipf {
        /// Skew parameter (0 = uniform, 1+ = heavily skewed).
        alpha: f64,
    },
    /// Everything on the `k`-th compute node (in id order).
    SingleNode {
        /// Index into the compute-node list.
        k: usize,
    },
    /// `R` entirely on the first compute node, `S` entirely on the last —
    /// maximal separation of the two relations.
    Separated,
    /// Mass proportional to each leaf's adjacent-link bandwidth (the
    /// "friendly" placement: data already sits behind fat links).
    ProportionalToBandwidth,
    /// Mass *inversely* proportional to bandwidth (the hostile placement:
    /// data piles up behind thin links).
    InverseBandwidth,
}

impl PlacementStrategy {
    /// Materialize a placement of `workload` on `tree`'s compute nodes.
    pub fn place(&self, tree: &Tree, workload: &Workload, seed: u64) -> Placement {
        let weights = self.node_weights(tree);
        let mut placement = Placement::empty(tree);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9C3A_77EE);
        match self {
            PlacementStrategy::Separated => {
                let vc = tree.compute_nodes();
                let first = vc[0];
                let last = vc[vc.len() - 1];
                placement.set_r(first, workload.r.to_vec());
                placement.set_s(last, workload.s.to_vec());
            }
            _ => {
                scatter(
                    &mut placement,
                    &workload.r,
                    Rel::R,
                    tree,
                    &weights,
                    &mut rng,
                );
                scatter(
                    &mut placement,
                    &workload.s,
                    Rel::S,
                    tree,
                    &weights,
                    &mut rng,
                );
            }
        }
        placement
    }

    /// Per-compute-node placement weights (aligned with
    /// `tree.compute_nodes()`).
    pub(crate) fn node_weights(&self, tree: &Tree) -> Vec<f64> {
        let vc = tree.compute_nodes();
        match *self {
            PlacementStrategy::Uniform | PlacementStrategy::Separated => vec![1.0; vc.len()],
            PlacementStrategy::Zipf { alpha } => (0..vc.len())
                .map(|i| 1.0 / ((i + 1) as f64).powf(alpha))
                .collect(),
            PlacementStrategy::SingleNode { k } => {
                let mut w = vec![0.0; vc.len()];
                w[k.min(vc.len() - 1)] = 1.0;
                w
            }
            PlacementStrategy::ProportionalToBandwidth => {
                vc.iter().map(|&v| leaf_bandwidth(tree, v)).collect()
            }
            PlacementStrategy::InverseBandwidth => vc
                .iter()
                .map(|&v| 1.0 / leaf_bandwidth(tree, v).max(1e-12))
                .collect(),
        }
    }
}

fn leaf_bandwidth(tree: &Tree, v: NodeId) -> f64 {
    // Min bandwidth over the node's incident directions, finite fallback.
    tree.neighbors(v)
        .iter()
        .map(|&(_, e)| {
            let fwd = tree
                .bandwidth(tamp_topology::DirEdgeId::new(e, false))
                .get();
            let rev = tree.bandwidth(tamp_topology::DirEdgeId::new(e, true)).get();
            fwd.min(rev)
        })
        .fold(f64::INFINITY, f64::min)
        .min(1e12)
}

fn scatter(
    placement: &mut Placement,
    values: &[Value],
    rel: Rel,
    tree: &Tree,
    weights: &[f64],
    rng: &mut StdRng,
) {
    let vc = tree.compute_nodes();
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "placement weights must not all be zero");
    let cum: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, &w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    for &x in values {
        let t = rng.random::<f64>() * total;
        let i = cum.partition_point(|&c| c < t).min(vc.len() - 1);
        placement.push(vc[i], rel, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::SetSpec;
    use tamp_topology::builders;

    fn workload() -> Workload {
        SetSpec::new(400, 800).with_intersection(100).generate(1)
    }

    #[test]
    fn uniform_spreads_everything() {
        let t = builders::star(4, 1.0);
        let p = PlacementStrategy::Uniform.place(&t, &workload(), 7);
        p.validate(&t).unwrap();
        let stats = p.stats();
        assert_eq!(stats.total_r, 400);
        assert_eq!(stats.total_s, 800);
        for &v in t.compute_nodes() {
            assert!(stats.n_v(v) > 150, "node {v} got {}", stats.n_v(v));
        }
    }

    #[test]
    fn single_node_concentrates() {
        let t = builders::star(4, 1.0);
        let p = PlacementStrategy::SingleNode { k: 2 }.place(&t, &workload(), 7);
        let stats = p.stats();
        assert_eq!(stats.n_v(t.compute_nodes()[2]), 1200);
    }

    #[test]
    fn separated_splits_relations() {
        let t = builders::caterpillar(3, 2, 1.0);
        let p = PlacementStrategy::Separated.place(&t, &workload(), 7);
        let vc = t.compute_nodes();
        assert_eq!(p.node(vc[0]).r.len(), 400);
        assert_eq!(p.node(vc[vc.len() - 1]).s.len(), 800);
    }

    #[test]
    fn zipf_skews_to_early_nodes() {
        let t = builders::star(8, 1.0);
        let p = PlacementStrategy::Zipf { alpha: 1.5 }.place(&t, &workload(), 7);
        let stats = p.stats();
        let first = stats.n_v(t.compute_nodes()[0]);
        let last = stats.n_v(t.compute_nodes()[7]);
        assert!(first > 4 * last.max(1), "first {first}, last {last}");
    }

    #[test]
    fn bandwidth_strategies_follow_links() {
        let t = builders::heterogeneous_star(&[16.0, 1.0]);
        let w = workload();
        let prop = PlacementStrategy::ProportionalToBandwidth.place(&t, &w, 7);
        let inv = PlacementStrategy::InverseBandwidth.place(&t, &w, 7);
        let vc = t.compute_nodes();
        assert!(prop.stats().n_v(vc[0]) > 8 * prop.stats().n_v(vc[1]).max(1));
        assert!(inv.stats().n_v(vc[1]) > 8 * inv.stats().n_v(vc[0]).max(1));
    }

    #[test]
    fn placement_is_deterministic() {
        let t = builders::star(4, 1.0);
        let w = workload();
        let a = PlacementStrategy::Uniform.place(&t, &w, 9);
        let b = PlacementStrategy::Uniform.place(&t, &w, 9);
        for v in t.nodes() {
            assert_eq!(a.node(v), b.node(v));
        }
    }
}
