//! Cartesian product (Section 4).
//!
//! Given `R` and `S` with `|R| = |S| = N/2` partitioned over the compute
//! nodes, enumerate `R × S`. Two lower bounds constrain any algorithm:
//!
//! - **Theorem 3** (cut bound): `C_LB = max_e (1/w_e) ·
//!   min{Σ_{V⁻_e} N_v, Σ_{V⁺_e} N_v}` — data must cross every cut;
//! - **Theorem 4** (counting bound): for any minimal cover `U ≠ {r}` of
//!   `G†`, `C_LB = N / √(Σ_{v∈U} w_v²)` — every output pair must be
//!   co-located at some node, and subtree output capacity scales with the
//!   square of its uplink budget.
//!
//! The matching deterministic one-round protocols assign each node a
//! *square* of the `|R| × |S|` output grid, sized proportionally to its
//! link bandwidth and rounded to a power of two so the squares pack
//! without overlap (Lemma 5):
//!
//! - [`WeightedHyperCube`] — the wHC protocol on stars (§4.2),
//!   generalizing the HyperCube / shares algorithm of Afrati–Ullman;
//! - [`StarCartesianProduct`] — Algorithm 4 (star, with the heavy-node
//!   shortcut);
//! - [`TreeCartesianProduct`] — the §4.4 protocol: everything routes
//!   through the root of `G†`, with squares packed bottom-up along `G†`
//!   by Algorithm 5 (`BalancedPackingTree`);
//! - [`unequal`] — Appendix A.1: `|R| ≠ |S|` on stars;
//! - [`UnequalTreeCartesianProduct`] — §4.5's open problem: `|R| ≠ |S|`
//!   on general trees (best-of-three heuristic, no matching lower bound
//!   known);
//! - [`UniformHyperCube`] / [`AllToOne`] — topology-agnostic baselines.

mod baseline;
pub mod grid;
mod lower_bound;
pub mod packing;
mod star;
mod tree;
pub mod unequal;
mod unequal_tree;
mod whc;

pub use baseline::{AllToOne, UniformHyperCube};
pub use lower_bound::cartesian_lower_bound;
pub use star::StarCartesianProduct;
pub use tree::{plan_tree_packing, TreeCartesianProduct, TreePlan};
pub use unequal_tree::{
    cost_all_to_node, cost_broadcast_small, unequal_tree_lower_bound, UnequalTreeCartesianProduct,
    UnequalTreeStrategy,
};
pub use whc::{plan_whc, WeightedHyperCube, WhcPlan};
