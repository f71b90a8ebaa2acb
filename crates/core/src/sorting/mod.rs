//! Sorting (Section 5).
//!
//! Given a set `R` from a totally ordered domain, redistribute it so that
//! along a *valid ordering* of the compute nodes (a left-to-right traversal
//! of the tree) every node holds a sorted run and runs are globally
//! ordered. Theorem 6 lower-bounds any algorithm by
//! `max_e (1/w_e) · min{Σ_{V⁻_e} N_v, Σ_{V⁺_e} N_v}` tuples, realized by an
//! adversarial odd/even interleaved initial placement.
//!
//! - [`WeightedTeraSort`] — the 4-round sampling protocol of §5.2 (wTS):
//!   light nodes first push their data to heavy nodes proportionally
//!   (Algorithm 6), heavy nodes sample, one heavy node picks splitters
//!   sized `c_j = ⌈(|V_C|/N)·M_j⌉` per node, then data is re-ranged.
//!   Theorem 7: `O(1)`-optimal w.h.p. when `N ≥ 4|V_C|²ln(|V_C|N)`;
//! - [`TeraSort`] — the classic 3-round uniform-splitter baseline
//!   (O'Malley's TeraSort, run topology-agnostically);
//! - [`sorting_lower_bound`] / [`adversarial_placement`] — Theorem 6.

mod lower_bound;
mod proportional;
pub mod splitters;
mod terasort;
mod wts;

pub use lower_bound::{adversarial_placement, sorting_lower_bound};
pub use proportional::proportional_split;
pub use splitters::{proportional_splitters, uniform_splitters};
pub use terasort::{coin, sample_rate, valid_order, TeraSort};
pub use wts::WeightedTeraSort;
