//! # tamp-core
//!
//! The algorithms and lower bounds of *"Algorithms for a Topology-aware
//! Massively Parallel Computation Model"* (Hu, Koutris, Blanas — PODS
//! 2021), implemented against the executable cost model of
//! [`tamp_simulator`].
//!
//! | Paper section | Module |
//! |---------------|--------|
//! | §3 set intersection (Thm 1, Algs 1–3) | [`intersection`] |
//! | §4 cartesian product (Thms 3–5, wHC, Alg 5) | [`cartesian`] |
//! | App. A.1 unequal cartesian product on stars | [`cartesian::unequal`] |
//! | §5 sorting (Thm 6, weighted TeraSort) | [`sorting`] |
//! | §3.3 closing remark: bandwidth-oblivious routing | [`robustness`] |
//! | §6 related work: distribution-aware aggregation (extension) | [`aggregate`] |
//!
//! The paper's open problems — unequal cartesian products on general
//! trees (§4.5) and non-tree topologies (§7) — are not implemented.
//!
//! Each task module also ships the **topology-agnostic baseline** its
//! algorithm generalizes (uniform hash join, the classic HyperCube, classic
//! TeraSort), so that the paper's "who wins" claims can be measured, and a
//! `*_lower_bound` function evaluating the task's per-edge lower bound on a
//! concrete topology and placement. [`ratio`](ratio::ratio) computes
//! `cost(algorithm) / lower bound` — the quantity Table 1 bounds.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod cartesian;
pub mod hashing;
pub mod intersection;
pub mod ratio;
pub mod robustness;
mod send_groups;
pub mod sorting;

pub use ratio::{ratio, LowerBound};
