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
//! | §4.5 + App. A.1 unequal cartesian product | [`cartesian::unequal`] |
//! | §5 sorting (Thm 6, weighted TeraSort) | [`sorting`] |
//! | §6 related work: distribution-aware aggregation (extension) | [`aggregate`] |
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
pub mod general;
pub mod hashing;
pub mod intersection;
pub mod ratio;
pub mod robustness;
mod send_groups;
pub mod sorting;

pub use ratio::{ratio, LowerBound};
