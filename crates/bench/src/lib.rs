//! # tamp-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper (see the experiment index in `DESIGN.md`), plus the ablation
//! protocols used to justify individual design choices.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p tamp-bench --bin experiments -- all
//! ```
//!
//! or a single experiment by id (`t1-si`, `t1-cp`, `t1-sort`, `f1`–`f5`,
//! `a1`, `x-mpc`, `x-cross`, `x-agg`, `x-groupby`, `x-general`,
//! `x-runtime`, `x-query`, `x-scale`, `x-serve`, `x-tenant`, `x-chaos`,
//! `x-uneq-tree`, `x-iter`, `x-lint`, `x-size`,
//! `abl-partition`, `abl-pow2`, `abl-splitters`, `abl-treepack`,
//! `abl-drift`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ablation;
pub mod baseline;
pub mod extensions;
pub mod serving;
pub mod strategies;
pub mod suite;
pub mod table;
pub mod xchaos;
pub mod xiter;
pub mod xlint;
pub mod xscale;
pub mod xsize;
pub mod xtenant;

pub use table::Table;
