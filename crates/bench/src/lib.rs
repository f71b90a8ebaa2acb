//! # tamp-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper, plus the ablation protocols used to justify individual design
//! choices.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p tamp-bench --bin experiments -- all
//! ```
//!
//! or a single experiment by id (`t1-si`, `t1-cp`, `t1-sort`, `f1`–`f5`,
//! `a1`, `x-mpc`, `x-cross`, `x-agg`, `x-groupby`, `x-runtime`,
//! `x-query`, `x-plan`, `x-strategy`, `x-scale`, `x-serve`, `x-tenant`,
//! `x-chaos`, `x-iter`, `x-alloc`, `x-lint`, `x-size`, `abl-partition`,
//! `abl-pow2`, `abl-splitters`, `abl-treepack`, `abl-drift`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub(crate) mod ablation;
pub mod baseline;
pub(crate) mod extensions;
pub(crate) mod serving;
pub mod strategies;
pub mod suite;
pub mod table;
pub mod xalloc;
pub(crate) mod xchaos;
pub(crate) mod xiter;
pub mod xlint;
pub(crate) mod xscale;
pub mod xsize;
pub(crate) mod xtenant;

pub use table::Table;
