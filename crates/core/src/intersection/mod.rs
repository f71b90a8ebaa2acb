//! Set intersection (Section 3).
//!
//! Given sets `R` and `S` partitioned over the compute nodes, enumerate
//! `R ∩ S` — each result must be emitted by at least one node. This task is
//! communication-heavy but computation-light, so the entire game is routing
//! data according to each link's share of the lower bound
//!
//! ```text
//! C_LB = max_e (1/w_e) · min{ |R|, |S|, Σ_{v∈V⁻_e} N_v, Σ_{v∈V⁺_e} N_v }
//! ```
//!
//! (Theorem 1, via lopsided set disjointness). The matching protocols are
//! single-round weighted hash joins:
//!
//! - [`StarIntersect`] — Algorithm 1, for star topologies;
//! - [`TreeIntersect`] — Algorithm 2, for arbitrary symmetric trees, built
//!   on the *balanced partition* of Definition 1 / Algorithm 3
//!   ([`partition`]);
//! - [`UniformHashJoin`] — the topology-agnostic baseline (classic
//!   MPC-style uniform hashing).
//!
//! Notably, the protocols never read link bandwidths — only the topology
//! and the initial cardinalities (the paper's closing remark of §3.3).

mod baseline;
mod lower_bound;
pub mod partition;
mod star;
mod tree;

pub use baseline::UniformHashJoin;
pub use lower_bound::intersection_lower_bound;
pub use partition::{balanced_partition, verify_balanced_partition, BalancedPartition};
pub use star::StarIntersect;
pub use tree::TreeIntersect;
