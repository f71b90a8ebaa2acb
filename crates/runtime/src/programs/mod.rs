//! The one hand-written per-node derivation: the witness of the §2
//! premise.
//!
//! §2 of the paper grants every node the topology, the link bandwidths
//! and the initial cardinalities `|X_0(v)|`, so a constant-round
//! protocol's plan is a deterministic function of shared knowledge: every
//! node can derive it alone, with no coordination messages, and the sends
//! it issues for its own data are the ones a centralized planner would
//! have issued on its behalf. Everything else in this workspace relies on
//! that and ships an algorithm as a [`Schedule`](crate::jobs::Schedule)
//! for the two engines to replay; [`DistributedTreeIntersect`] is kept as
//! the evidence. Its
//! [`sends`](DistributedTreeIntersect::sends) re-derive Algorithm 2's
//! plan for one node from shared knowledge and that node's fragment
//! alone, and its [`job`](DistributedTreeIntersect::job) concatenates
//! every node's independent call. Replayed on the pooled cluster, that
//! job is cross-validated against `run_protocol(.., &TreeIntersect)` to
//! the bit (per-edge traffic, rounds, emitted sets: this module's tests,
//! `tests/runtime_parity.rs`, `tests/pooled_scale.rs`).
//!
//! Why this one: its whole plan — the balanced partition plus one weighted
//! hash per block — needs nothing but `(tree, stats, seed)`, and the
//! struct's only field is the seed. Weighted TeraSort, the tree cartesian
//! product and the two aggregations used to have per-node forms here too;
//! their cluster-executable form is the query strategy built on the same
//! `tamp-core` planning pieces (`weighted-range-shuffle`, `whc-grid`,
//! `combining-tree`, `weighted-repartition`).

pub mod intersect;

pub use intersect::DistributedTreeIntersect;
