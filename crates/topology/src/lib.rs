//! # tamp-topology
//!
//! Network-topology substrate for the topology-aware massively parallel
//! computation (MPC) model of Hu, Koutris and Blanas (PODS 2021).
//!
//! The model represents the communication network as a directed graph
//! `G = (V, E)` where each edge carries a bandwidth `w_e ≥ 0`, a subset of
//! the nodes are *compute* nodes (they store data and compute), and the
//! remaining nodes only route. The paper's algorithms are developed for
//! **symmetric tree** topologies, which this crate models first-class:
//!
//! - [`Tree`] — a validated tree topology with per-direction bandwidths,
//!   unique-path routing, rootings, traversal orders and edge cuts;
//! - [`lca`] — preorder sparse-table O(1) lowest-common-ancestor
//!   queries with flat path-decomposition arrays, the routing substrate
//!   of the aggregate traffic meter;
//! - [`cut`] — O(|V|) computation of the `(V⁻_e, V⁺_e)` side-weights for
//!   *every* edge at once, the quantity all of the paper's lower bounds are
//!   expressed in;
//! - [`dagger`] — the derived directed graph `G†` of Section 4.1, its root,
//!   and minimal covers (Lemma 4 and Theorem 4);
//! - [`normalize`] — the two w.l.o.g. transformations of Section 2.1
//!   (every compute node is a leaf; no degree-2 routers);
//! - [`builders`] — constructors for the topology families discussed in the
//!   paper: stars, rack trees (Fig. 1b), fat-trees, caterpillars, random
//!   trees, and the asymmetric star that embeds the classic MPC model
//!   (Section 2.2).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bandwidth;
pub mod builders;
pub mod cut;
pub mod dagger;
pub mod error;
pub mod lca;
pub mod node;
pub mod normalize;
pub mod tree;

pub use bandwidth::Bandwidth;
pub use cut::CutWeights;
pub use dagger::Dagger;
pub use error::TopologyError;
pub use lca::LcaIndex;
pub use node::{NodeId, NodeKind};
pub use tree::{DirEdgeId, EdgeId, Tree, TreeBuilder};
