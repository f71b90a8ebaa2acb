//! # tamp-workloads
//!
//! Reproducible input and placement generators for topology-aware MPC
//! experiments.
//!
//! The paper's lower bounds and algorithms are parameterized by the
//! *initial data distribution*, so experiments need precise control over
//! both the data ([`SetSpec`], [`SortSpec`]) and where it starts
//! ([`PlacementStrategy`]). Everything is seeded: the same `(spec,
//! strategy, seed)` triple always produces the same
//! [`Placement`](tamp_simulator::Placement).
//!
//! Two scenario families ship today:
//!
//! - **Relational** ([`sets`]): seeded value sets and sort instances for
//!   the one-shot §2 protocols and the query layer, placed by a
//!   [`PlacementStrategy`].
//! - **Graph**: seeded edge relations ([`GraphSpec`] —
//!   uniform random, power-law/skewed, grid-like) plus degree-aware
//!   vertex partitions ([`VertexPartition`]) for the iterative
//!   fixpoint driver in `tamp_query::iterative`.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod graphs;
pub mod placement;
pub mod sets;

pub use graphs::{Graph, GraphSpec, VertexPartition};
pub use placement::PlacementStrategy;
pub use sets::{SetSpec, SortSpec, Workload};
