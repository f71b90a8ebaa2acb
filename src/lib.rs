//! # tamp — Topology-Aware Massively Parallel computation
//!
//! An executable reproduction of *"Algorithms for a Topology-aware Massively
//! Parallel Computation Model"* (Hu, Koutris, Blanas — PODS 2021).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! - [`topology`] — the network model: symmetric trees with per-edge
//!   bandwidths, compute vs. router nodes, cuts, the directed graph `G†`,
//!   and topology builders (stars, rack trees, fat-trees, …).
//! - [`simulator`] — the topology-aware cost model as an executable,
//!   round-based engine: protocols send routed messages, and the engine
//!   charges exactly `cost(A) = Σ_rounds max_e |Y_i(e)| / w_e`.
//! - [`core`] — the paper's algorithms and lower bounds for set
//!   intersection, cartesian product and sorting, plus the
//!   topology-agnostic baselines they generalize.
//! - [`workloads`] — reproducible input and placement generators, including
//!   the adversarial instances used in the paper's lower-bound proofs.
//! - [`runtime`] — a pooled BSP executor (a bounded worker pool absorbs
//!   each round's deliveries into the nodes' states) and the
//!   `ExecBackend` layer: an algorithm is a `Schedule`, replayed by the
//!   simulator or the cluster with bit-identical ledgers; one
//!   hand-written per-node derivation is kept as the cross-validated
//!   witness.
//! - [`query`] — a distributed relational layer (filter / project / join /
//!   order-by / group-by) whose operators map onto the paper's primitives,
//!   with per-operator cost attribution.
//!
//! ## Quickstart
//!
//! ```
//! use tamp::topology::builders;
//! use tamp::simulator::{Placement, run_protocol};
//! use tamp::core::intersection::{TreeIntersect, intersection_lower_bound};
//! use tamp::workloads::{SetSpec, PlacementStrategy};
//!
//! // A 6-machine star where one machine has a slow uplink.
//! let star = builders::heterogeneous_star(&[10.0, 10.0, 10.0, 10.0, 10.0, 1.0]);
//!
//! // Two sets with a planted intersection, placed skewed to one rack.
//! let spec = SetSpec::new(4_000, 16_000).with_intersection(512);
//! let workload = spec.generate(7);
//! let placement = PlacementStrategy::Uniform.place(&star, &workload, 7);
//!
//! // Run the paper's one-round algorithm and compare to the lower bound.
//! let outcome = run_protocol(&star, &placement, &TreeIntersect::new(42)).unwrap();
//! let lb = intersection_lower_bound(&star, &placement.stats());
//! // One round, and cost within the Theorem 2 envelope of the Theorem 1
//! // bound (the bound is Ω(·) with proof constant ½).
//! assert_eq!(outcome.rounds, 1);
//! let ratio = outcome.cost.tuple_cost() / lb.value();
//! assert!(ratio > 0.4 && ratio < 64.0, "ratio {ratio}");
//! ```

pub use tamp_core as core;
pub use tamp_query as query;
pub use tamp_runtime as runtime;
pub use tamp_simulator as simulator;
pub use tamp_topology as topology;
pub use tamp_workloads as workloads;
