//! # tamp-simulator
//!
//! An executable implementation of the topology-aware massively parallel
//! computation **cost model** of Section 2 (Hu, Koutris, Blanas; PODS 2021,
//! after Blanas et al., CIDR 2020).
//!
//! A parallel algorithm proceeds in synchronous rounds. In each round every
//! compute node performs local computation and then sends data to other
//! compute nodes along **explicitly routed paths**. The cost of round `i`
//! is that of the most bottlenecked link,
//!
//! ```text
//! cost_i(A) = max_{e ∈ E} |Y_i(e)| / w_e ,        cost(A) = Σ_i cost_i(A)
//! ```
//!
//! where `Y_i(e)` is the data routed through directed link `e` in round `i`.
//! This crate meters `|Y_i(e)|` exactly — protocols written against
//! [`Session`] cannot move a tuple without being charged for it — and
//! reports costs both in tuples and in bits.
//!
//! Sends are **multicasts**: a value sent from `src` to a set of
//! destinations traverses each directed link of the union of routing paths
//! once. This matches the accounting used throughout the paper (e.g. in
//! Lemma 1's analysis a tuple forwarded to all of `V_β ∪ {h(a)}` crosses
//! the sender's uplink once).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cost;
pub mod engine;
pub mod error;
pub mod metering;
pub mod placement;
pub mod trace;
pub mod value;
pub mod verify;

pub use cost::{Cost, RoundCost};
pub use engine::{run_protocol, Protocol, RoundCtx, Run, Session};
pub use error::SimError;
pub use metering::TrafficMeter;
pub use placement::{Placement, PlacementStats};
pub use trace::RunReport;
pub use value::{NodeState, Rel, SharedSlice, Value};
