//! Error type for cluster execution.

use std::fmt;
use std::time::Duration;

use tamp_topology::{EdgeId, NodeId, Tree};

use crate::fault::{FaultEvent, FaultKind};

/// Render a caught panic payload for error reporting: the `&str` or
/// `String` message when the panic carried one, a placeholder otherwise.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Errors raised while selecting a backend or replaying a job on the
/// cluster.
///
/// `Eq` is deliberately absent: the link-degradation variant carries the
/// `f64` degradation factor.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The job's schedule was not built for the tree it was executed on:
    /// the node counts differ, or a send originates at or is addressed to
    /// anything but a compute node of this tree. Raised by
    /// [`ScheduleJob::check`](crate::jobs::ScheduleJob::check) on every
    /// backend, before anything runs.
    ScheduleMismatch {
        /// The rejected job.
        job: String,
        /// What does not fit.
        reason: String,
    },
    /// A backend spec string (`TAMP_BACKEND`, CLI flags, …) named no known
    /// engine. The error message lists every valid spec.
    UnknownBackend {
        /// The unrecognized spec, verbatim.
        spec: String,
    },
    /// A backend spec requested a worker pool of width zero
    /// (`"cluster:0"`). A zero-thread crew can never run a superstep, so
    /// the spec is rejected instead of constructing a degenerate pool.
    InvalidPoolWidth {
        /// The offending spec, verbatim.
        spec: String,
    },
    /// An armed [`FaultPlan`](crate::fault::FaultPlan) fired: the worker
    /// on `node` was killed at superstep `round` and the run aborted.
    /// When several nodes die in one superstep, the lowest-indexed one is
    /// named, at every worker count.
    /// Recovery is re-execution on a healthy (disarmed) crew — the
    /// deterministic schedule makes the retry bit-identical to a
    /// fault-free run.
    InjectedFault {
        /// The first (lowest-indexed) node that was killed.
        node: NodeId,
        /// The superstep at which it was killed.
        round: usize,
    },
    /// An armed [`FaultPlan`](crate::fault::FaultPlan) degraded a link:
    /// the edge lost bandwidth mid-run and the run aborted so the
    /// serving layer can re-price plans against the degraded topology.
    /// Recovery replays the pinned (pre-degradation) schedule, which is
    /// bit-identical by construction; *new* queries see the re-weighted
    /// tree.
    LinkDegraded {
        /// The degraded edge.
        edge: EdgeId,
        /// The superstep at which the degradation fired.
        round: usize,
        /// Bandwidth divisor (2.0 = the link halved).
        factor: f64,
    },
    /// A superstep did not complete within the configured watchdog
    /// deadline
    /// ([`ClusterOptions::superstep_deadline`](crate::cluster::ClusterOptions)).
    /// The straggling node is the
    /// lowest-indexed compute node that had not reported when the
    /// deadline expired.
    SuperstepTimeout {
        /// The slowest (lowest unreported) node when the watchdog fired.
        node: NodeId,
        /// The superstep that timed out.
        round: usize,
        /// The deadline it missed.
        deadline: Duration,
    },
    /// A [`FaultPlan`](crate::fault::FaultPlan) named an invalid target:
    /// a kill or stall on a routing-only or out-of-range node, a detach
    /// of an out-of-range root, or a degradation of an out-of-range edge
    /// or with a non-finite/non-positive factor. Raised eagerly when the
    /// plan is armed (or at run start), never silently ignored.
    InvalidFaultTarget {
        /// Human-readable description of the offending fault.
        fault: String,
    },
}

impl RuntimeError {
    /// Whether the orchestrator's recovery loop may retry after this
    /// error. Injected kills, link degradations, and straggler timeouts
    /// are recoverable (the deterministic schedule replays bit-identically
    /// on a healthy crew); everything else is a hard error.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            Self::InjectedFault { .. } | Self::LinkDegraded { .. } | Self::SuperstepTimeout { .. }
        )
    }

    /// The [`FaultEvent`] a recoverable error stands for, attributed as
    /// the run's fired-event log attributes it: the killed worker, the
    /// straggler, or a degraded edge's deeper endpoint on `tree`. `None`
    /// for a hard error.
    pub fn fault_event(&self, tree: &Tree) -> Option<FaultEvent> {
        let (node, round, kind) = match *self {
            Self::InjectedFault { node, round } => (node, round, FaultKind::WorkerKilled),
            Self::SuperstepTimeout { node, round, .. } => (node, round, FaultKind::Straggler),
            Self::LinkDegraded {
                edge,
                round,
                factor,
            } => {
                let kind = FaultKind::LinkDegraded { edge, factor };
                (tree.deeper_endpoint(edge), round, kind)
            }
            _ => return None,
        };
        Some(FaultEvent { node, round, kind })
    }
}

/// The specs [`backend_from_spec`](crate::backend::backend_from_spec)
/// recognizes, for error messages and `--help` text.
pub const VALID_BACKEND_SPECS: &[&str] = &["simulator", "sim", "pooled-cluster[:N]", "cluster[:N]"];

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ScheduleMismatch { job, reason } => {
                write!(f, "job `{job}` does not fit this tree: {reason}")
            }
            Self::UnknownBackend { spec } => {
                write!(
                    f,
                    "unknown backend spec `{spec}` (valid: {})",
                    VALID_BACKEND_SPECS
                        .iter()
                        .map(|s| format!("`{s}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            Self::InvalidPoolWidth { spec } => {
                write!(
                    f,
                    "backend spec `{spec}` requests a zero-width worker pool (need N \u{2265} 1)"
                )
            }
            Self::InjectedFault { node, round } => {
                write!(
                    f,
                    "injected fault: worker on node {node} killed at superstep {round}"
                )
            }
            Self::LinkDegraded {
                edge,
                round,
                factor,
            } => {
                write!(
                    f,
                    "injected fault: link {} degraded by {factor}x at superstep {round}",
                    edge.index()
                )
            }
            Self::SuperstepTimeout {
                node,
                round,
                deadline,
            } => {
                write!(
                    f,
                    "superstep {round} exceeded the {deadline:?} watchdog deadline (straggler: node {node})"
                )
            }
            Self::InvalidFaultTarget { fault } => {
                write!(f, "invalid fault target: {fault}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}
