//! Error type for query planning and execution.

use std::fmt;
use std::time::Duration;

use tamp_topology::{EdgeId, NodeId};

/// Errors raised while building schemas, planning or executing queries.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A column name appears twice in a schema.
    DuplicateColumn(String),
    /// A column name is empty.
    EmptyColumnName,
    /// A referenced column does not exist.
    UnknownColumn(String),
    /// A referenced table does not exist in the catalog.
    UnknownTable(String),
    /// A row's width does not match its schema.
    WidthMismatch {
        /// Expected width from the schema.
        expected: usize,
        /// Actual row width.
        actual: usize,
    },
    /// An expression referenced a column index out of range.
    ColumnOutOfRange {
        /// Referenced index.
        index: usize,
        /// Row width.
        width: usize,
    },
    /// Division by zero during expression evaluation.
    DivideByZero,
    /// The underlying simulator rejected the execution.
    Simulator(String),
    /// The selected execution backend failed or cannot run queries.
    Backend(String),
    /// Plan construction error (e.g. aggregate of a non-existent column).
    Plan(String),
    /// A forced physical strategy name is not registered for the
    /// operator (or the registry has no strategies for it at all).
    UnknownStrategy {
        /// The operator being planned (`join`, `cross-join`, …).
        operator: &'static str,
        /// The requested strategy name.
        name: String,
        /// The names that *are* registered for the operator.
        available: Vec<String>,
    },
    /// `QueryService::with_max_inflight(0)` — a zero-slot admission gate
    /// can never admit a query, so the limit is rejected at construction
    /// instead of deadlocking the first submit (mirror of the runtime's
    /// `InvalidPoolWidth` fix).
    InvalidAdmissionLimit,
    /// An injected fault killed the query mid-execution (see
    /// [`tamp_runtime::FaultPlan`]). The orchestration layer recovers by
    /// deterministic replay on a healthy crew; this surfaces only when a
    /// query is served without a recovery layer.
    FaultInjected {
        /// The failed compute node.
        node: NodeId,
        /// The superstep at which it failed.
        round: usize,
    },
    /// An injected link degradation aborted the query mid-execution. Like
    /// [`FaultInjected`](Self::FaultInjected) this is recoverable: replay
    /// (from the last checkpoint, if any) re-executes the deterministic
    /// schedule. Re-pricing plans for the degraded network is a separate,
    /// explicit step ([`degrade_link`](crate::service::QueryService::degrade_link)).
    LinkDegraded {
        /// The degraded edge.
        edge: EdgeId,
        /// The superstep at which the degradation fired.
        round: usize,
        /// Bandwidth division factor (> 1 slows the link).
        factor: f64,
    },
    /// A superstep exceeded the configured watchdog deadline. The node is
    /// the deterministically-attributed straggler (first unreported
    /// compute node). Recoverable by replay.
    SuperstepTimeout {
        /// The straggler.
        node: NodeId,
        /// The superstep that timed out.
        round: usize,
        /// The configured deadline it exceeded.
        deadline: Duration,
    },
    /// A [`FaultPlan`](tamp_runtime::FaultPlan) named an impossible
    /// target (router or out-of-range node, unknown edge, non-finite
    /// degradation factor). Rejected with this typed error instead of
    /// silently not firing.
    InvalidFaultTarget(String),
    /// Replay recovery gave up: every one of the policy's
    /// `max_attempts` executions failed with a recoverable fault. Carries
    /// the final attempt's error.
    RecoveryExhausted {
        /// Total executions attempted (= `RetryPolicy::max_attempts`).
        attempts: u32,
        /// The error that killed the last attempt.
        last: Box<QueryError>,
    },
    /// A query named a tenant the orchestrator has no spec for.
    UnknownTenant(String),
    /// A tenant is at its quota (max in-flight + queued); the submit is
    /// rejected instead of queued so one tenant cannot grow the queue
    /// without bound.
    TenantQueueFull {
        /// The tenant at quota.
        tenant: String,
        /// The configured quota.
        quota: usize,
    },
    /// A tenant spec is invalid (empty name, duplicate name, zero weight
    /// or zero quota).
    InvalidTenantSpec(String),
    /// A crew-width spec is invalid (a zero width, or `min != max`:
    /// the orchestrator's crew is fixed).
    InvalidScalingSpec(String),
    /// An iterative fixpoint (see [`crate::iterative`]) failed to
    /// converge within its iteration budget. Carries the budget, the
    /// iterations actually run, and the final residual so callers can
    /// re-submit with a larger budget or loosened tolerance. *Not*
    /// recoverable by replay — the fixpoint is deterministic, so a
    /// replay would fail identically; the orchestrator rolls these up
    /// per tenant instead of retrying.
    IterationLimit {
        /// The configured `IterativeSpec::max_iters`.
        limit: usize,
        /// Iterations completed before giving up.
        completed: usize,
        /// The convergence residual after the last completed iteration.
        residual: f64,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateColumn(c) => write!(f, "duplicate column name `{c}`"),
            Self::EmptyColumnName => write!(f, "empty column name"),
            Self::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            Self::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            Self::WidthMismatch { expected, actual } => {
                write!(
                    f,
                    "row width {actual} does not match schema width {expected}"
                )
            }
            Self::ColumnOutOfRange { index, width } => {
                write!(f, "column index {index} out of range for width-{width} row")
            }
            Self::DivideByZero => write!(f, "division by zero"),
            Self::Simulator(msg) => write!(f, "simulator error: {msg}"),
            Self::Backend(msg) => write!(f, "execution backend error: {msg}"),
            Self::Plan(msg) => write!(f, "plan error: {msg}"),
            Self::UnknownStrategy {
                operator,
                name,
                available,
            } => {
                write!(
                    f,
                    "no `{name}` strategy registered for {operator} (available: {})",
                    if available.is_empty() {
                        "none".to_string()
                    } else {
                        available.join(", ")
                    }
                )
            }
            Self::InvalidAdmissionLimit => {
                write!(f, "max_inflight must be at least 1 (got 0)")
            }
            Self::FaultInjected { node, round } => {
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
                    "superstep {round} exceeded the {deadline:?} watchdog deadline \
                     (straggler: node {node})"
                )
            }
            Self::InvalidFaultTarget(msg) => write!(f, "invalid fault target: {msg}"),
            Self::RecoveryExhausted { attempts, last } => {
                write!(f, "recovery exhausted after {attempts} attempts: {last}")
            }
            Self::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
            Self::TenantQueueFull { tenant, quota } => {
                write!(f, "tenant `{tenant}` is at its quota of {quota} queries")
            }
            Self::InvalidTenantSpec(msg) => write!(f, "invalid tenant spec: {msg}"),
            Self::InvalidScalingSpec(msg) => write!(f, "invalid scaling spec: {msg}"),
            Self::IterationLimit {
                limit,
                completed,
                residual,
            } => {
                write!(
                    f,
                    "fixpoint did not converge within {limit} iterations \
                     ({completed} completed, residual {residual:.3e})"
                )
            }
        }
    }
}

impl QueryError {
    /// `true` for faults the orchestration layer recovers from by replay:
    /// injected kills, link degradations and straggler timeouts. Mirrors
    /// `RuntimeError::is_recoverable`.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            QueryError::FaultInjected { .. }
                | QueryError::LinkDegraded { .. }
                | QueryError::SuperstepTimeout { .. }
        )
    }
}

impl std::error::Error for QueryError {}

impl From<tamp_simulator::SimError> for QueryError {
    fn from(e: tamp_simulator::SimError) -> Self {
        QueryError::Simulator(e.to_string())
    }
}

impl From<tamp_runtime::ExecError> for QueryError {
    fn from(e: tamp_runtime::ExecError) -> Self {
        match e {
            tamp_runtime::ExecError::Sim(e) => QueryError::from(e),
            // Injected faults keep their typed identity: the orchestration
            // layer matches on this to trigger replay recovery.
            tamp_runtime::ExecError::Runtime(tamp_runtime::RuntimeError::InjectedFault {
                node,
                round,
            }) => QueryError::FaultInjected { node, round },
            tamp_runtime::ExecError::Runtime(tamp_runtime::RuntimeError::LinkDegraded {
                edge,
                round,
                factor,
            }) => QueryError::LinkDegraded {
                edge,
                round,
                factor,
            },
            tamp_runtime::ExecError::Runtime(tamp_runtime::RuntimeError::SuperstepTimeout {
                node,
                round,
                deadline,
            }) => QueryError::SuperstepTimeout {
                node,
                round,
                deadline,
            },
            tamp_runtime::ExecError::Runtime(tamp_runtime::RuntimeError::InvalidFaultTarget {
                fault,
            }) => QueryError::InvalidFaultTarget(fault),
            other => QueryError::Backend(other.to_string()),
        }
    }
}

impl From<tamp_runtime::RuntimeError> for QueryError {
    fn from(e: tamp_runtime::RuntimeError) -> Self {
        // Backend selection/config errors (unknown specs, zero-width
        // pools) surface with their typed runtime message intact.
        QueryError::Backend(e.to_string())
    }
}
