//! Error type for query planning and execution.

use std::fmt;

use tamp_runtime::{ExecError, RuntimeError};

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
    /// The execution engine failed, with the engine's own typed error:
    /// a simulator error, a backend spec or schedule the runtime refused,
    /// an invalid fault target, or a fault that aborted the run. An
    /// injected kill, a link degradation and a superstep timeout are
    /// recoverable ([`is_recoverable`](Self::is_recoverable)): a service
    /// built with `QueryService::builder` replays the deterministic
    /// schedule on the healthy crew, so they surface only when a query is
    /// served without recovery (or its retries ran out).
    Exec(ExecError),
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
    /// Replay recovery gave up: every one of the policy's
    /// `max_attempts` executions failed with a recoverable fault. Carries
    /// the final attempt's error.
    RecoveryExhausted {
        /// Total executions attempted (= `RetryPolicy::max_attempts`).
        attempts: u32,
        /// The error that killed the last attempt.
        last: Box<QueryError>,
    },
    /// A query named a tenant the service has no spec for.
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
    /// Faults were armed on a plain service (`QueryService::new`), which
    /// has no fault hooks: only a service from `QueryService::builder`
    /// owns the crew an armed plan would strike.
    NoFaultHooks,
    /// An iterative fixpoint (see [`crate::iterative`]) failed to
    /// converge within its iteration budget. Carries the budget, the
    /// iterations actually run, and the final residual so callers can
    /// re-submit with a larger budget or loosened tolerance. *Not*
    /// recoverable by replay — the fixpoint is deterministic, so a
    /// replay would fail identically; the service rolls these up
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
            Self::Exec(ExecError::Sim(e)) => write!(f, "simulator error: {e}"),
            Self::Exec(e @ ExecError::Runtime(RuntimeError::ScheduleMismatch { .. })) => {
                write!(f, "execution backend error: {e}")
            }
            Self::Exec(ExecError::Runtime(
                e @ (RuntimeError::UnknownBackend { .. } | RuntimeError::InvalidPoolWidth { .. }),
            )) => write!(f, "execution backend error: {e}"),
            Self::Exec(ExecError::Runtime(e)) => write!(f, "{e}"),
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
            Self::RecoveryExhausted { attempts, last } => {
                write!(f, "recovery exhausted after {attempts} attempts: {last}")
            }
            Self::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
            Self::TenantQueueFull { tenant, quota } => {
                write!(f, "tenant `{tenant}` is at its quota of {quota} queries")
            }
            Self::InvalidTenantSpec(msg) => write!(f, "invalid tenant spec: {msg}"),
            Self::NoFaultHooks => write!(f, "no fault hooks: build with `QueryService::builder`"),
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
    /// `true` for the engine faults the serving layer recovers from
    /// by replay ([`RuntimeError::is_recoverable`]).
    pub fn is_recoverable(&self) -> bool {
        matches!(self, QueryError::Exec(ExecError::Runtime(e)) if e.is_recoverable())
    }
}

impl std::error::Error for QueryError {}

impl From<RuntimeError> for QueryError {
    fn from(e: RuntimeError) -> Self {
        QueryError::Exec(ExecError::Runtime(e))
    }
}
