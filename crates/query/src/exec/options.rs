//! Execution options: strategy forcing, seeding, and the batch size.

/// The default [`ExecOptions::batch_size`]: 1024 rows per batch keeps a
/// typical batch's columns inside the L2 cache while amortizing the
/// per-batch kernel dispatch to well under a nanosecond per row.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Per-operator forced strategy names (`None` = cost-based choice). The
/// names resolve against the session's registry at plan time; unknown
/// names surface as
/// [`QueryError::UnknownStrategy`](crate::error::QueryError).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct StrategyForce {
    /// Force the equi-join strategy.
    pub join: Option<&'static str>,
    /// Force the cross-join strategy.
    pub cross: Option<&'static str>,
    /// Force the sort strategy.
    pub sort: Option<&'static str>,
    /// Force the aggregate strategy.
    pub aggregate: Option<&'static str>,
}

/// Execution options.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExecOptions {
    /// Seed for hashing and sampling.
    pub seed: u64,
    /// Per-operator forced strategies (by registry name).
    pub force: StrategyForce,
    /// The row granularity of exchange sends: every payload is chunked
    /// into sends of at most this many rows (defaults to
    /// [`DEFAULT_BATCH_SIZE`]). Zero is rejected at plan
    /// time as [`QueryError::InvalidBatchSize`](crate::error::QueryError)
    /// — metered costs are invariant to the value, so any positive size
    /// is safe.
    pub batch_size: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            seed: 0,
            force: StrategyForce::default(),
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }
}
