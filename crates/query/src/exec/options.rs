//! Execution options: strategy forcing, seeding, and the batch-engine
//! knobs.

/// The default [`ExecOptions::batch_size`]: 1024 rows per batch keeps a
/// typical batch's columns inside the L2 cache while amortizing the
/// per-batch kernel dispatch to well under a nanosecond per row.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Which engine evaluates the plan's operators. Both engines produce
/// bit-identical rows and metered `edge_totals` (the parity proptests
/// assert it); they differ only in speed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Column-at-a-time kernels over
    /// [`RecordBatch`](crate::batch::RecordBatch)es — the default engine.
    #[default]
    Columnar,
    /// The row-at-a-time reference interpreter (one `Vec<Value>` per
    /// row). Kept as the oracle the batch engine is tested against.
    Tuple,
}

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
    /// Rows per [`RecordBatch`](crate::batch::RecordBatch) on the batch
    /// engine, and the row granularity of exchange sends on both engines
    /// (defaults to [`DEFAULT_BATCH_SIZE`]). Zero is rejected at plan
    /// time as [`QueryError::InvalidBatchSize`](crate::error::QueryError)
    /// — metered costs are invariant to the value, so any positive size
    /// is safe.
    pub batch_size: usize,
    /// Which engine runs the plan (columnar batches by default).
    pub mode: ExecMode,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            seed: 0,
            force: StrategyForce::default(),
            batch_size: DEFAULT_BATCH_SIZE,
            mode: ExecMode::default(),
        }
    }
}
