//! Execution options: strategy forcing and seeding.

use crate::physical::strategy::OperatorKind;

/// Per-operator forced strategy names (`None` = cost-based choice). The
/// names resolve against the session's registry at plan time; unknown
/// names surface as
/// [`QueryError::UnknownStrategy`](crate::error::QueryError).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct StrategyForce {
    /// Force the equi-join strategy.
    pub join: Option<&'static str>,
    /// Force the cross-join strategy.
    pub cross: Option<&'static str>,
    /// Force the sort strategy.
    pub sort: Option<&'static str>,
    /// Force the aggregate strategy.
    pub aggregate: Option<&'static str>,
}

impl StrategyForce {
    /// The name forced for `op`, if any (`distinct` and `limit` have a
    /// single built-in strategy and are never forced).
    pub(crate) fn get(self, op: OperatorKind) -> Option<&'static str> {
        match op {
            OperatorKind::Join => self.join,
            OperatorKind::CrossJoin => self.cross,
            OperatorKind::Sort => self.sort,
            OperatorKind::Aggregate => self.aggregate,
            OperatorKind::Distinct | OperatorKind::Limit => None,
        }
    }
}

/// Execution options.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ExecOptions {
    /// Seed for hashing and sampling.
    pub seed: u64,
    /// Per-operator forced strategies (by registry name).
    pub(crate) force: StrategyForce,
}
