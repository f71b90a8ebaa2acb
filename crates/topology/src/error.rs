//! Error type for topology construction and validation.

use std::fmt;

/// Errors raised while building or validating a topology.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// The edge set does not form a connected graph.
    Disconnected,
    /// The edge set contains a cycle (or a duplicate edge), so it is not a tree.
    NotATree,
    /// An edge references a node id that does not exist.
    UnknownNode(usize),
    /// An operation references an edge id that does not exist.
    UnknownEdge(usize),
    /// A self-loop `(v, v)` was supplied.
    SelfLoop(usize),
    /// A bandwidth was zero, negative or NaN.
    InvalidBandwidth(f64),
    /// The topology has no compute nodes.
    NoComputeNodes,
    /// The operation requires a symmetric topology but the edge is asymmetric.
    NotSymmetric {
        /// Tail of the offending edge.
        u: usize,
        /// Head of the offending edge.
        v: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Disconnected => write!(f, "edge set does not form a connected graph"),
            Self::NotATree => write!(f, "edge set is not a tree (cycle or duplicate edge)"),
            Self::UnknownNode(v) => write!(f, "edge references unknown node {v}"),
            Self::UnknownEdge(e) => write!(f, "unknown edge {e}"),
            Self::SelfLoop(v) => write!(f, "self loop on node {v}"),
            Self::InvalidBandwidth(w) => write!(f, "invalid bandwidth {w} (must be > 0, not NaN)"),
            Self::NoComputeNodes => write!(f, "topology has no compute nodes"),
            Self::NotSymmetric { u, v } => {
                write!(f, "edge ({u}, {v}) has direction-dependent bandwidth")
            }
        }
    }
}

impl std::error::Error for TopologyError {}
