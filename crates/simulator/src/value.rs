//! Data values, relation tags and per-node state.

/// A data element. All of the paper's tasks operate on elements of a common
/// (totally ordered) domain; we use `u64`.
pub type Value = u64;

/// Which input relation a tuple belongs to.
///
/// Set intersection and cartesian product take two inputs `R` and `S`;
/// sorting uses a single input stored under [`Rel::R`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rel {
    /// The first (by convention, smaller) input set.
    R,
    /// The second input set.
    S,
}

/// The data held by one compute node: the local fragments of `R` and `S`,
/// i.e. `X_i(v)` in the paper's notation.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct NodeState {
    /// Local fragment of `R`.
    pub r: Vec<Value>,
    /// Local fragment of `S`.
    pub s: Vec<Value>,
}

impl NodeState {
    /// Total number of elements held, `N_v = |R_v| + |S_v|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.r.len() + self.s.len()
    }

    /// `true` if the node holds nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.r.is_empty() && self.s.is_empty()
    }

    /// Access the fragment of one relation.
    #[inline]
    pub fn rel(&self, rel: Rel) -> &Vec<Value> {
        match rel {
            Rel::R => &self.r,
            Rel::S => &self.s,
        }
    }

    /// Mutable access to the fragment of one relation.
    #[inline]
    pub fn rel_mut(&mut self, rel: Rel) -> &mut Vec<Value> {
        match rel {
            Rel::R => &mut self.r,
            Rel::S => &mut self.s,
        }
    }
}
