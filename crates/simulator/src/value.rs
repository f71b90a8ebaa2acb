//! Data values, shared slices of them, relation tags and per-node state.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A data element. All of the paper's tasks operate on elements of a common
/// (totally ordered) domain; we use `u64`.
pub type Value = u64;

/// A range of a shared `Arc<[T]>` buffer. It derefs, compares, hashes and
/// debug-prints as the slice it names, and a clone is a refcount bump, so
/// many sends can be cut from one buffer.
#[derive(Clone)]
pub struct SharedSlice<T> {
    buf: Arc<[T]>,
    range: Range<u32>,
}

impl<T> SharedSlice<T> {
    /// `buf[range]`, sharing `buf`. Panics if `range` is out of bounds.
    pub fn new(buf: Arc<[T]>, range: Range<usize>) -> Self {
        let _ = &buf[range.clone()];
        let range = range.start as u32..u32::try_from(range.end).expect("a u32 offset");
        SharedSlice { buf, range }
    }

    /// The whole buffer this slice is a range of.
    pub fn buffer(&self) -> &Arc<[T]> {
        &self.buf
    }
}

impl<T> Deref for SharedSlice<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf[self.range.start as usize..self.range.end as usize]
    }
}

impl<T: PartialEq> PartialEq for SharedSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for SharedSlice<T> {}

impl<T: Hash> Hash for SharedSlice<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T> From<Arc<[T]>> for SharedSlice<T> {
    fn from(buf: Arc<[T]>) -> Self {
        let len = buf.len();
        SharedSlice::new(buf, 0..len)
    }
}

impl<T: Clone, S: AsRef<[T]> + ?Sized> From<&S> for SharedSlice<T> {
    fn from(s: &S) -> Self {
        Arc::<[T]>::from(s.as_ref()).into()
    }
}

impl<T: Clone> From<Vec<T>> for SharedSlice<T> {
    fn from(v: Vec<T>) -> Self {
        SharedSlice::from(&v)
    }
}

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

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;

    use super::*;

    fn hash_of(x: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// A shared slice hashes, compares and debug-prints as the `Vec` and
    /// the `Arc<[T]>` of its elements, whichever way it was made: empty,
    /// a sub-range, the whole buffer.
    #[test]
    fn a_shared_slice_is_its_slice() {
        let buf: Arc<[Value]> = (10..20).collect();
        for range in [0..0, 4..4, 2..7, 0..10] {
            let vec: Vec<Value> = buf[range.clone()].to_vec();
            let arc: Arc<[Value]> = vec.clone().into();
            let cut = SharedSlice::new(buf.clone(), range.clone());
            assert!(Arc::ptr_eq(cut.clone().buffer(), &buf));
            assert_eq!(*cut, vec[..]);
            assert_eq!(hash_of(&cut), hash_of(&vec));
            assert_eq!(hash_of(&cut), hash_of(&arc));
            assert_eq!(format!("{cut:?}"), format!("{vec:?}"));
            assert_eq!(format!("{cut:?}"), format!("{arc:?}"));
            let made = [
                SharedSlice::from(&vec),
                SharedSlice::from(&vec[..]),
                SharedSlice::from(vec.clone()),
                SharedSlice::from(arc.clone()),
            ];
            for other in made {
                assert_eq!(other, cut, "{range:?}");
                assert_eq!(hash_of(&other), hash_of(&cut), "{range:?}");
            }
        }
        assert_ne!(
            SharedSlice::new(buf.clone(), 0..2),
            SharedSlice::new(buf, 1..3)
        );
        assert_eq!(
            SharedSlice::from(Vec::<Value>::new()),
            SharedSlice::from(&[])
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_range_past_the_buffer_is_refused() {
        let _ = SharedSlice::new(Arc::<[Value]>::from(vec![1, 2]), 1..3);
    }
}
