//! Fixture: a two-crate workspace with one `pub` item in each U1 class.
//! The census reads `only_in_comment` and `only_in_string` as named
//! nowhere: elsewhere they appear only in a comment and in a string.

mod other;

/// Called by crate `b`'s library: used.
pub fn used() {}

/// Reached through `make`'s signature, which crate `b` calls: used.
pub struct Made;

/// Called by crate `b`: used, and so is the type it returns.
pub fn make() -> Made {
    Made
}

/// Called by `benchmark/src`, the API's real traffic: used.
pub fn bench_only() {}

/// Called by another file of this crate only: own crate only.
pub fn own_crate() {}

/// Called by the integration test only: tests only.
pub fn tested() {}

/// Called only in a doc test, which compiles as an external crate:
/// tests only.
///
/// ```
/// a::in_fence();
/// ```
pub fn in_fence() {}

/// Named elsewhere only in a comment: nowhere.
pub fn only_in_comment() {}

/// Named elsewhere only in a string: nowhere.
pub fn only_in_string() {}

/// A field read only in this file: nowhere.
pub struct Local {
    /// Read by `Local::get`.
    pub value: u32,
}

impl Local {
    /// Called by crate `b`: used.
    pub fn get(&self) -> u32 {
        self.value
    }
}

/// Not censused: restricted visibility.
pub(crate) fn restricted() {}
