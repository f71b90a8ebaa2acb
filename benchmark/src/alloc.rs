//! A counting `#[global_allocator]` for the count pass.
//!
//! Wall time on this host measures the neighbours as much as the
//! program; the number and size of heap allocations per op do not. The
//! counters are off during every timed window (one relaxed load per
//! allocation is all the allocator adds there) and switched on only
//! around the ops of the untimed count pass. Counts are exact on the
//! single-threaded simulator backend; on the crew they move by a few
//! allocations with which worker claims which node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to the system allocator, counting while [`count`] runs.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// The counters are statistics that publish no other data, so `Relaxed`.
fn record(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a pair
// of atomic counter updates that neither allocate nor touch the block.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` with counting on; returns its result and the `(allocations,
/// bytes requested)` made meanwhile, by every thread of the process.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    let (a1, b1) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    (out, a1 - a0, b1 - b0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_switched_on() {
        // Other test threads allocate too, so the counts are lower bounds.
        let (v, allocs, bytes) = count(|| vec![7u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(
            allocs >= 1 && bytes >= 4096,
            "{allocs} allocations, {bytes} bytes"
        );
        assert!(!ENABLED.load(Ordering::Relaxed));
    }
}
