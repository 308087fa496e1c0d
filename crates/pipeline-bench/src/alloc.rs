//! A counting global allocator for `proc.allocs_per_alert` and
//! `proc.alloc_bytes_per_alert`.
//!
//! The binary installs [`CountingAlloc`] as its `#[global_allocator]`.
//! Counting is gated by a static flag that only traced runs raise, so
//! an end-to-end run pays one relaxed load per allocation and nothing
//! else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

thread_local! {
    /// Set on the generator thread, whose allocations describe the
    /// load, not the pipeline. Const-initialised and without a
    /// destructor, so reading it inside the allocator cannot allocate.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two relaxed counters.
#[derive(Debug)]
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count(size: usize) {
        // Relaxed: the counters are statistics and publish no data.
        if COUNTING.load(Ordering::Relaxed) && !EXCLUDED.try_with(Cell::get).unwrap_or(true) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this type with the
        // same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is one more allocation of the new size: that is what
        // a `Vec` doubling costs.
        Self::count(new_size);
        // SAFETY: `ptr`/`layout` came from `System` through this type;
        // `new_size` obligations are the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Leaves the calling thread's allocations out of the counts.
pub fn exclude_this_thread() {
    EXCLUDED.with(|e| e.set(true));
}

/// Turns counting on or off (traced runs only).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far. Both stay zero when
/// the binary was built without [`CountingAlloc`] installed.
#[must_use]
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
