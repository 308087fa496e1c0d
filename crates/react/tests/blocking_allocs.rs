//! What an R1 audit allocates per alert, and the pipeline per group.
//!
//! A `TitleContains` rule compares the title and the needle case-
//! insensitively in place, so testing an alert against it allocates
//! nothing. R2 keeps no member list for the pipeline and R3 allocates
//! only the derived lists it fills, so R1 → R2 → R3 over any number of
//! groups allocates the same. This binary installs its own counting
//! allocator and pins both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use alertops_model::{Alert, AlertId, SimTime, StrategyId};
use alertops_react::blocking::{AlertBlocker, BlockCriterion, BlockRule};
use alertops_react::{audit_blocker, ReactionPipeline};

thread_local! {
    // Const-initialised and without destructors, so reading them inside
    // the allocator cannot allocate. Per thread, so tests running in
    // parallel do not count each other.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of a thread that has
/// counting on.
struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this type with the
        // same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr`/`layout` came from `System` through this type;
        // `new_size` obligations are the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the allocations it made on this
/// thread. The result is dropped by the caller, outside the count.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (result, ALLOCS.with(Cell::get))
}

/// `n` alerts on one day, every other one titled so the rule matches
/// it (in a case the rule does not spell).
fn alerts(n: u64) -> Vec<Alert> {
    (0..n)
        .map(|i| {
            let title = if i % 2 == 0 {
                "DISK USAGE over threshold on node-7"
            } else {
                "cpu utilization high on compute worker"
            };
            Alert::builder(AlertId(i), StrategyId(i % 5))
                .title(title)
                .raised_at(SimTime::from_secs(60 * i))
                .build()
        })
        .collect()
}

#[test]
fn a_title_contains_audit_allocates_nothing_per_alert() {
    let blocker: AlertBlocker = std::iter::once(BlockRule {
        name: "disk noise".into(),
        criteria: vec![BlockCriterion::TitleContains("Disk Usage".into())],
        active_window: None,
    })
    .collect();
    let (few, many) = (alerts(200), alerts(400));

    let (audit, few_allocs) = allocations(|| audit_blocker(&blocker, &few, &[]));
    assert_eq!(audit[0].total_hits, 100, "the rule matches across case");
    let (audit, many_allocs) = allocations(|| audit_blocker(&blocker, &many, &[]));
    assert_eq!(audit[0].total_hits, 200);
    assert_eq!(
        few_allocs,
        many_allocs,
        "200 more alerts cost {} more allocations",
        many_allocs.abs_diff(few_allocs)
    );
}

/// `groups` strategies alerting twice each inside one 30-minute window.
fn pairs(groups: u64) -> Vec<Alert> {
    (0..2 * groups)
        .map(|i| {
            Alert::builder(AlertId(i), StrategyId(i % groups))
                .title("cpu utilization high on compute worker")
                .raised_at(SimTime::from_secs(i))
                .build()
        })
        .collect()
}

#[test]
fn the_pipeline_allocates_the_same_for_any_number_of_groups() {
    let pipeline = ReactionPipeline::new();
    let blocker = AlertBlocker::new();
    let (few, many) = (pairs(50), pairs(500));

    let (report, few_allocs) = allocations(|| pipeline.run(&few, &blocker));
    assert_eq!(report.remaining_after("aggregation"), Some(50));
    let (report, many_allocs) = allocations(|| pipeline.run(&many, &blocker));
    assert_eq!(report.remaining_after("aggregation"), Some(500));
    assert_eq!(
        report.triage.len(),
        500,
        "no knowledge: a cluster per group"
    );
    assert_eq!(
        few_allocs,
        many_allocs,
        "450 more groups cost {} more allocations",
        many_allocs.abs_diff(few_allocs)
    );
}
