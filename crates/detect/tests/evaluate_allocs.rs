//! What an evaluation allocates.
//!
//! The engine keeps A2–A5 as flags and renders a finding only for a
//! flag that flips on, so a close costs the strategies that changed and
//! the flags that flipped, not the findings held. This binary installs
//! its own counting allocator to pin both halves: moving the counts of
//! N flagged strategies without flipping a flag allocates the same for
//! any N, and a window that flips k flags allocates O(k).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use alertops_detect::{AntiPattern, FlagTransitions, IncrementalState};
use alertops_model::{
    Alert, AlertId, AlertStrategy, Clearance, IndexedCatalog, LogRule, Severity, SimDuration,
    SimTime, StrategyId, StrategyKind,
};

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

/// A Critical log rule: alerts that only auto-clear imply Warning, three
/// ranks away, so A2 flags it once it has ten of them.
fn strategy(id: u64) -> AlertStrategy {
    AlertStrategy::builder(StrategyId(id))
        .title_template("haproxy process number warning")
        .severity(Severity::Critical)
        .kind(StrategyKind::Log(LogRule {
            keyword: "WARN".into(),
            min_count: 1,
            window: SimDuration::from_mins(5),
        }))
        .build()
        .expect("a well-formed row")
}

fn catalog(n: u64) -> Arc<IndexedCatalog> {
    Arc::new(IndexedCatalog::new((0..n).map(strategy).collect()))
}

/// An alert of `strategy` raised at `t` seconds that auto-clears after
/// `lasts` seconds: transient under five minutes.
fn alert(id: u64, strategy: u64, t: u64, lasts: u64) -> Alert {
    let mut alert = Alert::builder(AlertId(id), StrategyId(strategy))
        .raised_at(SimTime::from_secs(t))
        .build();
    alert
        .clear(SimTime::from_secs(t + lasts), Clearance::Auto)
        .expect("clearance after raise");
    alert
}

/// For each of `strategies`, 40 alerts: 20 in each of hours 0 and 1,
/// 14 of them transient. A2 (no transient majority, all auto-cleared),
/// A4 (14 of 40 transient) and A5 (a burst of two 18-alert hours) flag
/// every one.
fn flagged_history(strategies: u64) -> Vec<Alert> {
    let mut next = 0..;
    let mut window = Vec::new();
    for s in 0..strategies {
        for i in 0..40 {
            let t = (i / 20) * 3_600 + (i % 20) * 120;
            let lasts = if i % 20 < 7 { 30 } else { 900 };
            window.push(alert(next.next().expect("unbounded"), s, t, lasts));
        }
    }
    window
}

/// An engine over `history`, evaluated once against `catalog`.
fn evaluated(history: &[Alert], catalog: &Arc<IndexedCatalog>) -> IncrementalState {
    let mut engine = IncrementalState::default();
    engine.observe_window(history, None, None);
    engine.evaluate(catalog, &[], None);
    engine.commit();
    engine
}

/// Allocations of an evaluation that moves the counts of `n` flagged
/// strategies, one lasting alert each in hour 2, and flips no flag.
fn moving_counts(n: u64) -> u64 {
    let catalog = catalog(n);
    let mut engine = evaluated(&flagged_history(n), &catalog);
    assert_eq!(
        engine.flags().count() as u64,
        3 * n,
        "A2, A4 and A5 flag each"
    );
    let window: Vec<Alert> = (0..n)
        .map(|s| alert(1_000_000 + s, s, 2 * 3_600, 900))
        .collect();
    engine.observe_window(&window, None, None);
    let (transitions, allocs) = allocations(|| engine.evaluate(&catalog, &[], None));
    assert_eq!(transitions, FlagTransitions::default(), "no flag flips");
    allocs
}

#[test]
fn moving_the_counts_of_flagged_strategies_costs_no_allocation_per_strategy() {
    let (few, many) = (moving_counts(10), moving_counts(1_000));
    assert_eq!(
        few, many,
        "10 strategies cost {few} allocations, 1 000 cost {many}"
    );
}

/// Allocations of an evaluation that flips A2 on for `k` of 1 000
/// strategies, each one alert short of A2's ten, while the counts of
/// 100 strategies flagged by A2, A4 and A5 move without a flip.
fn flipping(k: u64) -> (FlagTransitions, u64) {
    let (quiet, flagged) = (1_000, 100);
    let catalog = catalog(quiet + flagged);
    let mut history: Vec<Alert> = (0..quiet)
        .flat_map(|s| (0..9).map(move |i| alert(s * 10 + i, s, i * 300, 900)))
        .collect();
    let held = flagged_history(flagged);
    let offset = quiet * 10;
    history.extend(held.iter().map(|a| {
        alert(
            offset + a.id().0,
            quiet + a.strategy().0,
            a.raised_at().as_secs(),
            a.duration().expect("cleared").as_secs(),
        )
    }));
    let mut engine = evaluated(&history, &catalog);
    let window: Vec<Alert> = (0..k)
        .chain(quiet..quiet + flagged)
        .map(|s| alert(1_000_000 + s, s, 3 * 3_600, 900))
        .collect();
    engine.observe_window(&window, None, None);
    allocations(|| engine.evaluate(&catalog, &[], None))
}

#[test]
fn a_window_that_flips_k_flags_allocates_o_of_k() {
    for k in [10, 1_000] {
        let (transitions, allocs) = flipping(k);
        assert_eq!(transitions.raised.len() as u64, k);
        assert!(transitions
            .raised
            .iter()
            .all(|f| f.pattern == AntiPattern::MisleadingSeverity));
        assert!(transitions.cleared.is_empty());
        // Each raised finding is one rendered evidence string, plus
        // amortised growth of the transition list and the flag and
        // undo tables; the strategies that stay flagged cost nothing.
        assert!(
            allocs <= 2 * k + 16,
            "flipping {k} flags cost {allocs} allocations"
        );
    }
}
