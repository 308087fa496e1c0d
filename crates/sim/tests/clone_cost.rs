//! What copying reference data costs, and what it looks like on the
//! outside.
//!
//! A catalog's SOPs and strategy rows are copied into every shard and
//! node that governs them, so a copy must not deep-clone: a `Sop` and an
//! `AlertStrategy` are each a handle on one shared body, and a row's
//! strings and a SOP's lines are interned, so a line many SOPs repeat,
//! or a row's title, is held once. This binary installs its own counting
//! allocator to pin that, and pins the serde JSON, `Debug` and `Display`
//! of those types to the strings they printed when each `Sop` and row
//! still owned its own `String`s and a row was held by value.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use alertops_model::{
    AlertStrategy, LogRule, MicroserviceId, ServiceId, Severity, SimDuration, Sop, StrategyId,
    StrategyKind,
};
use alertops_sim::{
    InjectedProfile, StrategyCatalog, StrategyCatalogConfig, Topology, TopologyConfig,
};
use serde::Deserialize;

thread_local! {
    // Const-initialised and without destructors, so reading them inside
    // the allocator cannot allocate. Per thread, so tests running in
    // parallel do not count each other.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of a thread that has
/// counting on, and the bytes each asks for.
struct CountingAlloc;

impl CountingAlloc {
    fn count(bytes: usize) {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
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
        Self::count(new_size);
        // SAFETY: `ptr`/`layout` came from `System` through this type;
        // `new_size` obligations are the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result, the allocations it made on this
/// thread and the bytes they asked for (a `realloc` counts its new
/// size). The result is dropped by the caller, outside the count.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (result, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (result, allocs, _) = counted(f);
    (result, allocs)
}

fn full_sop() -> Sop {
    Sop::builder("nginx_cpu_usage_over_80", StrategyId(12))
        .description("CPU usage of nginx instance is higher than 80%")
        .generation_rule("Continuously check the CPU usage; alert when usage is higher than 80%.")
        .potential_impact("Affects the forwarding of all requests.")
        .possible_cause("The workload is too high.")
        .possible_cause("A \"runaway\" worker process.")
        .step("execute command `top -bn1` in the instance")
        .step("compare with the deploy manifest")
        .build()
        .unwrap()
}

fn poor_sop() -> Sop {
    Sop::builder("Instance x is abnormal", StrategyId(7))
        .description("Instance x is abnormal")
        .build()
        .unwrap()
}

fn log_strategy() -> AlertStrategy {
    AlertStrategy::builder(StrategyId(3))
        .title_template("haproxy process number warning")
        .severity(Severity::Warning)
        .service(ServiceId(1))
        .microservice(MicroserviceId(4))
        .kind(StrategyKind::Log(LogRule {
            keyword: "WARN".into(),
            min_count: 2,
            window: SimDuration::from_mins(5),
        }))
        .cooldown(SimDuration::from_mins(5))
        .notify("oce-block-storage@cloud.example")
        .notify("pager-haproxy")
        .build()
        .unwrap()
}

/// An 800-row catalog from the simulator's own generator: probe, log
/// and metric rows, each with a notification target.
fn catalog() -> StrategyCatalog {
    let topology = Topology::generate(&TopologyConfig::default());
    StrategyCatalog::generate(
        &topology,
        &StrategyCatalogConfig {
            total_strategies: 800,
            ..StrategyCatalogConfig::default()
        },
    )
}

fn catalog_sops(catalog: &StrategyCatalog) -> Vec<Sop> {
    catalog
        .strategies()
        .iter()
        .map(|s| catalog.sop(s.id()).unwrap().clone())
        .collect()
}

/// FNV-1a, to pin a long rendering by a short constant.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn a_sop_clone_allocates_nothing() {
    for sop in [full_sop(), poor_sop()] {
        let (copy, allocs) = allocations(|| sop.clone());
        assert_eq!(allocs, 0, "cloning {} allocated", sop.alert_name());
        assert_eq!(copy, sop);
    }
    let catalog = catalog();
    let sops = catalog_sops(&catalog);
    let mut copies = Vec::with_capacity(sops.len());
    let ((), allocs) = allocations(|| copies.extend(sops.iter().cloned()));
    assert_eq!(allocs, 0, "cloning {} catalog SOPs allocated", sops.len());
    assert_eq!(copies, sops);
}

#[test]
fn copying_a_catalog_allocates_only_the_outer_vec() {
    let catalog = catalog();
    let rows = catalog.strategies();
    assert_eq!(rows.len(), 800);
    // The rows carry every interned string a row can hold.
    assert!(rows
        .iter()
        .any(|s| matches!(s.kind(), StrategyKind::Log(_))));
    assert!(rows.iter().all(|s| !s.notify().is_empty()));
    let (copy, allocs) = allocations(|| rows.to_vec());
    assert_eq!(allocs, 1, "copying {} rows", rows.len());
    assert_eq!(copy, rows);
}

#[test]
fn a_row_is_one_pointer() {
    assert_eq!(size_of::<AlertStrategy>(), size_of::<usize>());
    // So a holder's copy of the rows is one pointer a row, and no row
    // is copied by value.
    let catalog = catalog();
    let rows = catalog.strategies();
    let (copy, allocs, bytes) = counted(|| rows.to_vec());
    assert_eq!(allocs, 1);
    assert_eq!(bytes, (800 * size_of::<AlertStrategy>()) as u64);
    assert_eq!(copy, rows);
}

#[test]
fn editing_a_copied_row_leaves_the_original() {
    let original = log_strategy();
    let before = format!("{original:?}");
    let edits: [fn(AlertStrategy) -> AlertStrategy; 4] = [
        |row| row.with_severity(Severity::Critical),
        |row| row.with_title_template("haproxy process count above 40"),
        |row| row.with_cooldown(SimDuration::from_mins(30)),
        |row| {
            row.with_kind(StrategyKind::Log(LogRule {
                keyword: "ERROR".into(),
                min_count: 5,
                window: SimDuration::from_mins(2),
            }))
        },
    ];
    for edit in edits {
        let edited = edit(original.clone());
        assert_ne!(edited, original);
        assert_eq!(format!("{original:?}"), before);
        assert_eq!(original, log_strategy());
    }
    // An edit of the only handle on a row edits it in place.
    let (edited, allocs) = allocations(|| log_strategy().with_severity(Severity::Minor));
    assert_eq!(edited.severity(), Severity::Minor);
    let (_, build_allocs) = allocations(log_strategy);
    assert_eq!(allocs, build_allocs);
}

/// A catalog's serde form: its rows, and its ground truth and SOPs as
/// row-aligned arrays.
#[derive(Deserialize)]
struct CatalogParts {
    strategies: Vec<AlertStrategy>,
    profiles: Vec<InjectedProfile>,
    sops: Vec<Sop>,
}

#[test]
fn catalog_side_tables_follow_the_rows() {
    let catalog = catalog();
    let json = serde_json::to_string(&catalog).unwrap();
    let parts: CatalogParts = serde_json::from_str(&json).unwrap();
    assert_eq!(parts.strategies, catalog.strategies());
    assert_eq!(parts.profiles.len(), 800);
    // The by-id lookups the catalog kept before: each profile keyed by
    // its row's id, each SOP by the strategy id it carries itself.
    let profiles: HashMap<StrategyId, InjectedProfile> = parts
        .strategies
        .iter()
        .map(AlertStrategy::id)
        .zip(parts.profiles)
        .collect();
    let sops: HashMap<StrategyId, Sop> = parts
        .sops
        .into_iter()
        .map(|sop| (sop.strategy(), sop))
        .collect();
    assert_eq!(sops.len(), 800);
    assert!(profiles.values().any(InjectedProfile::any));
    let mut injected: Vec<StrategyId> = profiles
        .iter()
        .filter(|(_, profile)| profile.any())
        .map(|(&id, _)| id)
        .collect();
    injected.sort_unstable();
    assert_eq!(catalog.injected_ids(), injected);
    // 800 and up are unknown: a clean profile and no SOP.
    for id in (0..805).map(StrategyId) {
        let profile = profiles.get(&id).copied().unwrap_or_default();
        assert_eq!(catalog.profile(id), profile, "profile of {id}");
        assert_eq!(catalog.sop(id), sops.get(&id), "SOP of {id}");
    }
    assert!(catalog.profile(StrategyId(800)).is_clean());
    assert_eq!(catalog.sop(StrategyId(800)), None);

    let copy: StrategyCatalog = serde_json::from_str(&json).unwrap();
    assert_eq!(copy.strategies(), catalog.strategies());
    for id in (0..805).map(StrategyId) {
        assert_eq!(copy.profile(id), catalog.profile(id));
        assert_eq!(copy.sop(id), catalog.sop(id));
    }
    assert_eq!(copy.injected_ids(), catalog.injected_ids());
}

#[test]
fn catalog_sops_share_their_lines() {
    let catalog = catalog();
    let sops = catalog_sops(&catalog);
    for (row, sop) in catalog.strategies().iter().zip(&sops) {
        // One text address: the SOP's name is the row's interned title.
        assert!(
            std::ptr::eq(sop.alert_name(), row.title_template()),
            "{} is held twice",
            row.title_template()
        );
    }
    let mut complete = sops.iter().filter(|sop| !sop.steps().is_empty());
    let (a, b) = (complete.next().unwrap(), complete.next().unwrap());
    assert_ne!(a.steps()[0], b.steps()[0], "two microservices");
    // Every cause, and every step after the per-microservice first one,
    // is a constant line held once per thread.
    let causes = a.possible_causes().iter().zip(b.possible_causes());
    let steps = a.steps()[1..].iter().zip(&b.steps()[1..]);
    let mut shared = 0;
    for (line, other) in causes.chain(steps) {
        assert!(line.ptr_eq(other), "{line:?} is held twice");
        shared += 1;
    }
    assert_eq!(shared, 4);
}

#[test]
fn generating_the_catalog_allocates_at_most_its_pinned_count() {
    let topology = Topology::generate(&TopologyConfig::default());
    let config = StrategyCatalogConfig {
        total_strategies: 800,
        ..StrategyCatalogConfig::default()
    };
    let (catalog, allocs) = allocations(|| StrategyCatalog::generate(&topology, &config));
    assert_eq!(catalog.strategies().len(), 800);
    // With each SOP owning its `String`s the same build made 15 506:
    // a constant line now costs nothing, a distinct one its `String`
    // plus the interned copy, 14 841. A row is one shared allocation,
    // +800, and the ground truth and SOPs sit in two row-aligned
    // vectors allocated once each instead of two hash tables grown to
    // 800 entries in nine steps each, −16: 14 841 + 800 − 16 = 15 625.
    // A one-word `IStr` boxes its bytes apart from its control block,
    // so each of the 1 185 distinct strings interned costs one more:
    // 15 625 + 1 185 = 16 810. Exact, so a SOP line that stops being
    // interned trips it.
    assert!(allocs <= 16_810, "generating 800 rows allocated {allocs}");
}

#[test]
fn sop_formats_are_unchanged() {
    let cases = [
        (
            full_sop(),
            r#"{"alert_name":"nginx_cpu_usage_over_80","strategy":12,"description":"CPU usage of nginx instance is higher than 80%","generation_rule":"Continuously check the CPU usage; alert when usage is higher than 80%.","potential_impact":"Affects the forwarding of all requests.","possible_causes":["The workload is too high.","A \"runaway\" worker process."],"steps":["execute command `top -bn1` in the instance","compare with the deploy manifest"]}"#,
            r#"Sop { alert_name: "nginx_cpu_usage_over_80", strategy: StrategyId(12), description: "CPU usage of nginx instance is higher than 80%", generation_rule: "Continuously check the CPU usage; alert when usage is higher than 80%.", potential_impact: "Affects the forwarding of all requests.", possible_causes: ["The workload is too high.", "A \"runaway\" worker process."], steps: ["execute command `top -bn1` in the instance", "compare with the deploy manifest"] }"#,
        ),
        (
            poor_sop(),
            r#"{"alert_name":"Instance x is abnormal","strategy":7,"description":"Instance x is abnormal","generation_rule":"","potential_impact":"","possible_causes":[],"steps":[]}"#,
            r#"Sop { alert_name: "Instance x is abnormal", strategy: StrategyId(7), description: "Instance x is abnormal", generation_rule: "", potential_impact: "", possible_causes: [], steps: [] }"#,
        ),
    ];
    for (sop, json, debug) in cases {
        assert_eq!(serde_json::to_string(&sop).unwrap(), json);
        assert_eq!(format!("{sop:?}"), debug);
        assert_eq!(serde_json::from_str::<Sop>(json).unwrap(), sop);
    }
    assert_eq!(
        full_sop().to_string(),
        "SOP for alert nginx_cpu_usage_over_80\n  \
         Description:       CPU usage of nginx instance is higher than 80%\n  \
         Generation Rule:   Continuously check the CPU usage; alert when usage is higher than 80%.\n  \
         Potential Impact:  Affects the forwarding of all requests.\n  \
         Possible Causes:\n    \
         a) The workload is too high.\n    \
         b) A \"runaway\" worker process.\n  \
         Steps to Diagnose:\n    \
         Step 1: execute command `top -bn1` in the instance\n    \
         Step 2: compare with the deploy manifest\n"
    );
}

#[test]
fn strategy_formats_are_unchanged() {
    let strategy = log_strategy();
    let json = r#"{"id":3,"title_template":"haproxy process number warning","severity":"warning","service":1,"microservice":4,"kind":{"log":{"keyword":"WARN","min_count":2,"window":300}},"cooldown":300,"notify":["oce-block-storage@cloud.example","pager-haproxy"]}"#;
    assert_eq!(serde_json::to_string(&strategy).unwrap(), json);
    assert_eq!(
        format!("{strategy:?}"),
        r#"AlertStrategy { id: StrategyId(3), title_template: "haproxy process number warning", severity: Warning, service: ServiceId(1), microservice: MicroserviceId(4), kind: Log(LogRule { keyword: "WARN", min_count: 2, window: SimDuration(300) }), cooldown: SimDuration(300), notify: ["oce-block-storage@cloud.example", "pager-haproxy"] }"#
    );
    assert_eq!(
        serde_json::from_str::<AlertStrategy>(json).unwrap(),
        strategy
    );
}

#[test]
fn a_generated_catalog_renders_as_before() {
    let catalog = catalog();
    let rows = catalog.strategies().to_vec();
    let sops = catalog_sops(&catalog);
    let rows_json = serde_json::to_string(&rows).unwrap();
    let sops_json = serde_json::to_string(&sops).unwrap();
    assert_eq!(fnv(&rows_json), 0xf0ed_e5a8_76c6_c8ce);
    assert_eq!(fnv(&sops_json), 0x4846_0c8d_d300_7245);
    assert_eq!(fnv(&format!("{rows:?}")), 0x4973_0101_5b7c_4f12);
    assert_eq!(fnv(&format!("{sops:?}")), 0xa474_d98a_acc8_8ee7);
    let display: String = sops.iter().map(ToString::to_string).collect();
    assert_eq!(fnv(&display), 0x8617_1080_e726_476a);
    assert_eq!(
        serde_json::from_str::<Vec<AlertStrategy>>(&rows_json).unwrap(),
        rows
    );
    assert_eq!(serde_json::from_str::<Vec<Sop>>(&sops_json).unwrap(), sops);
}
