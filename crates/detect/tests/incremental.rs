//! Property tests over the incremental detection engine's eviction
//! algebra: observing windows and then evicting some prefix must leave
//! the engine *exactly* where a fresh engine fed only the surviving
//! windows would be — structurally (window digests, per-strategy
//! rolling counters, the storm region-hour histogram, and cascade
//! edges) and in the findings it reports. This is the property that
//! makes O(window) streaming detection semantically equal to O(history)
//! batch recomputation — and, because the state is a pure function of
//! the window digests, what lets `rollback` return to the last `commit`
//! by rebuilding instead of keeping a copy. Along the way every test
//! checks the memory bounds: the engine holds each raise time once, in
//! the digest of its window (`held_raise_times`), and an evaluation
//! gathers one strategy's raise times at a time
//! (`evaluation_scratch`).

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use alertops_detect::storm::region_hour_histogram;
use alertops_detect::{AntiPatternReport, DetectionInput, IncrementalState};
use alertops_model::{
    Alert, AlertId, AlertStrategy, Clearance, DependencyGraph, Incident, IncidentId, Location,
    LogRule, MetricKind, MetricRule, MicroserviceId, ServiceId, Severity, SimDuration, SimTime,
    StrategyId, StrategyKind, ThresholdOp,
};

/// The catalog's one infrastructure-metric strategy, the only kind A3
/// judges. It belongs to service 0, so its alerts in hours 0–1 overlap
/// the mitigated incident and later ones do not: A3 flags it when at
/// least 5 of its alerts are in scope and at most 12 % overlap, and
/// spares it above that rate.
const INFRA: u64 = 5;

/// A dense-id catalog covering every strategy the generator emits: log
/// rules, plus a disk-usage rule at [`INFRA`].
fn catalog() -> Vec<AlertStrategy> {
    (0..6u64)
        .map(|id| {
            let kind = if id == INFRA {
                StrategyKind::Metric(MetricRule {
                    metric: MetricKind::DiskUsage,
                    op: ThresholdOp::Above,
                    threshold: 90.0,
                    consecutive_samples: 1,
                })
            } else {
                StrategyKind::Log(LogRule {
                    keyword: "ERROR".into(),
                    min_count: 1,
                    window: SimDuration::from_mins(5),
                })
            };
            AlertStrategy::builder(StrategyId(id))
                .title_template("service latency is abnormal")
                .kind(kind)
                .build()
                .expect("catalog strategy is well-formed")
        })
        .collect()
}

/// A small call chain `m0 → m1 → m2 → m3` so cascade edges appear.
fn graph() -> DependencyGraph {
    [(0u64, 1u64), (1, 2), (2, 3)]
        .into_iter()
        .map(|(caller, callee)| (MicroserviceId(caller), MicroserviceId(callee)))
        .collect()
}

/// A couple of incidents so the A2/A3 co-occurrence paths execute.
fn incidents() -> Vec<Incident> {
    let mut mitigated = Incident::new(
        IncidentId(0),
        ServiceId(0),
        Severity::Critical,
        SimTime::from_secs(1_800),
    );
    mitigated.mitigate(SimTime::from_secs(7_200));
    let open = Incident::new(
        IncidentId(1),
        ServiceId(1),
        Severity::Major,
        SimTime::from_secs(10_000),
    );
    vec![mitigated, open]
}

/// Random alert windows: each alert gets a strategy, region, hour,
/// microservice tied to the strategy (so the dependency graph applies),
/// and an optional auto-clearance — short enough to count as transient
/// for some draws, exercising A4's transient times and the A2 evidence
/// counters in both directions. On top of up to `max_alerts` such
/// alerts, one chatty strategy fires 18–30 times in each of 2–4 hours,
/// some of them auto-clearing within 5 minutes, so A5's hour runs (and
/// A4's toggling scan) see evidence that flags them.
fn arb_windows(max_alerts: usize) -> impl Strategy<Value = Vec<Vec<Alert>>> {
    (
        prop::collection::vec(
            (
                0u64..6,                         // strategy
                0u64..10,                        // hour
                0u64..3_600,                     // offset in hour
                0u64..2,                         // region index
                prop::option::of(10u64..900u64), // auto-clear after seconds
            ),
            0..max_alerts,
        ),
        2usize..20, // window length
        (
            0u64..6,  // chatty strategy
            0u64..10, // its first busy hour
            1u64..4,  // hours between its busy hours
            prop::collection::vec(
                prop::collection::vec(
                    (
                        0u64..3_600,                     // offset in hour
                        prop::option::of(10u64..300u64), // auto-clear after seconds
                    ),
                    18..31,
                ),
                2..5,
            ),
        ),
    )
        .prop_map(|(mut rows, window_len, (chatty, first, step, busy))| {
            for (k, hour) in (0u64..).zip(busy) {
                // At most 3 steps of at most 3 hours: distinct hours.
                let hour_ix = (first + k * step) % 10;
                for (offset, clear_after) in hour {
                    rows.push((chatty, hour_ix, offset, offset % 2, clear_after));
                }
            }
            let mut alerts: Vec<Alert> = rows
                .into_iter()
                .enumerate()
                .map(|(i, (strategy, hour, offset, region, clear_after))| {
                    let raised = SimTime::from_secs(hour * 3_600 + offset);
                    let mut alert = Alert::builder(AlertId(i as u64), StrategyId(strategy))
                        .title("service latency is abnormal")
                        .microservice(MicroserviceId(strategy % 4))
                        .location(Location::new(format!("r{region}"), "dc"))
                        .raised_at(raised)
                        .build();
                    if let Some(secs) = clear_after {
                        alert
                            .clear(raised + SimDuration::from_secs(secs), Clearance::Auto)
                            .expect("clearance after raise");
                    }
                    alert
                })
                .collect();
            alerts.sort_by_key(|a| (a.raised_at(), a.id()));
            alerts.chunks(window_len).map(<[Alert]>::to_vec).collect()
        })
}

/// A fresh engine fed only `windows`, in order.
fn fresh(windows: &[Vec<Alert>], graph: &DependencyGraph) -> IncrementalState {
    let mut engine = IncrementalState::default();
    for window in windows {
        engine.observe_window(window, Some(graph), None);
    }
    engine
}

/// The memory bound: `engine` holds each raise time once — those of
/// the windows in scope plus the `kept` alerts of the committed windows
/// it evicted since its last commit, and not one more.
fn holds_each_time_once(engine: &IncrementalState, kept: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        engine.held_raise_times(),
        engine.alert_count() + kept,
        "the engine holds a raise time twice, or lost one"
    );
    Ok(())
}

/// The scratch bound: since its last evaluation started, `engine` has
/// gathered the raise times of one strategy at a time, so no buffer
/// held more than the largest single strategy's alerts in `scope`.
fn gathers_one_strategy_at_a_time(
    engine: &IncrementalState,
    scope: &[Vec<Alert>],
) -> Result<(), TestCaseError> {
    let mut per_strategy: BTreeMap<StrategyId, usize> = BTreeMap::new();
    for alert in scope.iter().flatten() {
        *per_strategy.entry(alert.strategy()).or_default() += 1;
    }
    let largest = per_strategy.values().copied().max().unwrap_or(0);
    prop_assert!(
        engine.evaluation_scratch() <= largest,
        "an evaluation buffer held {} entries; the largest strategy in scope has {}",
        engine.evaluation_scratch(),
        largest
    );
    Ok(())
}

/// Rolling back a copy of `engine` must land on a fresh engine fed
/// `scope`, stay there on a second rollback, and report that engine's
/// findings next.
fn rolls_back_to(
    engine: &IncrementalState,
    scope: &[Vec<Alert>],
    graph: &DependencyGraph,
) -> Result<(), TestCaseError> {
    let mut rolled = engine.clone();
    rolled.rollback(Some(graph));
    holds_each_time_once(&rolled, 0)?;
    let mut expected = fresh(scope, graph);
    prop_assert_eq!(&rolled, &expected, "rollback missed the committed scope");
    let mut again = rolled.clone();
    again.rollback(Some(graph));
    prop_assert_eq!(&again, &rolled, "a second rollback moved the state");
    prop_assert_eq!(
        rolled.current_findings(&catalog(), &incidents(), Some(graph), None),
        expected.current_findings(&catalog(), &incidents(), Some(graph), None),
        "findings diverged after the rollback"
    );
    gathers_one_strategy_at_a_time(&rolled, scope)?;
    Ok(())
}

/// Deep sweep under `ALERTOPS_TEST_FULL=1`; a faster default keeps the
/// tier-1 wall clock flat.
fn cases(full: u32, quick: u32) -> u32 {
    if std::env::var("ALERTOPS_TEST_FULL").as_deref() == Ok("1") {
        full
    } else {
        quick
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48, 24)))]

    /// observe(all) + evict(k) == observe(survivors), for every k —
    /// state, storm histogram, and reported findings alike.
    #[test]
    fn eviction_equals_fresh_rebuild_of_survivors(windows in arb_windows(160)) {
        let graph = graph();
        let strategies = catalog();
        let incidents = incidents();
        for k in 0..=windows.len() {
            let mut evicted = fresh(&windows, &graph);
            holds_each_time_once(&evicted, 0)?;
            let mut removed = 0;
            for _ in 0..k {
                removed += evicted.evict_window(None);
                holds_each_time_once(&evicted, 0)?;
            }
            let survivors: usize = windows[k..].iter().map(Vec::len).sum();
            prop_assert_eq!(removed + survivors, windows.iter().map(Vec::len).sum::<usize>());
            prop_assert_eq!(evicted.alert_count(), survivors);

            let mut rebuilt = fresh(&windows[k..], &graph);
            prop_assert_eq!(&evicted, &rebuilt, "state diverged after evicting {} windows", k);

            let flat: Vec<Alert> = windows[k..].iter().flatten().cloned().collect();
            prop_assert_eq!(evicted.histogram(), &region_hour_histogram(&flat));

            let from_evicted =
                evicted.current_findings(&strategies, &incidents, Some(&graph), None);
            let from_rebuilt =
                rebuilt.current_findings(&strategies, &incidents, Some(&graph), None);
            prop_assert_eq!(from_evicted, from_rebuilt, "findings diverged at k={}", k);
            holds_each_time_once(&evicted, 0)?;
            gathers_one_strategy_at_a_time(&evicted, &windows[k..])?;
            gathers_one_strategy_at_a_time(&rebuilt, &windows[k..])?;
        }
    }

    /// Rolling usage — interleaved observe/evict with a bounded scope —
    /// stays equal to rebuilding from the surviving suffix at every
    /// step, including the findings reported mid-stream (which also
    /// exercises the dirty-tracking cache between mutations).
    #[test]
    fn interleaved_observe_and_evict_track_a_sliding_rebuild(
        windows in arb_windows(120),
        scope in 1usize..5,
    ) {
        let graph = graph();
        let strategies = catalog();
        let incidents = incidents();
        let mut rolling = IncrementalState::default();
        for (i, window) in windows.iter().enumerate() {
            rolling.observe_window(window, Some(&graph), None);
            holds_each_time_once(&rolling, 0)?;
            while rolling.window_count() > scope {
                rolling.evict_window(None);
                holds_each_time_once(&rolling, 0)?;
            }
            let start = (i + 1).saturating_sub(scope);
            let mut rebuilt = fresh(&windows[start..=i], &graph);
            prop_assert_eq!(&rolling, &rebuilt, "state diverged at window {}", i);
            prop_assert_eq!(
                rolling.current_findings(&strategies, &incidents, Some(&graph), None),
                rebuilt.current_findings(&strategies, &incidents, Some(&graph), None),
                "findings diverged at window {}", i
            );
            holds_each_time_once(&rolling, 0)?;
            gathers_one_strategy_at_a_time(&rolling, &windows[start..=i])?;
        }
    }

    /// Driven the way the streaming governor drives it (observe, evict
    /// down to `history`, evaluate) with commits at random windows, the
    /// engine can be interrupted after any of those steps and `rollback`
    /// leaves it exactly where a fresh engine fed the committed scope
    /// would be — cascade edges included — however many windows were
    /// uncommitted, and also when `history` 0 or 1 evicted an
    /// uncommitted window before the rollback.
    #[test]
    fn rollback_equals_fresh_rebuild_of_the_committed_scope(
        windows in arb_windows(120),
        history in 0usize..4,
        commit_mask in 0u64..u64::MAX,
    ) {
        let graph = graph();
        let strategies = catalog();
        let incidents = incidents();
        let mut rolling = IncrementalState::default();
        // Window indices in scope at the last commit.
        let mut committed = 0..0;
        // Alerts of the committed windows evicted since the last commit.
        let mut kept = 0;
        for (i, window) in windows.iter().enumerate() {
            rolling.observe_window(window, Some(&graph), None);
            holds_each_time_once(&rolling, kept)?;
            rolls_back_to(&rolling, &windows[committed.clone()], &graph)?;
            while rolling.window_count() > history {
                let front = i + 1 - rolling.window_count();
                rolling.evict_window(None);
                if committed.contains(&front) {
                    kept += windows[front].len();
                }
                holds_each_time_once(&rolling, kept)?;
                rolls_back_to(&rolling, &windows[committed.clone()], &graph)?;
            }
            let _ = rolling.current_findings(&strategies, &incidents, Some(&graph), None);
            holds_each_time_once(&rolling, kept)?;
            let in_scope = &windows[i + 1 - rolling.window_count()..=i];
            gathers_one_strategy_at_a_time(&rolling, in_scope)?;
            rolls_back_to(&rolling, &windows[committed.clone()], &graph)?;
            if commit_mask >> (i % 64) & 1 == 1 {
                rolling.commit();
                prop_assert_eq!(rolling.kept_digests(), 0);
                kept = 0;
                holds_each_time_once(&rolling, kept)?;
                committed = (i + 1).saturating_sub(history)..i + 1;
                rolls_back_to(&rolling, &windows[committed.clone()], &graph)?;
            }
        }
    }

    /// Incremental == batch where the engine's catalog lookup and its
    /// stale-set bookkeeping could go wrong: a catalog *not* in id
    /// order, a strategy in scope but missing from the catalog, and an
    /// incident list that changes while in-scope strategies are clean
    /// (A2/A3 must be re-scored for them, A4/A5 carried over).
    #[test]
    fn findings_equal_the_batch_detectors_over_any_catalog_and_incident_history(
        windows in arb_windows(120),
        scope in 1usize..5,
        rotate in 1usize..5,
        missing in 0u64..6,
    ) {
        let graph = graph();
        let mut strategies = catalog();
        strategies.retain(|s| s.id() != StrategyId(missing));
        strategies.rotate_left(rotate);
        prop_assert!(strategies.windows(2).any(|pair| pair[0].id() > pair[1].id()));
        let incident_lists = [incidents(), incidents()[..1].to_vec(), Vec::new()];
        let batch = |scope: &[Vec<Alert>], incidents: &[Incident]| {
            let flat: Vec<Alert> = scope.iter().flatten().cloned().collect();
            AntiPatternReport::run_default(
                &DetectionInput::new(&strategies)
                    .with_alerts(&flat)
                    .with_incidents(incidents)
                    .with_graph(&graph),
            )
        };
        let mut rolling = IncrementalState::default();
        for (i, window) in windows.iter().enumerate() {
            rolling.observe_window(window, Some(&graph), None);
            while rolling.window_count() > scope {
                rolling.evict_window(None);
            }
            holds_each_time_once(&rolling, 0)?;
            let in_scope = &windows[(i + 1).saturating_sub(scope)..=i];
            // First with the previous window's last list (only this
            // window's strategies are stale), then with a new one while
            // every strategy is clean.
            for incidents in [&incident_lists[i % 3], &incident_lists[(i + 1) % 3]] {
                prop_assert_eq!(
                    rolling.current_findings(&strategies, incidents, Some(&graph), None),
                    batch(in_scope, incidents),
                    "findings diverged from batch at window {}", i
                );
                holds_each_time_once(&rolling, 0)?;
                gathers_one_strategy_at_a_time(&rolling, in_scope)?;
            }
        }
    }

    /// Evicting everything returns the engine to its pristine state.
    #[test]
    fn full_eviction_is_pristine(windows in arb_windows(80)) {
        let graph = graph();
        let mut engine = fresh(&windows, &graph);
        while engine.window_count() > 0 {
            engine.evict_window(None);
            holds_each_time_once(&engine, 0)?;
        }
        prop_assert_eq!(engine.alert_count(), 0);
        prop_assert!(engine.histogram().is_empty());
        prop_assert_eq!(engine.oldest_alert_time(), None);
        prop_assert_eq!(&engine, &IncrementalState::default());
    }
}
