//! Property-based tests over the mining methodology and detectors.

use proptest::prelude::*;

use alertops_detect::storm::detect_storms;
use alertops_detect::{candidates, StormConfig};
use alertops_model::{Alert, AlertId, Location, SimDuration, SimTime, StrategyId};

/// Strategy for generating random alert streams.
fn arb_alerts(max: usize) -> impl Strategy<Value = Vec<Alert>> {
    prop::collection::vec(
        (
            0u64..8,                     // strategy
            0u64..48,                    // hour
            0u64..3_600,                 // offset in hour
            0u64..2,                     // region index
            prop::option::of(1u64..120), // processing minutes
        ),
        0..max,
    )
    .prop_map(|rows| {
        let mut alerts: Vec<Alert> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (strategy, hour, offset, region, mins))| {
                let mut builder = Alert::builder(AlertId(i as u64), StrategyId(strategy))
                    .location(Location::new(format!("r{region}"), "dc"))
                    .raised_at(SimTime::from_secs(hour * 3_600 + offset));
                if let Some(m) = mins {
                    builder = builder.processing_time(SimDuration::from_mins(m));
                }
                builder.build()
            })
            .collect();
        alerts.sort_by_key(|a| (a.raised_at(), a.id()));
        alerts
    })
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
    #![proptest_config(ProptestConfig::with_cases(cases(64, 24)))]

    #[test]
    fn storms_are_disjoint_ordered_and_over_threshold(
        alerts in arb_alerts(400),
        threshold in 1usize..40,
    ) {
        let storms = detect_storms(&alerts, &StormConfig { hourly_threshold: threshold });
        for storm in &storms {
            // Hours are consecutive and each is over the threshold.
            for w in storm.hours.windows(2) {
                prop_assert_eq!(w[1], w[0] + 1);
            }
            prop_assert!(storm.peak_hourly > threshold);
            prop_assert!(storm.total_alerts > threshold);
            // Every storm hour individually exceeds the threshold.
            for &hour in &storm.hours {
                let count = alerts
                    .iter()
                    .filter(|a| {
                        a.hour_bucket() == hour
                            && a.location().region() == &storm.region
                    })
                    .count();
                prop_assert!(count > threshold, "hour {} has {}", hour, count);
            }
        }
        // Same-region storms never touch (merging is maximal).
        for i in 0..storms.len() {
            for j in i + 1..storms.len() {
                if storms[i].region == storms[j].region {
                    let a = &storms[i].hours;
                    let b = &storms[j].hours;
                    let adjacent = a.last().unwrap() + 1 == *b.first().unwrap()
                        || b.last().unwrap() + 1 == *a.first().unwrap();
                    prop_assert!(!adjacent, "adjacent storms were not merged");
                    prop_assert!(a.iter().all(|h| !b.contains(h)));
                }
            }
        }
    }

    #[test]
    fn storm_detection_is_idempotent_per_storm(
        alerts in arb_alerts(400),
        threshold in 1usize..40,
    ) {
        // DESIGN.md §7: a storm is a maximal run of over-threshold
        // region-hours. Re-detecting over exactly the alerts a storm
        // claims must reproduce that storm and nothing else — storms
        // are a fixed point of their own evidence.
        let config = StormConfig { hourly_threshold: threshold };
        for storm in detect_storms(&alerts, &config) {
            let own: Vec<Alert> = alerts
                .iter()
                .filter(|a| {
                    a.location().region() == &storm.region
                        && storm.hours.contains(&a.hour_bucket())
                })
                .cloned()
                .collect();
            let again = detect_storms(&own, &config);
            prop_assert_eq!(again.len(), 1, "storm evidence re-detects to one storm");
            prop_assert_eq!(&again[0], &storm);
        }
    }

    #[test]
    fn storm_detection_is_permutation_invariant(alerts in arb_alerts(200)) {
        let config = StormConfig::default();
        let baseline = detect_storms(&alerts, &config);
        let mut shuffled = alerts;
        shuffled.reverse();
        prop_assert_eq!(detect_storms(&shuffled, &config), baseline);
    }

    #[test]
    fn individual_candidates_size_is_ceil_fraction(
        alerts in arb_alerts(300),
        fraction in 0.05f64..1.0,
    ) {
        let with_evidence: std::collections::BTreeSet<StrategyId> = alerts
            .iter()
            .filter(|a| a.processing_time().is_some())
            .map(Alert::strategy)
            .collect();
        let selected = candidates::individual_candidates(&alerts, fraction);
        let expected = ((with_evidence.len() as f64) * fraction).ceil() as usize;
        prop_assert_eq!(selected.len(), expected);
        // Sorted by descending average.
        for w in selected.windows(2) {
            prop_assert!(w[0].avg_processing_mins >= w[1].avg_processing_mins);
        }
    }

    #[test]
    fn collective_candidates_counts_are_exact(
        alerts in arb_alerts(300),
        threshold in 1usize..30,
    ) {
        for candidate in candidates::collective_candidates(&alerts, threshold) {
            let recount = alerts
                .iter()
                .filter(|a| {
                    a.hour_bucket() == candidate.hour
                        && a.location().region() == &candidate.region
                })
                .count();
            prop_assert_eq!(recount, candidate.alert_count);
            prop_assert!(candidate.alert_count > threshold);
        }
    }
}
