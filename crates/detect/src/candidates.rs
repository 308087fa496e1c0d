//! Candidate mining — the paper's methodology for surfacing anti-pattern
//! candidates from raw alert data (§III-A):
//!
//! * **Individual**: "we group the alerts according to the alert
//!   strategies, then calculate each strategy's average processing time.
//!   The alert strategies that take the top 30% longest time to process
//!   are selected as the candidates of individual anti-patterns."
//! * **Collective**: "we first group all the alerts by the hour they
//!   occur and the region they belong to. Then we count the number of
//!   alerts per hour per region. If the number of alerts per hour per
//!   region exceeds 200, we select all the alerts in this group as the
//!   candidate of collective anti-patterns." (200 ≈ the maximum number
//!   of alerts an OCE team can deal with per hour.)

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use alertops_model::{Alert, RegionId, StrategyId};

use crate::storm::region_hour_histogram;

/// A strategy selected as an individual anti-pattern candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndividualCandidate {
    /// The candidate strategy.
    pub strategy: StrategyId,
    /// Its average processing time, in minutes.
    pub avg_processing_mins: f64,
    /// How many processed alerts the average is over.
    pub alert_count: usize,
}

/// A region-hour selected as a collective anti-pattern candidate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectiveCandidate {
    /// The region.
    pub region: RegionId,
    /// The hour bucket.
    pub hour: u64,
    /// Alerts in that region-hour.
    pub alert_count: usize,
}

/// Selects the top-`fraction` (by average processing time) strategies as
/// individual anti-pattern candidates. Strategies without any processed
/// alert are excluded (no evidence). Output is sorted by descending
/// average processing time; its length is `ceil(fraction · n)` where `n`
/// is the number of strategies *with evidence*.
///
/// # Panics
///
/// Panics if `fraction` is outside `(0, 1]`.
#[must_use]
pub fn individual_candidates(alerts: &[Alert], fraction: f64) -> Vec<IndividualCandidate> {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must lie in (0, 1], got {fraction}"
    );
    let mut sums: BTreeMap<StrategyId, (f64, usize)> = BTreeMap::new();
    for alert in alerts {
        if let Some(pt) = alert.processing_time() {
            let entry = sums.entry(alert.strategy()).or_insert((0.0, 0));
            entry.0 += pt.as_mins_f64();
            entry.1 += 1;
        }
    }
    let mut candidates: Vec<IndividualCandidate> = sums
        .into_iter()
        .map(|(strategy, (total, count))| IndividualCandidate {
            strategy,
            avg_processing_mins: total / count as f64,
            alert_count: count,
        })
        .collect();
    // Averages of non-negative processing times are finite and never
    // -0.0, so this is the `partial_cmp` order.
    candidates.sort_by(|a, b| {
        b.avg_processing_mins
            .total_cmp(&a.avg_processing_mins)
            .then(a.strategy.cmp(&b.strategy))
    });
    let keep = ((candidates.len() as f64) * fraction).ceil() as usize;
    candidates.truncate(keep);
    candidates
}

/// Selects region-hours whose alert count exceeds `threshold` (strict)
/// as collective anti-pattern candidates, sorted by descending count.
#[must_use]
pub fn collective_candidates(alerts: &[Alert], threshold: usize) -> Vec<CollectiveCandidate> {
    let mut candidates: Vec<CollectiveCandidate> = region_hour_histogram(alerts)
        .into_iter()
        .filter(|&(_, count)| count > threshold)
        .map(|((region, hour), alert_count)| CollectiveCandidate {
            region,
            hour,
            alert_count,
        })
        .collect();
    candidates.sort_by(|a, b| {
        b.alert_count
            .cmp(&a.alert_count)
            .then_with(|| a.hour.cmp(&b.hour))
            .then_with(|| a.region.cmp(&b.region))
    });
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{AlertId, Location, SimDuration, SimTime};

    fn alert(id: u64, strategy: u64, mins: Option<u64>, region: &str, hour: u64) -> Alert {
        let mut builder = Alert::builder(AlertId(id), StrategyId(strategy))
            .location(Location::new(region, "dc"))
            .raised_at(SimTime::from_hours(hour));
        if let Some(m) = mins {
            builder = builder.processing_time(SimDuration::from_mins(m));
        }
        builder.build()
    }

    #[test]
    fn top_30_percent_by_average() {
        // 10 strategies with averages 1..10 minutes → top 30% = 3.
        let mut alerts = Vec::new();
        for s in 1..=10u64 {
            alerts.push(alert(s, s, Some(s), "r", 0));
        }
        let candidates = individual_candidates(&alerts, 0.3);
        assert_eq!(candidates.len(), 3);
        let ids: Vec<u64> = candidates.iter().map(|c| c.strategy.0).collect();
        assert_eq!(ids, vec![10, 9, 8]);
        assert_eq!(candidates[0].avg_processing_mins, 10.0);
    }

    #[test]
    fn averages_are_per_strategy() {
        let alerts = vec![
            alert(0, 1, Some(2), "r", 0),
            alert(1, 1, Some(4), "r", 0),
            alert(2, 2, Some(5), "r", 0),
        ];
        let candidates = individual_candidates(&alerts, 1.0);
        assert_eq!(candidates.len(), 2);
        let s1 = candidates
            .iter()
            .find(|c| c.strategy == StrategyId(1))
            .unwrap();
        assert_eq!(s1.avg_processing_mins, 3.0);
        assert_eq!(s1.alert_count, 2);
    }

    #[test]
    fn unprocessed_alerts_are_excluded() {
        let alerts = vec![alert(0, 1, None, "r", 0)];
        assert!(individual_candidates(&alerts, 0.3).is_empty());
    }

    #[test]
    fn ceil_keeps_at_least_one() {
        let alerts = vec![alert(0, 1, Some(5), "r", 0)];
        let candidates = individual_candidates(&alerts, 0.3);
        assert_eq!(candidates.len(), 1);
    }

    #[test]
    fn selection_is_permutation_invariant() {
        let mut alerts: Vec<Alert> = (0..30)
            .map(|i| alert(i, i % 10, Some(i % 7 + 1), "r", 0))
            .collect();
        let a = individual_candidates(&alerts, 0.3);
        alerts.reverse();
        let b = individual_candidates(&alerts, 0.3);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_bad_fraction() {
        let _ = individual_candidates(&[], 0.0);
    }

    #[test]
    fn collective_uses_strict_threshold() {
        let mut alerts = Vec::new();
        for i in 0..200 {
            alerts.push(alert(i, 0, None, "r1", 7));
        }
        assert!(collective_candidates(&alerts, 200).is_empty());
        alerts.push(alert(200, 0, None, "r1", 7));
        let candidates = collective_candidates(&alerts, 200);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].alert_count, 201);
        assert_eq!(candidates[0].hour, 7);
    }

    #[test]
    fn collective_groups_by_region_and_hour() {
        let mut alerts = Vec::new();
        let mut id = 0;
        // 150 alerts r1/h7, 150 r2/h7, 120 r1/h8 — threshold 100.
        for (region, hour, n) in [("r1", 7, 150), ("r2", 7, 150), ("r1", 8, 120)] {
            for _ in 0..n {
                alerts.push(alert(id, 0, None, region, hour));
                id += 1;
            }
        }
        let candidates = collective_candidates(&alerts, 100);
        assert_eq!(candidates.len(), 3);
        // Sorted by descending count.
        assert!(candidates[0].alert_count >= candidates[1].alert_count);
    }

    #[test]
    fn empty_inputs() {
        assert!(individual_candidates(&[], 0.3).is_empty());
        assert!(collective_candidates(&[], 200).is_empty());
    }
}
