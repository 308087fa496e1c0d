//! R2 — alert aggregation.
//!
//! "OCEs will set rules to aggregate alerts in a period and use the
//! number of alerts as another feature. By doing so, OCEs can quickly
//! identify critical alerts and focus more on the information provided
//! by them" (§III-C). Alerts are grouped by their generating strategy
//! within fixed tumbling windows; each group keeps a representative, the
//! count, and the maximum severity.
//!
//! [`aggregate`] renders every group under a chosen window. The reaction
//! pipeline groups over [`AGGREGATION_WINDOW`] through the same pass,
//! keeps no member list, and reads only each group's representative.

use serde::{Deserialize, Serialize};

use alertops_model::{Alert, AlertId, Severity, SimDuration, StrategyId, TimeRange};

use crate::correlation::Representative;

/// R2's tumbling window in the reaction pipeline: 30 minutes.
pub const AGGREGATION_WINDOW: SimDuration = SimDuration::from_mins(30);

/// One aggregated group of duplicate alerts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertGroup {
    /// The strategy every member was raised by.
    pub strategy: StrategyId,
    /// The earliest alert of the group — what the OCE actually reads.
    pub representative: AlertId,
    /// "The number of alerts as another feature."
    pub count: usize,
    /// All member ids, in raise order.
    pub members: Vec<AlertId>,
    /// The group's time span (first raise .. last raise + 1s).
    pub window: TimeRange,
    /// The maximum severity across members (for prioritization).
    pub max_severity: Severity,
}

/// Aggregates `alerts` (assumed sorted by raise time, as produced by the
/// simulator and monitor) into groups per `(strategy, tumbling window)`,
/// ordered by their representative's (raise time, id).
///
/// Count preservation holds: the sum of group counts equals the input
/// length, and every input alert appears in exactly one group.
///
/// # Panics
///
/// Panics if `window` is zero.
#[must_use]
pub fn aggregate(alerts: &[Alert], window: SimDuration) -> Vec<AlertGroup> {
    assert!(!window.is_zero(), "aggregation window must be positive");
    let keyed = group_by(alerts, window);
    let mut groups: Vec<AlertGroup> = keyed
        .chunk_by(|a, b| a.0 == b.0)
        .map(|group| {
            let (_, first) = group[0];
            let mut members: Vec<AlertId> = group.iter().map(|(_, alert)| alert.id()).collect();
            members.sort_unstable();
            let last_raise = group[group.len() - 1].1.raised_at();
            AlertGroup {
                strategy: first.strategy(),
                representative: first.id(),
                count: members.len(),
                members,
                window: TimeRange::new(
                    first.raised_at(),
                    last_raise.saturating_add(SimDuration::from_secs(1)),
                ),
                max_severity: group.iter().fold(first.severity(), |max, (_, alert)| {
                    max.max(alert.severity())
                }),
            }
        })
        .collect();
    // No two groups share a representative, so the order is total.
    groups.sort_unstable_by_key(|group| (group.window.start(), group.representative));
    groups
}

/// The representatives of [`aggregate`]'s groups over
/// [`AGGREGATION_WINDOW`], unrendered and in (raise time, id) order: R2
/// as the reaction pipeline runs it, which keeps no member list.
pub(crate) fn representatives<'a>(
    alerts: impl IntoIterator<Item = &'a Alert>,
) -> Vec<Representative> {
    let keyed = group_by(alerts, AGGREGATION_WINDOW);
    let groups = || keyed.chunk_by(|a, b| a.0 == b.0);
    let mut representatives = Vec::with_capacity(groups().count());
    representatives.extend(groups().map(|group| Representative::from(group[0].1)));
    representatives.sort_unstable();
    representatives
}

/// The one grouping pass: each alert under its `(tumbling window,
/// strategy)`, sorted so that a group is a run of equal keys with its
/// representative, the earliest member by (raise time, id), first.
fn group_by<'a>(
    alerts: impl IntoIterator<Item = &'a Alert>,
    window: SimDuration,
) -> Vec<((u64, StrategyId), &'a Alert)> {
    let mut keyed: Vec<_> = alerts
        .into_iter()
        .map(|alert| {
            let window_ix = alert.raised_at().as_secs() / window.as_secs();
            ((window_ix, alert.strategy()), alert)
        })
        .collect();
    keyed.sort_unstable_by(|(a_key, a), (b_key, b)| {
        (a_key, a.raised_at(), a.id()).cmp(&(b_key, b.raised_at(), b.id()))
    });
    keyed
}

/// The volume reduction achieved: `1 - groups/alerts` (0 for empty
/// input).
#[must_use]
pub fn reduction_ratio(input_count: usize, group_count: usize) -> f64 {
    if input_count == 0 {
        0.0
    } else {
        1.0 - group_count as f64 / input_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::SimTime;

    fn alert(id: u64, strategy: u64, title: &str, severity: Severity, t: u64) -> Alert {
        Alert::builder(AlertId(id), StrategyId(strategy))
            .title(title)
            .severity(severity)
            .raised_at(SimTime::from_secs(t))
            .build()
    }

    #[test]
    fn groups_duplicates_within_window() {
        let alerts = vec![
            alert(0, 1, "disk full", Severity::Major, 0),
            alert(1, 1, "disk full", Severity::Major, 60),
            alert(2, 1, "disk full", Severity::Critical, 120),
            alert(3, 2, "probe lost", Severity::Critical, 100),
        ];
        let groups = aggregate(&alerts, AGGREGATION_WINDOW);
        assert_eq!(groups.len(), 2);
        let disk = groups.iter().find(|g| g.strategy == StrategyId(1)).unwrap();
        assert_eq!(disk.count, 3);
        assert_eq!(disk.representative, AlertId(0));
        assert_eq!(disk.max_severity, Severity::Critical);
    }

    #[test]
    fn count_preservation() {
        let alerts: Vec<Alert> = (0..50)
            .map(|i| alert(i, i % 5, "t", Severity::Warning, i * 97))
            .collect();
        let groups = aggregate(&alerts, AGGREGATION_WINDOW);
        let total: usize = groups.iter().map(|g| g.count).sum();
        assert_eq!(total, alerts.len());
        // Every alert appears in exactly one group.
        let mut seen: Vec<AlertId> = groups.iter().flat_map(|g| g.members.clone()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), alerts.len());
    }

    #[test]
    fn window_boundary_splits_groups() {
        let alerts = vec![
            alert(0, 1, "x", Severity::Minor, 100),
            alert(1, 1, "x", Severity::Minor, 1_900), // same 30-min window [0, 1800)? No: 1900 is next
        ];
        let groups = aggregate(&alerts, SimDuration::from_mins(30));
        assert_eq!(groups.len(), 2, "tumbling boundary at 1800s must split");
    }

    #[test]
    fn reduction_ratio_math() {
        assert_eq!(reduction_ratio(0, 0), 0.0);
        assert_eq!(reduction_ratio(100, 100), 0.0);
        assert!((reduction_ratio(100, 10) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        assert!(aggregate(&[], AGGREGATION_WINDOW).is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_zero_window() {
        let _ = aggregate(&[], SimDuration::ZERO);
    }

    #[test]
    fn groups_sorted_by_time() {
        let alerts = vec![
            alert(0, 1, "x", Severity::Minor, 5_000),
            alert(1, 2, "y", Severity::Minor, 100),
        ];
        let groups = aggregate(&alerts, AGGREGATION_WINDOW);
        assert!(groups[0].window.start() <= groups[1].window.start());
    }
}
