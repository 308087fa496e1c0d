//! R2 — alert aggregation.
//!
//! "OCEs will set rules to aggregate alerts in a period and use the
//! number of alerts as another feature. By doing so, OCEs can quickly
//! identify critical alerts and focus more on the information provided
//! by them" (§III-C). Alerts are grouped by key (strategy, or the
//! normalized title template for cross-strategy duplicates) within
//! fixed tumbling windows; each group keeps a representative, the count,
//! and the maximum severity.
//!
//! [`aggregate`] renders every group under a chosen window and key. The
//! reaction pipeline groups by strategy over 30 minutes through the
//! same pass and reads only each group's representative.

use std::collections::btree_map::{BTreeMap, Entry};

use serde::{Deserialize, Serialize};

use alertops_model::{Alert, AlertId, Severity, SimDuration, SimTime, StrategyId, TimeRange};
use alertops_text::extract_template;

/// How alerts are keyed into groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum GroupKey {
    /// Group by the generating strategy (exact duplicates).
    Strategy,
    /// Group by the normalized title template (near-duplicates across
    /// strategies, e.g. per-instance clones of one rule).
    TitleTemplate,
}

/// R2's window in the reaction pipeline, and [`AggregationConfig`]'s default.
const AGGREGATION_WINDOW: SimDuration = SimDuration::from_mins(30);

/// Configuration for [`aggregate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregationConfig {
    /// Tumbling window length.
    pub window: SimDuration,
    /// Grouping key.
    pub key: GroupKey,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        Self {
            window: AGGREGATION_WINDOW,
            key: GroupKey::Strategy,
        }
    }
}

/// One aggregated group of duplicate alerts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertGroup {
    /// The group key rendered as text (strategy id or title template).
    pub key: String,
    /// The strategy of the representative alert.
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
/// simulator and monitor) into groups per `(key, tumbling window)`,
/// ordered by their representative's (raise time, id).
///
/// Count preservation holds: the sum of group counts equals the input
/// length, and every input alert appears in exactly one group.
///
/// # Panics
///
/// Panics if the configured window is zero.
#[must_use]
pub fn aggregate(alerts: &[Alert], config: &AggregationConfig) -> Vec<AlertGroup> {
    assert!(
        !config.window.is_zero(),
        "aggregation window must be positive"
    );
    // Bucket by the key itself and render it as text once per group,
    // not once per alert.
    match config.key {
        GroupKey::Strategy => render(group_by(alerts, config.window, Alert::strategy), |id| {
            id.to_string()
        }),
        GroupKey::TitleTemplate => render(
            group_by(alerts, config.window, |alert| {
                extract_template(alert.title())
            }),
            |template| template,
        ),
    }
}

/// The representatives of [`aggregate`]'s groups under the default
/// configuration, unrendered: R2 as the reaction pipeline runs it.
pub(crate) fn representatives<'a>(alerts: impl IntoIterator<Item = &'a Alert>) -> Vec<&'a Alert> {
    group_by(alerts, AGGREGATION_WINDOW, Alert::strategy)
        .into_iter()
        .map(|(_, bucket)| bucket.first)
        .collect()
}

/// One bucket as the grouping pass fills it: opened by the first alert
/// that lands in it, with each later member folded in.
struct Bucket<'a> {
    /// The earliest member by (raise time, id): the representative.
    first: &'a Alert,
    last_raise: SimTime,
    members: Vec<AlertId>,
    max_severity: Severity,
}

impl<'a> Bucket<'a> {
    fn open(alert: &'a Alert) -> Self {
        Self {
            first: alert,
            last_raise: alert.raised_at(),
            members: vec![alert.id()],
            max_severity: alert.severity(),
        }
    }

    fn fold(&mut self, alert: &'a Alert) {
        if (alert.raised_at(), alert.id()) < (self.first.raised_at(), self.first.id()) {
            self.first = alert;
        }
        self.last_raise = self.last_raise.max(alert.raised_at());
        self.members.push(alert.id());
        self.max_severity = self.max_severity.max(alert.severity());
    }
}

/// The one grouping pass: a bucket per `(tumbling window,
/// key_of(alert))`, ordered by the representative's (raise time, id).
fn group_by<'a, K: Ord>(
    alerts: impl IntoIterator<Item = &'a Alert>,
    window: SimDuration,
    key_of: impl Fn(&Alert) -> K,
) -> Vec<((u64, K), Bucket<'a>)> {
    let mut buckets: BTreeMap<(u64, K), Bucket<'a>> = BTreeMap::new();
    for alert in alerts {
        let window_ix = alert.raised_at().as_secs() / window.as_secs();
        match buckets.entry((window_ix, key_of(alert))) {
            Entry::Vacant(slot) => {
                slot.insert(Bucket::open(alert));
            }
            Entry::Occupied(slot) => slot.into_mut().fold(alert),
        }
    }
    // No two buckets share a representative, so the order is total.
    let mut groups: Vec<_> = buckets.into_iter().collect();
    groups.sort_unstable_by_key(|(_, bucket)| (bucket.first.raised_at(), bucket.first.id()));
    groups
}

/// Renders each bucket as the [`AlertGroup`] [`aggregate`] reports.
fn render<K>(
    groups: Vec<((u64, K), Bucket<'_>)>,
    key_text: impl Fn(K) -> String,
) -> Vec<AlertGroup> {
    groups
        .into_iter()
        .map(|((_, key), mut bucket)| {
            let first = bucket.first;
            bucket.members.sort_unstable();
            AlertGroup {
                key: key_text(key),
                strategy: first.strategy(),
                representative: first.id(),
                count: bucket.members.len(),
                members: bucket.members,
                window: TimeRange::new(
                    first.raised_at(),
                    bucket.last_raise.saturating_add(SimDuration::from_secs(1)),
                ),
                max_severity: bucket.max_severity,
            }
        })
        .collect()
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
        let groups = aggregate(&alerts, &AggregationConfig::default());
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
        let groups = aggregate(&alerts, &AggregationConfig::default());
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
        let config = AggregationConfig {
            window: SimDuration::from_mins(30),
            key: GroupKey::Strategy,
        };
        let alerts = vec![
            alert(0, 1, "x", Severity::Minor, 100),
            alert(1, 1, "x", Severity::Minor, 1_900), // same 30-min window [0, 1800)? No: 1900 is next
        ];
        let groups = aggregate(&alerts, &config);
        assert_eq!(groups.len(), 2, "tumbling boundary at 1800s must split");
    }

    #[test]
    fn template_key_merges_near_duplicates() {
        let alerts = vec![
            alert(0, 1, "disk usage of vm-1 over 90%", Severity::Minor, 0),
            alert(1, 2, "disk usage of vm-2 over 91%", Severity::Minor, 60),
            alert(2, 3, "memory leak detected", Severity::Minor, 90),
        ];
        let by_strategy = aggregate(&alerts, &AggregationConfig::default());
        assert_eq!(by_strategy.len(), 3);
        let by_template = aggregate(
            &alerts,
            &AggregationConfig {
                key: GroupKey::TitleTemplate,
                ..AggregationConfig::default()
            },
        );
        assert_eq!(by_template.len(), 2);
        let merged = by_template.iter().find(|g| g.count == 2).unwrap();
        assert!(merged.key.contains("<id>"));
    }

    #[test]
    fn reduction_ratio_math() {
        assert_eq!(reduction_ratio(0, 0), 0.0);
        assert_eq!(reduction_ratio(100, 100), 0.0);
        assert!((reduction_ratio(100, 10) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        assert!(aggregate(&[], &AggregationConfig::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_zero_window() {
        let _ = aggregate(
            &[],
            &AggregationConfig {
                window: SimDuration::ZERO,
                key: GroupKey::Strategy,
            },
        );
    }

    #[test]
    fn groups_sorted_by_time() {
        let alerts = vec![
            alert(0, 1, "x", Severity::Minor, 5_000),
            alert(1, 2, "y", Severity::Minor, 100),
        ];
        let groups = aggregate(&alerts, &AggregationConfig::default());
        assert!(groups[0].window.start() <= groups[1].window.start());
    }
}
