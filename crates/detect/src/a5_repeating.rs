//! A5 — repeating alerts.
//!
//! "Repeating alerts means that alerts from the same alert strategy
//! appear repeatedly. Sometimes the repeated alerts may last for several
//! hours. This is usually due to the inappropriate frequency of alert
//! generation" (§III-A2). In the paper's Fig. 3 storm, a single
//! WARNING-level strategy ("haproxy process number warning") produced
//! ≈30% of the 2751 alerts, hour after hour.
//!
//! The detector flags a strategy on either of two signatures: a *burst*,
//! [`HOURLY_THRESHOLD`] alerts or more in each of at least
//! [`MIN_REPEAT_HOURS`] (possibly non-consecutive) hours, or *sustained*
//! repetition, [`MIN_SUSTAINED_TOTAL`] alerts spread over at least
//! [`MIN_ACTIVE_HOURS`] distinct hours within a [`SUSTAINED_SPAN_HOURS`]
//! span.

use alertops_model::StrategyId;

use crate::input::DetectionInput;
use crate::types::{AntiPattern, Detector, StrategyFinding};

/// Alerts per hour from one strategy that count as a repeating hour.
const HOURLY_THRESHOLD: usize = 18;

/// Repeating hours that make a burst.
const MIN_REPEAT_HOURS: usize = 2;

/// Distinct active hours for the sustained signature.
const MIN_ACTIVE_HOURS: usize = 12;

/// Alerts the sustained signature needs within its span.
const MIN_SUSTAINED_TOTAL: usize = 24;

/// The span, in hours, the sustained signature must fit in.
const SUSTAINED_SPAN_HOURS: u64 = 24;

/// Detector for repeating alerts.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepeatingDetector;

/// Appends the `(hour, count)` run-length encoding of `sorted_hours`
/// (hour buckets, ascending, one per alert) to `runs` — the histogram
/// shape [`RepeatingDetector::flags`] reads, built the same
/// way by the batch pass and the incremental engine.
pub(crate) fn push_hour_runs(sorted_hours: &[u64], runs: &mut Vec<(u64, usize)>) {
    for bucket in sorted_hours.chunk_by(|a, b| a == b) {
        runs.push((bucket[0], bucket.len()));
    }
}

/// What a strategy's hour histogram shows: the two signatures A5 flags
/// and the figures its finding reports.
struct HourProfile {
    /// Hours with at least [`HOURLY_THRESHOLD`] alerts.
    repeat_hours: usize,
    /// The most alerts in one hour.
    peak: usize,
    burst: bool,
    sustained: bool,
}

impl HourProfile {
    /// Reads the `(hour, count)` runs of one strategy, in ascending
    /// hour order.
    fn of(per_hour: &[(u64, usize)]) -> Self {
        let repeat_hours = per_hour
            .iter()
            .filter(|&&(_, c)| c >= HOURLY_THRESHOLD)
            .count();
        let peak = per_hour.iter().map(|&(_, c)| c).max().unwrap_or(0);
        // Sustained: sliding 24h span over the sorted hour buckets.
        let sustained = {
            let mut best = false;
            let mut lo = 0;
            let mut span_alerts = 0usize;
            for hi in 0..per_hour.len() {
                span_alerts += per_hour[hi].1;
                while per_hour[hi].0 - per_hour[lo].0 >= SUSTAINED_SPAN_HOURS {
                    span_alerts -= per_hour[lo].1;
                    lo += 1;
                }
                if hi - lo + 1 >= MIN_ACTIVE_HOURS && span_alerts >= MIN_SUSTAINED_TOTAL {
                    best = true;
                    break;
                }
            }
            best
        };
        Self {
            repeat_hours,
            peak,
            burst: repeat_hours >= MIN_REPEAT_HOURS,
            sustained,
        }
    }
}

impl RepeatingDetector {
    /// Whether a strategy with `total` in-scope alerts can be flagged
    /// at all — the counts-only gate [`flags`](Self::flags) opens with.
    /// The incremental engine checks it on its rolling counters before
    /// building any hour histogram.
    pub(crate) fn may_flag(total: usize) -> bool {
        total >= HOURLY_THRESHOLD || total >= MIN_SUSTAINED_TOTAL
    }

    /// Whether A5 flags a strategy with `total` in-scope alerts bucketed
    /// into the `per_hour` histogram, as `(hour, count)` runs in
    /// ascending hour order (see [`push_hour_runs`]): the verdict both
    /// detection paths share, and the only one of A2–A5 that reads
    /// raise times.
    pub(crate) fn flags(total: usize, per_hour: &[(u64, usize)]) -> bool {
        Self::may_flag(total) && {
            let profile = HourProfile::of(per_hour);
            profile.burst || profile.sustained
        }
    }

    /// The finding for a strategy A5 [`flags`](Self::flags): its score
    /// and evidence, rendered from the same histogram.
    pub(crate) fn render(
        strategy: StrategyId,
        total: usize,
        per_hour: &[(u64, usize)],
    ) -> StrategyFinding {
        let HourProfile {
            repeat_hours,
            peak,
            burst,
            ..
        } = HourProfile::of(per_hour);
        StrategyFinding {
            strategy,
            pattern: AntiPattern::Repeating,
            score: peak as f64 + repeat_hours as f64 + per_hour.len() as f64 * 0.1,
            evidence: if burst {
                format!(
                    "reached ≥{HOURLY_THRESHOLD}/hour in {repeat_hours} hours (peak {peak}/hour, {total} total alerts)",
                )
            } else {
                format!(
                    "fired in {} distinct hours ({} total alerts, peak {}/hour)",
                    per_hour.len(),
                    total,
                    peak,
                )
            },
        }
    }
}

impl Detector for RepeatingDetector {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::Repeating
    }

    fn detect(&self, input: &DetectionInput<'_>) -> Vec<StrategyFinding> {
        let mut findings = Vec::new();
        for strategy in input.strategies() {
            let total = input.alert_count_of(strategy.id());
            let mut hours: Vec<u64> = input
                .alerts_of(strategy.id())
                .map(alertops_model::Alert::hour_bucket)
                .collect();
            hours.sort_unstable();
            let mut per_hour = Vec::new();
            push_hour_runs(&hours, &mut per_hour);
            if Self::flags(total, &per_hour) {
                findings.push(Self::render(strategy.id(), total, &per_hour));
            }
        }
        findings.sort_by(|a, b| a.report_order(b, |f| f.strategy));
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{
        Alert, AlertId, AlertStrategy, LogRule, SimDuration, SimTime, StrategyId, StrategyKind,
    };

    fn strategy(id: u64) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(id))
            .title_template("haproxy process number warning")
            .kind(StrategyKind::Log(LogRule {
                keyword: "WARN".into(),
                min_count: 1,
                window: SimDuration::from_mins(5),
            }))
            .build()
            .unwrap()
    }

    /// `n` alerts of `strategy` inside hour `hour`.
    fn hour_of_alerts(start_id: u64, strategy: u64, hour: u64, n: usize) -> Vec<Alert> {
        (0..n)
            .map(|i| {
                Alert::builder(AlertId(start_id + i as u64), StrategyId(strategy))
                    .raised_at(SimTime::from_secs(
                        hour * 3_600 + (i as u64 * 3_600 / n as u64),
                    ))
                    .build()
            })
            .collect()
    }

    #[test]
    fn flags_strategy_repeating_across_hours() {
        let strategies = [strategy(1)];
        let mut alerts = hour_of_alerts(0, 1, 7, 22);
        alerts.extend(hour_of_alerts(100, 1, 8, 19));
        alerts.extend(hour_of_alerts(200, 1, 9, 18));
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = RepeatingDetector.detect(&input);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].evidence.contains("3 hours"));
        assert!(findings[0].evidence.contains("peak 22/hour"));
    }

    #[test]
    fn one_busy_hour_is_not_repeating_by_default() {
        let strategies = [strategy(1)];
        let alerts = hour_of_alerts(0, 1, 7, 30);
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = RepeatingDetector.detect(&input);
        assert!(findings.is_empty(), "needs MIN_REPEAT_HOURS hours");
    }

    #[test]
    fn sparse_strategies_not_flagged() {
        let strategies = [strategy(1)];
        // 20 alerts in 20 hours: many hours but below the sustained total.
        let alerts: Vec<Alert> = (0..20)
            .map(|i| {
                Alert::builder(AlertId(i), StrategyId(1))
                    .raised_at(SimTime::from_hours(i)) // 1 per hour
                    .build()
            })
            .collect();
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = RepeatingDetector.detect(&input);
        assert!(findings.is_empty());
    }

    #[test]
    fn sustained_low_rate_repetition_is_flagged() {
        let strategies = [strategy(1)];
        // 2 alerts per hour across 15 hours = 30 alerts: never bursts,
        // but repeats for hours.
        let mut alerts = Vec::new();
        for h in 0..15u64 {
            alerts.extend(hour_of_alerts(h * 10, 1, h, 2));
        }
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = RepeatingDetector.detect(&input);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].evidence.contains("distinct hours"));
    }

    #[test]
    fn the_same_volume_spread_over_weeks_is_not_repeating() {
        let strategies = [strategy(1)];
        // 30 alerts across 15 *days* (2 per day): background, not
        // repetition — no 24h span concentrates the activity.
        let mut alerts = Vec::new();
        for d in 0..15u64 {
            alerts.extend(hour_of_alerts(d * 10, 1, d * 24, 1));
            alerts.extend(hour_of_alerts(d * 10 + 5, 1, d * 24 + 9, 1));
        }
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = RepeatingDetector.detect(&input);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn heavier_repeaters_rank_first() {
        let strategies = [strategy(1), strategy(2)];
        let mut alerts = hour_of_alerts(0, 1, 7, 30);
        alerts.extend(hour_of_alerts(100, 1, 8, 30));
        alerts.extend(hour_of_alerts(200, 2, 7, 19));
        alerts.extend(hour_of_alerts(300, 2, 8, 19));
        alerts.sort_by_key(Alert::raised_at);
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = RepeatingDetector.detect(&input);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].strategy, StrategyId(1));
    }

    #[test]
    fn no_alerts_no_findings() {
        let strategies = [strategy(1)];
        let input = DetectionInput::new(&strategies);
        assert!(RepeatingDetector.detect(&input).is_empty());
    }
}
