//! The reaction pipeline: block → aggregate → correlate.
//!
//! Composes R1–R3 in the order OCEs apply them during a flood and
//! reports the volume reduction at every stage — the practical
//! "effectiveness" OCEs rate in the paper's Fig. 2(c). (R4, emerging
//! alert detection, is an orthogonal *early-warning* channel rather than
//! a volume reducer; run it separately via
//! [`EmergingAlertDetector`](crate::EmergingAlertDetector).)
//!
//! [`ReactionPipeline::run`] is the batch entry. It borrows the alerts
//! and the blocker and copies no alert: R2 groups the alerts R1 passes
//! by strategy over 30 minutes and hands R3 each group's
//! [`Representative`]. A streaming shard runs only the first half,
//! [`ReactionPipeline::representatives`], and forwards what it returns:
//! R3 links alerts across strategies, so it runs once per window where
//! the shards' forwards merge.

use serde::{Deserialize, Serialize};

use alertops_model::{Alert, AlertId};

use crate::aggregation;
use crate::blocking::AlertBlocker;
use crate::correlation::{AlertCorrelator, Representative};
use crate::metrics::ReactMetrics;

/// One stage's contribution to volume reduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageStat {
    /// Stage name ("input", "blocking", "aggregation", "correlation").
    pub stage: String,
    /// Items remaining after the stage.
    pub remaining: usize,
}

/// The end-to-end pipeline report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Volume after each stage, starting with the raw input.
    pub stages: Vec<StageStat>,
    /// The final triage items: one source alert per correlated cluster
    /// of aggregated representatives.
    pub triage: Vec<AlertId>,
    /// `1 - triage/input` (0 for empty input).
    pub reduction: f64,
}

impl PipelineReport {
    /// Items remaining after the named stage, if present.
    #[must_use]
    pub fn remaining_after(&self, stage: &str) -> Option<usize> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.remaining)
    }
}

/// The composed reaction pipeline.
#[derive(Debug, Default)]
pub struct ReactionPipeline {
    correlator: AlertCorrelator,
    metrics: Option<ReactMetrics>,
}

impl ReactionPipeline {
    /// A pipeline with no correlation knowledge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the correlator (R3).
    #[must_use]
    pub fn with_correlator(mut self, correlator: AlertCorrelator) -> Self {
        self.correlator = correlator;
        self
    }

    /// Attaches metric handles: per-stage wall time and volume
    /// counters. Metrics are observer-only — [`run`](Self::run) returns
    /// the same report with or without them.
    #[must_use]
    pub fn with_metrics(mut self, metrics: ReactMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Runs the pipeline over a time-sorted alert stream, with R1's
    /// rules borrowed from `blocker` (a holder keeps one blocker current
    /// across many runs).
    #[must_use]
    pub fn run(&self, alerts: &[Alert], blocker: &AlertBlocker) -> PipelineReport {
        let input = alerts.len();
        let (passed, representatives) = self.group(alerts, blocker);

        // R3 — correlation over the group representatives, which come
        // in (raise time, id) order.
        let _span = self.metrics.as_ref().map(ReactMetrics::correlation_timer);
        let clusters = self.correlator.correlate(&representatives);
        drop(_span);
        if let Some(m) = &self.metrics {
            m.record_clusters(clusters.len() as u64);
        }

        let stages = [
            ("input", input),
            ("blocking", passed),
            ("aggregation", representatives.len()),
            ("correlation", clusters.len()),
        ]
        .map(|(stage, remaining)| StageStat {
            stage: stage.to_owned(),
            remaining,
        })
        .into();
        let triage: Vec<AlertId> = clusters.iter().map(|c| c.source).collect();
        let reduction = if input == 0 {
            0.0
        } else {
            1.0 - triage.len() as f64 / input as f64
        };
        PipelineReport {
            stages,
            triage,
            reduction,
        }
    }

    /// R1 and R2 alone: the representative of each group of the alerts
    /// no rule in `blocker` blocks, in (raise time, id) order. What R3
    /// correlates, and what a streaming shard forwards for it.
    #[must_use]
    pub fn representatives(&self, alerts: &[Alert], blocker: &AlertBlocker) -> Vec<Representative> {
        self.group(alerts, blocker).1
    }

    /// R1 then R2: how many alerts pass, and the groups' representatives.
    fn group(&self, alerts: &[Alert], blocker: &AlertBlocker) -> (usize, Vec<Representative>) {
        // R1 — blocking.
        let passed: Vec<&Alert> = {
            let _span = self.metrics.as_ref().map(|m| m.stage_timer(0));
            let mut passed = Vec::with_capacity(alerts.len());
            passed.extend(alerts.iter().filter(|a| blocker.first_match(a).is_none()));
            passed
        };

        // R2 — aggregation, by strategy over 30 minutes.
        let representatives = {
            let _span = self.metrics.as_ref().map(|m| m.stage_timer(1));
            aggregation::representatives(passed.iter().copied())
        };
        if let Some(m) = &self.metrics {
            m.record_grouping(
                alerts.len() as u64,
                (alerts.len() - passed.len()) as u64,
                representatives.len() as u64,
            );
        }
        (passed.len(), representatives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockRule;
    use crate::correlation::StrategyDependencies;
    use alertops_model::{SimTime, StrategyId};

    fn alert(id: u64, strategy: u64, title: &str, t: u64) -> Alert {
        Alert::builder(AlertId(id), StrategyId(strategy))
            .title(title)
            .raised_at(SimTime::from_secs(t))
            .build()
    }

    /// A flood: 20 noisy alerts from strategy 9, 3 duplicates of
    /// strategy 1, and a derived alert of strategy 2.
    fn flood() -> Vec<Alert> {
        let mut alerts = Vec::new();
        for i in 0..20 {
            alerts.push(alert(i, 9, "haproxy process number warning", i * 30));
        }
        for i in 20..23 {
            alerts.push(alert(i, 1, "disk full", 100 + (i - 20) * 60));
        }
        alerts.push(alert(23, 2, "commit failed", 400));
        alerts.sort_by_key(Alert::raised_at);
        alerts
    }

    fn blocker() -> AlertBlocker {
        [BlockRule::for_strategy("mute haproxy", StrategyId(9))]
            .into_iter()
            .collect()
    }

    fn pipeline() -> ReactionPipeline {
        let deps: StrategyDependencies = [(StrategyId(1), StrategyId(2))].into_iter().collect();
        ReactionPipeline::new()
            .with_correlator(AlertCorrelator::new().with_strategy_dependencies(deps))
    }

    #[test]
    fn stages_shrink_monotonically() {
        let report = pipeline().run(&flood(), &blocker());
        let volumes: Vec<usize> = report.stages.iter().map(|s| s.remaining).collect();
        for w in volumes.windows(2) {
            assert!(w[1] <= w[0], "stage increased volume: {volumes:?}");
        }
    }

    #[test]
    fn flood_collapses_to_one_triage_item() {
        let report = pipeline().run(&flood(), &blocker());
        // 24 input → block 20 → 4 remain → aggregate disk-full dupes →
        // 2 groups → correlation attaches commit-failed to disk-full →
        // 1 triage item.
        assert_eq!(report.remaining_after("input"), Some(24));
        assert_eq!(report.remaining_after("blocking"), Some(4));
        assert_eq!(report.remaining_after("aggregation"), Some(2));
        assert_eq!(report.remaining_after("correlation"), Some(1));
        assert_eq!(report.triage.len(), 1);
        assert!((report.reduction - (1.0 - 1.0 / 24.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_pipeline_on_empty_input() {
        let report = ReactionPipeline::new().run(&[], &AlertBlocker::new());
        assert_eq!(report.triage.len(), 0);
        assert_eq!(report.reduction, 0.0);
    }

    #[test]
    fn noop_pipeline_still_aggregates_duplicates() {
        let report = ReactionPipeline::new().run(&flood(), &AlertBlocker::new());
        // No blocking, no correlation knowledge: aggregation still folds
        // the 20 haproxy alerts within windows.
        let aggregated = report.remaining_after("aggregation").unwrap();
        assert!(aggregated < 24);
        assert_eq!(
            report.remaining_after("correlation"),
            Some(report.triage.len())
        );
    }

    #[test]
    fn triage_sources_exist_in_input() {
        let alerts = flood();
        let report = pipeline().run(&alerts, &blocker());
        for id in &report.triage {
            assert!(alerts.iter().any(|a| a.id() == *id));
        }
    }
}
