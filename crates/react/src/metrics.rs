//! Reaction-pipeline metrics.
//!
//! [`ReactMetrics`] bundles pre-registered handles for the R1–R3
//! pipeline stages: a wall-time histogram per stage plus volume
//! counters. Attach it with
//! [`ReactionPipeline::with_metrics`](crate::ReactionPipeline::with_metrics);
//! the pipeline's report is identical with or without metrics attached.

use std::sync::Arc;

use alertops_obs::{Counter, Histogram, MetricsRegistry, Span};

/// The instrumented pipeline stages, in execution order.
pub(crate) const STAGES: [&str; 3] = ["blocking", "aggregation", "correlation"];

/// Cached metric handles for the reaction pipeline.
#[derive(Debug, Clone)]
pub struct ReactMetrics {
    /// Per-stage wall time, aligned with [`STAGES`].
    stage_micros: [Arc<Histogram>; 3],
    /// Alerts entering the pipeline.
    input: Arc<Counter>,
    /// Alerts removed by blocking (R1).
    blocked: Arc<Counter>,
    /// Aggregation groups produced (R2).
    groups: Arc<Counter>,
    /// Correlation clusters produced (R3) == triage items.
    clusters: Arc<Counter>,
}

impl ReactMetrics {
    /// Registers (or re-attaches to) the react metric families.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        let stage_micros = STAGES.map(|stage| {
            registry.histogram(
                "alertops_react_stage_micros",
                "Wall time of one reaction-pipeline stage.",
                &[("stage", stage)],
            )
        });
        Self {
            stage_micros,
            input: registry.counter(
                "alertops_react_input_total",
                "Alerts entering the reaction pipeline.",
                &[],
            ),
            blocked: registry.counter(
                "alertops_react_blocked_total",
                "Alerts removed by blocking rules (R1).",
                &[],
            ),
            groups: registry.counter(
                "alertops_react_groups_total",
                "Aggregation groups produced (R2).",
                &[],
            ),
            clusters: registry.counter(
                "alertops_react_clusters_total",
                "Correlation clusters, i.e. final triage items (R3).",
                &[],
            ),
        }
    }

    /// Starts a wall-time span for a stage (index into [`STAGES`]).
    pub(crate) fn stage_timer(&self, stage: usize) -> Span<'_> {
        self.stage_micros[stage].time()
    }

    /// Starts a wall-time span for R3, which runs where a window's
    /// representatives are all in hand: in the batch pipeline, or once
    /// per window at a merge point.
    #[must_use]
    pub fn correlation_timer(&self) -> Span<'_> {
        self.stage_timer(2)
    }

    /// Counts R1's and R2's volumes.
    pub(crate) fn record_grouping(&self, input: u64, blocked: u64, groups: u64) {
        self.input.add(input);
        self.blocked.add(blocked);
        self.groups.add(groups);
    }

    /// Counts R3's clusters: the triage items.
    pub fn record_clusters(&self, clusters: u64) {
        self.clusters.add(clusters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_stage_series_and_volumes() {
        let registry = MetricsRegistry::new();
        let metrics = ReactMetrics::register(&registry);
        for stage in 0..STAGES.len() {
            drop(metrics.stage_timer(stage));
        }
        metrics.record_grouping(24, 20, 2);
        metrics.record_clusters(1);
        let text = registry.render();
        for stage in STAGES {
            assert!(
                text.contains(&format!("stage=\"{stage}\"")),
                "missing {stage} series"
            );
        }
        assert!(text.contains("alertops_react_input_total 24"));
        assert!(text.contains("alertops_react_blocked_total 20"));
        assert!(text.contains("alertops_react_clusters_total 1"));
        alertops_obs::lint_exposition(&text).unwrap();
    }
}
