//! Governor-level metric handles.

use std::sync::Arc;
use std::time::Duration;

use alertops_detect::DetectMetrics;
use alertops_obs::{milli, Counter, Gauge, Histogram, MetricsRegistry, Span};
use alertops_qoa::QoaWindowReport;
use alertops_react::{EmergingReport, ReactMetrics};

/// Metric handles for the emerging-alert (R4) channel: AO-LDA
/// per-window wall time plus emerging-topic/alert counters.
///
/// Recorded by the merge point that runs the sequential AO-LDA pass
/// (`alertops_ingestd::MergePoint`). Registration is idempotent per
/// registry (the `(name, labels)` dedup in `alertops-obs`), so several
/// holders may register against the same registry.
#[derive(Debug, Clone)]
pub struct EmergingMetrics {
    window_micros: Arc<Histogram>,
    topics_total: Arc<Counter>,
    alerts_total: Arc<Counter>,
}

impl EmergingMetrics {
    /// Registers (or re-attaches to) the emerging-channel families.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            window_micros: registry.histogram(
                "alertops_emerging_window_micros",
                "Wall time of one AO-LDA pass over an emerging-channel window.",
                &[],
            ),
            topics_total: registry.counter(
                "alertops_emerging_topics_total",
                "Emerging topics flagged by the AO-LDA channel.",
                &[],
            ),
            alerts_total: registry.counter(
                "alertops_emerging_alerts_total",
                "Alerts whose dominant topic was emerging.",
                &[],
            ),
        }
    }

    /// Records the wall time of one window's AO-LDA pass: its
    /// speculative fit, any redo, and its commit, as one observation.
    pub fn observe_window(&self, took: Duration) {
        self.window_micros
            .observe(u64::try_from(took.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one window's emerging report into the counters.
    pub fn record_report(&self, report: &EmergingReport) {
        self.topics_total.add(report.emerging_topics as u64);
        self.alerts_total.add(report.emerging_alerts.len() as u64);
    }
}

/// Metric handles for the streaming QoA feedback channel: model
/// update wall time, windows and samples absorbed, and the current
/// verdict counts. Recorded by the merge point that runs the
/// sequential `partial_fit` pass, with the same idempotent-registration
/// rule as [`EmergingMetrics`].
#[derive(Debug, Clone)]
pub struct QoaMetrics {
    update_micros: Arc<Histogram>,
    windows_total: Arc<Counter>,
    samples_total: Arc<Counter>,
    demoted: Arc<Gauge>,
    promoted: Arc<Gauge>,
    mean_ema_milli: Arc<Gauge>,
}

impl QoaMetrics {
    /// Registers (or re-attaches to) the QoA feedback families.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            update_micros: registry.histogram(
                "alertops_qoa_update_micros",
                "Wall time of one online QoA model update (join + partial_fit + scoring).",
                &[],
            ),
            windows_total: registry.counter(
                "alertops_qoa_windows_total",
                "Windows absorbed by the online QoA model.",
                &[],
            ),
            samples_total: registry.counter(
                "alertops_qoa_samples_total",
                "Per-strategy feature samples scored by the online QoA model.",
                &[],
            ),
            demoted: registry.gauge(
                "alertops_qoa_demoted_strategies",
                "Strategies currently demoted (blocked) by QoA feedback.",
                &[],
            ),
            promoted: registry.gauge(
                "alertops_qoa_promoted_strategies",
                "Strategies currently promoted (escalated) by QoA feedback.",
                &[],
            ),
            mean_ema_milli: registry.gauge(
                "alertops_qoa_mean_ema_milli",
                "Mean per-strategy QoA EMA over the last window, in thousandths.",
                &[],
            ),
        }
    }

    /// Starts a wall-time span for one model update.
    #[must_use]
    pub fn update_timer(&self) -> Span<'_> {
        self.update_micros.time()
    }

    /// Records one window's QoA report into the counters and gauges.
    pub fn record_report(&self, report: &QoaWindowReport) {
        self.windows_total.inc();
        self.samples_total.add(report.absorbed as u64);
        self.demoted.set(report.demoted.len() as u64);
        self.promoted.set(report.promoted.len() as u64);
        let mean = if report.scored.is_empty() {
            0.0
        } else {
            report.scored.iter().map(|s| s.ema).sum::<f64>() / report.scored.len() as f64
        };
        self.mean_ema_milli.set(milli(mean));
    }
}

/// The full metric bundle an instrumented [`AlertGovernor`] records
/// into: the detect and react handles plus a streaming-ingest wall-time
/// histogram. The sequential channels' handles ([`EmergingMetrics`],
/// [`QoaMetrics`]) are not part of it — a governor runs neither pass.
///
/// Like everything in `alertops-obs`, this is an observer: a governor
/// with metrics attached produces byte-identical reports, deltas, and
/// snapshots to one without (the chaos-determinism suite asserts this
/// end to end).
///
/// [`AlertGovernor`]: crate::AlertGovernor
#[derive(Debug, Clone)]
pub struct GovernorMetrics {
    /// Anti-pattern detector handles.
    pub detect: DetectMetrics,
    /// Reaction-pipeline handles.
    pub react: ReactMetrics,
    /// Wall time of one full streaming-window ingest (detection over
    /// the rolling history + reaction over the window).
    ingest_micros: Arc<Histogram>,
}

impl GovernorMetrics {
    /// Registers (or re-attaches to) every governor metric family.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            detect: DetectMetrics::register(registry),
            react: ReactMetrics::register(registry),
            ingest_micros: registry.histogram(
                "alertops_streaming_ingest_micros",
                "Wall time of one streaming-window ingest (detect + react).",
                &[],
            ),
        }
    }

    /// Starts a wall-time span for one streaming ingest.
    #[must_use]
    pub fn ingest_timer(&self) -> Span<'_> {
        self.ingest_micros.time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_all_families() {
        let registry = MetricsRegistry::new();
        let metrics = GovernorMetrics::register(&registry);
        drop(metrics.ingest_timer());
        let text = registry.render();
        assert!(text.contains("alertops_streaming_ingest_micros_count 1"));
        assert!(text.contains("alertops_detector_micros"));
        assert!(text.contains("alertops_react_stage_micros"));
        alertops_obs::lint_exposition(&text).unwrap();
    }

    #[test]
    fn qoa_metrics_record_reports() {
        let registry = MetricsRegistry::new();
        let metrics = QoaMetrics::register(&registry);
        drop(metrics.update_timer());
        metrics.record_report(&QoaWindowReport {
            absorbed: 4,
            scored: vec![
                alertops_qoa::StrategyQoa {
                    strategy: alertops_model::StrategyId(1),
                    scores: [0.5, 0.5, 0.5],
                    ema: 0.25,
                },
                alertops_qoa::StrategyQoa {
                    strategy: alertops_model::StrategyId(2),
                    scores: [0.5, 0.5, 0.5],
                    ema: 0.75,
                },
            ],
            demoted: vec![alertops_model::StrategyId(1)],
            promoted: Vec::new(),
            model_digest: 7,
        });
        let text = registry.render();
        assert!(text.contains("alertops_qoa_windows_total 1"));
        assert!(text.contains("alertops_qoa_samples_total 4"));
        assert!(text.contains("alertops_qoa_demoted_strategies 1"));
        assert!(text.contains("alertops_qoa_mean_ema_milli 500"));
        assert!(text.contains("alertops_qoa_update_micros_count 1"));
        alertops_obs::lint_exposition(&text).unwrap();
    }

    #[test]
    fn emerging_metrics_record_reports() {
        let registry = MetricsRegistry::new();
        let metrics = EmergingMetrics::register(&registry);
        metrics.observe_window(Duration::from_micros(40));
        metrics.record_report(&EmergingReport {
            window_index: 0,
            window_start: alertops_model::SimTime::from_secs(0),
            alert_count: 5,
            emerging_topics: 2,
            emerging_alerts: vec![alertops_model::AlertId(1), alertops_model::AlertId(2)],
        });
        let text = registry.render();
        assert!(text.contains("alertops_emerging_topics_total 2"));
        assert!(text.contains("alertops_emerging_alerts_total 2"));
        assert!(text.contains("alertops_emerging_window_micros_count 1"));
        alertops_obs::lint_exposition(&text).unwrap();
    }
}
