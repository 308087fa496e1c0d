//! Detection-pipeline metrics.
//!
//! [`DetectMetrics`] is a bundle of pre-registered handles into an
//! [`alertops_obs::MetricsRegistry`]: one wall-time histogram and one
//! findings counter per anti-pattern, plus run/scan totals. Handles are
//! registered once and cached, so recording from
//! [`AntiPatternReport::run_instrumented`](crate::AntiPatternReport::run_instrumented)
//! is pure relaxed-atomic work — detection output is identical with or
//! without metrics attached (the property suite asserts this).
//!
//! The `pattern="A6"` series describe whoever asks the engine for a
//! whole report — the batch `AlertGovernor::detect`. A streaming
//! governor only evaluates (cascade groups have no reader past a window
//! close, and a shard would count fragments of every cascade), so on a
//! live daemon `alertops_detector_findings_total{pattern="A6"}` stays
//! at 0 and the A6 `alertops_detector_micros` histogram records no
//! samples. The A1 histogram records one sample per A1 pass, which the
//! engine runs only for a new catalog: once per shard. The findings
//! counters still add every finding held after each evaluation.

use std::sync::Arc;

use alertops_obs::{Counter, Histogram, MetricsRegistry, Span};

use crate::types::AntiPattern;

/// Cached metric handles for the anti-pattern detectors.
#[derive(Debug, Clone)]
pub struct DetectMetrics {
    /// Per-pattern detector wall time, aligned with [`AntiPattern::ALL`].
    detector_micros: [Arc<Histogram>; 6],
    /// Per-pattern findings emitted, aligned with [`AntiPattern::ALL`].
    detector_findings: [Arc<Counter>; 6],
    /// Detection runs started.
    runs: Arc<Counter>,
    /// Alerts visible to the detectors, summed over runs.
    alerts_scanned: Arc<Counter>,
    /// Incremental-engine window-apply wall time.
    engine_apply_micros: Arc<Histogram>,
    /// Incremental-engine window-evict wall time.
    engine_evict_micros: Arc<Histogram>,
}

impl DetectMetrics {
    /// Registers (or re-attaches to) the detect metric families.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        let detector_micros = AntiPattern::ALL.map(|p| {
            registry.histogram(
                "alertops_detector_micros",
                "Wall time of one detector pass, by anti-pattern.",
                &[("pattern", p.code())],
            )
        });
        let detector_findings = AntiPattern::ALL.map(|p| {
            registry.counter(
                "alertops_detector_findings_total",
                "Findings (strategies or cascade groups) emitted, by anti-pattern.",
                &[("pattern", p.code())],
            )
        });
        Self {
            detector_micros,
            detector_findings,
            runs: registry.counter(
                "alertops_detect_runs_total",
                "Full detection passes executed.",
                &[],
            ),
            alerts_scanned: registry.counter(
                "alertops_detect_alerts_scanned_total",
                "Alerts visible to the detectors, summed over runs.",
                &[],
            ),
            engine_apply_micros: registry.histogram(
                "alertops_engine_apply_micros",
                "Wall time folding one window into the incremental engine.",
                &[],
            ),
            engine_evict_micros: registry.histogram(
                "alertops_engine_evict_micros",
                "Wall time evicting one window from the incremental engine.",
                &[],
            ),
        }
    }

    fn index(pattern: AntiPattern) -> usize {
        AntiPattern::ALL
            .iter()
            .position(|p| *p == pattern)
            .expect("ALL contains every pattern")
    }

    /// Starts a wall-time span for one detector pass.
    #[must_use]
    pub fn detector_timer(&self, pattern: AntiPattern) -> Span<'_> {
        self.detector_micros[Self::index(pattern)].time()
    }

    /// Records the number of findings a detector emitted.
    pub fn record_findings(&self, pattern: AntiPattern, count: u64) {
        self.detector_findings[Self::index(pattern)].add(count);
    }

    /// Records the start of a detection run over `alerts` alerts.
    pub fn record_run(&self, alerts: u64) {
        self.runs.inc();
        self.alerts_scanned.add(alerts);
    }

    /// Starts a wall-time span over one incremental-engine window apply
    /// ([`IncrementalState::observe_window`](crate::IncrementalState::observe_window)).
    #[must_use]
    pub fn engine_apply_timer(&self) -> Span<'_> {
        self.engine_apply_micros.time()
    }

    /// Starts a wall-time span over one incremental-engine window
    /// eviction
    /// ([`IncrementalState::evict_window`](crate::IncrementalState::evict_window)).
    #[must_use]
    pub fn engine_evict_timer(&self) -> Span<'_> {
        self.engine_evict_micros.time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_one_series_per_pattern() {
        let registry = MetricsRegistry::new();
        let metrics = DetectMetrics::register(&registry);
        metrics.record_run(42);
        metrics.record_findings(AntiPattern::Repeating, 3);
        drop(metrics.detector_timer(AntiPattern::Cascading));
        drop(metrics.engine_apply_timer());
        drop(metrics.engine_evict_timer());
        let text = registry.render();
        for pattern in AntiPattern::ALL {
            assert!(
                text.contains(&format!("pattern=\"{}\"", pattern.code())),
                "missing {pattern:?} series"
            );
        }
        assert!(text.contains("alertops_detect_alerts_scanned_total 42"));
        assert!(text.contains("alertops_detector_findings_total{pattern=\"A5\"} 3"));
        assert!(text.contains("alertops_detector_micros_count{pattern=\"A6\"} 1"));
        assert!(text.contains("alertops_engine_apply_micros"));
        assert!(text.contains("alertops_engine_evict_micros"));
        alertops_obs::lint_exposition(&text).unwrap();
    }

    #[test]
    fn re_registering_shares_series() {
        let registry = MetricsRegistry::new();
        let a = DetectMetrics::register(&registry);
        let b = DetectMetrics::register(&registry);
        a.record_run(1);
        b.record_run(1);
        assert!(registry.render().contains("alertops_detect_runs_total 2"));
    }
}
