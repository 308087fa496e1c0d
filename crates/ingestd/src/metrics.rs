//! Daemon metrics and Prometheus exposition.
//!
//! The daemon has two sources of observable state:
//!
//! 1. [`Counters`] — the conservation-law counters every thread already
//!    shares. They stay the single source of truth for
//!    `ingested == delivered + dropped + quarantined`; at scrape time
//!    [`render_exposition`] translates a snapshot of them into
//!    Prometheus text, so they are never double-registered.
//! 2. An [`alertops_obs::MetricsRegistry`] holding everything richer
//!    than a conservation counter: stage latency histograms (window
//!    close, barrier wait, merge, per-shard close), frame decode
//!    counters, the coordinator's [`alertops_core::WindowCloser`]
//!    channel handles (AO-LDA pass, QoA model update), and — via
//!    [`alertops_core::GovernorMetrics`] registered on the same
//!    registry — the detect/react instrumentation of each shard's
//!    governor. Shards share series by construction: the
//!    registry returns the same handle for the same name + labels.
//!
//! Everything is observer-only. The chaos determinism suite runs the
//! same fault schedule with metrics on and off and asserts the merged
//! snapshots are byte-identical.

use std::sync::Arc;

use alertops_obs::{render_sample, Counter, Gauge, Histogram, MetricsRegistry};

use crate::codec::QuarantineReason;
use crate::counters::{CounterSnapshot, Counters};

/// Metric handles for the daemon's own stages, plus the registry the
/// per-shard governors record into.
#[derive(Debug)]
pub struct IngestdMetrics {
    registry: Arc<MetricsRegistry>,
    /// Frames decoded successfully (alerts and control frames).
    pub(crate) frames_decoded: Arc<Counter>,
    /// Ingress lines rejected by the decoder.
    pub(crate) frames_rejected: Arc<Counter>,
    /// Coordinator: full window close, broadcast → published snapshot.
    pub(crate) window_close_micros: Arc<Histogram>,
    /// Coordinator: barrier wait, broadcast → last shard delta.
    pub(crate) barrier_wait_micros: Arc<Histogram>,
    /// Coordinator: snapshot merge proper.
    pub(crate) merge_micros: Arc<Histogram>,
    /// Per-shard window close (sort + detection + commit).
    shard_close_micros: Vec<Arc<Histogram>>,
    /// Process resident set size, sampled at each window close (0 on
    /// platforms without a procfs).
    rss_bytes: Arc<Gauge>,
}

impl IngestdMetrics {
    /// Creates a fresh registry and registers the daemon's families
    /// for `shards` shards.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let frames_decoded = registry.counter(
            "alertops_frames_decoded_total",
            "Ingress frames decoded successfully (alerts and controls).",
            &[],
        );
        let frames_rejected = registry.counter(
            "alertops_frames_rejected_total",
            "Ingress lines rejected by the frame decoder.",
            &[],
        );
        let window_close_micros = registry.histogram(
            "alertops_window_close_micros",
            "Coordinator window close: broadcast to published snapshot.",
            &[],
        );
        let barrier_wait_micros = registry.histogram(
            "alertops_barrier_wait_micros",
            "Coordinator barrier: broadcast to last shard delta.",
            &[],
        );
        let merge_micros = registry.histogram(
            "alertops_merge_micros",
            "Merging per-shard deltas into the governance snapshot.",
            &[],
        );
        let shard_close_micros = (0..shards)
            .map(|shard| {
                registry.histogram(
                    "alertops_shard_close_micros",
                    "One shard's window close: sort, detection, commit.",
                    &[("shard", &shard.to_string())],
                )
            })
            .collect();
        let rss_bytes = alertops_obs::process::rss_gauge(&registry);
        Self {
            registry,
            frames_decoded,
            frames_rejected,
            window_close_micros,
            barrier_wait_micros,
            merge_micros,
            shard_close_micros,
            rss_bytes,
        }
    }

    /// Samples the process RSS into the
    /// [`alertops_obs::process::RSS_GAUGE_NAME`] gauge; a no-op where
    /// the platform has no procfs.
    pub(crate) fn sample_rss(&self) {
        alertops_obs::process::sample_rss(&self.rss_bytes);
    }

    /// The registry behind these handles — per-shard governors register
    /// their detect/react families here too.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The close-latency histogram of one shard.
    pub(crate) fn shard_close(&self, shard: usize) -> &Histogram {
        &self.shard_close_micros[shard]
    }
}

/// Pushes one fully headed counter/gauge family with a single
/// unlabelled series.
fn push_family(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
    out.push_str(&render_sample(name, &[], value));
    out.push('\n');
}

/// Renders the full exposition document: the conservation counters
/// translated from `counters`, then everything in the registry (when
/// metrics are enabled). Works with `metrics = None` — a daemon with
/// metrics disabled still exposes its conservation counters.
#[must_use]
pub fn render_exposition(counters: &Counters, metrics: Option<&IngestdMetrics>) -> String {
    let snap = counters.snapshot();
    let mut out = render_counter_snapshot(&snap);
    if let Some(metrics) = metrics {
        out.push_str(&metrics.registry.render());
    }
    out
}

/// The conservation counters as Prometheus text.
#[must_use]
pub fn render_counter_snapshot(snap: &CounterSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    push_family(
        &mut out,
        "alertops_ingested_total",
        "counter",
        "Frames that entered the pipeline (routed alerts + quarantined lines).",
        snap.ingested,
    );
    push_family(
        &mut out,
        "alertops_delivered_total",
        "counter",
        "Alerts folded into a successfully closed window.",
        snap.delivered,
    );
    push_family(
        &mut out,
        "alertops_dropped_total",
        "counter",
        "Alerts shed by overflow policy or lost to worker restarts.",
        snap.dropped,
    );
    push_family(
        &mut out,
        "alertops_backpressure_waits_total",
        "counter",
        "Producer blocks on a full shard queue.",
        snap.backpressure_waits,
    );

    out.push_str("# HELP alertops_quarantined_total Ingress lines quarantined, by reason.\n");
    out.push_str("# TYPE alertops_quarantined_total counter\n");
    for reason in QuarantineReason::ALL {
        let value = match reason {
            QuarantineReason::InvalidJson => snap.quarantined_invalid_json,
            QuarantineReason::InvalidUtf8 => snap.quarantined_invalid_utf8,
            QuarantineReason::UnknownControl => snap.quarantined_unknown_control,
            QuarantineReason::InvalidAlert => snap.quarantined_invalid_alert,
            QuarantineReason::Oversized => snap.quarantined_oversized,
            QuarantineReason::CorruptFrame => snap.quarantined_corrupt_frame,
        };
        out.push_str(&render_sample(
            "alertops_quarantined_total",
            &[("reason", reason.label())],
            value,
        ));
        out.push('\n');
    }

    push_family(
        &mut out,
        "alertops_windows_closed_total",
        "counter",
        "Windows closed and merged.",
        snap.windows_closed,
    );
    push_family(
        &mut out,
        "alertops_degraded_windows_total",
        "counter",
        "Merged windows carrying at least one degraded shard.",
        snap.degraded_windows,
    );
    push_family(
        &mut out,
        "alertops_shard_restarts_total",
        "counter",
        "Shard workers restarted by the supervisor after a panic.",
        snap.shard_restarts,
    );
    push_family(
        &mut out,
        "alertops_last_window_micros",
        "gauge",
        "Latency of the most recent window close, in microseconds.",
        snap.last_window_micros,
    );

    out.push_str(
        "# HELP alertops_queue_depth Alerts routed but not yet taken by the shard's worker, per shard.\n",
    );
    out.push_str("# TYPE alertops_queue_depth gauge\n");
    for (shard, depth) in snap.queue_depths.iter().enumerate() {
        out.push_str(&render_sample(
            "alertops_queue_depth",
            &[("shard", &shard.to_string())],
            *depth,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn counters_only_exposition_is_lintable_and_complete() {
        let counters = Counters::new(2);
        counters.ingested.fetch_add(5, Ordering::Relaxed);
        counters.delivered.fetch_add(4, Ordering::Relaxed);
        counters.quarantine(QuarantineReason::Oversized);
        let text = render_exposition(&counters, None);
        assert!(text.contains("alertops_ingested_total 6"));
        assert!(text.contains("alertops_quarantined_total{reason=\"oversized\"} 1"));
        assert!(text.contains("alertops_queue_depth{shard=\"1\"} 0"));
        alertops_obs::lint_exposition(&text).unwrap();
    }

    #[test]
    fn full_exposition_merges_registry_without_duplicates() {
        let counters = Counters::new(1);
        let metrics = IngestdMetrics::new(1);
        metrics.frames_decoded.inc();
        metrics.window_close_micros.observe(250);
        metrics.shard_close(0).observe(200);
        let text = render_exposition(&counters, Some(&metrics));
        assert!(text.contains("alertops_frames_decoded_total 1"));
        assert!(text.contains("alertops_window_close_micros_count 1"));
        assert!(text.contains("alertops_shard_close_micros_bucket{shard=\"0\""));
        alertops_obs::lint_exposition(&text).unwrap();
    }
}
