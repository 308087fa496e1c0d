//! The daemon's stage metrics.
//!
//! Every series a daemon exposes lives on its shard pool's one
//! [`MetricsRegistry`]: the conservation families of
//! [`crate::Counters`] always, and — when [`crate::IngestdConfig::metrics`]
//! is on — everything richer than a conservation counter: the stage
//! latency histograms registered here (window close, barrier wait,
//! merge, per-shard close), frame decode counters, the
//! [`crate::MergePoint`]'s channel handles (AO-LDA pass, QoA model
//! update), and — via [`alertops_core::GovernorMetrics`]
//! registered on the same registry — the detect/react instrumentation
//! of each shard's governor. Shards share series by construction: the
//! registry returns the same handle for the same name + labels.
//!
//! Everything is observer-only. The chaos determinism suite runs the
//! same fault schedule with metrics on and off and asserts the merged
//! snapshots are byte-identical.

use std::sync::Arc;

use alertops_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// Metric handles for the daemon's own stages.
#[derive(Debug)]
pub struct IngestdMetrics {
    /// Frames decoded successfully (alerts and control frames).
    pub(crate) frames_decoded: Arc<Counter>,
    /// Ingress lines rejected by the decoder.
    pub(crate) frames_rejected: Arc<Counter>,
    /// Merge point: full window close, broadcast → published snapshot.
    pub(crate) window_close_micros: Arc<Histogram>,
    /// Merge point: barrier wait, broadcast → last shard delta.
    pub(crate) barrier_wait_micros: Arc<Histogram>,
    /// Merge point: snapshot merge proper.
    pub(crate) merge_micros: Arc<Histogram>,
    /// Per-shard window close (sort + detection + commit).
    shard_close_micros: Vec<Arc<Histogram>>,
    /// Process resident set size, sampled at each scrape (0 on
    /// platforms without a procfs).
    rss_bytes: Arc<Gauge>,
}

impl IngestdMetrics {
    /// Registers the daemon's stage families for `shards` shards on
    /// `registry`.
    #[must_use]
    pub(crate) fn register(registry: &MetricsRegistry, shards: usize) -> Self {
        Self {
            frames_decoded: registry.counter(
                "alertops_frames_decoded_total",
                "Ingress frames decoded successfully (alerts and controls).",
                &[],
            ),
            frames_rejected: registry.counter(
                "alertops_frames_rejected_total",
                "Ingress lines rejected by the frame decoder.",
                &[],
            ),
            window_close_micros: registry.histogram(
                "alertops_window_close_micros",
                "Coordinator window close: broadcast to published snapshot.",
                &[],
            ),
            barrier_wait_micros: registry.histogram(
                "alertops_barrier_wait_micros",
                "Coordinator barrier: broadcast to last shard delta.",
                &[],
            ),
            merge_micros: registry.histogram(
                "alertops_merge_micros",
                "Merging per-shard deltas into the governance snapshot.",
                &[],
            ),
            shard_close_micros: (0..shards)
                .map(|shard| {
                    registry.histogram(
                        "alertops_shard_close_micros",
                        "One shard's window close: sort, detection, commit.",
                        &[("shard", &shard.to_string())],
                    )
                })
                .collect(),
            rss_bytes: alertops_obs::process::rss_gauge(registry),
        }
    }

    /// Samples the process RSS into the
    /// [`alertops_obs::process::RSS_GAUGE_NAME`] gauge; a no-op where
    /// the platform has no procfs.
    pub(crate) fn sample_rss(&self) {
        alertops_obs::process::sample_rss(&self.rss_bytes);
    }

    /// The close-latency histogram of one shard.
    pub(crate) fn shard_close(&self, shard: usize) -> &Histogram {
        &self.shard_close_micros[shard]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::QuarantineReason;
    use crate::counters::Counters;

    #[test]
    fn counters_only_exposition_is_lintable_and_complete() {
        let registry = MetricsRegistry::new();
        let counters = Counters::register(&registry, 2);
        counters.ingested.add(5);
        counters.delivered.add(4);
        counters.quarantine(QuarantineReason::Oversized);
        let text = registry.render();
        assert!(text.contains("alertops_ingested_total 6"));
        assert!(text.contains("alertops_quarantined_total{reason=\"oversized\"} 1"));
        assert!(text.contains("alertops_queue_depth{shard=\"1\"} 0"));
        alertops_obs::lint_exposition(&text).unwrap();
    }

    #[test]
    fn full_exposition_merges_registry_without_duplicates() {
        let registry = MetricsRegistry::new();
        let _counters = Counters::register(&registry, 1);
        let metrics = IngestdMetrics::register(&registry, 1);
        metrics.frames_decoded.inc();
        metrics.window_close_micros.observe(250);
        metrics.shard_close(0).observe(200);
        let text = registry.render();
        assert!(text.contains("alertops_frames_decoded_total 1"));
        assert!(text.contains("alertops_window_close_micros_count 1"));
        assert!(text.contains("alertops_shard_close_micros_bucket{shard=\"0\""));
        alertops_obs::lint_exposition(&text).unwrap();
    }
}
