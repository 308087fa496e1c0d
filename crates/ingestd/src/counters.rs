//! Ingestion accounting: the conservation families, registered on the
//! shard pool's metrics registry and shared by every thread of the
//! daemon.
//!
//! The counters obey one conservation law the chaos suite asserts
//! exactly: once all windows are closed and queues drained,
//!
//! ```text
//! ingested == delivered + dropped + quarantined
//! ```
//!
//! Every frame that enters the pipeline is `ingested`; it then either
//! reaches a closed window (`delivered`), is shed by overflow policy
//! or lost to a crashed worker (`dropped`), or is rejected at the
//! transport (`quarantined`, one series per [`QuarantineReason`];
//! [`CounterSnapshot::decode_errors`] is their sum). Nothing is ever
//! unaccounted for — that exactness is what makes fault injection
//! checkable.

use std::sync::Arc;

use alertops_obs::{Counter, Gauge, MetricsRegistry};
use serde::{Deserialize, Serialize};

use crate::codec::QuarantineReason;

/// Live counters: handles into the pool's registry, so the scrape and
/// [`CounterSnapshot`] read the same atomics.
#[derive(Debug)]
pub struct Counters {
    /// Frames that entered the pipeline: alerts routed toward a shard
    /// (whether or not they survive overflow policy) plus quarantined
    /// lines. Control frames are not counted.
    pub ingested: Arc<Counter>,
    /// Alerts folded into a successfully closed window — the ones
    /// governance actually saw.
    pub delivered: Arc<Counter>,
    /// Alerts shed: queue overflow under
    /// [`crate::OverflowPolicy::Drop`], plus buffered alerts lost when
    /// a panicked worker was restarted.
    pub dropped: Arc<Counter>,
    /// Times a producer blocked on a full queue under
    /// [`crate::OverflowPolicy::Block`].
    pub backpressure_waits: Arc<Counter>,
    /// Quarantined ingress lines, indexed by `reason as usize`: the
    /// declaration order, which [`QuarantineReason::ALL`] lists.
    quarantined: [Arc<Counter>; QuarantineReason::ALL.len()],
    /// Windows closed and merged so far.
    pub windows_closed: Arc<Counter>,
    /// Windows whose merged snapshot carried at least one degraded
    /// shard.
    pub degraded_windows: Arc<Counter>,
    /// Shard workers restarted by the supervisor after a panic.
    pub shard_restarts: Arc<Counter>,
    /// Latency of the most recent window close, in microseconds: from
    /// the merge point issuing the close to the merged snapshot being
    /// published (includes every shard's detection pass).
    pub last_window_micros: Arc<Gauge>,
    /// Per-shard queue depth, set from the queues by the pool right
    /// before a snapshot or a scrape reads it.
    pub(crate) depth_gauges: Vec<Arc<Gauge>>,
}

impl Counters {
    /// Registers the conservation families for `shards` shards on
    /// `registry`.
    #[must_use]
    pub(crate) fn register(registry: &MetricsRegistry, shards: usize) -> Self {
        let counter = |name, help| registry.counter(name, help, &[]);
        Self {
            ingested: counter(
                "alertops_ingested_total",
                "Frames that entered the pipeline (routed alerts + quarantined lines).",
            ),
            delivered: counter(
                "alertops_delivered_total",
                "Alerts folded into a successfully closed window.",
            ),
            dropped: counter(
                "alertops_dropped_total",
                "Alerts shed by overflow policy or lost to worker restarts.",
            ),
            backpressure_waits: counter(
                "alertops_backpressure_waits_total",
                "Producer blocks on a full shard queue.",
            ),
            quarantined: QuarantineReason::ALL.map(|reason| {
                registry.counter(
                    "alertops_quarantined_total",
                    "Ingress lines quarantined, by reason.",
                    &[("reason", reason.label())],
                )
            }),
            windows_closed: counter(
                "alertops_windows_closed_total",
                "Windows closed and merged.",
            ),
            degraded_windows: counter(
                "alertops_degraded_windows_total",
                "Merged windows carrying at least one degraded shard.",
            ),
            shard_restarts: counter(
                "alertops_shard_restarts_total",
                "Shard workers restarted by the supervisor after a panic.",
            ),
            last_window_micros: registry.gauge(
                "alertops_last_window_micros",
                "Latency of the most recent window close, in microseconds.",
                &[],
            ),
            depth_gauges: (0..shards)
                .map(|shard| {
                    registry.gauge(
                        "alertops_queue_depth",
                        "Alerts routed but not yet taken by the shard's worker, per shard.",
                        &[("shard", &shard.to_string())],
                    )
                })
                .collect(),
        }
    }

    /// Records one quarantined ingress line: the reason's series and —
    /// because a quarantined frame still *entered* the pipeline —
    /// [`ingested`](Self::ingested), keeping the conservation law
    /// exact.
    pub fn quarantine(&self, reason: QuarantineReason) {
        self.ingested.inc();
        self.quarantined[reason as usize].inc();
    }

    /// A point-in-time copy, queue depths as the pool last set them.
    pub(crate) fn snapshot(&self) -> CounterSnapshot {
        let [invalid_json, invalid_utf8, unknown_control, invalid_alert, oversized, corrupt_frame] =
            self.quarantined.each_ref().map(|c| c.get());
        CounterSnapshot {
            ingested: self.ingested.get(),
            delivered: self.delivered.get(),
            dropped: self.dropped.get(),
            backpressure_waits: self.backpressure_waits.get(),
            decode_errors: invalid_json
                + invalid_utf8
                + unknown_control
                + invalid_alert
                + oversized
                + corrupt_frame,
            quarantined_invalid_json: invalid_json,
            quarantined_invalid_utf8: invalid_utf8,
            quarantined_unknown_control: unknown_control,
            quarantined_invalid_alert: invalid_alert,
            quarantined_oversized: oversized,
            quarantined_corrupt_frame: corrupt_frame,
            windows_closed: self.windows_closed.get(),
            degraded_windows: self.degraded_windows.get(),
            shard_restarts: self.shard_restarts.get(),
            last_window_micros: self.last_window_micros.get(),
            queue_depths: self.depth_gauges.iter().map(|depth| depth.get()).collect(),
        }
    }
}

/// Serializable point-in-time copy of [`Counters`] (see its fields for
/// semantics). `decode_errors` is the sum of the `quarantined_*`
/// fields.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct CounterSnapshot {
    pub ingested: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub backpressure_waits: u64,
    pub decode_errors: u64,
    pub quarantined_invalid_json: u64,
    pub quarantined_invalid_utf8: u64,
    pub quarantined_unknown_control: u64,
    pub quarantined_invalid_alert: u64,
    pub quarantined_oversized: u64,
    pub quarantined_corrupt_frame: u64,
    pub windows_closed: u64,
    pub degraded_windows: u64,
    pub shard_restarts: u64,
    pub last_window_micros: u64,
    pub queue_depths: Vec<u64>,
}

impl CounterSnapshot {
    /// Total quarantined lines (alias of
    /// [`decode_errors`](Self::decode_errors), named for the
    /// conservation law).
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.decode_errors
    }

    /// Whether the conservation law `ingested == delivered + dropped +
    /// quarantined` holds for this snapshot. Only meaningful at a
    /// quiescent point (queues drained, windows closed).
    #[must_use]
    pub fn is_conserved(&self) -> bool {
        self.ingested == self.delivered + self.dropped + self.quarantined()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(shards: usize) -> Counters {
        Counters::register(&MetricsRegistry::new(), shards)
    }

    #[test]
    fn snapshot_reflects_counts() {
        let counters = counters(2);
        counters.ingested.add(5);
        counters.depth_gauges[1].set(3);
        let snap = counters.snapshot();
        assert_eq!(snap.ingested, 5);
        assert_eq!(snap.queue_depths, vec![0, 3]);
        let json = serde_json::to_string(&snap).unwrap();
        let back: CounterSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn quarantine_feeds_total_reason_and_ingested() {
        let counters = counters(1);
        counters.quarantine(QuarantineReason::InvalidUtf8);
        counters.quarantine(QuarantineReason::InvalidUtf8);
        counters.quarantine(QuarantineReason::Oversized);
        let snap = counters.snapshot();
        assert_eq!(snap.ingested, 3);
        assert_eq!(snap.decode_errors, 3);
        assert_eq!(snap.quarantined_invalid_utf8, 2);
        assert_eq!(snap.quarantined_oversized, 1);
        assert_eq!(snap.quarantined(), 3);
        assert!(snap.is_conserved(), "all quarantined, none delivered");
    }

    #[test]
    fn conservation_law_detects_leaks() {
        let counters = counters(1);
        counters.ingested.add(10);
        counters.delivered.add(7);
        counters.dropped.add(2);
        assert!(!counters.snapshot().is_conserved(), "one alert leaked");
        counters.dropped.inc();
        assert!(counters.snapshot().is_conserved());
    }
}
