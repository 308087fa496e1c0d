//! Ingestion accounting: lock-free counters shared by every thread of
//! the daemon and published on the status socket.
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
//! transport (`quarantined`, broken out per [`QuarantineReason`] with
//! [`Counters::decode_errors`] as the total). Nothing is ever
//! unaccounted for — that exactness is what makes fault injection
//! checkable.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::codec::QuarantineReason;

/// Live counters. All operations use relaxed ordering — these are
/// statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Counters {
    /// Frames that entered the pipeline: alerts routed toward a shard
    /// (whether or not they survive overflow policy) plus quarantined
    /// lines. Control frames are not counted.
    pub ingested: AtomicU64,
    /// Alerts folded into a successfully closed window — the ones
    /// governance actually saw.
    pub delivered: AtomicU64,
    /// Alerts shed: queue overflow under
    /// [`crate::OverflowPolicy::Drop`], plus buffered alerts lost when
    /// a panicked worker was restarted.
    pub dropped: AtomicU64,
    /// Times a producer blocked on a full queue under
    /// [`crate::OverflowPolicy::Block`].
    pub backpressure_waits: AtomicU64,
    /// Ingress lines quarantined (total across all reasons).
    pub decode_errors: AtomicU64,
    /// Quarantined: not valid JSON (includes reset-truncated frames).
    pub quarantined_invalid_json: AtomicU64,
    /// Quarantined: not valid UTF-8.
    pub quarantined_invalid_utf8: AtomicU64,
    /// Quarantined: unknown or malformed control verb.
    pub quarantined_unknown_control: AtomicU64,
    /// Quarantined: valid JSON that is not an alert record.
    pub quarantined_invalid_alert: AtomicU64,
    /// Quarantined: line exceeded [`crate::codec::MAX_FRAME_LEN`].
    pub quarantined_oversized: AtomicU64,
    /// Quarantined: binary-ingress frame failed CRC/framing validation
    /// (terminal for its connection).
    pub quarantined_corrupt_frame: AtomicU64,
    /// Windows closed and merged so far.
    pub windows_closed: AtomicU64,
    /// Windows whose merged snapshot carried at least one degraded
    /// shard.
    pub degraded_windows: AtomicU64,
    /// Shard workers restarted by the supervisor after a panic.
    pub shard_restarts: AtomicU64,
    /// Latency of the most recent window close, in microseconds: from
    /// the coordinator issuing the close to the merged snapshot being
    /// published (includes every shard's detection pass).
    pub last_window_micros: AtomicU64,
    /// Per-shard queue depth as one signed counter: producers add
    /// what they enqueue, the worker subtracts what it takes. One
    /// atomic, so a racing reader never sees an enqueue without its
    /// dequeue; read through [`Counters::queue_depth`].
    queue_depths: Vec<AtomicI64>,
}

impl Counters {
    /// Creates counters for `shards` shards.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            queue_depths: (0..shards).map(|_| AtomicI64::new(0)).collect(),
            ..Self::default()
        }
    }

    /// Records one quarantined ingress line: the reason's counter, the
    /// [`decode_errors`](Self::decode_errors) total, and — because a
    /// quarantined frame still *entered* the pipeline —
    /// [`ingested`](Self::ingested), keeping the conservation law
    /// exact.
    pub fn quarantine(&self, reason: QuarantineReason) {
        self.ingested.fetch_add(1, Ordering::Relaxed);
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
        self.quarantined_counter(reason)
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The per-reason quarantine counter.
    #[must_use]
    pub fn quarantined_counter(&self, reason: QuarantineReason) -> &AtomicU64 {
        match reason {
            QuarantineReason::InvalidJson => &self.quarantined_invalid_json,
            QuarantineReason::InvalidUtf8 => &self.quarantined_invalid_utf8,
            QuarantineReason::UnknownControl => &self.quarantined_unknown_control,
            QuarantineReason::InvalidAlert => &self.quarantined_invalid_alert,
            QuarantineReason::Oversized => &self.quarantined_oversized,
            QuarantineReason::CorruptFrame => &self.quarantined_corrupt_frame,
        }
    }

    /// Records `n` alerts routed into `shard`'s queue.
    pub(crate) fn enqueued(&self, shard: usize, n: u64) {
        self.queue_depths[shard].fetch_add(signed(n), Ordering::Relaxed);
    }

    /// Records `n` alerts taken from `shard`'s queue by its worker.
    pub(crate) fn dequeued(&self, shard: usize, n: u64) {
        self.queue_depths[shard].fetch_sub(signed(n), Ordering::Relaxed);
    }

    /// Alerts routed into `shard`'s queue and not yet taken by its
    /// worker. A worker that counts its take before the producer counts
    /// the enqueue leaves the counter briefly negative, which reads as
    /// zero, never as a garbage depth.
    #[must_use]
    pub fn queue_depth(&self, shard: usize) -> u64 {
        u64::try_from(self.queue_depths[shard].load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// A consistent-enough point-in-time copy for reporting.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            ingested: self.ingested.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            backpressure_waits: self.backpressure_waits.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            quarantined_invalid_json: self.quarantined_invalid_json.load(Ordering::Relaxed),
            quarantined_invalid_utf8: self.quarantined_invalid_utf8.load(Ordering::Relaxed),
            quarantined_unknown_control: self.quarantined_unknown_control.load(Ordering::Relaxed),
            quarantined_invalid_alert: self.quarantined_invalid_alert.load(Ordering::Relaxed),
            quarantined_oversized: self.quarantined_oversized.load(Ordering::Relaxed),
            quarantined_corrupt_frame: self.quarantined_corrupt_frame.load(Ordering::Relaxed),
            windows_closed: self.windows_closed.load(Ordering::Relaxed),
            degraded_windows: self.degraded_windows.load(Ordering::Relaxed),
            shard_restarts: self.shard_restarts.load(Ordering::Relaxed),
            last_window_micros: self.last_window_micros.load(Ordering::Relaxed),
            queue_depths: (0..self.queue_depths.len())
                .map(|shard| self.queue_depth(shard))
                .collect(),
        }
    }
}

/// A tally as a signed step. A step past `i64::MAX` cannot come from
/// a queue that lives in memory.
fn signed(n: u64) -> i64 {
    i64::try_from(n).expect("a queue tally step fits in i64")
}

/// Serializable point-in-time copy of [`Counters`] (see its fields for
/// semantics).
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

    #[test]
    fn snapshot_reflects_counts() {
        let counters = Counters::new(2);
        counters.ingested.fetch_add(5, Ordering::Relaxed);
        // Five enqueues, two dequeues: depth 3.
        counters.enqueued(1, 5);
        counters.dequeued(1, 2);
        let snap = counters.snapshot();
        assert_eq!(snap.ingested, 5);
        assert_eq!(snap.queue_depths, vec![0, 3]);
        let json = serde_json::to_string(&snap).unwrap();
        let back: CounterSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn queue_depth_clamps_the_handoff_race_to_zero() {
        // A worker can count its dequeue before the producer counts the
        // enqueue; the reader must see 0, never a wrapped garbage depth.
        let counters = Counters::new(1);
        counters.dequeued(0, 1);
        assert_eq!(counters.queue_depth(0), 0);
        counters.enqueued(0, 1);
        assert_eq!(counters.queue_depth(0), 0);
        counters.enqueued(0, 1);
        assert_eq!(counters.queue_depth(0), 1);
    }

    #[test]
    fn queue_depth_survives_four_billion_dequeues() {
        // Past 2^32 dequeues a tally packed into 32-bit halves carries
        // into the enqueue half and reads one too deep.
        let counters = Counters::new(1);
        for _ in 0..4 {
            counters.enqueued(0, 1 << 30);
            counters.dequeued(0, 1 << 30);
        }
        counters.enqueued(0, 3);
        assert_eq!(counters.queue_depth(0), 3);
    }

    #[test]
    fn quarantine_feeds_total_reason_and_ingested() {
        let counters = Counters::new(1);
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
        let counters = Counters::new(1);
        counters.ingested.fetch_add(10, Ordering::Relaxed);
        counters.delivered.fetch_add(7, Ordering::Relaxed);
        counters.dropped.fetch_add(2, Ordering::Relaxed);
        assert!(!counters.snapshot().is_conserved(), "one alert leaked");
        counters.dropped.fetch_add(1, Ordering::Relaxed);
        assert!(counters.snapshot().is_conserved());
    }
}
