//! Daemon configuration.

use std::time::Duration;

use alertops_core::StreamingConfig;
use alertops_wire::WireFormat;

/// What the router does when a shard's bounded queue holds
/// [`IngestdConfig::queue_capacity`] alerts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the producing connection until the worker catches up —
    /// backpressure propagates to the TCP peer. Counted in
    /// [`crate::Counters::backpressure_waits`].
    Block,
    /// Drop the alert and count it in [`crate::Counters::dropped`].
    /// Keeps ingestion latency bounded at the cost of completeness.
    Drop,
}

/// Configuration for [`crate::Ingestd`]. A bare [`crate::ShardPool`]
/// reads `shards`, `queue_capacity`, `overflow`, `streaming` and
/// `metrics`; the rest is the daemon's.
#[derive(Debug, Clone)]
pub struct IngestdConfig {
    /// Number of worker shards (each runs its own streaming governor).
    pub shards: usize,
    /// Capacity of each shard's bounded ingest queue, in alerts.
    /// Control messages (closes, syncs, verdicts, chaos markers) are
    /// never refused for it. A producer wakes the shard's worker once
    /// half of it is queued.
    pub queue_capacity: usize,
    /// `Some(d)`: a tick thread closes a window once `d` has passed
    /// since the last close by any caller (a flush defers the tick).
    /// `None`: windows close only on `{"ctrl":"flush"}` frames or
    /// [`crate::IngestdHandle::flush`] — the mode tests and replay use.
    pub tick: Option<Duration>,
    /// Full-queue behaviour.
    pub overflow: OverflowPolicy,
    /// Per-shard streaming governor configuration (history depth,
    /// storm thresholds, the emerging and QoA channels). Setting
    /// `streaming.emerging.mode` / `streaming.qoa.mode` to
    /// [`alertops_core::ChannelMode::Forward`] enables that channel:
    /// shards forward each window's documents / per-strategy feature
    /// samples, and the process's one [`crate::MergePoint`] — the
    /// daemon's, or a cluster's — runs the single sequential pass after
    /// its merge: AO-LDA into
    /// [`alertops_core::GovernanceSnapshot::emerging`], the online QoA
    /// model update (against the labels handed to
    /// [`crate::IngestdHandle::flush_labeled`]) into
    /// [`alertops_core::GovernanceSnapshot::qoa`], its verdicts pushed
    /// back down every shard queue ahead of the next close.
    pub streaming: StreamingConfig,
    /// `host:port` to accept alert ingress on. `None` disables the TCP
    /// listener (alerts arrive via [`crate::IngestdHandle::route`]
    /// instead). Use port 0 to let the OS pick.
    pub listen: Option<String>,
    /// Ingress wire encoding (`--wire`): NDJSON lines (the default) or
    /// `alertops-wire` binary frames — one frame vocabulary either way.
    /// The connection speaks one encoding in *both* directions: NDJSON
    /// connections get JSON ack lines, binary connections get
    /// [`alertops_wire::AckFrame`] frames. The governed output is
    /// byte-identical either way — the format only changes how bytes
    /// travel.
    /// A corrupt binary frame is quarantined as
    /// [`crate::codec::QuarantineReason::CorruptFrame`] and closes its
    /// connection (a binary stream cannot resync).
    pub wire: WireFormat,
    /// `host:port` for the JSON status socket; `None` disables it.
    pub status: Option<String>,
    /// Register and record stage metrics (latency histograms, frame
    /// counters, per-shard governor instrumentation), served as
    /// Prometheus text via the status socket's `metrics` request and
    /// [`crate::IngestdHandle::render_metrics`]. Metrics are
    /// observer-only — outputs are byte-identical either way — and cost
    /// a few relaxed atomic adds per event, so they default to on.
    /// With `false`, the exposition still carries the conservation
    /// counters.
    pub metrics: bool,
    /// Accept chaos control frames (`{"ctrl":"panic"|"stall"|"resume",
    /// "shard":N}`) on the wire. Off by default: in production those
    /// frames are quarantined as unknown controls. The in-process
    /// handle methods ([`crate::IngestdHandle::inject_panic`] and
    /// friends) are not gated — they require holding the handle.
    pub chaos: bool,
}

impl Default for IngestdConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            tick: None,
            overflow: OverflowPolicy::Block,
            streaming: StreamingConfig::default(),
            listen: None,
            wire: WireFormat::default(),
            status: None,
            metrics: true,
            chaos: false,
        }
    }
}

impl IngestdConfig {
    /// Validates invariants the daemon relies on.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shards must be >= 1".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be >= 1".into());
        }
        if let Some(tick) = self.tick {
            if tick.is_zero() {
                return Err("tick must be non-zero; use None to disable".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(IngestdConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_shards_rejected() {
        let config = IngestdConfig {
            shards: 0,
            ..IngestdConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn zero_tick_rejected() {
        let config = IngestdConfig {
            tick: Some(Duration::ZERO),
            ..IngestdConfig::default()
        };
        assert!(config.validate().is_err());
    }
}
