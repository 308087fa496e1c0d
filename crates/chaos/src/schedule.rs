//! Seeded chaos schedules: *what* goes wrong, *where* in the trace.
//!
//! A [`ChaosSchedule`] is pure data generated from a seed — no wall
//! clock, no global state — so a chaos run is replayable byte for
//! byte: rerun the harness with the same seed and the same faults hit
//! the same alert positions. The schedule says nothing about *how* a
//! fault is applied; the driver (the chaos test harness, or any other
//! tool) interprets each [`ChaosKind`] against a live daemon.

use serde::{Deserialize, Serialize};

use crate::rng::ChaosRng;

/// One kind of injected fault at the transport or shard layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ChaosKind {
    /// Drop the TCP connection mid-frame: the daemon sees a truncated
    /// final line (quarantined), the producer reconnects and resends.
    ConnectionReset,
    /// Deliver a frame cut short at a random byte: quarantined, the
    /// alert is lost at the transport.
    TruncatedFrame,
    /// Deliver a frame with garbage bytes spliced in (including
    /// invalid UTF-8): quarantined, the alert is lost at the transport.
    CorruptFrame,
    /// The producer stalls for `millis` before continuing — a slow
    /// consumer upstream. No frames are harmed; the daemon must simply
    /// stay responsive.
    SlowConsumer {
        /// Stall length in milliseconds (small: this is a liveness
        /// probe, not a soak).
        millis: u64,
    },
    /// Force the shard's worker to panic between window closes: its
    /// buffered window is lost, the supervisor restarts it, and the
    /// window's snapshot is marked degraded for that shard.
    WorkerPanic {
        /// The shard whose worker panics.
        shard: usize,
    },
    /// Force the shard's worker to panic *inside* the next window
    /// close (mid-detection): the whole window is lost on that shard
    /// and its governor is rolled back to the last closed window.
    WorkerPanicOnClose {
        /// The shard whose worker panics at close.
        shard: usize,
    },
    /// Stall the shard's worker and slam `burst` alerts into its
    /// bounded queue: under `drop` overflow the excess is shed with
    /// exact accounting, under `block` backpressure propagates.
    QueueOverflow {
        /// The shard whose queue overflows.
        shard: usize,
        /// How many alerts the burst carries.
        burst: usize,
    },
    /// Kill a cluster node outright (`kill -9` semantics): its
    /// in-memory state is discarded; only its write-ahead log
    /// survives. Drivers treat a kill of an already-dead node as a
    /// no-op, so shuffled schedules stay applicable.
    NodeKill {
        /// The node to kill.
        node: usize,
    },
    /// Rejoin a killed cluster node: replay its write-ahead log,
    /// rebuild its detection history, restore its in-flight tail.
    /// No-op if the node is alive.
    NodeRejoin {
        /// The node to rejoin.
        node: usize,
    },
    /// Chop bytes off the end of a node's newest WAL segment — a torn
    /// write or disk corruption, surfaced as torn records (and exact
    /// `dropped` accounting) at the node's next replay.
    WalTruncate {
        /// The node whose log is damaged.
        node: usize,
        /// Bytes removed from the end of the newest segment.
        bytes: u64,
    },
}

impl ChaosKind {
    /// A short stable label for logs and error messages.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ChaosKind::ConnectionReset => "connection_reset",
            ChaosKind::TruncatedFrame => "truncated_frame",
            ChaosKind::CorruptFrame => "corrupt_frame",
            ChaosKind::SlowConsumer { .. } => "slow_consumer",
            ChaosKind::WorkerPanic { .. } => "worker_panic",
            ChaosKind::WorkerPanicOnClose { .. } => "worker_panic_on_close",
            ChaosKind::QueueOverflow { .. } => "queue_overflow",
            ChaosKind::NodeKill { .. } => "node_kill",
            ChaosKind::NodeRejoin { .. } => "node_rejoin",
            ChaosKind::WalTruncate { .. } => "wal_truncate",
        }
    }
}

/// One scheduled fault: fire `kind` just before the trace alert at
/// position `at` is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosEvent {
    /// 0-based trace position the fault fires at.
    pub at: usize,
    /// What goes wrong.
    pub kind: ChaosKind,
}

/// How many faults of each kind to schedule over a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Length of the alert trace the schedule spans.
    pub trace_len: usize,
    /// Shard count of the daemon under test (panic/overflow targets
    /// are drawn from `0..shards`).
    pub shards: usize,
    /// Connection resets mid-frame.
    pub resets: usize,
    /// Frames delivered truncated.
    pub truncations: usize,
    /// Frames delivered corrupted.
    pub corruptions: usize,
    /// Producer-side stalls.
    pub stalls: usize,
    /// Worker panics between closes.
    pub panics: usize,
    /// Worker panics during a close.
    pub close_panics: usize,
    /// Queue-overflow storms.
    pub overflows: usize,
    /// Alerts per overflow burst.
    pub burst_len: usize,
    /// Node count of the cluster under test (node-fault targets are
    /// drawn from `0..nodes`). Irrelevant — and ignored — while the
    /// node-fault counts below are zero, which they are by default:
    /// single-daemon chaos configs and their schedules are unchanged.
    pub nodes: usize,
    /// Cluster node kills (`kill -9` semantics; the WAL survives).
    pub node_kills: usize,
    /// Cluster node rejoins (WAL replay; no-op while the node is
    /// alive).
    pub node_rejoins: usize,
    /// WAL tail truncations (torn-write / disk-corruption injection).
    pub wal_truncates: usize,
    /// Bytes chopped per WAL truncation.
    pub truncate_bytes: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            trace_len: 0,
            shards: 1,
            resets: 1,
            truncations: 1,
            corruptions: 1,
            stalls: 1,
            panics: 1,
            close_panics: 1,
            overflows: 1,
            burst_len: 96,
            nodes: 1,
            node_kills: 0,
            node_rejoins: 0,
            wal_truncates: 0,
            truncate_bytes: 32,
        }
    }
}

impl ChaosConfig {
    fn total_events(&self) -> usize {
        self.resets
            + self.truncations
            + self.corruptions
            + self.stalls
            + self.panics
            + self.close_panics
            + self.overflows
            + self.node_kills
            + self.node_rejoins
            + self.wal_truncates
    }
}

/// A replayable fault schedule: events sorted by trace position, at
/// most one per position.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// The seed the schedule was generated from (kept for error
    /// messages: every failure names the seed that reproduces it).
    pub seed: u64,
    /// The scheduled faults, ascending by [`ChaosEvent::at`].
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Generates the schedule for `config` from `seed`. Positions are
    /// distinct and drawn from `1..trace_len` (never position 0, so
    /// every run ingests at least one clean frame first); kinds are
    /// deterministically shuffled across positions.
    ///
    /// # Panics
    ///
    /// Panics if the trace is too short to place the requested events
    /// (`trace_len` must exceed four times the event count) or if
    /// `shards` is zero while shard-targeted events are requested.
    #[must_use]
    pub fn generate(seed: u64, config: &ChaosConfig) -> Self {
        let total = config.total_events();
        assert!(
            config.trace_len > total * 4,
            "trace of {} cannot host {} chaos events",
            config.trace_len,
            total
        );
        let needs_shard = config.panics + config.close_panics + config.overflows > 0;
        assert!(
            config.shards > 0 || !needs_shard,
            "shard-targeted chaos needs shards >= 1"
        );
        let needs_node = config.node_kills + config.node_rejoins + config.wal_truncates > 0;
        assert!(
            config.nodes > 0 || !needs_node,
            "node-targeted chaos needs nodes >= 1"
        );

        let mut rng = ChaosRng::new(seed);

        // Distinct positions, then sorted: rejection sampling is fine
        // because the trace is ≥ 4× oversized by the assert above.
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < total {
            positions.insert(rng.range_usize(1, config.trace_len));
        }
        let positions: Vec<usize> = positions.into_iter().collect();

        // One kind per requested event, then a Fisher–Yates shuffle so
        // kinds interleave across the trace instead of clustering.
        let mut kinds = Vec::with_capacity(total);
        for _ in 0..config.resets {
            kinds.push(ChaosKind::ConnectionReset);
        }
        for _ in 0..config.truncations {
            kinds.push(ChaosKind::TruncatedFrame);
        }
        for _ in 0..config.corruptions {
            kinds.push(ChaosKind::CorruptFrame);
        }
        for _ in 0..config.stalls {
            kinds.push(ChaosKind::SlowConsumer {
                millis: rng.range(1, 5),
            });
        }
        for _ in 0..config.panics {
            kinds.push(ChaosKind::WorkerPanic {
                shard: rng.range_usize(0, config.shards.max(1)),
            });
        }
        for _ in 0..config.close_panics {
            kinds.push(ChaosKind::WorkerPanicOnClose {
                shard: rng.range_usize(0, config.shards.max(1)),
            });
        }
        for _ in 0..config.overflows {
            kinds.push(ChaosKind::QueueOverflow {
                shard: rng.range_usize(0, config.shards.max(1)),
                burst: config.burst_len,
            });
        }
        // Node faults draw rng only when requested, appended after the
        // transport/shard kinds: existing single-daemon schedules keep
        // their exact byte-for-byte draws.
        for _ in 0..config.node_kills {
            kinds.push(ChaosKind::NodeKill {
                node: rng.range_usize(0, config.nodes.max(1)),
            });
        }
        for _ in 0..config.node_rejoins {
            kinds.push(ChaosKind::NodeRejoin {
                node: rng.range_usize(0, config.nodes.max(1)),
            });
        }
        for _ in 0..config.wal_truncates {
            kinds.push(ChaosKind::WalTruncate {
                node: rng.range_usize(0, config.nodes.max(1)),
                bytes: config.truncate_bytes,
            });
        }
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.range_usize(0, i + 1));
        }

        let events = positions
            .into_iter()
            .zip(kinds)
            .map(|(at, kind)| ChaosEvent { at, kind })
            .collect();
        Self { seed, events }
    }

    /// The events scheduled exactly at trace position `index`.
    pub fn events_at(&self, index: usize) -> impl Iterator<Item = &ChaosEvent> {
        // At most one per position by construction, but iterate anyway
        // so hand-built schedules with duplicates still work.
        self.events.iter().filter(move |e| e.at == index)
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The chaos seed to use: the `CHAOS_SEED` environment variable when
/// set (and parseable as `u64`), else `default`. CI logs print the
/// seed of every chaos run; exporting `CHAOS_SEED` replays it locally.
#[must_use]
pub fn seed_from_env(default: u64) -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ChaosConfig {
        ChaosConfig {
            trace_len: 400,
            shards: 4,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ChaosSchedule::generate(99, &config());
        let b = ChaosSchedule::generate(99, &config());
        assert_eq!(a, b);
        assert_ne!(a, ChaosSchedule::generate(100, &config()));
    }

    #[test]
    fn positions_are_distinct_sorted_and_in_range() {
        let schedule = ChaosSchedule::generate(7, &config());
        assert_eq!(schedule.len(), 7);
        let positions: Vec<usize> = schedule.events.iter().map(|e| e.at).collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(positions, sorted, "positions must be distinct ascending");
        assert!(positions.iter().all(|&p| (1..400).contains(&p)));
    }

    #[test]
    fn every_requested_kind_appears() {
        let schedule = ChaosSchedule::generate(13, &config());
        let labels: std::collections::BTreeSet<&str> =
            schedule.events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels.len(), 7, "one of each kind requested: {labels:?}");
    }

    #[test]
    fn shard_targets_stay_in_range() {
        let cfg = ChaosConfig {
            trace_len: 2_000,
            shards: 3,
            panics: 20,
            close_panics: 20,
            overflows: 20,
            ..ChaosConfig::default()
        };
        for event in &ChaosSchedule::generate(5, &cfg).events {
            match event.kind {
                ChaosKind::WorkerPanic { shard }
                | ChaosKind::WorkerPanicOnClose { shard }
                | ChaosKind::QueueOverflow { shard, .. } => assert!(shard < 3),
                _ => {}
            }
        }
    }

    #[test]
    fn node_faults_appear_only_when_requested() {
        // Defaults request none: schedules are identical to a config
        // that has never heard of clusters.
        let baseline = ChaosSchedule::generate(13, &config());
        assert!(baseline.events.iter().all(|e| !matches!(
            e.kind,
            ChaosKind::NodeKill { .. }
                | ChaosKind::NodeRejoin { .. }
                | ChaosKind::WalTruncate { .. }
        )));

        let cfg = ChaosConfig {
            trace_len: 800,
            nodes: 4,
            node_kills: 3,
            node_rejoins: 3,
            wal_truncates: 2,
            ..config()
        };
        let schedule = ChaosSchedule::generate(13, &cfg);
        let labels: std::collections::BTreeSet<&str> =
            schedule.events.iter().map(|e| e.kind.label()).collect();
        for label in ["node_kill", "node_rejoin", "wal_truncate"] {
            assert!(labels.contains(label), "missing {label}: {labels:?}");
        }
        for event in &schedule.events {
            match event.kind {
                ChaosKind::NodeKill { node } | ChaosKind::NodeRejoin { node } => {
                    assert!(node < 4);
                }
                ChaosKind::WalTruncate { node, bytes } => {
                    assert!(node < 4);
                    assert_eq!(bytes, 32);
                }
                _ => {}
            }
        }
        // Same seed, same node-fault schedule: replayable.
        assert_eq!(schedule, ChaosSchedule::generate(13, &cfg));
    }

    #[test]
    fn schedule_roundtrips_through_json() {
        let schedule = ChaosSchedule::generate(21, &config());
        let json = serde_json::to_string(&schedule).unwrap();
        let back: ChaosSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(schedule, back);
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn undersized_trace_is_rejected() {
        let cfg = ChaosConfig {
            trace_len: 10,
            ..ChaosConfig::default()
        };
        let _ = ChaosSchedule::generate(1, &cfg);
    }

    #[test]
    fn events_at_finds_the_position() {
        let schedule = ChaosSchedule::generate(3, &config());
        let first = schedule.events[0];
        assert_eq!(schedule.events_at(first.at).count(), 1);
        assert!(!schedule.is_empty());
    }
}
