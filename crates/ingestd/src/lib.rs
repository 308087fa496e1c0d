//! `alertops-ingestd`: a sharded, backpressured alert-ingestion daemon
//! serving the streaming governor.
//!
//! The DSN'22 study's governance loop ([`alertops_core::AlertGovernor`])
//! is batch-shaped; [`alertops_core::StreamingGovernor`] makes it
//! incremental; this crate makes it a *service*. The daemon accepts
//! [`alertops_model::Alert`] records over TCP — `alertops-wire` frames
//! in either encoding, NDJSON lines ([`codec`]) or binary, per
//! [`IngestdConfig::wire`]; [`IngressClient`] is the matching client
//! — hash-shards them by [`alertops_model::StrategyId`]
//! — so all evidence for one strategy always lands on one shard — and
//! runs one [`alertops_core::StreamingGovernor`] per shard on its own
//! worker thread behind a bounded queue with explicit backpressure and
//! drop accounting. Those workers and queues are a [`ShardPool`]; a
//! pool and a write-ahead log make a [`Node`], which starts over its
//! log, journals then queues each alert, and re-ingests history. The
//! daemon holds one node and `alertops-cluster` one per range, each
//! under one [`MergePoint`].
//!
//! A window closes on the thread that asks for it — a connection
//! handler answering a `{"ctrl":"flush"}` frame, a caller of
//! [`IngestdHandle::flush`], or the [`IngestdConfig::tick`] thread —
//! through its one [`MergePoint`] under a merge lock: it barriers on one
//! [`alertops_core::WindowDelta`] per shard and merges them into a
//! global [`alertops_core::GovernanceSnapshot`]: newly flagged findings,
//! resolved flags, exact global storm state (reconstructed from summed
//! per-shard region-hour histograms), and the triage list.
//! A plaintext status socket answers one request per connection
//! ([`StatusRequest`]): `status`, the latest snapshot plus ingestion
//! counters as one JSON document; `metrics`, the Prometheus exposition
//! of the pool's registry; or `healthz`, one liveness line.
//!
//! ```text
//!                    ┌────────────┐   bounded    ┌──────────────────┐
//!  TCP ────────────▶ │   router    │ ──queues──▶ │ worker 0..N-1     │
//!  NDJSON or binary  │ shard by    │             │ StreamingGovernor │
//!  alert frames      │ StrategyId  │             └────────┬─────────┘
//!                    └─────┬──────┘               WindowDelta per close
//!                          │ flush or tick                │
//!                          ▼                              ▼
//!                    ┌────────────┐   merge    ┌────────────────────┐
//!                    │ MergePoint  │ ◀─────────│ barrier: one delta │
//!                    └─────┬──────┘            │ per shard per seq  │
//!                          ▼                   └────────────────────┘
//!                 GovernanceSnapshot ──▶ status socket
//! ```
//!
//! Everything is `std`-only: threads, a mutex-and-condvar run queue
//! per shard, and plain TCP sockets.
//!
//! [`Ingestd::spawn_with_wal`] makes the daemon durable with a cluster
//! node's write-ahead log ([`alertops_wire::wal`]): it reads the log
//! back, starts its [`Node`] over it, and restarts as a cluster does
//! ([`MergePoint::restart`]), QoA checkpoint included.
//!
//! The daemon is built to be chaos-tested: shard workers run under a
//! supervisor that catches panics, restarts the worker on the same
//! queue, and rolls its governor back to the last successful window
//! close by rebuilding the engine from its own window digests (the
//! affected window is published with the shard listed in
//! `GovernanceSnapshot::degraded`); malformed
//! ingress is quarantined per [`QuarantineReason`] with exact
//! accounting (`ingested == delivered + dropped + quarantined`); and
//! with [`IngestdConfig::chaos`] enabled the wire accepts fault
//! injection frames (worker panics, stalls, resumes) plus a
//! `{"ctrl":"sync"}` drain barrier so fault timing is deterministic.
//! See `tests/chaos_ingestd.rs` at the workspace root for the scenario
//! matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod codec;
pub mod config;
pub mod counters;
mod daemon;
mod merge;
pub mod metrics;
mod node;
mod pool;
mod queue;
pub mod shard;
pub mod status;
mod worker;

pub use client::IngressClient;
pub use codec::{
    FrameDecoder, FrameError, QuarantineReason, FLUSH_FRAME, MAX_FRAME_LEN, SHUTDOWN_FRAME,
    SYNC_FRAME,
};
pub use config::{IngestdConfig, OverflowPolicy};
pub use counters::{CounterSnapshot, Counters};
pub use daemon::{Ingestd, IngestdHandle, WalRecovery};
pub use merge::{ClosedWindow, MergeCounters, MergeHolder, MergePoint};
pub use metrics::IngestdMetrics;
pub use node::{Node, Restored};
pub use pool::ShardPool;
pub use queue::ShardDocs;
pub use shard::{shard_catalog, shard_of};
pub use status::{StatusReport, StatusRequest};
pub use worker::CHAOS_PANIC_MSG;

pub use alertops_wire::WireFormat;
