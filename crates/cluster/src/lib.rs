//! `alertops-cluster`: a multi-node cluster of shard pools with
//! durable write-ahead logs and live range rebalancing.
//!
//! The DSN'22 governance loop scaled from batch
//! ([`alertops_core::AlertGovernor`]) to incremental
//! ([`alertops_core::StreamingGovernor`]) to a sharded daemon
//! ([`alertops_ingestd`]); this crate takes the last step to a
//! *topology*. N nodes — each a contiguous
//! [`alertops_model::StrategyId`] range ([`RangeMap`]) over an
//! [`alertops_ingestd::Node`] (a log and a shard pool, the node a
//! daemon holds too), a fault and durability domain inside one process
//! — sit under one [`AlertCluster`]. It routes alerts by range and
//! closes every window through its [`alertops_ingestd::MergePoint`]
//! (the daemon's too): one merge of every shard's
//! [`alertops_core::WindowDelta`], so a 4-node cluster, a 1-node
//! cluster, and the batch governor publish **byte-identical** snapshots
//! over the same stream.
//!
//! Three mechanisms make the topology survivable:
//!
//! - **Write-ahead log** ([`alertops_wire::wal`], the same log a
//!   standalone `ingestd --wal` keeps): a node journals every accepted
//!   alert before it queues it ([`alertops_ingestd::Node::route`]), and
//!   each close seals every alive node's log with an `fsync`. A killed
//!   node loses its memory, never its log. Logs hold alerts and
//!   boundaries only; the online QoA model has one file of its own
//!   (`<wal_root>/coordinator/qoa.ckpt`), replaced at every close
//!   before any log is sealed. A failed checkpoint or seal is counted
//!   and the close completes; a failed append sheds its alert, counted
//!   `dropped`.
//! - **Rejoin replay** ([`AlertCluster::rejoin`],
//!   [`AlertCluster::spawn`]): every restart reads back each log it
//!   needs before it starts any node over one
//!   ([`alertops_ingestd::Node::start`] wipes and reopens a log).
//!   Sealed windows rebuild the detection history and the tail comes
//!   back in flight, so a whole-cluster restart is lossless with no
//!   live peer. A dead node's alerts wait in its log and are delivered
//!   in the first close after its rejoin.
//! - **Range handoff** ([`AlertCluster::handoff`]): the moving range's
//!   slice of the source's windows and tail is re-journaled into the
//!   target's log and both ends restart mid-stream, dropping and
//!   double-counting nothing.
//!
//! The conservation law
//! `ingested == delivered + dropped + quarantined + in_flight`
//! ([`ClusterCounters::is_conserved`]) holds at every quiescent point,
//! nodes dead or alive, and is scraped as `alertops_cluster_*` series
//! ([`ClusterMetrics`]). Fault schedules come from `alertops-chaos`;
//! the scenario matrix is `tests/cluster.rs` at the workspace root.
//!
//! Caveats, on purpose: under [`alertops_ingestd::OverflowPolicy::Drop`]
//! a shed alert is already journaled, so replay can resurrect it into
//! the rebuilt detection history (`Block`, the default, keeps history
//! exact under faults); and a whole-cluster restart rebuilds the AO-LDA
//! detector from the retained windows only (its adaptive prior depends
//! on a stream that is not journaled), while the QoA model comes back
//! exactly from its checkpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
pub mod range;

mod metrics;

pub use alertops_wire::wal::{replay, Wal, WalDepth, WalFormat, WalReplay};
pub use cluster::{AlertCluster, ClusterConfig, ClusterCounters, GovernorFactory, HandoffReport};
pub use metrics::ClusterMetrics;
pub use range::{node_catalog, RangeMap, StrategyRange};
