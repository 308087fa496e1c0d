//! `alertops-cluster`: a multi-node cluster of shard pools with
//! durable write-ahead logs and live range rebalancing.
//!
//! The DSN'22 governance loop scaled from batch
//! ([`alertops_core::AlertGovernor`]) to incremental
//! ([`alertops_core::StreamingGovernor`]) to a sharded daemon
//! ([`alertops_ingestd`]); this crate takes the last step to a
//! *topology*. N nodes — each a contiguous
//! [`alertops_model::StrategyId`] range ([`RangeMap`]), a log and an
//! [`alertops_ingestd::ShardPool`], a fault and durability domain
//! inside one process — sit under one [`AlertCluster`], which routes
//! alerts by range and, through its [`alertops_ingestd::MergePoint`]
//! (the daemon's too), collects one
//! [`alertops_core::WindowDelta`] per shard at window close, and merges
//! them all, once, through the same commutative monoid the daemon uses
//! — so a 4-node cluster, a 1-node cluster, and the batch governor
//! publish **byte-identical** snapshots over the same stream.
//!
//! Three mechanisms make the topology survivable:
//!
//! - **Write-ahead log** ([`alertops_wire::wal`], the same log a
//!   standalone `ingestd --wal` keeps): every accepted alert is journaled
//!   to its owner's length+CRC-framed log (binary `alertops-wire`
//!   frames, the one layout it writes and replays) before it is
//!   routed; window boundaries seal segments with an `fsync`. A killed
//!   node loses its memory, never its log. A node's
//!   log holds that node's alerts and boundaries; the one piece of
//!   merge-point state that must outlive a restart, the online QoA
//!   model, has one file of its own (`<wal_root>/coordinator/qoa.ckpt`),
//!   replaced at every close.
//! - **Rejoin replay** ([`AlertCluster::rejoin`],
//!   [`AlertCluster::spawn`]): sealed windows rebuild the rolling
//!   detection history, the in-flight tail comes back as pending work,
//!   and a whole-cluster restart re-ingests the recovered stream
//!   end-to-end — lossless with no live peer.
//! - **Range handoff** ([`AlertCluster::handoff`]): both ends seal, the
//!   moving range's slice of the source's retained windows and
//!   in-flight tail is re-journaled into the target's log, and both
//!   ends respawn mid-stream without dropping or double-counting a
//!   window.
//!
//! Everything is accounted: the cluster-level conservation law
//! `ingested == delivered + dropped + quarantined + in_flight`
//! ([`ClusterCounters::is_conserved`]) holds at every quiescent point,
//! nodes dead or alive, and the whole topology is observable as
//! `alertops_cluster_*` Prometheus series ([`ClusterMetrics`]).
//! Fault schedules come from `alertops-chaos` (node kills, rejoins,
//! WAL truncation) and the scenario matrix lives in
//! `tests/cluster.rs` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
pub mod range;

mod metrics;

pub use alertops_wire::wal::{replay, Wal, WalDepth, WalFormat, WalReplay};
pub use cluster::{AlertCluster, ClusterConfig, ClusterCounters, GovernorFactory, HandoffReport};
pub use metrics::ClusterMetrics;
pub use range::{node_catalog, RangeMap, StrategyRange};
