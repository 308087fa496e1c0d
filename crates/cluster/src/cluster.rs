//! The cluster driver: N in-process nodes behind one range-routing
//! front door, merged into one global governance snapshot per window.
//!
//! # Shape
//!
//! ```text
//!              route(alert)                   close_window()
//!                   │                               │
//!                   ▼                               ▼
//!            ┌─────────────┐  Close{seq} to   ┌────────────────┐
//!  WAL ◀──── │  RangeMap    │  every node's   │  MergePoint:    │
//!  append    │  node_of(id) │  shards, then   │  one close over │
//!            └──────┬──────┘  one delta per   │  all of them,   │
//!                   ▼         shard back      │  AO-LDA and QoA │
//!          node 0 .. node N-1 ───────────────▶└──────┬─────────┘
//!          (a range, a log,                          ▼
//!           a ShardPool)            qoa.ckpt, boundaries, snapshot
//! ```
//!
//! A node is the contiguous strategy range the
//! [`RangeMap`](crate::RangeMap) assigns it plus an
//! [`alertops_ingestd::Node`] over that range (a write-ahead log and a
//! shard pool, the node a standalone daemon holds too): a fault and
//! durability domain inside one process that merges nothing. The
//! cluster holds the process's one [`MergePoint`], as a daemon does:
//! its close sends `Close{seq}` to every alive node's shards before
//! waiting on any, merges every shard's [`alertops_core::WindowDelta`]
//! and runs the two sequential passes once over the merged window, so
//! a 4-node cluster, a 1-node cluster, and the batch governor publish
//! byte-identical snapshots over the same stream. The crate docs give
//! the durability contract and its deliberate caveats.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use alertops_core::{GovernanceSnapshot, StreamingGovernor};
use alertops_ingestd::{
    shard_catalog, IngestdConfig, MergeCounters, MergeHolder, MergePoint, Node,
};
use alertops_model::{Alert, AlertStrategy, IndexedCatalog, QoaLabel, StrategyId};
use alertops_wire::wal::{replay, Wal, WalFormat, WalReplay};

use crate::metrics::ClusterMetrics;
use crate::range::{node_catalog, RangeMap, StrategyRange};

/// Builds one node's per-shard streaming governor from that shard's
/// sub-catalog. Shared by spawn, rejoin, and handoff respawns.
pub type GovernorFactory = Arc<dyn Fn(&[AlertStrategy]) -> StreamingGovernor + Send + Sync>;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes. Each owns a contiguous strategy range.
    pub nodes: usize,
    /// Per-node shard pool configuration, with the daemon-only `tick`,
    /// `listen` and `status` unset: closes are the cluster's
    /// ([`AlertCluster::close_window`]) and [`AlertCluster::route`] is
    /// the only way in. `streaming.emerging.mode` and
    /// `streaming.qoa.mode` switch the *cluster's* channels, run once
    /// per close by the [`MergePoint`] (token budget included), so
    /// node count cannot change what they see.
    pub node: IngestdConfig,
    /// Directory holding one WAL subdirectory per node
    /// (`<wal_root>/node-<i>/`) and the merge point's QoA checkpoint
    /// (`<wal_root>/coordinator/`). Created if missing; existing logs
    /// are replayed on spawn (lossless restart).
    pub wal_root: PathBuf,
    /// Frozen-bench scaffolding with one value until ROADMAP item 1(b)
    /// (see [`WalFormat`]): nothing reads it. Every append is v2, and
    /// replay reads v2 only.
    pub wal_format: WalFormat,
}

impl ClusterConfig {
    /// Validates cluster invariants (node count, pool config, no
    /// daemon-only field set on a node).
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("a cluster needs at least one node".into());
        }
        // A node is shards and a log, not a daemon: closes are
        // cluster-coordinated, and an alert entering a socket would
        // reach the shards without being journaled or counted.
        let node = &self.node;
        if node.tick.is_some() || node.listen.is_some() || node.status.is_some() {
            return Err("cluster nodes must not tick, listen or serve a status socket".into());
        }
        node.validate()
    }
}

/// What a completed handoff did, for callers and benches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoffReport {
    /// The strategy range that moved.
    pub range: StrategyRange,
    /// Source node index.
    pub from: usize,
    /// Target node index.
    pub to: usize,
    /// Alerts shipped (sealed history plus in-flight tail).
    pub moved_alerts: u64,
    /// End-to-end latency in microseconds (seal, ship, respawn).
    pub micros: u64,
}

/// Point-in-time cluster conservation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Alerts accepted at the cluster edge (quarantined included).
    pub ingested: u64,
    /// Alerts folded into published window closes.
    pub delivered: u64,
    /// Alerts lost: node overflow shedding, failed WAL appends and WAL
    /// truncation losses.
    pub dropped: u64,
    /// Alerts rejected at the edge (strategy outside the catalog).
    pub quarantined: u64,
    /// Alerts journaled but not yet part of a closed window.
    pub in_flight: u64,
    /// Cluster windows published.
    pub windows_closed: u64,
}

impl ClusterCounters {
    /// The cluster conservation law. Exact at any quiescent point
    /// (route/close calls not mid-flight), including with nodes dead:
    /// a dead node's alerts are `in_flight` until the first close
    /// after its rejoin.
    #[must_use]
    pub fn is_conserved(&self) -> bool {
        self.ingested == self.delivered + self.dropped + self.quarantined + self.in_flight
    }
}

/// A running cluster. Routing takes `&self` (each node's log and
/// queues serialize their own writers), so a routing front can share
/// the cluster; closes, `kill`, `rejoin` and `handoff` take `&mut
/// self`, which is what makes a window close a true barrier and the
/// merge deterministic.
pub struct AlertCluster {
    config: ClusterConfig,
    /// The whole catalog; membership is the edge quarantine test.
    catalog: IndexedCatalog,
    map: RangeMap,
    /// One per range: a log (always) and shards (while alive).
    nodes: Vec<Node>,
    /// Each node's pool `dropped` counter at the last close, so each
    /// close surfaces only the new overflow shedding.
    last_dropped: Vec<u64>,
    make_governor: GovernorFactory,
    latest: Option<GovernanceSnapshot>,
    /// The process's one merge point: its window sequence, AO-LDA
    /// detector and QoA model.
    merge: MergePoint,
    metrics: ClusterMetrics,
}

impl std::fmt::Debug for AlertCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlertCluster")
            .field("nodes", &self.config.nodes)
            .field("seq", &self.merge.next_seq())
            .field("alive", &self.alive_nodes())
            .finish_non_exhaustive()
    }
}

fn node_dir(wal_root: &Path, node: usize) -> PathBuf {
    wal_root.join(format!("node-{node}"))
}

/// Reads back the logs of `nodes` ([`replay`]), every one before any
/// node starts over its directory and wipes it.
fn read_logs(
    metrics: &ClusterMetrics,
    wal_root: &Path,
    nodes: impl IntoIterator<Item = usize>,
) -> io::Result<Vec<WalReplay>> {
    let read = |node| {
        let replayed = replay(&node_dir(wal_root, node))?;
        metrics.wal_replayed_alerts.add(replayed.recovered_alerts);
        metrics.wal_torn_records.add(replayed.torn_records);
        Ok(replayed)
    };
    nodes.into_iter().map(read).collect()
}

/// Sealed windows as a replay yields them: `(seq, alerts)` in order.
type Windows = Vec<(u64, Vec<Alert>)>;

/// Merges windows of one sequence number into one, each time-sorted.
fn merge_windows(windows: impl IntoIterator<Item = (u64, Vec<Alert>)>) -> Windows {
    let mut merged: BTreeMap<u64, Vec<Alert>> = BTreeMap::new();
    for (seq, alerts) in windows {
        merged.entry(seq).or_default().extend(alerts);
    }
    merged.values_mut().for_each(|alerts| by_time(alerts));
    merged.into_iter().collect()
}

fn by_time(alerts: &mut [Alert]) {
    alerts.sort_by_key(|a| (a.raised_at(), a.id()));
}

/// A cluster node's log: every cluster node journals.
fn log(node: &Node) -> &Wal {
    node.wal().expect("a cluster node always keeps a log")
}

/// Alerts journaled for `node` since its last boundary: the in-flight
/// window, including alerts routed while dead. The log is the only
/// count.
fn in_flight(node: &Node) -> u64 {
    log(node).depth().pending_records
}

impl AlertCluster {
    /// Starts (or restarts) the cluster over `catalog`: reads back every
    /// node log under [`ClusterConfig::wal_root`], starts each node, and
    /// re-ingests what the logs held through [`MergePoint::restart`]
    /// (the daemon's restart too). Sealed windows re-publish in order,
    /// tails come back in flight and the QoA model resumes from its
    /// checkpoint: lossless with no live peer.
    ///
    /// # Errors
    ///
    /// Config validation surfaces as [`io::ErrorKind::InvalidInput`];
    /// filesystem and spawn errors pass through.
    pub fn spawn(
        config: ClusterConfig,
        catalog: Vec<AlertStrategy>,
        make_governor: GovernorFactory,
    ) -> io::Result<Self> {
        config
            .validate()
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;

        let metrics = ClusterMetrics::new(config.nodes);
        metrics.nodes.set(config.nodes as u64);
        // Every previous incarnation's log is read back before any is
        // wiped, and re-routed by the *new* map, so recovery survives
        // topology changes between runs.
        let logs = read_logs(&metrics, &config.wal_root, 0..config.nodes)?;
        let coordinator_dir = config.wal_root.join("coordinator");
        fs::create_dir_all(&coordinator_dir)?;

        let counters = MergeCounters {
            windows_closed: Arc::clone(&metrics.windows_closed),
            degraded_windows: Arc::clone(&metrics.degraded_windows),
            write_errors: Arc::clone(&metrics.wal_write_errors),
            checkpoints_discarded: Arc::clone(&metrics.qoa_checkpoints_discarded),
            emerging: Some(metrics.emerging.clone()),
            qoa: Some(metrics.qoa.clone()),
            correlation: Some(metrics.react.clone()),
            merge_timer: None,
        };
        let merge = MergePoint::new(&config.node, Some(coordinator_dir), counters);
        let mut cluster = Self {
            map: RangeMap::partition(&catalog, config.nodes),
            catalog: IndexedCatalog::new(catalog),
            nodes: Vec::with_capacity(config.nodes),
            last_dropped: vec![0; config.nodes],
            config,
            make_governor,
            latest: None,
            merge,
            metrics,
        };
        for node in 0..cluster.config.nodes {
            let started = cluster.start_node(node)?;
            cluster.nodes.push(started);
        }

        // Each sealed window, time-sorted across its nodes, routes and
        // closes at its original sequence number, so counters, the
        // published snapshot, and per-node boundaries all line up with
        // where the previous incarnation stopped.
        let (windows, tails): (Vec<_>, Vec<_>) =
            logs.into_iter().map(|r| (r.windows, r.tail)).unzip();
        let windows = merge_windows(windows.into_iter().flatten());
        let mut tail = tails.concat();
        by_time(&mut tail);
        MergePoint::restart(&mut Spawning(&mut cluster), windows, tail)?;
        Ok(cluster)
    }

    /// Starts `node` of the current map over its log directory
    /// ([`Node::start`]); its log must have been read back already.
    fn start_node(&self, node: usize) -> io::Result<Node> {
        let node_cat = node_catalog(self.catalog.rows(), &self.map, node);
        let dir = node_dir(&self.config.wal_root, node);
        Node::start(&self.config.node, Some(&dir), &mut |shard, shards| {
            (self.make_governor)(&shard_catalog(&node_cat, shards, shard))
        })
    }

    /// Restarts each `(node, windows, tail)`: starts the node afresh
    /// over its log, read back already, and re-ingests `windows` as
    /// history and `tail` as in flight ([`Node::restore_history`]). What
    /// the restarted nodes no longer hold in flight (a truncated log
    /// could not give it back, or a failed append shed it) is counted
    /// `dropped`. On error the node that failed stays as it was.
    fn respawn(&mut self, restarts: Vec<(usize, Windows, Vec<Alert>)>) -> io::Result<()> {
        let ids: Vec<usize> = restarts.iter().map(|restart| restart.0).collect();
        let pending = |nodes: &[Node]| ids.iter().map(|&id| in_flight(&nodes[id])).sum::<u64>();
        let journaled = pending(&self.nodes);
        for (node, windows, tail) in restarts {
            let fresh = self.start_node(node)?;
            let restored = fresh.restore_history(windows, tail)?;
            self.nodes[node] = fresh;
            self.last_dropped[node] = restored.history_dropped;
            self.metrics.wal_write_errors.add(restored.write_errors);
        }
        let restored = pending(&self.nodes);
        self.metrics.dropped.add(journaled.saturating_sub(restored));
        Ok(())
    }

    /// The routing table.
    #[must_use]
    pub fn range_map(&self) -> &RangeMap {
        &self.map
    }

    /// Nodes currently running.
    #[must_use]
    pub fn alive_nodes(&self) -> usize {
        self.nodes.iter().filter(|node| node.is_alive()).count()
    }

    /// Whether `node` is currently running.
    #[must_use]
    pub fn is_alive(&self, node: usize) -> bool {
        self.nodes.get(node).is_some_and(Node::is_alive)
    }

    /// Routes one alert: quarantines unknown strategies at the edge and
    /// hands the rest to the owning node ([`Node::route`]), which
    /// journals it and, if alive, queues it; a dead node's alerts are
    /// delivered in the first close after its rejoin.
    ///
    /// # Errors
    ///
    /// A failed WAL append sheds the alert, counted `dropped` and a
    /// write error. Nothing else fails.
    pub fn route(&self, alert: Alert) -> io::Result<()> {
        self.metrics.ingested.inc();
        if self.catalog.get(alert.strategy()).is_none() {
            self.metrics.quarantined.inc();
            return Ok(());
        }
        let node = &self.nodes[self.map.node_of(alert.strategy())];
        node.route(alert).inspect_err(|_| {
            self.metrics.dropped.inc();
            self.metrics.wal_write_errors.inc();
        })
    }

    /// Closes the cluster window through the merge point
    /// ([`MergePoint::close`], a daemon's close too): one merge over
    /// every alive node's shards (cluster == 1-node == batch, byte for
    /// byte), each alive node's log sealed at this sequence number.
    /// Dead nodes' shards are listed `degraded` and their alerts stay
    /// in flight; a node whose workers are found gone is killed.
    ///
    /// # Errors
    ///
    /// None: a failed checkpoint or boundary write is counted
    /// ([`wal_write_errors`](Self::wal_write_errors)) and the close
    /// completes, published and counted.
    pub fn close_window(&mut self) -> io::Result<GovernanceSnapshot> {
        self.close_window_labeled(Vec::new())
    }

    /// [`close_window`](Self::close_window) with the window's OCE
    /// feedback labels: with the QoA loop on, the merge point updates
    /// the model once and replaces its checkpoint before any log is
    /// sealed (with every node dead too); its verdicts govern from the
    /// *next* close on.
    ///
    /// # Errors
    ///
    /// None, as [`close_window`](Self::close_window).
    pub fn close_window_labeled(
        &mut self,
        labels: Vec<QoaLabel>,
    ) -> io::Result<GovernanceSnapshot> {
        let (closed, dead) = self.merge.close(&self.nodes, &labels);
        for node in dead {
            self.kill(node);
        }
        // Surface pool-internal overflow shedding since the last close;
        // everything else pending was just delivered.
        for (node, last) in self.nodes.iter().zip(&mut self.last_dropped) {
            if let Some(pool) = node.pool() {
                let dropped = pool.counters().dropped.get();
                self.metrics.dropped.add(dropped.saturating_sub(*last));
                *last = dropped;
            }
        }
        let snapshot = closed.snapshot;
        self.metrics.delivered.add(snapshot.alert_count as u64);
        self.latest = Some(snapshot.clone());
        Ok(snapshot)
    }

    /// Kills `node`: its shard workers stop and every alert they held
    /// in memory is discarded — the in-process model of `kill -9`. The
    /// node's WAL survives untouched; [`rejoin`](Self::rejoin) brings
    /// the state back from it. No-op if already dead.
    pub fn kill(&mut self, node: usize) {
        self.nodes[node].kill();
    }

    /// Rejoins a killed `node`: reads its log back, then starts it
    /// afresh over it and re-ingests the sealed windows as history and
    /// the tail as pending ([`Node::restore_history`]). Alerts a log
    /// truncated while dead cannot give back are counted `dropped`.
    /// No-op if the node is running.
    ///
    /// # Errors
    ///
    /// Replay, WAL, and spawn failures pass through; the node stays
    /// dead on error.
    pub fn rejoin(&mut self, node: usize) -> io::Result<()> {
        if self.is_alive(node) {
            return Ok(());
        }
        let replayed = read_logs(&self.metrics, &self.config.wal_root, [node])?.remove(0);
        self.respawn(vec![(node, replayed.windows, replayed.tail)])
    }

    /// Hands `range` off to node `to` live: both ends are killed and
    /// their logs read back, the range's slice of the source's windows
    /// and tail moves to the target (merged by sequence number), the
    /// map is carved, and both ends restart. The handoff window closes
    /// byte-identical to a run that never rebalanced.
    ///
    /// # Errors
    ///
    /// Requires the whole range to be owned by one alive source node
    /// and `to` to be alive ([`io::ErrorKind::InvalidInput`]
    /// otherwise); WAL and spawn errors pass through.
    pub fn handoff(&mut self, range: StrategyRange, to: usize) -> io::Result<HandoffReport> {
        let from = self.map.node_of(StrategyId(range.start));
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        if self.map.node_of(StrategyId(range.end)) != from {
            return Err(invalid(format!(
                "range {}..={} spans multiple source nodes",
                range.start, range.end
            )));
        }
        if to >= self.nodes.len() {
            return Err(invalid(format!("target node {to} outside cluster")));
        }
        if !self.is_alive(from) || !self.is_alive(to) {
            return Err(invalid(format!(
                "handoff needs both ends alive (source {from}, target {to})"
            )));
        }
        if from == to {
            return Ok(HandoffReport {
                range,
                from,
                to,
                moved_alerts: 0,
                micros: 0,
            });
        }
        let started = Instant::now();

        // Seal both ends: in-memory state is discarded, the WALs are
        // the (complete) truth, and both are read before either is
        // wiped.
        self.kill(from);
        self.kill(to);
        let logs = read_logs(&self.metrics, &self.config.wal_root, [from, to])?;
        let [src, dst] = <[WalReplay; 2]>::try_from(logs).expect("one log per node read");

        // Split the source by the moving range.
        let in_range = |a: &Alert| range.contains(a.strategy());
        let (moved_windows, kept_windows): (Vec<_>, Vec<_>) = (src.windows.into_iter())
            .map(|(seq, alerts)| {
                let (moved, kept): (Vec<_>, Vec<_>) = alerts.into_iter().partition(in_range);
                ((seq, moved), (seq, kept))
            })
            .unzip();
        let (moved_tail, kept_tail): (Vec<_>, Vec<_>) = src.tail.into_iter().partition(in_range);

        let moved = moved_windows.iter().map(|(_, alerts)| alerts.len());
        let moved_alerts = (moved.sum::<usize>() + moved_tail.len()) as u64;

        // The source restarts without the range; the target with its
        // history merged window-by-window with the moved slice (keyed by
        // sequence number: the two ends may have different retained
        // depths or boundary gaps from past faults). In-flight alerts
        // move with the range.
        self.map.reassign(range, to);
        let target_windows = merge_windows(dst.windows.into_iter().chain(moved_windows));
        let mut target_tail = dst.tail;
        target_tail.extend(moved_tail);
        by_time(&mut target_tail);
        self.respawn(vec![
            (from, kept_windows, kept_tail),
            (to, target_windows, target_tail),
        ])?;

        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.handoffs.inc();
        self.metrics.handoff_micros.observe(micros);
        Ok(HandoffReport {
            range,
            from,
            to,
            moved_alerts,
            micros,
        })
    }

    /// Chaos hook: chops `bytes` off the end of `node`'s newest WAL
    /// segment, simulating a torn write or disk corruption. The damage
    /// surfaces at the next replay (rejoin or restart) as torn
    /// records; the lost alerts are counted `dropped` there.
    ///
    /// # Errors
    ///
    /// Filesystem errors pass through; no segment is a no-op.
    pub fn truncate_wal_tail(&mut self, node: usize, bytes: u64) -> io::Result<()> {
        let dir = log(&self.nodes[node]).dir();
        let mut newest: Option<PathBuf> = None;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "wal")
                && newest.as_ref().is_none_or(|n| *n < path)
            {
                newest = Some(path);
            }
        }
        let Some(path) = newest else { return Ok(()) };
        let len = std::fs::metadata(&path)?.len();
        let file = std::fs::OpenOptions::new().write(true).open(&path)?;
        file.set_len(len.saturating_sub(bytes))?;
        Ok(())
    }

    /// The most recently published cluster snapshot.
    #[must_use]
    pub fn latest_snapshot(&self) -> Option<GovernanceSnapshot> {
        self.latest.clone()
    }

    /// FNV-1a digest of the online QoA model (weights, biases, EMAs,
    /// absorbed-window count), or `None` with the loop off. Equal
    /// digests mean bit-identical models — what the restart suite
    /// compares across a shutdown/spawn cycle.
    #[must_use]
    pub fn qoa_model_digest(&self) -> Option<u64> {
        self.merge.qoa_model().map(|model| model.digest())
    }

    /// The sequence number the next window close will publish under —
    /// what a feedback oracle should label the in-flight window as.
    /// Starts past any windows recovered from WAL replay at spawn.
    #[must_use]
    pub fn next_window_seq(&self) -> u64 {
        self.merge.next_seq()
    }

    /// WAL appends, seals and QoA checkpoint writes that failed since
    /// spawn.
    #[must_use]
    pub fn wal_write_errors(&self) -> u64 {
        self.metrics.wal_write_errors.get()
    }

    /// Point-in-time conservation counters.
    #[must_use]
    pub fn counters(&self) -> ClusterCounters {
        ClusterCounters {
            ingested: self.metrics.ingested.get(),
            delivered: self.metrics.delivered.get(),
            dropped: self.metrics.dropped.get(),
            quarantined: self.metrics.quarantined.get(),
            in_flight: self.nodes.iter().map(in_flight).sum(),
            windows_closed: self.metrics.windows_closed.get(),
        }
    }

    /// The cluster's metric handles.
    #[must_use]
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Renders the `alertops_cluster_*` Prometheus exposition,
    /// refreshing the point-in-time gauges (nodes alive, WAL depth per
    /// node, in-flight total) first.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let mut in_flight = 0;
        for (node, gauges) in self.nodes.iter().zip(&self.metrics.wal) {
            let depth = log(node).depth();
            gauges.sealed_segments.set(depth.sealed_segments);
            gauges.pending_records.set(depth.pending_records);
            in_flight += depth.pending_records;
        }
        self.metrics.in_flight.set(in_flight);
        self.metrics.nodes_alive.set(self.alive_nodes() as u64);
        self.metrics.render()
    }

    /// Stops every node. The WALs stay on disk; a later
    /// [`spawn`](Self::spawn) over the same `wal_root` restarts
    /// losslessly.
    pub fn shutdown(self) {
        drop(self); // each pool stops and joins its workers
    }
}

/// A spawning cluster: the one way in to its merge point's restart.
struct Spawning<'a>(&'a mut AlertCluster);

impl MergeHolder for Spawning<'_> {
    fn merge_point(&mut self) -> &mut MergePoint {
        &mut self.0.merge
    }

    fn route_recovered(&mut self, alert: Alert) {
        let _ = self.0.route(alert); // a failed append is counted and shed
    }

    fn close_recovered(&mut self) -> io::Result<()> {
        self.0.close_window().map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(node: IngestdConfig) -> ClusterConfig {
        ClusterConfig {
            nodes: 2,
            node,
            wal_root: PathBuf::from("unused"),
            wal_format: WalFormat::default(),
        }
    }

    #[test]
    fn a_listening_node_is_rejected() {
        assert_eq!(config(IngestdConfig::default()).validate(), Ok(()));
        let listening = config(IngestdConfig {
            listen: Some("127.0.0.1:0".into()),
            ..IngestdConfig::default()
        });
        assert!(listening.validate().unwrap_err().contains("listen"));
    }

    #[test]
    fn a_node_status_socket_is_rejected() {
        let serving = config(IngestdConfig {
            status: Some("127.0.0.1:0".into()),
            ..IngestdConfig::default()
        });
        assert!(serving.validate().unwrap_err().contains("status"));
    }
}
