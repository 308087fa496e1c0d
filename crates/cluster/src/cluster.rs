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
//!  append    │  node_of(id) │  shards, then   │  one closer,    │
//!            └──────┬──────┘  one delta per   │  one close over │
//!                   ▼         shard back      │  all of them    │
//!          node 0 .. node N-1 ───────────────▶└──────┬─────────┘
//!          (a range, a log,                          ▼
//!           a ShardPool)            qoa.ckpt, boundaries, snapshot
//! ```
//!
//! A node is the contiguous strategy range the
//! [`RangeMap`](crate::RangeMap) assigns it, a write-ahead log, and an
//! [`alertops_ingestd::ShardPool`] over that range: a fault and
//! durability domain inside one process that merges nothing. The
//! cluster holds the process's one [`MergePoint`], as a standalone
//! daemon does: its close sends `Close{seq}` to every alive node's
//! shards before waiting on any and hands every shard's
//! [`alertops_core::WindowDelta`] to one [`WindowCloser`], so a 4-node
//! cluster, a 1-node cluster, and the batch governor publish
//! byte-identical snapshots over the same stream.
//!
//! # Durability
//!
//! The cluster appends every accepted alert to the owning node's
//! write-ahead log *before* routing it ([`alertops_wire::wal`], the log
//! a standalone daemon keeps too), and writes the window boundary to
//! each **alive** node's log at close. A killed node's in-memory state
//! is gone, but its log is not: rejoin replays
//! the retained windows through a fresh pool (rebuilding the rolling
//! detection history), rewrites the log, and restores the in-flight
//! tail as pending work. A node that dies with no live peer is the
//! same story at cluster scale: [`AlertCluster::spawn`] finds the old
//! logs and re-ingests them through the full pipeline before accepting
//! new traffic.
//!
//! Because boundaries are only written to alive nodes, alerts routed
//! to a dead node keep accumulating in its open segment; they are
//! delivered in the first window closed after rejoin. Within one
//! window (kill and rejoin between two closes) this is invisible —
//! snapshots stay byte-identical to the no-fault run. Across a close
//! the affected alerts shift one window later (and the dead node's
//! shards are published in [`GovernanceSnapshot::degraded`]), then the
//! stream reconverges; nothing is dropped or double-counted either
//! way, which the conservation law checks end to end:
//!
//! ```text
//! ingested == delivered + dropped + quarantined + in_flight
//! ```
//!
//! # Caveats (deliberate)
//!
//! - Under [`alertops_ingestd::OverflowPolicy::Drop`], a shed alert is
//!   already journaled (write-ahead), so replay can resurrect it into
//!   the rebuilt detection history — the durable log being *more*
//!   complete than the lossy live run. Clusters that need exact
//!   history equivalence under faults use `Block` (the default).
//! - The emerging (AO-LDA) detector is sequential state owned by the
//!   merge point; node kill/rejoin never touches it, but a
//!   whole-cluster restart rebuilds it from the retained window
//!   history only — AO-LDA's adaptive prior depends on the full
//!   preceding stream, which is not journaled.
//! - The online QoA model is merge-point state of the same shape, but
//!   it takes the other side of that trade: labels are not journaled,
//!   so replayed windows could not relearn it, and the merge point
//!   checkpoints it instead — one file,
//!   `<wal_root>/coordinator/qoa.ckpt`, replaced at every close before
//!   any node's boundary for that close is written, nodes alive or
//!   not. A whole-cluster restart restores the exact weights and EMAs
//!   from it. Node logs hold node state only.
//! - A failed checkpoint or boundary write is counted and the close
//!   completes; a failed append sheds its alert, counted `dropped`.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use alertops_core::{GovernanceSnapshot, StreamingGovernor, WindowCloser};
use alertops_ingestd::{
    shard_catalog, IngestdConfig, MergeCounters, MergeHolder, MergePoint, ShardPool,
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
    /// Per-node shard pool configuration. The daemon-only fields must
    /// stay unset: `tick` (closes are cluster-coordinated,
    /// [`AlertCluster::close_window`], never wall clock) and `listen` /
    /// `status` ([`AlertCluster::route`] is the only way in, because it
    /// is what journals).
    /// `streaming.emerging.mode` and `streaming.qoa.mode` switch the
    /// *cluster's* channels: every shard forwards documents and
    /// samples, and the merge point's [`WindowCloser`] runs the one
    /// AO-LDA pass and the one `partial_fit` pass, checkpointing the
    /// model to its own file at each close. Any storm-load token budget
    /// (`streaming.emerging.config.budget`) is likewise applied once,
    /// after the merge, so node count cannot change the sampled tokens.
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

/// One node slot: its log (always present) and its shards (absent
/// while killed).
#[derive(Debug)]
struct NodeSlot {
    dir: PathBuf,
    wal: Wal,
    pool: Option<ShardPool>,
    /// The pool's `dropped` counter at the last close, so each close
    /// surfaces only the new overflow shedding.
    last_dropped: u64,
}

impl NodeSlot {
    /// Alerts journaled for this node since its last boundary — the
    /// in-flight window, including alerts routed while dead. The log
    /// is the only count.
    fn in_flight(&self) -> u64 {
        self.wal.depth().pending_records
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

/// A running cluster. Single-threaded driver: all mutation goes
/// through `&mut self`, which is what makes window closes a true
/// barrier and the merge deterministic.
pub struct AlertCluster {
    config: ClusterConfig,
    /// The whole catalog; membership is the edge quarantine test.
    catalog: IndexedCatalog,
    map: RangeMap,
    slots: Vec<NodeSlot>,
    make_governor: GovernorFactory,
    latest: Option<GovernanceSnapshot>,
    /// The process's one merge point: its window sequence and closer.
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

/// Replays the log in `dir`, counting what it read back.
fn replay_counted(metrics: &ClusterMetrics, dir: &Path) -> io::Result<WalReplay> {
    let replayed = replay(dir)?;
    metrics.wal_replayed_alerts.add(replayed.recovered_alerts);
    metrics.wal_torn_records.add(replayed.torn_records);
    Ok(replayed)
}

fn spawn_pool(
    config: &IngestdConfig,
    node_cat: &[AlertStrategy],
    make_governor: &GovernorFactory,
) -> io::Result<ShardPool> {
    ShardPool::spawn(config, |shard, shards| {
        make_governor(&shard_catalog(node_cat, shards, shard))
    })
}

impl AlertCluster {
    /// Starts (or restarts) the cluster over `catalog`. If the WAL
    /// directories under [`ClusterConfig::wal_root`] hold a previous
    /// incarnation's logs, they are replayed through the full pipeline
    /// first ([`MergePoint::restart`], the daemon's restart too) —
    /// sealed windows are re-ingested and re-published in order
    /// (restoring the latest snapshot, the detection history, and the
    /// window sequence), in-flight tails come back as pending work, and
    /// the online QoA model resumes from the checkpoint file. Restart
    /// is lossless with no live peer.
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

        // Every previous incarnation's log is read back before anything
        // is routed, and re-routed by the *new* map, so recovery
        // survives topology changes between runs.
        let mut recovered_windows: BTreeMap<u64, Vec<Alert>> = BTreeMap::new();
        let mut recovered_tail: Vec<Alert> = Vec::new();
        let map = RangeMap::partition(&catalog, config.nodes);
        let mut slots = Vec::with_capacity(config.nodes);
        for node in 0..config.nodes {
            let dir = config.wal_root.join(format!("node-{node}"));
            let replayed = replay_counted(&metrics, &dir)?;
            for (seq, alerts) in replayed.windows {
                recovered_windows.entry(seq).or_default().extend(alerts);
            }
            recovered_tail.extend(replayed.tail);
            Wal::wipe(&dir)?;
            let wal = Wal::open(&dir, config.node.wal_retain())?;
            let node_cat = node_catalog(&catalog, &map, node);
            let pool = spawn_pool(&config.node, &node_cat, &make_governor)?;
            slots.push(NodeSlot {
                dir,
                wal,
                pool: Some(pool),
                last_dropped: 0,
            });
        }
        metrics.nodes_alive.set(config.nodes as u64);
        let coordinator_dir = config.wal_root.join("coordinator");
        fs::create_dir_all(&coordinator_dir)?;

        let streaming = &config.node.streaming;
        let closer = WindowCloser::new(streaming.storm, streaming.emerging.unless_off(), None)
            .with_metrics(metrics.emerging.clone(), metrics.qoa.clone());
        let counters = MergeCounters {
            windows_closed: Arc::clone(&metrics.windows_closed),
            degraded_windows: Arc::clone(&metrics.degraded_windows),
            write_errors: Arc::clone(&metrics.wal_write_errors),
            checkpoints_discarded: Arc::clone(&metrics.qoa_checkpoints_discarded),
        };
        let merge = MergePoint::new(closer, &config.node, Some(coordinator_dir), counters);
        let mut cluster = Self {
            config,
            catalog: IndexedCatalog::new(catalog),
            map,
            slots,
            make_governor,
            latest: None,
            merge,
            metrics,
        };

        // Each sealed window, time-sorted across its nodes, routes and
        // closes at its original sequence number, so counters, the
        // published snapshot, and per-node boundaries all line up with
        // where the previous incarnation stopped.
        for window in recovered_windows.values_mut() {
            window.sort_by_key(|a| (a.raised_at(), a.id()));
        }
        recovered_tail.sort_by_key(|a| (a.raised_at(), a.id()));
        let mut spawning = Spawning(&mut cluster);
        MergePoint::restart(&mut spawning, recovered_windows, recovered_tail)?;
        Ok(cluster)
    }

    /// The routing table.
    #[must_use]
    pub fn range_map(&self) -> &RangeMap {
        &self.map
    }

    /// Nodes currently running.
    #[must_use]
    pub fn alive_nodes(&self) -> usize {
        self.slots.iter().filter(|s| s.pool.is_some()).count()
    }

    /// Whether `node` is currently running.
    #[must_use]
    pub fn is_alive(&self, node: usize) -> bool {
        self.slots.get(node).is_some_and(|s| s.pool.is_some())
    }

    /// Routes one alert: quarantines unknown strategies at the edge,
    /// journals the rest to the owning node's WAL (write-ahead), and
    /// hands it to the node's shards if the node is alive. Routing to
    /// a dead node succeeds — the alert is durable and pending, and is
    /// delivered in the first window closed after the node rejoins.
    ///
    /// # Errors
    ///
    /// A failed WAL append sheds the alert — counted `dropped` and a
    /// write error ([`wal_write_errors`](Self::wal_write_errors)), it
    /// reaches no shard — and its error is returned. Nothing else
    /// fails.
    pub fn route(&mut self, alert: Alert) -> io::Result<()> {
        self.metrics.ingested.inc();
        if self.catalog.get(alert.strategy()).is_none() {
            self.metrics.quarantined.inc();
            return Ok(());
        }
        let node = self.map.node_of(alert.strategy());
        let slot = &self.slots[node];
        if let Err(e) = slot.wal.append(&alert) {
            self.metrics.dropped.inc();
            self.metrics.wal_write_errors.inc();
            return Err(e);
        }
        if let Some(pool) = &slot.pool {
            pool.route(alert);
        }
        Ok(())
    }

    /// Closes the cluster window through the merge point
    /// ([`MergePoint::close`], a daemon's close too): every alive node's
    /// shards close; the closer merges all their
    /// [`alertops_core::WindowDelta`]s once into one
    /// [`GovernanceSnapshot`] (cluster == 1-node == batch, byte for
    /// byte) and runs the single AO-LDA pass; each alive node's WAL is
    /// sealed at this sequence number. Dead nodes contribute nothing —
    /// their shards are listed `degraded` (flat `node * shards + shard`)
    /// and their journaled alerts stay in flight. A node whose workers
    /// are found gone is killed on the spot.
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
    /// feedback labels attached. When the QoA loop is on, the merge
    /// point joins the labels with the merged feature samples, runs the
    /// one sequential `partial_fit` pass, embeds the
    /// [`alertops_core::QoaWindowReport`] in the snapshot, and replaces
    /// the model's checkpoint file before any node's log is sealed —
    /// with every node dead too. Its verdicts govern from the *next*
    /// close on, every alive node's.
    ///
    /// # Errors
    ///
    /// None, as [`close_window`](Self::close_window).
    pub fn close_window_labeled(
        &mut self,
        labels: Vec<QoaLabel>,
    ) -> io::Result<GovernanceSnapshot> {
        let nodes: Vec<_> = (self.slots.iter())
            .map(|slot| (slot.pool.as_ref(), Some(&slot.wal)))
            .collect();
        let (closed, dead) = self.merge.close(&nodes, &labels);
        for node in dead {
            self.kill(node);
        }
        // Surface pool-internal overflow shedding since the last close;
        // everything else pending was just delivered.
        for slot in &mut self.slots {
            if let Some(pool) = &slot.pool {
                let dropped = pool.counters().dropped.get();
                let shed = dropped.saturating_sub(slot.last_dropped);
                self.metrics.dropped.add(shed);
                slot.last_dropped = dropped;
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
        // Dropping the pool stops and joins its workers.
        if self.slots[node].pool.take().is_some() {
            self.metrics.nodes_alive.sub(1);
        }
    }

    /// Rejoins a killed `node`: replays its WAL, rewrites the log, and
    /// respawns its shards — sealed windows rebuild the rolling
    /// detection history (closes discarded: those windows were already
    /// published and counted), the in-flight tail is re-routed as
    /// pending. If the log was truncated while dead, the unrecoverable
    /// alerts are counted `dropped` so conservation stays exact.
    /// No-op if the node is already running (chaos schedules shuffle
    /// kill/rejoin order freely).
    ///
    /// # Errors
    ///
    /// Replay, WAL, and spawn failures pass through; the node stays
    /// dead on error.
    pub fn rejoin(&mut self, node: usize) -> io::Result<()> {
        if self.slots[node].pool.is_some() {
            return Ok(());
        }
        let replayed = replay_counted(&self.metrics, &self.slots[node].dir)?;
        let journaled = self.slots[node].in_flight();
        self.restore_node(node, replayed.windows, replayed.tail)?;
        let lost = journaled.saturating_sub(self.slots[node].in_flight());
        self.metrics.dropped.add(lost);
        Ok(())
    }

    /// Hands `range` off to node `to` live: both ends seal, the range's
    /// slice of the source's retained windows and in-flight tail moves
    /// to the target, the routing table is carved, and both ends
    /// respawn with their new catalogs — the source without the
    /// range's history, the target with its own history merged
    /// window-by-window with the moved one. Mid-stream safe: in-flight
    /// alerts for the range move with it, so the handoff window closes
    /// byte-identical to a run that never rebalanced, with nothing
    /// dropped or double-counted.
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
        if to >= self.slots.len() {
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

        let journaled = self.slots[from].in_flight() + self.slots[to].in_flight();

        // Seal both ends: in-memory state is discarded, the WALs are
        // the (complete) truth.
        self.kill(from);
        self.kill(to);
        let src = replay_counted(&self.metrics, &self.slots[from].dir)?;
        let dst = replay_counted(&self.metrics, &self.slots[to].dir)?;

        // Split the source by the moving range.
        let in_range = |a: &Alert| range.contains(a.strategy());
        let mut kept_windows = Vec::with_capacity(src.windows.len());
        let mut moved_windows = Vec::with_capacity(src.windows.len());
        for (seq, alerts) in src.windows {
            let (moved, kept): (Vec<Alert>, Vec<Alert>) = alerts.into_iter().partition(in_range);
            moved_windows.push((seq, moved));
            kept_windows.push((seq, kept));
        }
        let (moved_tail, kept_tail): (Vec<Alert>, Vec<Alert>) =
            src.tail.into_iter().partition(in_range);

        let moved = moved_windows.iter().map(|(_, alerts)| alerts.len());
        let moved_alerts = (moved.sum::<usize>() + moved_tail.len()) as u64;

        self.map.reassign(range, to);

        // Respawn the source without the range.
        self.restore_node(from, kept_windows, kept_tail)?;

        // Respawn the target with its history merged window-by-window
        // with the moved slice (keyed by sequence number: the two ends
        // may have different retained depths or boundary gaps from past
        // faults).
        let mut merged: BTreeMap<u64, Vec<Alert>> = BTreeMap::new();
        for (seq, alerts) in dst.windows.into_iter().chain(moved_windows) {
            merged.entry(seq).or_default().extend(alerts);
        }
        let mut target_windows: Vec<(u64, Vec<Alert>)> = merged.into_iter().collect();
        for (_, alerts) in &mut target_windows {
            alerts.sort_by_key(|a| (a.raised_at(), a.id()));
        }
        let mut target_tail = dst.tail;
        target_tail.extend(moved_tail);
        target_tail.sort_by_key(|a| (a.raised_at(), a.id()));
        self.restore_node(to, target_windows, target_tail)?;

        // In-flight moves with the alerts: the total is conserved,
        // minus anything a truncated log could not give back.
        let restored = self.slots[from].in_flight() + self.slots[to].in_flight();
        self.metrics.dropped.add(journaled.saturating_sub(restored));

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

    /// Respawns `node` from explicit recovered state: re-journals and
    /// re-ingests each sealed window at its original sequence
    /// (publishing nothing — the windows were already published), then
    /// restores `tail` as the in-flight window.
    fn restore_node(
        &mut self,
        node: usize,
        windows: Vec<(u64, Vec<Alert>)>,
        tail: Vec<Alert>,
    ) -> io::Result<()> {
        let node_cat = node_catalog(self.catalog.rows(), &self.map, node);
        let pool = spawn_pool(&self.config.node, &node_cat, &self.make_governor)?;
        Wal::wipe(&self.slots[node].dir)?;
        let wal = Wal::open(&self.slots[node].dir, self.config.node.wal_retain())?;
        for (seq, alerts) in windows {
            for alert in alerts {
                wal.append(&alert)?;
                pool.route(alert);
            }
            // History only: the deltas are dropped unmerged.
            if !pool.begin_close(seq) || pool.collect(seq, &mut Vec::new()).is_none() {
                return Err(io::Error::other("shard workers died during WAL replay"));
            }
            wal.boundary(seq)?;
        }
        // Shedding during history replay re-routes alerts that were
        // already accounted at their original close; don't re-count.
        let slot = &mut self.slots[node];
        slot.last_dropped = pool.counters().dropped.get();
        for alert in tail {
            wal.append(&alert)?;
            pool.route(alert);
        }
        slot.wal = wal;
        slot.pool = Some(pool);
        self.metrics.nodes_alive.add(1);
        Ok(())
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
        let dir = &self.slots[node].dir;
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
            in_flight: self.slots.iter().map(NodeSlot::in_flight).sum(),
            windows_closed: self.metrics.windows_closed.get(),
        }
    }

    /// The cluster's metric handles.
    #[must_use]
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Renders the `alertops_cluster_*` Prometheus exposition,
    /// refreshing the point-in-time gauges (WAL depth per node,
    /// in-flight total) first.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let mut in_flight = 0;
        for (slot, gauges) in self.slots.iter().zip(&self.metrics.wal) {
            let depth = slot.wal.depth();
            gauges.sealed_segments.set(depth.sealed_segments);
            gauges.pending_records.set(depth.pending_records);
            in_flight += depth.pending_records;
        }
        self.metrics.in_flight.set(in_flight);
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
