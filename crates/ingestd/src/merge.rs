//! The merge point: a process's one window close and its one restart,
//! for a standalone daemon over its one [`ShardPool`] and for a
//! cluster over every alive node's pool alike. A close never fails on
//! a sick disk: a failed checkpoint or boundary write counts one write
//! error and the close completes, published and counted as usual.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use alertops_core::{ClosedWindow, OnlineQoaModel, QoaCheckpoint, QoaFeedbackConfig, WindowCloser};
use alertops_model::{Alert, QoaLabel};
use alertops_obs::Counter;
use alertops_wire::wal::{read_qoa_checkpoint, write_qoa_checkpoint};

use crate::config::IngestdConfig;
use crate::node::Node;
use crate::pool::elapsed_micros;

/// The counters a merge point moves: handles on its holder's registry.
#[derive(Debug)]
pub struct MergeCounters {
    /// Windows closed and published.
    pub windows_closed: Arc<Counter>,
    /// Closed windows listing at least one degraded shard.
    pub degraded_windows: Arc<Counter>,
    /// Failed seals and checkpoint writes, and the holder's appends.
    pub write_errors: Arc<Counter>,
    /// Checkpoint files found damaged at restart.
    pub checkpoints_discarded: Arc<Counter>,
}

/// A process's one merge point: the [`WindowCloser`], the sequence
/// number of the next close, and the QoA checkpoint's directory (`dir/`
/// for a journaled daemon, `<wal_root>/coordinator/` for a cluster). A
/// daemon holds it under its merge lock, a cluster behind the `&mut
/// self` of its closes.
#[derive(Debug)]
pub struct MergePoint {
    closer: WindowCloser,
    seq: u64,
    dir: Option<PathBuf>,
    /// Shards per node, for the flat degraded list.
    shards: usize,
    qoa: Option<QoaFeedbackConfig>,
    counters: MergeCounters,
}

/// The holder [`MergePoint::restart`] drives, through its own route
/// and close.
pub trait MergeHolder {
    /// The holder's merge point.
    fn merge_point(&mut self) -> &mut MergePoint;
    /// Journals, then queues, one recovered alert.
    fn route_recovered(&mut self, alert: Alert);
    /// Closes the window in flight; errs once the holder's workers are
    /// gone.
    fn close_recovered(&mut self) -> io::Result<()>;
}

impl MergePoint {
    /// A merge point over nodes of `config.shards` shards; `closer`'s
    /// QoA model is parked until [`restart`](Self::restart).
    #[must_use]
    pub fn new(
        closer: WindowCloser,
        config: &IngestdConfig,
        dir: Option<PathBuf>,
        counters: MergeCounters,
    ) -> Self {
        Self {
            closer,
            seq: 0,
            dir,
            shards: config.shards,
            qoa: config.streaming.qoa.unless_off(),
            counters,
        }
    }

    /// The sequence number the next close publishes under.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// The online QoA model, once resumed.
    #[must_use]
    pub fn qoa_model(&self) -> Option<&OnlineQoaModel> {
        self.closer.qoa_model()
    }

    /// The one close, over each [`Node`]: its pool (`None` while dead)
    /// and its log (`None` for a daemon without one). The verdicts as
    /// of the last close, then `Close{seq}`, go down every alive pool
    /// before any is waited on, and the closer closes **once** over
    /// every shard's delta. The QoA checkpoint is replaced before any
    /// log is sealed; each node that delivered seals its log at `seq`.
    /// The snapshot carries `window_index = seq` and the flat `node *
    /// shards + shard` degraded list, a dead node's every shard
    /// included. Also returns the nodes found dead (workers gone),
    /// closed without.
    pub fn close(&mut self, nodes: &[Node], labels: &[QoaLabel]) -> (ClosedWindow, Vec<usize>) {
        let seq = self.seq;
        self.seq += 1;
        let started = Instant::now();
        // Every alive pool is begun before any is waited on; one that
        // refuses has lost its workers.
        let verdicts = self.closer.qoa_model().map(OnlineQoaModel::verdicts);
        let mut dead = Vec::new();
        for (node, pool) in nodes.iter().map(Node::pool).enumerate() {
            let Some(pool) = pool else { continue };
            verdicts.iter().for_each(|v| pool.push_qoa_verdicts(v));
            if !pool.begin_close(seq) {
                dead.push(node);
            }
        }
        let mut deltas = Vec::with_capacity(nodes.len() * self.shards);
        let mut degraded = Vec::new();
        for (node, pool) in nodes.iter().map(Node::pool).enumerate() {
            let begun = pool.filter(|_| !dead.contains(&node));
            let collected = begun.and_then(|pool| {
                let collected = pool.collect(seq, &mut deltas);
                if let Some(m) = pool.metrics() {
                    // Broadcast to last delta: the critical path a
                    // straggling shard puts on the window.
                    m.barrier_wait_micros.observe(elapsed_micros(started));
                }
                collected
            });
            let base = node * self.shards;
            if let Some(shards) = collected {
                degraded.extend(shards.iter().map(|shard| base + shard));
            } else {
                degraded.extend(base..base + self.shards);
                dead.extend(begun.map(|_| node));
            }
        }
        let mut closed = self.closer.close(&deltas, labels);
        // The model as of this close is durable before any log says
        // the window closed.
        let mut failed = 0;
        if let (Some(dir), Some(model)) = (&self.dir, self.closer.qoa_model()) {
            failed += u64::from(write_qoa_checkpoint(dir, model.checkpoint().to_bytes()).is_err());
        }
        for (index, node) in nodes.iter().enumerate() {
            if let (Some(_), Some(wal), false) = (node.pool(), node.wal(), dead.contains(&index)) {
                failed += u64::from(wal.boundary(seq).is_err());
            }
        }
        self.counters.write_errors.add(failed);
        closed.snapshot.window_index = seq;
        closed.snapshot.degraded = degraded;
        self.counters.windows_closed.inc();
        if !closed.snapshot.degraded.is_empty() {
            self.counters.degraded_windows.inc();
        }
        (closed, dead)
    }

    /// The one restart: each recovered `(seq, window)` re-routes and
    /// re-closes at its recorded sequence number through the holder's
    /// route and close, so counters, the published snapshot and the
    /// fresh logs move as live; the `tail` re-routes as the window in
    /// flight. Only then does the QoA model resume (labels are never
    /// journaled, so re-closes must not relearn it): from an intact
    /// checkpoint file, exact weights, else fresh — a file that does not
    /// restore counts one discarded, a missing one is a first start.
    ///
    /// # Errors
    ///
    /// A re-close that finds the holder's workers gone, and filesystem
    /// errors reading the checkpoint.
    pub fn restart(
        holder: &mut impl MergeHolder,
        windows: impl IntoIterator<Item = (u64, Vec<Alert>)>,
        tail: Vec<Alert>,
    ) -> io::Result<()> {
        for (seq, alerts) in windows {
            holder.merge_point().seq = seq;
            alerts.into_iter().for_each(|a| holder.route_recovered(a));
            holder.close_recovered()?;
        }
        tail.into_iter().for_each(|a| holder.route_recovered(a));

        let merge = holder.merge_point();
        if let Some(config) = merge.qoa {
            let file = merge.dir.as_deref().map(read_qoa_checkpoint);
            let file = file.transpose()?.flatten();
            let found = file.is_some();
            let checkpoint = file.flatten().and_then(|b| QoaCheckpoint::from_bytes(&b));
            if !checkpoint.is_some_and(|ckpt| merge.closer.restore_qoa(config, &ckpt)) {
                merge.counters.checkpoints_discarded.add(u64::from(found));
                merge.closer.start_qoa(config);
            }
        }
        Ok(())
    }
}
