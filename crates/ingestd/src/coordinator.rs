//! The daemon's coordinator: closes windows over its shard pool on a
//! tick or on request, publishes merged snapshots, and journals each
//! close when the daemon keeps a write-ahead log.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use alertops_core::{
    ClosedWindow, GovernanceSnapshot, OnlineQoaModel, QoaCheckpoint, QoaFeedbackConfig,
    QoaVerdicts, WindowCloser,
};
use alertops_model::QoaLabel;
use alertops_obs::Counter;
use alertops_wire::wal::{read_qoa_checkpoint, write_qoa_checkpoint, Wal};

use crate::pool::{elapsed_micros, ShardPool};

/// Control messages for the coordinator.
pub(crate) enum CoordMsg {
    /// Close the current window now. If `ack` is set, the close result
    /// is sent once published (this is the flush path). `labels` is
    /// the window's OCE feedback for the online QoA model — empty when
    /// the caller has none (plain flushes, tick closes).
    CloseNow {
        ack: Option<SyncSender<ClosedWindow>>,
        labels: Vec<QoaLabel>,
    },
    /// Stop coordinating. Closes are not interruptible, so joining the
    /// thread afterwards waits out one in flight.
    Shutdown,
}

/// A daemon's write-ahead log. Routing and closing must not fail on a
/// sick disk, so failed writes are counted, not propagated; past the
/// first, the log is no longer a complete record.
#[derive(Debug)]
pub(crate) struct Journal {
    pub(crate) wal: Wal,
    pub(crate) write_errors: AtomicU64,
}

impl Journal {
    pub(crate) fn count(&self, written: io::Result<()>) {
        if written.is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Starts `closer`'s QoA model — from the checkpoint file in `dir`
/// when there is an intact one (exact weights, not a relearn), else
/// fresh — and returns the verdicts to push down before the next
/// close. A checkpoint file that exists but does not restore (torn,
/// rotted, the wrong shape) still means a fresh model, and counts one
/// on `discarded`; a missing file is a first start. The resume step of
/// both merge points, a daemon's and a cluster's.
///
/// # Errors
///
/// Filesystem errors reading the checkpoint pass through.
pub fn resume_qoa(
    closer: &mut WindowCloser,
    config: QoaFeedbackConfig,
    dir: Option<&Path>,
    discarded: &Counter,
) -> io::Result<QoaVerdicts> {
    let file = dir.map(read_qoa_checkpoint).transpose()?.flatten();
    let found = file.is_some();
    let checkpoint = file
        .flatten()
        .and_then(|bytes| QoaCheckpoint::from_bytes(&bytes));
    if !checkpoint.is_some_and(|ckpt| closer.restore_qoa(config, &ckpt)) {
        if found {
            discarded.inc();
        }
        closer.start_qoa(config);
    }
    Ok(closer
        .qoa_model()
        .map_or_else(QoaVerdicts::default, OnlineQoaModel::verdicts))
}

/// What [`crate::Ingestd::spawn_with_wal`] recovered from its log.
#[derive(Debug, Clone)]
pub struct WalRecovery {
    /// Alerts read back: sealed windows plus the in-flight tail.
    pub recovered_alerts: u64,
    /// Sealed windows re-closed at their recorded sequence numbers.
    pub windows: u64,
    /// Alerts re-routed as the in-flight window.
    pub in_flight: u64,
    /// Records that failed framing or CRC validation.
    pub torn_records: u64,
    /// What the last re-closed window published; `None` if no window
    /// was sealed.
    pub snapshot: Option<GovernanceSnapshot>,
}

/// The daemon's one merge point and what only a daemon keeps around
/// it: the counters, the published snapshot slot and the log.
pub(crate) struct Coordinator {
    pub(crate) pool: Arc<ShardPool>,
    pub(crate) closer: WindowCloser,
    pub(crate) journal: Option<Arc<Journal>>,
    pub(crate) snapshot_slot: Arc<RwLock<Option<GovernanceSnapshot>>>,
    /// Sequence number of the next close.
    pub(crate) seq: u64,
}

impl Coordinator {
    /// Closes window `seq` over the daemon's one pool
    /// ([`ShardPool::close_window`]: barrier, the [`WindowCloser`]'s
    /// merge and sequential passes, verdict push-down), moves the
    /// counters, writes the QoA checkpoint *before* sealing the log —
    /// a cluster's order — and publishes. `None`: a worker died.
    pub(crate) fn close(&mut self, labels: &[QoaLabel]) -> Option<ClosedWindow> {
        let seq = self.seq;
        let counters = self.pool.counters();
        let started = Instant::now();
        let (mut closed, mut degraded) =
            ShardPool::close_window(&[self.pool.as_ref()], seq, &mut self.closer, labels);
        let degraded = degraded.pop().flatten()?;
        if !degraded.is_empty() {
            counters.degraded_windows.inc();
        }
        closed.snapshot.window_index = seq;
        closed.snapshot.degraded = degraded;
        let window_micros = elapsed_micros(started);
        counters.last_window_micros.set(window_micros);
        counters.windows_closed.inc();
        if let Some(m) = self.pool.metrics() {
            m.window_close_micros.observe(window_micros);
            // Per-window RSS sample: an operator gauge on the status
            // socket. Observer-only, one procfs read per window close.
            m.sample_rss();
        }
        if let Some(journal) = &self.journal {
            if let Some(model) = self.closer.qoa_model() {
                let checkpoint = model.checkpoint().to_bytes();
                journal.count(write_qoa_checkpoint(journal.wal.dir(), checkpoint));
            }
            journal.count(journal.wal.boundary(seq));
        }
        *self
            .snapshot_slot
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Some(closed.snapshot.clone());
        self.seq += 1;
        Some(closed)
    }

    /// The coordinator loop: waits for a control message — or, with a
    /// tick, times out into an automatic close — and runs one
    /// [`close`](Self::close), never beginning `seq + 1` before it
    /// returns, so windows cannot interleave.
    pub(crate) fn run(mut self, control: &Receiver<CoordMsg>, tick: Option<Duration>) {
        loop {
            let msg = match tick {
                Some(interval) => control.recv_timeout(interval),
                None => control.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            let (ack, labels) = match msg {
                Ok(CoordMsg::CloseNow { ack, labels }) => (ack, labels),
                Err(RecvTimeoutError::Timeout) => (None, Vec::new()), // tick: close now
                Ok(CoordMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            };
            let Some(closed) = self.close(&labels) else {
                return; // a worker died: shutting down
            };
            if let Some(ack) = ack {
                let _ = ack.send(closed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use alertops_core::{AlertGovernor, GovernorConfig, StreamingConfig, StreamingGovernor};
    use alertops_sim::{scenarios, SimOutput};
    use alertops_wire::wal::replay;

    use crate::{shard_catalog, Ingestd, IngestdConfig, IngestdHandle};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alertops-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spawn_over(dir: &std::path::Path, out: &SimOutput) -> IngestdHandle {
        let config = IngestdConfig {
            shards: 2,
            ..IngestdConfig::default()
        };
        Ingestd::spawn_with_wal(
            &config,
            |shard, shards| {
                let catalog = shard_catalog(out.catalog.strategies(), shards, shard);
                StreamingGovernor::new(
                    AlertGovernor::new(catalog, GovernorConfig::default()),
                    StreamingConfig::default(),
                )
            },
            Some(dir),
        )
        .expect("daemon starts")
    }

    #[test]
    fn daemon_hook_writes_the_same_log_format() {
        let dir = temp_dir("log-format");
        let out = scenarios::quickstart(7).run();
        let handle = spawn_over(&dir, &out);
        let alert = out.alerts[0].clone();
        handle.route(alert.clone());
        handle.flush().expect("window closes");
        handle.route(alert.clone());
        assert_eq!(handle.wal_write_errors(), 0);
        handle.shutdown();

        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.windows, vec![(0, vec![alert.clone()])]);
        assert_eq!(replayed.tail, vec![alert]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_writes_are_counted_not_swallowed() {
        let dir = temp_dir("write-errors");
        let handle = spawn_over(&dir, &scenarios::quickstart(7).run());
        // The disk goes away under the open log: sealing the window
        // cannot create the next segment.
        std::fs::remove_dir_all(&dir).unwrap();
        handle.flush().expect("the close itself completes");
        assert_eq!(handle.wal_write_errors(), 1);
        handle.shutdown();
    }
}
