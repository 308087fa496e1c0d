//! The daemon's coordinator: the state of its one merge point. A
//! window close runs on the thread that asks for it — a connection
//! handler answering a flush frame, a caller of
//! [`crate::IngestdHandle::flush`], or the tick thread — under the one
//! lock that holds this state, so closes never interleave. Each close
//! publishes the merged snapshot and, when the daemon keeps a
//! write-ahead log, journals itself.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

use alertops_core::{
    ClosedWindow, GovernanceSnapshot, OnlineQoaModel, QoaCheckpoint, QoaFeedbackConfig,
    QoaVerdicts, WindowCloser,
};
use alertops_model::QoaLabel;
use alertops_obs::Counter;
use alertops_wire::wal::{read_qoa_checkpoint, write_qoa_checkpoint, Wal};

use crate::pool::{elapsed_micros, ShardPool};

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

/// The daemon's one merge point: what a close mutates, held behind the
/// daemon's merge lock. The pool, the log and the snapshot slot it
/// closes over are the daemon's, lent to each [`close`](Self::close).
#[derive(Debug)]
pub(crate) struct Coordinator {
    pub(crate) closer: WindowCloser,
    /// Sequence number of the next close.
    pub(crate) seq: u64,
    /// When the last close returned; a tick is due one interval later.
    pub(crate) last_close: Instant,
    /// No close runs again: the daemon shut down or a worker is gone.
    pub(crate) stopped: bool,
}

impl Coordinator {
    /// Closes window `seq` over the daemon's one `pool`
    /// ([`ShardPool::close_window`]: barrier, the [`WindowCloser`]'s
    /// merge and sequential passes, verdict push-down), moves the
    /// counters, writes the QoA checkpoint *before* sealing `journal` —
    /// a cluster's order — and publishes to `published`. `None` once
    /// stopped; a close that finds a worker gone stops the coordinator.
    pub(crate) fn close(
        &mut self,
        pool: &ShardPool,
        journal: Option<&Journal>,
        published: &RwLock<Option<GovernanceSnapshot>>,
        labels: &[QoaLabel],
    ) -> Option<ClosedWindow> {
        if self.stopped {
            return None;
        }
        let seq = self.seq;
        let counters = pool.counters();
        let started = Instant::now();
        let (mut closed, mut degraded) =
            ShardPool::close_window(&[pool], seq, &mut self.closer, labels);
        let Some(degraded) = degraded.pop().flatten() else {
            self.stopped = true;
            return None;
        };
        if !degraded.is_empty() {
            counters.degraded_windows.inc();
        }
        closed.snapshot.window_index = seq;
        closed.snapshot.degraded = degraded;
        let window_micros = elapsed_micros(started);
        counters.last_window_micros.set(window_micros);
        counters.windows_closed.inc();
        if let Some(m) = pool.metrics() {
            m.window_close_micros.observe(window_micros);
            // Per-window RSS sample: an operator gauge on the status
            // socket. Observer-only, one procfs read per window close.
            m.sample_rss();
        }
        if let Some(journal) = journal {
            if let Some(model) = self.closer.qoa_model() {
                let checkpoint = model.checkpoint().to_bytes();
                journal.count(write_qoa_checkpoint(journal.wal.dir(), checkpoint));
            }
            journal.count(journal.wal.boundary(seq));
        }
        *published.write().unwrap_or_else(|e| e.into_inner()) = Some(closed.snapshot.clone());
        self.seq += 1;
        self.last_close = Instant::now();
        Some(closed)
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
