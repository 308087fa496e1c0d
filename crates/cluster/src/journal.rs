//! Bridges the daemon's write-ahead hook onto a [`Wal`].
//!
//! A cluster journals at its own layer (it owns the window sequence),
//! but a *standalone* daemon — `alertops ingestd --wal DIR` — attaches
//! this adapter so every accepted alert hits the log before any queue
//! and every coordinator close seals a segment. The daemon never reads
//! the log back; on restart the CLI replays it and re-routes the
//! recovered stream through normal ingestion.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alertops_ingestd::WindowJournal;
use alertops_model::Alert;

use crate::wal::Wal;

/// [`WindowJournal`] over a [`Wal`]. I/O errors cannot propagate
/// through the hook (routing must not fail on a sick disk), so they
/// are counted instead; `alertops ingestd` reports
/// [`write_errors`](Self::write_errors) when it stops and exits
/// nonzero on any — at that point the log is no longer a complete
/// record and replay is best-effort.
#[derive(Debug)]
pub struct WalJournal {
    wal: Arc<Wal>,
    write_errors: AtomicU64,
}

impl WalJournal {
    /// Wraps `wal` as a daemon journal.
    #[must_use]
    pub fn new(wal: Arc<Wal>) -> Self {
        Self {
            wal,
            write_errors: AtomicU64::new(0),
        }
    }

    /// The underlying log.
    #[must_use]
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// Appends or seals that failed on I/O since startup.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }
}

impl WindowJournal for WalJournal {
    fn record(&self, alert: &Alert) {
        if self.wal.append(alert).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn window_closed(&self, seq: u64) {
        if self.wal.boundary(seq).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal;
    use alertops_model::{AlertId, SimTime, StrategyId};

    #[test]
    fn daemon_hook_writes_the_same_log_format() {
        let dir = std::env::temp_dir().join(format!("alertops-waljournal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = WalJournal::new(Arc::new(Wal::open(&dir, 4).unwrap()));
        let alert = Alert::builder(AlertId(1), StrategyId(0))
            .raised_at(SimTime::from_secs(60))
            .build();
        journal.record(&alert);
        journal.window_closed(0);
        journal.record(&alert);
        assert_eq!(journal.write_errors(), 0);

        let replayed = wal::replay(&dir).unwrap();
        assert_eq!(replayed.windows, vec![(0, vec![alert.clone()])]);
        assert_eq!(replayed.tail, vec![alert]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_writes_are_counted_not_swallowed() {
        let dir =
            std::env::temp_dir().join(format!("alertops-waljournal-errors-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = WalJournal::new(Arc::new(Wal::open(&dir, 4).unwrap()));
        // The disk goes away under the open log: sealing the window
        // cannot create the next segment.
        std::fs::remove_dir_all(&dir).unwrap();
        journal.window_closed(0);
        assert_eq!(journal.write_errors(), 1);
    }
}
