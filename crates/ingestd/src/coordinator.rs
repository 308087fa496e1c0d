//! The daemon's coordinator: closes windows over its shard pool on a
//! tick or on request, and publishes merged snapshots.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use alertops_core::{ClosedWindow, GovernanceSnapshot, WindowCloser};
use alertops_model::QoaLabel;

use crate::journal::WindowJournal;
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

/// The coordinator loop.
///
/// Each cycle waits for a control message — or, with a tick
/// configured, times out into an automatic close — and then runs
/// [`ShardPool::close_window`] over the daemon's one pool: broadcast,
/// barrier, the [`WindowCloser`]'s merge and sequential passes (shards
/// only *forward* their input; see
/// `alertops_core::ChannelMode::Forward`), verdict push-down. The
/// loop never begins `seq + 1` before that returns, so windows cannot
/// interleave. What stays here is what only a daemon has: the tick,
/// the counters, the published snapshot slot and the ack.
///
/// With a journal attached, [`WindowJournal::window_closed`] fires
/// after the merge is published — the write-ahead log's cue to seal
/// the window's records and prune beyond the rolling history.
pub(crate) fn run_coordinator(
    control: &Receiver<CoordMsg>,
    pool: &ShardPool,
    tick: Option<Duration>,
    mut closer: WindowCloser,
    journal: Option<Arc<dyn WindowJournal>>,
    snapshot_slot: &Arc<RwLock<Option<GovernanceSnapshot>>>,
) {
    let counters = pool.counters();
    let mut seq: u64 = 0;
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

        let started = Instant::now();
        let (mut closed, mut degraded) =
            ShardPool::close_window(&[pool], seq, &mut closer, &labels);
        let Some(degraded) = degraded.pop().flatten() else {
            return; // a worker died: shutting down
        };
        if !degraded.is_empty() {
            counters.degraded_windows.fetch_add(1, Ordering::Relaxed);
        }
        closed.snapshot.degraded = degraded;
        let window_micros = elapsed_micros(started);
        counters
            .last_window_micros
            .store(window_micros, Ordering::Relaxed);
        counters.windows_closed.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = pool.metrics() {
            m.window_close_micros.observe(window_micros);
            // Per-window RSS sample: an operator gauge on the status
            // socket. Observer-only, one procfs read per window close.
            m.sample_rss();
        }
        if let Some(journal) = &journal {
            journal.window_closed(seq);
        }
        *snapshot_slot.write().unwrap_or_else(|e| e.into_inner()) = Some(closed.snapshot.clone());
        if let Some(ack) = ack {
            let _ = ack.send(closed);
        }
        seq += 1;
    }
}
