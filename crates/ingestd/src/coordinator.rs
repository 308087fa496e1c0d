//! The coordinator: closes windows, barriers on per-shard deltas, and
//! publishes merged snapshots.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use alertops_core::{ClosedWindow, GovernanceSnapshot, WindowCloser};
use alertops_model::QoaLabel;

use crate::counters::Counters;
use crate::journal::WindowJournal;
use crate::metrics::IngestdMetrics;
use crate::worker::{ShardDelta, WorkerMsg};

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
    /// Stop coordinating; acked when the loop is about to exit.
    Shutdown { ack: SyncSender<()> },
}

/// The coordinator loop.
///
/// Each cycle waits for a control message — or, with a tick
/// configured, times out into an automatic close. A close broadcasts
/// `WorkerMsg::Close{seq}` through every shard's ingest queue, then
/// barriers on exactly one [`ShardDelta`] per shard for that `seq`
/// before merging. Workers process closes in queue order and the
/// coordinator never issues `seq + 1` before collecting all of `seq`,
/// so the barrier cannot interleave windows. A panicking worker does
/// not wedge the barrier either: its supervisor contributes a
/// synthetic empty delta for the in-flight `seq`, and the shard is
/// listed in the published snapshot's `degraded` field.
///
/// Everything after the barrier is the [`WindowCloser`]'s: the merge,
/// the snapshot, and — when this daemon is the topmost merge point —
/// the sequential AO-LDA and QoA passes (shards only *forward* their
/// input; see `alertops_core::ChannelMode::Forward`). A cluster node's
/// closer runs no pass, so the merged documents and samples ride out
/// in the published [`ClosedWindow::delta`] for the level above. What
/// stays here is the verdict push-down: fresh verdicts go down every
/// shard queue before the next close can be broadcast, so their
/// application point is exact for any shard count.
///
/// With a journal attached, [`WindowJournal::window_closed`] fires
/// after the merge is published — the write-ahead log's cue to seal
/// the window's records and prune beyond the rolling history.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_coordinator(
    control: &Receiver<CoordMsg>,
    shard_txs: &[SyncSender<WorkerMsg>],
    deltas: &Receiver<ShardDelta>,
    tick: Option<Duration>,
    mut closer: WindowCloser,
    journal: Option<Arc<dyn WindowJournal>>,
    snapshot_slot: &Arc<RwLock<Option<GovernanceSnapshot>>>,
    counters: &Arc<Counters>,
    metrics: Option<&IngestdMetrics>,
) {
    let mut seq: u64 = 0;
    loop {
        let msg = match tick {
            Some(interval) => match control.recv_timeout(interval) {
                Ok(msg) => Some(msg),
                Err(RecvTimeoutError::Timeout) => None, // tick: close now
                Err(RecvTimeoutError::Disconnected) => return,
            },
            None => match control.recv() {
                Ok(msg) => Some(msg),
                Err(_) => return,
            },
        };

        let (ack, labels) = match msg {
            Some(CoordMsg::CloseNow { ack, labels }) => (ack, labels),
            Some(CoordMsg::Shutdown { ack }) => {
                let _ = ack.send(());
                return;
            }
            None => (None, Vec::new()),
        };

        let started = Instant::now();
        for tx in shard_txs {
            if tx.send(WorkerMsg::Close { seq }).is_err() {
                return; // a worker died: shutting down
            }
        }
        let mut collected = Vec::with_capacity(shard_txs.len());
        let mut degraded: Vec<usize> = Vec::new();
        while collected.len() < shard_txs.len() {
            match deltas.recv() {
                Ok(shard_delta) => {
                    debug_assert_eq!(shard_delta.seq, seq, "barrier interleaved windows");
                    if shard_delta.degraded {
                        degraded.push(shard_delta.shard);
                    }
                    collected.push(shard_delta.delta);
                }
                Err(_) => return,
            }
        }
        if let Some(m) = metrics {
            // Barrier wait spans broadcast to last delta: it includes
            // the shards' own close work, so it bounds the critical
            // path a straggling shard puts on the window.
            m.barrier_wait_micros.observe(elapsed_micros(started));
        }

        let mut closed = closer.close(&collected, &labels);
        if let Some(verdicts) = &closed.verdicts {
            // Pushed down every shard queue *before* this loop can
            // broadcast the next close: the per-shard queues are FIFO,
            // so the verdicts are applied ahead of whatever window
            // `seq + 1` governs.
            for tx in shard_txs {
                let _ = tx.send(WorkerMsg::Qoa(verdicts.clone()));
            }
        }
        degraded.sort_unstable();
        if !degraded.is_empty() {
            counters.degraded_windows.fetch_add(1, Ordering::Relaxed);
        }
        closed.snapshot.degraded = degraded;
        let window_micros = elapsed_micros(started);
        counters
            .last_window_micros
            .store(window_micros, Ordering::Relaxed);
        counters.windows_closed.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = metrics {
            m.window_close_micros.observe(window_micros);
            // Per-window RSS sample: the soak harness scrapes this to
            // enforce its memory ceiling. Observer-only, one procfs
            // read per window close.
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

fn elapsed_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}
