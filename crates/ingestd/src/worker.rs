//! Shard worker: one thread, one streaming governor, one bounded
//! queue — supervised.
//!
//! The worker's drain loop runs inside `catch_unwind`: a panic (a
//! detector bug, or one injected by the chaos suite) never takes the
//! thread down. The supervisor restarts the loop in place on the same
//! queue, rolls the governor back to the last successful window close,
//! counts the buffered-but-unclosed alerts as dropped, and marks the
//! shard degraded so the next merged snapshot says so. The queue has
//! already handed the merge point a document for every alert it queued,
//! lost ones included, so a degraded delta lists the emerging documents
//! of the alerts that survived, and the merge point redoes its AO-LDA
//! pass over those (see [`crate::MergePoint::close`]). The loop takes
//! its queue in batches; what a batch held behind the panic waits in
//! the shard state's inbox, and the restarted loop resumes there. If
//! the panic struck mid-close, a synthetic empty window is closed on
//! the rolled-back governor so the pool's barrier still receives
//! exactly one delta for that sequence number — a crashing shard must
//! never wedge a window close.
//!
//! There is no stored checkpoint. Between closes the drain loop only
//! buffers alerts, so the governor can differ from its state at the
//! last close only *inside* a close; a successful close
//! [`commit`](StreamingGovernor::commit)s (O(1)) and recovery is
//! [`rollback`](StreamingGovernor::rollback), which rebuilds the engine
//! from the window digests it already retains for eviction — O(history),
//! paid once per panic instead of a deep copy per window.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender, SyncSender};

use alertops_core::{QoaVerdicts, StreamingGovernor, WindowDelta};
use alertops_model::Alert;
use alertops_react::EmergingDoc;

use crate::counters::Counters;
use crate::metrics::IngestdMetrics;
use crate::queue::ShardQueue;

/// The panic message marker every chaos-injected worker panic carries.
/// Test harnesses silence expected panics by matching on it (e.g. via
/// `alertops_chaos::silence_panics_containing`).
pub const CHAOS_PANIC_MSG: &str = "chaos: injected worker panic";

/// Messages a shard worker consumes, in queue order. Because `Close`
/// travels through the same queue as alerts, a close observed by the
/// worker is guaranteed to come after every alert enqueued before it —
/// that ordering is what makes flush-driven windows deterministic. The
/// chaos messages ride the same queue for the same reason: the set of
/// alerts lost to an injected panic is exactly the alerts enqueued
/// between the last close and the panic message, nothing racy.
pub(crate) enum WorkerMsg {
    /// Consecutive alerts routed to this shard, in routing order.
    Alerts(Vec<Alert>),
    /// Close the current window and report the delta tagged with `seq`.
    Close {
        /// The holder's window sequence number, echoed back.
        seq: u64,
        /// The QoA verdicts as of the last close, from the merge point
        /// that runs the online model, installed before this window is
        /// governed. Riding with `Close` makes the cadence exact: they
        /// apply to everything the shard governs in this window — the
        /// cadence a library caller gets by installing its model's
        /// verdicts on its one governor at each window boundary.
        verdicts: Option<QoaVerdicts>,
    },
    /// Drain barrier: ack once every message queued before this one
    /// has been consumed.
    Sync(SyncSender<()>),
    /// Chaos: panic at this queue position (`on_close: false`) or
    /// during the next window close, after detection has already
    /// mutated governor state (`on_close: true`).
    Panic {
        /// Defer the panic into the next `Close`.
        on_close: bool,
    },
    /// Chaos: park the worker. `entered` is acked once parked (the
    /// queue ahead of this message is fully drained by then); the
    /// worker then blocks until `resume` yields or disconnects.
    Stall {
        /// Acked when the worker parks.
        entered: SyncSender<()>,
        /// Unblocks the worker (a send, or dropping the sender).
        resume: Receiver<()>,
    },
}

/// One shard's reply to a window close.
pub(crate) struct ShardDelta {
    pub seq: u64,
    pub shard: usize,
    /// This shard lost alerts to a worker restart during the window.
    pub degraded: bool,
    pub delta: WindowDelta,
}

/// Everything that must survive a panic of the drain loop.
struct ShardState {
    /// Committed at every successful close; a restart rolls it back to
    /// the last one.
    governor: StreamingGovernor,
    window: Vec<Alert>,
    /// Messages taken from the queue but not yet handled.
    inbox: VecDeque<WorkerMsg>,
    /// A restart happened since the last close: the next delta is
    /// incomplete.
    degraded: bool,
    /// The close sequence in flight when a panic struck, if any; the
    /// supervisor owes the barrier a delta for it.
    pending_close: Option<u64>,
    /// Armed by `WorkerMsg::Panic { on_close: true }`.
    poison_next_close: bool,
    /// The emerging channel is on: a degraded delta carries the
    /// documents of the alerts that survived.
    documents: bool,
}

/// The worker loop. Buffers routed alerts; on `Close`, feeds the
/// buffered window through this shard's [`StreamingGovernor`] and
/// reports the [`ShardDelta`]. Panics in the drain loop are caught,
/// counted, and recovered from. Returns when the ingest queue closes.
pub(crate) fn run_worker(
    shard: usize,
    governor: StreamingGovernor,
    documents: bool,
    ingest: &ShardQueue,
    deltas: &Sender<ShardDelta>,
    counters: &Counters,
    metrics: Option<&IngestdMetrics>,
) {
    /// Hangs the queue up however the thread ends, a panic the
    /// supervisor cannot catch included: a producer, a close or a sync
    /// is then refused instead of waiting on a dead worker.
    struct HangUp<'a>(&'a ShardQueue);
    impl Drop for HangUp<'_> {
        fn drop(&mut self) {
            self.0.hang_up();
        }
    }
    let _hang_up = HangUp(ingest);

    let mut state = ShardState {
        governor,
        window: Vec::new(),
        inbox: VecDeque::new(),
        degraded: false,
        pending_close: None,
        poison_next_close: false,
        documents,
    };
    // Whatever history the governor was handed over with is this
    // shard's first rollback target.
    state.governor.commit();
    loop {
        let finished = catch_unwind(AssertUnwindSafe(|| {
            drain(shard, &mut state, ingest, deltas, counters, metrics);
        }));
        match finished {
            Ok(()) => return, // queue closed: clean shutdown
            Err(_) => {
                counters.shard_restarts.inc();
                counters.dropped.add(state.window.len() as u64);
                state.window.clear();
                // Back to the last successful close, whatever the
                // panic left half-done. QoA verdicts pushed since then
                // stay: a restart must not regress the shard's
                // governance.
                state.governor.rollback();
                state.degraded = true;
                state.poison_next_close = false;
                if let Some(seq) = state.pending_close.take() {
                    // The panic struck mid-close: the barrier still
                    // needs this shard's delta for `seq`. Close an
                    // empty window on the rolled-back governor — the
                    // shard contributes nothing this window, but the
                    // window *happened*.
                    close_window(shard, &mut state, seq, deltas, counters, metrics);
                }
            }
        }
    }
}

/// Closes the current window: sort, detect, commit, report. The pool
/// joins its workers before it drops the reply lane, so the report
/// always has a receiver.
fn close_window(
    shard: usize,
    state: &mut ShardState,
    seq: u64,
    deltas: &Sender<ShardDelta>,
    counters: &Counters,
    metrics: Option<&IngestdMetrics>,
) {
    // If a chaos panic interrupts the close, the span still records on
    // unwind — metrics observe the attempt, never alter recovery.
    let _span = metrics.map(|m| m.shard_close(shard).time());
    // Detection expects time-sorted windows; TCP ingress from
    // concurrent producers does not guarantee order.
    state.window.sort_by_key(|a| (a.raised_at(), a.id()));
    // Applied but not committed: a panic from here to the commit below
    // is undone by the supervisor's rollback.
    let mut delta = state.governor.ingest_uncommitted(&state.window, &[]);
    if std::mem::take(&mut state.poison_next_close) {
        // After detection mutated the governor: recovery must roll it
        // back, not "retry" this state. The window is still in the
        // buffer, so the supervisor counts its alerts as dropped,
        // exactly like any other panic between closes.
        panic!("{CHAOS_PANIC_MSG} (shard {shard}, close {seq})");
    }
    state.governor.commit();
    let degraded = std::mem::take(&mut state.degraded);
    if degraded && state.documents {
        // The queue recorded a document per alert it queued, and a
        // restart lost some of those alerts: the merge point redoes its
        // AO-LDA pass over the ones that survived, listed here.
        delta.emerging_docs = state.window.iter().map(EmergingDoc::from_alert).collect();
        delta.emerging_docs.sort_by_key(|d| d.alert);
    }
    counters.delivered.add(state.window.len() as u64);
    // Emptied, not freed: the drain loop hands the buffer back to the
    // queue as the next window's storage.
    state.window.clear();
    state.pending_close = None;
    let _ = deltas.send(ShardDelta {
        seq,
        shard,
        degraded,
        delta,
    });
}

/// The drain loop proper; every panic inside it is caught by the
/// supervisor in [`run_worker`].
fn drain(
    shard: usize,
    state: &mut ShardState,
    ingest: &ShardQueue,
    deltas: &Sender<ShardDelta>,
    counters: &Counters,
    metrics: Option<&IngestdMetrics>,
) {
    loop {
        let Some(msg) = state.inbox.pop_front() else {
            if !ingest.take(&mut state.inbox) {
                return;
            }
            continue;
        };
        match msg {
            WorkerMsg::Alerts(mut run) => {
                if state.window.is_empty() {
                    std::mem::swap(&mut state.window, &mut run);
                } else {
                    state.window.append(&mut run);
                }
                ingest.recycle(run);
            }
            WorkerMsg::Close { seq, verdicts } => {
                state.pending_close = Some(seq);
                if let Some(verdicts) = verdicts {
                    state.governor.set_qoa_verdicts(verdicts);
                }
                close_window(shard, state, seq, deltas, counters, metrics);
                // One window-sized buffer per shard: the queue keeps the
                // larger of this one and its spare, so the next window's
                // first run arrives in it instead of in a second buffer
                // this shard holds.
                ingest.recycle(std::mem::take(&mut state.window));
            }
            WorkerMsg::Sync(ack) => {
                let _ = ack.send(());
            }
            WorkerMsg::Panic { on_close } => {
                if on_close {
                    state.poison_next_close = true;
                } else {
                    panic!("{CHAOS_PANIC_MSG} (shard {shard})");
                }
            }
            WorkerMsg::Stall { entered, resume } => {
                let _ = entered.send(());
                let _ = resume.recv();
            }
        }
    }
}
