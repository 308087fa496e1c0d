//! A shard's ingest queue: one FIFO of [`WorkerMsg`]s, owned by the
//! pool and shared with the shard's worker.
//!
//! Alerts arrive in bursts and the worker has nothing to do with one
//! until the next close, so consecutive alerts travel as one
//! [`WorkerMsg::Alerts`] run and a producer appends to the tail run
//! without waking anybody. The worker is woken only when it has a
//! reason to run: a control message (its position in the FIFO is what
//! makes closes, syncs and chaos markers exact), the queue reaching half
//! its capacity (so a producer rarely meets a full queue), or a producer
//! about to block on a full one. Woken, it takes everything queued at
//! once.
//!
//! The bound counts alerts, not messages: control messages are never
//! refused for capacity, and a run of a thousand alerts weighs a
//! thousand. The worker hands each emptied run back as the next run's
//! storage ([`ShardQueue::recycle`]), and its window buffer after each
//! close; the queue keeps the larger and drops the other, so a shard
//! holds one window-sized buffer and a steady stream of windows
//! allocates no run buffers.
//!
//! With the emerging channel on, the queue also records each queued
//! alert's [`EmergingDoc`], under the lock it already holds, and
//! [`ShardQueue::push_close`] hands every document recorded since the
//! previous close back in the critical section that queues the
//! `Close`. So a shard's documents are exactly the alerts queued ahead
//! of its close, known to the merge point before the worker has read
//! them: the merge point runs AO-LDA over them while the shards close.
//! A worker that loses alerts to a restart marks its delta degraded,
//! and the merge point then redoes the pass over what survived. A
//! window's documents are held once, in the chunks the queue recorded
//! them in ([`ShardDocs`]), and only until its close ends.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use alertops_core::QoaVerdicts;
use alertops_model::Alert;
use alertops_react::EmergingDoc;

use crate::config::OverflowPolicy;
use crate::worker::WorkerMsg;

/// One shard's bounded FIFO. Every update leaves the state consistent,
/// so a poisoned lock is recovered, not propagated.
pub(crate) struct ShardQueue {
    state: Mutex<State>,
    /// The worker parks here until [`State::wanted`].
    work: Condvar,
    /// Producers blocked on a full queue park here.
    room: Condvar,
    /// Most alerts the queue holds.
    capacity: usize,
    /// Queued alerts at which a producer wakes the worker.
    wake_at: usize,
    /// Record an [`EmergingDoc`] per queued alert (the emerging
    /// channel is on).
    documents: bool,
}

struct State {
    msgs: VecDeque<WorkerMsg>,
    /// Alerts in `msgs`, the quantity the capacity bounds.
    alerts: usize,
    /// An empty buffer the next run is built in.
    spare: Vec<Alert>,
    /// The worker has a reason to take: a control message, half the
    /// capacity queued, or a producer about to block.
    wanted: bool,
    /// The worker is waiting on `work`: only then does a wake need a
    /// notify (a futex syscall per alert is what this queue avoids).
    parked: bool,
    /// Producers waiting on `room`.
    blocked: usize,
    closed: bool,
    /// The documents of the alerts queued since the last `Close`.
    docs: ShardDocs,
}

/// One shard's emerging documents for a window, as its queue recorded
/// them, in queue order. They are kept in fixed-size chunks: a chunk is
/// never reallocated, so recording a window, interleaved with the
/// allocations of the alerts themselves, leaves no trail of outgrown
/// buffers behind, and nothing outlives the window.
#[derive(Debug, Default)]
pub struct ShardDocs {
    chunks: Vec<Vec<EmergingDoc>>,
    len: usize,
}

impl ShardDocs {
    /// Documents per chunk.
    const CHUNK: usize = 128;

    fn push(&mut self, doc: EmergingDoc) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < Self::CHUNK => chunk.push(doc),
            _ => {
                let mut chunk = Vec::with_capacity(Self::CHUNK);
                chunk.push(doc);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    /// Documents recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether none was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The documents, in queue order.
    pub fn iter(&self) -> impl Iterator<Item = &EmergingDoc> + Clone {
        self.chunks.iter().flatten()
    }
}

#[cfg(test)]
impl FromIterator<EmergingDoc> for ShardDocs {
    fn from_iter<I: IntoIterator<Item = EmergingDoc>>(iter: I) -> Self {
        let mut docs = Self::default();
        iter.into_iter().for_each(|doc| docs.push(doc));
        docs
    }
}

impl ShardQueue {
    /// An open queue bounded at `capacity` alerts (at least 1), that
    /// records each queued alert's document when `documents` is set.
    pub(crate) fn new(capacity: usize, documents: bool) -> Self {
        Self {
            state: Mutex::new(State {
                msgs: VecDeque::new(),
                alerts: 0,
                spare: Vec::new(),
                wanted: false,
                parked: false,
                blocked: 0,
                closed: false,
                docs: ShardDocs::default(),
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            capacity,
            wake_at: (capacity / 2).max(1),
            documents,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `alert` to the tail run. A full queue returns `false`
    /// under [`OverflowPolicy::Drop`]; under [`OverflowPolicy::Block`]
    /// it calls `waiting` once, wakes the worker and waits for room. A
    /// closed queue returns `false`, a blocked producer's alert
    /// included.
    pub(crate) fn push_alert(
        &self,
        alert: Alert,
        overflow: OverflowPolicy,
        waiting: impl FnOnce(),
    ) -> bool {
        let mut state = self.lock();
        let mut waiting = Some(waiting);
        while state.alerts >= self.capacity && !state.closed {
            if overflow == OverflowPolicy::Drop {
                return false;
            }
            // Counted before the wait, so a watcher of the counter can
            // tell a blocked producer from a slow one.
            if let Some(waiting) = waiting.take() {
                waiting();
            }
            self.want(&mut state);
            state.blocked += 1;
            state = self
                .room
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.blocked -= 1;
        }
        if state.closed {
            return false;
        }
        if self.documents {
            state.docs.push(EmergingDoc::from_alert(&alert));
        }
        match state.msgs.back_mut() {
            Some(WorkerMsg::Alerts(run)) => run.push(alert),
            _ => {
                let mut run = std::mem::take(&mut state.spare);
                run.push(alert);
                state.msgs.push_back(WorkerMsg::Alerts(run));
            }
        }
        state.alerts += 1;
        if state.alerts >= self.wake_at {
            self.want(&mut state);
        }
        true
    }

    /// Queues `Close{seq}`, carrying `verdicts` to govern the window it
    /// closes, behind every alert routed before it, wakes the worker
    /// once, and hands back the documents recorded since the previous
    /// close: one critical section. `None` when the queue is closed.
    pub(crate) fn push_close(&self, seq: u64, verdicts: Option<QoaVerdicts>) -> Option<ShardDocs> {
        let mut state = self.lock();
        if state.closed {
            return None;
        }
        state.msgs.push_back(WorkerMsg::Close { seq, verdicts });
        self.want(&mut state);
        Some(std::mem::take(&mut state.docs))
    }

    /// Queues a control message behind every alert routed before it
    /// and wakes the worker. Never refused for capacity; `false` (the
    /// message dropped unhandled) only when the queue is closed.
    pub(crate) fn push_control(&self, msg: WorkerMsg) -> bool {
        let mut state = self.lock();
        if state.closed {
            return false;
        }
        state.msgs.push_back(msg);
        self.want(&mut state);
        true
    }

    /// Marks the worker wanted, notifying it if it is parked. A worker
    /// never parks while wanted, so only the first want since its last
    /// take can find it parked.
    fn want(&self, state: &mut State) {
        if !state.wanted && state.parked {
            self.work.notify_one();
        }
        state.wanted = true;
    }

    /// The worker's side: waits until it is wanted (or the queue is
    /// closed), then moves everything queued into the empty `inbox`.
    /// `false` once the queue is closed and drained.
    pub(crate) fn take(&self, inbox: &mut VecDeque<WorkerMsg>) -> bool {
        debug_assert!(inbox.is_empty(), "the worker takes only when idle");
        let mut state = self.lock();
        while !state.wanted && !state.closed {
            state.parked = true;
            state = self
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked = false;
        }
        if state.msgs.is_empty() {
            // Only a closed queue gets here empty: every wake queued
            // something first.
            return false;
        }
        std::mem::swap(inbox, &mut state.msgs);
        state.wanted = false;
        state.alerts = 0;
        if state.blocked > 0 {
            self.room.notify_all();
        }
        true
    }

    /// Alerts queued and not yet taken by the worker.
    pub(crate) fn depth(&self) -> usize {
        self.lock().alerts
    }

    /// Hands an emptied run or window buffer back as the next run's
    /// storage, keeping whichever of it and the current spare holds
    /// more and dropping the other.
    pub(crate) fn recycle(&self, buf: Vec<Alert>) {
        debug_assert!(buf.is_empty(), "only emptied runs come back");
        let mut state = self.lock();
        if buf.capacity() > state.spare.capacity() {
            state.spare = buf;
        }
    }

    /// Closes the queue: the worker drains what is queued and then
    /// sees `None`; producers are refused, blocked ones included.
    pub(crate) fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.work.notify_one();
        self.room.notify_all();
    }

    /// The worker is gone, however it went: closes the queue and drops
    /// what is still queued, documents included, so neither a close nor
    /// a sync waits on it.
    pub(crate) fn hang_up(&self) {
        self.close();
        let mut state = self.lock();
        state.msgs.clear();
        state.docs = ShardDocs::default();
    }
}

impl fmt::Debug for ShardQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardQueue")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{AlertId, StrategyId};

    /// Documents keep their queue order across chunks, and no chunk
    /// outgrows its fixed size.
    #[test]
    fn shard_docs_keep_queue_order_across_chunks() {
        let n = 2 * ShardDocs::CHUNK + 3;
        let docs: ShardDocs = (0..n as u64)
            .rev()
            .map(|id| EmergingDoc::from_alert(&Alert::builder(AlertId(id), StrategyId(0)).build()))
            .collect();
        assert_eq!(docs.len(), n);
        assert_eq!(docs.chunks.len(), 3);
        assert!(docs.chunks.iter().all(|c| c.capacity() == ShardDocs::CHUNK));
        let ids: Vec<u64> = docs.iter().map(|d| d.alert.0).collect();
        assert_eq!(ids, (0..n as u64).rev().collect::<Vec<_>>());
    }
}
