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
//! storage ([`ShardQueue::recycle`]), so a steady stream of windows
//! allocates no run buffers.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use alertops_model::Alert;

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
}

impl ShardQueue {
    /// An open queue bounded at `capacity` alerts (at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                msgs: VecDeque::new(),
                alerts: 0,
                spare: Vec::new(),
                wanted: false,
                parked: false,
                blocked: 0,
                closed: false,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            capacity,
            wake_at: (capacity / 2).max(1),
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

    /// Hands an emptied run buffer back as the next run's storage,
    /// keeping whichever of it and the current spare holds more.
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
    /// what is still queued, so neither a close nor a sync waits on it.
    pub(crate) fn hang_up(&self) {
        self.close();
        self.lock().msgs.clear();
    }
}

impl fmt::Debug for ShardQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardQueue")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}
