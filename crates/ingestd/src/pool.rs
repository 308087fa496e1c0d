//! The shard pool: supervised workers behind their bounded queues.
//!
//! This is what every holder of shards shares — a daemon's coordinator
//! (one pool) and `alertops-cluster`'s `AlertCluster` (one pool per
//! node): routing under the overflow policy with its counters, the two
//! halves of a window close, the QoA verdict push-down, and the drain
//! and chaos hooks. A pool merges nothing and owns no [`WindowCloser`]:
//! its holder runs one close over every pool it holds
//! ([`ShardPool::close_window`]).

use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use std::{io, thread};

use alertops_core::{
    ClosedWindow, GovernorMetrics, QoaVerdicts, StreamingGovernor, WindowCloser, WindowDelta,
};
use alertops_model::{Alert, QoaLabel};

use crate::config::{IngestdConfig, OverflowPolicy};
use crate::counters::{Counters, QUEUE_ENQUEUED};
use crate::metrics::IngestdMetrics;
use crate::shard::shard_of;
use crate::worker::{run_worker, ShardDelta, WorkerMsg};

/// Running shard workers and the queues into them. Dropping the pool
/// stops and joins the workers; whatever they held in memory is gone.
#[derive(Debug)]
pub struct ShardPool {
    shard_txs: Vec<SyncSender<WorkerMsg>>,
    /// Every worker's reply lane. Only [`collect`](Self::collect)
    /// reads it; the lock is what lets routing threads share the pool.
    deltas: Mutex<Receiver<ShardDelta>>,
    counters: Arc<Counters>,
    overflow: OverflowPolicy,
    /// One slot per shard holding the resume sender of an in-flight
    /// stall (see [`ShardPool::stall`]).
    resume_slots: Vec<Mutex<Option<Sender<()>>>>,
    metrics: Option<Arc<IngestdMetrics>>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Starts `config.shards` workers, each behind its bounded queue.
    /// `make_governor(shard, shards)` is called once per shard to build
    /// that shard's streaming governor — typically over
    /// [`crate::shard_catalog`] of a shared strategy catalog.
    ///
    /// # Errors
    ///
    /// Config validation failures surface as
    /// [`io::ErrorKind::InvalidInput`]; thread spawn failures pass
    /// through.
    pub fn spawn(
        config: &IngestdConfig,
        mut make_governor: impl FnMut(usize, usize) -> StreamingGovernor,
    ) -> io::Result<Self> {
        config
            .validate()
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;

        let counters = Arc::new(Counters::new(config.shards));
        let metrics = config
            .metrics
            .then(|| Arc::new(IngestdMetrics::new(config.shards)));
        let (delta_tx, delta_rx) = mpsc::channel();
        let mut shard_txs = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = mpsc::sync_channel::<WorkerMsg>(config.queue_capacity);
            shard_txs.push(tx);
            // Shards never run a sequential pass themselves — it
            // belongs to the holder's closer — so each channel
            // forwards or stays off, matching the configuration
            // regardless of how the caller built the governor.
            let mut governor = make_governor(shard, config.shards).into_shard(&config.streaming);
            if let Some(metrics) = &metrics {
                // Shards share detect/react series: the registry hands
                // every shard the same aggregate instruments.
                governor = governor.with_metrics(GovernorMetrics::register(metrics.registry()));
            }
            let (deltas, counters, metrics) =
                (delta_tx.clone(), Arc::clone(&counters), metrics.clone());
            workers.push(
                thread::Builder::new()
                    .name(format!("ingestd-worker-{shard}"))
                    .spawn(move || {
                        run_worker(shard, governor, &rx, &deltas, &counters, metrics.as_deref());
                    })?,
            );
        }
        Ok(Self {
            shard_txs,
            deltas: Mutex::new(delta_rx),
            counters,
            overflow: config.overflow,
            resume_slots: (0..config.shards).map(|_| Mutex::new(None)).collect(),
            metrics,
            workers,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shard_txs.len()
    }

    /// The live counters the router and the workers record into.
    #[must_use]
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// The pool's metric handles, when [`IngestdConfig::metrics`] is on.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<IngestdMetrics>> {
        self.metrics.as_ref()
    }

    /// Routes one alert to its strategy's shard, applying the overflow
    /// policy when the bounded queue is full. Every alert entering
    /// here counts as ingested — including ones the overflow policy
    /// then sheds — so `ingested == delivered + dropped + quarantined`
    /// stays exact.
    pub fn route(&self, alert: Box<Alert>) {
        self.counters.ingested.fetch_add(1, Ordering::Relaxed);
        let shard = shard_of(alert.strategy(), self.shard_txs.len());
        // Enqueue tally: high half of the packed gauge (see
        // `Counters::queue_depths`).
        let queue_depth = &self.counters.queue_depths[shard];
        match self.shard_txs[shard].try_send(WorkerMsg::Alert(alert)) {
            Ok(()) => {
                queue_depth.fetch_add(QUEUE_ENQUEUED, Ordering::Relaxed);
            }
            Err(TrySendError::Full(msg)) => match self.overflow {
                OverflowPolicy::Block => {
                    self.counters
                        .backpressure_waits
                        .fetch_add(1, Ordering::Relaxed);
                    if self.shard_txs[shard].send(msg).is_ok() {
                        queue_depth.fetch_add(QUEUE_ENQUEUED, Ordering::Relaxed);
                    } else {
                        self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
                OverflowPolicy::Drop => {
                    self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                }
            },
            Err(TrySendError::Disconnected(_)) => {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// First half of a window close: broadcasts `Close{seq}` through
    /// every shard's ingest queue, so each shard closes over exactly
    /// the alerts routed before this call, and returns without waiting
    /// — a holder of several pools begins them all before it
    /// [`collect`](Self::collect)s any. `false`: a worker is gone and
    /// the close cannot complete; do not collect.
    #[must_use]
    pub fn begin_close(&self, seq: u64) -> bool {
        let close = |tx: &SyncSender<WorkerMsg>| tx.send(WorkerMsg::Close { seq }).is_ok();
        self.shard_txs.iter().all(close)
    }

    /// Second half: barriers on exactly one delta per shard for the
    /// `seq` begun, appends them to `deltas`, and returns the (sorted)
    /// shards that lost alerts to a worker restart during the window.
    /// Workers close in queue order, so a holder that collects `seq`
    /// before beginning `seq + 1` cannot interleave windows. A
    /// panicking worker does not wedge the barrier: its supervisor
    /// contributes a synthetic empty delta for the in-flight `seq` and
    /// the shard is listed degraded. `None`: the workers are gone.
    #[must_use]
    pub fn collect(&self, seq: u64, deltas: &mut Vec<WindowDelta>) -> Option<Vec<usize>> {
        let lane = self.deltas.lock().unwrap_or_else(|e| e.into_inner());
        let mut degraded = Vec::new();
        for _ in 0..self.shard_txs.len() {
            let shard_delta = lane.recv().ok()?;
            debug_assert_eq!(shard_delta.seq, seq, "barrier interleaved windows");
            if shard_delta.degraded {
                degraded.push(shard_delta.shard);
            }
            deltas.push(shard_delta.delta);
        }
        degraded.sort_unstable();
        Some(degraded)
    }

    /// One window close over every pool its holder has: `Close{seq}`
    /// goes down every pool's queues before any pool is waited on,
    /// `closer` closes **once** over every shard's delta, and fresh
    /// verdicts are pushed down every queue before the holder can begin
    /// the next close — the queues are FIFO, so the verdicts apply
    /// ahead of whatever window `seq + 1` governs, for any shard or
    /// pool count.
    ///
    /// Returns the closed window and, per pool, its degraded shards —
    /// `None` for a pool whose workers are gone: the close went without
    /// it.
    pub fn close_window(
        pools: &[&ShardPool],
        seq: u64,
        closer: &mut WindowCloser,
        labels: &[QoaLabel],
    ) -> (ClosedWindow, Vec<Option<Vec<usize>>>) {
        let started = Instant::now();
        let mut degraded: Vec<Option<Vec<usize>>> = pools
            .iter()
            .map(|pool| pool.begin_close(seq).then(Vec::new))
            .collect();
        let mut deltas = Vec::with_capacity(pools.iter().map(|pool| pool.shards()).sum());
        for (pool, degraded) in pools.iter().zip(&mut degraded) {
            if degraded.is_some() {
                *degraded = pool.collect(seq, &mut deltas);
            }
            if let Some(m) = &pool.metrics {
                // Barrier wait spans broadcast to last delta: it
                // includes the shards' own close work, so it bounds the
                // critical path a straggling shard puts on the window.
                m.barrier_wait_micros.observe(elapsed_micros(started));
            }
        }
        let closed = closer.close(&deltas, labels);
        if let Some(verdicts) = &closed.verdicts {
            for pool in pools {
                pool.push_qoa_verdicts(verdicts);
            }
        }
        (closed, degraded)
    }

    /// Pushes QoA verdicts down every shard queue, to apply before the
    /// next window close.
    pub fn push_qoa_verdicts(&self, verdicts: &QoaVerdicts) {
        for tx in &self.shard_txs {
            let _ = tx.send(WorkerMsg::Qoa(verdicts.clone()));
        }
    }

    /// Drain barrier: returns once every message enqueued on any shard
    /// before this call has been consumed by its worker. (Blocks
    /// indefinitely if a shard is stalled — resume first.)
    pub fn sync(&self) {
        let (ack_tx, ack_rx) = mpsc::sync_channel(self.shard_txs.len());
        for tx in &self.shard_txs {
            let _ = tx.send(WorkerMsg::Sync(ack_tx.clone()));
        }
        drop(ack_tx);
        // Each worker acks and lets go of its sender (a dead queue
        // drops it unsent): the lane hangs up once all have.
        while ack_rx.recv().is_ok() {}
    }

    /// Chaos instrumentation: make `shard`'s worker panic at this
    /// point in its queue (`on_close = false`), or during its next
    /// window close after detection already mutated governor state
    /// (`on_close = true`). The supervisor restarts the worker either
    /// way. No-op for out-of-range shards.
    pub fn inject_panic(&self, shard: usize, on_close: bool) {
        if let Some(tx) = self.shard_txs.get(shard) {
            let _ = tx.send(WorkerMsg::Panic { on_close });
        }
    }

    /// Chaos instrumentation: parks `shard`'s worker, returning only
    /// once it is parked (by queue order, everything enqueued before
    /// this call has then been consumed). A stall replacing an
    /// unresumed earlier stall drops the old resume sender, which
    /// resumes the earlier parked state. A close while stalled blocks
    /// until [`resume`](Self::resume).
    pub fn stall(&self, shard: usize) {
        let Some(tx) = self.shard_txs.get(shard) else {
            return;
        };
        let (entered_tx, entered_rx) = mpsc::sync_channel(1);
        let (resume_tx, resume_rx) = mpsc::channel();
        *self.resume_slots[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(resume_tx);
        // Unsent (dead queue), the message takes `entered_tx` with it
        // and the wait returns at once.
        let _ = tx.send(WorkerMsg::Stall {
            entered: entered_tx,
            resume: resume_rx,
        });
        let _ = entered_rx.recv();
    }

    /// Chaos instrumentation: unparks `shard`'s stalled worker. No-op
    /// if it is not stalled.
    pub fn resume(&self, shard: usize) {
        let Some(slot) = self.resume_slots.get(shard) else {
            return;
        };
        if let Some(tx) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = tx.send(());
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Workers exit once every sender into their queues is gone; a
        // parked one first needs its resume sender gone too.
        self.shard_txs.clear();
        self.resume_slots.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

pub(crate) fn elapsed_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_catalog;
    use alertops_core::{AlertGovernor, GovernorConfig, StreamingConfig};
    use alertops_sim::scenarios;

    /// A holder of several pools overlaps their closes: both pools are
    /// begun before either is waited on, and collecting them in the
    /// reverse order still yields each pool one delta per shard, over
    /// exactly its own alerts, for the sequence number its holder gave
    /// it (`collect` debug-asserts the echo).
    #[test]
    fn closes_of_two_pools_overlap() {
        let out = scenarios::quickstart(7).run();
        let config = IngestdConfig {
            shards: 2,
            ..IngestdConfig::default()
        };
        let spawn = || {
            ShardPool::spawn(&config, |shard, shards| {
                let catalog = shard_catalog(out.catalog.strategies(), shards, shard);
                StreamingGovernor::new(
                    AlertGovernor::new(catalog, GovernorConfig::default()),
                    StreamingConfig::default(),
                )
            })
            .expect("pool starts")
        };
        let (first, second) = (spawn(), spawn());
        for (pool, alerts) in [(&first, &out.alerts[..30]), (&second, &out.alerts[..50])] {
            for alert in alerts {
                pool.route(Box::new(alert.clone()));
            }
        }

        assert!(first.begin_close(7) && second.begin_close(9));
        let (mut first_deltas, mut second_deltas) = (Vec::new(), Vec::new());
        let second_degraded = second
            .collect(9, &mut second_deltas)
            .expect("workers alive");
        let first_degraded = first.collect(7, &mut first_deltas).expect("workers alive");

        for (deltas, degraded, routed) in [
            (first_deltas, first_degraded, 30),
            (second_deltas, second_degraded, 50),
        ] {
            assert_eq!(deltas.len(), config.shards);
            assert_eq!(deltas.iter().map(|d| d.alert_count).sum::<usize>(), routed);
            assert_eq!(degraded, Vec::<usize>::new());
        }
    }
}
