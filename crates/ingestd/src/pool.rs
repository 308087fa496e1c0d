//! The shard pool: supervised workers behind their bounded queues.
//!
//! What a daemon (one pool) and `alertops-cluster` (one per node)
//! share: routing under the overflow policy with its counters, the two
//! halves of a window close, the drain and chaos hooks, and the one
//! metrics registry every series of the pool lives on. A pool merges
//! nothing: its holder's [`crate::MergePoint`] runs one close over
//! every pool it holds.
//!
//! The first half, [`ShardPool::begin_close`], queues each shard's
//! `Close{seq}` together with the QoA verdicts that govern the window,
//! and hands the holder the window's emerging documents straight from
//! the shard queues ([`ShardDocs`]), so the holder runs AO-LDA
//! while the workers close. The second, [`ShardPool::collect`], is the
//! barrier on their deltas.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use std::{io, thread};

use alertops_core::{ChannelMode, GovernorMetrics, QoaVerdicts, StreamingGovernor, WindowDelta};
use alertops_model::{Alert, DependencyGraph};
use alertops_obs::MetricsRegistry;

use crate::config::{IngestdConfig, OverflowPolicy};
use crate::counters::{CounterSnapshot, Counters};
use crate::metrics::IngestdMetrics;
use crate::queue::{ShardDocs, ShardQueue};
use crate::shard::shard_of;
use crate::worker::{run_worker, ShardDelta, WorkerMsg};

/// Running shard workers and the queues into them. Dropping the pool
/// stops and joins the workers; whatever they held in memory is gone.
#[derive(Debug)]
pub struct ShardPool {
    /// One per shard, shared with its worker.
    queues: Vec<Arc<ShardQueue>>,
    /// Every worker's reply lane. Only [`collect`](Self::collect)
    /// reads it; the lock is what lets routing threads share the pool.
    deltas: Mutex<Receiver<ShardDelta>>,
    /// Every series of the pool: the conservation families always, the
    /// stage and governor families when metrics are on.
    registry: MetricsRegistry,
    counters: Arc<Counters>,
    overflow: OverflowPolicy,
    /// One slot per shard holding the resume sender of an in-flight
    /// stall (see [`ShardPool::stall`]).
    resume_slots: Vec<Mutex<Option<Sender<()>>>>,
    metrics: Option<Arc<IngestdMetrics>>,
    /// The dependency graph the shard governors were built with, taken
    /// off them: the holder's merge point correlates by it.
    graph: Option<Arc<DependencyGraph>>,
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

        let registry = MetricsRegistry::new();
        let counters = Arc::new(Counters::register(&registry, config.shards));
        let metrics = config
            .metrics
            .then(|| Arc::new(IngestdMetrics::register(&registry, config.shards)));
        let (delta_tx, delta_rx) = mpsc::channel();
        let documents = config.streaming.emerging.mode != ChannelMode::Off;
        let mut queues = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        let mut graph = None;
        for shard in 0..config.shards {
            let queue = Arc::new(ShardQueue::new(config.queue_capacity, documents));
            queues.push(Arc::clone(&queue));
            // Shards never run R3 or a sequential pass themselves — they
            // belong to the merge point — so each input reaches it as
            // the configuration says, regardless of how the caller built
            // the governor: representatives and QoA samples in the
            // deltas, emerging documents from the queues, and the graph
            // through the pool. Every shard's governor comes from one
            // factory, so the first shard's graph is the pool's.
            let (mut governor, shard_graph) =
                make_governor(shard, config.shards).into_shard(&config.streaming);
            graph = graph.or(shard_graph);
            if metrics.is_some() {
                // Shards share detect/react series: the registry hands
                // every shard the same aggregate instruments.
                governor = governor.with_metrics(GovernorMetrics::register(&registry));
            }
            let (deltas, counters, metrics) =
                (delta_tx.clone(), Arc::clone(&counters), metrics.clone());
            workers.push(
                thread::Builder::new()
                    .name(format!("ingestd-worker-{shard}"))
                    .spawn(move || {
                        run_worker(
                            shard,
                            governor,
                            documents,
                            &queue,
                            &deltas,
                            &counters,
                            metrics.as_deref(),
                        );
                    })?,
            );
        }
        Ok(Self {
            queues,
            deltas: Mutex::new(delta_rx),
            registry,
            counters,
            overflow: config.overflow,
            resume_slots: (0..config.shards).map(|_| Mutex::new(None)).collect(),
            metrics,
            graph,
            workers,
        })
    }

    /// The dependency graph the merge point's R3 correlates by: the one
    /// the shard governors were built with.
    #[must_use]
    pub fn dependency_graph(&self) -> Option<&DependencyGraph> {
        self.graph.as_deref()
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The live counters the router and the workers record into.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The registry every series of the pool lives on; a holder
    /// registers its own families (the merge point's channels) here
    /// too.
    #[must_use]
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Point-in-time counters, queue depths read from the queues.
    #[must_use]
    pub(crate) fn counter_snapshot(&self) -> CounterSnapshot {
        self.refresh_queue_depths();
        self.counters.snapshot()
    }

    /// The Prometheus exposition of every series on the pool's
    /// registry, queue depths read from the queues and the process RSS
    /// sampled now, so no window close pays for the procfs read.
    #[must_use]
    pub(crate) fn render_metrics(&self) -> String {
        self.refresh_queue_depths();
        if let Some(m) = &self.metrics {
            m.sample_rss();
        }
        self.registry.render()
    }

    /// Sets each depth gauge from its queue's count, read under the
    /// queue's lock.
    fn refresh_queue_depths(&self) {
        for (queue, depth) in self.queues.iter().zip(&self.counters.depth_gauges) {
            depth.set(queue.depth() as u64);
        }
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
    /// stays exact. Routing wakes no worker (see `ShardQueue`).
    pub fn route(&self, alert: Alert) {
        self.counters.ingested.inc();
        let shard = shard_of(alert.strategy(), self.queues.len());
        let queued = self.queues[shard].push_alert(alert, self.overflow, || {
            self.counters.backpressure_waits.inc();
        });
        if !queued {
            self.counters.dropped.inc();
        }
    }

    /// First half of a window close: queues `Close{seq}` on every
    /// shard, with `verdicts` (the QoA verdicts as of the last close)
    /// to govern the window it closes, so each shard closes over
    /// exactly the alerts routed before this call. Returns without
    /// waiting, so several pools' closes overlap, and hands back, per
    /// shard, the emerging documents of the alerts queued ahead of its
    /// `Close` (all empty when the channel is off). `None`: a worker is
    /// gone and the close cannot complete; do not
    /// [`collect`](Self::collect).
    #[must_use]
    pub fn begin_close(&self, seq: u64, verdicts: Option<&QoaVerdicts>) -> Option<Vec<ShardDocs>> {
        self.queues
            .iter()
            .map(|queue| queue.push_close(seq, verdicts.cloned()))
            .collect()
    }

    /// Second half: barriers on exactly one delta per shard for the
    /// `seq` begun, appends them to `deltas` in shard order, and
    /// returns the (sorted) shards that lost alerts to a worker restart
    /// during the window. Workers close in queue order, so a holder
    /// that collects `seq` before beginning `seq + 1` cannot interleave
    /// windows. A panicking worker does not wedge the barrier: its
    /// supervisor contributes a synthetic empty delta for the in-flight
    /// `seq` and the shard is listed degraded. `None`: the workers are
    /// gone, and nothing is appended.
    #[must_use]
    pub fn collect(&self, seq: u64, deltas: &mut Vec<WindowDelta>) -> Option<Vec<usize>> {
        let lane = self.deltas.lock().unwrap_or_else(|e| e.into_inner());
        let mut slots: Vec<Option<WindowDelta>> = self.queues.iter().map(|_| None).collect();
        let mut degraded = Vec::new();
        for _ in 0..self.queues.len() {
            let shard_delta = lane.recv().ok()?;
            debug_assert_eq!(shard_delta.seq, seq, "barrier interleaved windows");
            if shard_delta.degraded {
                degraded.push(shard_delta.shard);
            }
            let slot = slots[shard_delta.shard].replace(shard_delta.delta);
            debug_assert!(slot.is_none(), "one delta per shard per close");
        }
        deltas.extend(slots.into_iter().flatten());
        degraded.sort_unstable();
        Some(degraded)
    }

    /// Drain barrier: returns once every message enqueued on any shard
    /// before this call has been consumed by its worker. (Blocks
    /// indefinitely if a shard is stalled — resume first.)
    pub fn sync(&self) {
        let (ack_tx, ack_rx) = mpsc::sync_channel(self.queues.len());
        for queue in &self.queues {
            queue.push_control(WorkerMsg::Sync(ack_tx.clone()));
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
        if let Some(queue) = self.queues.get(shard) {
            queue.push_control(WorkerMsg::Panic { on_close });
        }
    }

    /// Chaos instrumentation: parks `shard`'s worker, returning only
    /// once it is parked (by queue order, everything enqueued before
    /// this call has then been consumed). A stall replacing an
    /// unresumed earlier stall drops the old resume sender, which
    /// resumes the earlier parked state. A close while stalled blocks
    /// until [`resume`](Self::resume).
    pub fn stall(&self, shard: usize) {
        let Some(queue) = self.queues.get(shard) else {
            return;
        };
        let (entered_tx, entered_rx) = mpsc::sync_channel(1);
        let (resume_tx, resume_rx) = mpsc::channel();
        *self.resume_slots[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(resume_tx);
        // Unqueued (closed queue), the message takes `entered_tx` with
        // it and the wait returns at once.
        queue.push_control(WorkerMsg::Stall {
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
        // Workers drain their closed queues and exit; a stalled one
        // first needs its resume sender gone too.
        for queue in &self.queues {
            queue.close();
        }
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
    use crate::worker::CHAOS_PANIC_MSG;
    use alertops_core::{AlertGovernor, GovernorConfig, StreamingConfig};
    use alertops_model::AlertId;
    use alertops_sim::scenarios::{self, SimOutput};

    fn spawn(config: &IngestdConfig, out: &SimOutput) -> ShardPool {
        ShardPool::spawn(config, |shard, shards| {
            let catalog = shard_catalog(out.catalog.strategies(), shards, shard);
            StreamingGovernor::new(
                AlertGovernor::new(catalog, GovernorConfig::default()),
                StreamingConfig::default(),
            )
        })
        .expect("pool starts")
    }

    /// One shard behind a queue of `queue_capacity` alerts.
    fn one_shard(queue_capacity: usize, overflow: OverflowPolicy) -> IngestdConfig {
        IngestdConfig {
            shards: 1,
            queue_capacity,
            overflow,
            ..IngestdConfig::default()
        }
    }

    /// Closes `seq` on a lone pool: its delta's alert count and its
    /// degraded shards.
    fn close(pool: &ShardPool, seq: u64) -> (usize, Vec<usize>) {
        assert!(pool.begin_close(seq, None).is_some(), "workers alive");
        let mut deltas = Vec::new();
        let degraded = pool.collect(seq, &mut deltas).expect("workers alive");
        (deltas.iter().map(|d| d.alert_count).sum(), degraded)
    }

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
        let (first, second) = (spawn(&config, &out), spawn(&config, &out));
        for (pool, alerts) in [(&first, &out.alerts[..30]), (&second, &out.alerts[..50])] {
            for alert in alerts {
                pool.route(alert.clone());
            }
        }

        assert!(first.begin_close(7, None).is_some() && second.begin_close(9, None).is_some());
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

    /// With the emerging channel on, `begin_close` hands back one
    /// document per alert queued on each shard since the previous
    /// close, in routing order; with it off, none is recorded.
    #[test]
    fn documents_leave_with_the_close_only_when_the_channel_is_on() {
        let out = scenarios::quickstart(7).run();
        for mode in [ChannelMode::Off, ChannelMode::Forward] {
            let mut config = IngestdConfig {
                shards: 2,
                ..IngestdConfig::default()
            };
            config.streaming.emerging.mode = mode;
            let pool = spawn(&config, &out);
            for (seq, window) in out.alerts[..40].chunks(20).enumerate() {
                window.iter().for_each(|a| pool.route(a.clone()));
                let docs = pool.begin_close(seq as u64, None).expect("workers alive");
                let mut deltas = Vec::new();
                assert_eq!(pool.collect(seq as u64, &mut deltas), Some(vec![]));
                for (shard, (docs, delta)) in docs.iter().zip(&deltas).enumerate() {
                    let queued: Vec<AlertId> = window
                        .iter()
                        .filter(|a| shard_of(a.strategy(), 2) == shard)
                        .map(Alert::id)
                        .collect();
                    let taken: Vec<AlertId> = docs.iter().map(|d| d.alert).collect();
                    assert_eq!(docs.len(), taken.len());
                    match mode {
                        ChannelMode::Off => assert!(taken.is_empty()),
                        ChannelMode::Forward => assert_eq!(taken, queued),
                    }
                    assert_eq!(delta.alert_count, queued.len());
                    assert!(
                        delta.emerging_docs.is_empty(),
                        "a clean shard forwards none"
                    );
                }
            }
        }
    }

    /// The worker takes the five alerts, the panic marker and the seven
    /// alerts after it in one batch (the stall holds it until all three
    /// are queued). The panic loses the five it buffered; the seven wait
    /// in the worker's inbox and the restarted loop resumes there.
    #[test]
    fn a_panic_spares_the_rest_of_a_taken_batch() {
        alertops_chaos::silence_panics_containing(CHAOS_PANIC_MSG);
        let out = scenarios::quickstart(7).run();
        let pool = spawn(&one_shard(1024, OverflowPolicy::Block), &out);
        pool.stall(0);
        out.alerts[..5].iter().for_each(|a| pool.route(a.clone()));
        pool.inject_panic(0, false);
        out.alerts[5..12].iter().for_each(|a| pool.route(a.clone()));
        pool.resume(0);
        // A sync lost with the batch would not hang: its ack sender
        // goes with it.
        pool.sync();

        assert_eq!(close(&pool, 1), (7, vec![0]));
        let counters = pool.counter_snapshot();
        assert_eq!((counters.delivered, counters.dropped), (7, 5));
        assert_eq!(counters.shard_restarts, 1);
    }

    /// A window three times the queue's capacity, routed under `Block`
    /// to a worker that only a wake can start: the half-capacity wake
    /// and the wake of a producer about to block must keep it moving.
    #[test]
    fn a_window_past_capacity_neither_deadlocks_nor_drops_under_block() {
        let out = scenarios::quickstart(7).run();
        let capacity = 4;
        let pool = spawn(&one_shard(capacity, OverflowPolicy::Block), &out);
        let window = &out.alerts[..3 * capacity];
        window.iter().for_each(|a| pool.route(a.clone()));

        assert_eq!(close(&pool, 1), (window.len(), vec![]));
        let counters = pool.counter_snapshot();
        assert_eq!((counters.delivered, counters.dropped), (12, 0));
        assert!(counters.is_conserved(), "{counters:?}");
    }

    /// The bound counts alerts: a stalled worker's queue keeps exactly
    /// `capacity` of a longer burst, though the burst is a single run.
    #[test]
    fn capacity_counts_alerts_not_runs() {
        let out = scenarios::quickstart(7).run();
        let capacity = 6;
        let pool = spawn(&one_shard(capacity, OverflowPolicy::Drop), &out);
        pool.stall(0);
        out.alerts[..capacity + 5]
            .iter()
            .for_each(|a| pool.route(a.clone()));
        assert_eq!(pool.counter_snapshot().queue_depths, [capacity as u64]);
        pool.resume(0);
        pool.sync();

        assert_eq!(close(&pool, 1), (capacity, vec![]));
        let counters = pool.counter_snapshot();
        assert_eq!((counters.delivered, counters.dropped), (6, 5));
        assert_eq!(counters.backpressure_waits, 0);
    }
}
