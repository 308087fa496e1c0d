//! Daemon assembly: threads, queues, sockets, and the public handle.
//!
//! Failure stance: the daemon assumes its own threads can die and its
//! peers can misbehave. Shared locks recover from poisoning instead of
//! cascading panics (`unwrap_or_else(PoisonError::into_inner)` —
//! counters and snapshots are monotonic data, so observing a value
//! written just before a panic is safe); ingress framing quarantines
//! malformed bytes instead of trusting line iterators; and shard
//! workers are supervised (see [`crate::worker`]'s module docs).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;
use std::{io, thread};

use alertops_core::{
    ClosedWindow, EmergingMetrics, GovernanceSnapshot, GovernorMetrics, QoaMetrics, QoaVerdicts,
    StreamingGovernor, WindowCloser,
};
use alertops_model::{Alert, QoaLabel};
use alertops_wire::{AckFrame, ChaosCmd, Frame, WireDecoder, WireEncoder, WireError, WireFormat};

use crate::codec::{ack_line, FrameDecoder, FrameError, QuarantineReason};
use crate::config::{IngestdConfig, OverflowPolicy};
use crate::coordinator::{run_coordinator, CoordMsg};
use crate::counters::{CounterSnapshot, Counters, QUEUE_ENQUEUED};
use crate::journal::WindowJournal;
use crate::metrics::{render_exposition, IngestdMetrics};
use crate::shard::shard_of;
use crate::status::{StatusReport, StatusRequest};
use crate::worker::{run_worker, WorkerMsg};

/// How long a status connection may stay silent before it is treated
/// as a legacy bare connection and served the default status document.
const STATUS_REQUEST_TIMEOUT: Duration = Duration::from_millis(100);

/// Constructor namespace for the daemon; see [`Ingestd::spawn`].
#[derive(Debug)]
pub struct Ingestd;

/// Raised-and-waited shutdown request flag.
#[derive(Debug, Default)]
struct ShutdownSignal {
    requested: Mutex<bool>,
    condvar: Condvar,
}

impl ShutdownSignal {
    fn request(&self) {
        let mut requested = self.requested.lock().unwrap_or_else(|e| e.into_inner());
        *requested = true;
        self.condvar.notify_all();
    }

    fn wait(&self) {
        let mut requested = self.requested.lock().unwrap_or_else(|e| e.into_inner());
        while !*requested {
            requested = self
                .condvar
                .wait(requested)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Shared ingress state: everything a connection needs to route frames.
#[derive(Debug)]
struct Router {
    shard_txs: Vec<SyncSender<WorkerMsg>>,
    coord_tx: Sender<CoordMsg>,
    counters: Arc<Counters>,
    overflow: OverflowPolicy,
    chaos: bool,
    /// One slot per shard holding the resume sender of an in-flight
    /// stall (see [`Router::stall`]).
    resume_slots: Vec<Mutex<Option<Sender<()>>>>,
    shutdown: Arc<ShutdownSignal>,
    metrics: Option<Arc<IngestdMetrics>>,
    /// Write-ahead journal, recorded before any enqueue.
    journal: Option<Arc<dyn WindowJournal>>,
    /// Ingress wire format every connection speaks.
    wire: WireFormat,
}

impl Router {
    /// Routes one alert to its strategy's shard, applying the overflow
    /// policy when the bounded queue is full. Every alert entering
    /// here counts as ingested — including ones the overflow policy
    /// then sheds — so `ingested == delivered + dropped + quarantined`
    /// stays exact.
    fn route(&self, alert: Box<Alert>) {
        if let Some(journal) = &self.journal {
            // Write-ahead: journaled before the alert can be in any
            // queue, so a crash never holds an unjournaled alert.
            // Recorded even if the overflow policy then sheds it —
            // under `Drop`, replay may resurrect shed alerts, which is
            // the durable log being *more* complete than the live run.
            journal.record(&alert);
        }
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

    /// Closes the window on every shard and returns the close result,
    /// or `None` if the coordinator is gone (shutdown race). `labels`
    /// is the window's OCE feedback for the online QoA model (empty
    /// when the caller has none).
    fn flush(&self, labels: Vec<QoaLabel>) -> Option<ClosedWindow> {
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        self.coord_tx
            .send(CoordMsg::CloseNow {
                ack: Some(ack_tx),
                labels,
            })
            .ok()?;
        ack_rx.recv().ok()
    }

    /// Pushes QoA verdicts down every shard queue — the cluster
    /// coordinator's lever when this daemon runs the node role and
    /// the model lives a level up.
    fn push_qoa_verdicts(&self, verdicts: &QoaVerdicts) {
        for tx in &self.shard_txs {
            let _ = tx.send(WorkerMsg::Qoa(verdicts.clone()));
        }
    }

    /// Drain barrier: returns once every message enqueued on any shard
    /// before this call has been consumed by its worker. (Blocks
    /// indefinitely if a shard is stalled — resume first.)
    fn sync(&self) {
        let (ack_tx, ack_rx) = mpsc::sync_channel(self.shard_txs.len());
        let mut expected = 0;
        for tx in &self.shard_txs {
            if tx.send(WorkerMsg::Sync(ack_tx.clone())).is_ok() {
                expected += 1;
            }
        }
        drop(ack_tx);
        for _ in 0..expected {
            if ack_rx.recv().is_err() {
                break;
            }
        }
    }

    /// Enqueues a chaos panic for `shard` (a later queue position, or
    /// its next window close). No-op for out-of-range shards.
    fn inject_panic(&self, shard: usize, on_close: bool) {
        if let Some(tx) = self.shard_txs.get(shard) {
            let _ = tx.send(WorkerMsg::Panic { on_close });
        }
    }

    /// Parks `shard`'s worker, returning only once it is parked (by
    /// queue order, everything enqueued before this call has then been
    /// consumed). A stall replacing an unresumed earlier stall drops
    /// the old resume sender, which resumes the earlier parked state.
    fn stall(&self, shard: usize) {
        let Some(tx) = self.shard_txs.get(shard) else {
            return;
        };
        let (entered_tx, entered_rx) = mpsc::sync_channel(1);
        let (resume_tx, resume_rx) = mpsc::channel();
        *self.resume_slots[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(resume_tx);
        if tx
            .send(WorkerMsg::Stall {
                entered: entered_tx,
                resume: resume_rx,
            })
            .is_ok()
        {
            let _ = entered_rx.recv();
        }
    }

    /// Unparks `shard`'s stalled worker. No-op if it is not stalled.
    fn resume(&self, shard: usize) {
        let Some(slot) = self.resume_slots.get(shard) else {
            return;
        };
        if let Some(tx) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = tx.send(());
        }
    }
}

/// A running daemon. Dropping the handle without calling
/// [`IngestdHandle::shutdown`] leaves threads running detached.
#[derive(Debug)]
pub struct IngestdHandle {
    router: Arc<Router>,
    counters: Arc<Counters>,
    snapshot: Arc<RwLock<Option<GovernanceSnapshot>>>,
    running: Arc<AtomicBool>,
    shutdown: Arc<ShutdownSignal>,
    metrics: Option<Arc<IngestdMetrics>>,
    ingest_addr: Option<SocketAddr>,
    status_addr: Option<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
}

impl Ingestd {
    /// Starts the daemon: workers, coordinator, and (if configured)
    /// the ingress and status listeners. `make_governor(shard, shards)`
    /// is called once per shard to build that shard's streaming
    /// governor — typically over [`crate::shard_catalog`] of a shared
    /// strategy catalog.
    ///
    /// # Errors
    ///
    /// Config validation failures surface as
    /// [`io::ErrorKind::InvalidInput`]; socket binding failures pass
    /// through.
    pub fn spawn(
        config: &IngestdConfig,
        make_governor: impl FnMut(usize, usize) -> StreamingGovernor,
    ) -> io::Result<IngestdHandle> {
        Self::spawn_with_journal(config, make_governor, None)
    }

    /// [`Ingestd::spawn`] with a write-ahead journal attached: the
    /// router records every accepted alert before enqueueing it and
    /// the coordinator reports each window close — see
    /// [`crate::journal`] for the durability contract. The daemon
    /// never reads the journal back; replay is the *caller's* startup
    /// move (load the log, re-route the retained windows, flush at
    /// each recorded boundary).
    ///
    /// # Errors
    ///
    /// As [`Ingestd::spawn`].
    pub fn spawn_with_journal(
        config: &IngestdConfig,
        make_governor: impl FnMut(usize, usize) -> StreamingGovernor,
        journal: Option<Arc<dyn WindowJournal>>,
    ) -> io::Result<IngestdHandle> {
        // Standalone: this daemon's coordinator is the topmost merge
        // point, so its closer runs every channel that is on.
        let streaming = &config.streaming;
        let closer = WindowCloser::new(
            streaming.storm,
            streaming.emerging.unless_off(),
            streaming.qoa.unless_off(),
        );
        Self::spawn_inner(config, make_governor, journal, closer)
    }

    /// [`Ingestd::spawn`] in the cluster-node role: a cluster
    /// coordinator one level up owns the sequential AO-LDA and QoA
    /// passes, so this daemon's coordinator only merges. The merged
    /// documents and samples its shards forwarded stay in each
    /// published window's [`ClosedWindow::delta`] for the level above,
    /// which pushes verdicts back via
    /// [`IngestdHandle::push_qoa_verdicts`].
    ///
    /// # Errors
    ///
    /// As [`Ingestd::spawn`].
    pub fn spawn_node(
        config: &IngestdConfig,
        make_governor: impl FnMut(usize, usize) -> StreamingGovernor,
    ) -> io::Result<IngestdHandle> {
        let closer = WindowCloser::new(config.streaming.storm, None, None);
        Self::spawn_inner(config, make_governor, None, closer)
    }

    fn spawn_inner(
        config: &IngestdConfig,
        mut make_governor: impl FnMut(usize, usize) -> StreamingGovernor,
        journal: Option<Arc<dyn WindowJournal>>,
        closer: WindowCloser,
    ) -> io::Result<IngestdHandle> {
        config
            .validate()
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;

        let counters = Arc::new(Counters::new(config.shards));
        let snapshot: Arc<RwLock<Option<GovernanceSnapshot>>> = Arc::new(RwLock::new(None));
        let running = Arc::new(AtomicBool::new(true));
        let shutdown = Arc::new(ShutdownSignal::default());
        let metrics = config
            .metrics
            .then(|| Arc::new(IngestdMetrics::new(config.shards)));
        let mut threads = Vec::new();

        // Workers, each behind its bounded queue.
        let (delta_tx, delta_rx) = mpsc::channel();
        let mut shard_txs = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = mpsc::sync_channel::<WorkerMsg>(config.queue_capacity);
            shard_txs.push(tx);
            // Shards never run a sequential pass themselves — it
            // belongs to a coordinator's closer — so each channel
            // forwards or stays off, matching the daemon's
            // configuration regardless of how the caller built the
            // governor.
            let mut governor = make_governor(shard, config.shards).into_shard(&config.streaming);
            if let Some(metrics) = &metrics {
                // Shards share detect/react series: the registry hands
                // every shard the same aggregate instruments.
                governor = governor.with_metrics(GovernorMetrics::register(metrics.registry()));
            }
            let deltas = delta_tx.clone();
            let worker_counters = Arc::clone(&counters);
            let worker_metrics = metrics.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("ingestd-worker-{shard}"))
                    .spawn(move || {
                        run_worker(
                            shard,
                            governor,
                            &rx,
                            &deltas,
                            &worker_counters,
                            worker_metrics.as_deref(),
                        );
                    })?,
            );
        }
        drop(delta_tx);

        // Coordinator.
        let (coord_tx, coord_rx) = mpsc::channel::<CoordMsg>();
        {
            let shard_txs = shard_txs.clone();
            let tick = config.tick;
            // The closer's channel handles live on the daemon's
            // registry: the same families a local-mode governor
            // records into (the registry dedups by name + labels).
            let closer = match &metrics {
                Some(m) => closer
                    .with_metrics(
                        EmergingMetrics::register(m.registry()),
                        QoaMetrics::register(m.registry()),
                    )
                    .with_merge_timer(Arc::clone(&m.merge_micros)),
                None => closer,
            };
            let snapshot = Arc::clone(&snapshot);
            let coord_counters = Arc::clone(&counters);
            let coord_metrics = metrics.clone();
            let coord_journal = journal.clone();
            threads.push(
                thread::Builder::new()
                    .name("ingestd-coordinator".to_owned())
                    .spawn(move || {
                        run_coordinator(
                            &coord_rx,
                            &shard_txs,
                            &delta_rx,
                            tick,
                            closer,
                            coord_journal,
                            &snapshot,
                            &coord_counters,
                            coord_metrics.as_deref(),
                        );
                    })?,
            );
        }

        let resume_slots = (0..config.shards).map(|_| Mutex::new(None)).collect();
        let router = Arc::new(Router {
            shard_txs,
            coord_tx,
            counters: Arc::clone(&counters),
            overflow: config.overflow,
            chaos: config.chaos,
            resume_slots,
            shutdown: Arc::clone(&shutdown),
            metrics: metrics.clone(),
            journal,
            wire: config.wire,
        });

        // Ingress listener.
        let ingest_addr = match &config.listen {
            Some(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let local = listener.local_addr()?;
                let router = Arc::clone(&router);
                let running = Arc::clone(&running);
                threads.push(
                    thread::Builder::new()
                        .name("ingestd-ingress".to_owned())
                        .spawn(move || accept_ingress(&listener, &running, &router))?,
                );
                Some(local)
            }
            None => None,
        };

        // Status listener.
        let status_addr = match &config.status {
            Some(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let local = listener.local_addr()?;
                let running = Arc::clone(&running);
                let counters = Arc::clone(&counters);
                let snapshot = Arc::clone(&snapshot);
                let status_metrics = metrics.clone();
                threads.push(
                    thread::Builder::new()
                        .name("ingestd-status".to_owned())
                        .spawn(move || {
                            accept_status(
                                &listener,
                                &running,
                                &counters,
                                &snapshot,
                                &status_metrics,
                            );
                        })?,
                );
                Some(local)
            }
            None => None,
        };

        Ok(IngestdHandle {
            router,
            counters,
            snapshot,
            running,
            shutdown,
            metrics,
            ingest_addr,
            status_addr,
            threads,
        })
    }
}

impl IngestdHandle {
    /// The bound ingress address, if a listener was configured.
    #[must_use]
    pub fn ingest_addr(&self) -> Option<SocketAddr> {
        self.ingest_addr
    }

    /// The bound status address, if a listener was configured.
    #[must_use]
    pub fn status_addr(&self) -> Option<SocketAddr> {
        self.status_addr
    }

    /// Routes one alert directly (no socket); used by the stdin path
    /// and benches. Applies the same sharding and overflow policy as
    /// TCP ingress.
    pub fn route(&self, alert: Alert) {
        self.router.route(Box::new(alert));
    }

    /// Closes the current window on every shard and returns the merged
    /// snapshot (`None` only during shutdown races).
    pub fn flush(&self) -> Option<GovernanceSnapshot> {
        self.router.flush(Vec::new()).map(|closed| closed.snapshot)
    }

    /// [`flush`](Self::flush) with the window's OCE feedback labels:
    /// the coordinator joins them with the merged per-strategy feature
    /// samples and updates the online QoA model (standalone role), or
    /// leaves both for the cluster coordinator (node role).
    pub fn flush_labeled(&self, labels: Vec<QoaLabel>) -> Option<GovernanceSnapshot> {
        self.router.flush(labels).map(|closed| closed.snapshot)
    }

    /// Like [`flush`](Self::flush), but returns the full
    /// [`ClosedWindow`]: the snapshot plus the node-level
    /// [`alertops_core::WindowDelta`] a cluster coordinator merges
    /// with this node's peers.
    pub fn flush_window(&self) -> Option<ClosedWindow> {
        self.router.flush(Vec::new())
    }

    /// [`flush_window`](Self::flush_window) with OCE feedback labels
    /// attached; see [`flush_labeled`](Self::flush_labeled).
    pub fn flush_window_labeled(&self, labels: Vec<QoaLabel>) -> Option<ClosedWindow> {
        self.router.flush(labels)
    }

    /// Pushes QoA verdicts down every shard queue, to apply before the
    /// next window close. Cluster coordinators call this after their
    /// own model update when this daemon was spawned with
    /// [`Ingestd::spawn_node`].
    pub fn push_qoa_verdicts(&self, verdicts: &QoaVerdicts) {
        self.router.push_qoa_verdicts(verdicts);
    }

    /// Drain barrier: returns once every shard has consumed everything
    /// enqueued before this call. The chaos suite uses it to pace
    /// deterministically; blocks while a shard is stalled.
    pub fn sync(&self) {
        self.router.sync();
    }

    /// Chaos instrumentation: make `shard`'s worker panic at this
    /// point in its queue (`on_close = false`), or during its next
    /// window close after detection already mutated governor state
    /// (`on_close = true`). The supervisor restarts the worker either
    /// way. No-op for out-of-range shards.
    pub fn inject_panic(&self, shard: usize, on_close: bool) {
        self.router.inject_panic(shard, on_close);
    }

    /// Chaos instrumentation: park `shard`'s worker, returning once it
    /// is parked with its queue drained. Pair with
    /// [`resume_shard`](Self::resume_shard); a flush while stalled
    /// blocks until resumed.
    pub fn stall_shard(&self, shard: usize) {
        self.router.stall(shard);
    }

    /// Chaos instrumentation: unpark a worker parked by
    /// [`stall_shard`](Self::stall_shard). No-op if not stalled.
    pub fn resume_shard(&self, shard: usize) {
        self.router.resume(shard);
    }

    /// The most recently merged snapshot, if any window closed yet.
    #[must_use]
    pub fn latest_snapshot(&self) -> Option<GovernanceSnapshot> {
        self.snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Point-in-time counter values.
    #[must_use]
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// The daemon's metric handles, if [`IngestdConfig::metrics`] is
    /// enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<IngestdMetrics>> {
        self.metrics.as_ref()
    }

    /// Renders the Prometheus text exposition: the conservation
    /// counters always, plus every registered stage/governor metric
    /// when metrics are enabled. Same document the status socket
    /// serves for a `metrics` request.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        render_exposition(&self.counters, self.metrics.as_deref())
    }

    /// Blocks until some connection sends `{"ctrl":"shutdown"}` (or
    /// [`IngestdHandle::request_shutdown`] is called).
    pub fn wait_for_shutdown_request(&self) {
        self.shutdown.wait();
    }

    /// Raises the shutdown request flag (as the shutdown control frame
    /// does), unblocking [`IngestdHandle::wait_for_shutdown_request`].
    pub fn request_shutdown(&self) {
        self.shutdown.request();
    }

    /// Stops the daemon: coordinator first, then listeners, then
    /// workers; joins every thread. Open ingress connections must be
    /// closed by their peers for their detached handler threads to
    /// exit, but this method does not wait for those.
    pub fn shutdown(self) {
        self.shutdown.request();
        self.running.store(false, Ordering::Release);

        // Stop the coordinator (acked so no close is mid-flight).
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        if self
            .router
            .coord_tx
            .send(CoordMsg::Shutdown { ack: ack_tx })
            .is_ok()
        {
            let _ = ack_rx.recv();
        }

        // Wake the accept loops so they observe `running == false`.
        for addr in [self.ingest_addr, self.status_addr].into_iter().flatten() {
            let _ = TcpStream::connect(addr);
        }

        // Workers exit once every sender into their queues is gone:
        // the coordinator's clones died with it, and the router's die
        // here (accept loops drop their clones as they exit).
        drop(self.router);

        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

/// Ingress accept loop: one detached handler thread per connection.
fn accept_ingress(listener: &TcpListener, running: &Arc<AtomicBool>, router: &Arc<Router>) {
    for stream in listener.incoming() {
        if !running.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let router = Arc::clone(router);
        let _ = thread::Builder::new()
            .name("ingestd-conn".to_owned())
            .spawn(move || serve_ingress(&stream, &router));
    }
}

/// The two encodings a connection can speak, reduced to the three
/// questions the serve loop asks: feed bytes, is a decode error
/// terminal, write this ack. Past [`feed`](Self::feed) everything is
/// `alertops-wire` [`Frame`]s; the connection speaks one encoding in
/// both directions.
enum IngressCodec {
    /// One frame per line. Framing goes through [`FrameDecoder`], so a
    /// connection dropped mid-frame quarantines its partial line
    /// instead of losing it silently.
    Ndjson(FrameDecoder),
    /// Length+CRC `alertops-wire` frames. The write half gets its own
    /// encoder: the ack stream's string table is independent of the
    /// ingress stream's.
    Binary {
        decoder: WireDecoder,
        ack_encoder: WireEncoder,
    },
}

/// One decoded ingress item: a frame, or the bucket a malformed input
/// is quarantined under.
type IngressItem = Result<Frame, QuarantineReason>;

impl IngressCodec {
    fn new(wire: WireFormat) -> Self {
        match wire {
            WireFormat::Ndjson => IngressCodec::Ndjson(FrameDecoder::new()),
            WireFormat::Binary => IngressCodec::Binary {
                decoder: WireDecoder::new(),
                ack_encoder: WireEncoder::new(),
            },
        }
    }

    /// Decodes one socket read into `out` (cleared first) — the
    /// connection's one scratch vec, so the decode loop allocates
    /// nothing in steady state.
    fn feed(&mut self, bytes: &[u8], out: &mut Vec<IngressItem>) {
        out.clear();
        match self {
            IngressCodec::Ndjson(decoder) => {
                decoder.feed_with(bytes, |item| out.extend(ndjson_item(item)));
            }
            IngressCodec::Binary { decoder, .. } => {
                decoder.feed_with(bytes, |item| out.push(item.map_err(|e| binary_reason(&e))));
            }
        }
    }

    /// The end-of-stream item: a stream cut mid-frame quarantines its
    /// torn tail (which on NDJSON may still parse — a final line
    /// without its newline).
    fn finish(&mut self) -> Option<IngressItem> {
        match self {
            IngressCodec::Ndjson(decoder) => decoder.finish().and_then(ndjson_item),
            IngressCodec::Binary { decoder, .. } => {
                decoder.finish().map(|e| Err(binary_reason(&e)))
            }
        }
    }

    /// NDJSON resyncs at the next newline. A binary stream cannot: the
    /// length prefix can no longer be trusted and the string table may
    /// be desynced, so its first decode error closes the connection.
    fn decode_error_is_terminal(&self) -> bool {
        matches!(self, IngressCodec::Binary { .. })
    }

    /// Writes one ack in a single `write_all`, line terminator
    /// included: an ack split across two small writes stalls the
    /// client for a delayed-ACK interval under Nagle.
    fn write_ack(&mut self, ack: AckFrame, writer: &mut impl Write) -> io::Result<()> {
        match self {
            IngressCodec::Ndjson(_) => {
                let mut line = ack_line(&ack);
                line.push('\n');
                writer.write_all(line.as_bytes())
            }
            IngressCodec::Binary { ack_encoder, .. } => {
                writer.write_all(&ack_encoder.encode(&Frame::Ack(ack)))
            }
        }
    }
}

/// A blank line is skipped, not quarantined, so it maps to no item.
fn ndjson_item(item: Result<Frame, FrameError>) -> Option<IngressItem> {
    match item {
        Ok(frame) => Some(Ok(frame)),
        Err(err) => err.reason().map(Err),
    }
}

/// The quarantine bucket of a binary decode failure: a declared length
/// past the frame bound is `Oversized`, everything else (CRC, framing,
/// torn tail) `CorruptFrame`.
fn binary_reason(err: &WireError) -> QuarantineReason {
    if err.is_oversized() {
        QuarantineReason::Oversized
    } else {
        QuarantineReason::CorruptFrame
    }
}

/// One ingress connection, in the daemon's configured wire format.
fn serve_ingress(stream: &TcpStream, router: &Arc<Router>) {
    let Ok(mut read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut codec = IngressCodec::new(router.wire);
    let mut buf = [0u8; 8192];
    let mut items = Vec::new();
    loop {
        let n = match read_half.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        codec.feed(&buf[..n], &mut items);
        for item in items.drain(..) {
            if !handle_item(item, router, &mut codec, &mut writer) {
                return;
            }
        }
    }
    if let Some(item) = codec.finish() {
        let _ = handle_item(item, router, &mut codec, &mut writer);
    }
}

/// Counts one decoded item, then applies the frame or quarantines the
/// malformed input; `false` ends the connection.
fn handle_item(
    item: IngressItem,
    router: &Arc<Router>,
    codec: &mut IngressCodec,
    writer: &mut impl Write,
) -> bool {
    match item {
        Ok(frame) => {
            if let Some(metrics) = &router.metrics {
                metrics.frames_decoded.inc();
            }
            handle_frame(frame, router, |ack| codec.write_ack(ack, writer).is_ok())
        }
        Err(reason) => {
            if let Some(metrics) = &router.metrics {
                metrics.frames_rejected.inc();
            }
            router.counters.quarantine(reason);
            !codec.decode_error_is_terminal()
        }
    }
}

/// Applies one ingress frame, answering through `ack` (`false` from
/// it: the peer is gone); `false` ends the connection. Frame kinds
/// that only exist for WAL segments, the cluster's checkpoint file or
/// the ack lane are quarantined as unknown controls.
fn handle_frame(frame: Frame, router: &Arc<Router>, mut ack: impl FnMut(AckFrame) -> bool) -> bool {
    match frame {
        Frame::Alert(alert) => router.route(alert),
        Frame::Flush => {
            if let Some(closed) = router.flush(Vec::new()) {
                let snapshot = closed.snapshot;
                return ack(AckFrame::Flush {
                    window: snapshot.window_index,
                    alerts: snapshot.alert_count as u64,
                });
            }
        }
        Frame::Sync => {
            router.sync();
            return ack(AckFrame::Sync);
        }
        Frame::Shutdown => {
            let _ = ack(AckFrame::Shutdown);
            router.shutdown.request();
            return false;
        }
        Frame::Chaos(cmd) => {
            let (ChaosCmd::Panic { shard, .. }
            | ChaosCmd::Stall { shard }
            | ChaosCmd::Resume { shard }) = cmd;
            if chaos_target(router, shard) {
                match cmd {
                    ChaosCmd::Panic { on_close, .. } => router.inject_panic(shard, on_close),
                    ChaosCmd::Stall { .. } => {
                        router.stall(shard);
                        return ack(AckFrame::Stall { shard });
                    }
                    ChaosCmd::Resume { .. } => router.resume(shard),
                }
            }
        }
        Frame::Boundary { .. } | Frame::Ack(_) | Frame::QoaState(_) => {
            router.counters.quarantine(QuarantineReason::UnknownControl);
        }
    }
    true
}

/// Gate for wire-level chaos frames: chaos mode must be enabled and
/// the shard in range; otherwise the frame is quarantined as an
/// unknown control and ignored.
fn chaos_target(router: &Arc<Router>, shard: usize) -> bool {
    if router.chaos && shard < router.shard_txs.len() {
        true
    } else {
        router.counters.quarantine(QuarantineReason::UnknownControl);
        false
    }
}

/// Status accept loop: one detached handler thread per connection, so
/// a slow scraper cannot block the next one.
fn accept_status(
    listener: &TcpListener,
    running: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
    snapshot: &Arc<RwLock<Option<GovernanceSnapshot>>>,
    metrics: &Option<Arc<IngestdMetrics>>,
) {
    for stream in listener.incoming() {
        if !running.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let counters = Arc::clone(counters);
        let snapshot = Arc::clone(snapshot);
        let metrics = metrics.clone();
        let _ = thread::Builder::new()
            .name("ingestd-status-conn".to_owned())
            .spawn(move || serve_status(&stream, &counters, &snapshot, metrics.as_deref()));
    }
}

/// One status connection: read the optional request line, serve the
/// selected document, close. See [`crate::status`] for the protocol.
fn serve_status(
    stream: &TcpStream,
    counters: &Arc<Counters>,
    snapshot: &Arc<RwLock<Option<GovernanceSnapshot>>>,
    metrics: Option<&IngestdMetrics>,
) {
    let request = read_status_request(stream);
    let mut writer = stream;
    match request {
        StatusRequest::Status => {
            let report = StatusReport {
                counters: counters.snapshot(),
                snapshot: snapshot.read().unwrap_or_else(|e| e.into_inner()).clone(),
            };
            let _ = writeln!(writer, "{}", report.to_json());
        }
        StatusRequest::Metrics => {
            let _ = writer.write_all(render_exposition(counters, metrics).as_bytes());
        }
        StatusRequest::Healthz => {
            // Liveness must stay cheap: two atomic loads and one small
            // write, no JSON, no snapshot clone. The counters give a
            // probe something monotone to watch.
            let windows = counters.windows_closed.load(Ordering::Relaxed);
            let ingested = counters.ingested.load(Ordering::Relaxed);
            let _ = writeln!(writer, "ok windows={windows} ingested={ingested}");
        }
        StatusRequest::Unknown(verb) => {
            let _ = writeln!(
                writer,
                "error: unknown request {verb:?} (try: status, metrics, healthz)"
            );
        }
    }
}

/// Reads the request line of a status connection. Falls back to the
/// legacy default ([`StatusRequest::Status`]) on timeout, EOF, or a
/// line that never terminates within a sane length — the original
/// protocol was "connect and read", and those clients must keep
/// working.
fn read_status_request(stream: &TcpStream) -> StatusRequest {
    let Ok(mut read_half) = stream.try_clone() else {
        return StatusRequest::Status;
    };
    if read_half
        .set_read_timeout(Some(STATUS_REQUEST_TIMEOUT))
        .is_err()
    {
        return StatusRequest::Status;
    }
    let mut line = Vec::with_capacity(16);
    let mut byte = [0u8; 1];
    loop {
        match read_half.read(&mut byte) {
            Ok(0) | Err(_) => return StatusRequest::Status,
            Ok(_) if byte[0] == b'\n' => {
                return StatusRequest::parse(&String::from_utf8_lossy(&line));
            }
            Ok(_) => {
                if line.len() >= 64 {
                    return StatusRequest::Status;
                }
                line.push(byte[0]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts everything, counts the calls: what a socket with Nagle
    /// on turns into segments.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Every ack, in either encoding, leaves in exactly one `write`
    /// call, terminator included — two small writes per ack (what
    /// `writeln!` on a bare socket does) cost the client a delayed-ACK
    /// stall per flush.
    #[test]
    fn every_ack_leaves_in_one_write() {
        let acks = [
            AckFrame::Flush {
                window: 7,
                alerts: 4096,
            },
            AckFrame::Sync,
            AckFrame::Shutdown,
            AckFrame::Stall { shard: 3 },
        ];
        for wire in [WireFormat::Ndjson, WireFormat::Binary] {
            let mut codec = IngressCodec::new(wire);
            for ack in acks {
                let mut writer = CountingWriter::default();
                codec.write_ack(ack, &mut writer).expect("write succeeds");
                assert_eq!(writer.writes, 1, "{wire} {ack:?}");
                if wire == WireFormat::Ndjson {
                    assert_eq!(writer.bytes, format!("{}\n", ack_line(&ack)).as_bytes());
                } else {
                    assert_eq!(
                        WireDecoder::new().feed(&writer.bytes),
                        vec![Ok(Frame::Ack(ack))]
                    );
                }
            }
        }
    }
}
