//! Daemon assembly: threads, queues, sockets, and the public handle.
//!
//! Failure stance: the daemon assumes its own threads can die and its
//! peers can misbehave. Shared locks recover from poisoning instead of
//! cascading panics (`unwrap_or_else(PoisonError::into_inner)` —
//! counters and snapshots are monotonic data, so observing a value
//! written just before a panic is safe) — except the merge lock: a
//! close that panicked may have left its merge point half updated, so
//! once that lock is poisoned no close runs again. Ingress framing
//! quarantines malformed bytes instead of trusting line iterators, and
//! shard workers are supervised (see [`crate::worker`]'s module docs).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use std::{io, thread};

use alertops_core::{EmergingMetrics, GovernanceSnapshot, QoaMetrics, StreamingGovernor};
use alertops_model::{Alert, QoaLabel};
use alertops_obs::Counter;
use alertops_react::ReactMetrics;
use alertops_wire::wal::replay;
use alertops_wire::{AckFrame, ChaosCmd, Frame, WireDecoder, WireEncoder, WireError, WireFormat};

use crate::codec::{ack_line, FrameDecoder, FrameError, QuarantineReason};
use crate::config::IngestdConfig;
use crate::counters::CounterSnapshot;
use crate::merge::{ClosedWindow, MergeCounters, MergeHolder, MergePoint};
use crate::metrics::IngestdMetrics;
use crate::node::Node;
use crate::pool::{elapsed_micros, ShardPool};
use crate::status::{StatusReport, StatusRequest};

/// How long a status connection may stay silent before it is treated
/// as a legacy bare connection and served the default status document.
const STATUS_REQUEST_TIMEOUT: Duration = Duration::from_millis(100);

/// Thread names of the ingress accept loop and of its connections.
const INGEST: [&str; 2] = ["ingestd-ingress", "ingestd-conn"];
/// Thread names of the status accept loop and of its connections.
const STATUS: [&str; 2] = ["ingestd-status", "ingestd-status-conn"];

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

/// What [`Ingestd::spawn_with_wal`] recovered from its log.
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

/// What the merge lock guards: the merge point and the tick's state.
#[derive(Debug)]
struct Closing {
    merge: MergePoint,
    /// When the last close returned; a tick is due one interval later.
    last_close: Instant,
    /// No close runs again: the daemon shut down or a worker is gone.
    stopped: bool,
}

/// The daemon's shared state: everything a connection needs to route
/// frames and close windows, and what the status socket reads.
#[derive(Debug)]
struct Router {
    /// The daemon's one node: its log, if any, and its shards.
    node: Node,
    /// The merge lock. Whoever holds it runs the one close in flight;
    /// poisoned (a close panicked halfway) it reads as stopped.
    closing: Mutex<Closing>,
    /// Wakes the tick thread at shutdown.
    tick_wake: Condvar,
    /// The latest merged snapshot, locked apart from the merge lock so
    /// a status scrape never waits on a close in flight.
    snapshot: RwLock<Option<GovernanceSnapshot>>,
    /// Failed appends, seals and checkpoint writes.
    write_errors: Arc<Counter>,
    /// Cleared at shutdown; the accept loops stop on it.
    running: AtomicBool,
    chaos: bool,
    shutdown: ShutdownSignal,
    /// Ingress wire format every connection speaks.
    wire: WireFormat,
}

impl Router {
    fn pool(&self) -> &ShardPool {
        shards(&self.node)
    }

    /// Routes one alert through the node ([`Node::route`]); one the log
    /// could not hold is shed, counted ingested, `dropped` and a write
    /// error.
    fn route(&self, alert: Alert) {
        if self.node.route(alert).is_err() {
            self.write_errors.inc();
            let counters = self.pool().counters();
            counters.ingested.inc();
            counters.dropped.inc();
        }
    }

    /// Closes the window on every shard, on the calling thread, and
    /// returns the close result; `None` once closes have stopped.
    /// `labels` is the window's OCE feedback for the online QoA model
    /// (empty when the caller has none).
    fn flush(&self, labels: &[QoaLabel]) -> Option<ClosedWindow> {
        let mut closing = self.closing.lock().ok()?;
        self.close(&mut closing, labels)
    }

    /// One close under the merge lock `closing`: the merge point's
    /// close over the daemon's one node, then the close timing and the
    /// published snapshot. A close that finds a worker gone publishes
    /// every shard degraded, and no close runs after it.
    fn close(&self, closing: &mut Closing, labels: &[QoaLabel]) -> Option<ClosedWindow> {
        if closing.stopped {
            return None;
        }
        let started = Instant::now();
        let (closed, dead) = closing
            .merge
            .close(std::slice::from_ref(&self.node), labels);
        closing.stopped = !dead.is_empty();
        let window_micros = elapsed_micros(started);
        self.pool().counters().last_window_micros.set(window_micros);
        if let Some(m) = self.pool().metrics() {
            m.window_close_micros.observe(window_micros);
        }
        *self.snapshot.write().unwrap_or_else(|e| e.into_inner()) = Some(closed.snapshot.clone());
        closing.last_close = Instant::now();
        Some(closed)
    }

    /// The most recently merged snapshot, if any window closed yet.
    fn latest(&self) -> Option<GovernanceSnapshot> {
        self.snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The tick thread: closes a window once `interval` has passed
    /// since the last close by any caller, so a flush defers the next
    /// tick. Waiting releases the merge lock; shutdown wakes the wait.
    fn tick(&self, interval: Duration) {
        let Ok(mut closing) = self.closing.lock() else {
            return;
        };
        while !closing.stopped {
            let due = closing.last_close + interval;
            let wait = due.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                self.close(&mut closing, &[]);
            } else if let Ok((guard, _)) = self.tick_wake.wait_timeout(closing, wait) {
                closing = guard;
            } else {
                return;
            }
        }
    }
}

/// A daemon's shards, its node's pool: there from the node's start to
/// its drop, because a daemon never kills its node.
fn shards(node: &Node) -> &ShardPool {
    node.pool().expect("a daemon never kills its node")
}

/// A restart runs before the router is shared, so it needs no lock.
impl MergeHolder for Router {
    fn merge_point(&mut self) -> &mut MergePoint {
        let closing = self.closing.get_mut();
        &mut closing.expect("no other thread holds the lock yet").merge
    }

    fn route_recovered(&mut self, alert: Alert) {
        self.route(alert);
    }

    fn close_recovered(&mut self) -> io::Result<()> {
        let gone = || io::Error::other("shard workers died during WAL replay");
        self.flush(&[]).map(drop).ok_or_else(gone)
    }
}

/// A running daemon. Dropping the handle without calling
/// [`IngestdHandle::shutdown`] leaves threads running detached.
#[derive(Debug)]
pub struct IngestdHandle {
    router: Arc<Router>,
    ingest_addr: Option<SocketAddr>,
    status_addr: Option<SocketAddr>,
    recovery: Option<WalRecovery>,
    threads: Vec<JoinHandle<()>>,
}

impl Ingestd {
    /// Starts the daemon: a [`ShardPool`] (see [`ShardPool::spawn`]
    /// for `make_governor`) and, if configured, the tick thread and the
    /// ingress and status listeners.
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
        Self::spawn_with_wal(config, make_governor, None)
    }

    /// [`Ingestd::spawn`] over the write-ahead log in `wal`, restarting
    /// as a cluster does: read the log back, [`Node::start`] over it,
    /// [`MergePoint::restart`] (the sealed windows, the tail, the QoA
    /// model from `wal/qoa.ckpt`), and only then start the tick thread
    /// and bind the listeners. Failed log writes are counted
    /// ([`IngestdHandle::wal_write_errors`]).
    ///
    /// # Errors
    ///
    /// As [`Ingestd::spawn`]; replay and filesystem errors pass
    /// through. The config is validated before the log is wiped.
    pub fn spawn_with_wal(
        config: &IngestdConfig,
        mut make_governor: impl FnMut(usize, usize) -> StreamingGovernor,
        wal: Option<&Path>,
    ) -> io::Result<IngestdHandle> {
        let replayed = wal.map(replay).transpose()?;
        let node = Node::start(config, wal, &mut make_governor)?;
        let pool = shards(&node);

        // The merge point's channel handles live on the pool's registry
        // (deduped by name + labels).
        let streaming = &config.streaming;
        let registry = pool.registry();
        let metrics = pool.metrics();
        let counters = MergeCounters {
            windows_closed: Arc::clone(&pool.counters().windows_closed),
            degraded_windows: Arc::clone(&pool.counters().degraded_windows),
            write_errors: Arc::default(),
            checkpoints_discarded: match streaming.qoa.unless_off() {
                Some(_) => registry.counter(
                    "alertops_qoa_checkpoints_discarded_total",
                    "QoA checkpoint files found damaged at restart (the model started fresh).",
                    &[],
                ),
                None => Arc::default(),
            },
            emerging: metrics.map(|_| EmergingMetrics::register(registry)),
            qoa: metrics.map(|_| QoaMetrics::register(registry)),
            correlation: metrics.map(|_| ReactMetrics::register(registry)),
            merge_timer: metrics.map(|m| Arc::clone(&m.merge_micros)),
        };
        let mut router = Router {
            write_errors: Arc::clone(&counters.write_errors),
            closing: Mutex::new(Closing {
                merge: MergePoint::new(config, wal.map(Path::to_path_buf), counters),
                last_close: Instant::now(),
                stopped: false,
            }),
            node,
            tick_wake: Condvar::new(),
            snapshot: RwLock::new(None),
            running: AtomicBool::new(true),
            chaos: config.chaos,
            shutdown: ShutdownSignal::default(),
            wire: config.wire,
        };

        let mut recovery = replayed.as_ref().map(|replayed| WalRecovery {
            recovered_alerts: replayed.recovered_alerts,
            windows: replayed.windows.len() as u64,
            in_flight: replayed.tail.len() as u64,
            torn_records: replayed.torn_records,
            snapshot: None,
        });
        let (windows, tail) = replayed.map_or_else(Default::default, |r| (r.windows, r.tail));
        MergePoint::restart(&mut router, windows, tail)?;
        if let Some(recovery) = &mut recovery {
            recovery.snapshot = router.latest();
        }

        let router = Arc::new(router);
        let mut threads = Vec::new();
        if let Some(interval) = config.tick {
            let router = Arc::clone(&router);
            threads.push(
                thread::Builder::new()
                    .name("ingestd-tick".to_owned())
                    .spawn(move || router.tick(interval))?,
            );
        }

        let ingest_addr = listen(&config.listen, INGEST, serve_ingress, &router, &mut threads)?;
        let status_addr = listen(&config.status, STATUS, serve_status, &router, &mut threads)?;

        Ok(IngestdHandle {
            router,
            ingest_addr,
            status_addr,
            recovery,
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

    /// What [`Ingestd::spawn_with_wal`] recovered; `None` without a log.
    #[must_use]
    pub fn wal_recovery(&self) -> Option<&WalRecovery> {
        self.recovery.as_ref()
    }

    /// Log appends, seals and QoA checkpoint writes that failed since
    /// startup (0 without a log).
    #[must_use]
    pub fn wal_write_errors(&self) -> u64 {
        self.router.write_errors.get()
    }

    /// Routes one alert directly (no socket); used by in-process
    /// callers such as tests and benches. Applies the same sharding and
    /// overflow policy as TCP ingress.
    pub fn route(&self, alert: Alert) {
        self.router.route(alert);
    }

    /// Closes the current window on every shard, on this thread, and
    /// returns the merged snapshot; `None` once closes have stopped
    /// (shutdown, a worker gone, or a close that panicked).
    pub fn flush(&self) -> Option<GovernanceSnapshot> {
        self.router.flush(&[]).map(|closed| closed.snapshot)
    }

    /// [`flush`](Self::flush) with the window's OCE feedback labels:
    /// the merge point joins them with the merged per-strategy feature
    /// samples and updates the online QoA model. Returns the full
    /// [`ClosedWindow`]: the snapshot plus the verdicts this close
    /// computed, which the next close pushes down.
    pub fn flush_window_labeled(&self, labels: Vec<QoaLabel>) -> Option<ClosedWindow> {
        self.router.flush(&labels)
    }

    /// Drain barrier ([`ShardPool::sync`]). The chaos suite uses it to
    /// pace deterministically; blocks while a shard is stalled.
    pub fn sync(&self) {
        self.router.pool().sync();
    }

    /// Chaos instrumentation: [`ShardPool::inject_panic`].
    pub fn inject_panic(&self, shard: usize, on_close: bool) {
        self.router.pool().inject_panic(shard, on_close);
    }

    /// Chaos instrumentation: [`ShardPool::stall`]. Pair with
    /// [`resume_shard`](Self::resume_shard); a flush while stalled
    /// blocks until resumed. Serves
    /// `tests/determinism.rs::chaos_runs_with_identical_seeds_are_identical`.
    #[doc(hidden)]
    pub fn stall_shard(&self, shard: usize) {
        self.router.pool().stall(shard);
    }

    /// Chaos instrumentation: [`ShardPool::resume`]. Serves
    /// `tests/chaos_ingestd.rs::chaos_matrix_queue_overflow`.
    #[doc(hidden)]
    pub fn resume_shard(&self, shard: usize) {
        self.router.pool().resume(shard);
    }

    /// The most recently merged snapshot, if any window closed yet.
    #[must_use]
    pub fn latest_snapshot(&self) -> Option<GovernanceSnapshot> {
        self.router.latest()
    }

    /// Point-in-time counter values.
    #[must_use]
    pub fn counters(&self) -> CounterSnapshot {
        self.router.pool().counter_snapshot()
    }

    /// The daemon's metric handles, if [`IngestdConfig::metrics`] is
    /// enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<IngestdMetrics>> {
        self.router.pool().metrics()
    }

    /// Renders the Prometheus text exposition: the conservation
    /// counters always, plus every registered stage/governor metric
    /// when metrics are enabled. Same document the status socket
    /// serves for a `metrics` request.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        self.router.pool().render_metrics()
    }

    /// Blocks until some connection sends `{"ctrl":"shutdown"}`.
    pub fn wait_for_shutdown_request(&self) {
        self.router.shutdown.wait();
    }

    /// Stops the daemon: closes first, then the tick and the
    /// listeners, then the workers; joins every thread. Open ingress
    /// connections must be closed by their peers for their detached
    /// handler threads to exit, but this method does not wait for
    /// those; a flush they send from here on is not answered.
    pub fn shutdown(self) {
        self.router.shutdown.request();
        self.router.running.store(false, Ordering::Release);

        // Stop closing: taking the merge lock waits out a close in
        // flight, and the tick thread wakes to find it stopped.
        if let Ok(mut closing) = self.router.closing.lock() {
            closing.stopped = true;
        }
        self.router.tick_wake.notify_all();

        // Wake the accept loops so they observe `running == false`.
        for addr in [self.ingest_addr, self.status_addr].into_iter().flatten() {
            let _ = TcpStream::connect(addr);
        }

        for handle in self.threads {
            let _ = handle.join();
        }

        // The pool stops and joins its workers once the router's last
        // holder lets go: the tick and the accept loops just did, so
        // that is here unless a connection is still open.
        drop(self.router);
    }
}

/// Binds `addr`, if one is configured, and serves it from an accept
/// loop thread named `names[0]`: one detached handler thread, named
/// `names[1]`, per connection, so a slow peer cannot block the next.
fn listen(
    addr: &Option<String>,
    names: [&'static str; 2],
    serve: fn(&TcpStream, &Router),
    router: &Arc<Router>,
    threads: &mut Vec<JoinHandle<()>>,
) -> io::Result<Option<SocketAddr>> {
    let Some(addr) = addr else { return Ok(None) };
    let listener = TcpListener::bind(addr.as_str())?;
    let local = listener.local_addr()?;
    let router = Arc::clone(router);
    let accept = move || {
        for stream in listener.incoming() {
            if !router.running.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let router = Arc::clone(&router);
            let _ = thread::Builder::new()
                .name(names[1].to_owned())
                .spawn(move || serve(&stream, &router));
        }
    };
    threads.push(
        thread::Builder::new()
            .name(names[0].to_owned())
            .spawn(accept)?,
    );
    Ok(Some(local))
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
    /// ingress stream's. The decoder is boxed so an NDJSON connection
    /// does not carry room for two string tables.
    Binary {
        decoder: Box<WireDecoder>,
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
                decoder: Box::new(WireDecoder::new()),
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
fn serve_ingress(stream: &TcpStream, router: &Router) {
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
    router: &Router,
    codec: &mut IngressCodec,
    writer: &mut impl Write,
) -> bool {
    match item {
        Ok(frame) => {
            if let Some(metrics) = router.pool().metrics() {
                metrics.frames_decoded.inc();
            }
            handle_frame(frame, router, |ack| codec.write_ack(ack, writer).is_ok())
        }
        Err(reason) => {
            if let Some(metrics) = router.pool().metrics() {
                metrics.frames_rejected.inc();
            }
            router.pool().counters().quarantine(reason);
            !codec.decode_error_is_terminal()
        }
    }
}

/// Applies one ingress frame, answering through `ack` (`false` from
/// it: the peer is gone); `false` ends the connection. Frame kinds
/// that only exist for WAL segments, the cluster's checkpoint file or
/// the ack lane are quarantined as unknown controls.
fn handle_frame(frame: Frame, router: &Router, mut ack: impl FnMut(AckFrame) -> bool) -> bool {
    match frame {
        Frame::Alert(alert) => router.route(*alert),
        Frame::Flush => {
            if let Some(closed) = router.flush(&[]) {
                let snapshot = closed.snapshot;
                return ack(AckFrame::Flush {
                    window: snapshot.window_index,
                    alerts: snapshot.alert_count as u64,
                });
            }
        }
        Frame::Sync => {
            router.pool().sync();
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
                    ChaosCmd::Panic { on_close, .. } => router.pool().inject_panic(shard, on_close),
                    ChaosCmd::Stall { .. } => {
                        router.pool().stall(shard);
                        return ack(AckFrame::Stall { shard });
                    }
                    ChaosCmd::Resume { .. } => router.pool().resume(shard),
                }
            }
        }
        Frame::Boundary { .. } | Frame::Ack(_) | Frame::QoaState(_) => {
            router
                .pool()
                .counters()
                .quarantine(QuarantineReason::UnknownControl);
        }
    }
    true
}

/// Gate for wire-level chaos frames: chaos mode must be enabled and
/// the shard in range; otherwise the frame is quarantined as an
/// unknown control and ignored.
fn chaos_target(router: &Router, shard: usize) -> bool {
    if router.chaos && shard < router.pool().shards() {
        true
    } else {
        router
            .pool()
            .counters()
            .quarantine(QuarantineReason::UnknownControl);
        false
    }
}

/// One status connection: read the optional request line, serve the
/// selected document, close. See [`crate::status`] for the protocol.
fn serve_status(stream: &TcpStream, router: &Router) {
    let pool = router.pool();
    let request = read_status_request(stream);
    let mut writer = stream;
    match request {
        StatusRequest::Status => {
            let report = StatusReport {
                counters: pool.counter_snapshot(),
                snapshot: router.latest(),
            };
            let _ = writeln!(writer, "{}", report.to_json());
        }
        StatusRequest::Metrics => {
            let _ = writer.write_all(pool.render_metrics().as_bytes());
        }
        StatusRequest::Healthz => {
            // Liveness must stay cheap: two atomic loads and one small
            // write, no JSON, no snapshot clone. The counters give a
            // probe something monotone to watch.
            let counters = pool.counters();
            let windows = counters.windows_closed.get();
            let ingested = counters.ingested.get();
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
    use crate::shard_catalog;
    use alertops_core::{AlertGovernor, ChannelMode, GovernorConfig, StreamingConfig};
    use alertops_sim::{scenarios, SimOutput};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alertops-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spawn_over(dir: &Path, out: &SimOutput) -> IngestdHandle {
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
        let out = scenarios::quickstart(7).run();
        let handle = spawn_over(&dir, &out);
        // The disk goes away under the open log: sealing the window
        // cannot create the next segment.
        std::fs::remove_dir_all(&dir).unwrap();
        handle.flush().expect("the close itself completes");
        assert_eq!(handle.wal_write_errors(), 1);
        handle.shutdown();
    }

    fn spawn_empty(config: &IngestdConfig) -> IngestdHandle {
        Ingestd::spawn(config, |_, _| {
            StreamingGovernor::new(
                AlertGovernor::new(Vec::new(), GovernorConfig::default()),
                StreamingConfig::default(),
            )
        })
        .expect("daemon starts")
    }

    /// The RSS gauge is sampled by the scrape, not by a window close:
    /// a scrape before any close already carries it.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_scrape_before_any_close_carries_the_rss() {
        let handle = spawn_empty(&IngestdConfig::default());
        let text = handle.render_metrics();
        let rss: u64 = text
            .lines()
            .find_map(|line| line.strip_prefix("alertops_process_rss_bytes "))
            .expect("the gauge is exposed")
            .parse()
            .expect("a whole number of bytes");
        assert!(rss > 0, "{text}");
        handle.shutdown();
    }

    /// The merge point records one AO-LDA pass and one QoA model
    /// update per close, on the pool's registry.
    #[test]
    fn each_close_observes_one_aolda_pass_and_one_qoa_update() {
        let out = scenarios::quickstart(7).run();
        let mut streaming = StreamingConfig::default();
        streaming.emerging.mode = ChannelMode::Forward;
        streaming.qoa.mode = ChannelMode::Forward;
        let config = IngestdConfig {
            shards: 2,
            streaming,
            ..IngestdConfig::default()
        };
        let handle = Ingestd::spawn(&config, |shard, shards| {
            let catalog = shard_catalog(out.catalog.strategies(), shards, shard);
            StreamingGovernor::new(
                AlertGovernor::new(catalog, GovernorConfig::default()),
                StreamingConfig::default(),
            )
        })
        .expect("daemon starts");
        let windows = 3;
        for window in out.alerts.chunks(40).take(windows) {
            window.iter().cloned().for_each(|alert| handle.route(alert));
            let strategies: std::collections::BTreeSet<_> =
                window.iter().map(Alert::strategy).collect();
            let labels = strategies
                .into_iter()
                .map(|id| QoaLabel::new(id, [id.0 % 2 == 0; 3]))
                .collect();
            let closed = handle.flush_window_labeled(labels).expect("the close runs");
            assert!(closed.snapshot.emerging.is_some() && closed.snapshot.qoa.is_some());
            assert!(closed.verdicts.is_some());
        }
        let text = handle.render_metrics();
        for family in [
            "alertops_qoa_update_micros",
            "alertops_emerging_window_micros",
            "alertops_merge_micros",
        ] {
            assert!(
                text.contains(&format!("{family}_count {windows}\n")),
                "{family}"
            );
        }
        handle.shutdown();
    }

    /// Besides its shard workers the daemon starts a thread only for
    /// what it is configured with: a tick and each listener. Closes run
    /// on their callers.
    #[test]
    fn only_a_tick_and_listeners_get_threads() {
        let bare = spawn_empty(&IngestdConfig::default());
        assert!(bare.threads.is_empty());
        assert_eq!(bare.flush().map(|s| s.window_index), Some(0));
        bare.shutdown();

        let full = spawn_empty(&IngestdConfig {
            tick: Some(Duration::from_secs(3_600)),
            listen: Some("127.0.0.1:0".to_owned()),
            status: Some("127.0.0.1:0".to_owned()),
            ..IngestdConfig::default()
        });
        let names: Vec<_> = full.threads.iter().map(|t| t.thread().name()).collect();
        let want = ["ingestd-tick", "ingestd-ingress", "ingestd-status"];
        assert_eq!(names, want.map(Some));
        full.shutdown();
    }

    /// A close that panicked may have left the merge point half
    /// updated, so a poisoned merge lock stops the daemon's closes.
    /// Shutdown cannot set `stopped` under it, so its join of the tick
    /// thread returning shows the tick read the poison as stopped too.
    #[test]
    fn a_poisoned_merge_lock_reads_as_stopped() {
        let handle = spawn_empty(&IngestdConfig {
            tick: Some(Duration::from_millis(1)),
            ..IngestdConfig::default()
        });
        let router = Arc::clone(&handle.router);
        alertops_chaos::silence_panics_containing("a close panics halfway");
        let panicked = thread::spawn(move || {
            let _merge = router.closing.lock();
            panic!("a close panics halfway");
        })
        .join();
        assert!(panicked.is_err());
        assert!(handle.flush().is_none());
        handle.shutdown();
    }

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
