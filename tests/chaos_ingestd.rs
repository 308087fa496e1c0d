//! The chaos scenario matrix for `alertops-ingestd`: every fault kind
//! in `alertops-chaos`, crossed with both overflow policies and both
//! shard counts, driven over real TCP against a live daemon.
//!
//! The oracle is exact accounting, not survival vibes. The driver
//! keeps a model of what each injected fault is allowed to cost: which
//! alerts the daemon must still acknowledge, which are lost at the
//! transport (quarantined) or to a crashed worker (dropped), and which
//! shards must appear in `GovernanceSnapshot::degraded`. After every
//! window the merged snapshot must equal the fault-free batch oracle
//! fed exactly the modeled survivors over the whole catalog, triage
//! included, and at the end of every
//! cell `ingested == delivered + dropped + quarantined` must hold to
//! the unit. Every assertion names the seed that replays it; export
//! `CHAOS_SEED=<seed>` to pin a run.

mod common;

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use alertops::chaos::{
    garble_frame, seed_from_env, silence_panics_containing, truncate_frame, ChaosConfig, ChaosKind,
    ChaosRng, ChaosSchedule,
};
use alertops::core::prelude::*;
use alertops::ingestd::codec::{ack_line, encode_alert};
use alertops::ingestd::{
    shard_of, IngestdConfig, IngestdHandle, IngressClient, OverflowPolicy, WireFormat,
    CHAOS_PANIC_MSG, SYNC_FRAME,
};
use alertops::sim::scenarios;
use alertops::wire::{AckFrame, Frame, WireDecoder, WireEncoder};

use common::{full_catalog, repeater_alerts, repeater_strategy, BatchSide, Case, Faults, REPEATER};

/// Default base seed; `CHAOS_SEED` overrides it (see `seed_from_env`).
const BASE_SEED: u64 = 0xA1E7_0005_C4A0_05ED;
/// Shard queue capacity in queue-overflow cells (tiny on purpose).
const OVERFLOW_QUEUE: usize = 8;
/// Alerts per queue-overflow burst; must exceed [`OVERFLOW_QUEUE`].
const BURST_LEN: usize = 24;
/// Trace length per cell: three windows of 120.
const TRACE_LEN: usize = 360;

/// The scenario trace every cell replays: the quickstart simulation
/// plus the injected repeater, time-sorted, capped at [`TRACE_LEN`].
fn chaos_trace() -> (Vec<AlertStrategy>, Vec<Alert>) {
    let out = scenarios::quickstart(7).run();
    let strategies = full_catalog(&out);
    let mut trace = out.alerts.clone();
    trace.extend(repeater_alerts());
    trace.sort_by_key(|a| (a.raised_at(), a.id()));
    trace.truncate(TRACE_LEN);
    assert_eq!(
        trace.len(),
        TRACE_LEN,
        "quickstart trace shorter than expected"
    );
    (strategies, trace)
}

/// One NDJSON producer connection (write frames, read acks).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect to ingress");
        let reader = BufReader::new(writer.try_clone().expect("clone socket"));
        Conn { reader, writer }
    }

    fn send(&mut self, frame: &[u8]) {
        self.writer.write_all(frame).expect("write frame");
        self.writer.write_all(b"\n").expect("write newline");
    }

    fn read_ack(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read ack line");
        line.trim().to_owned()
    }

    /// Drain barrier over the wire: everything sent on this connection
    /// before the call has been consumed by its shard worker after it.
    fn sync(&mut self) {
        self.send(SYNC_FRAME.as_bytes());
        assert_eq!(self.read_ack(), ack_line(&AckFrame::Sync));
    }
}

/// What the daemon is allowed to cost so far, updated fault by fault.
struct Model {
    shards: usize,
    /// Complete alert frames handed to the router (wire or burst).
    routed: u64,
    q_invalid_json: u64,
    q_invalid_utf8: u64,
    dropped: u64,
    restarts: u64,
    delivered: u64,
    degraded_windows: u64,
    backpressure_events: u64,
    /// Alerts routed this window that should survive to its close.
    pending: Vec<Alert>,
    /// Shards whose next window close must panic (armed poison).
    poisoned: BTreeSet<usize>,
    /// Shards that must be listed degraded at this window's close.
    degraded: BTreeSet<usize>,
}

impl Model {
    fn new(shards: usize) -> Self {
        Model {
            shards,
            routed: 0,
            q_invalid_json: 0,
            q_invalid_utf8: 0,
            dropped: 0,
            restarts: 0,
            delivered: 0,
            degraded_windows: 0,
            backpressure_events: 0,
            pending: Vec::new(),
            poisoned: BTreeSet::new(),
            degraded: BTreeSet::new(),
        }
    }

    fn quarantined(&self) -> u64 {
        self.q_invalid_json + self.q_invalid_utf8
    }

    /// Removes this window's pending alerts belonging to `shard` (they
    /// died with its worker) and returns how many were lost.
    fn drop_pending_for(&mut self, shard: usize) -> u64 {
        let before = self.pending.len();
        self.pending
            .retain(|a| shard_of(a.strategy(), self.shards) != shard);
        (before - self.pending.len()) as u64
    }
}

fn poll_until(what: &str, ctx: &str, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ok() {
        assert!(
            Instant::now() < deadline,
            "{ctx}: timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One matrix cell: a live daemon, a producer connection, the model,
/// and the fault-free batch side it is compared against.
struct CellDriver {
    ctx: String,
    addr: SocketAddr,
    conn: Conn,
    handle: IngestdHandle,
    model: Model,
    batch: BatchSide,
    rng: ChaosRng,
    overflow: OverflowPolicy,
}

impl CellDriver {
    /// Applies one scheduled fault just before trace position
    /// `position`; returns whether the alert at that position should
    /// still be delivered normally afterwards.
    fn apply_event(&mut self, kind: ChaosKind, position: usize, alert: &Alert) -> bool {
        match kind {
            ChaosKind::ConnectionReset => {
                // Half a frame, then a dead socket: the daemon must
                // quarantine the partial line (FrameDecoder::finish)
                // and keep every complete frame sent before it.
                let partial = truncate_frame(&encode_alert(alert), &mut self.rng);
                self.conn
                    .writer
                    .write_all(&partial)
                    .expect("write partial frame");
                self.conn = Conn::open(self.addr);
                self.model.q_invalid_json += 1;
                let want_ingested = self.model.routed + self.model.quarantined();
                let want_quarantined = self.model.quarantined();
                let handle = &self.handle;
                poll_until("reset quarantine", &self.ctx, || {
                    let c = handle.counters();
                    c.ingested == want_ingested && c.decode_errors == want_quarantined
                });
                true // the producer resends the alert whole
            }
            ChaosKind::TruncatedFrame => {
                self.conn
                    .send(&truncate_frame(&encode_alert(alert), &mut self.rng));
                self.model.q_invalid_json += 1;
                false // lost at the transport
            }
            ChaosKind::CorruptFrame => {
                self.conn
                    .send(&garble_frame(&encode_alert(alert), &mut self.rng));
                self.model.q_invalid_utf8 += 1;
                false // lost at the transport
            }
            ChaosKind::SlowConsumer { millis } => {
                std::thread::sleep(Duration::from_millis(millis));
                self.conn.sync(); // liveness probe: the daemon still answers
                true
            }
            ChaosKind::WorkerPanic { shard } => {
                self.conn
                    .send(format!(r#"{{"ctrl":"panic","shard":{shard}}}"#).as_bytes());
                self.model.restarts += 1;
                let lost = self.model.drop_pending_for(shard);
                self.model.dropped += lost;
                self.model.degraded.insert(shard);
                true
            }
            ChaosKind::WorkerPanicOnClose { shard } => {
                self.conn.send(
                    format!(r#"{{"ctrl":"panic","shard":{shard},"on_close":true}}"#).as_bytes(),
                );
                self.model.poisoned.insert(shard);
                true
            }
            ChaosKind::QueueOverflow { shard: _, burst } => {
                self.overflow_storm(position, alert, burst);
                true
            }
            // Node-level kinds target a cluster, not a single daemon;
            // this matrix never schedules them (node-fault counts are
            // zero in its ChaosConfig). See tests/cluster.rs.
            ChaosKind::NodeKill { .. }
            | ChaosKind::NodeRejoin { .. }
            | ChaosKind::WalTruncate { .. } => true,
        }
    }

    /// Parks a worker, slams a burst at its full queue, and models the
    /// outcome per overflow policy. The storm targets the shard of the
    /// alert at this position — a shard that demonstrably owns catalog
    /// strategies — rather than the schedule's blind draw.
    fn overflow_storm(&mut self, position: usize, alert: &Alert, burst: usize) {
        let target = shard_of(alert.strategy(), self.model.shards);
        self.conn
            .send(format!(r#"{{"ctrl":"stall","shard":{target}}}"#).as_bytes());
        assert_eq!(
            self.conn.read_ack(),
            ack_line(&AckFrame::Stall { shard: target }),
            "{}: stall ack",
            self.ctx
        );
        // Stall acked: the worker is parked and its queue is empty.
        let burst_alerts: Vec<Alert> = (0..burst)
            .map(|k| {
                Alert::builder(
                    AlertId(5_000_000 + (position as u64) * 1_000 + k as u64),
                    alert.strategy(),
                )
                .title("chaos overflow burst probe")
                .raised_at(alert.raised_at())
                .build()
            })
            .collect();
        for b in &burst_alerts {
            self.conn.send(encode_alert(b).as_bytes());
        }
        self.model.routed += burst as u64;
        match self.overflow {
            OverflowPolicy::Drop => {
                // In-band resume: the connection handler routes the
                // whole burst (worker parked, queue at capacity
                // OVERFLOW_QUEUE) before it reaches the resume frame,
                // so exactly the first `capacity` alerts survive.
                self.conn
                    .send(format!(r#"{{"ctrl":"resume","shard":{target}}}"#).as_bytes());
                self.conn.sync();
                let kept = OVERFLOW_QUEUE.min(burst);
                self.model
                    .pending
                    .extend(burst_alerts[..kept].iter().cloned());
                self.model.dropped += (burst - kept) as u64;
            }
            OverflowPolicy::Block => {
                // The handler blocks inside route() once the queue
                // fills, so resume must come out of band — but only
                // after backpressure demonstrably engaged.
                let waits_before = self.handle.counters().backpressure_waits;
                let handle = &self.handle;
                poll_until("backpressure to engage", &self.ctx, || {
                    handle.counters().backpressure_waits > waits_before
                });
                self.handle.resume_shard(target);
                self.conn.sync();
                self.model.pending.extend(burst_alerts.iter().cloned());
                self.model.backpressure_events += 1;
            }
        }
    }

    /// Closes the window on the daemon and checks it against the
    /// fault-free batch side fed the modeled survivors.
    fn close_window(&mut self) {
        self.conn.sync();
        // Armed close-poisons fire inside this close: the poisoned
        // shard loses its whole window and restarts.
        for shard in std::mem::take(&mut self.model.poisoned) {
            self.model.restarts += 1;
            let lost = self.model.drop_pending_for(shard);
            self.model.dropped += lost;
            self.model.degraded.insert(shard);
        }
        // Settle quarantines from connections the driver abandoned.
        let want_ingested = self.model.routed + self.model.quarantined();
        let want_quarantined = self.model.quarantined();
        let handle = &self.handle;
        poll_until("ingress settlement", &self.ctx, || {
            let c = handle.counters();
            c.ingested == want_ingested && c.decode_errors == want_quarantined
        });

        let snapshot = self.handle.flush().expect("flush yields a snapshot");
        let window = std::mem::take(&mut self.model.pending);

        let degraded: Vec<usize> = self.model.degraded.iter().copied().collect();
        assert_eq!(snapshot.degraded, degraded, "{}: degraded shards", self.ctx);
        assert_eq!(
            snapshot.alert_count,
            window.len(),
            "{}: window alert count",
            self.ctx
        );
        self.batch.assert_window(
            &format!(
                "{}: merged snapshot against the fault-free batch side",
                self.ctx
            ),
            &window,
            &snapshot,
            Faults::Injected,
        );

        self.model.delivered += window.len() as u64;
        if !degraded.is_empty() {
            self.model.degraded_windows += 1;
        }
        self.model.degraded.clear();
    }

    /// Final exact accounting, then clean shutdown.
    fn finish(self) {
        let CellDriver {
            ctx,
            conn,
            handle,
            model,
            overflow,
            ..
        } = self;
        // The daemon joins its workers on shutdown, and workers only
        // exit once every routing handle is gone — close ours first.
        drop(conn);
        let ctx = &ctx;
        let model = &model;
        let counters = handle.counters();
        assert!(
            counters.is_conserved(),
            "{ctx}: conservation law violated: {counters:?}"
        );
        assert_eq!(
            counters.ingested,
            model.routed + model.quarantined(),
            "{ctx}: ingested"
        );
        assert_eq!(counters.delivered, model.delivered, "{ctx}: delivered");
        assert_eq!(counters.dropped, model.dropped, "{ctx}: dropped");
        assert_eq!(
            counters.decode_errors,
            model.quarantined(),
            "{ctx}: quarantined"
        );
        assert_eq!(
            counters.quarantined_invalid_json, model.q_invalid_json,
            "{ctx}: invalid-json quarantine"
        );
        assert_eq!(
            counters.quarantined_invalid_utf8, model.q_invalid_utf8,
            "{ctx}: invalid-utf8 quarantine"
        );
        assert_eq!(counters.quarantined_unknown_control, 0, "{ctx}");
        assert_eq!(counters.windows_closed, 3, "{ctx}: windows closed");
        assert_eq!(counters.shard_restarts, model.restarts, "{ctx}: restarts");
        assert_eq!(
            counters.degraded_windows, model.degraded_windows,
            "{ctx}: degraded windows"
        );
        match overflow {
            OverflowPolicy::Block => assert!(
                counters.backpressure_waits >= model.backpressure_events,
                "{ctx}: backpressure never engaged: {counters:?}"
            ),
            OverflowPolicy::Drop => assert_eq!(
                counters.backpressure_waits, 0,
                "{ctx}: drop policy must never block"
            ),
        }
        handle.shutdown();
    }
}

/// Schedule exactly two events of the cell's kind over the trace.
fn cell_chaos_config(label: &str, trace_len: usize, shards: usize) -> ChaosConfig {
    let mut config = ChaosConfig {
        trace_len,
        shards,
        resets: 0,
        truncations: 0,
        corruptions: 0,
        stalls: 0,
        panics: 0,
        close_panics: 0,
        overflows: 0,
        burst_len: BURST_LEN,
        ..ChaosConfig::default()
    };
    match label {
        "connection_reset" => config.resets = 2,
        "truncated_frame" => config.truncations = 2,
        "corrupt_frame" => config.corruptions = 2,
        "slow_consumer" => config.stalls = 2,
        "worker_panic" => config.panics = 2,
        "worker_panic_on_close" => config.close_panics = 2,
        "queue_overflow" => config.overflows = 2,
        other => panic!("unknown chaos cell kind {other}"),
    }
    config
}

/// Derives the cell's seed from the base seed, the fault kind, and the
/// cell's position in the matrix — stable across runs, distinct across
/// cells.
fn cell_seed(base: u64, label: &str, cell: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for byte in label.bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    ChaosRng::new(base ^ h ^ (cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

fn run_cell(
    strategies: &[AlertStrategy],
    trace: &[Alert],
    label: &'static str,
    overflow: OverflowPolicy,
    shards: usize,
    seed: u64,
) {
    silence_panics_containing(CHAOS_PANIC_MSG);
    let ctx = format!("cell {label}/{overflow:?}/{shards}-shard (seed {seed})");
    let schedule = ChaosSchedule::generate(seed, &cell_chaos_config(label, trace.len(), shards));
    assert_eq!(schedule.len(), 2, "{ctx}: two events per cell");
    let is_overflow = label == "queue_overflow";

    let config = IngestdConfig {
        shards,
        queue_capacity: if is_overflow { OVERFLOW_QUEUE } else { 4096 },
        overflow,
        chaos: true,
        listen: Some("127.0.0.1:0".to_owned()),
        ..IngestdConfig::default()
    };
    let handle = Case::new(strategies.to_vec()).daemon(config, None);
    let addr = handle.ingest_addr().expect("ingress bound");
    let mut driver = CellDriver {
        ctx,
        addr,
        conn: Conn::open(addr),
        handle,
        model: Model::new(shards),
        batch: BatchSide::new(&Case::new(strategies.to_vec())),
        rng: ChaosRng::new(seed ^ 0xC0FF_EE00_D15E_A5ED),
        overflow,
    };

    let bounds = [trace.len() / 3, 2 * trace.len() / 3, trace.len()];
    for (i, alert) in trace.iter().enumerate() {
        let mut deliver = true;
        for event in schedule.events_at(i) {
            deliver &= driver.apply_event(event.kind, i, alert);
        }
        if deliver {
            driver.conn.send(encode_alert(alert).as_bytes());
            driver.model.routed += 1;
            driver.model.pending.push(alert.clone());
        }
        // Tiny queues need pacing so only the injected storm overflows.
        if is_overflow && i % 4 == 3 {
            driver.conn.sync();
        }
        if bounds.contains(&(i + 1)) {
            driver.close_window();
        }
    }
    driver.finish();
}

/// Runs one fault kind across {Block, Drop} x {1, 4 shards}.
fn run_matrix(label: &'static str) {
    let (strategies, trace) = chaos_trace();
    let base = seed_from_env(BASE_SEED);
    let cells = [
        (OverflowPolicy::Block, 1),
        (OverflowPolicy::Block, 4),
        (OverflowPolicy::Drop, 1),
        (OverflowPolicy::Drop, 4),
    ];
    for (cell, (overflow, shards)) in cells.into_iter().enumerate() {
        let seed = cell_seed(base, label, cell);
        run_cell(&strategies, &trace, label, overflow, shards, seed);
    }
}

#[test]
fn chaos_matrix_connection_reset() {
    run_matrix("connection_reset");
}

#[test]
fn chaos_matrix_truncated_frame() {
    run_matrix("truncated_frame");
}

#[test]
fn chaos_matrix_corrupt_frame() {
    run_matrix("corrupt_frame");
}

#[test]
fn chaos_matrix_slow_consumer() {
    run_matrix("slow_consumer");
}

#[test]
fn chaos_matrix_worker_panic() {
    run_matrix("worker_panic");
}

#[test]
fn chaos_matrix_worker_panic_on_close() {
    run_matrix("worker_panic_on_close");
}

#[test]
fn chaos_matrix_queue_overflow() {
    run_matrix("queue_overflow");
}

/// The ISSUE's end-to-end acceptance check, stated explicitly: a panic
/// mid-window restarts the shard, degrades exactly that window's
/// snapshot, and the next window is clean again.
#[test]
fn mid_window_panic_degrades_one_window_then_recovers() {
    silence_panics_containing(CHAOS_PANIC_MSG);
    let shards = 4;
    let target = shard_of(REPEATER, shards);
    let config = IngestdConfig {
        shards,
        chaos: true,
        listen: Some("127.0.0.1:0".to_owned()),
        ..IngestdConfig::default()
    };
    let handle = Case::new(vec![repeater_strategy()]).daemon(config, None);
    let mut conn = Conn::open(handle.ingest_addr().expect("ingress bound"));
    let alerts = repeater_alerts();

    // Window 0: clean.
    for alert in &alerts[..20] {
        conn.send(encode_alert(alert).as_bytes());
    }
    conn.sync();
    let snap0 = handle.flush().expect("window 0 closes");
    assert!(snap0.degraded.is_empty(), "window 0 must be clean");
    assert_eq!(snap0.alert_count, 20);

    // Window 1: ten alerts, a panic, ten more. The first ten die with
    // the worker; the supervisor restarts it in time for the rest.
    for alert in &alerts[20..30] {
        conn.send(encode_alert(alert).as_bytes());
    }
    conn.send(format!(r#"{{"ctrl":"panic","shard":{target}}}"#).as_bytes());
    for alert in &alerts[30..40] {
        conn.send(encode_alert(alert).as_bytes());
    }
    conn.sync();
    let snap1 = handle.flush().expect("window 1 closes");
    assert_eq!(
        snap1.degraded,
        vec![target],
        "the crashed shard must be reported degraded"
    );
    assert_eq!(
        snap1.alert_count, 10,
        "only post-restart alerts survive the window"
    );

    // Window 2: clean again — degradation must not persist.
    for alert in &alerts[40..60] {
        conn.send(encode_alert(alert).as_bytes());
    }
    conn.sync();
    let snap2 = handle.flush().expect("window 2 closes");
    assert!(snap2.degraded.is_empty(), "degradation must not persist");
    assert_eq!(snap2.alert_count, 20);

    let counters = handle.counters();
    assert_eq!(counters.shard_restarts, 1);
    assert_eq!(counters.dropped, 10);
    assert_eq!(counters.delivered, 50);
    assert_eq!(counters.degraded_windows, 1);
    assert!(counters.is_conserved(), "{counters:?}");
    drop(conn);
    handle.shutdown();
}

/// The same shard panics inside two consecutive closes: both times the
/// supervisor rolls the governor back to the one commit it has (the
/// clean window 0), publishes an empty degraded delta, and loses
/// exactly that shard's share of the window. The window after is clean
/// and — like every window here — equals the fault-free oracle fed the
/// survivors, so nothing of either half-applied window leaked into the
/// rebuilt history.
#[test]
fn consecutive_close_panics_roll_back_to_the_same_commit() {
    silence_panics_containing(CHAOS_PANIC_MSG);
    let (strategies, trace) = chaos_trace();
    let shards = 2;
    let target = shard_of(REPEATER, shards);
    let config = IngestdConfig {
        shards,
        chaos: true,
        listen: Some("127.0.0.1:0".to_owned()),
        ..IngestdConfig::default()
    };
    let handle = Case::new(strategies.to_vec()).daemon(config, None);
    let addr = handle.ingest_addr().expect("ingress bound");
    let mut driver = CellDriver {
        ctx: format!("two close panics on shard {target}"),
        addr,
        conn: Conn::open(addr),
        handle,
        model: Model::new(shards),
        batch: BatchSide::new(&Case::new(strategies.clone())),
        rng: ChaosRng::new(0),
        overflow: OverflowPolicy::Block,
    };

    for (index, window) in trace.chunks(TRACE_LEN / 4).enumerate() {
        for alert in window {
            driver.conn.send(encode_alert(alert).as_bytes());
            driver.model.routed += 1;
            driver.model.pending.push(alert.clone());
        }
        let poisoned = index == 1 || index == 2;
        if poisoned {
            let kind = ChaosKind::WorkerPanicOnClose { shard: target };
            driver.apply_event(kind, 0, &window[0]);
        }
        let dropped_before = driver.model.dropped;
        driver.close_window();
        assert_eq!(
            driver.model.dropped > dropped_before,
            poisoned,
            "window {index}: the target shard must own alerts in every window"
        );
    }

    let counters = driver.handle.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!(counters.windows_closed, 4);
    assert_eq!(counters.shard_restarts, 2);
    assert_eq!(counters.degraded_windows, 2);
    assert_eq!(counters.dropped, driver.model.dropped);
    assert_eq!(counters.delivered, driver.model.delivered);
    drop(driver.conn);
    driver.handle.shutdown();
}

/// Without `chaos: true`, fault-injection frames are inert: they are
/// quarantined as unknown controls and the daemon keeps serving.
#[test]
fn chaos_frames_are_quarantined_when_chaos_mode_is_off() {
    let config = IngestdConfig {
        shards: 2,
        listen: Some("127.0.0.1:0".to_owned()),
        ..IngestdConfig::default()
    };
    let handle = Case::new(vec![repeater_strategy()]).daemon(config, None);
    let mut conn = Conn::open(handle.ingest_addr().expect("ingress bound"));

    conn.send(br#"{"ctrl":"panic","shard":0}"#);
    conn.send(br#"{"ctrl":"stall","shard":0}"#);
    conn.send(br#"{"ctrl":"resume","shard":0}"#);
    conn.send(br#"{"ctrl":"warp","shard":1}"#);
    conn.sync();
    let counters = handle.counters();
    assert_eq!(counters.quarantined_unknown_control, 4);
    assert_eq!(counters.ingested, 4, "quarantines count as ingested");
    assert_eq!(counters.shard_restarts, 0, "no worker may have crashed");

    // And the daemon still serves real traffic afterwards.
    conn.send(encode_alert(&repeater_alerts()[0]).as_bytes());
    conn.sync();
    assert_eq!(handle.counters().ingested, 5);
    let snapshot = handle.flush().expect("window closes");
    assert_eq!(snapshot.alert_count, 1, "the real alert got through");
    assert!(handle.counters().is_conserved());
    drop(conn);
    handle.shutdown();
}

/// Hostile bytes on the binary wire — seeded byte soup and bit-flipped
/// valid frames — over several connections into a live 2-shard daemon.
/// The ingress path runs closes on its own threads, so a panic there
/// could poison the merge lock; instead each stream's good prefix is
/// routed, its first bad frame quarantined, no worker restarts, every
/// alert is accounted, and the windows after equal the socketless
/// batch side.
#[test]
fn hostile_binary_bytes_leave_a_live_daemon_exact() {
    const CONNECTIONS: usize = 12;
    const FRAMES: usize = 10;
    const CLEAN_WINDOW: usize = 120;
    let (strategies, trace) = chaos_trace();
    let seed = cell_seed(seed_from_env(BASE_SEED), "hostile_bytes", 0);
    let ctx = format!("hostile bytes (seed {seed})");
    let mut rng = ChaosRng::new(seed);
    let config = IngestdConfig {
        shards: 2,
        wire: WireFormat::Binary,
        listen: Some("127.0.0.1:0".to_owned()),
        ..IngestdConfig::default()
    };
    let handle = Case::new(strategies.to_vec()).daemon(config, None);
    let addr = handle.ingest_addr().expect("ingress bound");

    let (hostile, rest) = trace.split_at(CONNECTIONS * FRAMES);
    let clean = &rest[..CLEAN_WINDOW];
    let mut routed = Vec::new();
    let mut quarantined = 0u64;
    for (conn, alerts) in hostile.chunks(FRAMES).enumerate() {
        let bytes: Vec<u8> = if conn % 2 == 0 {
            let len = rng.range_usize(1, 512);
            (0..len).map(|_| rng.next_u64() as u8).collect()
        } else {
            let mut encoder = WireEncoder::new();
            let mut bytes = Vec::new();
            for alert in alerts {
                encoder.encode_alert_into(alert, &mut bytes);
            }
            for _ in 0..rng.range_usize(1, 4) {
                let bit = rng.range_usize(0, bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            bytes
        };
        // What the daemon must make of the stream: a fresh decoder's
        // frames up to the first error, and that error.
        let mut decoder = WireDecoder::new();
        let mut items = decoder.feed(&bytes);
        items.extend(decoder.finish().map(Err));
        for item in items {
            match item {
                Ok(Frame::Alert(alert)) => routed.push(*alert),
                Ok(other) => panic!("{ctx}: connection {conn} decodes to {other:?}"),
                Err(_) => quarantined += 1,
            }
        }
        // The daemon may hang up at the first bad frame; what it has
        // not read by then does not count.
        let _ = TcpStream::connect(addr)
            .expect("connect to ingress")
            .write_all(&bytes);
    }
    assert!(
        quarantined >= (CONNECTIONS / 2) as u64,
        "{ctx}: every soup stream is bad"
    );
    let want_ingested = routed.len() as u64 + quarantined;
    poll_until("hostile streams to settle", &ctx, || {
        let c = handle.counters();
        c.ingested == want_ingested && c.decode_errors == quarantined
    });

    // The hostile streams' good prefixes close as one window, then a
    // clean connection sends one window and its flush.
    // No worker restarts here, so `degraded` is compared too.
    let mut batch = BatchSide::new(&Case::new(strategies.clone()));
    let hostile_window = handle.flush().expect("hostile window closes");
    let what = format!("{ctx}: hostile window");
    batch.assert_window(&what, &routed, &hostile_window, Faults::None);
    let mut client = IngressClient::connect(addr, WireFormat::Binary).expect("connect");
    client.send_alerts(clean).expect("send the clean window");
    assert_eq!(
        client.request(&Frame::Flush).expect("flush acked"),
        AckFrame::Flush {
            window: 1,
            alerts: CLEAN_WINDOW as u64
        },
        "{ctx}"
    );
    let snapshot = handle.latest_snapshot().expect("clean window published");
    batch.assert_window(
        &format!("{ctx}: clean window"),
        clean,
        &snapshot,
        Faults::None,
    );

    let counters = handle.counters();
    assert!(counters.is_conserved(), "{ctx}: {counters:?}");
    assert_eq!(counters.shard_restarts, 0, "{ctx}");
    assert_eq!(counters.windows_closed, 2, "{ctx}");
    assert_eq!(counters.ingested, want_ingested + CLEAN_WINDOW as u64);
    assert_eq!(
        counters.delivered,
        (routed.len() + CLEAN_WINDOW) as u64,
        "{ctx}"
    );
    drop(client);
    handle.shutdown();
}
