//! The per-layer ledger of a traced run.
//!
//! Every number here is measured from the benchmark's own files: by
//! the spans around its own calls into the system under test, by
//! scraping the daemon's public exposition, and by replaying the first
//! [`REPLAY_WINDOWS`] measured windows through each layer's public
//! functions *in isolation*, one layer at a time, after the end-to-end
//! phase.
//! Nothing inside the program is instrumented for it.
//!
//! A metric whose layer does no work on the workload reads 0 (the
//! result line must carry every declared name).
//!
//! # How shares are attributed
//!
//! `share.<layer>` is the layer's time on the *blocking path* of the
//! measured windows divided by the time the system spent serving them
//! (first byte → ack, summed). Per-alert costs scale with the alerts
//! sent and per-window costs with the windows; the per-partition close
//! work counts the slower of the two shards (they run in parallel) or
//! the sum of the two nodes (the cluster closes them one after the
//! other). `share.unattributed` is the remainder — thread hand-offs,
//! socket and channel time, and anything the replays miss — so the
//! shares sum to 1 by construction. It can be negative when work the
//! ledger counts serially overlaps in the live system.

use std::io;
use std::path::Path;
use std::time::Instant;

use alertops_cluster::{RangeMap, Wal, WalFormat};
use alertops_core::{GovernanceSnapshot, OnlineQoaModel, StreamingGovernor, WindowDelta};
use alertops_detect::IncrementalState;
use alertops_ingestd::codec::encode_alert;
use alertops_ingestd::{shard_of, FrameDecoder};
use alertops_load::scrape::Exposition;
use alertops_model::{Alert, StrategyId};
use alertops_react::EmergingAlertDetector;
use alertops_wire::{WireDecoder, WireEncoder};

use crate::alloc;
use crate::loadgen::{Loadgen, World};
use crate::procfs;
use crate::run::{Metric, Samples};
use crate::spans::{self, Tracer, NO_SPAN};
use crate::stats;
use crate::sut::Sut;
use crate::workloads::{
    RunSize, Traffic, Transport, Workload, REPLAY_WINDOWS, SEGMENTS, WARMUP_WINDOWS,
};

/// Process-wide exact counts, read before and after the measured
/// phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcCounts {
    /// Heap allocations by pipeline threads (generator excluded).
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// `write`-family syscalls of the process.
    pub write_syscalls: u64,
    /// Context switches summed over live threads.
    pub ctx_switches: u64,
}

impl ProcCounts {
    /// The counts right now.
    #[must_use]
    pub fn read() -> Self {
        let (allocs, alloc_bytes) = alloc::counts();
        Self {
            allocs,
            alloc_bytes,
            write_syscalls: procfs::write_syscalls().unwrap_or(0),
            ctx_switches: procfs::context_switches().unwrap_or(0),
        }
    }

    /// The increase since `before`.
    #[must_use]
    pub fn since(&self, before: &Self) -> Self {
        Self {
            allocs: self.allocs - before.allocs,
            alloc_bytes: self.alloc_bytes - before.alloc_bytes,
            write_syscalls: self.write_syscalls.saturating_sub(before.write_syscalls),
            ctx_switches: self.ctx_switches.saturating_sub(before.ctx_switches),
        }
    }
}

/// What the live system told us about itself after the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// The daemon's exposition (absent for the cluster, whose node
    /// handles are private).
    pub exposition: Option<String>,
    /// Microseconds one `render_metrics()` scrape took (median of 9).
    pub render_us: f64,
    /// Cluster: WAL segments sealed per window closed, over both
    /// nodes. Each seal is exactly one `sync_data`.
    pub wal_seals_per_window: f64,
}

/// The newest segment index in a WAL directory. Segments are numbered
/// from 0 and a boundary seals one and opens the next, so this counts
/// the boundaries since the log was opened.
fn newest_segment(dir: &Path) -> io::Result<u64> {
    let mut newest = 0;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(index) = name
            .to_string_lossy()
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            newest = newest.max(index);
        }
    }
    Ok(newest)
}

/// Scrapes the live system, times the scrape, and counts the seals in
/// the cluster's log. Traced runs only.
///
/// # Errors
///
/// Reading the WAL directories can fail.
pub fn observe_sut(sut: &Sut, tracer: &mut Tracer) -> io::Result<Observed> {
    if !tracer.enabled() {
        return Ok(Observed::default());
    }
    let span = tracer.start("obs.render", NO_SPAN, u64::MAX);
    let mut took = Vec::new();
    for _ in 0..9 {
        let started = Instant::now();
        std::hint::black_box(sut.render_metrics());
        took.push(started.elapsed().as_secs_f64() * 1e6);
    }
    tracer.end(span);
    let wal_seals_per_window = match sut {
        Sut::Cluster { cluster, spec } => {
            let seals = newest_segment(&spec.wal_dir(0))? + newest_segment(&spec.wal_dir(1))?;
            #[allow(clippy::cast_precision_loss)]
            let per_window = seals as f64 / cluster.next_window_seq().max(1) as f64;
            per_window
        }
        _ => 0.0,
    };
    Ok(Observed {
        exposition: sut.daemon_exposition(),
        render_us: stats::median(&took),
        wal_seals_per_window,
    })
}

/// What the cluster's restarts cost, measured after — and outside —
/// every end-to-end metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    /// Median seconds of five `kill(1)` → `rejoin(1)` cycles.
    pub recovery_s: f64,
    /// Microseconds per alert of reading node 1's log back.
    pub replay_us_per_alert: f64,
}

/// Five kill→rejoin cycles of node 1 over the log the run wrote, plus
/// one timed read-back of that log.
///
/// # Errors
///
/// Replay and spawn failures pass through.
pub fn cluster_recovery(sut: &mut Sut, tracer: &mut Tracer) -> io::Result<Recovery> {
    let Sut::Cluster { cluster, spec } = sut else {
        return Ok(Recovery::default());
    };
    let root = tracer.start("cluster.recovery", NO_SPAN, u64::MAX);
    let started = Instant::now();
    let replayed = alertops_cluster::replay(&spec.wal_dir(1))?;
    let replay_s = started.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let replay_us_per_alert = replay_s * 1e6 / replayed.recovered_alerts.max(1) as f64;

    let mut rejoins = Vec::new();
    for _ in 0..5 {
        let span = tracer.start("cluster.rejoin", root, u64::MAX);
        cluster.kill(1);
        let started = Instant::now();
        cluster.rejoin(1)?;
        rejoins.push(started.elapsed().as_secs_f64());
        tracer.end(span);
    }
    tracer.end(root);
    Ok(Recovery {
        recovery_s: stats::median(&rejoins),
        replay_us_per_alert,
    })
}

/// Everything [`per_layer`] needs from the run.
#[derive(Debug)]
pub struct Inputs<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Its seeded inputs (the replays regenerate the stream from them).
    pub traffic: &'a Traffic,
    /// The run's sizes.
    pub size: RunSize,
    /// The traced run's own measured phase.
    pub samples: &'a Samples,
    /// The scrape of the live system.
    pub observed: Observed,
    /// Producer blocks on a full shard queue during the measured phase.
    pub backpressure_waits: u64,
    /// Exact process counts over the measured phase.
    pub counts: ProcCounts,
    /// The calibration kernel before the measured phase, ms.
    pub calib_start_ms: f64,
    /// The calibration kernel after it, ms.
    pub calib_end_ms: f64,
    /// Host steal share over the measured phase.
    pub steal_share: f64,
    /// Cluster restart costs.
    pub recovery: Recovery,
    /// The run's scratch directory (the WAL replay journals here).
    pub scratch: &'a Path,
}

/// Times `f` as a span called `name` and returns its result with the
/// microseconds it took.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: u32,
    window: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    let ended = Instant::now();
    tracer.record(name, parent, window, started, ended);
    (out, ended.duration_since(started).as_secs_f64() * 1e6)
}

/// One partition's (shard's or node's) close work for one window, µs.
#[derive(Debug, Clone, Copy, Default)]
struct PartitionCost {
    ingest: f64,
    observe: f64,
    evict: f64,
    findings: f64,
    react: f64,
    clone: f64,
}

impl PartitionCost {
    fn detect(&self) -> f64 {
        self.observe + self.evict + self.findings
    }

    /// The governor's own share of `ingest`: flag diffing, storm
    /// reconstruction, blocker derivation, sample and document
    /// extraction.
    fn core_self(&self) -> f64 {
        (self.ingest - self.detect() - self.react).max(0.0)
    }

    fn close(&self) -> f64 {
        self.ingest + self.clone
    }
}

/// Isolated-replay totals over the replayed windows, µs unless named
/// otherwise.
#[derive(Debug, Default)]
struct Replay {
    windows: u64,
    alerts: u64,
    encode: f64,
    decode: f64,
    wire_bytes: u64,
    ndjson_decode: f64,
    route: f64,
    flush_ms: Vec<f64>,
    partitions: Vec<[PartitionCost; 2]>,
    merge: f64,
    snapshot: f64,
    emerging: f64,
    emerging_docs: u64,
    qoa_update: f64,
    qoa_checkpoint: f64,
    qoa_checkpoint_bytes: u64,
    wal_append: f64,
    wal_boundary: f64,
    wal_bytes: u64,
    wal_write_syscalls: u64,
}

/// The per-partition replay state: a governor for the whole close, and
/// a bare engine for the detect split.
struct Partition {
    governor: StreamingGovernor,
    engine: IncrementalState,
    history: usize,
}

impl Partition {
    fn new(world: &World, strategies: Vec<alertops_model::AlertStrategy>) -> Self {
        Self {
            governor: world.governor(strategies),
            engine: IncrementalState::default(),
            history: world.streaming.history_windows,
        }
    }

    /// One window's close on this partition, layer by layer. The bare
    /// engine sees exactly what the governor's engine sees, so its
    /// three calls split the governor's detect time.
    fn close(
        &mut self,
        window: &[Alert],
        tracer: &mut Tracer,
        parent: u32,
        index: u64,
    ) -> PartitionCost {
        let mut cost = PartitionCost::default();
        let graph = self.governor.governor().dependency_graph().cloned();
        ((), cost.observe) = timed(tracer, "detect.observe", parent, index, || {
            self.engine.observe_window(window, graph.as_ref(), None);
        });
        ((), cost.evict) = timed(tracer, "detect.evict", parent, index, || {
            while self.engine.window_count() > self.history {
                self.engine.evict_window(None);
            }
        });
        let (report, findings) = timed(tracer, "detect.findings", parent, index, || {
            self.engine.current_findings(
                self.governor.governor().strategies(),
                &[],
                graph.as_ref(),
                None,
            )
        });
        cost.findings = findings;
        let blocker = self.governor.governor().derive_blocker(&report);
        (_, cost.react) = timed(tracer, "react.pipeline", parent, index, || {
            std::hint::black_box(self.governor.governor().react(window, blocker))
        });
        (_, cost.clone) = timed(tracer, "core.checkpoint_clone", parent, index, || {
            std::hint::black_box(self.governor.clone())
        });
        cost
    }
}

/// Replays the stream's first `warmup + windows` windows through each
/// layer in isolation; only the last `windows` — the first measured
/// ones — are timed. The windows before them warm the replay's own
/// engines; the last [`WARMUP_WINDOWS`] of them run through every
/// layer, the ones before only advance the stream.
#[allow(clippy::too_many_lines)]
fn replay(inputs: &Inputs<'_>, windows: usize, tracer: &mut Tracer) -> io::Result<Replay> {
    let workload = inputs.workload;
    let root = tracer.start("replay", NO_SPAN, u64::MAX);
    let (mut generator, world) = Loadgen::new(&workload.in_process(), inputs.traffic);

    // The live system's partitioning: hash shards, or the cluster's
    // contiguous ranges.
    let ranges = RangeMap::partition(&world.strategies, 2);
    let cluster = workload.transport == Transport::Cluster;
    let partition_of = |id: StrategyId| {
        if cluster {
            ranges.node_of(id)
        } else {
            shard_of(id, 2)
        }
    };
    let mut partitions: Vec<Partition> = (0..2)
        .map(|p| {
            let slice = world
                .strategies
                .iter()
                .filter(|s| partition_of(s.id()) == p)
                .cloned()
                .collect();
            Partition::new(&world, slice)
        })
        .collect();

    let mut emerging = workload
        .emerging
        .then(|| EmergingAlertDetector::new(world.streaming.emerging.config.clone()));
    let mut qoa = workload
        .qoa
        .then(|| OnlineQoaModel::new(world.streaming.qoa.config));
    let mut encoder = WireEncoder::new();
    let mut decoder = WireDecoder::new();
    let mut ndjson = FrameDecoder::new();
    let mut bytes = Vec::new();
    let mut text = Vec::new();
    let mut frames = Vec::new();
    let mut lines = Vec::new();

    // An idle in-process daemon for `route`/`flush` in isolation, where
    // the workload does not call them itself.
    let mut daemon = (workload.transport != Transport::InProcess)
        .then(|| Sut::spawn(Transport::InProcess, &world, inputs.scratch))
        .transpose()?;
    let wal_dir = inputs.scratch.join("replay-wal");
    let wal = cluster
        .then(|| {
            Wal::open_with_format(
                &wal_dir,
                world.streaming.history_windows + 1,
                WalFormat::V2Binary,
            )
        })
        .transpose()?;

    let mut out = Replay::default();
    let mut off = Tracer::new(false);
    let warmup = inputs.size.warmup.min(WARMUP_WINDOWS);
    for _ in warmup..inputs.size.warmup {
        let _ = generator.next(&mut off, NO_SPAN);
    }
    for k in 0..warmup + windows {
        let mut window = generator.next(&mut off, NO_SPAN);
        let index = window.index;
        // Warm-up windows run through the same calls, under their own
        // parent, and their costs are dropped.
        let measured = k >= warmup;
        let name = if measured {
            "replay.window"
        } else {
            "replay.warmup"
        };
        let parent = tracer.start(name, root, index);
        let mut cost = Replay::default();
        let alerts = std::mem::take(&mut window.alerts);

        // wire: encode into one buffer, decode in the daemon's 8 KiB
        // reads.
        bytes.clear();
        ((), cost.encode) = timed(tracer, "wire.encode", parent, index, || {
            for alert in &alerts {
                encoder.encode_alert_into(alert, &mut bytes);
            }
        });
        cost.wire_bytes = bytes.len() as u64;
        ((), cost.decode) = timed(tracer, "wire.decode", parent, index, || {
            for chunk in bytes.chunks(8192) {
                decoder.feed_into(chunk, &mut frames);
                frames.clear();
            }
        });
        // ingestd's NDJSON codec, decode side (encoding is the
        // generator's cost).
        text.clear();
        for alert in &alerts {
            text.extend_from_slice(encode_alert(alert).as_bytes());
            text.push(b'\n');
        }
        ((), cost.ndjson_decode) = timed(tracer, "ingestd.ndjson_decode", parent, index, || {
            for chunk in text.chunks(8192) {
                ndjson.feed_into(chunk, &mut lines);
                lines.clear();
            }
        });

        // cluster: the journal, alone.
        if let Some(wal) = &wal {
            let before = procfs::write_syscalls().unwrap_or(0);
            let (result, took) = timed(tracer, "cluster.wal_append", parent, index, || {
                alerts.iter().try_for_each(|alert| wal.append(alert))
            });
            result?;
            cost.wal_append = took;
            cost.wal_write_syscalls = procfs::write_syscalls().unwrap_or(0) - before;
            let segment = wal_dir.join(format!("seg-{k:010}.wal"));
            cost.wal_bytes = std::fs::metadata(segment).map_or(0, |m| m.len());
            let (result, took) = timed(tracer, "cluster.wal_boundary", parent, index, || {
                wal.boundary(index)
            });
            result?;
            cost.wal_boundary = took;
        }

        // ingestd: route and flush on an idle daemon.
        if let Some(daemon) = &mut daemon {
            let mut copy = crate::loadgen::Prepared {
                index,
                count: window.count,
                alerts: alerts.clone(),
                labels: window.labels.clone(),
                bytes: Vec::new(),
            };
            let closed = daemon.drive(&mut copy, &mut off, NO_SPAN)?;
            tracer.record(
                "ingestd.route",
                parent,
                index,
                closed.first_byte,
                closed.last_alert,
            );
            tracer.record(
                "ingestd.flush",
                parent,
                index,
                closed.last_alert,
                closed.ack,
            );
            cost.route = closed
                .last_alert
                .duration_since(closed.first_byte)
                .as_secs_f64()
                * 1e6;
            cost.flush_ms
                .push(closed.ack.duration_since(closed.last_alert).as_secs_f64() * 1e3);
        }

        // core / detect / react: each partition's close, then the
        // coordinator's merge, snapshot, AO-LDA and QoA update.
        let mut split: [Vec<Alert>; 2] = [Vec::new(), Vec::new()];
        for alert in alerts {
            split[partition_of(alert.strategy())].push(alert);
        }
        let mut costs = [PartitionCost::default(); 2];
        let mut deltas = Vec::with_capacity(2);
        for (p, (partition, sub)) in partitions.iter_mut().zip(&mut split).enumerate() {
            sub.sort_by_key(|a| (a.raised_at(), a.id()));
            costs[p] = partition.close(sub, tracer, parent, index);
            let (delta, took) = timed(tracer, "core.ingest", parent, index, || {
                partition.governor.ingest(sub, &[])
            });
            costs[p].ingest = took;
            deltas.push(delta);
        }
        cost.partitions.push(costs);
        let (merged, took) = timed(tracer, "core.merge", parent, index, || {
            WindowDelta::merge_all(&deltas)
        });
        cost.merge = took;
        (_, cost.snapshot) = timed(tracer, "core.snapshot", parent, index, || {
            std::hint::black_box(GovernanceSnapshot::from_delta(
                &merged,
                &world.streaming.storm,
            ))
        });
        if let Some(detector) = emerging.as_mut() {
            cost.emerging_docs = merged.emerging_docs.len() as u64;
            (_, cost.emerging) = timed(tracer, "react.emerging", parent, index, || {
                std::hint::black_box(detector.observe_docs(&merged.emerging_docs))
            });
        }
        if let Some(model) = qoa.as_mut() {
            (_, cost.qoa_update) = timed(tracer, "qoa.update", parent, index, || {
                std::hint::black_box(model.observe_window(&merged.qoa_samples, &window.labels))
            });
            let verdicts = model.verdicts();
            for partition in &mut partitions {
                partition.governor.set_qoa_verdicts(verdicts.clone());
            }
            let (checkpoint, took) = timed(tracer, "qoa.checkpoint", parent, index, || {
                model.checkpoint().to_bytes()
            });
            cost.qoa_checkpoint = took;
            cost.qoa_checkpoint_bytes = checkpoint.len() as u64;
        }
        tracer.end(parent);

        if measured {
            out.windows += 1;
            out.alerts += window.count;
            out.encode += cost.encode;
            out.decode += cost.decode;
            out.wire_bytes += cost.wire_bytes;
            out.ndjson_decode += cost.ndjson_decode;
            out.route += cost.route;
            out.flush_ms.append(&mut cost.flush_ms);
            out.partitions.append(&mut cost.partitions);
            out.merge += cost.merge;
            out.snapshot += cost.snapshot;
            out.emerging += cost.emerging;
            out.emerging_docs += cost.emerging_docs;
            out.qoa_update += cost.qoa_update;
            out.qoa_checkpoint += cost.qoa_checkpoint;
            out.qoa_checkpoint_bytes = cost.qoa_checkpoint_bytes;
            out.wal_append += cost.wal_append;
            out.wal_boundary += cost.wal_boundary;
            out.wal_bytes += cost.wal_bytes;
            out.wal_write_syscalls += cost.wal_write_syscalls;
        }
    }
    if let Some(daemon) = daemon {
        daemon.shutdown();
    }
    tracer.end(root);
    Ok(out)
}

/// Mean of a scraped histogram family (`_sum ÷ _count`), µs.
fn histogram_mean(exposition: &Exposition, family: &str) -> f64 {
    let (name, labels) = family
        .split_once('{')
        .map_or((family, String::new()), |(n, l)| (n, format!("{{{l}")));
    let sum = exposition.value(&format!("{name}_sum{labels}"));
    let count = exposition.value(&format!("{name}_count{labels}"));
    match (sum, count) {
        #[allow(clippy::cast_precision_loss)]
        (Some(sum), Some(count)) if count > 0 => sum as f64 / count as f64,
        _ => 0.0,
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
///
/// # Errors
///
/// Replay I/O failures (the WAL, the idle daemon) pass through.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn per_layer(inputs: &Inputs<'_>, tracer: &mut Tracer) -> io::Result<Vec<Metric>> {
    let workload = inputs.workload;
    let samples = inputs.samples;
    let replayed = replay(
        inputs,
        (inputs.size.windows / SEGMENTS).clamp(1, REPLAY_WINDOWS),
        tracer,
    )?;

    let alerts = samples.total_alerts().max(1) as f64;
    let windows = samples.alerts.len().max(1) as f64;
    let served_us = samples.service_s.iter().sum::<f64>() * 1e6;
    let r_alerts = replayed.alerts.max(1) as f64;
    let r_windows = replayed.windows.max(1) as f64;

    // The benchmark's own calls during the measured phase.
    let measured: Vec<spans::Span> = {
        let root = tracer
            .spans()
            .iter()
            .find(|s| s.name == "measured")
            .map_or(NO_SPAN, |s| s.id);
        let in_phase: std::collections::BTreeSet<u32> = tracer
            .spans()
            .iter()
            .filter(|s| s.parent == root && s.name == "window")
            .map(|s| s.id)
            .collect();
        tracer
            .spans()
            .iter()
            .filter(|s| in_phase.contains(&s.parent))
            .cloned()
            .collect()
    };
    let total = |name: &str| spans::durations_of(&measured, name).iter().sum::<f64>();
    let p50_ms = |name: &str| {
        let ms: Vec<f64> = spans::durations_of(&measured, name)
            .iter()
            .map(|us| us / 1e3)
            .collect();
        stats::percentile(&ms, 0.5)
    };

    // `route` and `flush`: the live calls where the workload makes
    // them, the idle-daemon replay elsewhere.
    let live_calls = workload.transport == Transport::InProcess;
    let route_us_per_alert = if live_calls {
        total("ingestd.route") / alerts
    } else {
        replayed.route / r_alerts
    };
    let flush_ms_p50 = if live_calls {
        p50_ms("ingestd.flush")
    } else {
        stats::percentile(&replayed.flush_ms, 0.5)
    };

    // Daemon-internal waits, scraped from the public exposition.
    let exposition = inputs.observed.exposition.as_deref().map(Exposition::parse);
    let scraped = |family: &str| {
        exposition
            .as_ref()
            .map_or(0.0, |e| histogram_mean(e, family))
    };
    let shard_close: Vec<f64> = (0..2)
        .map(|s| scraped(&format!("alertops_shard_close_micros{{shard=\"{s}\"}}")))
        .collect();
    let close_p99_ms = exposition
        .as_ref()
        .and_then(|e| e.histogram_quantile("alertops_window_close_micros", 0.99))
        .map_or(0.0, |us| us as f64 / 1e3);

    // Blocking-path close cost per window: parallel shards wait for
    // the slower one, serial nodes add up.
    let cluster = workload.transport == Transport::Cluster;
    let mut path = PartitionCost::default();
    let mut skew = Vec::new();
    for costs in &replayed.partitions {
        let slow = if costs[0].close() >= costs[1].close() {
            0
        } else {
            1
        };
        let on_path: &[PartitionCost] = if cluster { costs } else { &costs[slow..=slow] };
        for c in on_path {
            path.ingest += c.ingest;
            path.observe += c.observe;
            path.evict += c.evict;
            path.findings += c.findings;
            path.react += c.react;
            path.clone += c.clone;
        }
        let mean = (costs[0].close() + costs[1].close()) / 2.0;
        if mean > 0.0 {
            skew.push(costs[slow].close() / mean);
        }
    }
    let per_window = |us: f64| us / r_windows;
    let all_partitions = |f: fn(&PartitionCost) -> f64| {
        replayed
            .partitions
            .iter()
            .flat_map(|c| c.iter())
            .map(f)
            .sum::<f64>()
    };

    // Shares: each layer's blocking-path time over the served time.
    let tcp_binary = workload.transport == Transport::TcpBinary;
    let tcp_ndjson = workload.transport == Transport::TcpNdjson;
    let wire_us = if tcp_binary {
        replayed.decode / r_alerts * alerts
    } else if cluster {
        replayed.encode / r_alerts * alerts
    } else {
        0.0
    };
    let ingestd_us = route_us_per_alert * alerts
        + if tcp_ndjson {
            replayed.ndjson_decode / r_alerts * alerts
        } else {
            0.0
        };
    let core_us =
        per_window(path.core_self() + path.clone + replayed.merge + replayed.snapshot) * windows;
    let detect_us = per_window(path.detect()) * windows;
    let react_us = per_window(path.react + replayed.emerging) * windows;
    let qoa_us = per_window(
        replayed.qoa_update
            + if cluster {
                replayed.qoa_checkpoint
            } else {
                0.0
            },
    ) * windows;
    let cluster_us = if cluster {
        (replayed.wal_append - replayed.encode).max(0.0) / r_alerts * alerts
            + per_window(replayed.wal_boundary) * 2.0 * windows
    } else {
        0.0
    };
    let share = |us: f64| if served_us > 0.0 { us / served_us } else { 0.0 };
    let shares = [
        share(wire_us),
        share(ingestd_us),
        share(core_us),
        share(detect_us),
        share(react_us),
        share(qoa_us),
        share(cluster_us),
    ];
    let unattributed = 1.0 - shares.iter().sum::<f64>();

    let zero_unless = |on: bool, value: f64| if on { value } else { 0.0 };
    let tcp = tcp_binary || tcp_ndjson;
    let counts = inputs.counts;
    Ok(vec![
        Metric::new(
            "sim.generate_us_per_alert",
            total("loadgen.generate") / alerts,
            "us",
        ),
        Metric::new(
            "sim.label_us_per_window",
            total("loadgen.label") / windows,
            "us",
        ),
        Metric::new("wire.encode_us_per_alert", replayed.encode / r_alerts, "us"),
        Metric::new("wire.decode_us_per_alert", replayed.decode / r_alerts, "us"),
        Metric::new(
            "wire.bytes_per_alert",
            replayed.wire_bytes as f64 / r_alerts,
            "B",
        ),
        Metric::new(
            "ingestd.ndjson_decode_us_per_alert",
            replayed.ndjson_decode / r_alerts,
            "us",
        ),
        Metric::new(
            "ingestd.send_ms_per_window",
            zero_unless(tcp, total("ingestd.send") / 1e3 / windows),
            "ms",
        ),
        Metric::new(
            "ingestd.ack_wait_ms_p50",
            zero_unless(tcp, p50_ms("ingestd.ack_wait")),
            "ms",
        ),
        Metric::new("ingestd.route_us_per_alert", route_us_per_alert, "us"),
        Metric::new("ingestd.flush_ms_p50", flush_ms_p50, "ms"),
        Metric::new("ingestd.close_p99_ms", close_p99_ms, "ms"),
        Metric::new(
            "ingestd.barrier_wait_us_per_window",
            scraped("alertops_barrier_wait_micros"),
            "us",
        ),
        Metric::new(
            "ingestd.merge_us_per_window",
            scraped("alertops_merge_micros"),
            "us",
        ),
        Metric::new(
            "ingestd.shard_close_us_per_window",
            shard_close.iter().sum::<f64>() / 2.0,
            "us",
        ),
        Metric::new("ingestd.shard_skew", stats::median(&skew), "ratio"),
        Metric::new(
            "ingestd.queue_depth_max",
            samples.queue_depth_max as f64,
            "count",
        ),
        Metric::new(
            "ingestd.backpressure_waits",
            inputs.backpressure_waits as f64,
            "count",
        ),
        Metric::new(
            "core.ingest_us_per_alert",
            all_partitions(|c| c.ingest) / r_alerts,
            "us",
        ),
        Metric::new(
            "core.checkpoint_clone_us_per_window",
            per_window(all_partitions(|c| c.clone)),
            "us",
        ),
        Metric::new("core.merge_us_per_window", per_window(replayed.merge), "us"),
        Metric::new(
            "core.snapshot_us_per_window",
            per_window(replayed.snapshot),
            "us",
        ),
        Metric::new(
            "detect.observe_us_per_alert",
            all_partitions(|c| c.observe) / r_alerts,
            "us",
        ),
        Metric::new(
            "detect.evict_us_per_window",
            per_window(all_partitions(|c| c.evict)),
            "us",
        ),
        Metric::new(
            "detect.findings_us_per_window",
            per_window(all_partitions(|c| c.findings)),
            "us",
        ),
        Metric::new(
            "react.pipeline_us_per_alert",
            all_partitions(|c| c.react) / r_alerts,
            "us",
        ),
        Metric::new(
            "react.emerging_us_per_window",
            per_window(replayed.emerging),
            "us",
        ),
        Metric::new(
            "react.emerging_docs_per_window",
            per_window(replayed.emerging_docs as f64),
            "count",
        ),
        Metric::new(
            "qoa.update_us_per_window",
            per_window(replayed.qoa_update),
            "us",
        ),
        Metric::new(
            "qoa.checkpoint_us_per_window",
            per_window(replayed.qoa_checkpoint),
            "us",
        ),
        Metric::new(
            "qoa.checkpoint_bytes",
            replayed.qoa_checkpoint_bytes as f64,
            "B",
        ),
        Metric::new(
            "cluster.route_us_per_alert",
            zero_unless(cluster, total("cluster.route") / alerts),
            "us",
        ),
        Metric::new(
            "cluster.close_ms_p50",
            zero_unless(cluster, p50_ms("cluster.close")),
            "ms",
        ),
        Metric::new(
            "cluster.wal_append_us_per_alert",
            replayed.wal_append / r_alerts,
            "us",
        ),
        Metric::new(
            "cluster.wal_boundary_us_per_window",
            per_window(replayed.wal_boundary),
            "us",
        ),
        Metric::new(
            "cluster.wal_bytes_per_alert",
            replayed.wal_bytes as f64 / r_alerts,
            "B",
        ),
        Metric::new(
            "cluster.wal_write_syscalls_per_alert",
            replayed.wal_write_syscalls as f64 / r_alerts,
            "count",
        ),
        Metric::new(
            "cluster.wal_fsyncs_per_window",
            inputs.observed.wal_seals_per_window,
            "count",
        ),
        Metric::new(
            "cluster.replay_us_per_alert",
            inputs.recovery.replay_us_per_alert,
            "us",
        ),
        Metric::new("cluster.recovery_s", inputs.recovery.recovery_s, "s"),
        Metric::new("obs.render_us_per_scrape", inputs.observed.render_us, "us"),
        Metric::new(
            "loadgen.late_p95_ms",
            stats::percentile(&samples.late_ms, 0.95),
            "ms",
        ),
        Metric::new(
            "loadgen.late_max_ms",
            samples.late_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        Metric::new("loadgen.cpu_s", samples.generator_cpu_s, "s"),
        Metric::new(
            "proc.allocs_per_alert",
            counts.allocs as f64 / alerts,
            "count",
        ),
        Metric::new(
            "proc.alloc_bytes_per_alert",
            counts.alloc_bytes as f64 / alerts,
            "B",
        ),
        Metric::new(
            "proc.write_syscalls_per_kalert",
            counts.write_syscalls as f64 / alerts * 1e3,
            "count",
        ),
        Metric::new(
            "proc.ctx_switches_per_kalert",
            counts.ctx_switches as f64 / alerts * 1e3,
            "count",
        ),
        Metric::new("env.calib_start_ms", inputs.calib_start_ms, "ms"),
        Metric::new("env.calib_end_ms", inputs.calib_end_ms, "ms"),
        Metric::new("env.steal_share", inputs.steal_share, "ratio"),
        Metric::new("share.wire", shares[0], "ratio"),
        Metric::new("share.ingestd", shares[1], "ratio"),
        Metric::new("share.core", shares[2], "ratio"),
        Metric::new("share.detect", shares[3], "ratio"),
        Metric::new("share.react", shares[4], "ratio"),
        Metric::new("share.qoa", shares[5], "ratio"),
        Metric::new("share.cluster", shares[6], "ratio"),
        Metric::new("share.unattributed", unattributed, "ratio"),
    ])
}
