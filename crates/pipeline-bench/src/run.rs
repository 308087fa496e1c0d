//! One benchmark run: set-up, the measured phase, and the output
//! checks.
//!
//! The shape is identical for all workloads and is fixed *work*, not
//! fixed time: build the world from the seed, spawn the system under
//! test, stream the warm-up windows through the path that will be
//! measured, stream `N` measured windows, verify, report.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use alertops_core::GovernanceSnapshot;

use crate::env::{self, EnvStamp, Scratch};
use crate::layers::{self, ProcCounts};
use crate::loadgen::{wait_until, Loadgen};
use crate::procfs;
use crate::spans::{self, Tracer, NO_SPAN};
use crate::stats;
use crate::sut::Sut;
use crate::verify::{self, Fnv1a};
use crate::workloads::{RunSize, Traffic, Workload, ORACLE_WINDOWS, SEGMENTS};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// World and traffic seed.
    pub seed: u64,
    /// When the process started: `setup_s` runs from here.
    pub started: Instant,
    /// Scales `N` (see [`Workload::size`]).
    pub seconds: u64,
    /// Traced run: spans, isolated layer replays, per-layer metrics.
    pub trace: bool,
    /// Shrunken world, `N = 20`.
    pub toy: bool,
}

/// A reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` declares it.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        // An empty float sum is -0.0; adding +0.0 prints it as 0.0.
        Self {
            name,
            value: value + 0.0,
            unit,
        }
    }
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// All output checks passed.
    pub correct: bool,
    /// Alerts sent in the measured phase.
    pub attempted: u64,
    /// Alerts dropped, quarantined, or in degraded or misnumbered
    /// windows.
    pub failed: u64,
    /// FNV-1a over every published comparable snapshot, warm-up
    /// included.
    pub output_digest: u64,
    /// The environment the run happened in.
    pub stamp: EnvStamp,
    /// The sizes the run used.
    pub size: RunSize,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics
    /// (`--trace 1`): what the result line carries.
    pub metrics: Vec<Metric>,
    /// Untraced runs: the timing metrics, printed for the reader but
    /// declared per layer and so not part of the result line.
    pub info: Vec<Metric>,
    /// Human-readable notes: sample counts, drift, check failures.
    pub notes: Vec<String>,
}

/// Accumulates the output checks while windows are published.
#[derive(Debug)]
pub(crate) struct Checks {
    digest: Fnv1a,
    /// Comparable JSON of the leading published snapshots.
    prefix: Vec<String>,
    next_index: u64,
    failed: u64,
    contiguous: bool,
}

impl Checks {
    fn new() -> Self {
        Self {
            digest: Fnv1a::default(),
            prefix: Vec::new(),
            next_index: 0,
            failed: 0,
            contiguous: true,
        }
    }

    /// Folds one published snapshot in; `sent` is how many alerts the
    /// generator put into the window.
    fn observe(&mut self, snapshot: GovernanceSnapshot, sent: u64) {
        let numbered = snapshot.window_index == self.next_index;
        self.contiguous &= numbered;
        self.next_index = snapshot.window_index + 1;
        if !numbered || !snapshot.degraded.is_empty() || snapshot.alert_count as u64 != sent {
            self.failed += sent;
        }
        let json = verify::comparable(snapshot);
        self.digest.update(json.as_bytes());
        if self.prefix.len() < ORACLE_WINDOWS {
            self.prefix.push(json);
        }
    }

    /// Whether the leading snapshots equal `oracle`'s, with a note
    /// naming the first window that does not.
    fn matches(&self, oracle: &[String], notes: &mut Vec<String>) -> bool {
        match verify::first_divergence(&self.prefix, oracle) {
            None => true,
            Some(window) => {
                notes.push(format!(
                    "published snapshot {window} differs from the 1-shard oracle"
                ));
                false
            }
        }
    }
}

/// A system that finished set-up: warm, idle, ready for the first
/// measured window.
struct Live {
    generator: Loadgen,
    sut: Sut,
    checks: Checks,
}

/// Set-up: world build, spawn, and the warm-up windows through the
/// same `drive` path the measured phase uses.
fn setup(
    workload: &Workload,
    traffic: &Traffic,
    size: RunSize,
    scratch: &Path,
    tracer: &mut Tracer,
) -> io::Result<Live> {
    let span = tracer.start("setup", NO_SPAN, u64::MAX);
    let (mut generator, world) = Loadgen::new(workload, traffic);
    let mut sut = Sut::spawn(workload.transport, &world, scratch)?;
    let mut checks = Checks::new();
    for _ in 0..size.warmup {
        let mut window = generator.next(tracer, span);
        let closed = sut.drive(&mut window, tracer, span)?;
        generator.recycle(std::mem::take(&mut window.bytes));
        checks.observe(closed.snapshot, window.count);
    }
    tracer.end(span);
    Ok(Live {
        generator,
        sut,
        checks,
    })
}

/// Per-window samples of the measured phase.
#[derive(Debug, Default)]
pub struct Samples {
    /// Alerts per window.
    pub alerts: Vec<u64>,
    /// Seconds the system served each window: first byte → ack.
    pub service_s: Vec<f64>,
    /// Busy seconds behind `alerts_per_s`, per window. Closed loop: the
    /// service time. Open loop: the schedule as it ran — from the
    /// previous window's ack (the phase's start for the first) to this
    /// one's, so a segment's sum is its span on the clock.
    pub busy_s: Vec<f64>,
    /// Publish lag per window, ms (see the `publish_p50_ms`
    /// definition: from the last alert in a closed loop, from the due
    /// time in an open one).
    pub lag_ms: Vec<f64>,
    /// Open loop: how late each send started, ms.
    pub late_ms: Vec<f64>,
    /// Largest shard queue depth seen right after a window's last
    /// alert was handed over (sampled in traced runs only).
    pub queue_depth_max: u64,
    /// Process CPU seconds over the phase.
    pub process_cpu_s: f64,
    /// Generator-thread CPU seconds over the phase.
    pub generator_cpu_s: f64,
    /// Wall seconds of the phase.
    pub wall_s: f64,
}

impl Samples {
    /// Alerts sent over the phase.
    #[must_use]
    pub fn total_alerts(&self) -> u64 {
        self.alerts.iter().sum()
    }
}

/// Publish lag of one window, ms. Closed loop (`due` is `None`): from
/// the hand-over of the window's last alert. Open loop: from when the
/// window was due, so a stall is charged to the windows behind it.
fn publish_lag_ms(due: Option<Instant>, last_alert: Instant, ack: Instant) -> f64 {
    ack.duration_since(due.unwrap_or(last_alert)).as_secs_f64() * 1e3
}

/// The measured phase: `N` windows, closed or open loop.
fn measure(
    workload: &Workload,
    size: RunSize,
    live: &mut Live,
    tracer: &mut Tracer,
) -> io::Result<Samples> {
    let mut samples = Samples::default();
    let root = tracer.start("measured", NO_SPAN, u64::MAX);
    let process_cpu = procfs::process_cpu_seconds();
    let generator_cpu = procfs::thread_cpu_seconds();
    let started = Instant::now();
    let period = workload
        .period_ms
        .map(|ms| Duration::from_secs_f64(ms / 1e3));
    let mut last_ack = started;
    for k in 0..size.windows {
        let span = tracer.start("window", root, live.checks.next_index);
        let mut window = live.generator.next(tracer, span);
        // Open loop: window k is due at (k+1)·T whatever the system is
        // doing. The generator can only be late, never early.
        let due = period.map(|t| {
            let due = started + t * u32::try_from(k + 1).expect("N fits u32");
            samples.late_ms.push(wait_until(due) * 1e3);
            due
        });
        let closed = live.sut.drive(&mut window, tracer, span)?;
        live.generator.recycle(std::mem::take(&mut window.bytes));
        samples.alerts.push(window.count);
        let busy_from = if due.is_some() {
            last_ack
        } else {
            closed.first_byte
        };
        last_ack = closed.ack;
        samples
            .service_s
            .push(closed.ack.duration_since(closed.first_byte).as_secs_f64());
        samples
            .busy_s
            .push(closed.ack.duration_since(busy_from).as_secs_f64());
        samples
            .lag_ms
            .push(publish_lag_ms(due, closed.last_alert, closed.ack));
        samples.queue_depth_max = samples.queue_depth_max.max(closed.queue_depth);
        live.checks.observe(closed.snapshot, window.count);
        tracer.end(span);
    }
    samples.wall_s = started.elapsed().as_secs_f64();
    let delta = |before: Option<f64>, after: Option<f64>| match (before, after) {
        (Some(b), Some(a)) => a - b,
        _ => 0.0,
    };
    samples.process_cpu_s = delta(process_cpu, procfs::process_cpu_seconds());
    samples.generator_cpu_s = delta(generator_cpu, procfs::thread_cpu_seconds());
    tracer.end(root);
    Ok(samples)
}

/// `alerts_per_s`: the median of [`SEGMENTS`] consecutive segment
/// rates.
fn alerts_per_s(samples: &Samples) -> f64 {
    stats::segment_median_rate(&samples.alerts, &samples.busy_s, SEGMENTS)
}

/// Throughput, publish lag and CPU cost of the measured phase: what a
/// user of the system sees first. On a shared host they do not repeat
/// well enough to hold a bound (see the README), so they are declared
/// per layer: an untraced run prints them for the reader, a traced run
/// reports them at the head of its result line.
fn timing(samples: &Samples) -> Vec<Metric> {
    #[allow(clippy::cast_precision_loss)]
    let alerts = samples.total_alerts() as f64;
    let sut_cpu = (samples.process_cpu_s - samples.generator_cpu_s).max(0.0);
    vec![
        Metric::new("alerts_per_s", alerts_per_s(samples), "1/s"),
        Metric::new(
            "publish_p50_ms",
            stats::percentile(&samples.lag_ms, 0.5),
            "ms",
        ),
        Metric::new(
            "publish_p90_ms",
            stats::percentile(&samples.lag_ms, 0.9),
            "ms",
        ),
        Metric::new("cpu_s_per_malert", sut_cpu / alerts.max(1.0) * 1e6, "s"),
    ]
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Spawn, socket, WAL and scratch failures pass through; a failed
/// *check* is not an error — it lands in [`Outcome::correct`].
pub fn run(args: &RunArgs) -> io::Result<Outcome> {
    let workload = args.workload;
    let size = workload.size(args.seconds, args.toy);
    let traffic = workload.traffic(args.seed, size);
    let scratch = Scratch::create()?;
    let stamp = EnvStamp::collect(scratch.path());
    let mut tracer = Tracer::new(args.trace);
    let mut notes = Vec::new();

    let mut live = setup(
        workload,
        &traffic,
        size,
        &scratch.path().join("run"),
        &mut tracer,
    )?;
    // Process start → warm, idle and ready for the first measured byte.
    let setup_s = args.started.elapsed().as_secs_f64();

    let calib_start_ms = env::calibrate_ms();
    let steal_before = procfs::host_steal_and_total();
    let waits_before = live.sut.conservation().backpressure_waits;
    crate::alloc::set_counting(args.trace);
    let counts_before = ProcCounts::read();
    let samples = measure(workload, size, &mut live, &mut tracer)?;
    let counts = ProcCounts::read().since(&counts_before);
    crate::alloc::set_counting(false);
    let rss_bytes = procfs::peak_rss_bytes().unwrap_or(0);
    let steal_share = env::steal_share(steal_before, procfs::host_steal_and_total());
    let calib_end_ms = env::calibrate_ms();

    // Output checks on the live system: conservation, numbering, and
    // (cluster) the model across a whole-cluster restart.
    let Live { sut, checks, .. } = live;
    let conservation = sut.conservation();
    let mut correct = true;
    if !conservation.holds() {
        correct = false;
        notes.push(format!("conservation law violated: {conservation:?}"));
    }
    if !checks.contiguous {
        correct = false;
        notes.push("published window indices are not contiguous".to_owned());
    }
    let observed = layers::observe_sut(&sut, &mut tracer)?;
    let (mut sut, model_kept) = sut.restart()?;
    if !model_kept {
        correct = false;
        notes.push("the QoA model digest changed across a whole-cluster restart".to_owned());
    }

    let mut info = Vec::new();
    let metrics = if args.trace {
        let recovery = layers::cluster_recovery(&mut sut, &mut tracer)?;
        sut.shutdown();
        let mut metrics = timing(&samples);
        metrics.extend(layers::per_layer(
            &layers::Inputs {
                workload,
                traffic: &traffic,
                size,
                samples: &samples,
                observed,
                backpressure_waits: conservation.backpressure_waits - waits_before,
                counts,
                calib_start_ms,
                calib_end_ms,
                steal_share,
                recovery,
                scratch: scratch.path(),
            },
            &mut tracer,
        )?);
        // The spans are the traced run's product and outlive the
        // scratch directory: one file per workload and seed in the
        // build directory, overwritten by the next such run.
        let path = env::build_dir().join(format!("spans-{}-{}.jsonl", workload.name, args.seed));
        tracer.write_jsonl(&path)?;
        notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        if !spans::parents_valid(tracer.spans()) {
            correct = false;
            notes.push("a span has an invalid parent".to_owned());
        }
        metrics
    } else {
        sut.shutdown();
        notes.push(format!(
            "publish percentiles over {} windows, {} samples beyond p90",
            samples.lag_ms.len(),
            stats::samples_beyond(samples.lag_ms.len(), 0.9),
        ));
        info = timing(&samples);
        #[allow(clippy::cast_precision_loss)]
        let rss_mb = rss_bytes as f64 / 1e6;
        vec![
            Metric::new("rss_peak_mb", rss_mb, "MB"),
            Metric::new("setup_s", setup_s, "s"),
        ]
    };
    #[allow(clippy::cast_precision_loss)]
    let sizes: Vec<f64> = samples.alerts.iter().map(|&n| n as f64).collect();
    notes.push(format!(
        "alerts per window: median {:.0}, p90 {:.0}, max {:.0}",
        stats::median(&sizes),
        stats::percentile(&sizes, 0.9),
        stats::percentile(&sizes, 1.0),
    ));
    notes.push(format!(
        "segment rates (alerts/s): {:.0?}",
        stats::segment_rates(&samples.alerts, &samples.busy_s, SEGMENTS)
    ));
    notes.push(format!(
        "measured phase {:.2}s wall, {:.2}s served; env.calib_start_ms={calib_start_ms:.2} env.calib_end_ms={calib_end_ms:.2} env.steal_share={steal_share:.4}",
        samples.wall_s,
        samples.service_s.iter().sum::<f64>(),
    ));

    // The oracle's inputs are regenerated from the seed only now, so
    // the oracle never sat in RSS while the system was measured.
    let oracle = verify::oracle_snapshots(workload, &traffic, checks.prefix.len())?;
    correct &= checks.matches(&oracle, &mut notes);

    Ok(Outcome {
        correct,
        attempted: samples.total_alerts(),
        failed: checks.failed + conservation.dropped + conservation.quarantined,
        output_digest: checks.digest.value(),
        stamp,
        size,
        metrics,
        info,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    fn toy(workload: &str, seed: u64) -> Outcome {
        run(&RunArgs {
            workload: by_name(workload).expect("known workload"),
            seed,
            started: Instant::now(),
            seconds: 1,
            trace: false,
            toy: true,
        })
        .expect("toy run completes")
    }

    /// Same seed, same digest; another seed, another digest — also
    /// without QoA, where only the stream itself can tell seeds apart,
    /// and for seeds a day of hours apart.
    #[test]
    fn the_output_digest_is_a_function_of_the_seed() {
        for (workload, other) in [("governed-close", 11), ("steady-wire", 2022 + 24)] {
            let a = toy(workload, 2022);
            let b = toy(workload, 2022);
            let c = toy(workload, other);
            assert!(a.correct && b.correct && c.correct, "{:?}", a.notes);
            assert_eq!(a.failed, 0);
            assert_eq!(a.attempted, b.attempted);
            assert_eq!(a.output_digest, b.output_digest);
            assert_ne!(a.output_digest, c.output_digest, "{workload}");
        }
    }

    /// A snapshot that differs from the oracle in one field makes the
    /// run incorrect, and the note names the window.
    #[test]
    fn a_perturbed_oracle_snapshot_fails_the_run() {
        let workload = by_name("governed-close").expect("known workload");
        let size = workload.size(1, true);
        let traffic = workload.traffic(7, size);
        let oracle = verify::oracle_snapshots(workload, &traffic, 6).expect("oracle runs");
        let mut checks = Checks::new();
        checks.prefix = oracle.clone();
        let mut notes = Vec::new();
        assert!(checks.matches(&oracle, &mut notes));

        let mut perturbed = oracle;
        perturbed[3] = perturbed[3].replacen("\"alert_count\":", "\"alert_count\":1", 1);
        assert!(!checks.matches(&perturbed, &mut notes));
        assert!(notes[0].contains("snapshot 3"), "{notes:?}");
    }

    /// Open-loop lag is charged from the due time: a send that starts
    /// late still owes the wait.
    #[test]
    fn open_loop_lag_runs_from_the_due_time() {
        let due = Instant::now();
        let late_start = due + Duration::from_millis(30);
        let ack = late_start + Duration::from_millis(5);
        let open = publish_lag_ms(Some(due), late_start, ack);
        let closed = publish_lag_ms(None, late_start, ack);
        assert!((open - 35.0).abs() < 1e-6 && (closed - 5.0).abs() < 1e-6);
        // `wait_until` reports lateness, never earliness.
        assert!(wait_until(Instant::now() - Duration::from_millis(2)) >= 0.002);
        assert!(wait_until(Instant::now() + Duration::from_millis(1)) < 0.001);
    }
}
