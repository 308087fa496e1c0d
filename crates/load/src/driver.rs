//! The soak driver: sustained load into a live daemon, gated hard.
//!
//! [`run_soak`] plays a statistical scenario through
//! [`alertops_sim::StatisticalStream`] one window at a time and streams
//! it over a real TCP connection — NDJSON lines or `alertops-wire`
//! binary frames, per [`SoakConfig::wire`] — into a freshly spawned
//! [`Ingestd`]: the same wire path production traffic takes, not an
//! in-process shortcut. While the soak runs it behaves like the
//! operator's monitoring stack: it scrapes the status socket's
//! Prometheus exposition for queue depths and close-latency histograms,
//! samples the resident set size every window, and at the end checks
//! four gates:
//!
//! 1. **Memory ceiling** — peak RSS stays under
//!    [`SoakConfig::rss_ceiling_bytes`]; the pipeline must hold windows,
//!    not history.
//! 2. **Conservation** — `ingested == delivered + dropped + quarantined`
//!    over the whole soak ([`CounterSnapshot::is_conserved`]).
//! 3. **Identity** — the snapshots published for a sampled prefix of
//!    windows are byte-identical (modulo per-shard triage) to an
//!    in-process oracle re-run at each of
//!    [`SoakConfig::oracle_shard_counts`] — throughput must never buy a
//!    different answer.
//! 4. **Rate** — the sustained alerts/hour-equivalent throughput, which
//!    callers gate via [`SoakReport::check_gates`].
//!
//! The generated traffic is fully determined by the scenario seed; the
//! only nondeterminism in a soak run is wall-clock timing, which is
//! reported but never feeds back into outputs.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use serde::Serialize;

use alertops_core::{
    AlertGovernor, GovernanceSnapshot, GovernorConfig, StreamingConfig, StreamingGovernor,
};
use alertops_ingestd::{shard_catalog, Ingestd, IngestdConfig, IngressClient};
use alertops_model::{Alert, AlertStrategy};
use alertops_sim::scenarios::{self, Scenario};
use alertops_sim::StatisticalStream;
use alertops_wire::{AckFrame, Frame, WireFormat};

use crate::scrape::Exposition;

/// One soak run's shape: the scenario to play and the gates to hold.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// The statistical scenario generating the traffic.
    pub scenario: Scenario,
    /// Shard count of the live daemon under load.
    pub shards: usize,
    /// Simulated hours folded into each streamed window.
    pub window_hours: u64,
    /// Truncate the soak after this many windows (`None` = play the
    /// scenario's whole range).
    pub max_windows: Option<usize>,
    /// Per-shard ingest queue capacity of the live daemon.
    pub queue_capacity: usize,
    /// Peak-RSS gate: the whole soak must stay under this many bytes.
    pub rss_ceiling_bytes: u64,
    /// How many leading windows are kept for the identity gate.
    pub oracle_prefix_windows: usize,
    /// Shard counts the oracle re-runs the prefix at; the live
    /// snapshots must match every one of them.
    pub oracle_shard_counts: Vec<usize>,
    /// Throughput gate in alerts per hour of wall time
    /// ([`SoakReport::check_gates`] enforces it).
    pub min_alerts_per_hour: f64,
    /// Encoding the frames travel in: `alertops-wire` binary (what
    /// [`smoke`](Self::smoke) and [`full`](Self::full) gate, the path
    /// production uses) or NDJSON lines. The oracle and the identity
    /// gate are format-blind — both must publish byte-identical
    /// snapshots.
    pub wire: WireFormat,
}

impl SoakConfig {
    /// The CI-sized soak: [`scenarios::soak_smoke`] (one simulated day,
    /// 800 strategies, shaped load) against a 4-shard daemon, with the
    /// identity gate at 1 and 4 shards. Deterministic per seed and
    /// quick enough for every pipeline run.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        Self {
            scenario: scenarios::soak_smoke(seed),
            shards: 4,
            window_hours: 4,
            max_windows: None,
            queue_capacity: 8192,
            rss_ceiling_bytes: 1536 * 1024 * 1024,
            oracle_prefix_windows: 2,
            oracle_shard_counts: vec![1, 4],
            min_alerts_per_hour: 1_000_000.0,
            wire: WireFormat::Binary,
        }
    }

    /// The full soak: [`scenarios::soak`] (three simulated days, 8000
    /// strategies, six tenants) — the million-alert-scale run behind
    /// `BENCH_soak.json`.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        Self {
            scenario: scenarios::soak(seed),
            shards: 4,
            window_hours: 6,
            max_windows: None,
            queue_capacity: 16384,
            rss_ceiling_bytes: 2048 * 1024 * 1024,
            oracle_prefix_windows: 2,
            oracle_shard_counts: vec![1, 4],
            min_alerts_per_hour: 1_000_000.0,
            wire: WireFormat::Binary,
        }
    }
}

/// What a soak run measured and which gates held. Serialized verbatim
/// into `BENCH_soak.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed (the whole traffic stream is a function of it).
    pub seed: u64,
    /// Shard count of the daemon under load.
    pub shards: usize,
    /// Wire format the alerts traveled in (`"ndjson"` or `"binary"`).
    pub wire: String,
    /// Simulated hours per streamed window.
    pub window_hours: u64,
    /// Windows streamed and closed.
    pub windows: usize,
    /// Alerts written to the socket (all acked by window closes).
    pub alerts_sent: u64,
    /// Wall-clock duration of the streaming phase.
    pub elapsed_secs: f64,
    /// Sustained throughput over the wire.
    pub alerts_per_sec: f64,
    /// The same throughput as an hourly-equivalent rate — the unit the
    /// ≥ 1M/hour acceptance gate is stated in.
    pub alerts_per_hour_equiv: f64,
    /// Window-close latency quantiles, scraped from the daemon's
    /// `alertops_window_close_micros` histogram.
    pub close_p50_micros: u64,
    /// 99th percentile window close, microseconds.
    pub close_p99_micros: u64,
    /// 99.9th percentile window close, microseconds.
    pub close_p999_micros: u64,
    /// Largest per-shard queue depth seen across per-window scrapes.
    pub max_queue_depth: u64,
    /// Peak resident set size sampled across the soak (0 when the
    /// platform has no procfs).
    pub peak_rss_bytes: u64,
    /// The asserted ceiling.
    pub rss_ceiling_bytes: u64,
    /// Whether RSS sampling was available at all.
    pub rss_supported: bool,
    /// `peak_rss_bytes <= rss_ceiling_bytes` (vacuously true without
    /// procfs).
    pub ceiling_ok: bool,
    /// Alerts shed by overflow policy (must be 0 for identity to hold).
    pub dropped: u64,
    /// The conservation law held over the whole soak.
    pub conservation_ok: bool,
    /// Leading windows replayed through the oracle.
    pub oracle_prefix_windows: usize,
    /// Shard counts the oracle ran at.
    pub oracle_shard_counts: Vec<usize>,
    /// Live prefix snapshots matched the oracle at every shard count.
    pub outputs_identical: bool,
}

impl SoakReport {
    /// Checks every hard gate: identity, conservation, the memory
    /// ceiling, zero drops, and the `min_rate` alerts/hour floor.
    ///
    /// # Errors
    ///
    /// Returns the first violated gate as a human-readable message.
    pub fn check_gates(&self, min_rate: f64) -> Result<(), String> {
        if !self.outputs_identical {
            return Err("live soak snapshots diverged from the batch oracle".into());
        }
        if !self.conservation_ok {
            return Err(
                "conservation law violated: ingested != delivered + dropped + quarantined".into(),
            );
        }
        if self.dropped != 0 {
            return Err(format!("{} alerts dropped under load", self.dropped));
        }
        if !self.ceiling_ok {
            return Err(format!(
                "peak RSS {} exceeded the {} byte ceiling",
                self.peak_rss_bytes, self.rss_ceiling_bytes
            ));
        }
        if self.alerts_per_hour_equiv < min_rate {
            return Err(format!(
                "sustained rate {:.0} alerts/hour is under the {min_rate:.0} floor",
                self.alerts_per_hour_equiv
            ));
        }
        Ok(())
    }
}

/// Per-shard governor factory mirroring the CLI/daemon construction:
/// each shard governs its slice of the shared catalog.
fn shard_governor(strategies: &[AlertStrategy], shards: usize, shard: usize) -> StreamingGovernor {
    let catalog = shard_catalog(strategies, shards, shard);
    StreamingGovernor::new(
        AlertGovernor::new(catalog, GovernorConfig::default()),
        StreamingConfig::default(),
    )
}

/// Strips the one field sharding is *not* exact for: triage
/// (cross-strategy correlation runs within each shard only). Everything
/// else must be byte-identical across shard counts and transports.
fn comparable(snapshot: &GovernanceSnapshot) -> GovernanceSnapshot {
    GovernanceSnapshot {
        triage: Vec::new(),
        ..snapshot.clone()
    }
}

/// Scrapes one `metrics` document from the daemon's status socket.
fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"metrics\n")?;
    let mut body = String::new();
    stream.read_to_string(&mut body)?;
    Ok(body)
}

/// Replays `windows` through an in-process daemon at `shards` shards
/// (route + flush, no sockets) and returns the per-window snapshots —
/// the oracle the live soak's prefix is compared against.
fn oracle_snapshots(
    strategies: &[AlertStrategy],
    windows: &[Vec<Alert>],
    shards: usize,
    queue_capacity: usize,
) -> io::Result<Vec<GovernanceSnapshot>> {
    let config = IngestdConfig {
        shards,
        queue_capacity,
        ..IngestdConfig::default()
    };
    let handle = Ingestd::spawn(&config, |shard, shards| {
        shard_governor(strategies, shards, shard)
    })?;
    let mut snapshots = Vec::with_capacity(windows.len());
    for window in windows {
        for alert in window {
            handle.route(alert.clone());
        }
        snapshots.push(
            handle
                .flush()
                .ok_or_else(|| io::Error::other("oracle flush yielded no snapshot"))?,
        );
    }
    handle.shutdown();
    Ok(snapshots)
}

/// Runs one soak: spawn a live daemon, stream the scenario over TCP
/// window by window, observe it from the outside, and evaluate every
/// gate. See the module docs for the gate list.
///
/// # Errors
///
/// Propagates socket and daemon-spawn failures; gate *violations* are
/// not errors — they land in the report for [`SoakReport::check_gates`]
/// (and the CI grep over `BENCH_soak.json`) to flag.
///
/// # Panics
///
/// Panics if the scenario's engine is not statistical.
pub fn run_soak(config: &SoakConfig) -> io::Result<SoakReport> {
    let mut stream = StatisticalStream::new(&config.scenario);
    let strategies = stream.catalog().strategies().to_vec();

    let daemon_config = IngestdConfig {
        shards: config.shards,
        queue_capacity: config.queue_capacity,
        listen: Some("127.0.0.1:0".to_owned()),
        status: Some("127.0.0.1:0".to_owned()),
        wire: config.wire,
        ..IngestdConfig::default()
    };
    let handle = Ingestd::spawn(&daemon_config, |shard, shards| {
        shard_governor(&strategies, shards, shard)
    })?;
    let ingest_addr = handle
        .ingest_addr()
        .ok_or_else(|| io::Error::other("ingress listener not bound"))?;
    let status_addr = handle
        .status_addr()
        .ok_or_else(|| io::Error::other("status listener not bound"))?;
    let mut connection = IngressClient::connect(ingest_addr, config.wire)?;

    let mut windows = 0usize;
    let mut alerts_sent = 0u64;
    let mut peak_rss = 0u64;
    let mut max_queue_depth = 0u64;
    let mut prefix_windows: Vec<Vec<Alert>> = Vec::new();
    let mut live_prefix: Vec<GovernanceSnapshot> = Vec::new();

    let started = Instant::now();
    while let Some(window) = stream.next_window(config.window_hours) {
        if config.max_windows.is_some_and(|max| windows >= max) {
            break;
        }
        alerts_sent += window.len() as u64;
        connection.send_alerts(&window)?;
        // Scrape between send and close, while the shard queues are
        // live — the external view of backpressure.
        let mid = Exposition::parse(&scrape_metrics(status_addr)?);
        if let Some(depth) = mid.max_of("alertops_queue_depth") {
            max_queue_depth = max_queue_depth.max(depth);
        }
        // The window-close barrier: the ack arrives once the merged
        // snapshot is published.
        let ack = connection.request(&Frame::Flush)?;
        if !matches!(ack, AckFrame::Flush { .. }) {
            return Err(io::Error::other(format!(
                "expected a flush ack, got {ack:?}"
            )));
        }
        if windows < config.oracle_prefix_windows {
            live_prefix.push(
                handle
                    .latest_snapshot()
                    .ok_or_else(|| io::Error::other("flush published no snapshot"))?,
            );
            prefix_windows.push(window);
        }
        if let Some(rss) = alertops_obs::process::rss_bytes() {
            peak_rss = peak_rss.max(rss);
        }
        windows += 1;
    }
    let elapsed = started.elapsed();

    // Final external scrape: close-latency quantiles as a monitoring
    // stack would read them.
    let exposition = Exposition::parse(&scrape_metrics(status_addr)?);
    let quantile = |q| {
        exposition
            .histogram_quantile("alertops_window_close_micros", q)
            .unwrap_or(0)
    };
    let (close_p50, close_p99, close_p999) = (quantile(0.5), quantile(0.99), quantile(0.999));

    drop(connection);
    let counters = handle.counters();
    handle.shutdown();

    let mut outputs_identical = true;
    for &shards in &config.oracle_shard_counts {
        let oracle = oracle_snapshots(&strategies, &prefix_windows, shards, config.queue_capacity)?;
        for (live, want) in live_prefix.iter().zip(oracle.iter()) {
            if comparable(live) != comparable(want) {
                outputs_identical = false;
            }
        }
    }

    let rss_supported = alertops_obs::process::rss_bytes().is_some();
    let elapsed_secs = elapsed.as_secs_f64().max(f64::EPSILON);
    #[allow(clippy::cast_precision_loss)]
    let alerts_per_sec = alerts_sent as f64 / elapsed_secs;
    Ok(SoakReport {
        scenario: config.scenario.name.clone(),
        seed: config.scenario.seed,
        shards: config.shards,
        wire: config.wire.label().to_owned(),
        window_hours: config.window_hours,
        windows,
        alerts_sent,
        elapsed_secs,
        alerts_per_sec,
        alerts_per_hour_equiv: alerts_per_sec * 3600.0,
        close_p50_micros: close_p50,
        close_p99_micros: close_p99,
        close_p999_micros: close_p999,
        max_queue_depth,
        peak_rss_bytes: peak_rss,
        rss_ceiling_bytes: config.rss_ceiling_bytes,
        rss_supported,
        ceiling_ok: !rss_supported || peak_rss <= config.rss_ceiling_bytes,
        dropped: counters.dropped,
        conservation_ok: counters.is_conserved(),
        oracle_prefix_windows: prefix_windows.len(),
        oracle_shard_counts: config.oracle_shard_counts.clone(),
        outputs_identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{SimTime, TimeRange};

    /// A truncated smoke soak small enough for a unit test: the whole
    /// TCP → daemon → oracle loop, every gate evaluated.
    #[test]
    fn truncated_smoke_soak_passes_every_gate() {
        let mut config = SoakConfig::smoke(11);
        config.scenario.range = TimeRange::new(SimTime::from_hours(0), SimTime::from_hours(8));
        config.max_windows = Some(2);
        config.min_alerts_per_hour = 1.0;
        let report = run_soak(&config).expect("soak runs");
        assert_eq!(report.wire, "binary");
        assert_eq!(report.windows, 2);
        assert!(
            report.alerts_sent > 100,
            "too quiet: {}",
            report.alerts_sent
        );
        assert!(report.outputs_identical, "prefix diverged from the oracle");
        assert!(report.conservation_ok, "conservation law violated");
        assert_eq!(report.dropped, 0);
        assert!(report.ceiling_ok);
        assert_eq!(report.oracle_prefix_windows, 2);
        report.check_gates(1.0).expect("gates hold");
        assert!(
            report.check_gates(f64::INFINITY).is_err(),
            "an impossible rate floor must fail the rate gate"
        );
    }

    /// The same truncated soak over NDJSON lines (the test above runs
    /// the binary default): the daemon's published snapshots must
    /// match the (format-blind, in-process) oracle exactly — the
    /// encoding buys throughput, never a different answer.
    #[test]
    fn ndjson_wire_soak_matches_the_oracle() {
        let mut config = SoakConfig::smoke(11);
        config.scenario.range = TimeRange::new(SimTime::from_hours(0), SimTime::from_hours(8));
        config.max_windows = Some(2);
        config.min_alerts_per_hour = 1.0;
        config.wire = WireFormat::Ndjson;
        let report = run_soak(&config).expect("ndjson soak runs");
        assert_eq!(report.wire, "ndjson");
        assert_eq!(report.windows, 2);
        assert!(report.outputs_identical, "ndjson wire changed the output");
        report
            .check_gates(1.0)
            .expect("gates hold over ndjson wire");
    }

    /// The soak traffic itself is deterministic: two streams of the
    /// same truncated scenario are identical window for window.
    #[test]
    fn soak_traffic_is_seed_deterministic() {
        let config = SoakConfig::smoke(23);
        let mut a = StatisticalStream::new(&config.scenario);
        let mut b = StatisticalStream::new(&config.scenario);
        for _ in 0..2 {
            assert_eq!(
                a.next_window(config.window_hours),
                b.next_window(config.window_hours)
            );
        }
    }
}
