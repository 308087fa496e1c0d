//! The `alertops` command-line tool: simulate a cloud, govern its alert
//! stream, lint strategies, and hunt storms — from a shell.
//!
//! ```text
//! alertops simulate --scenario mini-study --seed 7 [--json out.json]
//! alertops govern   --scenario quickstart --seed 7 [--top N]
//! alertops lint     --scenario quickstart --seed 7
//! alertops storms   --scenario mini-study --seed 7 [--threshold 100]
//! alertops audit    --scenario mini-study --seed 7
//! alertops ingestd  --scenario study --shards 4 [--listen ADDR] [--status ADDR] [--wal DIR]
//! alertops cluster  --scenario study --nodes 3 [--shards N] [--wal DIR] [--flush-every N]
//! alertops replay   --scenario study [--connect ADDR] [--wire ndjson|binary] [--rate N] [--shutdown]
//! alertops metrics  [--status ADDR]
//! ```
//!
//! Every subcommand runs a named scenario (there is no external data to
//! load — the simulator *is* the data source, see DESIGN.md) and prints
//! human-readable output; `--json FILE` additionally dumps the full
//! machine-readable result.
//!
//! `ingestd` runs the sharded ingestion daemon (see `alertops::ingestd`)
//! with per-shard streaming governors built from the scenario's catalog;
//! with `--wal DIR` it journals every accepted alert to a durable
//! write-ahead log and replays the log on startup (lossless restart,
//! `kill -9` included, QoA model kept). `cluster` runs an N-node in-process cluster
//! (see `alertops::cluster`) over the scenario trace: range routing,
//! per-node WALs, and one merged governance snapshot per window.
//! `replay` streams the scenario's alert trace into a running daemon
//! over TCP in the daemon's `--wire` format, closing windows along the
//! way; `metrics` scrapes a
//! running daemon's Prometheus text exposition from its status socket.

use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alertops::core::prelude::*;
use alertops::ingestd::codec::ack_line;
use alertops::ingestd::{
    shard_catalog, Ingestd, IngestdConfig, IngressClient, OverflowPolicy, WireFormat,
};
use alertops::model::indicates_incident;
use alertops::react::{audit_blocker_with, review_queue};
use alertops::sim::scenarios::{self, Scenario};
use alertops::sim::SimOutput;
use alertops::wire::Frame;
use alertops_chaos::Backoff;

fn usage() -> ExitCode {
    eprintln!(
        "usage: alertops <simulate|govern|lint|storms|audit|ingestd|cluster|replay|metrics> \
         [--scenario quickstart|mini-study|storm|cascade|study] [--seed N] \
         [--json FILE] [--top N] [--threshold N] \
         [--shards N] [--queue N] [--tick-ms N] [--overflow block|drop] \
         [--listen ADDR] [--status ADDR] [--wire ndjson|binary] [--chaos] \
         [--no-metrics] [--emerging] \
         [--emerging-budget TOKENS] [--qoa] [--qoa-noise P] \
         [--nodes N] [--wal DIR] \
         [--connect ADDR] [--rate N] [--flush-every N] [--shutdown]"
    );
    ExitCode::FAILURE
}

struct Args {
    command: String,
    scenario: String,
    seed: u64,
    json: Option<String>,
    top: usize,
    threshold: usize,
    // ingestd
    shards: usize,
    queue: usize,
    tick_ms: Option<u64>,
    overflow: OverflowPolicy,
    listen: String,
    status: String,
    /// Ingress wire format (`--wire`): NDJSON lines or binary frames.
    /// `ingestd` listens in it, `replay` speaks it.
    wire: WireFormat,
    chaos: bool,
    metrics: bool,
    emerging: bool,
    /// Per-window token cap for the emerging channel (storm-load
    /// sampling); `None` keeps AO-LDA exact.
    emerging_budget: Option<usize>,
    /// `--qoa`: turn the streaming QoA feedback loop on. The daemon
    /// scores forwarded samples at every close; the cluster also
    /// labels each window with the simulator's seeded feedback oracle.
    qoa: bool,
    /// `--qoa-noise P`: the oracle's per-verdict flip probability.
    qoa_noise: f64,
    // ingestd --wal / cluster
    wal: Option<String>,
    nodes: usize,
    // replay
    connect: String,
    rate: u64,
    flush_every: usize,
    shutdown: bool,
}

fn parse_args() -> Option<Args> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next()?;
    let mut args = Args {
        command,
        scenario: "quickstart".to_owned(),
        seed: 7,
        json: None,
        top: 10,
        threshold: 100,
        shards: 4,
        queue: 1024,
        tick_ms: None,
        overflow: OverflowPolicy::Block,
        listen: "127.0.0.1:4501".to_owned(),
        status: "127.0.0.1:4502".to_owned(),
        wire: WireFormat::default(),
        chaos: false,
        metrics: true,
        emerging: false,
        emerging_budget: None,
        qoa: false,
        qoa_noise: 0.0,
        wal: None,
        nodes: 3,
        connect: "127.0.0.1:4501".to_owned(),
        rate: 0,
        flush_every: 0,
        shutdown: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--shutdown" {
            args.shutdown = true;
            continue;
        }
        if flag == "--chaos" {
            args.chaos = true;
            continue;
        }
        if flag == "--no-metrics" {
            args.metrics = false;
            continue;
        }
        if flag == "--emerging" {
            args.emerging = true;
            continue;
        }
        if flag == "--qoa" {
            args.qoa = true;
            continue;
        }
        let mut value = || argv.next();
        match flag.as_str() {
            "--scenario" => args.scenario = value()?,
            "--seed" => args.seed = value()?.parse().ok()?,
            "--emerging-budget" => args.emerging_budget = Some(value()?.parse().ok()?),
            "--qoa-noise" => {
                args.qoa_noise = value()?.parse().ok()?;
                if !(0.0..=1.0).contains(&args.qoa_noise) {
                    return None;
                }
            }
            "--json" => args.json = Some(value()?),
            "--top" => args.top = value()?.parse().ok()?,
            "--threshold" => args.threshold = value()?.parse().ok()?,
            "--shards" => args.shards = value()?.parse().ok()?,
            "--queue" => args.queue = value()?.parse().ok()?,
            "--tick-ms" => args.tick_ms = Some(value()?.parse().ok()?),
            "--overflow" => {
                args.overflow = match value()?.as_str() {
                    "block" => OverflowPolicy::Block,
                    "drop" => OverflowPolicy::Drop,
                    _ => return None,
                };
            }
            "--listen" => args.listen = value()?,
            "--status" => args.status = value()?,
            "--wire" => args.wire = value()?.parse().ok()?,
            "--wal" => args.wal = Some(value()?),
            "--nodes" => args.nodes = value()?.parse().ok()?,
            "--connect" => args.connect = value()?,
            "--rate" => args.rate = value()?.parse().ok()?,
            "--flush-every" => args.flush_every = value()?.parse().ok()?,
            _ => return None,
        }
    }
    Some(args)
}

fn scenario_by_name(name: &str, seed: u64) -> Option<Scenario> {
    Some(match name {
        "quickstart" => scenarios::quickstart(seed),
        "mini-study" => scenarios::mini_study(seed),
        "storm" => scenarios::storm_fig3(seed),
        "cascade" => scenarios::cascade_table2(seed),
        "study" => scenarios::study(seed),
        _ => return None,
    })
}

/// What every governor of one run shares, built once per process: the
/// scenario's SOPs by strategy, the guideline context, and one
/// dependency graph. Each governor built from it holds refcounts to the
/// SOPs and the graph, not copies.
struct GovernorParts {
    sops: HashMap<StrategyId, Sop>,
    guideline_context: GuidelineContext,
    graph: Arc<DependencyGraph>,
}

impl GovernorParts {
    fn new(out: &SimOutput) -> Self {
        let fault_tolerant: BTreeSet<MicroserviceId> = out
            .topology
            .microservices()
            .iter()
            .filter(|ms| ms.fault_tolerant)
            .map(|ms| ms.id)
            .collect();
        let sops = out
            .catalog
            .strategies()
            .iter()
            .filter_map(|s| Some((s.id(), out.catalog.sop(s.id())?.clone())))
            .collect();
        Self {
            sops,
            guideline_context: GuidelineContext { fault_tolerant },
            graph: Arc::new(out.topology.dependency_graph()),
        }
    }

    /// A governor over `strategies` (any sub-catalog of the scenario's),
    /// configured exactly as the full-catalog one: same guideline
    /// context, the sub-catalog's SOPs, and the scenario's dependency
    /// graph.
    fn governor(&self, strategies: Vec<AlertStrategy>) -> AlertGovernor {
        let sops: Vec<Sop> = strategies
            .iter()
            .filter_map(|s| self.sops.get(&s.id()).cloned())
            .collect();
        AlertGovernor::new(
            strategies,
            GovernorConfig {
                guideline_context: self.guideline_context.clone(),
            },
        )
        .with_sops(sops)
        .with_dependency_graph(Arc::clone(&self.graph))
    }
}

fn build_governor(out: &SimOutput) -> AlertGovernor {
    GovernorParts::new(out).governor(out.catalog.strategies().to_vec())
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if !matches!(
        args.command.as_str(),
        "simulate"
            | "govern"
            | "lint"
            | "storms"
            | "audit"
            | "ingestd"
            | "cluster"
            | "replay"
            | "metrics"
    ) {
        eprintln!("unknown command `{}`", args.command);
        return usage();
    }
    if args.command == "metrics" {
        // Scrapes a running daemon — no scenario to build.
        return run_metrics(&args.status);
    }
    let Some(scenario) = scenario_by_name(&args.scenario, args.seed) else {
        eprintln!("unknown scenario `{}`", args.scenario);
        return usage();
    };
    eprintln!(
        "running scenario `{}` (seed {}) ...",
        scenario.name, args.seed
    );
    let out = scenario.run();

    match args.command.as_str() {
        "simulate" => {
            println!(
                "{} alerts, {} strategies, {} microservices, {} incidents, {} fault events",
                out.alerts.len(),
                out.catalog.strategies().len(),
                out.topology.microservices().len(),
                out.incidents.len(),
                out.faults.events().len()
            );
            for alert in out.alerts.iter().take(args.top) {
                println!("  {alert}");
            }
            if let Some(path) = &args.json {
                match serde_json::to_string(&out.alerts) {
                    Ok(json) => {
                        if let Err(err) = std::fs::write(path, json) {
                            eprintln!("failed to write {path}: {err}");
                            return ExitCode::FAILURE;
                        }
                        println!("wrote alert stream to {path}");
                    }
                    Err(err) => {
                        eprintln!("serialization failed: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        "govern" => {
            let governor = build_governor(&out);
            let report = governor.govern(&out.alerts, &out.incidents);
            println!("{report}");
            println!("review shortlist:");
            for qoa in report.review_shortlist(args.top) {
                let title = out
                    .catalog
                    .strategy(qoa.strategy)
                    .map_or("?", |s| s.title_template());
                println!(
                    "  {} QoA {:.2} ({} alerts)  {title:?}",
                    qoa.strategy,
                    qoa.scores.overall(),
                    qoa.alert_count
                );
            }
        }
        "lint" => {
            let governor = build_governor(&out);
            let violations = governor.lint();
            println!(
                "{} guideline violations across {} strategies",
                violations.len(),
                out.catalog.strategies().len()
            );
            for violation in violations.iter().take(args.top) {
                println!("  {violation}");
            }
        }
        "storms" => {
            let storms = alertops::detect::storm::detect_storms(
                &out.alerts,
                &alertops::detect::StormConfig {
                    hourly_threshold: args.threshold,
                },
            );
            println!(
                "{} storm(s) at threshold {}/region/hour:",
                storms.len(),
                args.threshold
            );
            for storm in &storms {
                println!(
                    "  {} {} — {} alerts over {} hour(s), peak {}/hour",
                    storm.region,
                    storm.window,
                    storm.total_alerts,
                    storm.duration_hours(),
                    storm.peak_hourly
                );
            }
        }
        "audit" => {
            let governor = build_governor(&out);
            let findings = governor.detect(&out.alerts, &out.incidents);
            let blocker = governor.derive_blocker(&findings);
            let audits = audit_blocker_with(&blocker, &out.alerts, |alert| {
                // Precise harm check: the alert indicated an incident on
                // its own service (via the catalog).
                out.catalog
                    .strategy(alert.strategy())
                    .is_some_and(|strategy| {
                        indicates_incident(&out.incidents, strategy.service(), alert.raised_at())
                    })
            });
            println!(
                "{} derived blocking rules; {} need review:",
                audits.len(),
                review_queue(&audits).len()
            );
            for audit in review_queue(&audits).into_iter().take(args.top) {
                println!(
                    "  {} — {} hits, stale: {}, suppressed near incidents: {}",
                    audit.rule, audit.total_hits, audit.stale, audit.suppressed_indicative
                );
            }
        }
        "ingestd" => return run_ingestd(&args, &out),
        "cluster" => return run_cluster(&args, &out),
        "replay" => return run_replay(&args, &out),
        _ => unreachable!("command validated before the scenario ran"),
    }
    ExitCode::SUCCESS
}

/// The shard configuration of `ingestd` and `cluster`, from `--emerging`,
/// `--emerging-budget` and `--qoa`. Shards forward their documents and
/// QoA samples and run no pass of their own: the merge point runs the one
/// sequential AO-LDA pass and the one model update (pushing the verdicts
/// back down), so shard and node counts cannot change output.
fn forwarding_streaming(args: &Args) -> StreamingConfig {
    let mut streaming = StreamingConfig::default();
    if args.emerging {
        streaming.emerging.mode = ChannelMode::Forward;
        if let Some(cap) = args.emerging_budget {
            streaming.emerging.config.budget = Some(EmergingBudget::new(cap, args.seed));
        }
    }
    if args.qoa {
        streaming.qoa.mode = ChannelMode::Forward;
    }
    streaming
}

/// Runs the sharded ingestion daemon until a connection sends
/// `{"ctrl":"shutdown"}` (or the process is killed).
///
/// With `--wal DIR` the daemon journals write-ahead and restarts from
/// `DIR` through `Ingestd::spawn_with_wal`: lossless after a clean exit
/// or a `kill -9`, QoA model included.
fn run_ingestd(args: &Args, out: &SimOutput) -> ExitCode {
    let config = IngestdConfig {
        shards: args.shards,
        queue_capacity: args.queue,
        tick: args.tick_ms.map(Duration::from_millis),
        overflow: args.overflow,
        streaming: forwarding_streaming(args),
        listen: Some(args.listen.clone()),
        wire: args.wire,
        status: Some(args.status.clone()),
        metrics: args.metrics,
        chaos: args.chaos,
    };

    let parts = GovernorParts::new(out);
    let handle = match Ingestd::spawn_with_wal(
        &config,
        |shard, shards| {
            let catalog = shard_catalog(out.catalog.strategies(), shards, shard);
            StreamingGovernor::new(parts.governor(catalog), config.streaming.clone())
        },
        args.wal.as_deref().map(std::path::Path::new),
    ) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("ingestd failed to start: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(recovery) = handle.wal_recovery() {
        println!(
            "wal replay: {} alert(s) recovered ({} sealed window(s), {} in flight), {} torn record(s)",
            recovery.recovered_alerts,
            recovery.windows,
            recovery.in_flight,
            recovery.torn_records
        );
    }

    let addr = |a: Option<std::net::SocketAddr>| a.map_or_else(|| "-".into(), |a| a.to_string());
    println!(
        "ingestd up: {} shard(s), ingest {}, status {}",
        args.shards,
        addr(handle.ingest_addr()),
        addr(handle.status_addr()),
    );
    println!(
        "frames: alertops-wire, {} encoding (acks come back in the same encoding)",
        args.wire
    );
    if args.chaos {
        println!("chaos mode: panic/stall/resume control frames accepted");
    }
    if args.emerging {
        match args.emerging_budget {
            Some(cap) => println!(
                "emerging channel on: AO-LDA report published per window close \
                 (token budget {cap}/window, seeded sampling under storm load)"
            ),
            None => println!("emerging channel on: AO-LDA report published per window close"),
        }
    }
    if args.qoa {
        println!(
            "qoa feedback loop on: online model updates per window close \
             (labels arrive with labeled flushes; unlabeled windows still score)"
        );
    }
    handle.wait_for_shutdown_request();
    let counters = handle.counters();
    // A sick disk must not be silent: past the first failed write the
    // log is no longer a complete record of what was accepted.
    let wal_write_errors = handle.wal_write_errors();
    handle.shutdown();
    println!(
        "ingestd stopped: {} ingested, {} dropped, {} decode error(s), {} window(s) closed, \
         {} wal write error(s)",
        counters.ingested,
        counters.dropped,
        counters.decode_errors,
        counters.windows_closed,
        wal_write_errors
    );
    if wal_write_errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the scenario trace through an N-node in-process cluster:
/// range-routed nodes, per-node write-ahead logs, one merged
/// governance snapshot per `--flush-every` alerts. Prints the final
/// snapshot, the conservation accounting, and (with metrics on) the
/// `alertops_cluster_*` exposition.
fn run_cluster(args: &Args, out: &SimOutput) -> ExitCode {
    use alertops::cluster::{AlertCluster, ClusterConfig};

    let node = IngestdConfig {
        shards: args.shards,
        queue_capacity: args.queue,
        overflow: args.overflow,
        streaming: forwarding_streaming(args),
        metrics: false,
        ..IngestdConfig::default()
    };
    let wal_root = args.wal.clone().map_or_else(
        || std::env::temp_dir().join(format!("alertops-cluster-{}", std::process::id())),
        std::path::PathBuf::from,
    );
    let config = ClusterConfig {
        nodes: args.nodes,
        node,
        wal_root: wal_root.clone(),
        wal_format: alertops::cluster::WalFormat::default(),
    };

    let parts = GovernorParts::new(out);
    let factory_streaming = config.node.streaming.clone();
    let factory: alertops::cluster::GovernorFactory = Arc::new(move |catalog| {
        StreamingGovernor::new(parts.governor(catalog.to_vec()), factory_streaming.clone())
    });

    let mut cluster = match AlertCluster::spawn(config, out.catalog.strategies().to_vec(), factory)
    {
        Ok(cluster) => cluster,
        Err(err) => {
            eprintln!("cluster failed to start: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "cluster up: {} node(s) x {} shard(s), wal at {}",
        args.nodes,
        args.shards,
        wal_root.display()
    );
    for (range, node) in cluster.range_map().spans() {
        println!("  node {node}: strategies {}..={}", range.start, range.end);
    }

    let oracle = args
        .qoa
        .then(|| alertops::sim::FeedbackOracle::new(args.seed, args.qoa_noise));
    if oracle.is_some() {
        println!(
            "qoa feedback loop on: seeded oracle labels every window (noise {})",
            args.qoa_noise
        );
    }
    let label = |cluster: &AlertCluster, window: &[Alert]| -> Vec<QoaLabel> {
        oracle.as_ref().map_or_else(Vec::new, |oracle| {
            oracle.label_window(
                cluster.next_window_seq(),
                &out.catalog,
                window,
                &out.incidents,
            )
        })
    };

    let per_window = if args.flush_every > 0 {
        args.flush_every
    } else {
        500
    };
    let mut window_start = 0;
    for (index, alert) in out.alerts.iter().enumerate() {
        // A failed append sheds the alert and is counted; the run goes
        // on and the exit status reports it.
        let _ = cluster.route(alert.clone());
        if (index + 1) % per_window == 0 {
            let labels = label(&cluster, &out.alerts[window_start..=index]);
            window_start = index + 1;
            if let Err(err) = cluster.close_window_labeled(labels) {
                eprintln!("window close failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let labels = label(&cluster, &out.alerts[window_start..]);
    match cluster.close_window_labeled(labels) {
        Ok(snapshot) => {
            println!(
                "final window {}: {} alert(s), {} finding(s) flagged, {} storm(s), triage depth {}",
                snapshot.window_index,
                snapshot.alert_count,
                snapshot.new_findings.len(),
                snapshot.storms.len(),
                snapshot.triage.len()
            );
            if let Some(qoa) = &snapshot.qoa {
                println!(
                    "  qoa: {} sample(s) absorbed, {} strategy(ies) scored, {} demoted, {} promoted",
                    qoa.absorbed,
                    qoa.scored.len(),
                    qoa.demoted.len(),
                    qoa.promoted.len()
                );
            }
        }
        Err(err) => {
            eprintln!("final window close failed: {err}");
            return ExitCode::FAILURE;
        }
    }
    let counters = cluster.counters();
    println!(
        "conservation: {} ingested == {} delivered + {} dropped + {} quarantined + {} in flight ({})",
        counters.ingested,
        counters.delivered,
        counters.dropped,
        counters.quarantined,
        counters.in_flight,
        if counters.is_conserved() { "exact" } else { "VIOLATED" }
    );
    // A sick disk must not be silent, as on `ingestd stopped:`.
    let wal_write_errors = cluster.wal_write_errors();
    println!("wal: {wal_write_errors} write error(s)");
    if args.metrics {
        print!("{}", cluster.render_metrics());
    }
    cluster.shutdown();
    if args.wal.is_none() {
        // Ephemeral run: don't leave temp logs behind.
        let _ = std::fs::remove_dir_all(&wal_root);
    }
    if counters.is_conserved() && wal_write_errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Scrapes a running daemon's Prometheus exposition: connect to the
/// status socket, send the `metrics` request line, stream the reply.
fn run_metrics(addr: &str) -> ExitCode {
    let scrape = || -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(b"metrics\n")?;
        let mut body = String::new();
        std::io::Read::read_to_string(&mut stream, &mut body)?;
        Ok(body)
    };
    match scrape() {
        Ok(body) => {
            print!("{body}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("metrics scrape from {addr} failed: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Streams the scenario's alert trace into a running daemon.
fn run_replay(args: &Args, out: &SimOutput) -> ExitCode {
    match replay_trace(args, out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("replay failed: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Connects with capped exponential backoff and seeded jitter, so a
/// daemon restarting mid-replay is retried instead of fatal (and
/// reconnect storms from parallel replayers decorrelate).
fn connect_with_backoff(
    addr: &str,
    wire: WireFormat,
    backoff: &mut Backoff,
) -> std::io::Result<IngressClient> {
    const MAX_ATTEMPTS: u32 = 8;
    loop {
        match IngressClient::connect(addr, wire) {
            Ok(client) => {
                backoff.reset();
                return Ok(client);
            }
            Err(err) if backoff.attempts() + 1 < MAX_ATTEMPTS => {
                let delay = backoff.next_delay();
                eprintln!(
                    "connect to {addr} failed ({err}); retry {} in {delay:?}",
                    backoff.attempts()
                );
                std::thread::sleep(delay);
            }
            Err(err) => return Err(err),
        }
    }
}

fn replay_trace(args: &Args, out: &SimOutput) -> std::io::Result<()> {
    let mut backoff = Backoff::new(Duration::from_millis(25), Duration::from_secs(2), args.seed);
    let mut conn = connect_with_backoff(&args.connect, args.wire, &mut backoff)?;
    let started = Instant::now();
    for (index, alert) in out.alerts.iter().enumerate() {
        // Pace against the absolute schedule so encoding time does not
        // accumulate into drift.
        if let Some(interval) = (index as u64 * 1_000_000).checked_div(args.rate) {
            let due = started + Duration::from_micros(interval);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let alert = std::slice::from_ref(alert);
        if conn.send_alerts(alert).is_err() {
            // Connection reset mid-stream: reconnect and resend this
            // alert (the daemon quarantines any half-written frame).
            eprintln!("connection lost at alert {index}; reconnecting");
            conn = connect_with_backoff(&args.connect, args.wire, &mut backoff)?;
            conn.send_alerts(alert)?;
        }
        if args.flush_every > 0 && (index + 1) % args.flush_every == 0 {
            println!("  window: {}", ack_line(&conn.request(&Frame::Flush)?));
        }
    }
    let ack = ack_line(&conn.request(&Frame::Flush)?);
    println!(
        "replayed {} alert(s) in {:.2}s; final {ack}",
        out.alerts.len(),
        started.elapsed().as_secs_f64()
    );
    if args.shutdown {
        println!(
            "daemon said: {}",
            ack_line(&conn.request(&Frame::Shutdown)?)
        );
    }
    Ok(())
}
