//! End-to-end tests for the `alertops-ingestd` daemon: a real TCP
//! round-trip over the NDJSON protocol, and the sharding-equivalence
//! guarantee (N shards merged == 1 shard) both on a fixed trace and as
//! a property over random traces.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use alertops::core::prelude::*;
use alertops::detect::StormConfig;
use alertops::ingestd::codec::encode_alert;
use alertops::ingestd::{
    shard_catalog, Ingestd, IngestdConfig, IngressClient, StatusReport, WireFormat, FLUSH_FRAME,
    SHUTDOWN_FRAME,
};
use alertops::model::LogRule;
use alertops::sim::scenarios;
use alertops::sim::SimOutput;
use alertops::wire::{AckFrame, Frame};

/// The injected A5 strategy: not part of any scenario catalog.
const REPEATER: StrategyId = StrategyId(9001);

fn repeater_strategy() -> AlertStrategy {
    AlertStrategy::builder(REPEATER)
        .title_template("haproxy process number warning")
        .kind(StrategyKind::Log(LogRule {
            keyword: "WARN".into(),
            min_count: 1,
            window: SimDuration::from_mins(5),
        }))
        .build()
        .expect("repeater strategy is well-formed")
}

/// 22 alerts/hour for three consecutive hours: trips the A5 burst rule
/// (`hourly_threshold` 18 in ≥ 2 hours) deterministically.
fn repeater_alerts() -> Vec<Alert> {
    let mut alerts = Vec::new();
    for hour in 0..3u64 {
        for i in 0..22u64 {
            alerts.push(
                Alert::builder(AlertId(1_000_000 + hour * 100 + i), REPEATER)
                    .title("haproxy process number warning")
                    .raised_at(SimTime::from_secs(hour * 3_600 + i * 163))
                    .build(),
            );
        }
    }
    alerts
}

/// Per-shard governor factory over `strategies`, mirroring what the
/// CLI builds (minus scenario-specific context, which the A5 check
/// does not need).
fn shard_governor(strategies: &[AlertStrategy], shards: usize, shard: usize) -> StreamingGovernor {
    let catalog = shard_catalog(strategies, shards, shard);
    StreamingGovernor::new(
        AlertGovernor::new(catalog, GovernorConfig::default()),
        StreamingConfig::default(),
    )
}

fn full_catalog(out: &SimOutput) -> Vec<AlertStrategy> {
    let mut strategies = out.catalog.strategies().to_vec();
    strategies.push(repeater_strategy());
    strategies
}

#[test]
fn daemon_flags_injected_repeater_through_the_sockets() {
    let out = scenarios::quickstart(7).run();
    let strategies = full_catalog(&out);

    let config = IngestdConfig {
        shards: 4,
        queue_capacity: 4096,
        listen: Some("127.0.0.1:0".to_owned()),
        status: Some("127.0.0.1:0".to_owned()),
        ..IngestdConfig::default()
    };
    let handle = Ingestd::spawn(&config, |shard, shards| {
        shard_governor(&strategies, shards, shard)
    })
    .expect("daemon starts");

    // Stream the scenario trace plus the injected repeater over TCP.
    let ingest_addr = handle.ingest_addr().expect("ingress listener bound");
    let stream = TcpStream::connect(ingest_addr).expect("connect to ingress");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = stream;
    let mut sent = 0usize;
    for alert in out.alerts.iter().chain(repeater_alerts().iter()) {
        writeln!(writer, "{}", encode_alert(alert)).expect("write alert");
        sent += 1;
    }
    writeln!(writer, "{FLUSH_FRAME}").expect("write flush");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read flush ack");
    assert!(
        ack.contains(&format!(r#""alerts":{sent}"#)),
        "flush ack should count every alert sent: {ack:?}"
    );

    // Scrape the status socket and parse the published document.
    let status_addr = handle.status_addr().expect("status listener bound");
    let mut status = String::new();
    TcpStream::connect(status_addr)
        .expect("connect to status")
        .read_to_string(&mut status)
        .expect("read status document");
    let report: StatusReport = serde_json::from_str(status.trim()).expect("status parses");

    assert_eq!(report.counters.ingested, sent as u64);
    assert_eq!(report.counters.dropped, 0, "nothing may be dropped");
    assert_eq!(report.counters.decode_errors, 0);
    assert_eq!(report.counters.windows_closed, 1);
    let snapshot = report.snapshot.expect("flush published a snapshot");
    assert_eq!(snapshot.alert_count, sent);
    assert!(
        snapshot
            .new_findings
            .iter()
            .any(|f| f.pattern == AntiPattern::Repeating && f.strategy == REPEATER),
        "merged snapshot must flag the injected repeating strategy; got {:?}",
        snapshot.new_findings
    );

    // Shutdown over the wire is acked, then the daemon joins cleanly.
    writeln!(writer, "{SHUTDOWN_FRAME}").expect("write shutdown");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read shutdown ack");
    assert_eq!(ack.trim(), r#"{"ack":"shutdown"}"#);
    drop((reader, writer));
    handle.wait_for_shutdown_request();
    handle.shutdown();
}

/// Routes `trace` through an in-process daemon with `shards` workers,
/// closing a window after each chunk; returns the merged snapshots.
fn snapshots_with_shards(
    strategies: &[AlertStrategy],
    chunks: &[&[Alert]],
    shards: usize,
) -> Vec<GovernanceSnapshot> {
    let config = IngestdConfig {
        shards,
        queue_capacity: 8192,
        ..IngestdConfig::default()
    };
    let handle = Ingestd::spawn(&config, |shard, shards| {
        shard_governor(strategies, shards, shard)
    })
    .expect("daemon starts");
    let mut snapshots = Vec::new();
    for chunk in chunks {
        for alert in *chunk {
            handle.route(alert.clone());
        }
        snapshots.push(handle.flush().expect("flush yields a snapshot"));
    }
    assert_eq!(handle.counters().dropped, 0);
    handle.shutdown();
    snapshots
}

/// Strips the field sharding is *not* exact for: triage (cross-strategy
/// correlation runs within each shard only).
fn comparable(snapshot: &GovernanceSnapshot) -> GovernanceSnapshot {
    GovernanceSnapshot {
        triage: Vec::new(),
        ..snapshot.clone()
    }
}

#[test]
fn sharded_snapshots_match_single_shard_on_a_scenario_trace() {
    let out = scenarios::quickstart(7).run();
    let strategies = full_catalog(&out);
    let mut trace = out.alerts.clone();
    trace.extend(repeater_alerts());
    trace.sort_by_key(|a| (a.raised_at(), a.id()));
    // Three windows, uneven on purpose.
    let (a, rest) = trace.split_at(trace.len() / 3);
    let (b, c) = rest.split_at(rest.len() / 2);
    let chunks = [a, b, c];

    let baseline = snapshots_with_shards(&strategies, &chunks, 1);
    for shards in [2usize, 4, 8] {
        let sharded = snapshots_with_shards(&strategies, &chunks, shards);
        assert_eq!(sharded.len(), baseline.len());
        for (window, (got, want)) in sharded.iter().zip(baseline.iter()).enumerate() {
            assert_eq!(
                comparable(got),
                comparable(want),
                "{shards}-shard window {window} diverged from the 1-shard baseline"
            );
        }
    }
}

/// Scrapes one document from the status socket, optionally sending a
/// request line first (None = the legacy bare connection).
fn scrape(addr: std::net::SocketAddr, request: Option<&str>) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to status");
    if let Some(verb) = request {
        stream
            .write_all(format!("{verb}\n").as_bytes())
            .expect("send request line");
    }
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read document");
    body
}

/// The full observability contract over the wire: after a real TCP
/// ingest (including a malformed frame) and a window close, the
/// `metrics` request must return a lintable Prometheus exposition
/// carrying every instrumented stage — frame codec, shard close,
/// barrier, merge, per-detector timing, reaction stages, streaming
/// ingest — plus the conservation counters.
#[test]
fn metrics_exposition_covers_every_instrumented_stage() {
    let out = scenarios::quickstart(7).run();
    let strategies = full_catalog(&out);
    let config = IngestdConfig {
        shards: 4,
        queue_capacity: 4096,
        listen: Some("127.0.0.1:0".to_owned()),
        status: Some("127.0.0.1:0".to_owned()),
        ..IngestdConfig::default()
    };
    let handle = Ingestd::spawn(&config, |shard, shards| {
        shard_governor(&strategies, shards, shard)
    })
    .expect("daemon starts");

    let ingest_addr = handle.ingest_addr().expect("ingress listener bound");
    let stream = TcpStream::connect(ingest_addr).expect("connect to ingress");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = stream;
    for alert in out.alerts.iter().chain(repeater_alerts().iter()) {
        writeln!(writer, "{}", encode_alert(alert)).expect("write alert");
    }
    writeln!(writer, "this is not json").expect("write malformed frame");
    writeln!(writer, "{FLUSH_FRAME}").expect("write flush");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read flush ack");
    // Release the connection so its handler thread (and with it the
    // worker queues) can wind down at shutdown.
    drop((reader, writer));

    let status_addr = handle.status_addr().expect("status listener bound");
    let text = scrape(status_addr, Some("metrics"));
    alertops::obs::lint_exposition(&text).expect("exposition lints");

    for family in [
        // Conservation counters, always present.
        "alertops_ingested_total",
        "alertops_delivered_total",
        "alertops_dropped_total",
        "alertops_backpressure_waits_total",
        "alertops_quarantined_total",
        "alertops_windows_closed_total",
        "alertops_degraded_windows_total",
        "alertops_shard_restarts_total",
        "alertops_last_window_micros",
        "alertops_queue_depth",
        // Frame codec.
        "alertops_frames_decoded_total",
        "alertops_frames_rejected_total",
        // Coordinator and shard close path.
        "alertops_window_close_micros",
        "alertops_barrier_wait_micros",
        "alertops_merge_micros",
        "alertops_shard_close_micros",
        // Detection pipeline.
        "alertops_detector_micros",
        "alertops_detector_findings_total",
        "alertops_detect_runs_total",
        "alertops_detect_alerts_scanned_total",
        // Reaction pipeline.
        "alertops_react_stage_micros",
        "alertops_react_input_total",
        "alertops_react_blocked_total",
        "alertops_react_groups_total",
        "alertops_react_clusters_total",
        // Streaming governor.
        "alertops_streaming_ingest_micros",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "exposition is missing the {family} family:\n{text}"
        );
    }
    // The instrumented hot paths actually fired.
    let sent = out.alerts.len() + repeater_alerts().len();
    assert!(text.contains(&format!("alertops_frames_decoded_total {}", sent + 1)));
    assert!(text.contains("alertops_frames_rejected_total 1"));
    assert!(text.contains("alertops_detect_runs_total 4"), "{text}");
    assert!(text.contains("alertops_windows_closed_total 1"));
    assert!(
        text.contains("alertops_window_close_micros_count 1"),
        "{text}"
    );
    assert!(text.contains("alertops_merge_micros_count 1"), "{text}");
    assert!(
        text.contains(r#"alertops_quarantined_total{reason="invalid_json"} 1"#),
        "{text}"
    );

    // And the handle-side render is the same machinery.
    alertops::obs::lint_exposition(&handle.render_metrics()).expect("handle render lints");
    handle.shutdown();
}

/// Status-socket versioning: `status` and the legacy bare connection
/// both return the JSON document, `metrics` switches to the
/// exposition, and an unknown verb gets a one-line error — old
/// scrapers keep working unchanged.
#[test]
fn metrics_status_socket_versioning_keeps_legacy_clients() {
    let out = scenarios::quickstart(7).run();
    let strategies = full_catalog(&out);
    let config = IngestdConfig {
        shards: 2,
        status: Some("127.0.0.1:0".to_owned()),
        ..IngestdConfig::default()
    };
    let handle = Ingestd::spawn(&config, |shard, shards| {
        shard_governor(&strategies, shards, shard)
    })
    .expect("daemon starts");
    for alert in out.alerts.iter().take(50) {
        handle.route(alert.clone());
    }
    handle.flush().expect("flush yields a snapshot");
    let addr = handle.status_addr().expect("status listener bound");

    // Legacy: connect and read, send nothing.
    let bare: StatusReport =
        serde_json::from_str(scrape(addr, None).trim()).expect("bare connection still gets JSON");
    assert_eq!(bare.counters.ingested, 50);

    // Versioned: explicit verbs, case-insensitive.
    let status: StatusReport = serde_json::from_str(scrape(addr, Some("STATUS")).trim())
        .expect("status verb gets the same JSON");
    assert_eq!(status.counters.ingested, bare.counters.ingested);

    let exposition = scrape(addr, Some("metrics"));
    assert!(exposition.starts_with("# HELP"), "{exposition}");
    alertops::obs::lint_exposition(&exposition).expect("exposition lints");

    let error = scrape(addr, Some("gimme"));
    assert!(
        error.starts_with("error: unknown request \"gimme\""),
        "{error}"
    );
    handle.shutdown();
}

/// The `healthz` verb: one cheap liveness line, no JSON, carrying the
/// two counters a cluster load balancer probes for — monotone windows
/// and ingest progress. Case-insensitive like the other verbs.
#[test]
fn healthz_answers_one_cheap_liveness_line() {
    let out = scenarios::quickstart(7).run();
    let strategies = full_catalog(&out);
    let config = IngestdConfig {
        shards: 2,
        status: Some("127.0.0.1:0".to_owned()),
        ..IngestdConfig::default()
    };
    let handle = Ingestd::spawn(&config, |shard, shards| {
        shard_governor(&strategies, shards, shard)
    })
    .expect("daemon starts");
    let addr = handle.status_addr().expect("status listener bound");

    assert_eq!(scrape(addr, Some("healthz")), "ok windows=0 ingested=0\n");

    for alert in out.alerts.iter().take(25) {
        handle.route(alert.clone());
    }
    handle.flush().expect("flush yields a snapshot");
    assert_eq!(scrape(addr, Some("healthz")), "ok windows=1 ingested=25\n");
    assert_eq!(
        scrape(addr, Some("HEALTHZ")),
        "ok windows=1 ingested=25\n",
        "verbs are case-insensitive"
    );
    handle.shutdown();
}

/// A close runs on whichever thread asks for it, and the merge lock
/// serializes them: four in-process flushers and two TCP connections
/// sending `Flush` frames, with alerts routed between their flushes,
/// get one distinct window index each, the indices are exactly `0..n`,
/// and every routed alert is delivered by exactly one window.
#[test]
fn concurrent_flushes_take_consecutive_windows() {
    const ROUNDS: usize = 12;
    let out = scenarios::quickstart(7).run();
    let strategies = full_catalog(&out);
    let config = IngestdConfig {
        shards: 2,
        listen: Some("127.0.0.1:0".to_owned()),
        ..IngestdConfig::default()
    };
    let handle = Ingestd::spawn(&config, |shard, shards| {
        shard_governor(&strategies, shards, shard)
    })
    .expect("daemon starts");
    let addr = handle.ingest_addr().expect("ingress bound");
    // Six callers, each with its own slice of the trace to route.
    let slices: Vec<&[Alert]> = out.alerts.chunks(out.alerts.len().div_ceil(6)).collect();
    assert_eq!(slices.len(), 6);

    let start = Barrier::new(slices.len());
    let windows: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let (handle, start) = (&handle, &start);
        let mut callers = Vec::new();
        for slice in &slices[..4] {
            callers.push(scope.spawn(move || {
                start.wait();
                let mut windows = Vec::new();
                for batch in slice.chunks(slice.len().div_ceil(ROUNDS)) {
                    for alert in batch {
                        handle.route(alert.clone());
                    }
                    let snapshot = handle.flush().expect("window closes");
                    windows.push((snapshot.window_index, snapshot.alert_count as u64));
                }
                windows
            }));
        }
        for slice in &slices[4..] {
            callers.push(scope.spawn(move || {
                let mut client = IngressClient::connect(addr, WireFormat::Ndjson).expect("connect");
                start.wait();
                let mut windows = Vec::new();
                for batch in slice.chunks(slice.len().div_ceil(ROUNDS)) {
                    client.send_alerts(batch).expect("send alerts");
                    match client.request(&Frame::Flush).expect("flush acked") {
                        AckFrame::Flush { window, alerts } => windows.push((window, alerts)),
                        other => panic!("expected a flush ack, got {other:?}"),
                    }
                }
                windows
            }));
        }
        callers
            .into_iter()
            .flat_map(|caller| caller.join().expect("caller finishes"))
            .collect()
    });

    let n = windows.len() as u64;
    let mut indices: Vec<u64> = windows.iter().map(|&(window, _)| window).collect();
    indices.sort_unstable();
    indices.dedup();
    assert_eq!(indices.len() as u64, n, "two closes shared a window index");
    assert_eq!(indices, (0..n).collect::<Vec<_>>());
    let counters = handle.counters();
    assert_eq!(counters.windows_closed, n);
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!(counters.ingested, out.alerts.len() as u64);
    assert_eq!(counters.delivered, out.alerts.len() as u64);
    let published: u64 = windows.iter().map(|&(_, alerts)| alerts).sum();
    assert_eq!(
        published,
        out.alerts.len() as u64,
        "each alert in one window"
    );
    handle.shutdown();
}

/// A ticking daemon stops at once: shutdown wakes the tick thread
/// instead of waiting out its interval.
#[test]
fn shutdown_does_not_wait_out_the_tick() {
    let config = IngestdConfig {
        shards: 2,
        tick: Some(Duration::from_secs(3_600)),
        ..IngestdConfig::default()
    };
    let handle = Ingestd::spawn(&config, |shard, shards| {
        shard_governor(&[repeater_strategy()], shards, shard)
    })
    .expect("daemon starts");
    for alert in repeater_alerts() {
        handle.route(alert);
    }
    let snapshot = handle.flush().expect("a flush closes between ticks");
    assert_eq!(snapshot.window_index, 0);
    // Shut down on a thread of its own, so a shutdown that sleeps out
    // the hour fails here instead of hanging the suite.
    let started = Instant::now();
    let (stopped_tx, stopped) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        handle.shutdown();
        let _ = stopped_tx.send(());
    });
    assert!(
        stopped.recv_timeout(Duration::from_secs(5)).is_ok(),
        "shutdown still waiting after {:?}",
        started.elapsed()
    );
    stopper.join().expect("shutdown does not panic");
}

mod properties {
    use super::*;
    use alertops::ingestd::shard_of;
    use proptest::prelude::*;

    /// A small catalog of dense-id strategies for random traces.
    fn catalog(strategies: u64) -> Vec<AlertStrategy> {
        (0..strategies)
            .map(|id| {
                AlertStrategy::builder(StrategyId(id))
                    .title_template("service latency is abnormal")
                    .kind(StrategyKind::Log(LogRule {
                        keyword: "ERROR".into(),
                        min_count: 1,
                        window: SimDuration::from_mins(5),
                    }))
                    .build()
                    .expect("catalog strategy is well-formed")
            })
            .collect()
    }

    /// Builds a time-sorted trace from `(strategy, hour, offset)` triples.
    fn trace_from(picks: &[(u64, u64, u64)]) -> Vec<Alert> {
        let mut alerts: Vec<Alert> = picks
            .iter()
            .enumerate()
            .map(|(i, &(strategy, hour, offset))| {
                Alert::builder(AlertId(i as u64), StrategyId(strategy))
                    .title("service latency is abnormal")
                    .raised_at(SimTime::from_secs(hour * 3_600 + offset % 3_600))
                    .build()
            })
            .collect();
        alerts.sort_by_key(|a| (a.raised_at(), a.id()));
        alerts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sharding_is_stable_and_in_range(id in 0u64..10_000, shards in 1usize..16) {
            let shard = shard_of(StrategyId(id), shards);
            prop_assert!(shard < shards);
            prop_assert_eq!(shard, shard_of(StrategyId(id), shards));
        }

        #[test]
        fn merged_sharded_deltas_equal_the_single_shard_snapshot(
            picks in proptest::collection::vec((0u64..6, 0u64..48, 0u64..3_600), 1..250),
            shards in 2usize..6,
        ) {
            let strategies = catalog(6);
            let trace = trace_from(&picks);

            // Single governor over the full catalog: the baseline.
            let mut single = shard_governor(&strategies, 1, 0);
            let baseline =
                GovernanceSnapshot::merge(&[single.ingest(&trace, &[])], &StormConfig::default());

            // One governor per shard, fed exactly its own strategies'
            // alerts, merged — must reproduce the baseline exactly.
            let deltas: Vec<WindowDelta> = (0..shards)
                .map(|shard| {
                    let window: Vec<Alert> = trace
                        .iter()
                        .filter(|a| shard_of(a.strategy(), shards) == shard)
                        .cloned()
                        .collect();
                    shard_governor(&strategies, shards, shard).ingest(&window, &[])
                })
                .collect();
            let merged = GovernanceSnapshot::merge(&deltas, &StormConfig::default());

            prop_assert_eq!(comparable(&merged), comparable(&baseline));
        }
    }
}
