//! End-to-end tests for the `alertops-ingestd` daemon: a real TCP
//! round-trip over the NDJSON protocol, and the sharding-equivalence
//! guarantee (N shards merged == 1 shard == the batch oracle) both on a
//! fixed trace and as a property over random traces.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use alertops::core::prelude::*;
use alertops::ingestd::codec::encode_alert;
use alertops::ingestd::{
    IngestdConfig, IngressClient, StatusReport, WireFormat, FLUSH_FRAME, SHUTDOWN_FRAME,
};
use alertops::sim::scenarios;
use alertops::wire::{AckFrame, Frame};

use common::{full_catalog, repeater_alerts, repeater_strategy, Case, Window, REPEATER};

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
    let handle = Case::new(strategies).daemon(config, None);

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

/// The quickstart trace of seed 7 plus the injected repeater, as three
/// uneven windows, on every topology against the batch oracle.
#[test]
fn sharded_snapshots_match_single_shard_on_a_scenario_trace() {
    let out = scenarios::quickstart(7).run();
    let mut trace = out.alerts.clone();
    trace.extend(repeater_alerts());
    trace.sort_by_key(|a| (a.raised_at(), a.id()));
    // Three windows, uneven on purpose.
    let (a, rest) = trace.split_at(trace.len() / 3);
    let (b, c) = rest.split_at(rest.len() / 2);
    let case = Case {
        windows: [a, b, c]
            .map(|alerts| Window {
                alerts: alerts.to_vec(),
                incidents: Vec::new(),
            })
            .into(),
        ..Case::new(full_catalog(&out))
    };
    common::assert_topologies_agree(&case);
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
    let handle = Case::new(strategies).daemon(config, None);

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
    let handle = Case::new(strategies).daemon(config, None);
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
    let handle = Case::new(strategies).daemon(config, None);
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
    let handle = Case::new(strategies).daemon(config, None);
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
    let handle = Case::new(vec![repeater_strategy()]).daemon(config, None);
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
    use common::Topology;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sharding_is_stable_and_in_range(id in 0u64..10_000, shards in 1usize..16) {
            let shard = shard_of(StrategyId(id), shards);
            prop_assert!(shard < shards);
            prop_assert_eq!(shard, shard_of(StrategyId(id), shards));
        }

        /// One governor over the full catalog and one per shard, each fed
        /// exactly its own strategies' alerts and merged, reproduce the
        /// batch oracle's snapshot of a random trace.
        #[test]
        fn merged_sharded_deltas_equal_the_single_shard_snapshot(
            picks in proptest::collection::vec((0u64..6, 0u64..48, 0u64..3_600), 1..250),
            shards in 2usize..6,
        ) {
            let case = Case {
                windows: vec![Window {
                    alerts: common::trace_of(picks),
                    incidents: Vec::new(),
                }],
                ..Case::new(common::dense_catalog(6))
            };
            for shards in [1, shards] {
                common::assert_agrees_with_batch(&case, Topology::Shards { shards });
            }
        }
    }
}
