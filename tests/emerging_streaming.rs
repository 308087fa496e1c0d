//! Differential tests for the streaming emerging-alert (R4) channel:
//! the streaming path against the offline run, the
//! 1-shard-equals-N-shards guarantee under the ingestd merge point, and
//! byte-identical emerging output with metrics on and off — including
//! under an injected worker crash.

mod common;

use std::io::Read;
use std::net::TcpStream;

use alertops::chaos::silence_panics_containing;
use alertops::cluster::RangeMap;
use alertops::core::prelude::*;
use alertops::ingestd::{shard_of, IngestdConfig, StatusReport, CHAOS_PANIC_MSG};
use alertops::model::LogRule;

use common::Case;

const THEMES: [&str; 3] = [
    "disk usage of storage node over threshold",
    "cpu utilization high on compute worker",
    "network packet retransmission rate abnormal",
];
const NOVEL: &str = "certificate rotation deadlock renewal stuck handshake expired";

/// Hour 2's extra (title, service) pairs, each raised twice. The
/// channel encodes and fits each distinct text once, so this window
/// holds every way texts can coincide: repeated pairs, titles that
/// differ only in digits (the tokenizer drops numbers, so their bags
/// collide with each other and with `THEMES[0]`), and a title and
/// service that tokenize to nothing.
const COINCIDING: [(&str, &str); 3] = [
    ("disk usage of storage node 7 over threshold", "Storage"),
    ("disk usage of storage node 12 over threshold", "Storage"),
    ("the 42 of", "--"),
];

/// One chunk per wall-clock hour 0..=4. Hours 0–2 carry routine themes
/// (hour 2 also the [`COINCIDING`] texts), hour 3 is silent (the gap a
/// streaming deployment actually sees), and hour 4 mixes the routine
/// load with a brand-new theme. Ids are
/// assigned in generation order, so id order is the canonical document
/// order the ingestd coordinator reconstructs after merging shards.
fn hourly_chunks() -> Vec<Vec<Alert>> {
    let mut chunks = Vec::new();
    let mut id = 0u64;
    for hour in 0..5u64 {
        let mut chunk = Vec::new();
        if hour == 3 {
            chunks.push(chunk);
            continue;
        }
        for i in 0..12u64 {
            chunk.push(
                Alert::builder(AlertId(id), StrategyId(i % 6))
                    .title(THEMES[(i % 3) as usize])
                    .service("Storage")
                    .raised_at(SimTime::from_secs(hour * 3_600 + i * 240))
                    .build(),
            );
            id += 1;
        }
        if hour == 2 {
            for i in 0..6u64 {
                let (title, service) = COINCIDING[(i % 3) as usize];
                chunk.push(
                    Alert::builder(AlertId(id), StrategyId(i % 6))
                        .title(title)
                        .service(service)
                        .raised_at(SimTime::from_secs(hour * 3_600 + 120 + i * 420))
                        .build(),
                );
                id += 1;
            }
        }
        if hour == 4 {
            for i in 0..10u64 {
                chunk.push(
                    Alert::builder(AlertId(id), StrategyId(i % 6))
                        .title(NOVEL)
                        .service("Security")
                        .raised_at(SimTime::from_secs(hour * 3_600 + 100 + i * 300))
                        .build(),
                );
                id += 1;
            }
        }
        chunks.push(chunk);
    }
    chunks
}

fn emerging_config() -> EmergingConfig {
    EmergingConfig {
        num_topics: 3,
        ..EmergingConfig::default()
    }
}

/// The streaming config a sharded deployment runs: shards forward
/// documents; the coordinator owns the AO-LDA pass.
fn forward_streaming() -> StreamingConfig {
    StreamingConfig {
        emerging: Channel {
            mode: ChannelMode::Forward,
            config: emerging_config(),
        },
        ..StreamingConfig::default()
    }
}

/// Six dense-id strategies so a 4-shard daemon actually spreads the
/// trace across workers.
fn catalog() -> Vec<AlertStrategy> {
    (0..6)
        .map(|id| {
            AlertStrategy::builder(StrategyId(id))
                .title_template("service metric is abnormal")
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

/// The catalog under the forwarding config, for daemons and clusters.
fn forward_case() -> Case {
    Case {
        streaming: forward_streaming(),
        ..Case::new(catalog())
    }
}

/// The streaming path reproduces the fixed offline run byte-for-byte
/// once both agree on the vocabulary: a detector seeded with the
/// vocabulary the offline run ended with, fed the same wall-clock
/// windows (gap included) as id-sorted document batches — the exact
/// form the ingestd merge point feeds it — emits the same reports as
/// [`EmergingAlertDetector::run`] over the whole stream.
#[test]
fn streaming_with_preagreed_vocab_reproduces_the_offline_run() {
    let chunks = hourly_chunks();
    let trace: Vec<Alert> = chunks.iter().flatten().cloned().collect();

    let mut offline = EmergingAlertDetector::new(emerging_config());
    let offline_reports = offline.run(&trace);
    assert_eq!(offline_reports.len(), 5, "one report per wall-clock hour");

    let mut streaming =
        EmergingAlertDetector::with_vocabulary(emerging_config(), offline.vocabulary().clone());
    let streaming_reports: Vec<EmergingReport> = chunks
        .iter()
        .map(|chunk| {
            let mut docs: Vec<EmergingDoc> = chunk.iter().map(EmergingDoc::from_alert).collect();
            docs.sort_by_key(|d| d.alert);
            streaming.observe_docs(&docs)
        })
        .collect();

    assert_eq!(offline_reports, streaming_reports);
    assert_eq!(
        serde_json::to_string(&offline_reports).expect("offline reports serialize"),
        serde_json::to_string(&streaming_reports).expect("streaming reports serialize"),
        "reports must be byte-identical on the wire too"
    );

    assert_eq!(
        streaming_reports[2].alert_count, 18,
        "hour 2 carries the coinciding texts"
    );

    // The silent hour is an explicit empty window, on the wall clock.
    let gap = &streaming_reports[3];
    assert_eq!(gap.alert_count, 0);
    assert_eq!(gap.window_start, SimTime::from_secs(3 * 3_600));
    assert!(gap.emerging_alerts.is_empty());
    // And the novel post-gap theme is flagged.
    assert!(
        !streaming_reports[4].emerging_alerts.is_empty(),
        "novel certificate theme not flagged after the gap"
    );
}

/// The opt-in [`EmergingBudget`] regression wall, end to end through the
/// public detector and governor paths:
///
/// 1. a cap the trace never reaches leaves the whole run byte-identical
///    to a budget-free run (the adaptive fast path is exact);
/// 2. an engaged cap is seed-replayable — two runs with the same cap and
///    seed emit byte-identical reports;
/// 3. a different seed samples differently, so replays genuinely depend
///    on the recorded seed;
/// 4. the cap trims tokens, never documents: per-window alert counts are
///    unchanged;
/// 5. the budget survives the governor plumbing: a budgeted detector
///    fed a streaming governor's forwarded documents matches the
///    standalone detector window for window.
#[test]
fn emerging_budget_is_seed_replayable_and_exact_under_the_cap() {
    let chunks = hourly_chunks();
    let run = |budget: Option<EmergingBudget>| -> Vec<EmergingReport> {
        let mut detector = EmergingAlertDetector::new(EmergingConfig {
            budget,
            ..emerging_config()
        });
        chunks
            .iter()
            .map(|chunk| {
                let mut docs: Vec<EmergingDoc> =
                    chunk.iter().map(EmergingDoc::from_alert).collect();
                docs.sort_by_key(|d| d.alert);
                detector.observe_docs(&docs)
            })
            .collect()
    };
    let wire = |reports: &Vec<EmergingReport>| -> String {
        serde_json::to_string(reports).expect("reports serialize")
    };

    let free = run(None);
    let slack = run(Some(EmergingBudget::new(1_000_000, 7)));
    assert_eq!(
        wire(&free),
        wire(&slack),
        "a cap the trace never reaches must leave the run byte-identical"
    );

    let tight = Some(EmergingBudget::new(40, 7));
    let tight_a = run(tight);
    let tight_b = run(tight);
    assert_eq!(
        wire(&tight_a),
        wire(&tight_b),
        "the same cap and seed must replay byte-identically"
    );
    assert_ne!(
        wire(&tight_a),
        wire(&free),
        "a 40-token cap on ~70-token windows must actually engage"
    );
    assert_ne!(
        wire(&tight_a),
        wire(&run(Some(EmergingBudget::new(40, 8)))),
        "a different seed must sample (and report) differently"
    );
    for (budgeted, full) in tight_a.iter().zip(&free) {
        assert_eq!(
            budgeted.alert_count, full.alert_count,
            "the budget drops tokens, never documents"
        );
    }

    // Same budgeted config over a streaming governor's forwards.
    let mut governor = forward_case().governor(&catalog());
    let mut detector = EmergingAlertDetector::new(EmergingConfig {
        budget: tight,
        ..emerging_config()
    });
    for (chunk, expected) in chunks.iter().zip(&tight_a) {
        let delta = governor.ingest(chunk, &[]);
        assert_eq!(
            serde_json::to_string(&detector.observe_docs(&delta.emerging_docs))
                .expect("report serializes"),
            serde_json::to_string(expected).expect("report serializes"),
            "budgeted pass over the governor's forwards diverged from the standalone detector"
        );
    }
}

/// Drives one in-process daemon over the hourly chunks (the silent hour
/// is a flush with nothing routed) and returns each window's emerging
/// report and degraded-shard list. With `panic_shard` set, that worker
/// is crashed halfway through hour 1, losing the half-window it had
/// already absorbed.
fn windows_with_shards(
    shards: usize,
    metrics: bool,
    panic_shard: Option<usize>,
) -> Vec<(Option<EmergingReport>, Vec<usize>)> {
    let config = IngestdConfig {
        shards,
        metrics,
        ..IngestdConfig::default()
    };
    let handle = forward_case().daemon(config, None);
    let mut windows = Vec::new();
    for (hour, chunk) in hourly_chunks().into_iter().enumerate() {
        let half = chunk.len() / 2;
        for (i, alert) in chunk.into_iter().enumerate() {
            if hour == 1 && i == half {
                if let Some(shard) = panic_shard {
                    handle.sync();
                    handle.inject_panic(shard, false);
                }
            }
            handle.route(alert);
        }
        let snapshot = handle.flush().expect("flush yields a snapshot");
        windows.push((snapshot.emerging, snapshot.degraded));
    }
    handle.shutdown();
    windows
}

/// The tentpole guarantee, end to end: with the emerging channel on,
/// an N-shard daemon's per-window reports are byte-identical to the
/// 1-shard daemon's, because shards only forward documents and the
/// coordinator runs the single sequential AO-LDA pass over their
/// id-sorted union.
#[test]
fn one_shard_equals_many_shards_under_the_ingestd_merge() {
    let baseline = windows_with_shards(1, true, None);
    for (hour, (report, degraded)) in baseline.iter().enumerate() {
        assert!(degraded.is_empty());
        let report = report.as_ref().expect("emerging channel is on");
        assert_eq!(report.window_index, hour, "indices count every window");
    }
    let gap = baseline[3].0.as_ref().expect("gap window still reports");
    assert_eq!(gap.alert_count, 0, "the silent hour is an explicit window");
    assert_eq!(gap.window_start, SimTime::from_secs(3 * 3_600));
    assert!(
        !baseline[4]
            .0
            .as_ref()
            .expect("report")
            .emerging_alerts
            .is_empty(),
        "novel theme must surface through the daemon too"
    );

    for shards in [2usize, 4] {
        let sharded = windows_with_shards(shards, true, None);
        assert_eq!(
            serde_json::to_string(&sharded.iter().map(|w| &w.0).collect::<Vec<_>>())
                .expect("sharded reports serialize"),
            serde_json::to_string(&baseline.iter().map(|w| &w.0).collect::<Vec<_>>())
                .expect("baseline reports serialize"),
            "{shards}-shard emerging output diverged from the 1-shard baseline"
        );
    }

    // One level up: a 2-node × 2-shard cluster forwards the documents
    // twice and its coordinator runs the one pass — same reports, and
    // the pass is observed (one span per window closed).
    let root = common::wal_root("emerging");
    let mut cluster = forward_case().cluster(2, 2, &root);
    for (chunk, (want, _)) in hourly_chunks().into_iter().zip(&baseline) {
        for alert in chunk {
            cluster.route(alert).expect("route succeeds");
        }
        let snapshot = cluster.close_window().expect("window closes");
        assert_eq!(
            serde_json::to_string(&snapshot.emerging).expect("report serializes"),
            serde_json::to_string(want).expect("report serializes"),
            "2-node cluster emerging output diverged from the 1-shard baseline"
        );
    }
    assert!(cluster
        .render_metrics()
        .contains("alertops_emerging_window_micros_count 5\n"));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Metrics are observer-only on the emerging channel as well: the same
/// chaos run — a worker crash halfway through a window — produces
/// byte-identical emerging reports and degraded lists whether metrics
/// are on or off.
#[test]
fn chaos_run_emerging_output_is_identical_with_metrics_on_and_off() {
    silence_panics_containing(CHAOS_PANIC_MSG);
    let shards = 4;
    let target = shard_of(StrategyId(0), shards);
    let with_metrics = windows_with_shards(shards, true, Some(target));
    let without_metrics = windows_with_shards(shards, false, Some(target));
    assert_eq!(
        serde_json::to_string(&with_metrics).expect("runs serialize"),
        serde_json::to_string(&without_metrics).expect("runs serialize"),
        "metrics flipped the emerging output"
    );
    assert_eq!(
        with_metrics[1].1,
        vec![target],
        "the crashed shard must be reported degraded in its window"
    );
    // The crash cost the crashed shard's half-window of documents.
    let clean = windows_with_shards(shards, true, None);
    let crashed_count = with_metrics[1].0.as_ref().expect("report").alert_count;
    let clean_count = clean[1].0.as_ref().expect("report").alert_count;
    assert!(
        crashed_count < clean_count,
        "crash should have cost window 1 documents ({crashed_count} vs {clean_count})"
    );
}

/// The status socket publishes the emerging report with the snapshot:
/// scraping after a window close yields a parseable document whose
/// snapshot carries the channel's verdict.
#[test]
fn status_socket_exposes_the_emerging_report() {
    let config = IngestdConfig {
        shards: 2,
        status: Some("127.0.0.1:0".to_owned()),
        ..IngestdConfig::default()
    };
    let handle = forward_case().daemon(config, None);
    for alert in hourly_chunks().remove(0) {
        handle.route(alert);
    }
    handle.flush().expect("flush yields a snapshot");

    let mut body = String::new();
    TcpStream::connect(handle.status_addr().expect("status listener bound"))
        .expect("connect to status")
        .read_to_string(&mut body)
        .expect("read status document");
    let report: StatusReport = serde_json::from_str(body.trim()).expect("status parses");
    let snapshot = report.snapshot.expect("flush published a snapshot");
    let emerging = snapshot.emerging.expect("emerging report published");
    assert_eq!(emerging.window_index, 0);
    assert_eq!(emerging.alert_count, 12);
    handle.shutdown();
}

/// A fault injected into one window of a daemon run.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// The shard's worker panics halfway through the window's routing,
    /// losing the alerts it had buffered.
    BetweenCloses(usize),
    /// The shard's worker panics in the window's close, after detection
    /// mutated its governor, losing the whole window.
    MidClose(usize),
}

/// Drives a `shards`-shard daemon over `chunks`, one flush per chunk,
/// with `faults[hour]` injected into window `hour`. Returns each
/// window's emerging report and degraded list, and the alerts each
/// window delivered: what survived the faults.
#[allow(clippy::type_complexity)]
fn faulted_daemon_run(
    shards: usize,
    chunks: Vec<Vec<Alert>>,
    faults: &[Option<Fault>],
) -> (Vec<(Option<EmergingReport>, Vec<usize>)>, Vec<Vec<Alert>>) {
    let config = IngestdConfig {
        shards,
        ..IngestdConfig::default()
    };
    let handle = forward_case().daemon(config, None);
    let (mut windows, mut survivors) = (Vec::new(), Vec::new());
    for (hour, chunk) in chunks.into_iter().enumerate() {
        let fault = faults.get(hour).copied().flatten();
        let half = chunk.len() / 2;
        let mut delivered = Vec::new();
        for (i, alert) in chunk.into_iter().enumerate() {
            if i == half {
                match fault {
                    Some(Fault::BetweenCloses(shard)) => {
                        handle.sync();
                        handle.inject_panic(shard, false);
                    }
                    Some(Fault::MidClose(shard)) => handle.inject_panic(shard, true),
                    None => {}
                }
            }
            let shard = shard_of(alert.strategy(), shards);
            let lost = match fault {
                Some(Fault::BetweenCloses(target)) => shard == target && i < half,
                Some(Fault::MidClose(target)) => shard == target,
                None => false,
            };
            if !lost {
                delivered.push(alert.clone());
            }
            handle.route(alert);
        }
        let snapshot = handle.flush().expect("flush yields a snapshot");
        windows.push((snapshot.emerging, snapshot.degraded));
        survivors.push(delivered);
    }
    // A redone pass is still one observation of its window.
    assert!(handle.render_metrics().contains(&format!(
        "alertops_emerging_window_micros_count {}\n",
        windows.len()
    )));
    handle.shutdown();
    (windows, survivors)
}

/// Two distinct shards of a 4-shard daemon that own catalog strategies.
fn two_shards() -> (usize, usize) {
    let first = shard_of(StrategyId(0), 4);
    let second = (1..6)
        .map(|id| shard_of(StrategyId(id), 4))
        .find(|&shard| shard != first)
        .expect("the catalog spans two shards");
    (first, second)
}

/// The emerging channel is exact under worker faults: a 4-shard daemon
/// whose windows suffer `faults` reports, in every window (the later
/// ones included, which carry the faulted windows' vocabulary and topic
/// history), exactly what a 1-shard daemon fed only the surviving
/// alerts reports. The merge point ran AO-LDA over every alert the
/// queues held ahead of the close; where the barrier says some were
/// lost, that pass must be discarded without a trace and run again.
fn assert_faulted_run_matches_the_survivors(faults: &[Option<Fault>]) {
    silence_panics_containing(CHAOS_PANIC_MSG);
    let (faulted, survivors) = faulted_daemon_run(4, hourly_chunks(), faults);
    for (hour, (_, degraded)) in faulted.iter().enumerate() {
        let want: Vec<usize> = match faults.get(hour).copied().flatten() {
            Some(Fault::BetweenCloses(shard) | Fault::MidClose(shard)) => vec![shard],
            None => Vec::new(),
        };
        assert_eq!(
            degraded, &want,
            "window {hour}: each fault degrades its own window only"
        );
    }
    let clean: usize = hourly_chunks().iter().map(Vec::len).sum();
    assert!(
        survivors.iter().map(Vec::len).sum::<usize>() < clean,
        "the faults must cost documents"
    );

    let (reference, _) = faulted_daemon_run(1, survivors, &[]);
    for (hour, (got, want)) in faulted.iter().zip(&reference).enumerate() {
        assert_eq!(
            serde_json::to_string(&got.0).expect("report serializes"),
            serde_json::to_string(&want.0).expect("report serializes"),
            "window {hour}: the faulted 4-shard daemon diverged from a 1-shard daemon fed the survivors"
        );
    }
}

/// A worker panic between closes loses the alerts its shard had
/// buffered; the shard's delta lists the ones routed after it.
#[test]
fn a_between_close_panic_reports_as_one_shard_fed_the_survivors() {
    let (first, second) = two_shards();
    assert_faulted_run_matches_the_survivors(&[
        None,
        Some(Fault::BetweenCloses(first)),
        Some(Fault::BetweenCloses(second)),
        None,
        Some(Fault::BetweenCloses(first)),
    ]);
}

/// A worker panic mid-close loses the shard's whole window, though its
/// queue handed every document of it to the merge point.
#[test]
fn a_mid_close_panic_reports_as_one_shard_fed_the_survivors() {
    let (first, second) = two_shards();
    assert_faulted_run_matches_the_survivors(&[
        None,
        Some(Fault::MidClose(first)),
        Some(Fault::MidClose(second)),
        None,
        Some(Fault::MidClose(first)),
    ]);
}

/// Runs a `nodes`-node × 2-shard cluster over `windows`, one close per
/// window. With `kill_at = Some(w)`, node 1 is killed halfway through
/// window `w`'s routing, the window closes without it, and it rejoins
/// before window `w + 1`. Returns each window's emerging report.
fn cluster_emerging_run(
    nodes: usize,
    windows: &[Vec<Alert>],
    kill_at: Option<usize>,
    name: &str,
) -> Vec<Option<EmergingReport>> {
    let root = common::wal_root(&format!("emerging-{name}"));
    let mut cluster = forward_case().cluster(nodes, 2, &root);
    let mut reports = Vec::new();
    for (index, window) in windows.iter().enumerate() {
        if index > 0 && kill_at == Some(index - 1) {
            cluster.rejoin(1).expect("rejoin replays the log");
        }
        for (i, alert) in window.iter().enumerate() {
            if kill_at == Some(index) && i == window.len() / 2 {
                cluster.kill(1);
            }
            cluster.route(alert.clone()).expect("route succeeds");
        }
        reports.push(cluster.close_window().expect("window closes").emerging);
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    reports
}

/// The cluster case: node 1 of two is killed halfway through window 1,
/// the window closes without it, it rejoins and the next window
/// delivers its window-1 alerts from its log. Every window's report
/// equals a 1-node run fed the alerts in the windows they were
/// delivered in.
#[test]
fn a_cluster_node_killed_mid_window_reports_as_one_node_fed_the_delivered_windows() {
    let chunks = hourly_chunks();
    let map = RangeMap::partition(&catalog(), 2);
    let faulted = cluster_emerging_run(2, &chunks, Some(1), "kill");
    // Window 1 delivers node 0's alerts; node 1's come back from its
    // log in window 2.
    let (held, kept): (Vec<Alert>, Vec<Alert>) = chunks[1]
        .iter()
        .cloned()
        .partition(|alert| map.node_of(alert.strategy()) == 1);
    assert!(
        !held.is_empty() && !kept.is_empty(),
        "both nodes own part of window 1"
    );
    let mut delivered = chunks.clone();
    delivered[1] = kept;
    delivered[2].extend(held);
    let reference = cluster_emerging_run(1, &delivered, None, "kill-ref");
    for (index, (got, want)) in faulted.iter().zip(&reference).enumerate() {
        assert_eq!(
            serde_json::to_string(got).expect("report serializes"),
            serde_json::to_string(want).expect("report serializes"),
            "window {index}: the killed-node cluster diverged from a 1-node run"
        );
    }
}
