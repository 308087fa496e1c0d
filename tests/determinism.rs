//! Whole-stack determinism: the same seed must reproduce byte-identical
//! results through every layer — the property that makes the paper's
//! figures regenerable.

mod common;

use alertops::chaos::{silence_panics_containing, ChaosConfig, ChaosKind, ChaosSchedule};
use alertops::core::prelude::*;
use alertops::ingestd::{
    shard_catalog, shard_of, CounterSnapshot, IngestdConfig, OverflowPolicy, QuarantineReason,
    CHAOS_PANIC_MSG,
};
use alertops::react::{EmergingAlertDetector, EmergingConfig};
use alertops::sim::scenarios;

use common::{exposition_values, Case};

#[test]
fn identical_seeds_identical_governance() {
    let run = |seed| {
        let out = scenarios::quickstart(seed).run();
        let governor =
            AlertGovernor::new(out.catalog.strategies().to_vec(), GovernorConfig::default())
                .with_dependency_graph(out.topology.dependency_graph());
        let report = governor.govern(&out.alerts, &out.incidents);
        (
            out.alerts.len(),
            report.anti_patterns.finding_count(),
            report.pipeline.triage.clone(),
            report
                .qoa_worst_first
                .iter()
                .map(|q| (q.strategy, q.scores.overall()))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn different_seeds_differ() {
    let alerts = |seed| scenarios::quickstart(seed).run().alerts;
    let a = alerts(7);
    let b = alerts(8);
    assert_ne!(a, b, "different seeds should produce different worlds");
}

#[test]
fn emerging_detection_is_replayable() {
    let out = scenarios::quickstart(7).run();
    let run = || {
        let mut detector = EmergingAlertDetector::new(EmergingConfig {
            num_topics: 4,
            passes_per_window: 6,
            ..EmergingConfig::default()
        });
        detector.run(&out.alerts)
    };
    assert_eq!(run(), run());
}

#[test]
fn statistical_engine_is_replayable_at_scale() {
    let a = scenarios::mini_study(5).run();
    let b = scenarios::mini_study(5).run();
    assert_eq!(a.alerts, b.alerts);
    assert_eq!(a.incidents.len(), b.incidents.len());
    assert_eq!(a.faults.events().len(), b.faults.events().len());
}

/// Differential: the same trace governed as one window — by the batch
/// oracle (one `AlertGovernor` detect and react pass over everything),
/// 1-shard and N-shard daemons and every other topology — must agree
/// exactly. This is the streaming layer's correctness contract:
/// sharding and windowing are an execution strategy, not a semantics
/// change.
#[test]
fn batch_one_shard_and_n_shard_governance_agree() {
    let out = scenarios::quickstart(7).run();
    let batch = common::assert_topologies_agree(&Case::from_sim(&out, out.alerts.len(), 0));
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0].alert_count, out.alerts.len());
}

/// R3 runs once per window where the shards' deltas merge, so
/// `alertops_react_clusters_total` counts the published triage items
/// whatever the shard count: daemons of 1 and of 4 shards over one
/// stream with the fleet's dependency graph read the same count.
#[test]
fn the_cluster_count_does_not_depend_on_the_shard_count() {
    let out = scenarios::quickstart(7).run();
    let case = Case::from_sim(&out, 48, 1)
        .history(3)
        .graph(out.topology.dependency_graph());
    let count = |shards| {
        let config = IngestdConfig {
            shards,
            queue_capacity: 8192,
            ..IngestdConfig::default()
        };
        let handle = case.daemon(config, None);
        let mut triaged = 0;
        for window in &case.windows {
            for alert in &window.alerts {
                handle.route(alert.clone());
            }
            triaged += handle.flush().expect("flush publishes").triage.len() as u64;
        }
        let text = handle.render_metrics();
        handle.shutdown();
        let clusters = exposition_values(&text, "alertops_react_clusters_total");
        assert_eq!(clusters, [triaged], "{shards} shard(s):\n{text}");
        triaged
    };
    assert_eq!(count(1), count(4));
}

const CHAOS_SHARDS: usize = 4;
const CHAOS_QUEUE: usize = 8;
const CHAOS_TRACE: usize = 240;

fn chaos_alert_trace() -> Vec<Alert> {
    let mut alerts: Vec<Alert> = (0..CHAOS_TRACE as u64)
        .map(|i| {
            Alert::builder(AlertId(i), StrategyId(i * 7 % 8))
                .title("service latency is abnormal")
                .raised_at(SimTime::from_secs((i / 40) * 3_600 + (i * 97) % 3_600))
                .build()
        })
        .collect();
    alerts.sort_by_key(|a| (a.raised_at(), a.id()));
    alerts
}

fn chaos_fault_config() -> ChaosConfig {
    ChaosConfig {
        trace_len: CHAOS_TRACE,
        shards: CHAOS_SHARDS,
        resets: 0,
        truncations: 0,
        corruptions: 0,
        stalls: 0,
        panics: 2,
        close_panics: 1,
        overflows: 1,
        burst_len: 20,
        ..ChaosConfig::default()
    }
}

/// One fault-injected daemon run: worker panics, a poisoned window
/// close, and a queue-overflow storm, all placed by the seed's
/// schedule. Returns the serialized snapshot of every window plus the
/// final counters (with the one wall-clock field zeroed). `metrics`
/// toggles the observability layer — the returned outputs must not
/// depend on it.
fn chaos_run(seed: u64, metrics: bool) -> Vec<String> {
    let trace = chaos_alert_trace();
    let schedule = ChaosSchedule::generate(seed, &chaos_fault_config());
    let config = IngestdConfig {
        shards: CHAOS_SHARDS,
        queue_capacity: CHAOS_QUEUE,
        overflow: OverflowPolicy::Drop,
        metrics,
        ..IngestdConfig::default()
    };
    let handle = Case::new(common::dense_catalog(8)).daemon(config, None);

    let mut outputs = Vec::new();
    for (i, alert) in trace.iter().enumerate() {
        for event in schedule.events_at(i) {
            match event.kind {
                ChaosKind::WorkerPanic { shard } => handle.inject_panic(shard, false),
                ChaosKind::WorkerPanicOnClose { shard } => handle.inject_panic(shard, true),
                ChaosKind::QueueOverflow { shard: _, burst } => {
                    // Park a shard that owns catalog traffic, slam its
                    // tiny queue, resume, drain: under the drop policy
                    // exactly the first CHAOS_QUEUE alerts survive.
                    let target = shard_of(alert.strategy(), CHAOS_SHARDS);
                    handle.stall_shard(target);
                    for k in 0..burst as u64 {
                        handle.route(
                            Alert::builder(
                                AlertId(7_000_000 + i as u64 * 1_000 + k),
                                alert.strategy(),
                            )
                            .title("determinism burst probe")
                            .raised_at(alert.raised_at())
                            .build(),
                        );
                    }
                    handle.resume_shard(target);
                    handle.sync();
                }
                other => panic!("unscheduled chaos kind {other:?}"),
            }
        }
        handle.route(alert.clone());
        // Tiny queues: pace so only the injected burst ever overflows.
        if i % 4 == 3 {
            handle.sync();
        }
        if (i + 1) % (CHAOS_TRACE / 3) == 0 {
            handle.sync();
            let snapshot = handle.flush().expect("flush yields a snapshot");
            outputs.push(serde_json::to_string(&snapshot).expect("snapshot serializes"));
        }
    }
    let counters = handle.counters();
    assert_eq!(
        counters.shard_restarts, 3,
        "two panics + one poisoned close"
    );
    assert!(counters.dropped >= 12, "the burst overflowed: {counters:?}");
    assert!(counters.is_conserved(), "{counters:?}");
    // The scrape a real monitoring system would see carries the same
    // accounting as the in-process counters, field by field, with or
    // without the rest of the metrics — read while a parked shard
    // holds three alerts, so the depths are not all zero.
    let held = 0;
    handle.stall_shard(held);
    for alert in trace
        .iter()
        .filter(|a| shard_of(a.strategy(), CHAOS_SHARDS) == held)
        .take(3)
    {
        handle.route(alert.clone());
    }
    let text = handle.render_metrics();
    let mut counters = handle.counters();
    handle.resume_shard(held);
    assert_eq!(counters.queue_depths[held], 3);
    alertops::obs::lint_exposition(&text).expect("chaos-run exposition lints");
    assert_eq!(
        counters_from_exposition(&text, CHAOS_SHARDS),
        counters,
        "the exposition disagrees with the counters:\n{text}"
    );
    counters.last_window_micros = 0; // the one wall-clock field
    outputs.push(serde_json::to_string(&counters).expect("counters serialize"));
    handle.shutdown();
    outputs
}

/// The value of one series, named with its labels as the exposition
/// prints them.
fn series_value(text: &str, series: &str) -> u64 {
    let values: Vec<u64> = text
        .lines()
        .filter_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .map(|value| value.parse().expect("metric values are integers"))
        .collect();
    assert_eq!(values.len(), 1, "{series} should be one series");
    values[0]
}

/// The daemon's counters as its exposition reports them:
/// `decode_errors` is the sum of the `alertops_quarantined_total`
/// family, and shard `i`'s depth is `alertops_queue_depth{shard="i"}`.
fn counters_from_exposition(text: &str, shards: usize) -> CounterSnapshot {
    let value = |series: &str| series_value(text, series);
    let quarantined = |reason: QuarantineReason| {
        value(&format!(
            "alertops_quarantined_total{{reason=\"{}\"}}",
            reason.label()
        ))
    };
    CounterSnapshot {
        ingested: value("alertops_ingested_total"),
        delivered: value("alertops_delivered_total"),
        dropped: value("alertops_dropped_total"),
        backpressure_waits: value("alertops_backpressure_waits_total"),
        decode_errors: exposition_values(text, "alertops_quarantined_total")
            .iter()
            .sum(),
        quarantined_invalid_json: quarantined(QuarantineReason::InvalidJson),
        quarantined_invalid_utf8: quarantined(QuarantineReason::InvalidUtf8),
        quarantined_unknown_control: quarantined(QuarantineReason::UnknownControl),
        quarantined_invalid_alert: quarantined(QuarantineReason::InvalidAlert),
        quarantined_oversized: quarantined(QuarantineReason::Oversized),
        quarantined_corrupt_frame: quarantined(QuarantineReason::CorruptFrame),
        windows_closed: value("alertops_windows_closed_total"),
        degraded_windows: value("alertops_degraded_windows_total"),
        shard_restarts: value("alertops_shard_restarts_total"),
        last_window_micros: value("alertops_last_window_micros"),
        queue_depths: (0..shards)
            .map(|shard| value(&format!("alertops_queue_depth{{shard=\"{shard}\"}}")))
            .collect(),
    }
}

/// The window-merge algebra the whole topology stands on: cluster and
/// daemon both combine per-shard [`WindowDelta`]s with
/// [`WindowDelta::merge_all`], so merging must be a commutative monoid
/// — order-free (shard/node completion order cannot matter),
/// grouping-free (a node merging its shards before the cluster merges
/// nodes equals one flat merge), with [`WindowDelta::identity`] as the
/// unit (an empty shard contributes nothing). Checked as properties
/// over governor-produced deltas from random disjoint-catalog traces —
/// the actual domain the merge runs on — with both sequential channels
/// forwarding and every strategy promoted, so the laws are exercised on
/// every field of the delta, R3's representatives and the escalation
/// lane's promoted alerts included, none of them vacuously.
mod merge_monoid {
    use super::*;
    use proptest::prelude::*;

    /// One same-window delta per shard: each shard's governor over its
    /// own slice of the catalog, fed its own slice of the trace. Every
    /// trace starts from a fixed floor — two alerts per strategy inside
    /// one aggregation window — and every strategy is promoted:
    /// `representatives`, `emerging_docs`, `qoa_samples` and `promoted`
    /// are populated on every shard, whatever the random picks add.
    fn shard_deltas(picks: &[(u64, u64, u64)], shards: usize) -> Vec<WindowDelta> {
        let floor = (0..12u64).map(|i| (i % 6, 0, i));
        let trace = common::trace_of(floor.chain(picks.iter().copied()));
        let case = Case {
            streaming: StreamingConfig {
                emerging: Channel {
                    mode: ChannelMode::Forward,
                    ..Channel::default()
                },
                qoa: Channel {
                    mode: ChannelMode::Forward,
                    ..Channel::default()
                },
                ..StreamingConfig::default()
            },
            ..Case::new(common::dense_catalog(6))
        };
        (0..shards)
            .map(|shard| {
                let window: Vec<Alert> = trace
                    .iter()
                    .filter(|a| shard_of(a.strategy(), shards) == shard)
                    .cloned()
                    .collect();
                let mut governor = case.governor(&shard_catalog(&case.catalog, shards, shard));
                governor.set_qoa_verdicts(QoaVerdicts {
                    demoted: Vec::new(),
                    promoted: case.catalog.iter().map(AlertStrategy::id).collect(),
                });
                governor.ingest(&window, &[])
            })
            .collect()
    }

    /// Whether R3's and the escalation lane's forwards and the channel
    /// inputs are all non-empty in every operand.
    fn populated(deltas: &[WindowDelta]) -> bool {
        deltas.iter().all(|d| {
            !d.representatives.is_empty()
                && !d.promoted.is_empty()
                && !d.emerging_docs.is_empty()
                && !d.qoa_samples.is_empty()
        })
    }

    fn json(delta: &WindowDelta) -> String {
        serde_json::to_string(delta).expect("delta serializes")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn merge_is_commutative(
            picks in proptest::collection::vec((0u64..6, 0u64..48, 0u64..3_600), 1..120),
        ) {
            let d = shard_deltas(&picks, 3);
            prop_assert!(populated(&d));
            prop_assert_eq!(json(&d[0].merged(&d[1])), json(&d[1].merged(&d[0])));
            prop_assert_eq!(
                json(&WindowDelta::merge_all(&[d[0].clone(), d[1].clone(), d[2].clone()])),
                json(&WindowDelta::merge_all(&[d[2].clone(), d[0].clone(), d[1].clone()]))
            );
        }

        #[test]
        fn merge_is_associative(
            picks in proptest::collection::vec((0u64..6, 0u64..48, 0u64..3_600), 1..120),
        ) {
            let d = shard_deltas(&picks, 3);
            prop_assert!(populated(&d));
            prop_assert_eq!(
                json(&d[0].merged(&d[1]).merged(&d[2])),
                json(&d[0].merged(&d[1].merged(&d[2])))
            );
            // Grouping-free against the flat n-ary form too: the shape
            // the daemon (shards) and the cluster (nodes) compose in.
            prop_assert_eq!(
                json(&d[0].merged(&d[1]).merged(&d[2])),
                json(&WindowDelta::merge_all(&d))
            );
        }

        #[test]
        fn identity_is_the_unit(
            picks in proptest::collection::vec((0u64..6, 0u64..48, 0u64..3_600), 1..120),
        ) {
            let d = shard_deltas(&picks, 3);
            prop_assert!(populated(&d));
            // merge_all canonicalizes ordering, so compare against the
            // delta's canonical form (merge of the singleton).
            let canonical = WindowDelta::merge_all(&d[..1]);
            prop_assert_eq!(json(&d[0].merged(&WindowDelta::identity())), json(&canonical));
            prop_assert_eq!(json(&WindowDelta::identity().merged(&d[0])), json(&canonical));
            prop_assert_eq!(
                json(&WindowDelta::merge_all(&[])),
                json(&WindowDelta::identity())
            );
        }
    }
}

/// The harness's own property: a topology drawn from up to 3 nodes ×
/// 4 shards, fed in process or over NDJSON or binary TCP, with the
/// dependency graph or without, publishes the batch side's stream.
/// The case carries no QoA labels; a graph plus QoA promotion runs on
/// every topology in `tests/qoa_loop.rs`.
mod topologies {
    use super::*;
    use alertops::ingestd::WireFormat;
    use common::Topology;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn every_topology_publishes_the_batch_stream(
            shards in 1usize..5,
            nodes in 1usize..4,
            transport in 0usize..3,
            graph in any::<bool>(),
        ) {
            let out = scenarios::quickstart(7).run();
            let mut case = Case::from_sim(&out, 48, 1).history(3);
            if graph {
                case = case.graph(out.topology.dependency_graph());
            }
            let fed = match transport {
                0 => Topology::Daemon { shards },
                1 => Topology::Wire { shards, wire: WireFormat::Ndjson },
                _ => Topology::Wire { shards, wire: WireFormat::Binary },
            };
            common::assert_agrees_with_batch(&case, fed);
            common::assert_agrees_with_batch(&case, Topology::Cluster { nodes, shards });
        }
    }
}

/// A chaos-supervised daemon run is a pure function of its seed: the
/// same seed reproduces byte-identical snapshot JSON and counters even
/// though workers crash, a window close is poisoned, and a queue
/// overflows along the way.
#[test]
fn chaos_runs_with_identical_seeds_are_identical() {
    silence_panics_containing(CHAOS_PANIC_MSG);
    const SEED: u64 = 0x0DD5_EED5;
    assert_eq!(chaos_run(SEED, true), chaos_run(SEED, true));
    // And the schedule itself is seed-sensitive pure data.
    let config = chaos_fault_config();
    assert_ne!(
        ChaosSchedule::generate(SEED, &config),
        ChaosSchedule::generate(SEED + 1, &config)
    );
}

/// The observability layer is provably inert: the same chaos-supervised
/// run produces byte-identical snapshots and counters with the metrics
/// registry wired in and with it absent — instrumentation observes the
/// pipeline, it never steers it.
#[test]
fn metrics_are_observer_only_under_chaos() {
    silence_panics_containing(CHAOS_PANIC_MSG);
    const SEED: u64 = 0x0DD5_EED5;
    assert_eq!(chaos_run(SEED, true), chaos_run(SEED, false));
}

/// Static determinism audit: no source file outside `vendor/` may reach
/// for wall-clock time or an unseeded RNG. Every schedule, workload,
/// and shuffle in this repo takes an injected seed or clock — the
/// property that makes every figure and every soak replayable. The
/// banned tokens are assembled at runtime so this file does not trip
/// its own tripwire.
#[test]
fn no_wall_clocks_or_unseeded_rngs_outside_vendor() {
    let banned = [
        format!("{}::now", "SystemTime"),
        format!("{}_rng()", "thread"),
        format!("{}_entropy()", "from"),
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stack = vec![root.join("crates"), root.join("src"), root.join("tests")];
    let mut offenders = Vec::new();
    let mut audited = Vec::new();
    while let Some(dir) = stack.pop() {
        audited.push(dir.clone());
        for entry in std::fs::read_dir(&dir).expect("readable source tree") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source file");
                for token in &banned {
                    if text.contains(token.as_str()) {
                        offenders.push(format!("{}: {token}", path.display()));
                    }
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "nondeterminism leaked into the source tree:\n{}",
        offenders.join("\n")
    );
    // The audit is only as good as its coverage: the crates whose
    // determinism the differential suites lean on hardest — the online
    // QoA model and the load driver — must provably have been walked,
    // so a future layout change cannot silently exempt them.
    for crate_dir in ["qoa", "load", "sim", "cluster"] {
        let dir = root.join("crates").join(crate_dir);
        assert!(
            audited.contains(&dir),
            "determinism audit never visited {}",
            dir.display()
        );
    }
}

/// Static wire audit: the write-ahead log (`crates/wire/src/wal.rs`,
/// the one log a cluster node and a standalone daemon both keep) and
/// the cluster's handoff path are binary-framed, and nothing in either
/// writes JSON — the pre-binary text reader this test was once named
/// for is gone too. A `serde_json::to_string` in the log or anywhere in
/// `crates/cluster/src` means a JSON copy crept back onto the hot path
/// (or a text journal came back). The banned token is assembled at
/// runtime so this file does not trip its own tripwire.
#[test]
fn cluster_wal_path_stays_binary_outside_the_v1_shim() {
    let banned = format!("serde_json::{}", "to_string");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = vec![root.join("crates/wire/src/wal.rs")];
    for entry in std::fs::read_dir(root.join("crates/cluster/src")).expect("readable cluster src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            sources.push(path);
        }
    }
    let mut offenders = Vec::new();
    for path in &sources {
        let text = std::fs::read_to_string(path).expect("readable source file");
        if text.contains(banned.as_str()) {
            offenders.push(path.display().to_string());
        }
    }
    assert!(
        offenders.is_empty(),
        "JSON serialization crept back onto the cluster WAL/handoff path:\n{}",
        offenders.join("\n")
    );
}
