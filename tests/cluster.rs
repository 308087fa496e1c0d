//! The `alertops-cluster` scenario matrix: differential proofs that a
//! topology is an execution strategy, not a semantics change, and that
//! the write-ahead log makes every fault accountable.
//!
//! - N-node clusters (1, 2, 4) publish snapshots equal to the single
//!   full-catalog streaming governor over the same windowed trace.
//! - A mid-window node kill + rejoin is byte-invisible: the WAL replay
//!   rebuilds exactly the state `kill -9` destroyed.
//! - A close across a dead node lists its shards `degraded` (flat
//!   `node * shards + shard`), and the close after its rejoin lists none.
//! - A live range handoff mid-window neither drops nor double-counts.
//! - WAL truncation while a node is dead surfaces as `dropped`, never
//!   as a silent leak — the conservation law holds from the scrape.
//! - Chaos-scheduled node faults (kill/rejoin/truncate) are replayable
//!   from `CHAOS_SEED`.
//! - A whole-cluster restart from the logs resumes byte-identically.
//! - A close whose checkpoint or boundary write fails is counted and
//!   completes; the conservation law holds after it.
//! - A spawn reads every node's log before it wipes any, so a log it
//!   cannot read costs no other node its journal; a handoff whose
//!   target's log refuses part of the moved tail sheds it, counted.
//! - The real binary survives `kill -9` mid-window via `--wal` (in
//!   `ingestd_wal_replay_survives_kill_dash_nine`), and sheds what its
//!   log cannot hold with exact accounting (in
//!   `a_daemon_sheds_what_its_log_cannot_hold`).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use alertops::chaos::{seed_from_env, ChaosConfig, ChaosKind, ChaosSchedule};
use alertops::cluster::{replay, AlertCluster, ClusterConfig, GovernorFactory, WalFormat};
use alertops::core::prelude::*;
use alertops::detect::StormConfig;
use alertops::ingestd::IngestdConfig;
use alertops::sim::scenarios;

/// Rolling history depth for every governor in this suite — small, so
/// the differentials cross eviction boundaries and WAL pruning.
const HISTORY: usize = 3;

fn streaming_config() -> StreamingConfig {
    StreamingConfig {
        history_windows: HISTORY,
        storm: StormConfig::default(),
        ..StreamingConfig::default()
    }
}

/// The per-shard governor factory every cluster in this suite uses.
fn factory() -> GovernorFactory {
    Arc::new(|catalog: &[AlertStrategy]| {
        StreamingGovernor::new(
            AlertGovernor::new(catalog.to_vec(), GovernorConfig::default()),
            streaming_config(),
        )
    })
}

/// A unique, per-process WAL root so parallel test binaries never
/// collide.
fn wal_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "alertops-cluster-test-{tag}-{}",
        std::process::id()
    ))
}

fn cluster_config(nodes: usize, shards: usize, wal_root: PathBuf) -> ClusterConfig {
    ClusterConfig {
        nodes,
        node: IngestdConfig {
            shards,
            queue_capacity: 8192,
            streaming: streaming_config(),
            ..IngestdConfig::default()
        },
        wal_root,
        wal_format: WalFormat::default(),
    }
}

fn spawn(nodes: usize, shards: usize, root: &Path, catalog: &[AlertStrategy]) -> AlertCluster {
    AlertCluster::spawn(
        cluster_config(nodes, shards, root.to_path_buf()),
        catalog.to_vec(),
        factory(),
    )
    .expect("cluster spawns")
}

/// The quickstart trace chopped into fixed-size, time-sorted windows,
/// with a trailing empty window so the differentials also cover
/// detection over a draining history.
fn windowed_trace(seed: u64, window_len: usize) -> (Vec<AlertStrategy>, Vec<Vec<Alert>>) {
    let out = scenarios::quickstart(seed).run();
    let mut trace = out.alerts.clone();
    trace.sort_by_key(|a| (a.raised_at(), a.id()));
    let mut windows: Vec<Vec<Alert>> = trace.chunks(window_len).map(<[Alert]>::to_vec).collect();
    windows.push(Vec::new());
    (out.catalog.strategies().to_vec(), windows)
}

fn json(snapshot: &GovernanceSnapshot) -> String {
    serde_json::to_string(snapshot).expect("snapshot serializes")
}

/// Strips the fields different partitions are *not* exact for: triage
/// (cross-strategy correlation runs within each shard only, and node
/// count changes the sharding) and the degraded list (asserted
/// separately, in `a_close_across_a_dead_node_lists_its_shards_degraded`).
/// Same-topology comparisons
/// skip this and demand full byte equality.
fn comparable(snapshot: &GovernanceSnapshot) -> GovernanceSnapshot {
    GovernanceSnapshot {
        triage: Vec::new(),
        degraded: Vec::new(),
        ..snapshot.clone()
    }
}

/// Runs `windows` through a fresh fault-free cluster and returns every
/// published snapshot, asserting conservation on the way out.
fn run_cluster(
    nodes: usize,
    shards: usize,
    tag: &str,
    catalog: &[AlertStrategy],
    windows: &[Vec<Alert>],
) -> Vec<GovernanceSnapshot> {
    let root = wal_root(tag);
    let _ = std::fs::remove_dir_all(&root);
    let mut cluster = spawn(nodes, shards, &root, catalog);
    let mut snapshots = Vec::with_capacity(windows.len());
    for window in windows {
        for alert in window {
            cluster.route(alert.clone()).expect("route succeeds");
        }
        snapshots.push(cluster.close_window().expect("window closes"));
    }
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!(counters.dropped, 0, "fault-free run must drop nothing");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    snapshots
}

/// Every value of the named family in a Prometheus text exposition.
fn exposition_values(text: &str, name: &str) -> Vec<u64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let base = series.split('{').next()?;
            (base == name).then(|| value.parse().expect("metric values are integers"))
        })
        .collect()
}

/// The single value of an unlabelled family.
fn exposition_value(text: &str, name: &str) -> u64 {
    let values = exposition_values(text, name);
    assert_eq!(values.len(), 1, "{name} should be a single series");
    values[0]
}

/// Re-asserts the cluster conservation law from the *scrape* — the
/// text a real monitoring system would see must carry the same
/// accounting the in-process counters do.
fn assert_scrape_conserved(cluster: &AlertCluster) {
    let text = cluster.render_metrics();
    alertops::obs::lint_exposition(&text).expect("cluster exposition lints");
    assert_eq!(
        exposition_value(&text, "alertops_cluster_ingested_total"),
        exposition_value(&text, "alertops_cluster_delivered_total")
            + exposition_value(&text, "alertops_cluster_dropped_total")
            + exposition_value(&text, "alertops_cluster_quarantined_total")
            + exposition_value(&text, "alertops_cluster_in_flight"),
        "scraped exposition violates the conservation law:\n{text}"
    );
}

/// The tentpole differential: a 4-node cluster, a 2-node cluster, a
/// 1-node cluster, and the single full-catalog streaming governor (the
/// batch-equivalent oracle pinned in `incremental_equivalence.rs`) all
/// publish the same governance stream. The 1-node × 1-shard cluster is
/// compared *unstripped* — triage included, byte for byte.
#[test]
fn cluster_sizes_agree_with_each_other_and_the_batch_oracle() {
    let (catalog, windows) = windowed_trace(7, 48);

    let mut oracle = StreamingGovernor::new(
        AlertGovernor::new(catalog.clone(), GovernorConfig::default()),
        streaming_config(),
    );
    let storm = streaming_config().storm;
    let oracle_snapshots: Vec<GovernanceSnapshot> = windows
        .iter()
        .map(|window| GovernanceSnapshot::from_delta(&oracle.ingest(window, &[]), &storm))
        .collect();

    let single = run_cluster(1, 1, "diff-1", &catalog, &windows);
    for (index, (got, want)) in single.iter().zip(&oracle_snapshots).enumerate() {
        assert_eq!(
            json(got),
            json(want),
            "1-node cluster diverged from the batch oracle at window {index}"
        );
    }

    for nodes in [2usize, 4] {
        let sharded = run_cluster(nodes, 2, &format!("diff-{nodes}"), &catalog, &windows);
        assert_eq!(sharded.len(), oracle_snapshots.len());
        for (index, (got, want)) in sharded.iter().zip(&oracle_snapshots).enumerate() {
            assert_eq!(
                json(&comparable(got)),
                json(&comparable(want)),
                "{nodes}-node cluster diverged from the oracle at window {index}"
            );
        }
    }
}

/// Mid-window `kill -9` + rejoin: the killed node's daemon memory is
/// gone, but its WAL holds the sealed history and the in-flight tail,
/// so after replay the faulted run is **byte-identical** to a run that
/// never faulted — same topology, so nothing is stripped, and the
/// fault window itself must close clean (the node is back before the
/// close, so not even `degraded` may differ).
#[test]
fn mid_window_kill_and_rejoin_is_byte_invisible() {
    let (catalog, windows) = windowed_trace(7, 48);
    let reference = run_cluster(3, 2, "kill-ref", &catalog, &windows);

    let root = wal_root("kill-live");
    let _ = std::fs::remove_dir_all(&root);
    let mut cluster = spawn(3, 2, &root, &catalog);
    let fault_window = windows.len() / 2;
    let mut snapshots = Vec::with_capacity(windows.len());
    for (index, window) in windows.iter().enumerate() {
        if index == fault_window {
            let (routed, rest) = window.split_at(window.len() / 2);
            for alert in routed {
                cluster.route(alert.clone()).expect("route succeeds");
            }
            cluster.kill(1);
            assert_eq!(cluster.alive_nodes(), 2);
            cluster.rejoin(1).expect("rejoin replays the WAL");
            assert_eq!(cluster.alive_nodes(), 3);
            for alert in rest {
                cluster.route(alert.clone()).expect("route succeeds");
            }
        } else {
            for alert in window {
                cluster.route(alert.clone()).expect("route succeeds");
            }
        }
        snapshots.push(cluster.close_window().expect("window closes"));
    }
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!(counters.dropped, 0, "an intact log must lose nothing");
    assert!(
        cluster.metrics().wal_replayed_alerts.get() > 0,
        "the rejoin must actually have replayed the log"
    );
    assert_scrape_conserved(&cluster);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    for (index, (got, want)) in snapshots.iter().zip(&reference).enumerate() {
        assert_eq!(
            json(got),
            json(want),
            "kill+rejoin run diverged from the fault-free run at window {index}"
        );
    }
}

/// A window closed *across* a dead node says so, in the flat
/// `node * shards + shard` encoding: with node 1 of a 3-node × 2-shard
/// cluster down, the close lists exactly shards 2 and 3 degraded and
/// node 1's journaled alerts stay in flight; the first close after the
/// rejoin lists none and delivers them. Conservation holds at both.
#[test]
fn a_close_across_a_dead_node_lists_its_shards_degraded() {
    let (catalog, windows) = windowed_trace(7, 48);
    let root = wal_root("degraded-flat");
    let _ = std::fs::remove_dir_all(&root);
    let mut cluster = spawn(3, 2, &root, &catalog);

    cluster.kill(1);
    for alert in &windows[0] {
        cluster.route(alert.clone()).expect("route succeeds");
    }
    let across = cluster.close_window().expect("window closes");
    assert_eq!(across.degraded, vec![2, 3]);
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert!(counters.in_flight > 0, "node 1 owns part of the window");
    assert_eq!(
        across.alert_count as u64 + counters.in_flight,
        windows[0].len() as u64
    );
    assert_scrape_conserved(&cluster);

    cluster.rejoin(1).expect("rejoin replays the WAL");
    for alert in &windows[1] {
        cluster.route(alert.clone()).expect("route succeeds");
    }
    let after = cluster.close_window().expect("window closes");
    assert_eq!(after.degraded, Vec::<usize>::new());
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!((counters.in_flight, counters.dropped), (0, 0));
    assert_eq!(
        counters.delivered,
        (windows[0].len() + windows[1].len()) as u64
    );
    assert_scrape_conserved(&cluster);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A live range handoff in the middle of a window: the moved range's
/// sealed history and in-flight alerts travel with it (through the
/// JSON wire format), ownership changes, and the stream — including
/// the handoff window itself — matches a run that never rebalanced.
/// Triage is stripped (the partition changed); nothing else may move.
#[test]
fn live_range_handoff_neither_drops_nor_double_counts() {
    let (catalog, windows) = windowed_trace(7, 48);
    let reference = run_cluster(3, 2, "handoff-ref", &catalog, &windows);

    let root = wal_root("handoff-live");
    let _ = std::fs::remove_dir_all(&root);
    let mut cluster = spawn(3, 2, &root, &catalog);
    let fault_window = windows.len() / 2;
    let mut snapshots = Vec::with_capacity(windows.len());
    let mut report = None;
    for (index, window) in windows.iter().enumerate() {
        if index == fault_window {
            let (routed, rest) = window.split_at(window.len() / 2);
            for alert in routed {
                cluster.route(alert.clone()).expect("route succeeds");
            }
            let range = cluster.range_map().ranges_of(0)[0];
            let moved = cluster.handoff(range, 2).expect("handoff completes");
            assert_eq!((moved.from, moved.to), (0, 2));
            assert!(
                moved.moved_alerts > 0,
                "node 0's history for the range must ship: {moved:?}"
            );
            assert_eq!(cluster.range_map().node_of(StrategyId(range.start)), 2);
            assert_eq!(cluster.range_map().node_of(StrategyId(range.end)), 2);
            report = Some(moved);
            for alert in rest {
                cluster.route(alert.clone()).expect("route succeeds");
            }
        } else {
            for alert in window {
                cluster.route(alert.clone()).expect("route succeeds");
            }
        }
        snapshots.push(cluster.close_window().expect("window closes"));
    }
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!(counters.dropped, 0, "a handoff must lose nothing");
    assert_eq!(cluster.metrics().handoffs.get(), 1);
    assert_scrape_conserved(&cluster);
    let text = cluster.render_metrics();
    assert_eq!(
        exposition_value(&text, "alertops_cluster_handoff_micros_count"),
        1,
        "handoff latency must be observed:\n{text}"
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    let report = report.expect("handoff ran");
    assert!(report.micros < 60_000_000, "handoff latency is sane");
    for (index, (got, want)) in snapshots.iter().zip(&reference).enumerate() {
        assert_eq!(
            json(&comparable(got)),
            json(&comparable(want)),
            "handoff run diverged from the never-rebalanced run at window {index}"
        );
    }
}

/// WAL truncation while a node is dead: the chopped tail records are
/// unrecoverable, so the rejoin counts them `dropped` — the loss is
/// visible, attributed, and the conservation law still balances, both
/// in-process and from the scraped exposition.
#[test]
fn wal_truncation_is_counted_dropped_never_leaked() {
    let (catalog, windows) = windowed_trace(7, 48);
    let root = wal_root("truncate");
    let _ = std::fs::remove_dir_all(&root);
    let mut cluster = spawn(2, 2, &root, &catalog);

    for alert in &windows[0] {
        cluster.route(alert.clone()).expect("route succeeds");
    }
    cluster.close_window().expect("window closes");

    for alert in &windows[1] {
        cluster.route(alert.clone()).expect("route succeeds");
    }
    let in_flight_before = cluster.counters().in_flight;
    assert!(in_flight_before > 0);
    cluster.kill(0);
    cluster
        .truncate_wal_tail(0, 64)
        .expect("truncation applies");
    cluster.rejoin(0).expect("rejoin replays what survives");

    let counters = cluster.counters();
    assert!(
        counters.dropped >= 1,
        "the chopped record must surface as a drop: {counters:?}"
    );
    assert!(
        cluster.metrics().wal_torn_records.get() >= 1,
        "replay must report the torn record"
    );
    assert!(counters.is_conserved(), "{counters:?}");

    for window in &windows[2..] {
        for alert in window {
            cluster.route(alert.clone()).expect("route succeeds");
        }
        cluster.close_window().expect("window closes");
    }
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!(counters.in_flight, 0);
    assert!(counters.delivered < counters.ingested);
    assert_scrape_conserved(&cluster);
    let text = cluster.render_metrics();
    assert!(exposition_value(&text, "alertops_cluster_wal_torn_records_total") >= 1);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// One chaos-scheduled cluster run: node kills, rejoins, and a WAL
/// truncation placed by the seed. Returns every published snapshot
/// plus the final accounting, so equality across runs is equality of
/// the entire observable history.
fn chaos_cluster_run(seed: u64, tag: &str) -> Vec<String> {
    let out = scenarios::quickstart(7).run();
    let catalog = out.catalog.strategies().to_vec();
    let mut trace = out.alerts.clone();
    trace.sort_by_key(|a| (a.raised_at(), a.id()));

    let schedule = ChaosSchedule::generate(
        seed,
        &ChaosConfig {
            trace_len: trace.len(),
            shards: 2,
            // Node faults only: the single-daemon fault kinds target a
            // daemon handle this driver does not expose.
            resets: 0,
            truncations: 0,
            corruptions: 0,
            stalls: 0,
            panics: 0,
            close_panics: 0,
            overflows: 0,
            nodes: 3,
            node_kills: 2,
            node_rejoins: 3,
            wal_truncates: 1,
            truncate_bytes: 48,
            ..ChaosConfig::default()
        },
    );

    let root = wal_root(tag);
    let _ = std::fs::remove_dir_all(&root);
    let mut cluster = spawn(3, 2, &root, &catalog);
    let mut outputs = Vec::new();
    for (index, alert) in trace.iter().enumerate() {
        for event in schedule.events_at(index) {
            match event.kind {
                ChaosKind::NodeKill { node } => cluster.kill(node),
                ChaosKind::NodeRejoin { node } => {
                    cluster.rejoin(node).expect("rejoin replays the WAL");
                }
                ChaosKind::WalTruncate { node, bytes } => {
                    // Disk damage is modelled on a dead node (a live
                    // writer owns its open segment).
                    cluster.kill(node);
                    cluster
                        .truncate_wal_tail(node, bytes)
                        .expect("truncation applies");
                }
                ref other => panic!("unscheduled chaos kind {other:?}"),
            }
        }
        cluster.route(alert.clone()).expect("route succeeds");
        if (index + 1) % 60 == 0 {
            outputs.push(json(&cluster.close_window().expect("window closes")));
        }
    }
    // Settle: bring every node back (dead ones replay their logs) and
    // close a final window so nothing stays in flight.
    for node in 0..3 {
        cluster.rejoin(node).expect("rejoin replays the WAL");
    }
    outputs.push(json(&cluster.close_window().expect("window closes")));

    let counters = cluster.counters();
    assert!(counters.is_conserved(), "seed {seed}: {counters:?}");
    assert_eq!(counters.in_flight, 0, "seed {seed}: {counters:?}");
    assert_scrape_conserved(&cluster);
    outputs.push(format!("{counters:?}"));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    outputs
}

/// A chaos-supervised cluster run is a pure function of its seed —
/// node kills, WAL replays, and truncation losses included. Override
/// the seed with `CHAOS_SEED` to replay a failure printed by CI.
#[test]
fn chaos_node_faults_are_replayable_from_the_seed() {
    let seed = seed_from_env(0xC105_7E12);
    let first = chaos_cluster_run(seed, "chaos-a");
    let second = chaos_cluster_run(seed, "chaos-b");
    assert_eq!(
        first, second,
        "chaos cluster run is not seed-pure (CHAOS_SEED={seed})"
    );
}

/// Pulling the plug on the *whole* cluster mid-window and respawning
/// over the same WAL root resumes byte-identically: sealed windows are
/// re-published at their original sequence numbers, the in-flight tail
/// comes back as pending, and the continuation matches a run that
/// never restarted.
#[test]
fn whole_cluster_restart_from_wal_is_lossless() {
    let (catalog, windows) = windowed_trace(7, 48);
    let reference = run_cluster(3, 2, "restart-ref", &catalog, &windows);

    let root = wal_root("restart-live");
    let _ = std::fs::remove_dir_all(&root);
    let split = windows.len() / 2;
    let mut cluster = spawn(3, 2, &root, &catalog);
    let mut snapshots = Vec::with_capacity(windows.len());
    for window in &windows[..split] {
        for alert in window {
            cluster.route(alert.clone()).expect("route succeeds");
        }
        snapshots.push(cluster.close_window().expect("window closes"));
    }
    let (routed, rest) = windows[split].split_at(windows[split].len() / 2);
    for alert in routed {
        cluster.route(alert.clone()).expect("route succeeds");
    }
    cluster.shutdown(); // every daemon's memory is gone; the logs remain

    let mut cluster = spawn(3, 2, &root, &catalog);
    assert_eq!(
        json(&cluster.latest_snapshot().expect("replay re-publishes")),
        json(&snapshots[split - 1]),
        "restart must restore the last published snapshot"
    );
    assert_eq!(
        cluster.counters().in_flight,
        routed.len() as u64,
        "the in-flight tail must come back as pending work"
    );
    for alert in rest {
        cluster.route(alert.clone()).expect("route succeeds");
    }
    snapshots.push(cluster.close_window().expect("window closes"));
    for window in &windows[split + 1..] {
        for alert in window {
            cluster.route(alert.clone()).expect("route succeeds");
        }
        snapshots.push(cluster.close_window().expect("window closes"));
    }
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(snapshots.len(), reference.len());
    for (index, (got, want)) in snapshots.iter().zip(&reference).enumerate() {
        assert_eq!(
            json(got),
            json(want),
            "restarted cluster diverged from the uninterrupted run at window {index}"
        );
    }
}

/// One failed-write policy: a close whose QoA checkpoint write fails
/// (the coordinator directory is gone) or whose boundary write fails
/// (a node's log directory is gone, so the next segment cannot be
/// created) is counted and still completes — published under the next
/// window index, its alerts delivered and out of flight — and the
/// conservation law holds from the scrape after that close and after
/// the next one.
#[test]
fn a_failed_log_write_is_counted_and_the_close_completes() {
    let (catalog, windows) = windowed_trace(7, 64);
    for (tag, qoa, victim) in [
        ("ckpt-fails", true, "coordinator"),
        ("seal-fails", false, "node-0"),
    ] {
        let root = wal_root(tag);
        let _ = std::fs::remove_dir_all(&root);
        let mut config = cluster_config(2, 2, root.clone());
        if qoa {
            config.node.streaming.qoa.mode = ChannelMode::Forward;
        }
        let mut cluster =
            AlertCluster::spawn(config, catalog.clone(), factory()).expect("cluster spawns");
        for (seq, window) in windows[..3].iter().enumerate() {
            if seq == 1 {
                std::fs::remove_dir_all(root.join(victim)).unwrap();
            }
            for alert in window {
                cluster.route(alert.clone()).expect("route succeeds");
            }
            let snapshot = cluster.close_window().expect("the close completes");
            assert_eq!(snapshot.window_index, seq as u64, "{tag}");
            assert_eq!(snapshot.alert_count, window.len(), "{tag}");
            assert_eq!(cluster.wal_write_errors(), seq as u64, "{tag}");
            let text = cluster.render_metrics();
            let errors = exposition_value(&text, "alertops_cluster_wal_write_errors_total");
            assert_eq!(errors, seq as u64, "{tag}");
            assert_scrape_conserved(&cluster);
            let counters = cluster.counters();
            assert_eq!((counters.in_flight, counters.dropped), (0, 0), "{tag}");
            assert_eq!(counters.windows_closed, seq as u64 + 1, "{tag}");
        }
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A restart reads back every node's log before it wipes any: a log it
/// cannot read (here `node-1` is a regular file) fails the spawn with
/// `node-0`'s journal still on disk, and once the fault is gone a
/// second spawn recovers every alert.
#[test]
fn spawn_reads_every_log_before_wiping_any() {
    let (catalog, windows) = windowed_trace(7, 64);
    let root = wal_root("read-before-wipe");
    let _ = std::fs::remove_dir_all(&root);
    let mut cluster = spawn(2, 2, &root, &catalog);
    for alert in &windows[0] {
        cluster.route(alert.clone()).expect("route succeeds");
    }
    cluster.close_window().expect("window closes");
    for alert in &windows[1] {
        cluster.route(alert.clone()).expect("route succeeds");
    }
    cluster.shutdown();

    let (node0, node1) = (root.join("node-0"), root.join("node-1"));
    let journaled = replay(&node0).expect("node-0's log reads").recovered_alerts;
    assert!(journaled > 0, "node-0 must own part of the trace");
    let aside = root.join("node-1.aside");
    std::fs::rename(&node1, &aside).unwrap();
    std::fs::write(&node1, b"not a log directory").unwrap();
    AlertCluster::spawn(
        cluster_config(2, 2, root.clone()),
        catalog.clone(),
        factory(),
    )
    .expect_err("a log that cannot be read fails the spawn");
    assert_eq!(
        replay(&node0).expect("node-0's log reads").recovered_alerts,
        journaled,
        "a failed spawn must leave node-0's journal on disk"
    );

    std::fs::remove_file(&node1).unwrap();
    std::fs::rename(&aside, &node1).unwrap();
    let cluster = spawn(2, 2, &root, &catalog);
    let recovered = (windows[0].len() + windows[1].len()) as u64;
    assert_eq!(cluster.metrics().wal_replayed_alerts.get(), recovered);
    let snapshot = cluster
        .latest_snapshot()
        .expect("the sealed window re-publishes");
    assert_eq!(snapshot.alert_count, windows[0].len());
    let counters = cluster.counters();
    assert_eq!(counters.in_flight, windows[1].len() as u64);
    assert!(counters.is_conserved(), "{counters:?}");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Set in the child half of `a_handoff_sheds_what_its_target_log_cannot_hold`
/// to the WAL root the child fills.
const CAPPED_ROOT: &str = "ALERTOPS_CLUSTER_CAPPED_ROOT";

/// One failed-write policy through a restart: a handoff whose target's
/// log cannot take the moved tail sheds what it cannot re-journal (one
/// write error per failed append, `dropped` through the handoff's
/// journaled − restored count), completes, and keeps the law exact. The
/// test re-runs itself as a child whose files are capped at 512 bytes
/// (`ulimit -f 1`, in 512-byte blocks) with `SIGXFSZ` ignored, so a
/// write past the cap fails with `EFBIG` instead of killing it.
#[cfg(unix)]
#[test]
fn a_handoff_sheds_what_its_target_log_cannot_hold() {
    if let Some(root) = std::env::var_os(CAPPED_ROOT) {
        return handoff_past_the_cap(Path::new(&root));
    }
    let root = wal_root("capped-handoff");
    let _ = std::fs::remove_dir_all(&root);
    let out = std::process::Command::new("sh")
        .args(["-c", r#"trap '' XFSZ; ulimit -f 1; exec "$0" "$@""#])
        .arg(std::env::current_exe().expect("the test binary's path"))
        .args(["--exact", "a_handoff_sheds_what_its_target_log_cannot_hold"])
        .args(["--nocapture", "--test-threads=1"])
        .env(CAPPED_ROOT, &root)
        .output()
        .expect("sh runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "the capped child failed:\n{stdout}\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The child half. Each node seals a window that fits its log but not
/// both together, then node 1 journals a tail until its log refuses an
/// append; node 0's range then moves to node 1, whose restart
/// re-journals the merged window and both tails past the cap.
fn handoff_past_the_cap(root: &Path) {
    let (catalog, windows) = windowed_trace(7, 64);
    let mut cluster = spawn(2, 1, root, &catalog);
    let owner = |alert: &Alert| cluster.range_map().node_of(alert.strategy());
    let (to_0, to_1): (Vec<Alert>, Vec<Alert>) =
        windows.concat().into_iter().partition(|a| owner(a) == 0);
    let (mut to_0, mut to_1) = (to_0.into_iter(), to_1.into_iter());
    // Each node's window fills its log past 384 of the 512 bytes.
    let journaled = |node: usize| {
        let segment = root.join(format!("node-{node}/seg-0000000000.wal"));
        std::fs::metadata(segment).map_or(0, |m| m.len())
    };
    for (node, alerts) in [(0, &mut to_0), (1, &mut to_1)] {
        while journaled(node) < 384 {
            let alert = alerts.next().expect("the trace outlasts the cap");
            cluster.route(alert).expect("a sealed window's alerts fit");
        }
    }
    cluster.close_window().expect("the close completes");
    for alert in to_0.take(3) {
        cluster.route(alert).expect("node 0's tail fits");
    }
    let refused = to_1.map(|alert| cluster.route(alert)).find(Result::is_err);
    assert!(refused.is_some(), "node 1's log never filled");
    let before = cluster.counters();
    let errors = cluster.wal_write_errors();
    assert_eq!(before.dropped, errors, "each refused append is shed once");

    let range = cluster.range_map().ranges_of(0)[0];
    cluster.handoff(range, 1).expect("the handoff completes");
    let after = cluster.counters();
    assert!(
        cluster.wal_write_errors() > errors,
        "the target's log refused nothing"
    );
    assert!(after.is_conserved(), "{after:?}");

    let snapshot = cluster.close_window().expect("the close completes");
    assert_eq!(snapshot.alert_count as u64, after.in_flight);
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    cluster.shutdown();
}

/// Alerts outside the catalog are quarantined at the cluster edge and
/// still accounted by the conservation law.
#[test]
fn unknown_strategies_quarantine_at_the_edge() {
    let (catalog, windows) = windowed_trace(7, 64);
    let root = wal_root("quarantine");
    let _ = std::fs::remove_dir_all(&root);
    let mut cluster = spawn(2, 2, &root, &catalog);
    for alert in &windows[0] {
        cluster.route(alert.clone()).expect("route succeeds");
    }
    let stray = Alert::builder(AlertId(999_999), StrategyId(u64::MAX - 1))
        .title("stray alert from an unregistered strategy")
        .raised_at(SimTime::from_secs(60))
        .build();
    cluster.route(stray).expect("quarantine is not an error");
    let snapshot = cluster.close_window().expect("window closes");
    assert_eq!(snapshot.alert_count, windows[0].len());
    let counters = cluster.counters();
    assert_eq!(counters.quarantined, 1);
    assert!(counters.is_conserved(), "{counters:?}");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The real binary, really killed: `alertops ingestd --wal DIR` is
/// SIGKILLed mid-window after journaling a streamed trace; a respawn
/// over the same directory replays the log and delivers every alert
/// the dead process accepted — zero loss, re-asserted from the status
/// scrape.
mod subprocess {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    use alertops::ingestd::codec::encode_alert;
    use alertops::ingestd::StatusReport;
    use alertops::sim::scenarios;

    struct Daemon {
        child: Child,
        lines: std::io::Lines<BufReader<std::process::ChildStdout>>,
        ingest: std::net::SocketAddr,
        status: std::net::SocketAddr,
    }

    /// A test that fails half-way must not leave its daemon running.
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }

    /// `alertops ingestd` over quickstart seed 7 on ephemeral ports,
    /// plus `extra` flags.
    fn spawn_daemon(extra: &[&str]) -> Daemon {
        start_daemon(Command::new(env!("CARGO_BIN_EXE_alertops")), extra)
    }

    /// The binary run through `sh` with every file it writes capped at
    /// 512 bytes (`ulimit -f 1`, in 512-byte blocks) and `SIGXFSZ`
    /// ignored, so a write past the cap fails with `EFBIG` instead of
    /// killing the process.
    fn file_size_capped() -> Command {
        let mut sh = Command::new("sh");
        sh.args(["-c", r#"trap '' XFSZ; ulimit -f 1; exec "$0" "$@""#])
            .arg(env!("CARGO_BIN_EXE_alertops"));
        sh
    }

    /// `program` (the binary, or a wrapper that execs it) started as
    /// [`spawn_daemon`] starts the binary.
    fn start_daemon(mut program: Command, extra: &[&str]) -> Daemon {
        let mut child = program
            .args([
                "ingestd",
                "--scenario",
                "quickstart",
                "--seed",
                "7",
                "--shards",
                "2",
                "--listen",
                "127.0.0.1:0",
                "--status",
                "127.0.0.1:0",
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary spawns");
        let mut lines = BufReader::new(child.stdout.take().expect("stdout piped")).lines();
        let up = loop {
            let line = lines
                .next()
                .expect("daemon prints its banner")
                .expect("stdout is utf-8");
            if line.starts_with("ingestd up:") {
                break line;
            }
        };
        // "ingestd up: 2 shard(s), ingest 127.0.0.1:P, status 127.0.0.1:Q"
        let addr_after = |marker: &str| -> std::net::SocketAddr {
            up.split(marker)
                .nth(1)
                .and_then(|rest| rest.split([',', ' ']).next())
                .and_then(|addr| addr.parse().ok())
                .unwrap_or_else(|| panic!("cannot parse {marker:?} address from {up:?}"))
        };
        Daemon {
            child,
            lines,
            ingest: addr_after("ingest "),
            status: addr_after("status "),
        }
    }

    fn scrape_status(addr: std::net::SocketAddr) -> StatusReport {
        let mut stream = TcpStream::connect(addr).expect("connect to status");
        stream.write_all(b"status\n").expect("send status verb");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read document");
        serde_json::from_str(body.trim()).expect("status parses")
    }

    /// Polls the status socket until the daemon has routed (and
    /// therefore journaled — the WAL write happens first) `sent`
    /// alerts.
    fn wait_until_journaled(addr: std::net::SocketAddr, sent: u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if scrape_status(addr).counters.ingested >= sent {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "daemon never ingested {sent} alerts"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn ingestd_wal_replay_survives_kill_dash_nine() {
        let wal =
            std::env::temp_dir().join(format!("alertops-ingestd-kill9-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal);
        let wal_flags = ["--wal", wal.to_str().expect("utf-8 temp path")];

        let trace = {
            let out = scenarios::quickstart(7).run();
            let mut trace = out.alerts;
            trace.sort_by_key(|a| (a.raised_at(), a.id()));
            trace.truncate(120);
            trace
        };

        // First incarnation: stream the trace, never close a window,
        // and die without ceremony.
        let mut daemon = spawn_daemon(&wal_flags);
        {
            let mut stream = TcpStream::connect(daemon.ingest).expect("connect to ingress");
            for alert in &trace {
                writeln!(stream, "{}", encode_alert(alert)).expect("write alert");
            }
            stream.flush().expect("flush socket");
            wait_until_journaled(daemon.status, trace.len() as u64);
        }
        daemon.child.kill().expect("SIGKILL lands");
        daemon.child.wait().expect("child reaped");

        // Second incarnation over the same log: the banner reports the
        // replay, and a flush delivers every accepted alert.
        let mut daemon = spawn_daemon(&wal_flags);
        let counters_before = scrape_status(daemon.status).counters;
        assert_eq!(
            counters_before.ingested,
            trace.len() as u64,
            "replay must re-ingest the whole journaled tail"
        );
        assert_eq!(counters_before.dropped, 0);

        let stream = TcpStream::connect(daemon.ingest).expect("connect to ingress");
        let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut writer = stream;
        writeln!(writer, "{}", alertops::ingestd::FLUSH_FRAME).expect("write flush");
        let mut ack = String::new();
        reader.read_line(&mut ack).expect("read flush ack");
        assert!(
            ack.contains(&format!(r#""alerts":{}"#, trace.len())),
            "flush must deliver every recovered alert: {ack:?}"
        );

        let report = scrape_status(daemon.status);
        assert_eq!(report.counters.delivered, trace.len() as u64);
        assert_eq!(report.counters.windows_closed, 1);
        assert!(report.counters.is_conserved(), "{:?}", report.counters);
        assert_eq!(
            report.snapshot.expect("flush published").alert_count,
            trace.len()
        );

        writeln!(writer, "{}", alertops::ingestd::SHUTDOWN_FRAME).expect("write shutdown");
        let mut ack = String::new();
        reader.read_line(&mut ack).expect("read shutdown ack");
        daemon.child.wait().expect("clean exit");
        // Drain the rest of the banner reader so the pipe closes tidily.
        for _ in daemon.lines.by_ref() {}
        let _ = std::fs::remove_dir_all(&wal);
    }

    /// One failed-write policy, in the real binary: a daemon whose log
    /// stops taking writes part-way through a window sheds each alert
    /// it cannot journal — counted `dropped` and a write error, never
    /// queued — so the flush delivers exactly the rest, the status
    /// scrape stays conserved, and the exit status reports the errors.
    #[test]
    fn a_daemon_sheds_what_its_log_cannot_hold() {
        let wal =
            std::env::temp_dir().join(format!("alertops-ingestd-capped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal);
        let wal_flags = ["--wal", wal.to_str().expect("utf-8 temp path")];
        let trace = scenarios::quickstart(7).run().alerts;
        let trace = &trace[..120];

        let mut daemon = start_daemon(file_size_capped(), &wal_flags);
        let stream = TcpStream::connect(daemon.ingest).expect("connect to ingress");
        let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut writer = stream;
        for alert in trace {
            writeln!(writer, "{}", encode_alert(alert)).expect("write alert");
        }
        wait_until_journaled(daemon.status, trace.len() as u64);
        writeln!(writer, "{}", alertops::ingestd::FLUSH_FRAME).expect("write flush");
        let mut ack = String::new();
        reader.read_line(&mut ack).expect("read flush ack");

        let counters = scrape_status(daemon.status).counters;
        assert_eq!(counters.ingested, trace.len() as u64);
        assert!(counters.dropped > 0, "the cap never bit: {counters:?}");
        assert!(counters.is_conserved(), "{counters:?}");
        let delivered = counters.ingested - counters.dropped;
        assert!(
            ack.contains(&format!(r#""alerts":{delivered}"#)),
            "the flush must deliver exactly what was journaled: {ack:?} vs {counters:?}"
        );

        writeln!(writer, "{}", alertops::ingestd::SHUTDOWN_FRAME).expect("write shutdown");
        let mut ack = String::new();
        reader.read_line(&mut ack).expect("read shutdown ack");
        let status = daemon.child.wait().expect("daemon reaped");
        let stopped = daemon
            .lines
            .by_ref()
            .map_while(Result::ok)
            .find(|line| line.starts_with("ingestd stopped:"))
            .expect("the daemon reports its stop");
        assert!(!stopped.contains(" 0 wal write error"), "{stopped}");
        assert!(
            !status.success(),
            "write errors turn the exit status nonzero"
        );
        for _ in daemon.lines.by_ref() {}
        let _ = std::fs::remove_dir_all(&wal);
    }

    /// The CLI can feed a daemon it started itself, in either wire
    /// format: `replay --wire W --shutdown` against `ingestd --wire W`
    /// streams the whole trace, prints the acks it got back as their
    /// NDJSON lines, and both processes exit cleanly.
    #[test]
    fn replay_speaks_the_wire_format_its_daemon_listens_in() {
        let alerts = scenarios::quickstart(7).run().alerts.len();
        for wire in ["ndjson", "binary"] {
            let mut daemon = spawn_daemon(&["--wire", wire]);
            let replay = Command::new(env!("CARGO_BIN_EXE_alertops"))
                .args(["replay", "--scenario", "quickstart", "--seed", "7"])
                .args(["--connect", &daemon.ingest.to_string()])
                .args(["--wire", wire, "--shutdown"])
                .stderr(Stdio::null())
                .output()
                .expect("replay runs");
            let stdout = String::from_utf8_lossy(&replay.stdout);
            assert!(replay.status.success(), "{wire}: {stdout}");
            assert!(
                stdout.contains(&format!(
                    r#"final {{"ack":"flush","window":0,"alerts":{alerts}}}"#
                )),
                "{wire}: the one flush must deliver the whole trace: {stdout}"
            );
            assert!(
                stdout.contains(r#"daemon said: {"ack":"shutdown"}"#),
                "{wire}: {stdout}"
            );
            let status = daemon.child.wait().expect("daemon reaped");
            assert!(status.success(), "{wire}: daemon exits cleanly on shutdown");
            for _ in daemon.lines.by_ref() {}
        }
    }
}
