//! The `alertops-cluster` scenario matrix: differential proofs that a
//! topology is an execution strategy, not a semantics change, and that
//! the write-ahead log makes every fault accountable.
//!
//! - Clusters of 1 to 4 nodes publish the batch oracle's snapshots over
//!   the same windowed trace, as every other topology of the harness
//!   in `tests/common` does.
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
//! - The cluster's scrape carries R3's stage timer, one span per close.
//! - A spawn reads every node's log before it wipes any, so a log it
//!   cannot read costs no other node its journal; a handoff whose
//!   target's log refuses part of the moved tail sheds it, counted.
//! - The real binary survives `kill -9` mid-window via `--wal` (in
//!   `ingestd_wal_replay_survives_kill_dash_nine`), and sheds what its
//!   log cannot hold with exact accounting (in
//!   `a_daemon_sheds_what_its_log_cannot_hold`).

mod common;

use std::path::Path;

use alertops::chaos::{seed_from_env, ChaosConfig, ChaosKind, ChaosSchedule};
use alertops::cluster::{replay, AlertCluster};
use alertops::core::prelude::*;

use common::{route_all, wal_root, Case, Faults, Topology};

/// The quickstart trace of seed 7 in windows of `len`, with a trailing
/// empty window, under a rolling history of 3 — small, so the
/// differentials cross eviction boundaries and WAL pruning.
fn cluster_case(len: usize) -> Case {
    Case::quickstart(7, len, 1).history(3)
}

/// The single value of an unlabelled family.
fn exposition_value(text: &str, name: &str) -> u64 {
    let values = common::exposition_values(text, name);
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

/// The tentpole differential: every cluster size (1 × 1, 2 × 2, 3 × 2,
/// 4 × 1, 4 × 2) publishes the batch oracle's governance stream, and
/// so does every other topology, each compared whole, triage included,
/// with the full-catalog oracle.
#[test]
fn cluster_sizes_agree_with_each_other_and_the_batch_oracle() {
    common::assert_topologies_agree(&cluster_case(48));
}

/// Mid-window `kill -9` + rejoin: the killed node's daemon memory is
/// gone, but its WAL holds the sealed history and the in-flight tail,
/// so after replay the faulted run is **byte-identical** to the batch
/// side, as a run that never faulted is — nothing is stripped, and the
/// fault window itself must close clean (the node is back before the
/// close, so not even `degraded` may differ).
#[test]
fn mid_window_kill_and_rejoin_is_byte_invisible() {
    let case = cluster_case(48);
    let reference = common::run(&case, Topology::Batch);

    let root = wal_root("kill-live");
    let mut cluster = case.cluster(3, 2, &root);
    let fault_window = case.windows.len() / 2;
    let mut snapshots = Vec::with_capacity(case.windows.len());
    for (index, window) in case.windows.iter().enumerate() {
        if index == fault_window {
            let (routed, rest) = window.alerts.split_at(window.alerts.len() / 2);
            route_all(&cluster, routed);
            cluster.kill(1);
            assert_eq!(cluster.alive_nodes(), 2);
            cluster.rejoin(1).expect("rejoin replays the WAL");
            assert_eq!(cluster.alive_nodes(), 3);
            route_all(&cluster, rest);
        } else {
            route_all(&cluster, &window.alerts);
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

    // Byte-invisible: compared as if nothing had been injected.
    common::assert_agree(
        "kill+rejoin run against the batch side",
        &reference,
        &snapshots,
        Faults::None,
    );
}

/// A window closed *across* a dead node says so, in the flat
/// `node * shards + shard` encoding: with node 1 of a 3-node × 2-shard
/// cluster down, the close lists exactly shards 2 and 3 degraded and
/// node 1's journaled alerts stay in flight; the first close after the
/// rejoin lists none and delivers them. Conservation holds at both.
#[test]
fn a_close_across_a_dead_node_lists_its_shards_degraded() {
    let case = cluster_case(48);
    let windows = &case.windows;
    let root = wal_root("degraded-flat");
    let mut cluster = case.cluster(3, 2, &root);

    cluster.kill(1);
    route_all(&cluster, &windows[0].alerts);
    let across = cluster.close_window().expect("window closes");
    assert_eq!(across.degraded, vec![2, 3]);
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert!(counters.in_flight > 0, "node 1 owns part of the window");
    assert_eq!(
        across.alert_count as u64 + counters.in_flight,
        windows[0].alerts.len() as u64
    );
    assert_scrape_conserved(&cluster);

    cluster.rejoin(1).expect("rejoin replays the WAL");
    route_all(&cluster, &windows[1].alerts);
    let after = cluster.close_window().expect("window closes");
    assert_eq!(after.degraded, Vec::<usize>::new());
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!((counters.in_flight, counters.dropped), (0, 0));
    assert_eq!(
        counters.delivered,
        (windows[0].alerts.len() + windows[1].alerts.len()) as u64
    );
    assert_scrape_conserved(&cluster);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A live range handoff in the middle of a window: the moved range's
/// sealed history and in-flight alerts travel with it (through the
/// JSON wire format), ownership changes, and the stream — including
/// the handoff window itself — matches the batch side, as a run that
/// never rebalanced does. Triage included: R3 runs at the merge point,
/// so moving a range between nodes moves nothing.
#[test]
fn live_range_handoff_neither_drops_nor_double_counts() {
    let case = cluster_case(48);
    let reference = common::run(&case, Topology::Batch);

    let root = wal_root("handoff-live");
    let mut cluster = case.cluster(3, 2, &root);
    let fault_window = case.windows.len() / 2;
    let mut snapshots = Vec::with_capacity(case.windows.len());
    let mut report = None;
    for (index, window) in case.windows.iter().enumerate() {
        if index == fault_window {
            let (routed, rest) = window.alerts.split_at(window.alerts.len() / 2);
            route_all(&cluster, routed);
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
            route_all(&cluster, rest);
        } else {
            route_all(&cluster, &window.alerts);
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
    common::assert_agree(
        "handoff run against the batch side",
        &reference,
        &snapshots,
        Faults::None,
    );
}

/// WAL truncation while a node is dead: the chopped tail records are
/// unrecoverable, so the rejoin counts them `dropped` — the loss is
/// visible, attributed, and the conservation law still balances, both
/// in-process and from the scraped exposition.
#[test]
fn wal_truncation_is_counted_dropped_never_leaked() {
    let case = cluster_case(48);
    let windows = &case.windows;
    let root = wal_root("truncate");
    let mut cluster = case.cluster(2, 2, &root);

    route_all(&cluster, &windows[0].alerts);
    cluster.close_window().expect("window closes");

    route_all(&cluster, &windows[1].alerts);
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
        route_all(&cluster, &window.alerts);
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
    let case = cluster_case(48);
    let trace: Vec<Alert> = case.windows.iter().flat_map(|w| w.alerts.clone()).collect();

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
    let mut cluster = case.cluster(3, 2, &root);
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
            outputs.push(common::json(
                &cluster.close_window().expect("window closes"),
            ));
        }
    }
    // Settle: bring every node back (dead ones replay their logs) and
    // close a final window so nothing stays in flight.
    for node in 0..3 {
        cluster.rejoin(node).expect("rejoin replays the WAL");
    }
    outputs.push(common::json(
        &cluster.close_window().expect("window closes"),
    ));

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
/// comes back as pending, and the continuation matches the batch side,
/// as a run that never restarted does.
#[test]
fn whole_cluster_restart_from_wal_is_lossless() {
    let case = cluster_case(48);
    let windows = &case.windows;
    let reference = common::run(&case, Topology::Batch);

    let root = wal_root("restart-live");
    let split = windows.len() / 2;
    let mut cluster = case.cluster(3, 2, &root);
    let mut snapshots = Vec::with_capacity(windows.len());
    for window in &windows[..split] {
        route_all(&cluster, &window.alerts);
        snapshots.push(cluster.close_window().expect("window closes"));
    }
    let (routed, rest) = windows[split]
        .alerts
        .split_at(windows[split].alerts.len() / 2);
    route_all(&cluster, routed);
    cluster.shutdown(); // every daemon's memory is gone; the logs remain

    let mut cluster = case.cluster(3, 2, &root);
    assert_eq!(
        common::json(&cluster.latest_snapshot().expect("replay re-publishes")),
        common::json(&snapshots[split - 1]),
        "restart must restore the last published snapshot"
    );
    assert_eq!(
        cluster.counters().in_flight,
        routed.len() as u64,
        "the in-flight tail must come back as pending work"
    );
    route_all(&cluster, rest);
    snapshots.push(cluster.close_window().expect("window closes"));
    for window in &windows[split + 1..] {
        route_all(&cluster, &window.alerts);
        snapshots.push(cluster.close_window().expect("window closes"));
    }
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    common::assert_agree(
        "restarted cluster against the batch side",
        &reference,
        &snapshots,
        Faults::None,
    );
}

/// The cluster's merge point runs R3 once per closed window, and its
/// scrape shows it: the correlation stage's timer counts every close
/// and the clusters counter sums the published triage lists.
#[test]
fn a_cluster_scrape_times_r3_once_per_closed_window() {
    let case = cluster_case(64);
    let root = wal_root("r3-scrape");
    let mut cluster = case.cluster(2, 2, &root);
    let mut triage = 0;
    for (closed, window) in (1u64..).zip(&case.windows[..4]) {
        route_all(&cluster, &window.alerts);
        triage += cluster.close_window().expect("window closes").triage.len() as u64;
        let text = cluster.render_metrics();
        alertops::obs::lint_exposition(&text).expect("cluster exposition lints");
        let timed: Vec<u64> = text
            .lines()
            .filter_map(|line| {
                line.strip_prefix(r#"alertops_react_stage_micros_count{stage="correlation"} "#)
            })
            .map(|value| value.parse().expect("an integer count"))
            .collect();
        assert_eq!(timed, [closed], "one R3 span per close:\n{text}");
        assert_eq!(
            exposition_value(&text, "alertops_cluster_windows_closed_total"),
            closed
        );
        assert_eq!(
            exposition_value(&text, "alertops_react_clusters_total"),
            triage
        );
    }
    assert!(triage > 0, "the trace triages something");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
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
    let case = cluster_case(64);
    for (tag, qoa, victim) in [
        ("ckpt-fails", true, "coordinator"),
        ("seal-fails", false, "node-0"),
    ] {
        let root = wal_root(tag);
        let mut case = case.clone();
        if qoa {
            case.streaming.qoa.mode = ChannelMode::Forward;
        }
        let mut cluster = case.cluster(2, 2, &root);
        for (seq, window) in case.windows[..3].iter().enumerate() {
            if seq == 1 {
                std::fs::remove_dir_all(root.join(victim)).unwrap();
            }
            route_all(&cluster, &window.alerts);
            let snapshot = cluster.close_window().expect("the close completes");
            assert_eq!(snapshot.window_index, seq as u64, "{tag}");
            assert_eq!(snapshot.alert_count, window.alerts.len(), "{tag}");
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
    let case = cluster_case(64);
    let windows = &case.windows;
    let root = wal_root("read-before-wipe");
    let mut cluster = case.cluster(2, 2, &root);
    route_all(&cluster, &windows[0].alerts);
    cluster.close_window().expect("window closes");
    route_all(&cluster, &windows[1].alerts);
    cluster.shutdown();

    let (node0, node1) = (root.join("node-0"), root.join("node-1"));
    let journaled = replay(&node0).expect("node-0's log reads").recovered_alerts;
    assert!(journaled > 0, "node-0 must own part of the trace");
    let aside = root.join("node-1.aside");
    std::fs::rename(&node1, &aside).unwrap();
    std::fs::write(&node1, b"not a log directory").unwrap();
    AlertCluster::spawn(
        case.cluster_config(2, 2, &root),
        case.catalog.clone(),
        case.factory(),
    )
    .expect_err("a log that cannot be read fails the spawn");
    assert_eq!(
        replay(&node0).expect("node-0's log reads").recovered_alerts,
        journaled,
        "a failed spawn must leave node-0's journal on disk"
    );

    std::fs::remove_file(&node1).unwrap();
    std::fs::rename(&aside, &node1).unwrap();
    let cluster = case.cluster(2, 2, &root);
    let recovered = (windows[0].alerts.len() + windows[1].alerts.len()) as u64;
    assert_eq!(cluster.metrics().wal_replayed_alerts.get(), recovered);
    let snapshot = cluster
        .latest_snapshot()
        .expect("the sealed window re-publishes");
    assert_eq!(snapshot.alert_count, windows[0].alerts.len());
    let counters = cluster.counters();
    assert_eq!(counters.in_flight, windows[1].alerts.len() as u64);
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
    let case = cluster_case(64);
    let mut cluster = case.cluster(2, 1, root);
    let owner = |alert: &Alert| cluster.range_map().node_of(alert.strategy());
    let (to_0, to_1): (Vec<Alert>, Vec<Alert>) = case
        .windows
        .iter()
        .flat_map(|w| w.alerts.clone())
        .partition(|a| owner(a) == 0);
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
    let case = cluster_case(64);
    let root = wal_root("quarantine");
    let mut cluster = case.cluster(2, 2, &root);
    route_all(&cluster, &case.windows[0].alerts);
    let stray = Alert::builder(AlertId(999_999), StrategyId(u64::MAX - 1))
        .title("stray alert from an unregistered strategy")
        .raised_at(SimTime::from_secs(60))
        .build();
    cluster.route(stray).expect("quarantine is not an error");
    let snapshot = cluster.close_window().expect("window closes");
    assert_eq!(snapshot.alert_count, case.windows[0].alerts.len());
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
