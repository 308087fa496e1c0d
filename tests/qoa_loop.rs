//! Differential tests for the streaming QoA feedback loop: the seeded
//! oracle's label stream drives one online model to the same bits no
//! matter how the pipeline is partitioned.
//!
//! - One governor under a bare `OnlineQoaModel` and every topology of
//!   the harness in `tests/common` (daemons of 1 to 8 shards, in
//!   process and over both wires, clusters of 1 to 4 nodes) fed the
//!   same windows and labels publish byte-identical QoA reports
//!   (weights, scores, EMAs, verdicts via `model_digest`), and a
//!   journaled daemon and the cluster leave byte-identical checkpoint
//!   files.
//! - The verdicts actually govern: low-quality strategies demote into
//!   the blocker, high-quality strategies' alerts ride the escalation
//!   lane, and escalated alerts stay a subset of the delivered window
//!   (the conservation law is untouched).
//! - A cluster restart restores the model bit-for-bit from the
//!   coordinator's checkpoint file (not relearning) and the
//!   post-restart stream matches an uninterrupted run; the file is
//!   written with every node dead, and a damaged one means a fresh
//!   model, never an error.
//! - A journaled standalone daemon restarts the same way: its model
//!   and window sequence come back from its log directory, and a
//!   ticking restart re-publishes its last window before the first
//!   tick.

mod common;

use std::path::Path;
use std::time::{Duration, Instant};

use alertops::cluster::AlertCluster;
use alertops::core::prelude::*;
use alertops::ingestd::{IngestdConfig, IngestdHandle};
use alertops::sim::{scenarios, FeedbackOracle, SimOutput};

use common::{wal_root, Case, Faults, Topology, Window};

const ORACLE_SEED: u64 = 7;
const WINDOW_LEN: usize = 300;

/// An aggressive config — fast learning, heavy EMA weight, tight
/// thresholds — so the short quickstart trace pushes strategies
/// through both governance lanes (demotion and escalation) within a
/// handful of windows. Production defaults move far more slowly; the
/// differentials only need the lanes to *engage*.
fn qoa_feedback_config() -> QoaFeedbackConfig {
    QoaFeedbackConfig {
        learning_rate: 0.5,
        ema_alpha: 0.5,
        demote_below: 0.45,
        escalate_above: 0.55,
        ..QoaFeedbackConfig::default()
    }
}

fn streaming() -> StreamingConfig {
    StreamingConfig {
        qoa: Channel {
            mode: ChannelMode::Forward,
            config: qoa_feedback_config(),
        },
        ..StreamingConfig::default()
    }
}

/// The mini-study trace of seed 7 in fixed, time-sorted windows, plus
/// a trailing empty window (a close with no samples must not move the
/// model), with the QoA loop on and the seeded oracle's labels at
/// `noise`. Mini-study (not quickstart) because its anti-pattern mix
/// spans enough windows for bad strategies' EMAs to actually sink.
fn qoa_case(noise: f64) -> (SimOutput, Case) {
    let out = scenarios::mini_study(7).run();
    let mut case = Case::from_sim(&out, WINDOW_LEN, 1);
    case.streaming = streaming();
    case.labels = Some(label_stream(&out, &case, noise));
    (out, case)
}

/// The label stream every topology in a test replays: one sorted
/// `QoaLabel` batch per window, a pure function of the oracle seed.
fn label_stream(out: &SimOutput, case: &Case, noise: f64) -> Vec<Vec<QoaLabel>> {
    let oracle = FeedbackOracle::new(ORACLE_SEED, noise);
    case.windows
        .iter()
        .enumerate()
        .map(|(seq, window)| {
            oracle.label_window(seq as u64, &out.catalog, &window.alerts, &out.incidents)
        })
        .collect()
}

fn jsons(snapshots: &[GovernanceSnapshot]) -> Vec<String> {
    snapshots.iter().map(common::json).collect()
}

/// The tentpole differential: the bare-model loop (one full-catalog
/// governor forwarding its samples to a bare `OnlineQoaModel`, sharing
/// no close path with the daemons) == 1 shard == 4 shards == 2 nodes ==
/// every other topology, byte for byte, on every published QoA report
/// and every escalation lane — one merge point, one QoA stream, down to
/// the checkpoint file a journaled daemon and the cluster leave behind
/// — and the loop is *live*, not decorative: the model moves,
/// strategies demote, and alerts escalate within the trace.
#[test]
fn batch_one_shard_and_many_shards_publish_identical_qoa_streams() {
    let (_, case) = qoa_case(0.0);
    let reference = common::assert_topologies_agree(&case);

    let (daemon_wal, cluster_root) = (wal_root("stream-daemon"), wal_root("stream-cluster"));
    for (topology, dir) in [
        (Topology::Daemon { shards: 1 }, &daemon_wal),
        (
            Topology::Cluster {
                nodes: 2,
                shards: 2,
            },
            &cluster_root,
        ),
    ] {
        let journaled = common::run_journaled(&case, topology, dir);
        common::assert_agree(
            &format!("journaled {topology:?}"),
            &reference,
            &journaled,
            Faults::None,
        );
    }
    let checkpoint = |dir: &Path| std::fs::read(dir.join("qoa.ckpt")).expect("checkpoint written");
    assert_eq!(
        checkpoint(&daemon_wal),
        checkpoint(&cluster_root.join("coordinator")),
        "the daemon's and the cluster's last checkpoints differ"
    );
    for dir in [&daemon_wal, &cluster_root] {
        std::fs::remove_dir_all(dir).unwrap();
    }

    // The loop actually closed: labels were absorbed, the model left
    // its initial state, and both governance lanes engaged somewhere.
    let reports: Vec<&QoaWindowReport> = reference.iter().filter_map(|s| s.qoa.as_ref()).collect();
    assert_eq!(
        reports.len(),
        case.windows.len(),
        "every close publishes a report"
    );
    assert!(
        reports.iter().any(|r| r.absorbed > 0),
        "the oracle's labels never matched a sample"
    );
    let fresh = OnlineQoaModel::new(qoa_feedback_config());
    assert_ne!(
        reports.last().expect("nonempty").model_digest,
        fresh.digest(),
        "the model never learned anything"
    );
    assert!(
        reports.iter().any(|r| !r.demoted.is_empty()),
        "no strategy ever demoted — the loop is decorative"
    );
    assert!(
        reference.iter().any(|s| !s.escalated.is_empty()),
        "no alert ever escalated — the loop is decorative"
    );

    // The trailing empty window absorbs nothing and leaves the
    // verdicts exactly where the previous close put them (the digest
    // itself moves — it pins the absorbed-window counter too).
    let last = reports.last().expect("nonempty");
    let prior = reports[reports.len() - 2];
    assert_eq!(last.absorbed, 0);
    assert!(last.scored.is_empty(), "an empty window scored strategies");
    assert_eq!(last.demoted, prior.demoted, "an empty close moved verdicts");
    assert_eq!(
        last.promoted, prior.promoted,
        "an empty close moved verdicts"
    );
}

/// The QoA case with the fleet's dependency graph: R3 links alerts of
/// strategies on different shards and nodes, promoted alerts it leaves
/// out escalate, and every topology publishes the batch side's triage
/// and escalation lane, byte for byte.
#[test]
fn a_graph_with_promotion_triages_alike_on_every_topology() {
    let (out, case) = qoa_case(0.0);
    let graphless = common::run(&case, Topology::Batch);
    let case = case.graph(out.topology.dependency_graph());
    let reference = common::assert_topologies_agree(&case);
    assert!(
        reference
            .iter()
            .zip(&graphless)
            .any(|(with, without)| with.triage.len() < without.triage.len()),
        "the graph never linked two alerts"
    );
    assert!(
        reference.iter().any(|s| !s.escalated.is_empty()),
        "no alert ever escalated"
    );
}

/// Label noise is seeded per `(oracle seed, window index)`: the same
/// noisy stream replays to identical bits, a different seed diverges.
#[test]
fn noisy_label_streams_are_seed_replayable() {
    let (out, noisy) = qoa_case(0.25);
    let replay = label_stream(&out, &noisy, 0.25);
    assert_eq!(
        noisy.labels.as_ref(),
        Some(&replay),
        "same (seed, noise) must replay identically"
    );

    let a = common::run(&noisy, Topology::Batch);
    let b = common::run(&noisy, Topology::Batch);
    assert_eq!(jsons(&a), jsons(&b), "noisy runs with one seed must agree");

    let clean = Case {
        labels: Some(label_stream(&out, &noisy, 0.0)),
        ..noisy
    };
    assert_ne!(
        jsons(&a),
        jsons(&common::run(&clean, Topology::Batch)),
        "25% label noise must actually perturb the model"
    );
}

/// Escalation is a lane, not a source: escalated alerts are drawn from
/// the window that was already delivered, never overlap triage, and
/// only carry strategies the previous window's verdicts promoted.
#[test]
fn escalated_alerts_are_a_subset_of_the_delivered_window() {
    let (_, case) = qoa_case(0.0);

    let mut escalated_total = 0usize;
    for (window, snapshot) in case.windows.iter().zip(common::run(&case, Topology::Batch)) {
        let window_ids: std::collections::BTreeSet<AlertId> =
            window.alerts.iter().map(Alert::id).collect();
        for id in &snapshot.escalated {
            assert!(
                window_ids.contains(id),
                "escalated alert {id:?} is not in this window"
            );
            assert!(
                !snapshot.triage.contains(id),
                "escalated alert {id:?} was already triaged"
            );
        }
        escalated_total += snapshot.escalated.len();
    }
    assert!(escalated_total > 0, "the escalation lane never engaged");
}

// ---------------------------------------------------------------------
// Cluster: the model is checkpointed state, not relearned state.
// ---------------------------------------------------------------------

fn close_labeled(
    cluster: &mut AlertCluster,
    out: &SimOutput,
    window: &Window,
    noise: f64,
) -> GovernanceSnapshot {
    common::route_all(cluster, &window.alerts);
    let labels = FeedbackOracle::new(ORACLE_SEED, noise).label_window(
        cluster.next_window_seq(),
        &out.catalog,
        &window.alerts,
        &out.incidents,
    );
    cluster.close_window_labeled(labels).expect("window closes")
}

/// `kill -9` the whole cluster, respawn from the WALs: the model comes
/// back bit-identical (from its checkpoint file — labels are not
/// journaled, so relearning is impossible by construction) and the
/// windows closed *after* the restart match an uninterrupted run byte
/// for byte.
#[test]
fn cluster_restart_restores_the_model_from_its_checkpoint() {
    let (out, case) = qoa_case(0.0);
    let windows = &case.windows;
    let split = windows.len() / 2;

    // The uninterrupted control run.
    let control_root = wal_root("qoa-control");
    let mut control = case.cluster(2, 2, &control_root);
    let control_snapshots: Vec<GovernanceSnapshot> = windows
        .iter()
        .map(|window| close_labeled(&mut control, &out, window, 0.0))
        .collect();
    let control_digest = control.qoa_model_digest().expect("qoa loop is on");
    assert!(control.counters().is_conserved());
    control.shutdown();
    let _ = std::fs::remove_dir_all(&control_root);

    // The faulted run: same stream, torn down mid-way.
    let root = wal_root("qoa-restart");
    let mut cluster = case.cluster(2, 2, &root);
    for window in &windows[..split] {
        close_labeled(&mut cluster, &out, window, 0.0);
    }
    let pre_restart = cluster.qoa_model_digest().expect("qoa loop is on");
    cluster.shutdown();

    let mut cluster = case.cluster(2, 2, &root);
    assert_eq!(
        cluster.qoa_model_digest(),
        Some(pre_restart),
        "restart must restore the journaled model bit-for-bit"
    );
    assert_eq!(
        cluster.next_window_seq(),
        split as u64,
        "replay must resume the window sequence where the crash left it"
    );
    let resumed: Vec<GovernanceSnapshot> = windows[split..]
        .iter()
        .map(|window| close_labeled(&mut cluster, &out, window, 0.0))
        .collect();
    common::assert_agree(
        "post-restart windows against the uninterrupted run",
        &control_snapshots[split..],
        &resumed,
        Faults::None,
    );
    assert_eq!(
        cluster.qoa_model_digest(),
        Some(control_digest),
        "the restarted run must land on the control run's final model"
    );
    assert!(cluster.counters().is_conserved());
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The model is the coordinator's: a close with no node alive to seal
/// it still moves the model, so it must still checkpoint it.
#[test]
fn a_close_with_every_node_dead_still_checkpoints_the_model() {
    let (out, case) = qoa_case(0.0);
    let windows = &case.windows;
    let root = wal_root("qoa-all-dead");
    let mut cluster = case.cluster(2, 2, &root);
    for window in &windows[..3] {
        close_labeled(&mut cluster, &out, window, 0.0);
    }
    let last_sealed = cluster.qoa_model_digest().expect("qoa loop is on");

    cluster.kill(0);
    cluster.kill(1);
    let snapshot = close_labeled(&mut cluster, &out, &windows[3], 0.0);
    assert_eq!(snapshot.alert_count, 0, "nobody was alive to deliver");
    let all_dead = cluster.qoa_model_digest().expect("qoa loop is on");
    assert_ne!(all_dead, last_sealed, "the close moved the model");
    assert!(cluster.counters().is_conserved());
    cluster.shutdown();

    let cluster = case.cluster(2, 2, &root);
    assert_eq!(
        cluster.qoa_model_digest(),
        Some(all_dead),
        "restart must restore the model of the last close, sealed by a node or not"
    );
    assert!(cluster.counters().is_conserved());
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The checkpoint file's integrity check is its frame's length + CRC.
/// Whatever fails it — a torn write, bit rot, a crash before the first
/// rename — costs the learned weights, not the restart, and the next
/// close puts a good file back.
#[test]
fn a_damaged_checkpoint_file_means_a_fresh_model_not_an_error() {
    let (out, case) = qoa_case(0.0);
    let windows = &case.windows;
    let fresh_root = wal_root("qoa-fresh");
    let fresh = case.cluster(2, 2, &fresh_root);
    let fresh_digest = fresh.qoa_model_digest().expect("qoa loop is on");
    let discarded = |cluster: &AlertCluster| cluster.metrics().qoa_checkpoints_discarded.get();
    assert_eq!(discarded(&fresh), 0, "a missing file is a first start");
    fresh.shutdown();
    let _ = std::fs::remove_dir_all(&fresh_root);

    fn truncate(ckpt: &Path) {
        let len = std::fs::metadata(ckpt).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(ckpt).unwrap();
        file.set_len(len / 2).unwrap();
    }
    fn leave_only_the_tmp(ckpt: &Path) {
        std::fs::rename(ckpt, ckpt.with_extension("ckpt.tmp")).unwrap();
    }
    let restart_over = |tag: &str, damage: fn(&Path), counted: u64| {
        let root = wal_root(&format!("qoa-damaged-{tag}"));
        let mut cluster = case.cluster(2, 2, &root);
        for window in &windows[..2] {
            close_labeled(&mut cluster, &out, window, 0.0);
        }
        assert_ne!(cluster.qoa_model_digest(), Some(fresh_digest), "{tag}");
        cluster.shutdown();

        let coordinator = root.join("coordinator");
        damage(&coordinator.join("qoa.ckpt"));
        let mut cluster = case.cluster(2, 2, &root);
        assert_eq!(cluster.qoa_model_digest(), Some(fresh_digest), "{tag}");
        assert_eq!(discarded(&cluster), counted, "{tag}");
        assert_eq!(cluster.next_window_seq(), 2, "{tag}: the logs still replay");

        close_labeled(&mut cluster, &out, &windows[2], 0.0);
        let relearned = cluster.qoa_model_digest();
        cluster.shutdown();
        assert!(!coordinator.join("qoa.ckpt.tmp").exists(), "{tag}");
        let cluster = case.cluster(2, 2, &root);
        assert_eq!(cluster.qoa_model_digest(), relearned, "{tag}");
        assert_eq!(discarded(&cluster), 0, "{tag}: the file was put back");
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    };
    restart_over("truncated", truncate, 1);
    restart_over("crc", flip_a_crc_byte, 1);
    // A crash before the first rename leaves no `qoa.ckpt`: a first start.
    restart_over("tmp", leave_only_the_tmp, 0);
}

/// Flips the first byte of the checkpoint frame's CRC, which the
/// length + CRC check then rejects.
fn flip_a_crc_byte(ckpt: &Path) {
    let mut bytes = std::fs::read(ckpt).unwrap();
    // [len varint][crc32 LE][payload]: the CRC starts after the
    // varint's last byte, the first one without the high bit.
    let crc_at = bytes.iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    bytes[crc_at] ^= 0xff;
    std::fs::write(ckpt, bytes).unwrap();
}

// ---------------------------------------------------------------------
// Daemon: the same restart protocol, standalone.
// ---------------------------------------------------------------------

/// A 2-shard daemon over `case`, journaling into `wal`.
fn journaled(case: &Case, wal: &Path, tick: Option<Duration>) -> IngestdHandle {
    let config = IngestdConfig {
        shards: 2,
        tick,
        ..IngestdConfig::default()
    };
    case.daemon(config, Some(wal))
}

fn deliver_window(
    handle: &IngestdHandle,
    window: &Window,
    labels: &[QoaLabel],
) -> GovernanceSnapshot {
    for alert in &window.alerts {
        handle.route(alert.clone());
    }
    handle
        .flush_window_labeled(labels.to_vec())
        .expect("window closes")
        .snapshot
}

/// The daemon twin of `cluster_restart_restores_the_model_from_its_checkpoint`:
/// a journaled daemon shut down halfway and respawned over the same
/// directory publishes, from then on, exactly what an uninterrupted
/// one does — every snapshot byte for byte, `window_index` and each
/// report's `model_digest` included, so the model came back from its
/// checkpoint and the window sequence resumed where it stopped.
#[test]
fn daemon_restart_restores_the_model_and_the_window_sequence() {
    let (_, case) = qoa_case(0.0);
    let (windows, labels) = (&case.windows, case.labels.as_ref().expect("labelled"));
    let split = windows.len() / 2;

    let control_dir = wal_root("daemon-control");
    let control = journaled(&case, &control_dir, None);
    let control_snapshots: Vec<GovernanceSnapshot> = windows
        .iter()
        .zip(labels)
        .map(|(window, labels)| deliver_window(&control, window, labels))
        .collect();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&control_dir);

    let dir = wal_root("daemon-restart");
    let daemon = journaled(&case, &dir, None);
    for (window, labels) in windows[..split].iter().zip(labels) {
        deliver_window(&daemon, window, labels);
    }
    assert_eq!(daemon.wal_write_errors(), 0);
    daemon.shutdown();

    let daemon = journaled(&case, &dir, None);
    let recovery = daemon.wal_recovery().expect("spawned over a log");
    assert_eq!(recovery.torn_records, 0);
    assert_eq!(
        recovery.snapshot.as_ref().map(|s| s.window_index),
        Some(split as u64 - 1),
        "replay must re-close the last window at its recorded sequence"
    );
    for ((window, labels), want) in windows[split..]
        .iter()
        .zip(&labels[split..])
        .zip(&control_snapshots[split..])
    {
        let got = deliver_window(&daemon, window, labels);
        assert!(got.qoa.is_some(), "the loop is on after the restart");
        assert_eq!(
            common::json(&got),
            common::json(want),
            "post-restart window diverged from the uninterrupted daemon"
        );
    }
    assert!(daemon.counters().is_conserved());
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon twin of `a_damaged_checkpoint_file_means_a_fresh_model_not_an_error`:
/// respawned over a log whose `qoa.ckpt` fails its CRC, a daemon
/// replays its windows and starts a fresh model, exactly as one whose
/// checkpoint file is missing — it publishes the same next window byte
/// for byte — but counts the discarded file on its scrape.
#[test]
fn a_damaged_daemon_checkpoint_means_a_fresh_model_and_a_count() {
    let (_, case) = qoa_case(0.0);
    let (windows, labels) = (&case.windows, case.labels.as_ref().expect("labelled"));
    let damaged = wal_root("daemon-damaged");
    let missing = wal_root("daemon-missing");
    for dir in [&damaged, &missing] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let daemon = journaled(&case, &damaged, None);
    for (window, labels) in windows[..2].iter().zip(labels) {
        deliver_window(&daemon, window, labels);
    }
    daemon.shutdown();
    std::fs::create_dir_all(&missing).unwrap();
    for entry in std::fs::read_dir(&damaged).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, missing.join(path.file_name().unwrap())).unwrap();
    }
    flip_a_crc_byte(&damaged.join("qoa.ckpt"));
    std::fs::remove_file(missing.join("qoa.ckpt")).unwrap();

    let next: Vec<String> = [(&damaged, 1), (&missing, 0)]
        .into_iter()
        .map(|(dir, counted)| {
            let daemon = journaled(&case, dir, None);
            let recovery = daemon.wal_recovery().expect("spawned over a log");
            assert_eq!(recovery.windows, 2, "the log still replays");
            let discarded = checkpoints_discarded(&daemon.render_metrics());
            assert_eq!(discarded, counted, "{}", dir.display());
            let snapshot = deliver_window(&daemon, &windows[2], &labels[2]);
            assert!(snapshot.qoa.is_some(), "the loop is on after the restart");
            daemon.shutdown();
            let _ = std::fs::remove_dir_all(dir);
            common::json(&snapshot)
        })
        .collect();
    assert_eq!(next[0], next[1], "a damaged checkpoint is a fresh start");
}

/// The daemon's discarded-checkpoint count, read off its exposition.
fn checkpoints_discarded(exposition: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix("alertops_qoa_checkpoints_discarded_total "))
        .expect("the family is registered when the QoA loop is on")
        .parse()
        .expect("counter values are integers")
}

/// No tick can split a replayed window: respawned with a 1 ms tick
/// over a log holding sealed windows, the daemon re-closes them before
/// its coordinator exists, so the last one re-published equals the
/// snapshot published last before the restart, byte for byte. The
/// ticks then close empty windows numbered on from there.
#[test]
fn a_ticking_restart_republishes_the_last_window_before_any_tick() {
    let (_, case) = qoa_case(0.0);
    let windows = &case.windows;
    let plain = Case {
        streaming: StreamingConfig::default(),
        labels: None,
        ..case.clone()
    }
    .history(2);
    let sealed = 6;
    let dir = wal_root("daemon-tick");
    let daemon = journaled(&plain, &dir, None);
    let mut last = None;
    for window in &windows[..sealed] {
        last = Some(deliver_window(&daemon, window, &[]));
    }
    let last = last.expect("windows closed");
    daemon.shutdown();

    let daemon = journaled(&plain, &dir, Some(Duration::from_millis(1)));
    let recovery = daemon.wal_recovery().expect("spawned over a log");
    let retained = plain.streaming.history_windows as u64 + 1;
    assert_eq!(recovery.windows, retained, "the log keeps history + 1");
    assert_eq!(recovery.in_flight, 0);
    assert_eq!(
        recovery.snapshot.as_ref().map(common::json),
        Some(common::json(&last)),
        "the last re-published window must equal the pre-restart one"
    );

    // Let the tick close a few windows, then pin one close with a
    // flush: every close since the restart is counted once and took
    // the next sequence number.
    let deadline = Instant::now() + Duration::from_secs(30);
    while daemon
        .latest_snapshot()
        .is_none_or(|s| s.window_index <= last.window_index)
    {
        assert!(Instant::now() < deadline, "the tick never closed a window");
        std::thread::sleep(Duration::from_millis(2));
    }
    let before = daemon.counters().windows_closed;
    let flushed = daemon.flush().expect("window closes");
    let after = daemon.counters().windows_closed;
    let closes_through_flush = retained + (flushed.window_index - last.window_index);
    assert!(before < closes_through_flush && closes_through_flush <= after);
    assert_eq!(flushed.alert_count, 0, "nothing arrived after the restart");
    assert!(daemon.counters().is_conserved());
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
