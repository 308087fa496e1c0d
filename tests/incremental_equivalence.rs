//! Differential proof of the incremental detection engine.
//!
//! The streaming governor no longer flattens its rolling history and
//! re-detects from scratch on every window — it folds each window into
//! per-strategy counters, region-hour histograms, and cascade edges,
//! and subtracts them again on eviction. This suite pins the refactor's
//! correctness contract: the emitted [`WindowDelta`] /
//! [`GovernanceSnapshot`] streams must be **byte-identical** (compared
//! as serialized JSON) to a batch oracle that recomputes detection over
//! the flattened surviving history every window (`BatchOracle`, in the
//! harness under `tests/common`) — across eviction boundaries, incident
//! arrival and pruning, dependency graphs, N-shard merges, checkpoint
//! rehydration, rollback, and worker crashes.

mod common;

use alertops::chaos::silence_panics_containing;
use alertops::core::prelude::*;
use alertops::ingestd::{IngestdConfig, CHAOS_PANIC_MSG};
use alertops::sim::scenarios;

use common::{BatchOracle, Case, Faults, Topology};

/// The quickstart trace of seed 7 in windows of `len`, each derived
/// incident delivered with the first window whose alerts reach its
/// start and four empty windows after (they slide everything out of
/// scope, covering detection over an emptied history and the
/// prune-on-empty incident rule), with the topology's dependency graph.
fn incremental_case(len: usize) -> Case {
    let out = scenarios::quickstart(7).run();
    Case::from_sim(&out, len, 4)
        .incidents(out.incidents.clone())
        .graph(out.topology.dependency_graph())
}

fn json_delta(value: &WindowDelta) -> String {
    serde_json::to_string(value).expect("window delta serializes")
}

/// Window by window, the incremental streaming governor's deltas are
/// byte-identical to full batch recomputation, and the triage R3 fills
/// in from them is the batch pipeline's — with and without a
/// dependency graph, across eviction boundaries and short histories.
#[test]
fn incremental_streaming_matches_batch_recompute() {
    for (history_windows, with_graph) in [(4, true), (4, false), (1, true), (24, true)] {
        let mut case = incremental_case(40).history(history_windows);
        if !with_graph {
            case.graph = None;
        }
        let mut incremental = case.governor(&case.catalog);
        let mut oracle =
            BatchOracle::new(case.alert_governor(&case.catalog), case.streaming.clone());

        for (index, window) in case.windows.iter().enumerate() {
            let fast = incremental.ingest(&window.alerts, &window.incidents);
            let slow = oracle.ingest(&window.alerts, &window.incidents);
            assert_eq!(
                json_delta(&fast),
                json_delta(&slow),
                "delta diverged at window {index} (history_windows={history_windows}, graph={with_graph})"
            );
            let mut snapshot = GovernanceSnapshot::from_delta(&fast, &case.streaming.storm);
            assert_eq!(
                snapshot.storm_active, oracle.storm_active,
                "storm flag diverged at window {index}"
            );
            snapshot.fill_triage(&fast, case.graph.as_ref());
            assert_eq!(
                snapshot.triage, oracle.triage,
                "triage diverged at window {index} (history_windows={history_windows}, graph={with_graph})"
            );
            assert_eq!(
                incremental.history_len(),
                oracle.history_len(),
                "scope size diverged at window {index}"
            );
        }
    }
}

/// Sharded differential: the incremental governors, one per shard
/// (catalog sharded by `StrategyId`, exactly like the daemon), merge to
/// snapshots byte-identical to the batch oracle's, triage included — at
/// 1 and 3 shards — on a trace with incidents and a dependency graph.
/// Incidents reach no daemon or cluster, so the same trace without
/// them runs on every other topology as well.
#[test]
fn n_shard_merges_are_byte_identical_to_the_batch_oracle() {
    let case = incremental_case(48).history(3);
    common::assert_topologies_agree(&case);
    let mut bare = case;
    for window in &mut bare.windows {
        window.incidents.clear();
    }
    common::assert_topologies_agree(&bare);
}

/// Checkpoint rehydration: cloning a streaming governor at any window
/// boundary and continuing from the clone yields byte-identical deltas.
#[test]
fn checkpoint_clone_resumes_byte_identically() {
    let case = incremental_case(40).history(4);
    let mut live = case.governor(&case.catalog);
    for (index, window) in case.windows.iter().enumerate() {
        let mut checkpoint = live.clone();
        let from_live = live.ingest(&window.alerts, &window.incidents);
        let from_checkpoint = checkpoint.ingest(&window.alerts, &window.incidents);
        assert_eq!(
            json_delta(&from_live),
            json_delta(&from_checkpoint),
            "checkpoint diverged when resumed at window {index}"
        );
    }
}

/// Rollback — what the ingestd worker's crash recovery relies on, with
/// no clone: at every window boundary of a shard-shaped stream (graph
/// attached, no incidents) one or two decoy windows are applied
/// uncommitted and rolled back, and the real window's delta must be the
/// one a governor that never saw a decoy emits. Window 0 included:
/// A1's findings exist before any ingest but have not been announced,
/// so the rolled-back governor must still announce them as new.
#[test]
fn rollback_resumes_byte_identically() {
    for history_windows in [4, 1] {
        let case = incremental_case(40).history(history_windows);
        let windows = &case.windows;
        let mut clean = case.governor(&case.catalog);
        let mut recovered = clean.clone();
        for (index, window) in windows.iter().enumerate() {
            for decoy in 0..=index % 2 {
                let decoy = &windows[(index + 5 + decoy) % windows.len()];
                let _ = recovered.ingest_uncommitted(&decoy.alerts, &[]);
            }
            recovered.rollback();
            let expected = clean.ingest(&window.alerts, &[]);
            if index == 0 {
                assert!(
                    !expected.new_findings.is_empty(),
                    "the trace's catalog must have A1 findings to announce at window 0"
                );
            }
            assert_eq!(
                json_delta(&recovered.ingest(&window.alerts, &[])),
                json_delta(&expected),
                "rollback diverged when resumed at window {index} (history_windows={history_windows})"
            );
        }
    }
}

/// Chaos differential: a worker panic with an empty buffer loses no
/// alerts, so after the rolled-back restart the daemon's snapshots
/// must match a crash-free run exactly — the engine state rebuilt by
/// the rollback is the engine state that was lost.
/// Only the `degraded` marker may differ, and must name the shard.
#[test]
fn worker_restart_without_loss_is_governance_invisible() {
    silence_panics_containing(CHAOS_PANIC_MSG);
    let case = common::Case::quickstart(7, 60, 4).history(3);
    let topology = Topology::Daemon { shards: 2 };
    let clean = common::run(&case, topology);
    let crashy = case.daemon(
        IngestdConfig {
            shards: 2,
            queue_capacity: 8192,
            ..IngestdConfig::default()
        },
        None,
    );
    let crash_after = case.windows.len() / 2;
    let mut crashy_snaps = Vec::new();
    for (index, window) in case.windows.iter().enumerate() {
        for alert in &window.alerts {
            crashy.route(alert.clone());
        }
        crashy_snaps.push(crashy.flush().expect("crashy daemon flushes"));
        if index == crash_after {
            // Between closes the buffer is empty: the restart drops
            // nothing and rolls shard 0 back to its last commit.
            crashy.inject_panic(0, false);
            crashy.sync();
        }
    }
    let counters = crashy.counters();
    crashy.shutdown();
    assert_eq!(counters.dropped, 0, "empty-buffer panic must drop nothing");
    assert!(counters.shard_restarts >= 1, "panic must restart the shard");
    common::assert_agree("lossless restart", &clean, &crashy_snaps, Faults::Injected);
    for (index, snapshot) in crashy_snaps.iter().enumerate() {
        if index == crash_after + 1 {
            assert_eq!(
                snapshot.degraded,
                vec![0],
                "restart must mark shard 0 degraded"
            );
        } else {
            assert!(
                snapshot.degraded.is_empty(),
                "window {index} wrongly degraded"
            );
        }
    }
}
