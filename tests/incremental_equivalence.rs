//! Differential proof of the incremental detection engine.
//!
//! The streaming governor no longer flattens its rolling history and
//! re-detects from scratch on every window — it folds each window into
//! per-strategy counters, region-hour histograms, and cascade edges,
//! and subtracts them again on eviction. This suite pins the refactor's
//! correctness contract: the emitted [`WindowDelta`] /
//! [`GovernanceSnapshot`] streams must be **byte-identical** (compared
//! as serialized JSON) to a batch oracle that recomputes detection over
//! the flattened surviving history every window — across eviction
//! boundaries, incident arrival and pruning, dependency graphs,
//! N-shard merges, checkpoint rehydration, rollback, and worker
//! crashes.

use std::collections::{BTreeSet, VecDeque};

use alertops::chaos::silence_panics_containing;
use alertops::core::prelude::*;
use alertops::detect::storm::{region_hour_histogram, storms_from_histogram};
use alertops::detect::StormConfig;
use alertops::ingestd::{shard_catalog, shard_of, Ingestd, IngestdConfig, CHAOS_PANIC_MSG};
use alertops::model::IncidentStatus;
use alertops::sim::scenarios;

/// The pre-refactor streaming governor, kept as the test oracle: owned
/// windows, flatten + sort + full batch re-detection per ingest. Only
/// the incident-pruning rule matches the *fixed* semantics (with no
/// alerts in scope, closed incidents are pruned rather than retained
/// forever — they cannot influence detection without alert evidence).
struct BatchOracle {
    governor: AlertGovernor,
    config: StreamingConfig,
    history: VecDeque<Vec<Alert>>,
    incidents: Vec<Incident>,
    previous_flags: BTreeSet<(AntiPattern, StrategyId)>,
    windows_ingested: u64,
    /// Whether a storm over the current scope touches the last window,
    /// from the histogram directly — what the merge point must read
    /// back out of a delta.
    storm_active: bool,
}

impl BatchOracle {
    fn new(governor: AlertGovernor, config: StreamingConfig) -> Self {
        Self {
            governor,
            config,
            history: VecDeque::new(),
            incidents: Vec::new(),
            previous_flags: BTreeSet::new(),
            windows_ingested: 0,
            storm_active: false,
        }
    }

    fn history_len(&self) -> usize {
        self.history.iter().map(Vec::len).sum()
    }

    fn ingest(&mut self, window: &[Alert], incidents: &[Incident]) -> WindowDelta {
        self.history.push_back(window.to_vec());
        while self.history.len() > self.config.history_windows {
            self.history.pop_front();
        }
        self.incidents.extend(incidents.iter().cloned());

        let mut scope: Vec<Alert> = self.history.iter().flatten().cloned().collect();
        scope.sort_by_key(|a| (a.raised_at(), a.id()));

        match scope.first().map(Alert::raised_at) {
            Some(oldest) => self.incidents.retain(|inc| {
                inc.is_open()
                    || match inc.status() {
                        IncidentStatus::Mitigated { at } => at >= oldest,
                        IncidentStatus::Open => true,
                    }
            }),
            None => self.incidents.retain(Incident::is_open),
        }

        let report = self.governor.detect(&scope, &self.incidents);
        let current_flags: BTreeSet<(AntiPattern, StrategyId)> = report
            .findings
            .iter()
            .flat_map(|(&pattern, findings)| findings.iter().map(move |f| (pattern, f.strategy)))
            .collect();
        let new_findings: Vec<StrategyFinding> = report
            .findings
            .values()
            .flatten()
            .filter(|f| !self.previous_flags.contains(&(f.pattern, f.strategy)))
            .cloned()
            .collect();
        let resolved: Vec<(AntiPattern, StrategyId)> = self
            .previous_flags
            .difference(&current_flags)
            .copied()
            .collect();

        let histogram = region_hour_histogram(&scope);
        let region_hours: Vec<(RegionId, u64, usize)> = histogram
            .iter()
            .map(|(key, count)| (key.0.clone(), key.1, *count))
            .collect();
        let window_hours: Vec<u64> = window
            .iter()
            .map(Alert::hour_bucket)
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .collect();
        self.storm_active = storms_from_histogram(histogram, &self.config.storm)
            .iter()
            .any(|s| {
                s.hours
                    .iter()
                    .any(|h| window_hours.binary_search(h).is_ok())
            });

        let blocker = self.governor.derive_blocker(&report);
        let pipeline = self.governor.react(window, blocker);

        self.previous_flags = current_flags;
        let delta = WindowDelta {
            window_index: self.windows_ingested,
            alert_count: window.len(),
            new_findings,
            resolved,
            region_hours,
            window_hours,
            triage: pipeline.triage,
            emerging_docs: Vec::new(),
            qoa_samples: Vec::new(),
            escalated: Vec::new(),
        };
        self.windows_ingested += 1;
        delta
    }
}

/// A seeded simulated trace chopped into fixed-size, time-sorted
/// windows, with each derived incident delivered alongside the first
/// window whose alerts reach its start time.
type WindowedTrace = Vec<(Vec<Alert>, Vec<Incident>)>;

fn windowed_trace(
    seed: u64,
    window_len: usize,
) -> (Vec<AlertStrategy>, DependencyGraph, WindowedTrace) {
    let out = scenarios::quickstart(seed).run();
    let mut trace = out.alerts.clone();
    trace.sort_by_key(|a| (a.raised_at(), a.id()));
    let mut incidents = out.incidents.clone();
    incidents.sort_by_key(|i| (i.started_at(), i.id()));

    let mut windows = Vec::new();
    let mut pending = incidents.into_iter().peekable();
    for chunk in trace.chunks(window_len) {
        let horizon = chunk.last().map(Alert::raised_at);
        let mut arrived = Vec::new();
        while let Some(inc) = pending.peek() {
            if horizon.is_some_and(|h| inc.started_at() <= h) {
                arrived.push(pending.next().unwrap());
            } else {
                break;
            }
        }
        windows.push((chunk.to_vec(), arrived));
    }
    // A tail of empty windows slides everything out of scope, so the
    // differential also covers detection over an emptied history and
    // the prune-on-empty incident rule.
    for _ in 0..4 {
        windows.push((Vec::new(), pending.next().into_iter().collect()));
    }
    (
        out.catalog.strategies().to_vec(),
        out.topology.dependency_graph(),
        windows,
    )
}

fn json_delta(value: &WindowDelta) -> String {
    serde_json::to_string(value).expect("window delta serializes")
}

fn json_snapshot(value: &GovernanceSnapshot) -> String {
    serde_json::to_string(value).expect("snapshot serializes")
}

/// Window by window, the incremental streaming governor's deltas are
/// byte-identical to full batch recomputation — with and without a
/// dependency graph, across eviction boundaries and short histories.
#[test]
fn incremental_streaming_matches_batch_recompute() {
    for (history_windows, with_graph) in [(4, true), (4, false), (1, true), (24, true)] {
        let (strategies, graph, windows) = windowed_trace(7, 40);
        let config = StreamingConfig {
            history_windows,
            storm: StormConfig::default(),
            ..StreamingConfig::default()
        };
        let build = |strategies: &[AlertStrategy]| {
            let mut governor = AlertGovernor::new(strategies.to_vec(), GovernorConfig::default());
            if with_graph {
                governor = governor.with_dependency_graph(graph.clone());
            }
            governor
        };
        let mut incremental = StreamingGovernor::new(build(&strategies), config.clone());
        let mut oracle = BatchOracle::new(build(&strategies), config.clone());

        for (index, (window, incidents)) in windows.iter().enumerate() {
            let fast = incremental.ingest(window, incidents);
            let slow = oracle.ingest(window, incidents);
            assert_eq!(
                json_delta(&fast),
                json_delta(&slow),
                "delta diverged at window {index} (history_windows={history_windows}, graph={with_graph})"
            );
            assert_eq!(
                GovernanceSnapshot::from_delta(&fast, &config.storm).storm_active,
                oracle.storm_active,
                "storm flag diverged at window {index}"
            );
            assert_eq!(
                incremental.history_len(),
                oracle.history_len(),
                "scope size diverged at window {index}"
            );
        }
    }
}

/// Sharded differential: route every window across N per-shard
/// streaming governors (catalog sharded by `StrategyId`, exactly like
/// the daemon) and merge the per-shard deltas. Incremental and batch
/// oracle shards must merge to byte-identical [`GovernanceSnapshot`]s
/// — triage included, since both sides shard identically.
#[test]
fn n_shard_merges_are_byte_identical_to_the_batch_oracle() {
    const SHARDS: usize = 3;
    let (strategies, graph, windows) = windowed_trace(7, 48);
    let config = StreamingConfig {
        history_windows: 3,
        storm: StormConfig::default(),
        ..StreamingConfig::default()
    };
    let shard_governor = |shard: usize| {
        AlertGovernor::new(
            shard_catalog(&strategies, SHARDS, shard),
            GovernorConfig::default(),
        )
        .with_dependency_graph(graph.clone())
    };
    let mut incremental: Vec<StreamingGovernor> = (0..SHARDS)
        .map(|s| StreamingGovernor::new(shard_governor(s), config.clone()))
        .collect();
    let mut oracle: Vec<BatchOracle> = (0..SHARDS)
        .map(|s| BatchOracle::new(shard_governor(s), config.clone()))
        .collect();

    for (window, incidents) in &windows {
        let mut per_shard: Vec<Vec<Alert>> = vec![Vec::new(); SHARDS];
        for alert in window {
            per_shard[shard_of(alert.strategy(), SHARDS)].push(alert.clone());
        }
        let fast: Vec<WindowDelta> = incremental
            .iter_mut()
            .zip(&per_shard)
            .map(|(s, w)| s.ingest(w, incidents))
            .collect();
        let slow: Vec<WindowDelta> = oracle
            .iter_mut()
            .zip(&per_shard)
            .map(|(s, w)| s.ingest(w, incidents))
            .collect();
        let merged_fast = GovernanceSnapshot::merge(&fast, &config.storm);
        let merged_slow = GovernanceSnapshot::merge(&slow, &config.storm);
        assert_eq!(json_snapshot(&merged_fast), json_snapshot(&merged_slow));
    }
}

/// Checkpoint rehydration: cloning a streaming governor at any window
/// boundary and continuing from the clone yields byte-identical deltas.
#[test]
fn checkpoint_clone_resumes_byte_identically() {
    let (strategies, graph, windows) = windowed_trace(7, 40);
    let governor =
        AlertGovernor::new(strategies, GovernorConfig::default()).with_dependency_graph(graph);
    let config = StreamingConfig {
        history_windows: 4,
        storm: StormConfig::default(),
        ..StreamingConfig::default()
    };
    let mut live = StreamingGovernor::new(governor, config);
    for (index, (window, incidents)) in windows.iter().enumerate() {
        let mut checkpoint = live.clone();
        let from_live = live.ingest(window, incidents);
        let from_checkpoint = checkpoint.ingest(window, incidents);
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
        let (strategies, graph, windows) = windowed_trace(7, 40);
        let governor =
            AlertGovernor::new(strategies, GovernorConfig::default()).with_dependency_graph(graph);
        let config = StreamingConfig {
            history_windows,
            storm: StormConfig::default(),
            ..StreamingConfig::default()
        };
        let mut clean = StreamingGovernor::new(governor, config);
        let mut recovered = clean.clone();
        for (index, (window, _)) in windows.iter().enumerate() {
            for decoy in 0..=index % 2 {
                let (decoy, _) = &windows[(index + 5 + decoy) % windows.len()];
                let _ = recovered.ingest_uncommitted(decoy, &[]);
            }
            recovered.rollback();
            let expected = clean.ingest(window, &[]);
            if index == 0 {
                assert!(
                    !expected.new_findings.is_empty(),
                    "the trace's catalog must have A1 findings to announce at window 0"
                );
            }
            assert_eq!(
                json_delta(&recovered.ingest(window, &[])),
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
    let (strategies, _, windows) = windowed_trace(7, 60);
    let spawn = || {
        let config = IngestdConfig {
            shards: 2,
            queue_capacity: 8192,
            ..IngestdConfig::default()
        };
        Ingestd::spawn(&config, |shard, shards| {
            StreamingGovernor::new(
                AlertGovernor::new(
                    shard_catalog(&strategies, shards, shard),
                    GovernorConfig::default(),
                ),
                StreamingConfig {
                    history_windows: 3,
                    storm: StormConfig::default(),
                    ..StreamingConfig::default()
                },
            )
        })
        .expect("daemon starts")
    };
    let clean = spawn();
    let crashy = spawn();
    let crash_after = windows.len() / 2;
    let mut clean_snaps = Vec::new();
    let mut crashy_snaps = Vec::new();
    for (index, (window, _)) in windows.iter().enumerate() {
        for handle in [&clean, &crashy] {
            for alert in window {
                handle.route(alert.clone());
            }
        }
        clean_snaps.push(clean.flush().expect("clean daemon flushes"));
        crashy_snaps.push(crashy.flush().expect("crashy daemon flushes"));
        if index == crash_after {
            // Between closes the buffer is empty: the restart drops
            // nothing and rolls shard 0 back to its last commit.
            crashy.inject_panic(0, false);
            crashy.sync();
        }
    }
    clean.shutdown();
    let counters = crashy.counters();
    crashy.shutdown();
    assert_eq!(counters.dropped, 0, "empty-buffer panic must drop nothing");
    assert!(counters.shard_restarts >= 1, "panic must restart the shard");
    for (index, (c, k)) in clean_snaps.iter().zip(&crashy_snaps).enumerate() {
        let strip = |s: &GovernanceSnapshot| GovernanceSnapshot {
            degraded: Vec::new(),
            ..s.clone()
        };
        assert_eq!(
            json_snapshot(&strip(c)),
            json_snapshot(&strip(k)),
            "snapshot diverged at window {index} after lossless restart"
        );
        if index == crash_after + 1 {
            assert_eq!(k.degraded, vec![0], "restart must mark shard 0 degraded");
        } else {
            assert!(k.degraded.is_empty(), "window {index} wrongly degraded");
        }
    }
}
