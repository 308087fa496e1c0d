//! The one differential harness behind the north star's first
//! invariant, *batch == 1-shard == N-shard == N-node*.
//!
//! A [`Case`] is a catalog, windows with their incidents, an optional
//! dependency graph, optional QoA labels and a [`StreamingConfig`].
//! [`run`] plays it on one [`Topology`]: the batch reference (one
//! [`BatchOracle`] over the whole catalog, or with labels one governor
//! under the bare-model QoA loop, its triage from the batch pipeline
//! either way), in-process shard governors, an in-process daemon, a
//! daemon over NDJSON or binary TCP, or an N-node cluster. A run
//! through a daemon or a cluster asserts conservation, zero drops and
//! zero decode errors on its way out.
//!
//! [`assert_agree`] is the one comparison, and the one place a
//! snapshot field is left out: `degraded`, when faults were injected.
//! [`assert_topologies_agree`] runs a case on every topology in
//! [`TOPOLOGIES`] and compares each run with the batch side whole,
//! triage and the escalation lane included.
#![allow(dead_code)] // each test binary uses part of the harness

use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use alertops::cluster::{AlertCluster, ClusterConfig, GovernorFactory, WalFormat};
use alertops::core::prelude::*;
use alertops::detect::storm::{region_hour_histogram, storms_from_histogram};
use alertops::detect::StormConfig;
use alertops::ingestd::codec::{ack_line, scan_alert};
use alertops::ingestd::{
    shard_catalog, shard_of, CounterSnapshot, Ingestd, IngestdConfig, IngestdHandle, IngressClient,
    WireFormat, SYNC_FRAME,
};
use alertops::model::{IncidentStatus, LogRule};
use alertops::react::Representative;
use alertops::sim::{scenarios, SimOutput};
use alertops::wire::{AckFrame, Frame};

/// The pre-refactor streaming governor, kept as the test oracle: owned
/// windows, flatten + sort + full batch re-detection per ingest. Only
/// the incident-pruning rule matches the *fixed* semantics (with no
/// alerts in scope, closed incidents are pruned rather than retained
/// forever — they cannot influence detection without alert evidence).
/// R2's representatives come from the rendered batch `aggregate`, and
/// triage from the batch pipeline, R3 included.
pub struct BatchOracle {
    governor: AlertGovernor,
    config: StreamingConfig,
    history: VecDeque<Vec<Alert>>,
    incidents: Vec<Incident>,
    previous_flags: BTreeSet<(AntiPattern, StrategyId)>,
    windows_ingested: u64,
    /// Whether a storm over the current scope touches the last window,
    /// from the histogram directly — what the merge point must read
    /// back out of a delta.
    pub storm_active: bool,
    /// The batch pipeline's triage of the last window, sorted by alert
    /// id.
    pub triage: Vec<AlertId>,
}

impl BatchOracle {
    pub fn new(governor: AlertGovernor, config: StreamingConfig) -> Self {
        Self {
            governor,
            config,
            history: VecDeque::new(),
            incidents: Vec::new(),
            previous_flags: BTreeSet::new(),
            windows_ingested: 0,
            storm_active: false,
            triage: Vec::new(),
        }
    }

    pub fn history_len(&self) -> usize {
        self.history.iter().map(Vec::len).sum()
    }

    pub fn ingest(&mut self, window: &[Alert], incidents: &[Incident]) -> WindowDelta {
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
        let passed: Vec<Alert> = blocker.apply(window).passed.into_iter().cloned().collect();
        let mut representatives: Vec<Representative> =
            aggregate(&passed, &AggregationConfig::default())
                .iter()
                .map(|group| {
                    let first = passed.iter().find(|a| a.id() == group.representative);
                    Representative::from(first.expect("a representative passed R1"))
                })
                .collect();
        representatives.sort_unstable();
        self.triage = self.governor.react(window, blocker).triage;
        self.triage.sort_unstable();

        self.previous_flags = current_flags;
        let delta = WindowDelta {
            window_index: self.windows_ingested,
            alert_count: window.len(),
            new_findings,
            resolved,
            region_hours,
            window_hours,
            representatives,
            emerging_docs: Vec::new(),
            qoa_samples: Vec::new(),
            promoted: Vec::new(),
        };
        self.windows_ingested += 1;
        delta
    }
}

/// One window of a case: its alerts, time-sorted, and the incidents
/// that arrive with it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub alerts: Vec<Alert>,
    pub incidents: Vec<Incident>,
}

/// What a differential runs: the same stream for every topology.
#[derive(Debug, Clone)]
pub struct Case {
    pub catalog: Vec<AlertStrategy>,
    pub windows: Vec<Window>,
    /// Handed to every governor (R3 correlates through it).
    pub graph: Option<DependencyGraph>,
    /// One label batch per window. With labels every close is labelled
    /// and the batch side is the bare-model QoA loop.
    pub labels: Option<Vec<Vec<QoaLabel>>>,
    pub streaming: StreamingConfig,
}

impl Case {
    /// `catalog` with no windows, graph or labels, under the default
    /// streaming config.
    pub fn new(catalog: Vec<AlertStrategy>) -> Self {
        Self {
            catalog,
            windows: Vec::new(),
            graph: None,
            labels: None,
            streaming: StreamingConfig::default(),
        }
    }

    /// `alerts`, time-sorted, in windows of `len`, then `tail` empty
    /// windows (detection over a draining history).
    pub fn chunked(
        catalog: Vec<AlertStrategy>,
        mut alerts: Vec<Alert>,
        len: usize,
        tail: usize,
    ) -> Self {
        alerts.sort_by_key(|a| (a.raised_at(), a.id()));
        let windows = alerts
            .chunks(len)
            .map(|chunk| Window {
                alerts: chunk.to_vec(),
                incidents: Vec::new(),
            })
            .chain(std::iter::repeat_with(Window::default).take(tail))
            .collect();
        Self {
            windows,
            ..Self::new(catalog)
        }
    }

    /// `out`'s catalog and alerts, [`chunked`](Self::chunked).
    pub fn from_sim(out: &SimOutput, len: usize, tail: usize) -> Self {
        Self::chunked(
            out.catalog.strategies().to_vec(),
            out.alerts.clone(),
            len,
            tail,
        )
    }

    /// The seeded quickstart simulation, [`chunked`](Self::chunked).
    pub fn quickstart(seed: u64, len: usize, tail: usize) -> Self {
        Self::from_sim(&scenarios::quickstart(seed).run(), len, tail)
    }

    /// The case with a rolling history of `windows`.
    pub fn history(mut self, windows: usize) -> Self {
        self.streaming.history_windows = windows;
        self
    }

    /// The case with every governor given `graph`.
    pub fn graph(mut self, graph: DependencyGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The case with `incidents` delivered alongside the first window
    /// whose alerts reach their start, and one more per empty window.
    pub fn incidents(mut self, mut incidents: Vec<Incident>) -> Self {
        incidents.sort_by_key(|i| (i.started_at(), i.id()));
        let mut pending = incidents.into_iter().peekable();
        for window in &mut self.windows {
            match window.alerts.last().map(Alert::raised_at) {
                Some(horizon) => {
                    while let Some(inc) = pending.next_if(|inc| inc.started_at() <= horizon) {
                        window.incidents.push(inc);
                    }
                }
                None => window.incidents.extend(pending.next()),
            }
        }
        self
    }

    /// Window `index`'s labels; none without a label stream.
    pub fn labels_of(&self, index: usize) -> &[QoaLabel] {
        self.labels.as_ref().map_or(&[], |labels| &labels[index])
    }

    /// A streaming governor over `catalog` (a shard's sub-catalog),
    /// with the case's graph and streaming config.
    pub fn governor(&self, catalog: &[AlertStrategy]) -> StreamingGovernor {
        StreamingGovernor::new(self.alert_governor(catalog), self.streaming.clone())
    }

    /// A batch governor over `catalog`, with the case's graph.
    pub fn alert_governor(&self, catalog: &[AlertStrategy]) -> AlertGovernor {
        alert_governor(catalog, self.graph.as_ref())
    }

    /// What every cluster of this case builds its shard governors with.
    pub fn factory(&self) -> GovernorFactory {
        let (graph, streaming) = (self.graph.clone(), self.streaming.clone());
        Arc::new(move |catalog: &[AlertStrategy]| {
            StreamingGovernor::new(alert_governor(catalog, graph.as_ref()), streaming.clone())
        })
    }

    /// A daemon over the case's catalog under `config`, with the case's
    /// streaming config, journaling into `wal` when given one.
    pub fn daemon(&self, config: IngestdConfig, wal: Option<&Path>) -> IngestdHandle {
        let config = IngestdConfig {
            streaming: self.streaming.clone(),
            ..config
        };
        Ingestd::spawn_with_wal(
            &config,
            |shard, shards| self.governor(&shard_catalog(&self.catalog, shards, shard)),
            wal,
        )
        .expect("daemon starts")
    }

    /// The config of a cluster of `nodes` × `shards` journaling under
    /// `root`.
    pub fn cluster_config(&self, nodes: usize, shards: usize, root: &Path) -> ClusterConfig {
        ClusterConfig {
            nodes,
            node: IngestdConfig {
                shards,
                queue_capacity: 8192,
                streaming: self.streaming.clone(),
                ..IngestdConfig::default()
            },
            wal_root: root.to_path_buf(),
            wal_format: WalFormat::default(),
        }
    }

    /// A cluster of `nodes` × `shards` over the case's catalog,
    /// journaling (and replaying what it finds) under `root`.
    pub fn cluster(&self, nodes: usize, shards: usize, root: &Path) -> AlertCluster {
        AlertCluster::spawn(
            self.cluster_config(nodes, shards, root),
            self.catalog.clone(),
            self.factory(),
        )
        .expect("cluster spawns")
    }
}

fn alert_governor(catalog: &[AlertStrategy], graph: Option<&DependencyGraph>) -> AlertGovernor {
    let governor = AlertGovernor::new(catalog.to_vec(), GovernorConfig::default());
    match graph {
        Some(graph) => governor.with_dependency_graph(graph.clone()),
        None => governor,
    }
}

/// Where a case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The batch reference over the whole catalog: a [`BatchOracle`],
    /// or with labels one streaming governor under the bare-model QoA
    /// loop, triaged by the batch pipeline.
    Batch,
    /// `shards` streaming governors fed in-process and merged, with no
    /// daemon: the engine every daemon shard runs, and the one
    /// non-batch topology that carries incidents.
    Shards { shards: usize },
    /// An in-process daemon: route, then flush.
    Daemon { shards: usize },
    /// A daemon fed over TCP in `wire` format; an NDJSON run sends half
    /// of window 0 as [`noncanonical_line`]s.
    Wire { shards: usize, wire: WireFormat },
    /// A journaled cluster.
    Cluster { nodes: usize, shards: usize },
}

/// Every topology the differentials run each case on.
pub const TOPOLOGIES: [Topology; 15] = [
    Topology::Shards { shards: 1 },
    Topology::Shards { shards: 3 },
    Topology::Daemon { shards: 1 },
    Topology::Daemon { shards: 2 },
    Topology::Daemon { shards: 4 },
    Topology::Daemon { shards: 8 },
    Topology::Wire {
        shards: 1,
        wire: WireFormat::Ndjson,
    },
    Topology::Wire {
        shards: 1,
        wire: WireFormat::Binary,
    },
    Topology::Wire {
        shards: 4,
        wire: WireFormat::Ndjson,
    },
    Topology::Wire {
        shards: 4,
        wire: WireFormat::Binary,
    },
    Topology::Cluster {
        nodes: 1,
        shards: 1,
    },
    Topology::Cluster {
        nodes: 2,
        shards: 2,
    },
    Topology::Cluster {
        nodes: 3,
        shards: 2,
    },
    Topology::Cluster {
        nodes: 4,
        shards: 1,
    },
    Topology::Cluster {
        nodes: 4,
        shards: 2,
    },
];

impl Topology {
    /// Whether `case` can run here: a daemon or a cluster takes no
    /// incidents.
    pub fn carries(self, case: &Case) -> bool {
        matches!(self, Topology::Batch | Topology::Shards { .. })
            || case.windows.iter().all(|w| w.incidents.is_empty())
    }
}

static RUNS: AtomicUsize = AtomicUsize::new(0);

/// Every snapshot `case` publishes on `topology`, one per window.
pub fn run(case: &Case, topology: Topology) -> Vec<GovernanceSnapshot> {
    if !matches!(topology, Topology::Cluster { .. }) {
        return run_in(case, topology, None);
    }
    let root = wal_root(&format!("run-{}", RUNS.fetch_add(1, Ordering::Relaxed)));
    let snapshots = run_in(case, topology, Some(&root));
    let _ = std::fs::remove_dir_all(&root);
    snapshots
}

/// [`run`] on a daemon, wire or cluster topology journaling into `dir`,
/// which it leaves behind.
pub fn run_journaled(case: &Case, topology: Topology, dir: &Path) -> Vec<GovernanceSnapshot> {
    run_in(case, topology, Some(dir))
}

fn run_in(case: &Case, topology: Topology, journal: Option<&Path>) -> Vec<GovernanceSnapshot> {
    assert!(
        topology.carries(case),
        "{topology:?} takes no incidents, and the case has some"
    );
    match topology {
        Topology::Batch if case.labels.is_none() => {
            assert!(journal.is_none(), "the batch side keeps no log");
            let mut batch = BatchSide::new(case);
            case.windows
                .iter()
                .map(|window| batch.close(&window.alerts, &window.incidents))
                .collect()
        }
        Topology::Batch => run_governors(case, None),
        Topology::Shards { shards } => run_governors(case, Some(shards)),
        Topology::Daemon { shards } => run_daemon(case, shards, journal),
        Topology::Wire { shards, wire } => run_wire(case, shards, wire, journal),
        Topology::Cluster { nodes, shards } => {
            run_cluster(case, nodes, shards, journal.expect("a cluster journals"))
        }
    }
}

/// The batch side fed one window at a time: one [`BatchOracle`] over
/// the whole catalog. [`run`] feeds it a case's windows; a fault test
/// feeds it the alerts its model says survived and compares each of its
/// windows with it ([`assert_window`](Self::assert_window)).
pub struct BatchSide {
    oracle: BatchOracle,
    storm: StormConfig,
}

impl BatchSide {
    pub fn new(case: &Case) -> Self {
        assert!(
            case.streaming.emerging.unless_off().is_none() && case.labels.is_none(),
            "the batch oracle runs neither the AO-LDA pass nor the QoA loop"
        );
        Self {
            oracle: BatchOracle::new(case.alert_governor(&case.catalog), case.streaming.clone()),
            storm: case.streaming.storm,
        }
    }

    /// The snapshot of the next window: `alerts`, time-sorted, arriving
    /// with `incidents`. No strategy is promoted, so nothing escalates.
    fn close(&mut self, alerts: &[Alert], incidents: &[Incident]) -> GovernanceSnapshot {
        let delta = self.oracle.ingest(alerts, incidents);
        let mut snapshot = GovernanceSnapshot::from_delta(&delta, &self.storm);
        snapshot.triage.clone_from(&self.oracle.triage);
        snapshot
    }

    /// Closes the next window, of the alerts the test's model says
    /// survived, and compares `got` with it.
    pub fn assert_window(
        &mut self,
        ctx: &str,
        survivors: &[Alert],
        got: &GovernanceSnapshot,
        faults: Faults,
    ) {
        let mut survivors = survivors.to_vec();
        survivors.sort_by_key(|a| (a.raised_at(), a.id()));
        let want = self.close(&survivors, &[]);
        assert_agree(
            ctx,
            std::slice::from_ref(&want),
            std::slice::from_ref(got),
            faults,
        );
    }
}

/// `shards` streaming governors, each over its shard of the catalog,
/// merged per window, triage filled in by R3 over the merged delta.
/// With labels a bare model absorbs the merged samples with the
/// window's labels, and its verdicts are installed on every governor
/// before the next window. `None` is the labelled batch side: one
/// governor over the whole catalog, whose triage is the batch
/// pipeline's over the window with the rules R1 ran with, the promoted
/// alerts it leaves out escalated.
fn run_governors(case: &Case, shards: Option<usize>) -> Vec<GovernanceSnapshot> {
    assert!(
        case.streaming.emerging.unless_off().is_none(),
        "in-process governors run no AO-LDA pass"
    );
    let count = shards.unwrap_or(1);
    let mut governors: Vec<StreamingGovernor> = (0..count)
        .map(|shard| case.governor(&shard_catalog(&case.catalog, count, shard)))
        .collect();
    let mut model = case
        .labels
        .as_ref()
        .map(|_| OnlineQoaModel::new(case.streaming.qoa.config));
    case.windows
        .iter()
        .enumerate()
        .map(|(index, window)| {
            let deltas: Vec<WindowDelta> = governors
                .iter_mut()
                .enumerate()
                .map(|(shard, governor)| {
                    let alerts: Vec<Alert> = window
                        .alerts
                        .iter()
                        .filter(|a| shard_of(a.strategy(), count) == shard)
                        .cloned()
                        .collect();
                    governor.ingest(&alerts, &window.incidents)
                })
                .collect();
            let delta = WindowDelta::merge_all(&deltas);
            let mut snapshot = GovernanceSnapshot::from_delta(&delta, &case.streaming.storm);
            if shards.is_some() {
                snapshot.fill_triage(&delta, case.graph.as_ref());
            } else {
                let batch = governors[0]
                    .governor()
                    .react(&window.alerts, governors[0].blocker());
                snapshot.triage = batch.triage;
                snapshot.triage.sort_unstable();
                let promoted = delta.promoted.iter().copied();
                snapshot.escalated = promoted
                    .filter(|id| !snapshot.triage.contains(id))
                    .collect();
            }
            if let Some(model) = &mut model {
                snapshot.qoa =
                    Some(model.observe_window(&delta.qoa_samples, case.labels_of(index)));
                for governor in &mut governors {
                    governor.set_qoa_verdicts(model.verdicts());
                }
            }
            snapshot
        })
        .collect()
}

fn assert_clean(counters: &CounterSnapshot) {
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!(counters.dropped, 0, "{counters:?}");
    assert_eq!(counters.decode_errors, 0, "{counters:?}");
}

fn run_daemon(case: &Case, shards: usize, wal: Option<&Path>) -> Vec<GovernanceSnapshot> {
    let config = IngestdConfig {
        shards,
        queue_capacity: 8192,
        ..IngestdConfig::default()
    };
    let handle = case.daemon(config, wal);
    let snapshots = case
        .windows
        .iter()
        .enumerate()
        .map(|(index, window)| {
            for alert in &window.alerts {
                handle.route(alert.clone());
            }
            handle
                .flush_labeled(case.labels_of(index).to_vec())
                .expect("flush publishes")
        })
        .collect();
    assert_clean(&handle.counters());
    handle.shutdown();
    snapshots
}

/// The window an NDJSON run sends half of as [`noncanonical_line`]s.
const NONCANONICAL_WINDOW: usize = 0;

/// `alert` as an NDJSON line the daemon's scanner defers on: every
/// object's keys in reverse order, whitespace around every `:` and `,`,
/// and every string character `\u`-escaped. Only the classifying path
/// decodes it.
fn noncanonical_line(alert: &Alert) -> String {
    fn render(value: &serde_json::Value, out: &mut String) {
        match value {
            serde_json::Value::Object(map) => {
                let entries: Vec<_> = map.iter().collect();
                out.push_str("{ ");
                for (i, (key, value)) in entries.into_iter().rev().enumerate() {
                    if i > 0 {
                        out.push_str(" , ");
                    }
                    escaped(key, out);
                    out.push_str(" : ");
                    render(value, out);
                }
                out.push_str(" }");
            }
            serde_json::Value::String(s) => escaped(s, out),
            other => out.push_str(&other.to_string()),
        }
    }
    fn escaped(s: &str, out: &mut String) {
        out.push('"');
        for unit in s.encode_utf16() {
            write!(out, "\\u{unit:04x}").expect("writing to a String");
        }
        out.push('"');
    }
    let value = serde_json::from_str(&serde_json::to_string(alert).expect("alert serializes"))
        .expect("alert JSON parses");
    let mut line = String::new();
    render(&value, &mut line);
    line
}

/// Sends `alerts` as [`noncanonical_line`]s and a sync on a connection
/// of its own, so they are routed before the caller's next frame.
fn send_noncanonical(addr: SocketAddr, alerts: &[Alert]) {
    assert!(!alerts.is_empty(), "the non-canonical lines carry alerts");
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut text = String::new();
    for alert in alerts {
        let line = noncanonical_line(alert);
        assert_eq!(scan_alert(&line), None, "{line}");
        text.push_str(&line);
        text.push('\n');
    }
    text.push_str(SYNC_FRAME);
    text.push('\n');
    stream.write_all(text.as_bytes()).expect("write window");
    let mut ack = String::new();
    BufReader::new(&stream)
        .read_line(&mut ack)
        .expect("read ack");
    assert_eq!(ack.trim(), ack_line(&AckFrame::Sync));
}

/// Streams the windows over one TCP connection in `wire` format. A
/// window without labels closes with a `Flush` frame; a labelled one
/// (the wire carries no labels) with a `Sync` frame and an in-process
/// labelled flush. Either way the close's ack carries the window's
/// sequence number and alert count.
fn run_wire(
    case: &Case,
    shards: usize,
    wire: WireFormat,
    wal: Option<&Path>,
) -> Vec<GovernanceSnapshot> {
    let config = IngestdConfig {
        shards,
        queue_capacity: 8192,
        listen: Some("127.0.0.1:0".to_owned()),
        wire,
        ..IngestdConfig::default()
    };
    let handle = case.daemon(config, wal);
    let addr = handle.ingest_addr().expect("ingress bound");
    let mut client = IngressClient::connect(addr, wire).expect("connect");
    let mut snapshots = Vec::with_capacity(case.windows.len());
    for (seq, window) in case.windows.iter().enumerate() {
        let alerts = &window.alerts;
        if wire == WireFormat::Ndjson && seq == NONCANONICAL_WINDOW {
            // The sync routes the first half before the second half
            // arrives on its own connection, so the window keeps its
            // order.
            let (head, tail) = alerts.split_at(alerts.len() / 2);
            client.send_alerts(head).expect("write window");
            assert_eq!(
                client.request(&Frame::Sync).expect("sync acked"),
                AckFrame::Sync
            );
            send_noncanonical(addr, tail);
        } else {
            client.send_alerts(alerts).expect("write window");
        }
        // Acks come back in the connection's own format and say the
        // same thing in both.
        let ack = match &case.labels {
            None => client.request(&Frame::Flush).expect("flush acked"),
            Some(labels) => {
                assert_eq!(
                    client.request(&Frame::Sync).expect("sync acked"),
                    AckFrame::Sync
                );
                let snapshot = handle
                    .flush_labeled(labels[seq].clone())
                    .expect("flush publishes");
                AckFrame::Flush {
                    window: snapshot.window_index,
                    alerts: snapshot.alert_count as u64,
                }
            }
        };
        assert_eq!(
            ack,
            AckFrame::Flush {
                window: seq as u64,
                alerts: alerts.len() as u64,
            },
            "ack carries the window seq and its alert count"
        );
        snapshots.push(handle.latest_snapshot().expect("snapshot published"));
    }
    assert_clean(&handle.counters());
    // Close the connection before shutdown: the daemon joins its
    // per-connection threads, which are parked in read() until EOF.
    drop(client);
    handle.shutdown();
    snapshots
}

fn run_cluster(case: &Case, nodes: usize, shards: usize, root: &Path) -> Vec<GovernanceSnapshot> {
    let mut cluster = case.cluster(nodes, shards, root);
    let snapshots = case
        .windows
        .iter()
        .enumerate()
        .map(|(index, window)| {
            route_all(&cluster, &window.alerts);
            cluster
                .close_window_labeled(case.labels_of(index).to_vec())
                .expect("window closes")
        })
        .collect();
    let counters = cluster.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!(
        (counters.dropped, counters.quarantined, counters.in_flight),
        (0, 0, 0),
        "{counters:?}"
    );
    cluster.shutdown();
    snapshots
}

/// Routes `alerts` into `cluster`, in order.
pub fn route_all(cluster: &AlertCluster, alerts: &[Alert]) {
    for alert in alerts {
        cluster.route(alert.clone()).expect("route succeeds");
    }
}

/// Whether a comparison's sides saw injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    None,
    /// A fault may list shards `degraded`; the caller asserts that
    /// list against its own model.
    Injected,
}

/// `snapshot` without `degraded`, which a comparison of a run with
/// injected faults leaves to the caller.
fn comparable(snapshot: &GovernanceSnapshot, faults: Faults) -> GovernanceSnapshot {
    GovernanceSnapshot {
        degraded: match faults {
            Faults::None => snapshot.degraded.clone(),
            Faults::Injected => Vec::new(),
        },
        ..snapshot.clone()
    }
}

/// The one comparison: `got` publishes what `want` does, window by
/// window, byte for byte; `degraded` is left out only when faults were
/// injected.
pub fn assert_agree(
    ctx: &str,
    want: &[GovernanceSnapshot],
    got: &[GovernanceSnapshot],
    faults: Faults,
) {
    assert_eq!(want.len(), got.len(), "{ctx}: window count");
    for (index, (want, got)) in want.iter().zip(got).enumerate() {
        let (want, got) = (comparable(want, faults), comparable(got, faults));
        assert_eq!(json(&got), json(&want), "{ctx}: window {index} diverged");
    }
}

/// Runs `case` on `topology` and compares it with the batch side;
/// returns the topology's snapshots.
pub fn assert_agrees_with_batch(case: &Case, topology: Topology) -> Vec<GovernanceSnapshot> {
    let got = run(case, topology);
    let want = run(case, Topology::Batch);
    assert_agree(&format!("{topology:?}"), &want, &got, Faults::None);
    got
}

/// Runs `case` on every topology in [`TOPOLOGIES`] that carries it and
/// compares each with the batch side; returns the batch side's
/// snapshots.
pub fn assert_topologies_agree(case: &Case) -> Vec<GovernanceSnapshot> {
    let batch = run(case, Topology::Batch);
    for topology in TOPOLOGIES.into_iter().filter(|t| t.carries(case)) {
        let got = run(case, topology);
        assert_agree(&format!("{topology:?}"), &batch, &got, Faults::None);
    }
    batch
}

pub fn json(snapshot: &GovernanceSnapshot) -> String {
    serde_json::to_string(snapshot).expect("snapshot serializes")
}

/// A fresh per-process directory for `tag`'s logs, so parallel test
/// binaries never collide.
pub fn wal_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("alertops-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The injected A5 strategy: not part of any scenario catalog.
pub const REPEATER: StrategyId = StrategyId(9001);

pub fn repeater_strategy() -> AlertStrategy {
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
pub fn repeater_alerts() -> Vec<Alert> {
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

/// `out`'s catalog plus the repeater.
pub fn full_catalog(out: &SimOutput) -> Vec<AlertStrategy> {
    let mut strategies = out.catalog.strategies().to_vec();
    strategies.push(repeater_strategy());
    strategies
}

/// `n` dense-id log strategies, for random traces.
pub fn dense_catalog(n: u64) -> Vec<AlertStrategy> {
    (0..n)
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

/// A time-sorted trace of one alert per `(strategy, hour, offset)`
/// pick, ids in pick order.
pub fn trace_of(picks: impl IntoIterator<Item = (u64, u64, u64)>) -> Vec<Alert> {
    let mut alerts: Vec<Alert> = picks
        .into_iter()
        .enumerate()
        .map(|(i, (strategy, hour, offset))| {
            Alert::builder(AlertId(i as u64), StrategyId(strategy))
                .title("service latency is abnormal")
                .raised_at(SimTime::from_secs(hour * 3_600 + offset % 3_600))
                .build()
        })
        .collect();
    alerts.sort_by_key(|a| (a.raised_at(), a.id()));
    alerts
}

/// Every value of the named family in a Prometheus text exposition
/// (one entry per labelled series).
pub fn exposition_values(text: &str, name: &str) -> Vec<u64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let base = series.split('{').next()?;
            (base == name).then(|| value.parse().expect("metric values are integers"))
        })
        .collect()
}
