//! The load generator: one seeded world, one window at a time.
//!
//! The generator runs on the main thread only and holds at most two
//! windows: the one being handed to the system under test and the next
//! one, which it builds only after the previous ack — while the system
//! is idle — so generation never competes with the pipeline for a core
//! and never sits in busy time.

use std::collections::BTreeSet;
use std::time::Instant;

use alertops_core::{
    AlertGovernor, EmergingChannel, EmergingMode, GovernorConfig, QoaChannel, QoaMode,
    StreamingConfig, StreamingGovernor,
};
use alertops_ingestd::codec::encode_alert;
use alertops_model::{Alert, AlertStrategy, DependencyGraph, Incident, QoaLabel, Sop};
use alertops_sim::ocesim::derive_incidents;
use alertops_sim::{FaultPlan, FeedbackOracle, StatisticalStream};
use alertops_wire::WireEncoder;

use crate::spans::Tracer;
use crate::workloads::{Traffic, Transport, Workload, LABEL_NOISE};

/// The parts of the generated world the system under test is built
/// from: the catalog it governs, its SOPs, and the dependency graph.
#[derive(Debug, Clone)]
pub struct World {
    /// Every strategy of the catalog, id order.
    pub strategies: Vec<AlertStrategy>,
    sops: Vec<Sop>,
    /// Present when the workload's governors are topology-aware.
    graph: Option<DependencyGraph>,
    /// Streaming configuration of every governor in the run.
    pub streaming: StreamingConfig,
}

impl World {
    /// A streaming governor over `strategies` (a shard's or node's
    /// slice of the catalog), built the way the CLI builds them: with
    /// the slice's SOPs and the fleet's dependency graph.
    #[must_use]
    pub fn governor(&self, strategies: Vec<AlertStrategy>) -> StreamingGovernor {
        let ids: BTreeSet<_> = strategies.iter().map(AlertStrategy::id).collect();
        let sops = self
            .sops
            .iter()
            .filter(|sop| ids.contains(&sop.strategy()))
            .cloned();
        let mut governor =
            AlertGovernor::new(strategies, GovernorConfig::default()).with_sops(sops);
        if let Some(graph) = &self.graph {
            governor = governor.with_dependency_graph(graph.clone());
        }
        StreamingGovernor::new(governor, self.streaming.clone())
    }
}

/// One window, ready to hand over.
#[derive(Debug, Default)]
pub struct Prepared {
    /// 0-based index of the window in the stream (warm-up included).
    pub index: u64,
    /// Alerts in the window.
    pub count: u64,
    /// The alerts themselves, for the in-process transports (empty for
    /// TCP, where `bytes` carries them).
    pub alerts: Vec<Alert>,
    /// The encoded window, for the TCP transports.
    pub bytes: Vec<u8>,
    /// Feedback labels for the close (empty with QoA off).
    pub labels: Vec<QoaLabel>,
}

/// The seeded window source of one run.
#[derive(Debug)]
pub struct Loadgen {
    stream: StatisticalStream,
    incidents: Vec<Incident>,
    oracle: Option<FeedbackOracle>,
    transport: Transport,
    encoder: WireEncoder,
    next_index: u64,
    /// Recycled encode buffer, so a TCP run allocates no window-sized
    /// buffer per window.
    spare_bytes: Vec<u8>,
}

impl Loadgen {
    /// Builds the world of `traffic` and a generator over it.
    #[must_use]
    pub fn new(workload: &Workload, traffic: &Traffic) -> (Self, World) {
        let stream = StatisticalStream::new(&traffic.scenario);
        // Ground-truth incidents from the planned faults alone: the
        // oracle only asks which service an incident hit and when, so
        // no alert needs linking and nothing waits for the stream.
        let mut faults = FaultPlan::new();
        for event in stream.planned_faults() {
            faults.push(event.clone());
        }
        let incidents = derive_incidents(stream.topology(), &faults, &[]);
        let catalog = stream.catalog();
        let strategies = catalog.strategies().to_vec();
        let sops = strategies
            .iter()
            .filter_map(|s| catalog.sop(s.id()).cloned())
            .collect();
        let world = World {
            strategies,
            sops,
            graph: workload
                .topology
                .then(|| stream.topology().dependency_graph()),
            streaming: StreamingConfig {
                emerging: EmergingChannel {
                    mode: if workload.emerging {
                        EmergingMode::Forward
                    } else {
                        EmergingMode::Off
                    },
                    ..EmergingChannel::default()
                },
                qoa: QoaChannel {
                    mode: if workload.qoa {
                        QoaMode::Forward
                    } else {
                        QoaMode::Off
                    },
                    ..QoaChannel::default()
                },
                ..StreamingConfig::default()
            },
        };
        let generator = Self {
            stream,
            incidents,
            oracle: workload
                .qoa
                .then(|| FeedbackOracle::new(traffic.label_seed, LABEL_NOISE)),
            transport: workload.transport,
            encoder: WireEncoder::new(),
            next_index: 0,
            spare_bytes: Vec::new(),
        };
        (generator, world)
    }

    /// Builds the next one-hour window: generate, label, encode. Each
    /// step is a span under `parent` when tracing.
    ///
    /// # Panics
    ///
    /// Panics if the stream runs dry — the scenario range is sized
    /// from the run's window count, so that is a bug.
    pub fn next(&mut self, tracer: &mut Tracer, parent: u32) -> Prepared {
        let index = self.next_index;
        self.next_index += 1;

        let span = tracer.start("loadgen.generate", parent, index);
        let alerts = self
            .stream
            .next_hour()
            .expect("scenario range covers the run");
        tracer.end(span);

        let labels = match &self.oracle {
            None => Vec::new(),
            Some(oracle) => {
                let span = tracer.start("loadgen.label", parent, index);
                let labels =
                    oracle.label_window(index, self.stream.catalog(), &alerts, &self.incidents);
                tracer.end(span);
                labels
            }
        };

        let count = alerts.len() as u64;
        let mut bytes = std::mem::take(&mut self.spare_bytes);
        bytes.clear();
        let alerts = match self.transport {
            Transport::InProcess | Transport::Cluster => alerts,
            Transport::TcpBinary => {
                let span = tracer.start("wire.encode", parent, index);
                for alert in &alerts {
                    self.encoder.encode_alert_into(alert, &mut bytes);
                }
                tracer.end(span);
                Vec::new()
            }
            Transport::TcpNdjson => {
                let span = tracer.start("ingestd.ndjson_encode", parent, index);
                for alert in &alerts {
                    bytes.extend_from_slice(encode_alert(alert).as_bytes());
                    bytes.push(b'\n');
                }
                tracer.end(span);
                Vec::new()
            }
        };
        Prepared {
            index,
            count,
            alerts,
            bytes,
            labels,
        }
    }

    /// Hands a window's encode buffer back for reuse.
    pub fn recycle(&mut self, bytes: Vec<u8>) {
        self.spare_bytes = bytes;
    }
}

/// Spins until `due` after sleeping most of the way, and returns how
/// late the wake-up was, in seconds (zero when on time).
pub fn wait_until(due: Instant) -> f64 {
    const SPIN: std::time::Duration = std::time::Duration::from_micros(200);
    let now = Instant::now();
    if let Some(left) = due.checked_duration_since(now) {
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    }
    Instant::now().duration_since(due).as_secs_f64()
}
