//! The four workloads: what runs, through which transport, over which
//! world, and why.
//!
//! Every constant that shapes a run lives here. `N`, `W` and the
//! `rate_multiplier`s were fixed once, at the seed commit, so that the
//! measured phase takes about [`BASE_SECONDS`] on two cores and set-up
//! at least two; they are not tuned per host. Work is fixed, not time:
//! the acceptance driver passes `--seconds <run_seconds>` on every
//! invocation and expects the run to measure for that long, so
//! `--seconds` scales `N` linearly (`N = windows · seconds /
//! BASE_SECONDS`) and the same seconds always mean the same windows.

use alertops_model::{SimTime, TimeRange};
use alertops_sim::scenarios::{self, Scenario};
use alertops_sim::{LoadShape, StrategyCatalogConfig, TopologyConfig};

/// The fewest warm-up windows any workload streams through the measured
/// path during set-up: twice the 24-window history, so the engine is
/// full *and* evicting, and the interner, string tables and vocabulary
/// are warm. Workloads with thin windows warm up for longer, so that
/// `setup_s` never summarises less than about two seconds of work.
pub const WARMUP_WINDOWS: usize = 48;
/// Throughput is the median over this many consecutive segments.
pub const SEGMENTS: usize = 5;
/// The `--seconds` value at which a workload runs its table `N`.
pub const BASE_SECONDS: u64 = 20;
/// Leading measured windows a traced run replays through each layer in
/// isolation, after [`WARMUP_WINDOWS`] untimed ones: as many as keep a
/// traced invocation under 40 s on every workload.
pub const REPLAY_WINDOWS: usize = 20;
/// Leading published snapshots held against the 1-shard oracle.
pub const ORACLE_WINDOWS: usize = 32;
/// `--toy` sizes: N windows after a short warm-up, over a shrunken
/// world.
pub const TOY_WINDOWS: usize = 20;
/// Warm-up windows in `--toy` mode.
pub const TOY_WARMUP: usize = 4;
/// Label noise of the feedback oracle on the QoA workloads.
pub const LABEL_NOISE: f64 = 0.05;
/// Seed of the deployment under test: the fleet (topology) and its
/// strategy catalog are the same in every run. A seeded fleet moves
/// every metric by tens of percent from seed to seed (how many chatty
/// strategies the catalog drew) — that is a different system, not a
/// different input. Everything that *is* input comes from `--seed`:
/// the alert stream, the timeline of storms, deploys, gray cascades and
/// background faults, and the feedback oracle's label noise.
pub const FLEET_SEED: u64 = 2022;
/// Shard-queue capacity of every system under test.
pub const QUEUE_CAPACITY: usize = 8192;

/// How alerts reach the system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `alertops-wire` binary frames over one TCP connection.
    TcpBinary,
    /// NDJSON lines (the default `WireFormat`) over one TCP connection.
    TcpNdjson,
    /// Direct `IngestdHandle::route` + `flush_window_labeled` calls.
    InProcess,
    /// Direct `AlertCluster::route` + `close_window_labeled` calls,
    /// 2 nodes × 1 shard, v2 WAL.
    Cluster,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` and `BENCHMARK.json` spell it.
    pub name: &'static str,
    /// One line: what this workload is for.
    pub why: &'static str,
    /// How alerts travel.
    pub transport: Transport,
    /// Measured windows `N` at [`BASE_SECONDS`].
    pub windows: usize,
    /// Warm-up windows `W`, at least [`WARMUP_WINDOWS`].
    pub warmup: usize,
    /// Open loop: one window is due every this many milliseconds.
    /// `None` is a closed loop.
    pub period_ms: Option<f64>,
    /// Emerging (AO-LDA) channel on.
    pub emerging: bool,
    /// QoA feedback loop on, labelled by the `FeedbackOracle`.
    pub qoa: bool,
    /// Governors know the fleet's dependency graph (cascade detection
    /// and topology-aware correlation), as the CLI builds them; without
    /// it they are built as the soak harness builds them, from the
    /// catalog alone.
    pub topology: bool,
    world: fn(u64) -> Scenario,
}

/// The worlds. Each starts from a stock scenario and overrides only
/// what the workload's table row names.
fn steady_world(seed: u64) -> Scenario {
    Scenario {
        name: "steady-wire".to_owned(),
        storm_every_hours: 0,
        load: LoadShape {
            tenants: 6,
            rate_multiplier: 2.7,
            ..LoadShape::default()
        },
        ..scenarios::soak(seed)
    }
}

fn thin_world(seed: u64) -> Scenario {
    Scenario {
        name: "governed-close".to_owned(),
        load: LoadShape {
            rate_multiplier: 0.55,
            ..LoadShape::default()
        },
        ..scenarios::soak_smoke(seed)
    }
}

/// Every `LoadShape` phenomenon on. Two knobs differ from the stock
/// smoke world, both so that runs at different seeds are the same
/// *kind* of input: a storm every 4 h instead of 8 (≈ 250 per run, so
/// no seed misses the heavy services) and a deploy boost of 2 instead
/// of 6 (a storm, a deploy on the same service and the diurnal peak
/// multiply; at 6 one such coincidence made a window 40× the median in
/// some seeds and none in others, and peak RSS followed it).
fn storm_world(seed: u64) -> Scenario {
    let stock = scenarios::soak_smoke(seed);
    Scenario {
        name: "storm-paced".to_owned(),
        storm_every_hours: 4,
        load: LoadShape {
            rate_multiplier: 1.0,
            deploy_wave_boost: 2.0,
            ..stock.load.clone()
        },
        ..stock
    }
}

/// The paper's catalog size under a steady load: no storms (the stock
/// study world has one every 48 h — ten per run, so the largest one,
/// and with it peak RSS, was the seed's luck).
fn paper_world(seed: u64) -> Scenario {
    Scenario {
        name: "cluster-journal".to_owned(),
        storm_every_hours: 0,
        load: LoadShape {
            rate_multiplier: 2.9,
            ..LoadShape::default()
        },
        ..scenarios::study(seed)
    }
}

/// Every workload, in the order the tables list them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady-wire",
        why: "Binary frames over one TCP connection, emerging and QoA off: decode, route, queue, engine apply and checkpoint clone do nearly all the work, so a codec, routing or engine gain shows undiluted.",
        transport: Transport::TcpBinary,
        windows: 480,
        warmup: 72,
        period_ms: None,
        emerging: false,
        qoa: false,
        topology: false,
        world: steady_world,
    },
    Workload {
        name: "governed-close",
        why: "In-process route + labelled flush of thin windows, emerging and QoA on: the per-window close sequence (barrier, merge, AO-LDA, QoA update, checkpoint) dominates; TCP and both codecs are bypassed.",
        transport: Transport::InProcess,
        windows: 4000,
        warmup: 480,
        period_ms: None,
        emerging: true,
        qoa: true,
        topology: true,
        world: thin_world,
    },
    Workload {
        name: "storm-paced",
        why: "NDJSON lines on a fixed schedule over a fully shaped world (diurnal, deploys, gray cascades, storms): the compatibility codec, paced arrivals and bursts that queue, so queueing shows in the tail.",
        transport: Transport::TcpNdjson,
        windows: 800,
        warmup: 192,
        period_ms: Some(25.0),
        emerging: true,
        qoa: false,
        topology: false,
        world: storm_world,
    },
    Workload {
        name: "cluster-journal",
        why: "In-process 2-node cluster, v2 WAL, emerging and QoA on, 2010 strategies: a WAL write per alert, a checkpoint plus sync per node per close and a serial node barrier dominate; restarts read it back.",
        transport: Transport::Cluster,
        windows: 400,
        warmup: 72,
        period_ms: None,
        emerging: true,
        qoa: true,
        topology: true,
        world: paper_world,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The sizes of one run: how many windows warm up and how many are
/// measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSize {
    /// Warm-up windows (part of set-up).
    pub warmup: usize,
    /// Measured windows `N`, a multiple of [`SEGMENTS`].
    pub windows: usize,
    /// Shrunken world and sizes (`--toy`).
    pub toy: bool,
}

/// The seeded inputs of one run.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// The fixed fleet (see [`FLEET_SEED`]) under the seed's stream and
    /// timeline.
    pub scenario: Scenario,
    /// Seed of the feedback oracle's label noise.
    pub label_seed: u64,
}

impl Workload {
    /// The same workload with its windows handed over by direct calls:
    /// what the oracle and the isolated replays drive, so they see the
    /// alerts themselves rather than encoded bytes.
    #[must_use]
    pub fn in_process(&self) -> Self {
        Self {
            transport: Transport::InProcess,
            ..*self
        }
    }

    /// The run size for `--seconds` (or `--toy`).
    #[must_use]
    pub fn size(&self, seconds: u64, toy: bool) -> RunSize {
        if toy {
            return RunSize {
                warmup: TOY_WARMUP,
                windows: TOY_WINDOWS,
                toy,
            };
        }
        let scaled = self.windows as u64 * seconds.max(1) / BASE_SECONDS;
        let per_segment = (scaled as usize / SEGMENTS).max(1);
        RunSize {
            warmup: self.warmup,
            windows: per_segment * SEGMENTS,
            toy,
        }
    }

    /// The inputs for `seed`: the fixed fleet under the seed's stream,
    /// long enough for `size` one-hour windows. In toy mode the fleet is
    /// cut to a tenth so a debug build sets up in well under a second.
    #[must_use]
    pub fn traffic(&self, seed: u64, size: RunSize) -> Traffic {
        // The world functions seed the topology and catalog configs
        // from their argument; the scenario's own seed drives the
        // stream and every schedule drawn over the range.
        let mut scenario = (self.world)(FLEET_SEED);
        scenario.seed = seed;
        // Two spare hours: the stream drains everything pending into
        // its last hour, which must stay outside the run.
        let hours = (size.warmup + size.windows + 2) as u64;
        scenario.range = TimeRange::new(SimTime::EPOCH, SimTime::from_hours(hours));
        if size.toy {
            scenario.topology = TopologyConfig {
                services: scenario.topology.services.min(4),
                microservices: (scenario.topology.microservices / 8).max(16),
                ..scenario.topology
            };
            scenario.catalog = StrategyCatalogConfig {
                total_strategies: (scenario.catalog.total_strategies / 10).max(80),
                ..scenario.catalog
            };
        }
        Traffic {
            scenario,
            label_seed: seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_with_seconds_and_stay_segment_aligned() {
        let w = by_name("steady-wire").expect("known workload");
        assert_eq!(w.size(BASE_SECONDS, false).windows, w.windows);
        assert_eq!(w.size(BASE_SECONDS / 2, false).windows, w.windows / 2);
        for seconds in 1..=60 {
            for w in &WORKLOADS {
                let size = w.size(seconds, false);
                assert_eq!(size.windows % SEGMENTS, 0);
                assert!(size.windows >= SEGMENTS);
            }
        }
        assert_eq!(w.size(BASE_SECONDS, true).windows, TOY_WINDOWS);
    }

    #[test]
    fn every_workload_measures_at_least_400_windows_at_base() {
        for w in &WORKLOADS {
            assert!(w.size(BASE_SECONDS, false).windows >= 400, "{}", w.name);
            assert!(w.why.len() <= 200);
        }
        assert!(by_name("nope").is_none());
    }
}
