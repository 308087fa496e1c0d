//! Ready-made experiment scenarios.
//!
//! Each scenario bundles a topology, a strategy catalog, a fault plan and
//! a monitoring window into a single seeded, reproducible [`Scenario`]
//! whose [`run`](Scenario::run) yields the complete [`SimOutput`] the
//! detectors, reactions, and figure harnesses consume.
//!
//! Two generation engines are used:
//!
//! * **Signal-level** ([`MonitoringSystem`]): real per-tick strategy
//!   evaluation against telemetry. Used by [`quickstart`],
//!   [`cascade_table2`] and [`storm_fig3`] — faithful mechanics at
//!   hours-to-days scale.
//! * **Statistical** ([`workload`](crate::scenarios::study)): per-hour
//!   Poisson sampling per strategy with storm injections. Used by
//!   [`study`] to reach the paper's two-year scale (scaled down ~12×,
//!   documented in DESIGN.md) in seconds.

use serde::{Deserialize, Serialize};

use alertops_model::{Alert, Incident, MicroserviceId, SimDuration, SimTime, TimeRange};

use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::monitor::{MonitorConfig, MonitoringSystem};
use crate::ocesim::{derive_incidents, OceTeam, ProcessingModel};
use crate::rng;
use crate::strategies::{StrategyCatalog, StrategyCatalogConfig};
use crate::telemetry::Telemetry;
use crate::topology::{Topology, TopologyConfig};
use crate::workload::{self, LoadShape};

/// Which engine generates the alert stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// Tick-by-tick signal evaluation (faithful, hours-to-days scale).
    Signal,
    /// Per-hour statistical sampling (scales to months).
    Statistical,
}

/// A fully specified, seeded experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (used in reports).
    pub name: String,
    /// Topology parameters.
    pub topology: TopologyConfig,
    /// Strategy-catalog parameters.
    pub catalog: StrategyCatalogConfig,
    /// The monitored interval.
    pub range: TimeRange,
    /// Evaluation tick (signal engine only).
    pub tick: SimDuration,
    /// Which engine to use.
    pub engine: Engine,
    /// Planned cascade injections: `(start, duration, magnitude)`; the
    /// source is picked as the microservice with the widest blast radius.
    pub cascades: Vec<(SimTime, SimDuration, f64)>,
    /// Scattered background faults per simulated day.
    pub background_faults_per_day: f64,
    /// Statistical engine: storm injections every N hours (0 = none).
    pub storm_every_hours: u64,
    /// Statistical engine: production-traffic shaping (diurnal curve,
    /// deploy waves, gray cascades, multi-tenant labels). The default
    /// is neutral — see [`LoadShape`].
    pub load: LoadShape,
    /// Signal engine: add one dominant WARNING-level repeater (the
    /// Fig. 3 "haproxy process number warning"): `(cooldown, fault
    /// magnitude)`. The strategy fires at most once per cooldown; a
    /// sustained sub-incident fault on its host keeps its log rule hot
    /// for the duration of the first cascade onward.
    pub dominant_repeater: Option<(SimDuration, f64)>,
    /// Master seed.
    pub seed: u64,
}

/// Everything a scenario run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutput {
    /// The generated topology.
    pub topology: Topology,
    /// The generated strategy catalog (with injected ground truth).
    pub catalog: StrategyCatalog,
    /// The injected fault plan (ground truth for A6 and incidents).
    pub faults: FaultPlan,
    /// The alert stream, sorted by raise time, fully processed (every
    /// alert has a processing time and a clearance).
    pub alerts: Vec<Alert>,
    /// Derived incidents (ground truth for indicativeness).
    pub incidents: Vec<Incident>,
    /// The on-call team.
    pub team: OceTeam,
}

impl Scenario {
    /// Runs the scenario end to end.
    #[must_use]
    pub fn run(&self) -> SimOutput {
        let topology = Topology::generate(&self.topology);
        let catalog = StrategyCatalog::generate(&topology, &self.catalog);
        let mut faults = FaultPlan::new();

        // Cascades from the widest-blast-radius source.
        let wide_source = topology
            .microservices()
            .iter()
            .map(|ms| ms.id)
            .max_by_key(|&id| topology.cascade_closure(id).len())
            .expect("topology has microservices");
        for &(start, duration, magnitude) in &self.cascades {
            faults.push_cascade(
                &topology,
                wide_source,
                start,
                duration,
                magnitude,
                0.9,
                SimDuration::from_mins(2),
                self.seed ^ 0xCA5C,
            );
        }

        // Background faults.
        let days = (self.range.duration().as_secs() as f64 / 86_400.0).max(1.0 / 24.0);
        let n_background = (self.background_faults_per_day * days).round() as u64;
        let n_ms = topology.microservices().len() as u64;
        for i in 0..n_background {
            let ms = MicroserviceId(rng::hash3(self.seed, 81, i, 0) % n_ms);
            let offset =
                (rng::uniform(self.seed, 82, i, 0) * self.range.duration().as_secs() as f64) as u64;
            let kind = match rng::hash3(self.seed, 83, i, 0) % 5 {
                0 => FaultKind::Sustained,
                1 => FaultKind::GrayMemoryLeak,
                2 => FaultKind::GrayCpuOverload,
                _ => FaultKind::Transient,
            };
            let duration = match kind {
                FaultKind::Transient => 30 + rng::hash3(self.seed, 84, i, 0) % 180,
                FaultKind::GrayMemoryLeak | FaultKind::GrayCpuOverload => {
                    3_600 + rng::hash3(self.seed, 84, i, 0) % 14_400
                }
                _ => 600 + rng::hash3(self.seed, 84, i, 0) % 3_000,
            };
            faults.push(FaultEvent {
                microservice: ms,
                kind,
                start: self
                    .range
                    .start()
                    .saturating_add(SimDuration::from_secs(offset)),
                duration: SimDuration::from_secs(duration),
                magnitude: 0.5 + rng::uniform(self.seed, 85, i, 0) * 0.5,
                cascade_origin: None,
            });
        }

        // Optional dominant repeater (Fig. 3's HAProxy).
        let mut catalog = catalog;
        if let Some((cooldown, magnitude)) = self.dominant_repeater {
            let host = topology
                .microservices()
                .iter()
                .find(|ms| ms.layer == 0 && ms.region == topology.regions()[0])
                .or_else(|| topology.microservices().first())
                .expect("topology has microservices");
            let id = alertops_model::StrategyId(catalog.len() as u64);
            let strategy = alertops_model::AlertStrategy::builder(id)
                .title_template("haproxy process number warning")
                .severity(alertops_model::Severity::Warning)
                .service(host.service)
                .microservice(host.id)
                .kind(alertops_model::StrategyKind::Log(alertops_model::LogRule {
                    keyword: "WARN".to_owned(),
                    // min_count 2 keeps the baseline chatter mostly
                    // sub-threshold; the host fault pushes it hot.
                    min_count: 2,
                    window: SimDuration::from_mins(5),
                }))
                .cooldown(cooldown)
                .build()
                .expect("repeater strategy is valid");
            let sop = alertops_model::Sop::builder("haproxy process number warning", id)
                .description("HAProxy worker count deviates from target")
                .build()
                .expect("repeater SOP is valid");
            catalog.push(
                strategy,
                crate::strategies::InjectedProfile {
                    chatty: true,
                    ..crate::strategies::InjectedProfile::default()
                },
                sop,
            );
            let start = self
                .cascades
                .first()
                .map_or(self.range.start(), |&(t, _, _)| t);
            faults.push(FaultEvent {
                microservice: host.id,
                kind: FaultKind::GrayCpuOverload,
                start,
                duration: self.range.end().duration_since(start),
                magnitude,
                cascade_origin: None,
            });
        }
        let catalog = catalog;

        let mut alerts = match self.engine {
            Engine::Signal => {
                let telemetry = Telemetry::new(&topology, &faults, self.seed ^ 0x7E1E);
                MonitoringSystem::new(
                    telemetry,
                    &catalog,
                    MonitorConfig {
                        tick: self.tick,
                        range: self.range,
                        seed: self.seed ^ 0x0CE,
                    },
                )
                .run()
            }
            Engine::Statistical => {
                workload::statistical_alerts(self, &topology, &catalog, &mut faults)
            }
        };

        let team = OceTeam::survey_team();
        ProcessingModel {
            seed: self.seed ^ 0x9CE5,
            ..ProcessingModel::default()
        }
        .process(&mut alerts, &catalog, &team);
        let incidents = derive_incidents(&topology, &faults, &alerts);

        SimOutput {
            topology,
            catalog,
            faults,
            alerts,
            incidents,
            team,
        }
    }
}

/// A small 6-hour world for first contact with the API: 24 microservices,
/// 240 strategies, one sustained fault plus background transients.
#[must_use]
pub fn quickstart(seed: u64) -> Scenario {
    Scenario {
        name: "quickstart".to_owned(),
        topology: TopologyConfig {
            services: 4,
            microservices: 24,
            seed,
            ..TopologyConfig::default()
        },
        catalog: StrategyCatalogConfig {
            total_strategies: 240,
            seed: seed ^ 1,
            ..StrategyCatalogConfig::default()
        },
        range: TimeRange::new(SimTime::EPOCH, SimTime::from_hours(6)),
        tick: SimDuration::from_secs(60),
        engine: Engine::Signal,
        cascades: vec![(SimTime::from_hours(3), SimDuration::from_mins(40), 0.9)],
        background_faults_per_day: 20.0,
        storm_every_hours: 0,
        load: LoadShape::default(),
        dominant_repeater: None,
        seed,
    }
}

/// The Table II cascade: a Block Storage failure at ~06:36 cascading into
/// its Database dependents, at full paper scale (192 microservices).
#[must_use]
pub fn cascade_table2(seed: u64) -> Scenario {
    Scenario {
        name: "cascade-table2".to_owned(),
        topology: TopologyConfig {
            seed,
            ..TopologyConfig::default()
        },
        catalog: StrategyCatalogConfig {
            seed: seed ^ 1,
            // A quiet background so the cascade's own alerts dominate the
            // sample table, as in the paper's hand-picked example.
            chatty_fraction: 0.001,
            oversensitive_fraction: 0.004,
            ..StrategyCatalogConfig::default()
        },
        range: TimeRange::new(SimTime::from_hours(5), SimTime::from_hours(8)),
        tick: SimDuration::from_secs(60),
        engine: Engine::Signal,
        // 06:36, matching the paper's sample alerts.
        cascades: vec![(
            SimTime::from_secs(6 * 3_600 + 36 * 60),
            SimDuration::from_mins(12),
            0.95,
        )],
        background_faults_per_day: 2.0,
        storm_every_hours: 0,
        load: LoadShape::default(),
        dominant_repeater: None,
        seed,
    }
}

/// The Fig. 3 alert storm: a 05:00–12:00 window at full catalog scale
/// with a major cascade at 07:00 — the paper's storm produced 2751 alerts
/// from 200 effective strategies between 07:00 and 11:59, dominated by a
/// WARNING-level "haproxy process number warning" at ≈30% per hour.
#[must_use]
pub fn storm_fig3(seed: u64) -> Scenario {
    Scenario {
        name: "storm-fig3".to_owned(),
        topology: TopologyConfig {
            seed,
            ..TopologyConfig::default()
        },
        catalog: StrategyCatalogConfig {
            seed: seed ^ 1,
            // Quieter baseline than the study defaults so the calm hours
            // before 07:00 stay under the storm threshold and the storm
            // itself is cascade-driven, as in the paper's case study.
            chatty_fraction: 0.002,
            oversensitive_fraction: 0.006,
            ..StrategyCatalogConfig::default()
        },
        range: TimeRange::new(SimTime::from_hours(5), SimTime::from_hours(12)),
        tick: SimDuration::from_secs(20),
        engine: Engine::Signal,
        cascades: vec![
            (SimTime::from_hours(7), SimDuration::from_hours(2), 0.95),
            (
                SimTime::from_secs(8 * 3_600 + 30 * 60),
                SimDuration::from_mins(110),
                0.9,
            ),
            (
                SimTime::from_secs(9 * 3_600 + 20 * 60),
                SimDuration::from_mins(100),
                0.9,
            ),
            (
                SimTime::from_secs(10 * 3_600 + 40 * 60),
                SimDuration::from_mins(75),
                0.9,
            ),
        ],
        background_faults_per_day: 60.0,
        storm_every_hours: 0,
        load: LoadShape::default(),
        dominant_repeater: Some((SimDuration::from_secs(40), 0.5)),
        seed,
    }
}

/// The two-year study, scaled: 60 days of statistical generation at the
/// full 2010-strategy / 192-microservice scale, with storms every ~2
/// days. Rates are tuned so the per-hour volume matches the paper's
/// ≈230 alerts/hour average (4M+ over two years); extrapolating 60 days
/// ×12.2 recovers the paper's scale.
#[must_use]
pub fn study(seed: u64) -> Scenario {
    Scenario {
        name: "study".to_owned(),
        topology: TopologyConfig {
            seed,
            ..TopologyConfig::default()
        },
        catalog: StrategyCatalogConfig {
            seed: seed ^ 1,
            ..StrategyCatalogConfig::default()
        },
        range: TimeRange::new(SimTime::EPOCH, SimTime::from_days(60)),
        tick: SimDuration::from_secs(60),
        engine: Engine::Statistical,
        cascades: Vec::new(),
        background_faults_per_day: 6.0,
        storm_every_hours: 48,
        load: LoadShape::default(),
        dominant_repeater: None,
        seed,
    }
}

/// A miniature statistical study (4 days, small world) for tests and
/// quick demos: same code paths as [`study`], two orders of magnitude
/// faster.
#[must_use]
pub fn mini_study(seed: u64) -> Scenario {
    Scenario {
        name: "mini-study".to_owned(),
        topology: TopologyConfig {
            services: 6,
            microservices: 48,
            seed,
            ..TopologyConfig::default()
        },
        catalog: StrategyCatalogConfig {
            total_strategies: 480,
            seed: seed ^ 1,
            ..StrategyCatalogConfig::default()
        },
        range: TimeRange::new(SimTime::EPOCH, SimTime::from_days(4)),
        tick: SimDuration::from_secs(60),
        engine: Engine::Statistical,
        cascades: Vec::new(),
        background_faults_per_day: 6.0,
        storm_every_hours: 24,
        load: LoadShape::default(),
        dominant_repeater: None,
        seed,
    }
}

/// Production-scale soak world: a multi-tenant fleet of 32 services /
/// 1024 microservices monitored by 8000 strategies over three days,
/// with a diurnal load curve, eight deployments a day, daily gray
/// cascades, and storms every ~12 hours. Drive it through
/// [`crate::workload::StatisticalStream`] (hour-at-a-time, bounded
/// memory) rather than [`Scenario::run`], which materializes the whole
/// range at once. `pipeline-bench`'s `steady-wire` workload streams it
/// over binary TCP.
#[must_use]
pub fn soak(seed: u64) -> Scenario {
    Scenario {
        name: "soak".to_owned(),
        topology: TopologyConfig {
            services: 32,
            microservices: 1024,
            seed,
            ..TopologyConfig::default()
        },
        catalog: StrategyCatalogConfig {
            total_strategies: 8000,
            seed: seed ^ 1,
            ..StrategyCatalogConfig::default()
        },
        range: TimeRange::new(SimTime::EPOCH, SimTime::from_days(3)),
        tick: SimDuration::from_secs(60),
        engine: Engine::Statistical,
        cascades: Vec::new(),
        background_faults_per_day: 12.0,
        storm_every_hours: 12,
        load: LoadShape {
            diurnal_amplitude: 0.5,
            diurnal_peak_hour: 14,
            deploys_per_day: 8,
            deploy_wave_boost: 6.0,
            gray_cascades_per_week: 7,
            tenants: 6,
            rate_multiplier: 1.5,
        },
        dominant_repeater: None,
        seed,
    }
}

/// The soak world shrunk to smoke-test size (8 services, 96
/// microservices, 800 strategies, one day) with every [`LoadShape`]
/// phenomenon still active — same code paths as [`soak`], seconds of
/// wall clock. `pipeline-bench`'s `governed-close` and `storm-paced`
/// workloads build their worlds from it.
#[must_use]
pub fn soak_smoke(seed: u64) -> Scenario {
    Scenario {
        name: "soak-smoke".to_owned(),
        topology: TopologyConfig {
            services: 8,
            microservices: 96,
            seed,
            ..TopologyConfig::default()
        },
        catalog: StrategyCatalogConfig {
            total_strategies: 800,
            seed: seed ^ 1,
            ..StrategyCatalogConfig::default()
        },
        range: TimeRange::new(SimTime::EPOCH, SimTime::from_days(1)),
        tick: SimDuration::from_secs(60),
        engine: Engine::Statistical,
        cascades: Vec::new(),
        background_faults_per_day: 12.0,
        storm_every_hours: 8,
        load: LoadShape {
            diurnal_amplitude: 0.5,
            diurnal_peak_hour: 14,
            deploys_per_day: 8,
            deploy_wave_boost: 6.0,
            gray_cascades_per_week: 7,
            tenants: 4,
            rate_multiplier: 2.0,
        },
        dominant_repeater: None,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::AlertId;

    #[test]
    fn quickstart_runs_and_is_deterministic() {
        let a = quickstart(7).run();
        let b = quickstart(7).run();
        assert!(!a.alerts.is_empty());
        assert_eq!(a.alerts, b.alerts);
        assert_eq!(a.incidents.len(), b.incidents.len());
        let c = quickstart(8).run();
        assert_ne!(a.alerts.len(), 0);
        // Different seed almost surely differs.
        assert!(a.alerts != c.alerts);
    }

    #[test]
    fn quickstart_alerts_are_processed() {
        let out = quickstart(7).run();
        for alert in &out.alerts {
            assert!(alert.processing_time().is_some());
            assert!(!alert.is_active());
        }
    }

    #[test]
    fn quickstart_has_cascade_ground_truth() {
        let out = quickstart(7).run();
        let induced = out
            .faults
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::CascadeInduced)
            .count();
        assert!(induced > 0, "cascade produced no induced faults");
    }

    #[test]
    fn mini_study_volume_and_storms() {
        let out = mini_study(3).run();
        // 4 days × 48 microservices world: expect a few thousand alerts.
        assert!(
            out.alerts.len() > 500,
            "too few alerts: {}",
            out.alerts.len()
        );
        // Hour × region counting should reveal at least one >100 hour
        // (a storm).
        use std::collections::HashMap;
        let mut counts: HashMap<(String, u64), usize> = HashMap::new();
        for a in &out.alerts {
            *counts
                .entry((a.location().region().as_str().to_owned(), a.hour_bucket()))
                .or_insert(0) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        assert!(max > 100, "no storm-like hour; max {max}");
        // And typical hours are calm.
        let median = {
            let mut v: Vec<usize> = counts.values().copied().collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        assert!(median < 100, "median hourly volume too high: {median}");
    }

    #[test]
    fn mini_study_is_deterministic() {
        let a = mini_study(5).run();
        let b = mini_study(5).run();
        assert_eq!(a.alerts.len(), b.alerts.len());
        assert_eq!(a.alerts.first(), b.alerts.first());
        assert_eq!(a.alerts.last(), b.alerts.last());
    }

    #[test]
    fn statistical_alerts_sorted_with_dense_ids() {
        let out = mini_study(3).run();
        for (i, a) in out.alerts.iter().enumerate() {
            assert_eq!(a.id(), AlertId(i as u64));
        }
        for w in out.alerts.windows(2) {
            assert!(w[0].raised_at() <= w[1].raised_at());
        }
    }

    #[test]
    fn study_incidents_exist() {
        let out = mini_study(3).run();
        assert!(
            !out.incidents.is_empty(),
            "storms should escalate to incidents"
        );
    }

    #[test]
    fn chatty_strategies_dominate_repeats() {
        let out = mini_study(3).run();
        use std::collections::HashMap;
        let mut per_strategy: HashMap<_, usize> = HashMap::new();
        for a in &out.alerts {
            *per_strategy.entry(a.strategy()).or_insert(0) += 1;
        }
        let (&top, &top_count) = per_strategy
            .iter()
            .max_by_key(|(_, &c)| c)
            .expect("nonempty");
        let profile = out.catalog.profile(top);
        assert!(
            profile.chatty || profile.oversensitive,
            "top strategy {top} ({top_count} alerts) is not chatty/oversensitive"
        );
    }
}
