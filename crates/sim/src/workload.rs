//! Production-scale statistical workload generation.
//!
//! The statistical engine ([`Engine::Statistical`](crate::scenarios::Engine))
//! originally lived inside [`crate::scenarios`] as a batch function that
//! materialized every alert for the whole range at once. This module is
//! its generalization along two axes production-shaped traffic needs:
//!
//! * **Shape** — [`LoadShape`] layers the phenomena production traffic
//!   actually has on top of the per-profile Poisson baseline: a diurnal
//!   sinusoid, deployment-correlated alert waves, slow-burn gray-failure
//!   cascades that ramp a dependency closure over hours, and
//!   multi-tenant instance labels. The default shape is *neutral*: every
//!   multiplier degenerates to exactly `1.0`, and the generated stream
//!   is byte-identical to the pre-shape engine (pinned by
//!   `neutral_shape_reproduces_the_legacy_stream`).
//! * **Laziness** — [`StatisticalStream`] generates the same stream one
//!   simulated hour at a time, so a 60-day, multi-million-alert soak
//!   never holds more than a couple of hours of alerts in memory. The
//!   hour-at-a-time drain is byte-identical to the batch form: alerts
//!   never cross more than one hour boundary (an over-sensitive toggle
//!   burst extends at most 1500 s past its parent, which is under an
//!   hour), so each hour bucket can be sorted and id-stamped as soon as
//!   the following generation hour completes, reproducing the global
//!   `sort_by_key((raised_at, strategy))` + dense-id pass exactly.
//!
//! Everything is keyed off the scenario seed through the stateless
//! `rng` hashes, so any hour of any scenario is
//! replayable in isolation.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use alertops_model::{
    Alert, AlertId, Clearance, Location, MicroserviceId, ServiceId, SimDuration, SimTime,
};

use crate::faults::{FaultEvent, FaultKind};
use crate::rng;
use crate::scenarios::{Engine, Scenario};
use crate::strategies::StrategyCatalog;
use crate::topology::{Microservice, Topology};

/// The production-traffic phenomena layered over the Poisson baseline.
///
/// The [`Default`] shape is neutral: it reproduces the unshaped engine
/// bit for bit. Each knob is independent, seeded from the scenario
/// seed, and replayable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadShape {
    /// Peak-to-mean amplitude of the diurnal sinusoid in `[0, 1)`.
    /// `0.0` disables it. At `0.5` the peak hour carries 1.5× and the
    /// trough hour 0.5× the flat rate.
    pub diurnal_amplitude: f64,
    /// Hour of day (0–23) the diurnal curve peaks at.
    pub diurnal_peak_hour: u64,
    /// Deployments per simulated day across the fleet; each picks a
    /// service and an hour and multiplies that service's strategies by
    /// [`deploy_wave_boost`](Self::deploy_wave_boost) for the hour —
    /// the "alert wave right after a rollout" pattern. `0` disables.
    pub deploys_per_day: u64,
    /// Rate multiplier a deploying service's strategies see during the
    /// deploy hour.
    pub deploy_wave_boost: f64,
    /// Gray-failure cascades per simulated week: each picks a
    /// non-fault-tolerant source microservice and ramps the alert rate
    /// of every strategy in its cascade closure linearly from 1× to 4×
    /// over 6–18 hours — the slow-burn leak nobody notices until the
    /// graph is saturated. `0` disables.
    pub gray_cascades_per_week: u64,
    /// Number of tenants sharing the catalog. With `tenants > 1`,
    /// strategy ids are striped across tenants and instance labels
    /// carry the tenant (`t3-vm-17`); `<= 1` keeps the legacy
    /// single-tenant `vm-17` labels.
    pub tenants: u64,
    /// Uniform rate multiplier applied last (volume knob for soak
    /// sizing). `1.0` is neutral.
    pub rate_multiplier: f64,
}

impl Default for LoadShape {
    fn default() -> Self {
        Self {
            diurnal_amplitude: 0.0,
            diurnal_peak_hour: 14,
            deploys_per_day: 0,
            deploy_wave_boost: 6.0,
            gray_cascades_per_week: 0,
            tenants: 1,
            rate_multiplier: 1.0,
        }
    }
}

impl LoadShape {
    /// `true` when every knob is at its neutral value, i.e. the shaped
    /// engine degenerates to the legacy unshaped stream.
    #[must_use]
    pub fn is_neutral(&self) -> bool {
        self.diurnal_amplitude == 0.0
            && self.deploys_per_day == 0
            && self.gray_cascades_per_week == 0
            && self.tenants <= 1
            && self.rate_multiplier == 1.0
    }
}

/// One scheduled deployment: `service` rolls out during `hour`.
#[derive(Debug, Clone)]
struct DeployWave {
    hour: u64,
    service: ServiceId,
}

/// One scheduled gray-failure cascade.
#[derive(Debug, Clone)]
struct GrayCascade {
    start_hour: u64,
    duration_hours: u64,
    affected: HashSet<MicroserviceId>,
}

impl GrayCascade {
    /// Linear 1×→4× ramp across the cascade's lifetime; `None` outside
    /// it or for unaffected microservices.
    fn ramp(&self, hour: u64, ms: MicroserviceId) -> Option<f64> {
        if hour < self.start_hour || hour >= self.start_hour + self.duration_hours {
            return None;
        }
        if !self.affected.contains(&ms) {
            return None;
        }
        let elapsed = (hour - self.start_hour) as f64 / self.duration_hours as f64;
        Some(1.0 + 3.0 * elapsed)
    }
}

/// Lazily-driven statistical alert generator: the batch engine,
/// restructured to yield one simulated hour at a time with bounded
/// memory. Draining every hour reproduces the batch output exactly —
/// same alerts, same global sort, same dense ids.
#[derive(Debug)]
pub struct StatisticalStream {
    scenario: Scenario,
    topology: Topology,
    catalog: StrategyCatalog,
    seed: u64,
    start_hour: u64,
    end_hour: u64,
    /// `(hour, region index, root service)` triples, one per storm hour.
    storm_hours: Vec<(u64, usize, ServiceId)>,
    deploys: Vec<DeployWave>,
    grays: Vec<GrayCascade>,
    /// Ground-truth fault events the schedules injected (storm roots,
    /// deploy faults, gray sources) — callers feed these to incident
    /// derivation.
    planned_faults: Vec<FaultEvent>,
    /// Alerts generated but not yet emitted (toggle bursts can land one
    /// hour past their parent).
    pending: Vec<Alert>,
    next_hour: u64,
    /// Total alerts generated so far: the entropy counter the batch
    /// engine derived from `alerts.len()`.
    generated: u64,
    /// Next dense [`AlertId`] to stamp on emission.
    next_id: u64,
    /// Reused format buffer for per-alert instance names: the text is
    /// rendered here then interned, so the steady state (bounded
    /// instance vocabulary) allocates nothing per alert.
    scratch: String,
}

impl StatisticalStream {
    /// Builds the stream, generating the world (topology + catalog)
    /// from the scenario's configs.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's engine is not
    /// [`Engine::Statistical`].
    #[must_use]
    pub fn new(scenario: &Scenario) -> Self {
        let topology = Topology::generate(&scenario.topology);
        let catalog = StrategyCatalog::generate(&topology, &scenario.catalog);
        Self::with_world(scenario.clone(), topology, catalog)
    }

    /// Builds the stream over an already-generated world (the form
    /// [`Scenario::run`] uses, where the catalog may carry injected
    /// strategies).
    ///
    /// # Panics
    ///
    /// Panics if the scenario's engine is not
    /// [`Engine::Statistical`].
    #[must_use]
    pub fn with_world(scenario: Scenario, topology: Topology, catalog: StrategyCatalog) -> Self {
        assert_eq!(
            scenario.engine,
            Engine::Statistical,
            "StatisticalStream drives the statistical engine only"
        );
        let seed = scenario.seed ^ 0x57A7;
        let start_hour = scenario.range.start().hour_bucket();
        let end_hour = scenario.range.end().hour_bucket();
        let total_hours = end_hour.saturating_sub(start_hour);
        let n_regions = topology.regions().len().max(1);
        let mut planned_faults = Vec::new();

        // Storm schedule: (hour, region index, service of the storm's
        // root fault — its strategies participate heavily, mirroring a
        // cascade inside one service stack).
        let mut storm_hours: Vec<(u64, usize, ServiceId)> = Vec::new();
        if scenario.storm_every_hours > 0 {
            let mut h = start_hour + scenario.storm_every_hours / 2;
            while h < end_hour {
                let region_ix = (rng::hash3(seed, 91, h, 0) % n_regions as u64) as usize;
                // Storms last 1–3 hours (consecutive hours merge, per §III-A2).
                let span = 1 + rng::hash3(seed, 92, h, 0) % 3;
                // A storm is backed by a real sustained fault so incidents
                // derive; pick an exposed microservice in that region, varying
                // the pick across storms.
                let candidates: Vec<&Microservice> = topology
                    .microservices()
                    .iter()
                    .filter(|m| !m.fault_tolerant && m.region == topology.regions()[region_ix])
                    .collect();
                let root = candidates
                    .get((rng::hash3(seed, 90, h, 1) % candidates.len().max(1) as u64) as usize)
                    .copied();
                let root_service = root.map_or(ServiceId(0), |m| m.service);
                for s in 0..span {
                    if h + s < end_hour {
                        storm_hours.push((h + s, region_ix, root_service));
                    }
                }
                if let Some(ms) = root {
                    planned_faults.push(FaultEvent {
                        microservice: ms.id,
                        kind: FaultKind::CascadeSource,
                        start: SimTime::from_hours(h),
                        duration: SimDuration::from_hours(span),
                        magnitude: 0.9,
                        cascade_origin: None,
                    });
                }
                h += scenario.storm_every_hours
                    + rng::hash3(seed, 93, h, 0) % (scenario.storm_every_hours / 2 + 1);
            }
        }

        // Deployment waves: service-scoped rate spikes with a short
        // ground-truth fault at the rollout minute.
        let mut deploys = Vec::new();
        if scenario.load.deploys_per_day > 0 && total_hours > 0 {
            let n = (scenario.load.deploys_per_day * total_hours).div_ceil(24);
            let n_services = topology.services().len().max(1) as u64;
            for i in 0..n {
                let hour = start_hour + rng::hash3(seed, 110, i, 0) % total_hours;
                let service = ServiceId(rng::hash3(seed, 111, i, 0) % n_services);
                deploys.push(DeployWave { hour, service });
                if let Some(ms) = topology
                    .microservices()
                    .iter()
                    .find(|m| m.service == service)
                {
                    planned_faults.push(FaultEvent {
                        microservice: ms.id,
                        kind: FaultKind::Transient,
                        start: SimTime::from_hours(hour).saturating_add(SimDuration::from_mins(
                            rng::hash3(seed, 112, i, 0) % 40,
                        )),
                        duration: SimDuration::from_mins(20),
                        magnitude: 0.6,
                        cascade_origin: None,
                    });
                }
            }
        }

        // Gray-failure cascades: slow-burn rate ramps over a dependency
        // closure, backed by a gray fault on the source.
        let mut grays = Vec::new();
        if scenario.load.gray_cascades_per_week > 0 && total_hours > 0 {
            let n = (scenario.load.gray_cascades_per_week * total_hours).div_ceil(24 * 7);
            let sources: Vec<&Microservice> = topology
                .microservices()
                .iter()
                .filter(|m| !m.fault_tolerant)
                .collect();
            for i in 0..n {
                let Some(source) = sources
                    .get((rng::hash3(seed, 120, i, 0) % sources.len().max(1) as u64) as usize)
                else {
                    break;
                };
                let start = start_hour + rng::hash3(seed, 121, i, 0) % total_hours;
                let duration_hours = 6 + rng::hash3(seed, 122, i, 0) % 12;
                let affected: HashSet<MicroserviceId> = topology
                    .cascade_closure(source.id)
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect();
                grays.push(GrayCascade {
                    start_hour: start,
                    duration_hours,
                    affected,
                });
                planned_faults.push(FaultEvent {
                    microservice: source.id,
                    kind: FaultKind::GrayMemoryLeak,
                    start: SimTime::from_hours(start),
                    duration: SimDuration::from_hours(duration_hours),
                    magnitude: 0.7,
                    cascade_origin: None,
                });
            }
        }

        Self {
            scenario,
            topology,
            catalog,
            seed,
            start_hour,
            end_hour,
            storm_hours,
            deploys,
            grays,
            planned_faults,
            pending: Vec::new(),
            next_hour: start_hour,
            generated: 0,
            next_id: 0,
            scratch: String::new(),
        }
    }

    /// The generated world's catalog (including injected strategies
    /// when built [`with_world`](Self::with_world)).
    #[must_use]
    pub fn catalog(&self) -> &StrategyCatalog {
        &self.catalog
    }

    /// The generated topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Ground-truth fault events the schedules injected (storm roots,
    /// deploy faults, gray-cascade sources), in schedule order.
    #[must_use]
    pub fn planned_faults(&self) -> &[FaultEvent] {
        &self.planned_faults
    }

    /// Total simulated hours in the scenario range.
    #[must_use]
    pub fn total_hours(&self) -> u64 {
        self.end_hour.saturating_sub(self.start_hour)
    }

    /// Alerts emitted so far (== the next dense id to be assigned).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.next_id
    }

    /// Generates and returns the next simulated hour of alerts, sorted
    /// by `(raised_at, strategy)` and stamped with dense ids, or `None`
    /// once the range is exhausted. Concatenating every batch equals
    /// the batch engine's output exactly.
    pub fn next_hour(&mut self) -> Option<Vec<Alert>> {
        if self.next_hour >= self.end_hour {
            if self.pending.is_empty() {
                return None;
            }
            let rest = std::mem::take(&mut self.pending);
            return Some(self.emit(rest));
        }
        let hour = self.next_hour;
        self.generate_hour(hour);
        self.next_hour += 1;
        // Toggle bursts reach at most ~1500 s past their parent, so the
        // bucket for `hour` is complete once this generation pass ends;
        // later buckets may still grow. On the last hour everything is
        // in range (the range is half-open), so drain it all.
        let cutoff = if self.next_hour >= self.end_hour {
            u64::MAX
        } else {
            (hour + 1) * 3_600
        };
        let pending = std::mem::take(&mut self.pending);
        let mut batch = Vec::with_capacity(pending.len());
        for alert in pending {
            if alert.raised_at().as_secs() < cutoff {
                batch.push(alert);
            } else {
                self.pending.push(alert);
            }
        }
        Some(self.emit(batch))
    }

    /// Drains up to `hours` hour-batches into one window, or `None`
    /// once the range is exhausted.
    pub fn next_window(&mut self, hours: u64) -> Option<Vec<Alert>> {
        let mut window: Option<Vec<Alert>> = None;
        for _ in 0..hours.max(1) {
            match self.next_hour() {
                Some(batch) => window.get_or_insert_with(Vec::new).extend(batch),
                None => break,
            }
        }
        window
    }

    /// Sorts a complete bucket and stamps dense ids, preserving the
    /// batch engine's global order (stable sort over insertion order
    /// within non-overlapping key ranges).
    fn emit(&mut self, mut batch: Vec<Alert>) -> Vec<Alert> {
        batch.sort_by_key(|a| (a.raised_at(), a.strategy()));
        batch
            .into_iter()
            .map(|a| {
                let id = self.next_id;
                self.next_id += 1;
                a.with_id(AlertId(id))
            })
            .collect()
    }

    /// Generates one simulated hour of raw (unsorted, unstamped)
    /// alerts into `pending`.
    #[allow(clippy::too_many_lines)]
    fn generate_hour(&mut self, hour: u64) {
        let seed = self.seed;
        let scenario = &self.scenario;
        let shape = &scenario.load;
        let shaped = !shape.is_neutral();
        let storm: Option<(usize, ServiceId)> = self
            .storm_hours
            .iter()
            .find(|&&(h, _, _)| h == hour)
            .map(|&(_, r, svc)| (r, svc));
        // Per-hour views of the shape schedules, so the per-strategy
        // loop stays O(1) in the schedule sizes.
        let deploying: HashSet<ServiceId> = self
            .deploys
            .iter()
            .filter(|d| d.hour == hour)
            .map(|d| d.service)
            .collect();
        let active_grays: Vec<&GrayCascade> = self
            .grays
            .iter()
            .filter(|g| hour >= g.start_hour && hour < g.start_hour + g.duration_hours)
            .collect();

        let mut generated = self.generated;
        let mut pending = std::mem::take(&mut self.pending);
        let mut scratch = std::mem::take(&mut self.scratch);
        for strategy in self.catalog.strategies() {
            let profile = self.catalog.profile(strategy.id());
            let ms = self
                .topology
                .microservice(strategy.microservice())
                .expect("strategy references a known microservice");
            let region_ix = self
                .topology
                .regions()
                .iter()
                .position(|r| *r == ms.region)
                .unwrap_or(0);

            let is_probe = matches!(strategy.kind(), alertops_model::StrategyKind::Probe(_));
            // Base hourly rate by injected profile. Probes only fire on
            // real unresponsiveness, so their background is far quieter.
            let mut rate: f64 = if profile.chatty {
                1.5
            } else if profile.oversensitive {
                0.5
            } else if profile.improper_rule {
                0.12
            } else if is_probe {
                0.008
            } else {
                0.04
            };
            // Storm amplification in the storm's region: the failing
            // service's own strategies participate heavily (the cascade
            // inside its stack), plus a thin random tail of dependents.
            // Probe alerts amplify less — hosts go down far more rarely
            // than metrics spike.
            if let Some((storm_region_ix, storm_service)) = storm {
                if storm_region_ix == region_ix {
                    let in_blast = strategy.service() == storm_service
                        || rng::hash3(seed, 94, strategy.id().0, hour / 24).is_multiple_of(25);
                    if in_blast {
                        rate = if is_probe {
                            rate.max(0.2) * 4.0
                        } else {
                            rate.max(0.8) * 12.0
                        };
                    } else {
                        rate *= 2.0;
                    }
                }
            }
            // Load shaping (all neutral multipliers are exact 1.0s, and
            // the whole block is skipped for a neutral shape, so the
            // legacy stream is reproduced bit for bit).
            if shaped {
                if shape.diurnal_amplitude > 0.0 {
                    let phase = (hour % 24) as f64 - shape.diurnal_peak_hour as f64;
                    rate *= 1.0
                        + shape.diurnal_amplitude * (std::f64::consts::TAU * phase / 24.0).cos();
                }
                if deploying.contains(&strategy.service()) {
                    rate = rate.max(0.3) * shape.deploy_wave_boost;
                }
                let gray_ramp = active_grays
                    .iter()
                    .filter_map(|g| g.ramp(hour, ms.id))
                    .fold(None::<f64>, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))));
                if let Some(ramp) = gray_ramp {
                    rate *= ramp;
                }
                if shape.rate_multiplier != 1.0 {
                    rate *= shape.rate_multiplier;
                }
            }
            let count = rng::poisson(seed, 95, strategy.id().0, hour, rate);
            for k in 0..count {
                let offset =
                    rng::hash3(seed, 96, strategy.id().0 * 131 + u64::from(k), hour) % 3_600;
                let raised_at = SimTime::from_secs(hour * 3_600 + offset);
                let mut alert = make_statistical_alert(
                    seed,
                    &self.topology,
                    strategy,
                    ms,
                    raised_at,
                    generated,
                    shape.tenants,
                    &mut scratch,
                );
                // Lifecycle: over-sensitive metric alerts always auto-clear
                // fast (transient); other probe/metric alerts auto-clear
                // only when the anomaly subsides on its own (~55%) —
                // the rest wait for the OCE, like real sustained
                // degradations. Log alerts always wait for the OCE.
                if strategy.kind().supports_auto_clear() {
                    if profile.oversensitive {
                        let secs = 20 + rng::hash3(seed, 97, generated, 0) % 220;
                        alert
                            .clear(
                                raised_at.saturating_add(SimDuration::from_secs(secs)),
                                Clearance::Auto,
                            )
                            .expect("fresh alert is clearable");
                    } else if rng::uniform(seed, 103, generated, 0) < 0.55 {
                        let secs = 600 + rng::hash3(seed, 97, generated, 0) % 5_400;
                        alert
                            .clear(
                                raised_at.saturating_add(SimDuration::from_secs(secs)),
                                Clearance::Auto,
                            )
                            .expect("fresh alert is clearable");
                    }
                }
                pending.push(alert);
                generated += 1;

                // Over-sensitive strategies toggle: append a quick
                // fire/clear burst after the initial alert.
                if profile.oversensitive
                    && rng::uniform(seed, 98, strategy.id().0, hour ^ u64::from(k)) < 0.35
                {
                    let burst = 2 + rng::hash3(seed, 99, strategy.id().0, hour) % 4;
                    let mut t = raised_at;
                    for b in 0..burst {
                        t = t.saturating_add(SimDuration::from_secs(
                            120 + rng::hash3(seed, 100, b, t.as_secs()) % 180,
                        ));
                        if !scenario.range.contains(t) {
                            break;
                        }
                        let mut toggled = make_statistical_alert(
                            seed,
                            &self.topology,
                            strategy,
                            ms,
                            t,
                            generated,
                            shape.tenants,
                            &mut scratch,
                        );
                        toggled
                            .clear(
                                t.saturating_add(SimDuration::from_secs(
                                    20 + rng::hash3(seed, 101, b, t.as_secs()) % 120,
                                )),
                                Clearance::Auto,
                            )
                            .expect("fresh alert is clearable");
                        pending.push(toggled);
                        generated += 1;
                    }
                }
            }
        }
        self.pending = pending;
        self.generated = generated;
        self.scratch = scratch;
    }
}

/// Statistical engine, batch form: drains a [`StatisticalStream`] over
/// the whole range and appends its planned ground-truth faults to
/// `faults`. Kept as the [`Scenario::run`] entry point.
pub(crate) fn statistical_alerts(
    scenario: &Scenario,
    topology: &Topology,
    catalog: &StrategyCatalog,
    faults: &mut crate::faults::FaultPlan,
) -> Vec<Alert> {
    let mut stream =
        StatisticalStream::with_world(scenario.clone(), topology.clone(), catalog.clone());
    for event in stream.planned_faults().to_vec() {
        faults.push(event);
    }
    let mut alerts = Vec::new();
    while let Some(batch) = stream.next_hour() {
        alerts.extend(batch);
    }
    alerts
}

#[allow(clippy::too_many_arguments)]
fn make_statistical_alert(
    seed: u64,
    topology: &Topology,
    strategy: &alertops_model::AlertStrategy,
    ms: &Microservice,
    raised_at: SimTime,
    entropy: u64,
    tenants: u64,
    scratch: &mut String,
) -> Alert {
    use std::fmt::Write;
    let vm = rng::hash3(seed, 102, entropy, raised_at.as_secs()) % 64;
    // Render the instance name into the reused buffer and intern it:
    // the instance vocabulary is bounded (64 VM slots per tenant
    // slice), so after warm-up this allocates nothing.
    scratch.clear();
    if tenants > 1 {
        let _ = write!(scratch, "t{}-vm-{}", strategy.id().0 % tenants, vm);
    } else {
        let _ = write!(scratch, "vm-{vm}");
    }
    let instance = alertops_model::intern(scratch);
    let service = topology
        .service_name_interned_of(ms.id)
        .cloned()
        .unwrap_or_default();
    Alert::builder(AlertId(0), strategy.id())
        .title(strategy.title_template_interned().clone())
        .severity(strategy.severity())
        .service(service)
        .microservice(ms.id)
        .location(Location::new(ms.region.clone(), ms.dc.clone()).with_instance(instance))
        .raised_at(raised_at)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{mini_study, soak, soak_smoke};

    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn digest(alerts: &[Alert]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for a in alerts {
            fnv(&mut h, &a.id().0.to_le_bytes());
            fnv(&mut h, &a.strategy().0.to_le_bytes());
            fnv(&mut h, &a.raised_at().as_secs().to_le_bytes());
            fnv(&mut h, a.location().instance().unwrap_or("").as_bytes());
        }
        h
    }

    /// The neutral-shape stream must reproduce the pre-refactor batch
    /// engine bit for bit: lengths and digests pinned from the legacy
    /// implementation (id, strategy, raised_at, instance per alert).
    #[test]
    fn neutral_shape_reproduces_the_legacy_stream() {
        for (seed, len, want) in [
            (3u64, 10596usize, 0x971f_0487_9cd9_424cu64),
            (5, 10392, 0xce72_74d5_26eb_ceeb),
            (2022, 10526, 0xe9e8_b99a_3aad_6bd5),
        ] {
            let out = mini_study(seed).run();
            assert_eq!(out.alerts.len(), len, "seed {seed} length drifted");
            assert_eq!(
                digest(&out.alerts),
                want,
                "seed {seed} stream drifted from the legacy engine"
            );
        }
    }

    /// Hour-at-a-time draining equals the batch drain on the same
    /// scenario: ids dense, order identical.
    #[test]
    fn stream_drain_matches_batch_run() {
        let scenario = mini_study(3);
        let out = scenario.run();
        let mut stream = StatisticalStream::new(&scenario);
        let mut streamed = Vec::new();
        while let Some(batch) = stream.next_hour() {
            streamed.extend(batch);
        }
        assert_eq!(streamed.len(), out.alerts.len());
        for (s, b) in streamed.iter().zip(out.alerts.iter()) {
            assert_eq!(s.id(), b.id());
            assert_eq!(s.strategy(), b.strategy());
            assert_eq!(s.raised_at(), b.raised_at());
            assert_eq!(s.location(), b.location());
        }
    }

    /// Window draining is just a re-chunking of hour draining.
    #[test]
    fn window_drain_is_a_rechunking() {
        let scenario = soak_smoke(7);
        let mut by_hour = StatisticalStream::new(&scenario);
        let mut a = Vec::new();
        while let Some(batch) = by_hour.next_hour() {
            a.extend(batch);
        }
        let mut by_window = StatisticalStream::new(&scenario);
        let mut b = Vec::new();
        while let Some(window) = by_window.next_window(5) {
            b.extend(window);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn soak_scenarios_are_seed_replayable() {
        let mut a = StatisticalStream::new(&soak_smoke(11));
        let mut b = StatisticalStream::new(&soak_smoke(11));
        let wa = a.next_window(8).expect("smoke generates alerts");
        let wb = b.next_window(8).expect("smoke generates alerts");
        assert_eq!(wa, wb);
        assert!(wa.len() > 50, "too few alerts: {}", wa.len());
        let wc = StatisticalStream::new(&soak_smoke(12))
            .next_window(8)
            .expect("smoke generates alerts");
        assert_ne!(wa, wc, "different seeds should diverge");
    }

    /// The diurnal curve shows up as a peak-vs-trough volume ratio.
    #[test]
    fn diurnal_curve_shapes_hourly_volume() {
        let scenario = soak_smoke(5);
        let shape = &scenario.load;
        assert!(shape.diurnal_amplitude > 0.0);
        let mut stream = StatisticalStream::new(&scenario);
        let mut by_hour_of_day = [0usize; 24];
        while let Some(batch) = stream.next_hour() {
            for a in batch {
                by_hour_of_day[(a.raised_at().hour_bucket() % 24) as usize] += 1;
            }
        }
        let peak = by_hour_of_day[shape.diurnal_peak_hour as usize];
        let trough = by_hour_of_day[((shape.diurnal_peak_hour + 12) % 24) as usize];
        assert!(
            peak > trough,
            "peak hour ({peak}) should out-produce the trough ({trough})"
        );
    }

    /// Multi-tenant catalogs stripe tenant tags into instance labels.
    #[test]
    fn tenant_labels_stripe_the_catalog() {
        let scenario = soak_smoke(5);
        assert!(scenario.load.tenants > 1);
        let mut stream = StatisticalStream::new(&scenario);
        let window = stream.next_window(6).expect("smoke generates alerts");
        let mut tenants_seen = HashSet::new();
        for a in &window {
            let instance = a.location().instance().expect("instance label");
            assert!(instance.starts_with('t'), "tenant tag missing: {instance}");
            let tag: String = instance[1..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            tenants_seen.insert(tag);
        }
        assert!(
            tenants_seen.len() > 1,
            "expected multiple tenants, saw {tenants_seen:?}"
        );
    }

    /// Deploy waves and gray cascades land ground-truth faults.
    #[test]
    fn shaped_schedules_plan_ground_truth_faults() {
        let stream = StatisticalStream::new(&soak(5));
        let kinds: Vec<FaultKind> = stream.planned_faults().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FaultKind::Transient), "no deploy faults");
        assert!(
            kinds.contains(&FaultKind::GrayMemoryLeak),
            "no gray-cascade faults"
        );
    }
}
