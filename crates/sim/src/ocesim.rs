//! The OCE model: alert processing times, manual clearance, incidents.
//!
//! The paper's candidate mining for individual anti-patterns keys on the
//! *average processing time per strategy* (the top 30% slowest become
//! candidates). This module supplies the causal link that makes that
//! mining meaningful: anti-patterns inflate processing time.
//!
//! * A vague title (A1) denies the OCE "intuitive judgment at first
//!   sight" → large multiplier.
//! * A misleading severity (A2) mis-prioritizes the alert → delay.
//! * An improper rule (A3) sends the OCE chasing infrastructure noise →
//!   delay.
//! * An incomplete SOP gives "limited help" (Finding 2) → delay.
//! * Storm congestion (more alerts than the team can absorb in an hour)
//!   queues everything → global slowdown.
//! * Experienced OCEs are faster ([`ExperienceBand::speed_factor`]).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use alertops_model::{
    Alert, Clearance, ExperienceBand, Incident, IncidentId, Oce, OceId, SimDuration,
};

use crate::faults::FaultPlan;
use crate::rng;
use crate::strategies::StrategyCatalog;
use crate::topology::Topology;

/// An on-call team.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OceTeam {
    oces: Vec<Oce>,
}

impl OceTeam {
    /// The 18-engineer team with the paper's experience demographics:
    /// 10 with >3 years, 3 with 2–3, 2 with 1–2, and 3 with <1.
    #[must_use]
    pub fn survey_team() -> Self {
        let mut oces = Vec::new();
        let mut id = 0u64;
        let push = |band: ExperienceBand, n: usize, oces: &mut Vec<Oce>, id: &mut u64| {
            for _ in 0..n {
                oces.push(Oce::new(OceId(*id), format!("oce-{id}"), band));
                *id += 1;
            }
        };
        push(ExperienceBand::OverThreeYears, 10, &mut oces, &mut id);
        push(ExperienceBand::TwoToThreeYears, 3, &mut oces, &mut id);
        push(ExperienceBand::OneToTwoYears, 2, &mut oces, &mut id);
        push(ExperienceBand::UnderOneYear, 3, &mut oces, &mut id);
        Self { oces }
    }

    /// The team members.
    #[must_use]
    pub fn oces(&self) -> &[Oce] {
        &self.oces
    }

    /// Team size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.oces.len()
    }

    /// Whether the team is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.oces.is_empty()
    }
}

impl Default for OceTeam {
    fn default() -> Self {
        Self::survey_team()
    }
}

/// The processing-time model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessingModel {
    /// Baseline processing time of a clean alert by a senior OCE.
    pub base: SimDuration,
    /// Hourly per-region alert count beyond which congestion kicks in
    /// (the paper estimates an OCE team absorbs ~200 alerts/hour).
    pub congestion_capacity: usize,
    /// Random jitter sigma (lognormal).
    pub jitter_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProcessingModel {
    fn default() -> Self {
        Self {
            base: SimDuration::from_mins(5),
            congestion_capacity: 200,
            jitter_sigma: 0.3,
            seed: 4,
        }
    }
}

impl ProcessingModel {
    /// Annotates every alert with a processing time and manually clears
    /// the still-active ones at `raised_at + processing_time` (the OCE
    /// "fix the problems, and clear the alert" loop of Fig. 1).
    ///
    /// Alerts already cleared automatically keep their clearance but
    /// still get a processing time if an OCE would have looked at them
    /// (non-transient ones).
    pub fn process(&self, alerts: &mut [Alert], catalog: &StrategyCatalog, team: &OceTeam) {
        assert!(!team.is_empty(), "cannot process alerts with an empty team");
        // Congestion: count alerts per (region, hour).
        let mut per_region_hour: HashMap<(String, u64), usize> = HashMap::new();
        for alert in alerts.iter() {
            *per_region_hour
                .entry((
                    alert.location().region().as_str().to_owned(),
                    alert.hour_bucket(),
                ))
                .or_insert(0) += 1;
        }

        for (ix, alert) in alerts.iter_mut().enumerate() {
            let profile = catalog.profile(alert.strategy());
            let sop_completeness = catalog
                .sop(alert.strategy())
                .map_or(0.0, alertops_model::Sop::completeness);

            let mut mins = self.base.as_secs() as f64 / 60.0;
            if profile.vague_title {
                mins *= 2.2;
            }
            if profile.misleading_severity {
                mins *= 1.6;
            }
            if profile.improper_rule {
                mins *= 1.8;
            }
            if sop_completeness < 0.5 {
                mins *= 1.5;
            }
            // Transient/toggling alerts are individually quick but the
            // interruption itself costs a floor of ~1 minute.
            if profile.oversensitive || profile.chatty {
                mins = (mins * 0.6).max(1.0);
            }

            // Congestion multiplier.
            let key = (
                alert.location().region().as_str().to_owned(),
                alert.hour_bucket(),
            );
            let volume = per_region_hour.get(&key).copied().unwrap_or(0);
            if volume > self.congestion_capacity {
                mins *= 1.0 + (volume as f64 / self.congestion_capacity as f64).log2();
            }

            // OCE assignment (hash round-robin) and experience factor.
            let oce =
                &team.oces()[(rng::hash3(self.seed, 71, ix as u64, alert.raised_at().as_secs())
                    % team.len() as u64) as usize];
            mins *= oce.experience().speed_factor();

            // Lognormal jitter.
            let jitter = (self.jitter_sigma * rng::std_normal(self.seed, 72, ix as u64, 0)).exp();
            mins *= jitter;

            let processing = SimDuration::from_secs((mins * 60.0).round().max(30.0) as u64);
            alert.record_processing_time(processing);
            if alert.is_active() {
                let clear_at = alert.raised_at() + processing;
                alert
                    .clear(clear_at, Clearance::Manual)
                    .expect("active alert is clearable");
            }
        }
    }
}

/// Derives the incidents implied by the fault plan: every user-visible
/// fault of sufficient magnitude and duration on a *non*-fault-tolerant
/// microservice escalates to a service-level incident, with the alerts
/// raised on that microservice during the fault window linked to it.
///
/// This is the ground truth for QoA *indicativeness*: an alert is
/// indicative iff it co-occurs with (and shares a service with) an
/// incident.
#[must_use]
pub fn derive_incidents(
    topology: &Topology,
    faults: &FaultPlan,
    alerts: &[Alert],
) -> Vec<Incident> {
    let mut incidents = Vec::new();
    let mut next_id = 0u64;
    for fault in faults.events() {
        if !fault.kind.is_user_visible() || fault.magnitude < 0.7 {
            continue;
        }
        if fault.duration < SimDuration::from_mins(10) {
            continue;
        }
        let Some(ms) = topology.microservice(fault.microservice) else {
            continue;
        };
        if ms.fault_tolerant {
            continue;
        }
        // User impact surfaces a few minutes after the fault begins.
        let started = fault.start.saturating_add(SimDuration::from_mins(5));
        let mut incident = Incident::new(
            IncidentId(next_id),
            ms.service,
            alertops_model::Severity::Critical,
            started,
        );
        let window = fault.window();
        for alert in alerts {
            if alert.microservice() == fault.microservice && window.contains(alert.raised_at()) {
                incident.link_alert(alert.id());
            }
        }
        incident.mitigate(window.end());
        incidents.push(incident);
        next_id += 1;
    }
    incidents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultKind};
    use crate::monitor::{MonitorConfig, MonitoringSystem};
    use crate::strategies::StrategyCatalogConfig;
    use crate::telemetry::Telemetry;
    use crate::topology::{Topology, TopologyConfig};
    use alertops_model::{MicroserviceId, SimTime};

    fn world() -> (Topology, StrategyCatalog) {
        let topo = Topology::generate(&TopologyConfig {
            services: 4,
            microservices: 24,
            ..TopologyConfig::default()
        });
        let catalog = StrategyCatalog::generate(
            &topo,
            &StrategyCatalogConfig {
                total_strategies: 240,
                ..StrategyCatalogConfig::default()
            },
        );
        (topo, catalog)
    }

    #[test]
    fn survey_team_matches_paper_demographics() {
        let team = OceTeam::survey_team();
        assert_eq!(team.len(), 18);
        let count = |band| {
            team.oces()
                .iter()
                .filter(|o| o.experience() == band)
                .count()
        };
        assert_eq!(count(ExperienceBand::OverThreeYears), 10);
        assert_eq!(count(ExperienceBand::TwoToThreeYears), 3);
        assert_eq!(count(ExperienceBand::OneToTwoYears), 2);
        assert_eq!(count(ExperienceBand::UnderOneYear), 3);
    }

    #[test]
    fn processing_annotates_every_alert_and_clears_active() {
        let (topo, catalog) = world();
        let plan = FaultPlan::new();
        let telemetry = Telemetry::new(&topo, &plan, 9);
        let mut alerts =
            MonitoringSystem::new(telemetry, &catalog, MonitorConfig::for_hours(4)).run();
        assert!(!alerts.is_empty());
        ProcessingModel::default().process(&mut alerts, &catalog, &OceTeam::survey_team());
        for alert in &alerts {
            assert!(alert.processing_time().is_some());
            assert!(!alert.is_active(), "{} left active", alert.id());
            assert!(alert.cleared_at().unwrap() >= alert.raised_at());
        }
    }

    #[test]
    fn anti_pattern_strategies_take_longer_on_average() {
        let (topo, catalog) = world();
        let plan = FaultPlan::new();
        let telemetry = Telemetry::new(&topo, &plan, 9);
        let mut alerts =
            MonitoringSystem::new(telemetry, &catalog, MonitorConfig::for_hours(8)).run();
        ProcessingModel::default().process(&mut alerts, &catalog, &OceTeam::survey_team());

        // Compare vague-title alerts against fully clean ones.
        let mean = |pred: &dyn Fn(&Alert) -> bool| -> Option<f64> {
            let sel: Vec<f64> = alerts
                .iter()
                .filter(|a| pred(a))
                .filter_map(|a| a.processing_time())
                .map(|d| d.as_mins_f64())
                .collect();
            (!sel.is_empty()).then(|| sel.iter().sum::<f64>() / sel.len() as f64)
        };
        let vague = mean(&|a| catalog.profile(a.strategy()).vague_title);
        let clean = mean(&|a| !catalog.profile(a.strategy()).any());
        if let (Some(vague), Some(clean)) = (vague, clean) {
            assert!(
                vague > clean,
                "vague alerts should be slower: {vague:.1}m vs {clean:.1}m"
            );
        }
    }

    #[test]
    fn processing_is_deterministic() {
        let (topo, catalog) = world();
        let plan = FaultPlan::new();
        let telemetry = Telemetry::new(&topo, &plan, 9);
        let base = MonitoringSystem::new(telemetry, &catalog, MonitorConfig::for_hours(3)).run();
        let mut a = base.clone();
        let mut b = base;
        let model = ProcessingModel::default();
        model.process(&mut a, &catalog, &OceTeam::survey_team());
        model.process(&mut b, &catalog, &OceTeam::survey_team());
        assert_eq!(a, b);
    }

    #[test]
    fn incidents_derive_only_from_hard_faults_on_exposed_microservices() {
        let (topo, catalog) = world();
        let exposed = topo
            .microservices()
            .iter()
            .find(|m| !m.fault_tolerant)
            .unwrap()
            .id;
        let shielded = topo
            .microservices()
            .iter()
            .find(|m| m.fault_tolerant)
            .unwrap()
            .id;
        let mk = |ms: MicroserviceId, kind, magnitude, mins| FaultEvent {
            microservice: ms,
            kind,
            start: SimTime::from_hours(1),
            duration: SimDuration::from_mins(mins),
            magnitude,
            cascade_origin: None,
        };
        let plan: FaultPlan = vec![
            mk(exposed, FaultKind::Sustained, 0.9, 30),  // → incident
            mk(shielded, FaultKind::Sustained, 0.9, 30), // shielded → none
            mk(exposed, FaultKind::Transient, 0.9, 30),  // not user-visible
            mk(exposed, FaultKind::Sustained, 0.3, 30),  // too weak
            mk(exposed, FaultKind::Sustained, 0.9, 5),   // too short
        ]
        .into_iter()
        .collect();
        let telemetry = Telemetry::new(&topo, &plan, 9);
        let alerts = MonitoringSystem::new(telemetry, &catalog, MonitorConfig::for_hours(3)).run();
        let incidents = derive_incidents(&topo, &plan, &alerts);
        assert_eq!(incidents.len(), 1);
        let incident = &incidents[0];
        assert_eq!(
            incident.service(),
            topo.microservice(exposed).unwrap().service
        );
        assert!(!incident.is_open());
        // Linked alerts are on the faulted microservice inside the window.
        for aid in incident.alerts() {
            let alert = alerts.iter().find(|a| a.id() == *aid).unwrap();
            assert_eq!(alert.microservice(), exposed);
        }
    }

    #[test]
    fn congestion_inflates_processing_times() {
        // Two copies of the same alert stream, one with an artificial
        // flood in the same region-hour.
        let (topo, catalog) = world();
        let plan = FaultPlan::new();
        let telemetry = Telemetry::new(&topo, &plan, 9);
        let alerts = MonitoringSystem::new(telemetry, &catalog, MonitorConfig::for_hours(2)).run();
        let model = ProcessingModel {
            congestion_capacity: 1, // everything is congested
            jitter_sigma: 0.0,
            ..ProcessingModel::default()
        };
        let baseline_model = ProcessingModel {
            congestion_capacity: usize::MAX,
            jitter_sigma: 0.0,
            ..ProcessingModel::default()
        };
        let team = OceTeam::survey_team();
        let mut congested = alerts.clone();
        let mut relaxed = alerts;
        model.process(&mut congested, &catalog, &team);
        baseline_model.process(&mut relaxed, &catalog, &team);
        let total = |v: &[Alert]| -> u64 {
            v.iter()
                .filter_map(Alert::processing_time)
                .map(SimDuration::as_secs)
                .sum()
        };
        assert!(total(&congested) > total(&relaxed));
    }
}
