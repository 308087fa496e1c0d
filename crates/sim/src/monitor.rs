//! The monitoring system: strategy evaluation and alert emission.
//!
//! "The cloud monitoring system will continuously detect anomalies and
//! generate system reliability alerts according to the alert strategies"
//! (§II-B3). This module walks simulated time in fixed ticks, evaluates
//! every strategy of the catalog against the telemetry, and emits
//! [`Alert`]s with the full lifecycle the paper describes: debounce
//! (consecutive samples), per-strategy cooldown, and automatic clearance
//! for probe/metric alerts once the condition subsides (§II-B4).

use serde::{Deserialize, Serialize};

use alertops_model::{
    Alert, AlertId, Clearance, Location, SimDuration, SimTime, StrategyKind, TimeRange,
};

use crate::rng;
use crate::strategies::StrategyCatalog;
use crate::telemetry::Telemetry;

/// Configuration for [`MonitoringSystem`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Evaluation period; every strategy is checked once per tick.
    pub tick: SimDuration,
    /// The simulated interval to monitor.
    pub range: TimeRange,
    /// Seed for cosmetic randomness (instance names).
    pub seed: u64,
}

/// Per-strategy evaluation state carried across ticks.
#[derive(Debug, Clone, Default)]
struct StrategyState {
    /// Consecutive ticks the metric condition held.
    consecutive: u32,
    /// Index into the output vector of the currently active alert, if any
    /// (probe/metric only — log alerts are not auto-tracked).
    active: Option<usize>,
    /// Last time this strategy fired.
    last_fire: Option<SimTime>,
    /// First tick at which the probe became unresponsive.
    probe_down_since: Option<SimTime>,
}

/// The monitoring system. Construct once, [`run`](Self::run) to produce
/// the alert stream of the configured interval.
#[derive(Debug)]
pub struct MonitoringSystem<'a> {
    telemetry: Telemetry<'a>,
    catalog: &'a StrategyCatalog,
    config: MonitorConfig,
}

impl<'a> MonitoringSystem<'a> {
    /// Creates a monitoring system over telemetry and a strategy catalog.
    ///
    /// # Panics
    ///
    /// Panics if the tick is zero.
    #[must_use]
    pub fn new(
        telemetry: Telemetry<'a>,
        catalog: &'a StrategyCatalog,
        config: MonitorConfig,
    ) -> Self {
        assert!(!config.tick.is_zero(), "tick must be positive");
        Self {
            telemetry,
            catalog,
            config,
        }
    }

    /// Runs the simulation and returns all alerts raised in the range,
    /// sorted by raise time (ties broken by strategy id), with ids
    /// assigned in that order.
    ///
    /// Probe and metric alerts whose condition subsides inside the range
    /// are automatically cleared; alerts still firing at the end of the
    /// range stay [`Active`](alertops_model::AlertState::Active). Log
    /// alerts are never auto-cleared (the OCE model clears them).
    #[must_use]
    pub fn run(&self) -> Vec<Alert> {
        let mut states: Vec<StrategyState> = vec![StrategyState::default(); self.catalog.len()];
        // (raise_time, strategy_ix) plus lifecycle metadata, resolved to
        // final `Alert`s at the end.
        let mut raised: Vec<Alert> = Vec::new();

        let start = self.config.range.start();
        let end = self.config.range.end();
        let tick = self.config.tick;
        let mut now = start;
        while now < end {
            for (ix, strategy) in self.catalog.strategies().iter().enumerate() {
                let state = &mut states[ix];
                let ms = strategy.microservice();
                match strategy.kind() {
                    StrategyKind::Metric(rule) => {
                        let value = self.telemetry.metric(ms, rule.metric, now);
                        let firing = rule.op.triggers(value, rule.threshold);
                        if firing {
                            state.consecutive = state.consecutive.saturating_add(1);
                        } else {
                            state.consecutive = 0;
                        }
                        if let Some(active_ix) = state.active {
                            if !firing {
                                // Condition subsided: automatic clearance.
                                raised[active_ix]
                                    .clear(now, Clearance::Auto)
                                    .expect("active alert is clearable");
                                state.active = None;
                            }
                        } else if firing
                            && state.consecutive >= rule.consecutive_samples
                            && self.cooldown_passed(strategy.cooldown(), state.last_fire, now)
                        {
                            state.last_fire = Some(now);
                            state.active = Some(raised.len());
                            raised.push(self.make_alert(ix, now));
                        }
                    }
                    StrategyKind::Probe(rule) => {
                        let responsive = self.telemetry.probe_responsive(ms, now);
                        if responsive {
                            state.probe_down_since = None;
                            if let Some(active_ix) = state.active {
                                raised[active_ix]
                                    .clear(now, Clearance::Auto)
                                    .expect("active alert is clearable");
                                state.active = None;
                            }
                        } else {
                            let since = *state.probe_down_since.get_or_insert(now);
                            let down_for = now.duration_since(since);
                            if state.active.is_none()
                                && down_for >= rule.no_response_timeout
                                && self.cooldown_passed(strategy.cooldown(), state.last_fire, now)
                            {
                                state.last_fire = Some(now);
                                state.active = Some(raised.len());
                                raised.push(self.make_alert(ix, now));
                            }
                        }
                    }
                    StrategyKind::Log(rule) => {
                        let window = TimeRange::new(
                            now.checked_sub(rule.window).unwrap_or(SimTime::EPOCH),
                            now,
                        );
                        // The telemetry's error stream stands in for all
                        // keyword-bearing lines; chatty WARN rules with
                        // min_count 1 catch its baseline chatter.
                        let count = self.telemetry.error_log_count(ms, window);
                        if count >= rule.min_count
                            && self.cooldown_passed(strategy.cooldown(), state.last_fire, now)
                        {
                            state.last_fire = Some(now);
                            raised.push(self.make_alert(ix, now));
                        }
                    }
                }
            }
            now += tick;
        }

        // Sort by (raise time, strategy) and re-assign dense ids.
        raised.sort_by_key(|a| (a.raised_at(), a.strategy()));
        raised
            .into_iter()
            .enumerate()
            .map(|(i, a)| a.with_id(AlertId(i as u64)))
            .collect()
    }

    fn cooldown_passed(
        &self,
        cooldown: SimDuration,
        last_fire: Option<SimTime>,
        now: SimTime,
    ) -> bool {
        last_fire.is_none_or(|t| now.duration_since(t) >= cooldown)
    }

    fn make_alert(&self, strategy_ix: usize, now: SimTime) -> Alert {
        let strategy = &self.catalog.strategies()[strategy_ix];
        let ms_id = strategy.microservice();
        let topo = self.telemetry.topology();
        let (region, dc) = topo.microservice(ms_id).map_or_else(
            || ("unknown".into(), "dc-0".into()),
            |m| (m.region.clone(), m.dc.clone()),
        );
        let instance = format!(
            "vm-{}",
            rng::hash3(self.config.seed, 61, ms_id.0, now.as_secs()) % 64
        );
        Alert::builder(AlertId(0), strategy.id())
            .title(strategy.title_template())
            .severity(strategy.severity())
            .service(topo.service_name_of(ms_id))
            .microservice(ms_id)
            .location(Location::new(region, dc).with_instance(instance))
            .raised_at(now)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultKind, FaultPlan};
    use crate::strategies::StrategyCatalogConfig;
    use crate::topology::{Topology, TopologyConfig};
    use alertops_model::{AlertState, MicroserviceId};

    impl MonitorConfig {
        /// A config monitoring `[0, hours)` with a 60 s tick; the tests
        /// here and in `ocesim` use it.
        pub(crate) fn for_hours(hours: u64) -> Self {
            Self {
                tick: SimDuration::from_secs(60),
                range: TimeRange::new(SimTime::EPOCH, SimTime::from_hours(hours)),
                seed: 3,
            }
        }
    }

    fn small_world() -> (Topology, StrategyCatalog) {
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

    fn run_with(plan: &FaultPlan, hours: u64) -> (Vec<Alert>, StrategyCatalog) {
        let (topo, catalog) = small_world();
        let telemetry = Telemetry::new(&topo, plan, 9);
        let monitor = MonitoringSystem::new(telemetry, &catalog, MonitorConfig::for_hours(hours));
        (monitor.run(), catalog)
    }

    #[test]
    fn quiet_system_still_produces_noise_alerts() {
        // Over-sensitive and chatty strategies fire even with no faults —
        // that is exactly anti-patterns A4/A5.
        let (alerts, catalog) = run_with(&FaultPlan::new(), 6);
        assert!(!alerts.is_empty(), "expected noise alerts");
        let noisy_strategies: std::collections::BTreeSet<_> = alerts
            .iter()
            .map(Alert::strategy)
            .filter(|&id| {
                let p = catalog.profile(id);
                p.oversensitive || p.chatty
            })
            .collect();
        assert!(
            !noisy_strategies.is_empty(),
            "noise should come from injected noisy strategies"
        );
    }

    #[test]
    fn sustained_fault_raises_alerts_on_target() {
        let target = MicroserviceId(2);
        let plan: FaultPlan = vec![FaultEvent {
            microservice: target,
            kind: FaultKind::Sustained,
            start: SimTime::from_hours(2),
            duration: SimDuration::from_hours(1),
            magnitude: 0.9,
            cascade_origin: None,
        }]
        .into_iter()
        .collect();
        let (alerts, _) = run_with(&plan, 4);
        let on_target: Vec<&Alert> = alerts
            .iter()
            .filter(|a| a.microservice() == target)
            .filter(|a| a.raised_at() >= SimTime::from_hours(2))
            .collect();
        assert!(
            !on_target.is_empty(),
            "no alerts on the faulted microservice"
        );
    }

    #[test]
    fn alerts_are_sorted_with_dense_ids() {
        let (alerts, _) = run_with(&FaultPlan::new(), 4);
        for (i, alert) in alerts.iter().enumerate() {
            assert_eq!(alert.id(), AlertId(i as u64));
        }
        for pair in alerts.windows(2) {
            assert!(pair[0].raised_at() <= pair[1].raised_at());
        }
    }

    #[test]
    fn cleared_alerts_respect_lifecycle() {
        let (alerts, _) = run_with(&FaultPlan::new(), 6);
        for alert in &alerts {
            if let AlertState::Cleared { at, by } = alert.state() {
                assert!(at >= alert.raised_at());
                assert_eq!(by, Clearance::Auto);
            }
        }
        // At least some metric alerts auto-clear in 6 quiet hours.
        assert!(
            alerts.iter().any(|a| !a.is_active()),
            "expected some auto-cleared alerts"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let plan = FaultPlan::new();
        let (a, _) = run_with(&plan, 3);
        let (b, _) = run_with(&plan, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn cooldown_limits_fire_rate() {
        let (alerts, catalog) = run_with(&FaultPlan::new(), 6);
        // For every strategy, consecutive raises must be >= cooldown apart.
        use std::collections::HashMap;
        let mut last: HashMap<_, SimTime> = HashMap::new();
        for alert in &alerts {
            let cooldown = catalog
                .strategy(alert.strategy())
                .expect("alert references a known strategy")
                .cooldown();
            if let Some(&prev) = last.get(&alert.strategy()) {
                assert!(
                    alert.raised_at().duration_since(prev) >= cooldown,
                    "{} re-fired within cooldown",
                    alert.strategy()
                );
            }
            last.insert(alert.strategy(), alert.raised_at());
        }
    }

    #[test]
    fn probe_alert_fires_and_clears_on_hard_fault() {
        let (topo, catalog) = small_world();
        // Fault the microservice of some probe strategy.
        let probe_strategy = catalog
            .strategies()
            .iter()
            .find(|s| matches!(s.kind(), StrategyKind::Probe(_)))
            .unwrap();
        let target = probe_strategy.microservice();
        let plan: FaultPlan = vec![FaultEvent {
            microservice: target,
            kind: FaultKind::Sustained,
            start: SimTime::from_hours(1),
            duration: SimDuration::from_mins(30),
            magnitude: 0.9,
            cascade_origin: None,
        }]
        .into_iter()
        .collect();
        let telemetry = Telemetry::new(&topo, &plan, 9);
        let monitor = MonitoringSystem::new(telemetry, &catalog, MonitorConfig::for_hours(3));
        let alerts = monitor.run();
        let probe_alerts: Vec<&Alert> = alerts
            .iter()
            .filter(|a| a.strategy() == probe_strategy.id())
            .collect();
        assert_eq!(probe_alerts.len(), 1, "expected exactly one probe alert");
        let alert = probe_alerts[0];
        assert!(alert.raised_at() >= SimTime::from_hours(1));
        assert_eq!(alert.clearance(), Some(Clearance::Auto));
        assert!(
            alert.cleared_at().unwrap()
                <= SimTime::from_secs(SimTime::from_hours(1).as_secs() + 31 * 60)
        );
    }

    #[test]
    fn alert_titles_come_from_strategy_templates() {
        let (alerts, catalog) = run_with(&FaultPlan::new(), 2);
        for alert in alerts.iter().take(20) {
            let strategy = catalog.strategy(alert.strategy()).unwrap();
            assert_eq!(alert.title(), strategy.title_template());
            assert_eq!(alert.severity(), strategy.severity());
        }
    }

    #[test]
    fn locations_are_instance_level() {
        let (alerts, _) = run_with(&FaultPlan::new(), 2);
        assert!(alerts.iter().all(|a| a.location().is_instance_level()));
    }
}
