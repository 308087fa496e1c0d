//! The bring-your-own-catalog path: hand-written strategies driven
//! through the real monitoring system, covering rule shapes the
//! generated catalog never produces (Below-threshold metrics, custom
//! keywords, zero-cooldown rules).

use alertops_model::{
    AlertStrategy, Clearance, LogRule, MetricKind, MetricRule, MicroserviceId, ProbeRule,
    ServiceId, Severity, SimDuration, SimTime, StrategyId, StrategyKind, ThresholdOp, TimeRange,
};
use alertops_sim::telemetry::Telemetry;
use alertops_sim::{
    FaultEvent, FaultKind, FaultPlan, MonitorConfig, MonitoringSystem, StrategyCatalog, Topology,
    TopologyConfig,
};

fn world() -> Topology {
    Topology::generate(&TopologyConfig {
        services: 2,
        microservices: 8,
        ..TopologyConfig::default()
    })
}

fn strategy(id: u64, ms: u64, kind: StrategyKind, cooldown_mins: u64) -> AlertStrategy {
    AlertStrategy::builder(StrategyId(id))
        .title_template(format!("custom rule {id}"))
        .severity(Severity::Major)
        .service(ServiceId(0))
        .microservice(MicroserviceId(ms))
        .kind(kind)
        .cooldown(SimDuration::from_mins(cooldown_mins))
        .build()
        .unwrap()
}

#[test]
fn below_threshold_rule_fires_when_traffic_drops() {
    let topo = world();
    // Pick a microservice that is NOT shielded by fault tolerance so the
    // request-rate collapse is guaranteed to surface.
    let target = topo
        .microservices()
        .iter()
        .find(|m| !m.fault_tolerant)
        .expect("some exposed microservice")
        .id;
    // Request rate collapses under a hard sustained fault (the engine
    // halves it at full intensity); a Below rule must catch the drop.
    let catalog = StrategyCatalog::from_strategies(vec![strategy(
        0,
        target.0,
        StrategyKind::Metric(MetricRule {
            metric: MetricKind::RequestRate,
            op: ThresholdOp::Below,
            threshold: 300.0,
            consecutive_samples: 3,
        }),
        30,
    )]);
    let plan: FaultPlan = vec![FaultEvent {
        microservice: target,
        kind: FaultKind::Sustained,
        start: SimTime::from_hours(1),
        duration: SimDuration::from_hours(1),
        magnitude: 0.95,
        cascade_origin: None,
    }]
    .into_iter()
    .collect();
    let telemetry = Telemetry::new(&topo, &plan, 5);
    let alerts = MonitoringSystem::new(
        telemetry,
        &catalog,
        MonitorConfig {
            tick: SimDuration::from_secs(60),
            range: TimeRange::new(SimTime::EPOCH, SimTime::from_hours(3)),
            seed: 1,
        },
    )
    .run();
    assert!(
        !alerts.is_empty(),
        "Below rule never fired despite a 95% sustained fault"
    );
    let first = &alerts[0];
    assert!(first.raised_at() >= SimTime::from_hours(1));
    // Auto-clears once traffic recovers.
    assert_eq!(first.clearance(), Some(Clearance::Auto));
    assert!(first.cleared_at().unwrap() <= SimTime::from_secs(2 * 3_600 + 300));
}

#[test]
fn zero_cooldown_log_rule_fires_every_matching_tick() {
    let topo = world();
    let catalog = StrategyCatalog::from_strategies(vec![strategy(
        0,
        2,
        StrategyKind::Log(LogRule {
            keyword: "ERROR".into(),
            min_count: 1,
            window: SimDuration::from_mins(10),
        }),
        0, // no cooldown: the degenerate config behind A5
    )]);
    let plan: FaultPlan = vec![FaultEvent {
        microservice: MicroserviceId(2),
        kind: FaultKind::Sustained,
        start: SimTime::EPOCH,
        duration: SimDuration::from_hours(1),
        magnitude: 0.9,
        cascade_origin: None,
    }]
    .into_iter()
    .collect();
    let telemetry = Telemetry::new(&topo, &plan, 5);
    let alerts = MonitoringSystem::new(
        telemetry,
        &catalog,
        MonitorConfig {
            tick: SimDuration::from_secs(60),
            range: TimeRange::new(SimTime::EPOCH, SimTime::from_hours(1)),
            seed: 1,
        },
    )
    .run();
    // Under a strong fault, errors flow every window: ~1 alert per tick.
    assert!(
        alerts.len() >= 55,
        "zero-cooldown rule fired only {} times in 60 ticks",
        alerts.len()
    );
}

#[test]
fn custom_probe_rule_respects_timeout() {
    let topo = world();
    let catalog = StrategyCatalog::from_strategies(vec![strategy(
        0,
        1,
        StrategyKind::Probe(ProbeRule {
            no_response_timeout: SimDuration::from_mins(5),
        }),
        30,
    )]);
    let plan: FaultPlan = vec![FaultEvent {
        microservice: MicroserviceId(1),
        kind: FaultKind::Sustained,
        start: SimTime::from_mins(10),
        duration: SimDuration::from_mins(20),
        magnitude: 0.9,
        cascade_origin: None,
    }]
    .into_iter()
    .collect();
    let telemetry = Telemetry::new(&topo, &plan, 5);
    let alerts = MonitoringSystem::new(
        telemetry,
        &catalog,
        MonitorConfig {
            tick: SimDuration::from_secs(60),
            range: TimeRange::new(SimTime::EPOCH, SimTime::from_hours(1)),
            seed: 1,
        },
    )
    .run();
    assert_eq!(alerts.len(), 1, "one down window, one probe alert");
    // Fires only after the 5-minute no-response timeout.
    assert!(alerts[0].raised_at() >= SimTime::from_mins(15));
    assert!(alerts[0].raised_at() <= SimTime::from_mins(17));
}

#[test]
fn from_strategies_defaults_are_clean() {
    let catalog = StrategyCatalog::from_strategies(vec![strategy(
        0,
        0,
        StrategyKind::Probe(ProbeRule {
            no_response_timeout: SimDuration::from_secs(60),
        }),
        10,
    )]);
    assert_eq!(catalog.len(), 1);
    assert!(!catalog.profile(StrategyId(0)).any());
    assert!(catalog.sop(StrategyId(0)).is_some());
    assert!(catalog.injected_ids().is_empty());
    assert!(StrategyCatalog::empty().is_empty());
}

#[test]
#[should_panic(expected = "dense")]
fn from_strategies_rejects_sparse_ids() {
    let _ = StrategyCatalog::from_strategies(vec![strategy(
        5,
        0,
        StrategyKind::Probe(ProbeRule {
            no_response_timeout: SimDuration::from_secs(60),
        }),
        10,
    )]);
}
