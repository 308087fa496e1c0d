//! The full Fig. 6 loop, closed: detect anti-patterns on a simulated
//! world, auto-remediate the mechanically fixable strategies, re-run the
//! *same* world against the corrected catalog, and measure that the
//! noise is gone while real fault coverage survives.

use std::collections::BTreeSet;

use alertops::core::prelude::*;
use alertops::core::{apply_fixes, suggest_fixes};
use alertops::model::StrategyKind;
use alertops::sim::telemetry::Telemetry;
use alertops::sim::{scenarios, MonitorConfig, MonitoringSystem, StrategyCatalog};

#[test]
fn remediation_cuts_noise_without_blinding_the_monitor() {
    // 1. Simulate and detect.
    let scenario = scenarios::quickstart(7);
    let out = scenario.run();
    let governor = AlertGovernor::new(out.catalog.strategies().to_vec(), GovernorConfig::default())
        .with_dependency_graph(out.topology.dependency_graph());
    let report = governor.detect(&out.alerts, &out.incidents);

    // 2. Suggest and apply fixes.
    let graph = out.topology.dependency_graph();
    let input = DetectionInput::new(out.catalog.strategies())
        .with_alerts(&out.alerts)
        .with_incidents(&out.incidents)
        .with_graph(&graph);
    let fixes = suggest_fixes(out.catalog.strategies(), &report, &input);
    assert!(!fixes.is_empty(), "a noisy world should yield fixes");
    let mechanical: BTreeSet<StrategyId> = fixes
        .iter()
        .filter(|f| f.revised.is_some())
        .map(|f| f.strategy)
        .collect();
    assert!(!mechanical.is_empty());
    let fixed_strategies = apply_fixes(out.catalog.strategies(), &fixes);
    assert_eq!(fixed_strategies.len(), out.catalog.strategies().len());

    // 3. Re-run the IDENTICAL world (same topology, faults, seeds)
    //    against the corrected catalog.
    let fixed_catalog = StrategyCatalog::from_strategies(fixed_strategies);
    let telemetry = Telemetry::new(&out.topology, &out.faults, scenario.seed ^ 0x7E1E);
    let rerun = MonitoringSystem::new(
        telemetry,
        &fixed_catalog,
        MonitorConfig {
            tick: scenario.tick,
            range: scenario.range,
            seed: scenario.seed ^ 0x0CE,
        },
    )
    .run();

    // 4. Alerts from the fixed strategies must drop sharply.
    let count_from = |alerts: &[Alert], ids: &BTreeSet<StrategyId>| {
        alerts
            .iter()
            .filter(|a| ids.contains(&a.strategy()))
            .count()
    };
    let before = count_from(&out.alerts, &mechanical);
    let after = count_from(&rerun, &mechanical);
    assert!(
        after * 2 < before,
        "remediation did not halve the noise: {before} -> {after}"
    );

    // 5. ...while the rest of the catalog keeps firing comparably (the
    //    monitor is not blinded).
    let others: BTreeSet<StrategyId> = out
        .catalog
        .strategies()
        .iter()
        .map(|s| s.id())
        .filter(|id| !mechanical.contains(id))
        .collect();
    let before_others = count_from(&out.alerts, &others);
    let after_others = count_from(&rerun, &others);
    assert!(
        after_others * 3 >= before_others,
        "remediation broke unrelated strategies: {before_others} -> {after_others}"
    );

    // 6. Re-detection on the remediated world finds fewer A4/A5 flags.
    let input = DetectionInput::new(fixed_catalog.strategies()).with_alerts(&rerun);
    let re_report = AntiPatternReport::run_default(&input);
    let noisy_before = report.flagged(AntiPattern::TransientToggling).len()
        + report.flagged(AntiPattern::Repeating).len();
    let noisy_after = re_report.flagged(AntiPattern::TransientToggling).len()
        + re_report.flagged(AntiPattern::Repeating).len();
    assert!(
        noisy_after < noisy_before,
        "A4/A5 flags did not shrink: {noisy_before} -> {noisy_after}"
    );
}

#[test]
fn severity_fixes_move_toward_evidence() {
    let out = scenarios::mini_study(7).run();
    let graph = out.topology.dependency_graph();
    let input = DetectionInput::new(out.catalog.strategies())
        .with_alerts(&out.alerts)
        .with_incidents(&out.incidents)
        .with_graph(&graph);
    let report = AntiPatternReport::run_default(&input);
    let fixes = suggest_fixes(out.catalog.strategies(), &report, &input);
    let severity_fixes: Vec<_> = fixes
        .iter()
        .filter_map(|f| match f.action {
            alertops::core::FixAction::AdjustSeverity { from, to } => Some((f.strategy, from, to)),
            _ => None,
        })
        .collect();
    if severity_fixes.is_empty() {
        return; // nothing misleading had enough evidence this seed
    }
    for (strategy, from, to) in severity_fixes {
        assert_ne!(from, to);
        // The revised strategy actually carries the new severity.
        let fix = fixes
            .iter()
            .find(|f| {
                f.strategy == strategy
                    && matches!(f.action, alertops::core::FixAction::AdjustSeverity { .. })
            })
            .unwrap();
        assert_eq!(fix.revised.as_ref().unwrap().severity(), to);
    }
}

#[test]
fn debounce_fixes_only_touch_metric_rules() {
    let out = scenarios::quickstart(9).run();
    let graph = out.topology.dependency_graph();
    let input = DetectionInput::new(out.catalog.strategies())
        .with_alerts(&out.alerts)
        .with_incidents(&out.incidents)
        .with_graph(&graph);
    let report = AntiPatternReport::run_default(&input);
    let fixes = suggest_fixes(out.catalog.strategies(), &report, &input);
    for fix in &fixes {
        if matches!(fix.action, alertops::core::FixAction::RaiseDebounce { .. }) {
            let revised = fix.revised.as_ref().unwrap();
            assert!(matches!(revised.kind(), StrategyKind::Metric(_)));
        }
    }
}
