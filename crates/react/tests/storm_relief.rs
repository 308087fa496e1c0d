//! End-to-end: the reaction pipeline must deliver large volume reduction
//! on simulated storms without suppressing incident-relevant alerts —
//! the measurable counterpart of the paper's Fig. 2(c) effectiveness
//! question.

use alertops_model::{Severity, StrategyKind};
use alertops_react::blocking::{AlertBlocker, BlockRule};
use alertops_react::correlation::{AlertCorrelator, StrategyDependencies};
use alertops_react::{EmergingAlertDetector, EmergingConfig, ReactionPipeline};
use alertops_sim::scenarios;

/// Builds the pipeline and blocker an OCE team would configure from the
/// catalog: block the known-noisy strategies, aggregate, correlate by
/// topology.
fn configured_pipeline(out: &alertops_sim::SimOutput) -> (ReactionPipeline, AlertBlocker) {
    let mut blocker = AlertBlocker::new();
    for strategy in out.catalog.strategies() {
        let profile = out.catalog.profile(strategy.id());
        if profile.chatty || profile.oversensitive {
            blocker.add_rule(BlockRule::for_strategy(
                format!("mute {}", strategy.id()),
                strategy.id(),
            ));
        }
    }
    // Strategy dependencies: probe-down of a callee triggers alerts of
    // callers; here we derive rules from the topology as the paper's
    // OCEs derive them from architecture documents.
    let graph = out.topology.dependency_graph();
    let mut deps = StrategyDependencies::new();
    for source in out.catalog.strategies() {
        if !matches!(source.kind(), StrategyKind::Probe(_)) {
            continue;
        }
        for derived in out.catalog.strategies() {
            if out
                .topology
                .dependencies_of(derived.microservice())
                .contains(&source.microservice())
            {
                deps.add_trigger(source.id(), derived.id());
            }
        }
    }
    let pipeline = ReactionPipeline::new().with_correlator(
        AlertCorrelator::new()
            .with_strategy_dependencies(deps)
            .with_topology(graph),
    );
    (pipeline, blocker)
}

#[test]
fn pipeline_reduces_storm_volume_substantially() {
    let out = scenarios::mini_study(21).run();
    let (pipeline, blocker) = configured_pipeline(&out);
    let report = pipeline.run(&out.alerts, &blocker);
    assert!(
        report.reduction > 0.6,
        "pipeline reduced only {:.0}%",
        report.reduction * 100.0
    );
    // Monotone shrinkage.
    let volumes: Vec<usize> = report.stages.iter().map(|s| s.remaining).collect();
    for w in volumes.windows(2) {
        assert!(w[1] <= w[0]);
    }
}

#[test]
fn blocking_targets_only_noise_strategies() {
    let out = scenarios::mini_study(21).run();
    let mut blocker = AlertBlocker::new();
    for strategy in out.catalog.strategies() {
        let profile = out.catalog.profile(strategy.id());
        if profile.chatty || profile.oversensitive {
            blocker.add_rule(BlockRule::for_strategy("mute", strategy.id()));
        }
    }
    let outcome = blocker.apply(&out.alerts);
    assert!(!outcome.blocked.is_empty());
    // Safety: no alert from a clean or merely mis-titled strategy is
    // ever suppressed — blocking only eats the noise it was aimed at.
    for alert in &outcome.blocked {
        let profile = out.catalog.profile(alert.strategy());
        assert!(
            profile.chatty || profile.oversensitive,
            "blocked an alert of non-noisy {}",
            alert.strategy()
        );
    }
    // Every trustworthy (clean-strategy) major+ alert survives.
    let clean_major_total = out
        .alerts
        .iter()
        .filter(|a| out.catalog.profile(a.strategy()).is_clean() && a.severity() >= Severity::Major)
        .count();
    let clean_major_passed = outcome
        .passed
        .iter()
        .filter(|a| out.catalog.profile(a.strategy()).is_clean() && a.severity() >= Severity::Major)
        .count();
    assert_eq!(clean_major_passed, clean_major_total);
}

#[test]
fn emerging_detection_runs_over_study_stream() {
    let out = scenarios::mini_study(21).run();
    // Use a manageable slice (first simulated day).
    let day1: Vec<_> = out
        .alerts
        .iter()
        .filter(|a| a.raised_at().as_secs() < 24 * 3_600)
        .cloned()
        .collect();
    let mut detector = EmergingAlertDetector::new(EmergingConfig {
        num_topics: 5,
        passes_per_window: 8,
        ..EmergingConfig::default()
    });
    let reports = detector.run(&day1);
    assert!(!reports.is_empty());
    // Flagged ids must exist in the window's input.
    let all_ids: std::collections::BTreeSet<_> = day1.iter().map(|a| a.id()).collect();
    for report in &reports {
        for id in &report.emerging_alerts {
            assert!(all_ids.contains(id));
        }
    }
}
