//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. the A4 intermittent-interruption threshold;
//! 2. the storm threshold (100/region/hour);
//! 3. the R2 aggregation window;
//! 4. adaptive vs non-adaptive online LDA for emerging detection;
//! 5. the QoA evidence-confidence floor (`QoaScorer::min_evidence`).
//!
//! Run with: `cargo run --release -p alertops-bench --bin ablations`

use alertops_bench::{header, pct, HARNESS_SEED};
use alertops_detect::storm::detect_storms;
use alertops_detect::{
    evaluate_sets, DetectionInput, Detector, StormConfig, TransientTogglingDetector,
};
use alertops_model::{Alert, SimDuration, StrategyId};
use alertops_qoa::QoaScorer;
use alertops_react::{aggregate, EmergingAlertDetector, EmergingConfig};
use alertops_sim::scenarios;
use std::collections::{BTreeSet, HashMap};

fn main() {
    let out = scenarios::mini_study(HARNESS_SEED).run();
    let truth: BTreeSet<StrategyId> = out
        .catalog
        .strategies()
        .iter()
        .map(alertops_model::AlertStrategy::id)
        .filter(|&id| out.catalog.profile(id).oversensitive)
        .collect();

    header("ablation 1: A4 intermittent-interruption threshold");
    println!(
        "  {:<12} {:>8} {:>8} {:>8} {:>8}",
        "threshold", "flagged", "prec", "recall", "f1"
    );
    for mins in [1, 2, 5, 10, 30] {
        let detector = TransientTogglingDetector {
            intermittent_threshold: SimDuration::from_mins(mins),
        };
        let input = DetectionInput::new(out.catalog.strategies()).with_alerts(&out.alerts);
        let flagged: BTreeSet<StrategyId> = detector
            .detect(&input)
            .into_iter()
            .map(|f| f.strategy)
            .collect();
        let score = evaluate_sets(&flagged, &truth);
        println!(
            "  {:<12} {:>8} {:>8.2} {:>8.2} {:>8.2}",
            format!("{mins} min"),
            flagged.len(),
            score.precision,
            score.recall,
            score.f1
        );
    }
    println!("  → the paper-style 5 min threshold sits at the f1 plateau.");

    header("ablation 2: storm threshold (alerts/region/hour)");
    println!(
        "  {:<12} {:>8} {:>14} {:>12}",
        "threshold", "storms", "storm hours", "max len"
    );
    for threshold in [25, 50, 100, 200, 400] {
        let storms = detect_storms(
            &out.alerts,
            &StormConfig {
                hourly_threshold: threshold,
            },
        );
        let hours: usize = storms.iter().map(|s| s.duration_hours()).sum();
        let max_len = storms.iter().map(|s| s.duration_hours()).max().unwrap_or(0);
        println!(
            "  {:<12} {:>8} {:>14} {:>12}",
            threshold,
            storms.len(),
            hours,
            max_len
        );
    }
    println!("  → below ~50 the detector drowns in background; 100 isolates the injected storms.");

    header("ablation 3: R2 aggregation window");
    println!("  {:<12} {:>10} {:>12}", "window", "groups", "reduction");
    for mins in [5, 15, 30, 60, 180] {
        let groups = aggregate(&out.alerts, SimDuration::from_mins(mins));
        println!(
            "  {:<12} {:>10} {:>12}",
            format!("{mins} min"),
            groups.len(),
            pct(alertops_react::reduction_ratio(
                out.alerts.len(),
                groups.len()
            ))
        );
    }
    println!("  → reduction saturates near the default 30 min; beyond that groups span unrelated episodes.");

    header("ablation 4: adaptive vs non-adaptive online LDA (R4)");
    let day1: Vec<_> = out
        .alerts
        .iter()
        .filter(|a| a.raised_at().as_secs() < 86_400)
        .cloned()
        .collect();
    println!(
        "  {:<24} {:>16} {:>16}",
        "variant", "emerging topics", "emerging alerts"
    );
    for (label, adaptation) in [("adaptive (AOLDA)", 0.5), ("non-adaptive", 0.0)] {
        let mut detector = EmergingAlertDetector::new(EmergingConfig {
            num_topics: 5,
            passes_per_window: 8,
            adaptation_weight: adaptation,
            ..EmergingConfig::default()
        });
        let reports = detector.run(&day1);
        let topics: usize = reports.iter().map(|r| r.emerging_topics).sum();
        let alerts: usize = reports.iter().map(|r| r.emerging_alerts.len()).sum();
        println!("  {label:<24} {topics:>16} {alerts:>16}");
    }
    println!(
        "  → without adaptation, topics re-randomize every window and routine themes\n\
        are re-flagged as new; the adaptive prior keeps stable themes anchored."
    );

    header("ablation 5: QoA evidence-confidence floor (min_evidence)");
    // How enriched with injected offenders is the worst-60 QoA shortlist
    // as the behavioural-evidence floor varies? min_evidence = 1 trusts a
    // single alert's evidence outright; higher floors blend low-volume
    // strategies toward neutral.
    let mut by_strategy: HashMap<StrategyId, Vec<&Alert>> = HashMap::new();
    for alert in &out.alerts {
        by_strategy.entry(alert.strategy()).or_default().push(alert);
    }
    println!(
        "  {:<14} {:>22} {:>12}",
        "min_evidence", "offenders in worst-60", "enrichment"
    );
    let base_rate = out
        .catalog
        .strategies()
        .iter()
        .filter(|s| out.catalog.profile(s.id()).any())
        .count() as f64
        / out.catalog.strategies().len() as f64;
    for min_evidence in [1usize, 5, 10, 20] {
        let scorer = QoaScorer::new().with_min_evidence(min_evidence);
        let mut reports: Vec<(StrategyId, f64)> = out
            .catalog
            .strategies()
            .iter()
            .map(|strategy| {
                let alerts = by_strategy
                    .get(&strategy.id())
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                let r = scorer.score(
                    strategy,
                    out.catalog.sop(strategy.id()),
                    alerts,
                    &out.incidents,
                );
                (strategy.id(), r.scores.overall())
            })
            .collect();
        // Overall QoA scores are means of rates in [0, 1]: finite and
        // never -0.0, so this is the `partial_cmp` order.
        reports.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let offenders = reports
            .iter()
            .take(60)
            .filter(|(id, _)| out.catalog.profile(*id).any())
            .count();
        println!(
            "  {:<14} {:>19}/60 {:>11.1}x",
            min_evidence,
            offenders,
            (offenders as f64 / 60.0) / base_rate
        );
    }
    println!(
        "  → trusting single-alert evidence floods the shortlist with quiet clean\n\
        strategies; the floor of 10 maximizes offender concentration."
    );
}
