//! Fig. 6 — incorporating human knowledge and machine learning to detect
//! anti-patterns of alerts: the three-stage mitigation loop (avoid →
//! react → automatically detect / QoA).
//!
//! The harness runs one governance pass over a simulated study and shows
//! each stage producing its artifact, then validates the "detect" stage
//! by scoring the QoA shortlist against the injected ground truth.
//!
//! Run with: `cargo run --release -p alertops-bench --bin fig6`

use alertops_bench::{compare, header, pct, HARNESS_SEED};
use alertops_core::prelude::*;
use alertops_core::{apply_fixes, suggest_fixes};
use alertops_sim::scenarios;
use std::collections::BTreeSet;

fn main() {
    let out = scenarios::mini_study(HARNESS_SEED).run();
    let fault_tolerant: BTreeSet<MicroserviceId> = out
        .topology
        .microservices()
        .iter()
        .filter(|ms| ms.fault_tolerant)
        .map(|ms| ms.id)
        .collect();
    let governor = AlertGovernor::new(
        out.catalog.strategies().to_vec(),
        GovernorConfig {
            guideline_context: GuidelineContext { fault_tolerant },
        },
    )
    .with_sops(
        out.catalog
            .strategies()
            .iter()
            .filter_map(|s| out.catalog.sop(s.id()).cloned()),
    )
    .with_dependency_graph(out.topology.dependency_graph());

    header("Fig. 6: the three-stage mitigation loop");
    let report = governor.govern(&out.alerts, &out.incidents);

    println!("\nStage 1 — AVOID (preventative guidelines at config time):");
    println!(
        "  {} violations across {} strategies",
        report.guideline_violations.len(),
        out.catalog.strategies().len()
    );

    println!("\nStage 2 — REACT (postmortem reactions on the live stream):");
    println!(
        "  {} blocking rules derived from A4/A5 findings",
        report.derived_blocking_rules
    );
    for stage in &report.pipeline.stages {
        println!("  after {:<12} {:>7} items", stage.stage, stage.remaining);
    }
    println!("  volume reduction {}", pct(report.pipeline.reduction));

    println!("\nStage 3 — DETECT (automatic anti-pattern detection / QoA):");
    print!("  {}", report.anti_patterns);
    println!("  cascade groups: {}", report.anti_patterns.cascades.len());

    println!("\nStage 3½ — REMEDIATE (the loop's feedback edge):");
    {
        let graph = out.topology.dependency_graph();
        let input = DetectionInput::new(out.catalog.strategies())
            .with_alerts(&out.alerts)
            .with_incidents(&out.incidents)
            .with_graph(&graph);
        let fixes = suggest_fixes(out.catalog.strategies(), &report.anti_patterns, &input);
        let mechanical = fixes.iter().filter(|f| f.revised.is_some()).count();
        let advisories = fixes.len() - mechanical;
        println!(
            "  {} fixes proposed: {mechanical} mechanical (debounce/cooldown/severity), {advisories} human advisories (titles, targets)",
            fixes.len()
        );
        let fixed = apply_fixes(out.catalog.strategies(), &fixes);
        let changed = fixed
            .iter()
            .zip(out.catalog.strategies())
            .filter(|(a, b)| a != b)
            .count();
        println!("  {changed} strategies corrected in place");
    }

    header("loop validation: does automatic detection find the real offenders?");
    let shortlist = report.review_shortlist(60);
    let injected_in_shortlist = shortlist
        .iter()
        .filter(|q| out.catalog.profile(q.strategy).any())
        .count();
    let base_rate = out
        .catalog
        .strategies()
        .iter()
        .filter(|s| out.catalog.profile(s.id()).any())
        .count() as f64
        / out.catalog.strategies().len() as f64;
    compare(
        "injected offenders in worst-60 QoA shortlist",
        "enriched vs base rate",
        &format!(
            "{} vs base {}",
            pct(injected_in_shortlist as f64 / shortlist.len() as f64),
            pct(base_rate)
        ),
    );
    assert!(
        injected_in_shortlist as f64 / shortlist.len() as f64 > base_rate,
        "QoA shortlist is not enriched"
    );
    compare(
        "governance loop closes",
        "detected anti-patterns feed strategy fixes",
        &format!(
            "{} findings + {} guideline violations → review queue",
            report.anti_patterns.finding_count(),
            report.guideline_violations.len()
        ),
    );
}
