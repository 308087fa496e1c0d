//! Preventative guidelines in action (the paper's RQ4 / "Avoid" stage):
//! lint a strategy catalog against the Target / Timing / Presentation
//! guidelines *before* any alert fires, then show how fixing a strategy
//! clears its violations.
//!
//! Run with: `cargo run --example strategy_lint`

use alertops::core::prelude::*;
use alertops::sim::scenarios;
use std::collections::BTreeSet;

fn main() {
    let out = scenarios::quickstart(13).run();

    // Context: which microservices are shielded by fault tolerance
    // (in production this comes from architecture docs; here from the
    // simulated topology).
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
    );

    let violations = governor.lint();
    println!(
        "linted {} strategies: {} guideline violations",
        out.catalog.strategies().len(),
        violations.len()
    );
    let count = |aspect| violations.iter().filter(|v| v.aspect == aspect).count();
    println!("  Target       : {}", count(GuidelineAspect::Target));
    println!("  Timing       : {}", count(GuidelineAspect::Timing));
    println!("  Presentation : {}", count(GuidelineAspect::Presentation));

    println!("\nsample violations:");
    for violation in violations.iter().take(8) {
        println!("  {violation}");
    }

    // Fix one offender: take a strategy with a vague title and rewrite it
    // the way the guidelines ask (component + manifestation).
    let linter = GuidelineLinter::new();
    let offender = out
        .catalog
        .strategies()
        .iter()
        .find(|s| {
            violations.iter().any(|v| {
                v.strategy == s.id()
                    && v.aspect == GuidelineAspect::Presentation
                    && v.message.contains("informativeness")
            })
        })
        .expect("some strategy has an unclear-title violation");
    println!(
        "\nfixing {}: {:?}",
        offender.id(),
        offender.title_template()
    );
    let fixed = offender.clone().with_title_template(format!(
        "{} request latency above threshold, user requests failing",
        out.topology
            .microservice(offender.microservice())
            .map_or("service", |ms| ms.name.as_str())
    ));
    let before = linter
        .lint(
            offender,
            out.catalog.sop(offender.id()),
            &GuidelineContext::default(),
        )
        .len();
    let after = linter
        .lint(
            &fixed,
            out.catalog.sop(offender.id()),
            &GuidelineContext::default(),
        )
        .len();
    println!("violations for that strategy: {before} -> {after}");
}
