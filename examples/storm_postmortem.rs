//! Streaming governance + postmortem: ingest a simulated day hour by
//! hour with [`StreamingGovernor`], watch for the storm onset, then
//! write the storm's Markdown postmortem — the incident-review artifact
//! the paper's methodology mined for anti-patterns.
//!
//! Run with: `cargo run --example storm_postmortem`

use alertops::core::prelude::*;
use alertops::core::{render_postmortem, PostmortemInput};
use alertops::detect::storm::detect_storms;
use alertops::detect::StormConfig;
use alertops::sim::scenarios;

fn main() {
    let out = scenarios::mini_study(3).run();
    let governor = AlertGovernor::new(out.catalog.strategies().to_vec(), GovernorConfig::default())
        .with_dependency_graph(out.topology.dependency_graph());

    // 1. Stream the first two days hour by hour.
    let mut streaming = StreamingGovernor::new(governor, StreamingConfig::default());
    let hours = 48u64;
    let mut storm_hours = Vec::new();
    for hour in 0..hours {
        let window: Vec<Alert> = out
            .alerts
            .iter()
            .filter(|a| a.hour_bucket() == hour)
            .cloned()
            .collect();
        let incidents: Vec<Incident> = out
            .incidents
            .iter()
            .filter(|i| i.started_at().hour_bucket() == hour)
            .cloned()
            .collect();
        let delta = streaming.ingest(&window, &incidents);
        // One governor is the whole stream, so its delta's histogram is
        // the global one and the snapshot's storm flag is exact.
        let storm_active =
            GovernanceSnapshot::from_delta(&delta, &StormConfig::default()).storm_active;
        if !delta.new_findings.is_empty() || storm_active {
            println!(
                "hour {hour:02}: {} alerts{}{}",
                delta.alert_count,
                if storm_active { " ⛈ STORM" } else { "" },
                if delta.new_findings.is_empty() {
                    String::new()
                } else {
                    format!(", {} new findings", delta.new_findings.len())
                }
            );
        }
        if storm_active {
            storm_hours.push(hour);
        }
    }
    println!(
        "\nstreamed {} hours; storm flagged in {} of them",
        hours,
        storm_hours.len()
    );

    // 2. Postmortem for the worst storm of the streamed period.
    let streamed: Vec<Alert> = out
        .alerts
        .iter()
        .filter(|a| a.hour_bucket() < hours)
        .cloned()
        .collect();
    let storms = detect_storms(&streamed, &StormConfig::default());
    let Some(storm) = storms.iter().max_by_key(|s| s.total_alerts) else {
        println!("no storm this seed");
        return;
    };
    let governor = AlertGovernor::new(out.catalog.strategies().to_vec(), GovernorConfig::default())
        .with_dependency_graph(out.topology.dependency_graph());
    let report = governor.detect(&streamed, &out.incidents);
    let blocker = governor.derive_blocker(&report);
    let storm_alerts: Vec<Alert> = streamed
        .iter()
        .filter(|a| {
            storm.hours.contains(&a.hour_bucket()) && a.location().region() == &storm.region
        })
        .cloned()
        .collect();
    let pipeline = governor.react(&storm_alerts, blocker);

    let text = render_postmortem(&PostmortemInput {
        storm,
        alerts: &streamed,
        report: &report,
        pipeline: &pipeline,
        title_of: &|id| {
            out.catalog
                .strategy(id)
                .map_or_else(|| id.to_string(), |s| s.title_template().to_owned())
        },
    });
    println!("\n{text}");
}
