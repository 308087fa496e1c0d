//! Table II — sample reliability alerts: a Block Storage "disk full"
//! failure at 06:36 cascading into Database "failed to commit changes"
//! alerts two minutes later, in Region X / DC 1.
//!
//! The harness runs the `cascade_table2` scenario (a 06:36 cascade from
//! the widest-blast-radius foundation microservice at full paper scale),
//! prints the cascade's alerts in the paper's table format, and verifies
//! the A6 detector recovers the group with the storage alert as root.
//!
//! Run with: `cargo run --release -p alertops-bench --bin table2`

use alertops_bench::{compare, header, HARNESS_SEED};
use alertops_detect::{CascadingDetector, DetectionInput};
use alertops_model::SimDuration;
use alertops_sim::scenarios;

fn main() {
    let out = scenarios::cascade_table2(HARNESS_SEED).run();
    header("Table II: sample cascading reliability alerts");

    // The cascade fires at 06:36; run A6 detection over the surrounding
    // half hour and render the detected group as the paper's table.
    let window = alertops_model::TimeRange::new(
        alertops_model::SimTime::from_secs(6 * 3600 + 30 * 60),
        alertops_model::SimTime::from_secs(7 * 3600),
    );
    let windowed: Vec<alertops_model::Alert> = out
        .alerts
        .iter()
        .filter(|a| window.contains(a.raised_at()))
        .cloned()
        .collect();
    let graph = out.topology.dependency_graph();
    let input = DetectionInput::new(out.catalog.strategies())
        .with_alerts(&windowed)
        .with_graph(&graph);
    let detector = CascadingDetector {
        window: SimDuration::from_mins(5),
    };
    let groups = detector.detect_groups(&input);
    let containing = groups
        .iter()
        .max_by_key(|g| g.len())
        .expect("the injected cascade is detected");
    let cascade_alerts: Vec<&alertops_model::Alert> = containing
        .members
        .iter()
        .filter_map(|id| windowed.iter().find(|a| a.id() == *id))
        .collect();

    println!(
        "\n{:<4} {:<9} {:<12} {:<18} {:<58} {:<9} Location",
        "No.", "Severity", "Time", "Service", "Alert Title", "Duration"
    );
    for (i, alert) in cascade_alerts.iter().take(12).enumerate() {
        let duration = alert
            .duration()
            .map_or_else(|| "active".to_owned(), |d| d.to_string());
        println!(
            "{:<4} {:<9} {:<12} {:<18} {:<58} {:<9} {}",
            i + 1,
            alert.severity().to_string(),
            alert.raised_at().to_string(),
            alert.service_name(),
            alert.title().chars().take(56).collect::<String>(),
            duration,
            alert.location(),
        );
    }
    let root_alert = windowed
        .iter()
        .find(|a| a.id() == containing.root)
        .expect("root is in the stream");

    header("shape checks");
    compare(
        "cascade pattern",
        "storage fault → dependent service alerts",
        &format!(
            "root on {} with {} derived alerts",
            root_alert.service_name(),
            containing.derived().len()
        ),
    );
    compare(
        "derived alerts trail the root",
        "alerts 2&3 occurred right after alert 1",
        &format!(
            "root at {}, group spans {}",
            root_alert.raised_at(),
            containing.window
        ),
    );
    compare(
        "root service is depended upon",
        "Database relies on Block Storage",
        &format!(
            "{} dependents of root microservice in group",
            containing.len() - 1
        ),
    );
    assert!(containing.len() >= 3, "cascade group too small");
}
