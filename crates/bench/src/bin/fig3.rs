//! Fig. 3 — repeating alerts in an alert storm.
//!
//! The paper's representative storm: 07:00–11:59, 2751 alerts from 200
//! effective strategies, with the WARNING-level "haproxy process number
//! warning" taking ≈30% of each hour's alerts. The harness runs the
//! `storm_fig3` scenario, detects the storm (>100/region/hour, merged),
//! and prints the per-hour stacked counts for the top-2 strategies vs
//! "Others" — the exact series of the figure.
//!
//! Run with: `cargo run --release -p alertops-bench --bin fig3`

use std::collections::HashMap;

use alertops_bench::{compare, header, pct, HARNESS_SEED};
use alertops_detect::storm::detect_storms;
use alertops_detect::{DetectionInput, Detector, RepeatingDetector, StormConfig};
use alertops_model::StrategyId;
use alertops_sim::scenarios;

fn main() {
    let out = scenarios::storm_fig3(HARNESS_SEED).run();

    header("Fig. 3: repeating alerts in an alert storm");
    let storms = detect_storms(&out.alerts, &StormConfig::default());
    println!("detected {} storm(s):", storms.len());
    for s in &storms {
        println!(
            "  {} in {}: {} alerts over {} hour(s), peak {}/hour",
            s.window,
            s.region,
            s.total_alerts,
            s.duration_hours(),
            s.peak_hourly
        );
    }
    let storm = storms
        .iter()
        .max_by_key(|s| s.total_alerts)
        .expect("scenario produces a storm");

    // Storm-window alerts (all regions — the paper counts the storm's
    // full window).
    let storm_alerts: Vec<&alertops_model::Alert> = out
        .alerts
        .iter()
        .filter(|a| storm.hours.contains(&a.hour_bucket()))
        .collect();

    // Per-strategy totals to find the top-2.
    let mut per_strategy: HashMap<StrategyId, usize> = HashMap::new();
    for a in &storm_alerts {
        *per_strategy.entry(a.strategy()).or_insert(0) += 1;
    }
    let mut ranked: Vec<(StrategyId, usize)> = per_strategy.iter().map(|(&s, &c)| (s, c)).collect();
    ranked.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let top2: Vec<StrategyId> = ranked.iter().take(2).map(|&(s, _)| s).collect();
    let name = |id: StrategyId| {
        out.catalog
            .strategy(id)
            .map_or_else(|| id.to_string(), |s| s.title_template().to_owned())
    };

    println!("\nper-hour stacked counts (the figure's series):");
    println!(
        "{:<8} {:>10} {:>10} {:>8} {:>8}",
        "hour", "top-1", "top-2", "Others", "total"
    );
    for &hour in &storm.hours {
        let hour_alerts: Vec<_> = storm_alerts
            .iter()
            .filter(|a| a.hour_bucket() == hour)
            .collect();
        let count_of = |id: StrategyId| hour_alerts.iter().filter(|a| a.strategy() == id).count();
        let t1 = count_of(top2[0]);
        let t2 = top2.get(1).map_or(0, |&id| count_of(id));
        println!(
            "{:<8} {:>10} {:>10} {:>8} {:>8}",
            format!("{:02}:00", hour % 24),
            t1,
            t2,
            hour_alerts.len() - t1 - t2,
            hour_alerts.len()
        );
    }

    header("shape checks");
    compare(
        "storm total alerts",
        "2751 (07:00–11:59)",
        &storm.total_alerts.to_string(),
    );
    let effective_strategies = per_strategy.len();
    compare(
        "effective strategies in storm",
        "200",
        &effective_strategies.to_string(),
    );
    let top1_share = ranked[0].1 as f64 / storm_alerts.len() as f64;
    compare(
        "dominant strategy share",
        "≈30% each hour (haproxy, WARNING)",
        &format!("{} ({})", pct(top1_share), name(top2[0])),
    );
    let top1_severity = out
        .catalog
        .strategy(top2[0])
        .map(|s| s.severity().to_string())
        .unwrap_or_default();
    compare(
        "dominant strategy severity",
        "WARNING (lowest)",
        &top1_severity,
    );

    // The A5 detector must flag the dominant strategy.
    let input = DetectionInput::new(out.catalog.strategies()).with_alerts(&out.alerts);
    let findings = RepeatingDetector.detect(&input);
    let flagged = findings.iter().any(|f| f.strategy == top2[0]);
    compare(
        "A5 flags the dominant repeater",
        "repeating alerts anti-pattern",
        if flagged { "flagged" } else { "NOT FLAGGED" },
    );
    assert!(flagged, "dominant repeater not flagged by A5");
}
