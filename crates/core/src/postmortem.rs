//! Storm postmortem generation.
//!
//! The paper's methodology leans on written incident reviews: "we also
//! went through the incident reports over the past two years to seek the
//! ineffectiveness in alerts recorded by OCEs" (§III-A). This module
//! closes that loop from the other side — after a storm, it writes the
//! report: what happened hour by hour, which cascade roots explain the
//! flood, which strategies repeated, and what the reaction pipeline
//! would have reduced the flood to.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use alertops_detect::storm::AlertStorm;
use alertops_detect::{AntiPattern, AntiPatternReport};
use alertops_model::{Alert, StrategyId};
use alertops_react::PipelineReport;

/// Inputs for one storm's postmortem.
pub struct PostmortemInput<'a> {
    /// The detected storm under review.
    pub storm: &'a AlertStorm,
    /// The alerts of the storm window (any superset is fine; the
    /// generator filters to the storm's hours and region).
    pub alerts: &'a [Alert],
    /// Detection results over the same scope.
    pub report: &'a AntiPatternReport,
    /// Reaction-pipeline outcome over the storm's alerts.
    pub pipeline: &'a PipelineReport,
    /// Resolves a strategy id to its title for display.
    pub title_of: &'a dyn Fn(StrategyId) -> String,
}

impl std::fmt::Debug for PostmortemInput<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PostmortemInput")
            .field("storm", &self.storm)
            .field("alerts", &self.alerts.len())
            .field("title_of", &"<fn>")
            .finish_non_exhaustive()
    }
}

/// Renders a Markdown postmortem for a storm.
///
/// Sections: headline, hourly timeline, top repeating strategies,
/// cascade root causes, anti-pattern summary, and the reaction what-if.
#[must_use]
pub fn render_postmortem(input: &PostmortemInput<'_>) -> String {
    let storm = input.storm;
    let in_storm = |alert: &&Alert| {
        storm.hours.contains(&alert.hour_bucket()) && alert.location().region() == &storm.region
    };
    let storm_alerts: Vec<&Alert> = input.alerts.iter().filter(in_storm).collect();

    let mut out = String::new();
    let _ = writeln!(out, "# Alert storm postmortem — {}", storm.region);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "**Window:** {}  \n**Volume:** {} alerts over {} hour(s), peak {}/hour",
        storm.window,
        storm.total_alerts,
        storm.duration_hours(),
        storm.peak_hourly
    );

    // Hourly timeline.
    let _ = writeln!(out, "\n## Timeline");
    let _ = writeln!(out, "\n| hour | alerts | max severity |");
    let _ = writeln!(out, "|---|---|---|");
    for &hour in &storm.hours {
        let hour_alerts: Vec<&&Alert> = storm_alerts
            .iter()
            .filter(|a| a.hour_bucket() == hour)
            .collect();
        let max_sev = hour_alerts
            .iter()
            .map(|a| a.severity())
            .max()
            .map_or_else(|| "-".to_owned(), |s| s.to_string());
        let _ = writeln!(
            out,
            "| {:02}:00 | {} | {} |",
            hour % 24,
            hour_alerts.len(),
            max_sev
        );
    }

    // Top repeaters.
    let mut per_strategy: BTreeMap<StrategyId, usize> = BTreeMap::new();
    for alert in &storm_alerts {
        *per_strategy.entry(alert.strategy()).or_insert(0) += 1;
    }
    let mut ranked: Vec<(StrategyId, usize)> = per_strategy.iter().map(|(&s, &c)| (s, c)).collect();
    ranked.sort_by_key(|&(s, c)| (std::cmp::Reverse(c), s));
    let _ = writeln!(out, "\n## Dominant strategies");
    let _ = writeln!(out);
    for &(strategy, count) in ranked.iter().take(5) {
        let share = count as f64 / storm_alerts.len().max(1) as f64 * 100.0;
        let repeating = input
            .report
            .flagged(AntiPattern::Repeating)
            .contains(&strategy);
        let _ = writeln!(
            out,
            "- {} — {count} alerts ({share:.0}%){} — {:?}",
            strategy,
            if repeating { " **[A5 repeating]**" } else { "" },
            (input.title_of)(strategy),
        );
    }

    // Cascade roots inside the window.
    let _ = writeln!(out, "\n## Cascade root causes");
    let roots: Vec<_> = input
        .report
        .cascades
        .iter()
        .filter(|g| g.window.overlaps(&storm.window))
        .collect();
    if roots.is_empty() {
        let _ = writeln!(out, "\nNo cascade groups detected in the window.");
    } else {
        let _ = writeln!(out);
        for group in roots.iter().take(5) {
            if let Some(root) = input.alerts.iter().find(|a| a.id() == group.root) {
                let _ = writeln!(
                    out,
                    "- **{}** on {} at {} → {} derived alerts",
                    root.title(),
                    root.service_name(),
                    root.raised_at(),
                    group.derived().len()
                );
            }
        }
        if roots.len() > 5 {
            let _ = writeln!(out, "- … and {} more groups", roots.len() - 5);
        }
    }

    // Anti-pattern summary.
    let _ = writeln!(out, "\n## Anti-patterns implicated");
    let _ = writeln!(out);
    for pattern in AntiPattern::ALL {
        if pattern == AntiPattern::Cascading {
            continue; // covered above
        }
        let flagged = input.report.flagged(pattern);
        let involved = ranked.iter().filter(|(s, _)| flagged.contains(s)).count();
        if involved > 0 {
            let _ = writeln!(
                out,
                "- {pattern}: {involved} of the storm's strategies flagged"
            );
        }
    }

    // Reaction what-if.
    let _ = writeln!(out, "\n## What the reaction pipeline would have left");
    let _ = writeln!(out);
    for stage in &input.pipeline.stages {
        let _ = writeln!(out, "- after {}: {} items", stage.stage, stage.remaining);
    }
    let _ = writeln!(
        out,
        "- **volume reduction: {:.1}%** ({} triage items for the OCE)",
        input.pipeline.reduction * 100.0,
        input.pipeline.triage.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_detect::storm::detect_storms;
    use alertops_detect::{DetectionInput, StormConfig};
    use alertops_model::{AlertId, Location, Severity, SimTime};
    use alertops_react::{AlertBlocker, ReactionPipeline};

    fn storm_world() -> (Vec<Alert>, AlertStorm) {
        let mut alerts = Vec::new();
        for i in 0..150u64 {
            alerts.push(
                Alert::builder(AlertId(i), StrategyId(i % 3))
                    .title("haproxy process number warning")
                    .severity(if i == 0 {
                        Severity::Critical
                    } else {
                        Severity::Warning
                    })
                    .location(Location::new("r1", "dc"))
                    .raised_at(SimTime::from_secs(7 * 3_600 + i * 20))
                    .build(),
            );
        }
        let storm = detect_storms(&alerts, &StormConfig::default())
            .into_iter()
            .next()
            .expect("burst forms a storm");
        (alerts, storm)
    }

    #[test]
    fn postmortem_contains_all_sections() {
        let (alerts, storm) = storm_world();
        let strategies: Vec<alertops_model::AlertStrategy> = (0..3)
            .map(|i| {
                alertops_model::AlertStrategy::builder(StrategyId(i))
                    .title_template("haproxy process number warning")
                    .kind(alertops_model::StrategyKind::Log(alertops_model::LogRule {
                        keyword: "WARN".into(),
                        min_count: 1,
                        window: alertops_model::SimDuration::from_mins(5),
                    }))
                    .build()
                    .unwrap()
            })
            .collect();
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let report = AntiPatternReport::run_default(&input);
        let pipeline = ReactionPipeline::new().run(&alerts, &AlertBlocker::new());
        let text = render_postmortem(&PostmortemInput {
            storm: &storm,
            alerts: &alerts,
            report: &report,
            pipeline: &pipeline,
            title_of: &|id| format!("strategy {id}"),
        });
        for section in [
            "# Alert storm postmortem",
            "## Timeline",
            "## Dominant strategies",
            "## Cascade root causes",
            "## Anti-patterns implicated",
            "## What the reaction pipeline would have left",
            "volume reduction",
        ] {
            assert!(
                text.contains(section),
                "missing section {section:?}\n{text}"
            );
        }
        // Hourly rows present.
        assert!(text.contains("| 07:00 |"));
        // The dominant strategy appears with a share.
        assert!(text.contains("alerts (") && text.contains("%"));
    }

    #[test]
    fn postmortem_handles_no_cascades() {
        let (alerts, storm) = storm_world();
        let report = AntiPatternReport::default();
        let pipeline = ReactionPipeline::new().run(&alerts, &AlertBlocker::new());
        let text = render_postmortem(&PostmortemInput {
            storm: &storm,
            alerts: &alerts,
            report: &report,
            pipeline: &pipeline,
            title_of: &|_| "t".to_owned(),
        });
        assert!(text.contains("No cascade groups detected"));
    }
}
