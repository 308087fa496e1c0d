//! Fig. 2 — the survey about the current practice of mitigating alert
//! anti-patterns: (a) impact of each anti-pattern, (b) SOP helpfulness,
//! (c) effectiveness of the four reactions. Panel (c) is additionally
//! cross-checked against *measured* effectiveness on the simulator.
//!
//! Run with: `cargo run --release -p alertops-bench --bin fig2`

use alertops_bench::{compare, header, pct, HARNESS_SEED};
use alertops_react::blocking::{AlertBlocker, BlockRule};
use alertops_react::correlation::AlertCorrelator;
use alertops_react::{aggregate, EmergingAlertDetector, EmergingConfig, AGGREGATION_WINDOW};
use alertops_sim::scenarios;
use alertops_survey::{
    fig2a, fig2b, fig2c, render_bar, Helpfulness, Impact, Question, SurveyDataset,
};

fn main() {
    let survey = SurveyDataset::paper();

    header("Fig. 2(a): impact of anti-patterns on alert diagnosis (18 OCEs)");
    for row in fig2a(&survey) {
        println!("{}", render_bar(&row, 36));
    }
    let answers =
        |item| alertops_survey::Distribution::from_answers(survey.impact_answers(item).into_iter());
    compare(
        "A1 agreement / high-impact share",
        "100% agree, 61.1% high",
        &format!(
            "{} agree, {} high",
            pct(answers(alertops_survey::AntiPatternQ::A1UnclearTitle).share_where(Impact::agrees)),
            pct(answers(alertops_survey::AntiPatternQ::A1UnclearTitle).share(Impact::High)),
        ),
    );
    compare(
        "A2 agreement",
        "88.9%",
        &pct(answers(alertops_survey::AntiPatternQ::A2MisleadingSeverity)
            .share_where(Impact::agrees)),
    );
    compare(
        "A3 high-impact share",
        "72.2%",
        &pct(answers(alertops_survey::AntiPatternQ::A3ImproperRule).share(Impact::High)),
    );
    compare(
        "A4 agreement",
        "94.4%",
        &pct(
            answers(alertops_survey::AntiPatternQ::A4TransientToggling).share_where(Impact::agrees)
        ),
    );
    compare(
        "A5 agreement",
        "94.4%",
        &pct(answers(alertops_survey::AntiPatternQ::A5Repeating).share_where(Impact::agrees)),
    );
    compare(
        "A6 agreement",
        "100%",
        &pct(answers(alertops_survey::AntiPatternQ::A6Cascading).share_where(Impact::agrees)),
    );

    header("Fig. 2(b): how helpful are the predefined SOPs?");
    for row in fig2b(&survey) {
        println!("{}", render_bar(&row, 36));
    }
    let q1 = survey.helpfulness_distribution(Question::SopOverall);
    compare(
        "Q1 helpful / limited",
        "22.2% / 77.8%",
        &format!(
            "{} / {}",
            pct(q1.share(Helpfulness::Helpful)),
            pct(q1.share(Helpfulness::Limited))
        ),
    );
    let q2 = survey.helpfulness_distribution(Question::SopIndividual);
    let q3 = survey.helpfulness_distribution(Question::SopCollective);
    compare(
        "SOPs less helpful for collective (Q3 < Q2)",
        "much less helpful",
        &format!(
            "helpful {} vs {}",
            pct(q3.share(Helpfulness::Helpful)),
            pct(q2.share(Helpfulness::Helpful))
        ),
    );

    header("Fig. 2(c): effectiveness of current reactions");
    for row in fig2c(&survey) {
        println!("{}", render_bar(&row, 36));
    }

    // Cross-check: measured effectiveness of each reaction on the
    // simulated study (volume reduction / early-warning yield).
    header("Fig. 2(c) cross-check: measured reaction effectiveness");
    let out = scenarios::mini_study(HARNESS_SEED).run();
    let noisy: Vec<BlockRule> = out
        .catalog
        .strategies()
        .iter()
        .filter(|s| {
            let p = out.catalog.profile(s.id());
            p.chatty || p.oversensitive
        })
        .map(|s| BlockRule::for_strategy("mute", s.id()))
        .collect();
    let blocker: AlertBlocker = noisy.into_iter().collect();
    let blocked = blocker.apply(&out.alerts);
    compare(
        "R1 alert blocking (volume removed)",
        "relatively high",
        &pct(blocked.reduction()),
    );
    let groups = aggregate(&out.alerts, AGGREGATION_WINDOW);
    compare(
        "R2 alert aggregation (dedup reduction)",
        "relatively high",
        &pct(alertops_react::reduction_ratio(
            out.alerts.len(),
            groups.len(),
        )),
    );
    let correlator = AlertCorrelator::new().with_topology(out.topology.dependency_graph());
    let clusters = correlator.correlate(&out.alerts);
    compare(
        "R3 correlation (alerts per diagnosed source)",
        "relatively high",
        &format!(
            "{:.2} alerts/cluster",
            out.alerts.len() as f64 / clusters.len().max(1) as f64
        ),
    );
    let day1: Vec<_> = out
        .alerts
        .iter()
        .filter(|a| a.raised_at().as_secs() < 86_400)
        .cloned()
        .collect();
    let mut emerging = EmergingAlertDetector::new(EmergingConfig {
        num_topics: 5,
        passes_per_window: 8,
        ..EmergingConfig::default()
    });
    let reports = emerging.run(&day1);
    let flagged: usize = reports.iter().map(|r| r.emerging_alerts.len()).sum();
    compare(
        "R4 emerging detection (early flags, day 1)",
        "relatively high",
        &format!("{flagged} alerts flagged across {} windows", reports.len()),
    );
}
