//! The paper's headline claims, asserted as executable checks against
//! the reproduction (shapes, not absolute numbers — see EXPERIMENTS.md).

use alertops::detect::storm::detect_storms;
use alertops::detect::{candidates, StormConfig};
use alertops::model::ExperienceBand;
use alertops::sim::scenarios;
use alertops::survey::{fig2a, fig2b, fig2c, fig4, Helpfulness, Question, SurveyDataset};

#[test]
fn study_scale_matches_paper_ratios() {
    // Full-scale catalog/topology (cheap — no alert generation).
    let topo = alertops::sim::Topology::generate(&alertops::sim::TopologyConfig::default());
    let catalog = alertops::sim::StrategyCatalog::generate(
        &topo,
        &alertops::sim::StrategyCatalogConfig::default(),
    );
    assert_eq!(topo.services().len(), 11);
    assert_eq!(topo.microservices().len(), 192);
    assert_eq!(catalog.len(), 2010);
}

#[test]
fn storms_occur_daily_ish_and_candidates_nest() {
    // "alert storms occur weekly or even daily" — the mini study injects
    // storms roughly daily; detection must find them.
    let out = scenarios::mini_study(3).run();
    let storms = detect_storms(&out.alerts, &StormConfig::default());
    let days = 4.0;
    let per_day = storms.len() as f64 / days;
    assert!(
        (0.4..=3.0).contains(&per_day),
        "storm rate {per_day}/day out of the daily-ish band"
    );
    // Collective candidates (>200/hr/region) are storm hours (>100).
    let collective = candidates::collective_candidates(&out.alerts, 200);
    for c in &collective {
        assert!(storms
            .iter()
            .any(|s| s.region == c.region && s.hours.contains(&c.hour)));
    }
}

#[test]
fn top_30_percent_mining_selects_ceil_30_percent() {
    let out = scenarios::mini_study(3).run();
    let with_evidence: std::collections::BTreeSet<_> = out
        .alerts
        .iter()
        .filter(|a| a.processing_time().is_some())
        .map(alertops::model::Alert::strategy)
        .collect();
    let top30 = candidates::individual_candidates(&out.alerts, 0.3);
    let expected = ((with_evidence.len() as f64) * 0.3).ceil() as usize;
    assert_eq!(top30.len(), expected);
}

#[test]
fn survey_reproduces_every_reported_percentage() {
    let survey = SurveyDataset::paper();
    let n = survey.respondents().len() as f64;
    assert_eq!(n as usize, 18);

    // Demographics (§III): 55.6% / 16.7% / 11.1% / 16.7%.
    let share = |band| {
        survey
            .respondents()
            .iter()
            .filter(|r| r.experience == band)
            .count() as f64
            / n
    };
    assert!((share(ExperienceBand::OverThreeYears) - 0.556).abs() < 0.001);
    assert!((share(ExperienceBand::TwoToThreeYears) - 0.167).abs() < 0.001);
    assert!((share(ExperienceBand::OneToTwoYears) - 0.111).abs() < 0.001);
    assert!((share(ExperienceBand::UnderOneYear) - 0.167).abs() < 0.001);

    // Q1: 22.2% helpful / 77.8% limited.
    let q1 = survey.helpfulness_distribution(Question::SopOverall);
    assert!((q1.share(Helpfulness::Helpful) - 0.222).abs() < 0.001);
    assert!((q1.share(Helpfulness::Limited) - 0.778).abs() < 0.001);

    // Storm fatigue: 17 of 18.
    assert_eq!(survey.storm_fatigued(), 17);

    // All four figures render complete rows.
    assert_eq!(fig2a(&survey).len(), 6);
    assert_eq!(fig2b(&survey).len(), 3);
    assert_eq!(fig2c(&survey).len(), 4);
    assert_eq!(fig4(&survey).len(), 4);
}

#[test]
fn anti_pattern_processing_time_premise_holds() {
    // The candidate-mining premise: strategies with injected
    // anti-patterns average longer processing than clean ones.
    let out = scenarios::mini_study(3).run();
    let mut dirty = (0.0, 0usize);
    let mut clean = (0.0, 0usize);
    for alert in &out.alerts {
        let Some(pt) = alert.processing_time() else {
            continue;
        };
        let profile = out.catalog.profile(alert.strategy());
        // Exclude noise strategies: their alerts are individually quick;
        // the premise concerns diagnosis-hindering patterns (A1–A3).
        let slot = if profile.vague_title || profile.misleading_severity || profile.improper_rule {
            &mut dirty
        } else if !profile.any() {
            &mut clean
        } else {
            continue;
        };
        slot.0 += pt.as_mins_f64();
        slot.1 += 1;
    }
    let dirty_avg = dirty.0 / dirty.1.max(1) as f64;
    let clean_avg = clean.0 / clean.1.max(1) as f64;
    assert!(
        dirty_avg > clean_avg * 1.2,
        "anti-pattern alerts not slower: {dirty_avg:.1}m vs {clean_avg:.1}m"
    );
}
