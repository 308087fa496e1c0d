//! End-to-end QoA learning on simulated data: label every strategy that
//! alerted through the OCE oracle (`FeedbackOracle::label_window`, the
//! online loop's one label rule, over the whole trace as window 0), add
//! the oracle's label noise (imperfect OCEs), train on half the
//! strategies, and verify the model generalizes to the other half — the
//! §IV proposal made measurable.

use std::collections::{BTreeMap, HashMap};

use alertops_model::{Alert, QoaLabel, StrategyId};
use alertops_qoa::{
    auc, extract_features, Criterion, LogisticRegression, OnlineQoaModel, QoaFeedbackConfig,
    QoaSample, QoaScorer, TrainConfig, FEATURE_NAMES,
};
use alertops_sim::{scenarios, FeedbackOracle, SimOutput};
use alertops_text::title_report;

const HANDLEABILITY: usize = Criterion::Handleability as usize;

/// One feature sample per strategy that alerted, sorted by strategy id.
fn samples(out: &SimOutput) -> Vec<QoaSample> {
    let mut by_strategy: BTreeMap<StrategyId, Vec<&Alert>> = BTreeMap::new();
    for alert in &out.alerts {
        by_strategy.entry(alert.strategy()).or_default().push(alert);
    }
    by_strategy
        .into_iter()
        .map(|(id, alerts)| {
            let strategy = out.catalog.strategy(id).expect("catalog row");
            let title_score = title_report(strategy.title_template()).score;
            QoaSample {
                strategy: id,
                features: extract_features(
                    strategy,
                    title_score,
                    out.catalog.sop(id),
                    &alerts,
                    &out.incidents,
                ),
            }
        })
        .collect()
}

/// The oracle's labels of the whole trace as window 0, one per sample.
fn labels(out: &SimOutput, samples: &[QoaSample], seed: u64, noise: f64) -> Vec<QoaLabel> {
    let labels =
        FeedbackOracle::new(seed, noise).label_window(0, &out.catalog, &out.alerts, &out.incidents);
    assert!(
        labels
            .iter()
            .map(|l| l.strategy)
            .eq(samples.iter().map(|s| s.strategy)),
        "one label per alerting strategy"
    );
    labels
}

fn handleable(labels: &[QoaLabel]) -> Vec<bool> {
    labels.iter().map(|l| l.labels[HANDLEABILITY]).collect()
}

#[test]
fn learned_handleability_generalizes() {
    let out = scenarios::mini_study(31).run();
    let samples = samples(&out);
    let clean = labels(&out, &samples, 99, 0.0);
    // Noisy OCE labels on the training half.
    let noisy = labels(&out, &samples, 99, 0.1);
    let split = samples.len() / 2;

    let train_x: Vec<Vec<f64>> = samples[..split]
        .iter()
        .map(|s| s.features.clone())
        .collect();
    let mut model = LogisticRegression::new(FEATURE_NAMES.len());
    model.fit(
        &train_x,
        &handleable(&noisy[..split]),
        &TrainConfig::default(),
    );

    // Evaluate on the held-out half against the *clean* oracle.
    let scores: Vec<f64> = samples[split..]
        .iter()
        .map(|s| model.predict_proba(&s.features))
        .collect();
    let a = auc(&scores, &handleable(&clean[split..])).expect("both classes present");
    assert!(a > 0.8, "held-out AUC {a:.3}");
}

#[test]
fn evidence_scorer_separates_injected_quality() {
    let out = scenarios::mini_study(31).run();
    let mut by_strategy: HashMap<StrategyId, Vec<&Alert>> = HashMap::new();
    for alert in &out.alerts {
        by_strategy.entry(alert.strategy()).or_default().push(alert);
    }
    let scorer = QoaScorer::new();
    let mut clean_overall = Vec::new();
    let mut dirty_overall = Vec::new();
    for strategy in out.catalog.strategies() {
        let alerts = by_strategy
            .get(&strategy.id())
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let report = scorer.score(
            strategy,
            out.catalog.sop(strategy.id()),
            alerts,
            &out.incidents,
        );
        let profile = out.catalog.profile(strategy.id());
        if !profile.any() {
            clean_overall.push(report.scores.overall());
        } else if profile.vague_title || profile.misleading_severity {
            dirty_overall.push(report.scores.overall());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&clean_overall) > mean(&dirty_overall),
        "clean {:.3} vs dirty {:.3}",
        mean(&clean_overall),
        mean(&dirty_overall)
    );
}

/// The online loop's model, fed the oracle's labels in 4 streaming
/// batches as OCEs would produce them, learns handleability.
#[test]
fn continual_absorption_tracks_new_labels() {
    let out = scenarios::mini_study(31).run();
    let samples = samples(&out);
    let clean = labels(&out, &samples, 0, 0.0);
    let mut model = OnlineQoaModel::new(QoaFeedbackConfig::default());
    let batch = samples.len() / 4;
    for _epoch in 0..30 {
        for b in 0..4 {
            let lo = b * batch;
            let hi = if b == 3 {
                samples.len()
            } else {
                (b + 1) * batch
            };
            model.observe_window(&samples[lo..hi], &clean[lo..hi]);
        }
    }
    // A window with no labels updates nothing: it scores every
    // strategy with the final model.
    let report = model.observe_window(&samples, &[]);
    assert_eq!(report.absorbed, 0);
    let scores: Vec<f64> = report
        .scored
        .iter()
        .map(|s| s.scores[HANDLEABILITY])
        .collect();
    let a = auc(&scores, &handleable(&clean)).expect("both classes present");
    assert!(a > 0.8, "absorbed AUC {a:.3}");
}
