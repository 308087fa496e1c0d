//! Learning the Quality of Alerts from OCE labels — the paper's §IV
//! proposal: "OCEs provide their domain knowledge by creating labels …
//! a machine learning model could be trained and continuously updated so
//! that it can automatically absorb the human knowledge."
//!
//! Simulates that loop: the OCE oracle (`FeedbackOracle`, the labels the
//! online loop learns from) labels the whole trace as one window with
//! 10% of its verdicts flipped; a logistic model per criterion trains on
//! half of the strategies that alerted, and held-out AUC shows the
//! knowledge transferred; a `partial_fit` pass over a second noisy draw
//! shows continual updating.
//!
//! Run with: `cargo run --example qoa_training`

use std::collections::BTreeMap;

use alertops::core::prelude::*;
use alertops::qoa::{auc, extract_features, LogisticRegression, TrainConfig, FEATURE_NAMES};
use alertops::sim::{scenarios, FeedbackOracle};
use alertops::text::title_report;

fn main() {
    let out = scenarios::mini_study(5).run();
    let mut by_strategy: BTreeMap<StrategyId, Vec<&Alert>> = BTreeMap::new();
    for alert in &out.alerts {
        by_strategy.entry(alert.strategy()).or_default().push(alert);
    }

    // Features per strategy that alerted, in id order: the oracle's
    // label order.
    let ids: Vec<StrategyId> = by_strategy.keys().copied().collect();
    let features: Vec<Vec<f64>> = by_strategy
        .iter()
        .map(|(&id, alerts)| {
            let strategy = out.catalog.strategy(id).expect("catalog strategy");
            let title_score = title_report(strategy.title_template()).score;
            extract_features(
                strategy,
                title_score,
                out.catalog.sop(id),
                alerts,
                &out.incidents,
            )
        })
        .collect();
    // OCEs are imperfect raters: the oracle flips 10% of its verdicts.
    let label = |seed: u64, noise: f64| {
        FeedbackOracle::new(seed, noise).label_window(0, &out.catalog, &out.alerts, &out.incidents)
    };
    let clean = label(42, 0.0);
    let noisy = label(42, 0.10);
    assert!(clean.iter().map(|l| l.strategy).eq(ids.iter().copied()));
    let column = |labels: &[QoaLabel], criterion: Criterion| -> Vec<bool> {
        labels
            .iter()
            .map(|l| l.labels[criterion as usize])
            .collect()
    };

    let n = features.len();
    let split = n / 2;
    println!(
        "{n} strategies alerted, {} features each, 50/50 train/test split",
        FEATURE_NAMES.len()
    );
    let mut models = Criterion::ALL.map(|_| LogisticRegression::new(FEATURE_NAMES.len()));
    for (criterion, model) in Criterion::ALL.into_iter().zip(&mut models) {
        model.fit(
            &features[..split],
            &column(&noisy[..split], criterion),
            &TrainConfig::default(),
        );
        let scores: Vec<f64> = features[split..]
            .iter()
            .map(|x| model.predict_proba(x))
            .collect();
        match auc(&scores, &column(&clean[split..], criterion)) {
            Some(a) => println!("{criterion:?}: held-out AUC {a:.3} (trained on noisy labels)"),
            None => println!("{criterion:?}: degenerate test split"),
        }
    }

    // Continual absorption: a fresh batch of labels (a second noisy
    // draw) arrives; the model updates without retraining from scratch,
    // at the online loop's learning rate and L2.
    let config = QoaFeedbackConfig::default();
    let fresh = label(43, 0.10);
    let handleability = &mut models[Criterion::Handleability as usize];
    for _ in 0..10 {
        handleability.partial_fit(
            &features[split..],
            &column(&fresh[split..], Criterion::Handleability),
            config.learning_rate,
            config.l2,
        );
    }
    let scores: Vec<f64> = features
        .iter()
        .map(|x| handleability.predict_proba(x))
        .collect();
    if let Some(a) = auc(&scores, &column(&clean, Criterion::Handleability)) {
        println!("Handleability after absorbing the second batch: full-set AUC {a:.3}");
    }

    // Worst first = the automatic anti-pattern shortlist.
    let mut ranked: Vec<(StrategyId, f64)> = ids.into_iter().zip(scores).collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!("\npredicted lowest-handleability strategies:");
    for (id, p) in ranked.iter().take(5) {
        let strategy = out.catalog.strategy(*id).expect("catalog strategy");
        println!("  {id} p(high)={p:.2}  {:?}", strategy.title_template());
    }
}
