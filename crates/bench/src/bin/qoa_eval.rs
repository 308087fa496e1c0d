//! §IV — automatic QoA evaluation, made measurable: can a model trained
//! on (noisy) OCE labels learn indicativeness / precision / handleability
//! well enough to shortlist anti-pattern strategies automatically?
//!
//! The labels are the online loop's: `FeedbackOracle::label_window` over
//! the whole trace as window 0, so the population is the strategies that
//! alerted, and label noise is the oracle's seeded flip. Sweeps that
//! noise 0–30% and ablates the feature set (text-only vs behavioural vs
//! full), reporting each criterion's held-out AUC as the mean and the
//! min–max over [`SPLITS`] label-stratified half splits.
//!
//! Run with: `cargo run --release -p alertops-bench --bin qoa_eval`

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use alertops_bench::{header, HARNESS_SEED};
use alertops_model::{Alert, QoaLabel, StrategyId};
use alertops_qoa::{auc, extract_features, Criterion, LogisticRegression, TrainConfig};
use alertops_sim::{scenarios, FeedbackOracle, SimOutput};
use alertops_text::title_report;

/// Each AUC is summarised over this many splits. Split `k` (in
/// `0..SPLITS`) shuffles each clean-label class of the criterion with
/// `StdRng::seed_from_u64(HARNESS_SEED + k)`, trains on the first half
/// of each class (rounded down) and tests on the rest. It trains on the
/// oracle's labels at seed `NOISE_SEED + k` and tests against the clean
/// labels.
const SPLITS: u64 = 10;

/// Base seed of the oracle's label noise; split `k` uses `NOISE_SEED + k`.
const NOISE_SEED: u64 = 77;

/// One feature vector and one clean label per strategy that alerted, in
/// strategy-id order.
struct Dataset {
    features: Vec<Vec<f64>>,
    clean: Vec<QoaLabel>,
}

fn build(out: &SimOutput) -> Dataset {
    let mut by_strategy: BTreeMap<StrategyId, Vec<&Alert>> = BTreeMap::new();
    for alert in &out.alerts {
        by_strategy.entry(alert.strategy()).or_default().push(alert);
    }
    let features = by_strategy
        .iter()
        .map(|(&id, alerts)| {
            let strategy = out.catalog.strategy(id).expect("alerting strategy");
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
    let clean = labels(out, 0, 0.0);
    assert!(
        clean.iter().map(|l| l.strategy).eq(by_strategy.into_keys()),
        "the oracle labels exactly the strategies that alerted"
    );
    Dataset { features, clean }
}

/// The oracle's labels of the whole trace as window 0.
fn labels(out: &SimOutput, seed: u64, noise: f64) -> Vec<QoaLabel> {
    FeedbackOracle::new(seed, noise).label_window(0, &out.catalog, &out.alerts, &out.incidents)
}

/// Split `k`'s (train, test) row indices, each sorted.
fn split(truth: &[bool], k: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(HARNESS_SEED + k);
    let (mut train, mut test) = (Vec::new(), Vec::new());
    for class in [true, false] {
        let mut rows: Vec<usize> = (0..truth.len()).filter(|&i| truth[i] == class).collect();
        rows.shuffle(&mut rng);
        let half = rows.len() / 2;
        train.extend_from_slice(&rows[..half]);
        test.extend_from_slice(&rows[half..]);
    }
    train.sort_unstable();
    test.sort_unstable();
    (train, test)
}

/// Held-out AUC of `criterion` over every split, printed as
/// `mean [min, max]`; `n/a` when some split's test half holds one class.
/// `trained[k]` is split `k`'s (noisy) training labels.
fn spread(
    data: &Dataset,
    trained: &[Vec<QoaLabel>],
    criterion: Criterion,
    mask: Option<&[usize]>,
) -> String {
    let slot = criterion as usize;
    let truth: Vec<bool> = data.clean.iter().map(|l| l.labels[slot]).collect();
    let row = |i: usize| -> Vec<f64> {
        match mask {
            None => data.features[i].clone(),
            Some(keep) => keep.iter().map(|&f| data.features[i][f]).collect(),
        }
    };
    let mut aucs = Vec::new();
    for (k, labels) in (0..SPLITS).zip(trained) {
        let (train, test) = split(&truth, k);
        let train_x: Vec<Vec<f64>> = train.iter().map(|&i| row(i)).collect();
        let train_y: Vec<bool> = train.iter().map(|&i| labels[i].labels[slot]).collect();
        let mut model = LogisticRegression::new(train_x[0].len());
        model.fit(&train_x, &train_y, &TrainConfig::default());
        let scores: Vec<f64> = test.iter().map(|&i| model.predict_proba(&row(i))).collect();
        let test_y: Vec<bool> = test.iter().map(|&i| truth[i]).collect();
        match auc(&scores, &test_y) {
            Some(a) => aucs.push(a),
            None => return "n/a".to_owned(),
        }
    }
    let mean = aucs.iter().sum::<f64>() / aucs.len() as f64;
    let min = aucs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = aucs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{mean:.3} [{min:.3}, {max:.3}]")
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let out = if full {
        scenarios::study(HARNESS_SEED).run()
    } else {
        scenarios::mini_study(HARNESS_SEED).run()
    };
    let data = build(&out);
    println!(
        "{} of {} strategies alerted, {} features; labels from FeedbackOracle::label_window \
         over the whole trace as window 0",
        data.clean.len(),
        out.catalog.len(),
        data.features[0].len()
    );
    println!("AUC: mean [min, max] over {SPLITS} label-stratified half splits");
    for (criterion, rule) in Criterion::ALL.into_iter().zip([
        "an alert in the window indicates an incident of its service",
        "not misleading severity, over-sensitive or chatty",
        "title not vague",
    ]) {
        let high = data
            .clean
            .iter()
            .filter(|l| l.labels[criterion as usize])
            .count();
        let counts = format!("{high} high, {} low", data.clean.len() - high);
        println!(
            "  {:<18} {counts:<18} high = {rule}",
            format!("{criterion:?}")
        );
    }

    // The oracle's training labels per noise level, one draw per split.
    let noises = [0.0, 0.1, 0.2, 0.3];
    let trained: Vec<Vec<Vec<QoaLabel>>> = noises
        .iter()
        .map(|&noise| {
            (0..SPLITS)
                .map(|k| labels(&out, NOISE_SEED + k, noise))
                .collect()
        })
        .collect();

    header("held-out AUC vs OCE labelling noise");
    print!("  {:<18}", "criterion");
    for noise in noises {
        print!(" {:>20}", format!("{:.0}%", noise * 100.0));
    }
    println!();
    for criterion in Criterion::ALL {
        print!("  {:<18}", format!("{criterion:?}"));
        for labels in &trained {
            print!(" {:>20}", spread(&data, labels, criterion, None));
        }
        println!();
    }

    header("feature ablation (10% noise): text-only vs full features");
    // Text/static features: title informativeness, SOP completeness,
    // severity rank, kind flags (indices 0..5); behavioural: 5..11.
    let text_only: Vec<usize> = (0..5).collect();
    let behaviour_only: Vec<usize> = (5..11).collect();
    println!(
        "  {:<18} {:>20} {:>20} {:>20}",
        "criterion", "text-only", "behavioural", "full"
    );
    let ten = &trained[1]; // noises[1] == 10%
    for criterion in Criterion::ALL {
        println!(
            "  {:<18} {:>20} {:>20} {:>20}",
            format!("{criterion:?}"),
            spread(&data, ten, criterion, Some(&text_only)),
            spread(&data, ten, criterion, Some(&behaviour_only)),
            spread(&data, ten, criterion, None),
        );
    }
    println!(
        "\nreading: text-only features separate handleability and sit near\n\
         chance on indicativeness and precision; behavioural features do the\n\
         reverse, matching the paper's split between presentation and impact\n\
         criteria. Every criterion's mean AUC falls as the noise rises.\n\
         Precision's low class joins misleading severity with over-sensitive\n\
         and chatty rules, and the behavioural features, not the text ones,\n\
         separate it."
    );
}
