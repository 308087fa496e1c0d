//! Property-based tests over the QoA learning stack.

use proptest::prelude::*;

use alertops_qoa::{auc, LogisticRegression, TrainConfig};

/// Deep sweep under `ALERTOPS_TEST_FULL=1`; a faster default keeps the
/// tier-1 wall clock flat.
fn cases(full: u32, quick: u32) -> u32 {
    if std::env::var("ALERTOPS_TEST_FULL").as_deref() == Ok("1") {
        full
    } else {
        quick
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64, 24)))]

    #[test]
    fn logistic_outputs_are_probabilities(
        weights_seed in prop::collection::vec(-5.0f64..5.0, 1..8),
        x in prop::collection::vec(-10.0f64..10.0, 1..8),
    ) {
        // Train a model briefly on arbitrary data to move the weights,
        // then check outputs stay in (0, 1).
        let dim = weights_seed.len().min(x.len());
        let mut model = LogisticRegression::new(dim);
        let data = vec![weights_seed[..dim].to_vec(), x[..dim].to_vec()];
        let labels = vec![true, false];
        model.fit(&data, &labels, &TrainConfig { epochs: 10, ..TrainConfig::default() });
        let p = model.predict_proba(&x[..dim]);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(p.is_finite());
    }

    #[test]
    fn training_never_increases_loss_dramatically(
        points in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, any::<bool>()), 8..40),
    ) {
        let x: Vec<Vec<f64>> = points.iter().map(|&(a, b, _)| vec![a, b]).collect();
        let y: Vec<bool> = points.iter().map(|&(_, _, l)| l).collect();
        let mut model = LogisticRegression::new(2);
        let before = model.log_loss(&x, &y);
        model.fit(&x, &y, &TrainConfig::default());
        let after = model.log_loss(&x, &y);
        // On arbitrary (possibly unlearnable) data, training must at
        // least not blow the loss up beyond the trivial classifier's.
        prop_assert!(after <= before + 0.1, "loss exploded: {} -> {}", before, after);
    }

    #[test]
    fn auc_bounded_and_invariant_to_monotone_transform(
        scored in prop::collection::vec((0.0f64..1.0, any::<bool>()), 2..50),
    ) {
        let scores: Vec<f64> = scored.iter().map(|&(s, _)| s).collect();
        let truth: Vec<bool> = scored.iter().map(|&(_, t)| t).collect();
        if let Some(a) = auc(&scores, &truth) {
            prop_assert!((0.0..=1.0).contains(&a));
            // Strictly monotone transform preserves ranking, hence AUC.
            let transformed: Vec<f64> = scores.iter().map(|s| (3.0 * s).exp()).collect();
            let b = auc(&transformed, &truth).unwrap();
            prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    }

    #[test]
    fn auc_of_inverted_scores_is_complement(
        scored in prop::collection::vec((0.0f64..1.0, any::<bool>()), 2..50),
    ) {
        let scores: Vec<f64> = scored.iter().map(|&(s, _)| s).collect();
        let truth: Vec<bool> = scored.iter().map(|&(_, t)| t).collect();
        if let Some(a) = auc(&scores, &truth) {
            let inverted: Vec<f64> = scores.iter().map(|s| 1.0 - s).collect();
            let b = auc(&inverted, &truth).unwrap();
            prop_assert!((a + b - 1.0).abs() < 1e-9);
        }
    }
}
