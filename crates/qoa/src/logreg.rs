//! Logistic regression, from scratch.
//!
//! Plain SGD with L2 regularization, deterministic shuffling, and a
//! `partial_fit` so the model can "be continuously updated so that it
//! can automatically absorb the human knowledge" (§IV) as OCE labels
//! stream in.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Full passes over the data.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 penalty strength.
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            learning_rate: 0.1,
            l2: 1e-4,
            seed: 13,
        }
    }
}

/// A binary logistic-regression classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Creates a zero-initialized model over `dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self {
            weights: vec![0.0; dim],
            bias: 0.0,
        }
    }

    /// Rebuilds a model from checkpointed state — the inverse of
    /// [`weights`](Self::weights) + [`bias`](Self::bias). Used by the
    /// online QoA checkpoint codec, so restoration is bit-exact by
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    #[must_use]
    pub fn from_parts(weights: Vec<f64>, bias: f64) -> Self {
        assert!(!weights.is_empty(), "feature dimension must be positive");
        Self { weights, bias }
    }

    /// The learned weights (index-aligned with the feature vector).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The learned bias.
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// P(y = 1 | x).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    #[must_use]
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature dimension mismatch");
        let z: f64 = self
            .weights
            .iter()
            .zip(x)
            .map(|(w, xi)| w * xi)
            .sum::<f64>()
            + self.bias;
        sigmoid(z)
    }

    /// Mean log-loss over a dataset (lower is better).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch between `x` and `y`.
    #[must_use]
    pub fn log_loss(&self, x: &[Vec<f64>], y: &[bool]) -> f64 {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        if x.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (xi, &yi) in x.iter().zip(y) {
            let p = self.predict_proba(xi).clamp(1e-12, 1.0 - 1e-12);
            total -= if yi { p.ln() } else { (1.0 - p).ln() };
        }
        total / x.len() as f64
    }

    /// Trains from scratch (equivalent to repeated
    /// [`partial_fit`](Self::partial_fit) with per-epoch shuffling).
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[bool], config: &TrainConfig) {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..x.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                self.sgd_step(&x[i], y[i], config.learning_rate, config.l2);
            }
        }
    }

    /// One incremental pass over a fresh labelled batch — the continual
    /// update of the paper's Fig. 6 loop.
    pub fn partial_fit(&mut self, x: &[Vec<f64>], y: &[bool], learning_rate: f64, l2: f64) {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        for (xi, &yi) in x.iter().zip(y) {
            self.sgd_step(xi, yi, learning_rate, l2);
        }
    }

    fn sgd_step(&mut self, x: &[f64], y: bool, lr: f64, l2: f64) {
        let error = self.predict_proba(x) - f64::from(y);
        for (w, xi) in self.weights.iter_mut().zip(x) {
            *w -= lr * (error * xi + l2 * *w);
        }
        self.bias -= lr * error;
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = x0 + x1 > 1, with margin.
    fn dataset() -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let a = f64::from(i) / 10.0;
                let b = f64::from(j) / 10.0;
                if (a + b - 1.0).abs() < 0.15 {
                    continue; // margin
                }
                x.push(vec![a, b]);
                y.push(a + b > 1.0);
            }
        }
        (x, y)
    }

    #[test]
    fn probabilities_are_probabilities() {
        let model = LogisticRegression::new(3);
        for x in [[0.0, 0.0, 0.0], [1.0, -5.0, 100.0], [-100.0, 0.0, 0.0]] {
            let p = model.predict_proba(&x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn training_reduces_loss_and_separates() {
        let (x, y) = dataset();
        let mut model = LogisticRegression::new(2);
        let before = model.log_loss(&x, &y);
        model.fit(&x, &y, &TrainConfig::default());
        let after = model.log_loss(&x, &y);
        assert!(after < before, "loss did not drop: {before} -> {after}");
        // High training accuracy on separable data.
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| (model.predict_proba(xi) >= 0.5) == yi)
            .count();
        assert!(
            correct as f64 / x.len() as f64 > 0.95,
            "accuracy {}/{}",
            correct,
            x.len()
        );
    }

    #[test]
    fn deterministic_training() {
        let (x, y) = dataset();
        let mut a = LogisticRegression::new(2);
        let mut b = LogisticRegression::new(2);
        a.fit(&x, &y, &TrainConfig::default());
        b.fit(&x, &y, &TrainConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn partial_fit_improves_on_new_data() {
        let (x, y) = dataset();
        let mut model = LogisticRegression::new(2);
        model.fit(
            &x,
            &y,
            &TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            },
        );
        let before = model.log_loss(&x, &y);
        for _ in 0..20 {
            model.partial_fit(&x, &y, 0.1, 1e-4);
        }
        let after = model.log_loss(&x, &y);
        assert!(after < before);
    }

    #[test]
    fn l2_shrinks_weights() {
        let (x, y) = dataset();
        let mut light = LogisticRegression::new(2);
        let mut heavy = LogisticRegression::new(2);
        light.fit(
            &x,
            &y,
            &TrainConfig {
                l2: 0.0,
                ..TrainConfig::default()
            },
        );
        heavy.fit(
            &x,
            &y,
            &TrainConfig {
                l2: 0.5,
                ..TrainConfig::default()
            },
        );
        let norm = |m: &LogisticRegression| -> f64 {
            m.weights().iter().map(|w| w * w).sum::<f64>().sqrt()
        };
        assert!(norm(&heavy) < norm(&light));
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        assert!(sigmoid(1_000.0) <= 1.0);
        assert!(sigmoid(-1_000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let model = LogisticRegression::new(2);
        let _ = model.predict_proba(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dim_rejected() {
        let _ = LogisticRegression::new(0);
    }

    #[test]
    fn empty_log_loss_is_zero() {
        let model = LogisticRegression::new(2);
        assert_eq!(model.log_loss(&[], &[]), 0.0);
    }

    mod serde_bit_exact {
        use proptest::prelude::*;

        use super::*;

        /// Any u64 bit pattern, coerced to a *finite* f64 by zeroing
        /// the exponent when it encodes an inf/NaN (keeps sign and
        /// mantissa, lands on a subnormal).
        fn finite(bits: u64) -> f64 {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF)
            }
        }

        proptest! {
            /// Model state is checkpointed into WAL segments and
            /// snapshots; a JSON round trip must preserve every weight
            /// bit-for-bit (serde_json prints the shortest f64
            /// representation that parses back to the same value, so
            /// this holds for all finite doubles — this test is the
            /// fence around that assumption).
            #[test]
            fn json_roundtrip_is_bit_exact(
                weight_bits in proptest::collection::vec(0u64..u64::MAX, 1..16),
                bias_bits in 0u64..u64::MAX,
            ) {
                let weights: Vec<f64> = weight_bits.iter().copied().map(finite).collect();
                let model = LogisticRegression::from_parts(weights, finite(bias_bits));
                let json = serde_json::to_string(&model).expect("serializes");
                let back: LogisticRegression =
                    serde_json::from_str(&json).expect("deserializes");
                for (a, b) in model.weights().iter().zip(back.weights()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert_eq!(model.bias().to_bits(), back.bias().to_bits());
            }
        }
    }
}
