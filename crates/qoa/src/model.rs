//! The learned QoA model: one classifier per criterion.

use serde::{Deserialize, Serialize};

use alertops_model::{Alert, AlertStrategy, Incident, Sop, StrategyId, QOA_CRITERIA};
use alertops_text::title_report;

use crate::features::{extract_features, FEATURE_NAMES};
use crate::logreg::{LogisticRegression, TrainConfig};

/// The three QoA criteria as a selectable axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Criterion {
    /// Indicates user-visible failures.
    Indicativeness,
    /// Severity reflects the anomaly.
    Precision,
    /// Quickly handleable.
    Handleability,
}

impl Criterion {
    /// All criteria.
    pub const ALL: [Criterion; 3] = [
        Criterion::Indicativeness,
        Criterion::Precision,
        Criterion::Handleability,
    ];
}

/// A trainable QoA model: extracts features per strategy and maintains
/// one logistic classifier per criterion, each predicting P(high
/// quality on that criterion).
#[derive(Debug)]
pub struct QoaModel {
    /// One classifier per criterion, indexed by `criterion as usize`
    /// (the declaration order, which is [`Criterion::ALL`]'s).
    classifiers: [LogisticRegression; QOA_CRITERIA],
}

impl Default for QoaModel {
    fn default() -> Self {
        Self::new()
    }
}

impl QoaModel {
    /// Creates an untrained model.
    #[must_use]
    pub fn new() -> Self {
        Self {
            classifiers: Criterion::ALL.map(|_| LogisticRegression::new(FEATURE_NAMES.len())),
        }
    }

    /// Extracts the model's feature vector for one strategy.
    #[must_use]
    pub fn features(
        &self,
        strategy: &AlertStrategy,
        sop: Option<&Sop>,
        alerts: &[&Alert],
        incidents: &[Incident],
    ) -> Vec<f64> {
        let title_score = title_report(strategy.title_template()).score;
        extract_features(strategy, title_score, sop, alerts, incidents)
    }

    /// Trains the classifier of one criterion from feature vectors and
    /// OCE labels (`true` = high quality).
    pub fn fit(
        &mut self,
        criterion: Criterion,
        x: &[Vec<f64>],
        labels: &[bool],
        config: &TrainConfig,
    ) {
        self.classifiers[criterion as usize].fit(x, labels, config);
    }

    /// Continual update from a fresh batch of labels (Fig. 6 loop).
    pub fn absorb(
        &mut self,
        criterion: Criterion,
        x: &[Vec<f64>],
        labels: &[bool],
        learning_rate: f64,
    ) {
        self.classifiers[criterion as usize].partial_fit(x, labels, learning_rate, 1e-4);
    }

    /// P(high quality) on one criterion for a feature vector.
    #[must_use]
    pub fn predict_proba(&self, criterion: Criterion, x: &[f64]) -> f64 {
        self.classifiers[criterion as usize].predict_proba(x)
    }

    /// Ranks strategies by predicted quality on a criterion, worst
    /// first — the automatic anti-pattern shortlist of Fig. 6.
    #[must_use]
    pub fn rank_worst_first(
        &self,
        criterion: Criterion,
        features_by_strategy: &[(StrategyId, Vec<f64>)],
    ) -> Vec<(StrategyId, f64)> {
        let mut scored: Vec<(StrategyId, f64)> = features_by_strategy
            .iter()
            .map(|(id, x)| (*id, self.predict_proba(criterion, x)))
            .collect();
        // A sigmoid of finite features lies in [0, 1], never -0.0, so
        // this is the `partial_cmp` order (and a NaN no longer panics).
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic features where quality correlates with feature 0.
    fn dataset() -> (Vec<Vec<f64>>, Vec<bool>) {
        let dim = crate::features::FEATURE_NAMES.len();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let good = i % 2 == 0;
            let mut v = vec![0.5; dim];
            v[0] = if good { 0.9 } else { 0.1 };
            x.push(v);
            y.push(good);
        }
        (x, y)
    }

    #[test]
    fn fit_and_predict_per_criterion() {
        let (x, y) = dataset();
        let mut model = QoaModel::new();
        model.fit(Criterion::Handleability, &x, &y, &TrainConfig::default());
        let mut good = vec![0.5; x[0].len()];
        good[0] = 0.95;
        let mut bad = good.clone();
        bad[0] = 0.05;
        assert!(model.predict_proba(Criterion::Handleability, &good) > 0.7);
        assert!(model.predict_proba(Criterion::Handleability, &bad) < 0.3);
        // Untrained criterion stays at 0.5.
        assert!((model.predict_proba(Criterion::Precision, &good) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn absorb_moves_the_model() {
        let (x, y) = dataset();
        let mut model = QoaModel::new();
        let probe = {
            let mut v = vec![0.5; x[0].len()];
            v[0] = 0.95;
            v
        };
        let before = model.predict_proba(Criterion::Indicativeness, &probe);
        for _ in 0..50 {
            model.absorb(Criterion::Indicativeness, &x, &y, 0.1);
        }
        let after = model.predict_proba(Criterion::Indicativeness, &probe);
        assert!(after > before);
    }

    #[test]
    fn ranking_puts_worst_first() {
        let (x, y) = dataset();
        let mut model = QoaModel::new();
        model.fit(Criterion::Precision, &x, &y, &TrainConfig::default());
        let items: Vec<(StrategyId, Vec<f64>)> = x
            .iter()
            .enumerate()
            .map(|(i, v)| (StrategyId(i as u64), v.clone()))
            .collect();
        let ranked = model.rank_worst_first(Criterion::Precision, &items);
        assert_eq!(ranked.len(), x.len());
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // The worst-ranked strategy should be a genuinely bad one (odd id).
        assert_eq!(ranked[0].0 .0 % 2, 1);
    }
}
