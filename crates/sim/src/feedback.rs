//! The seeded OCE-feedback oracle: replayable QoA labels per window.
//!
//! The QoA loop needs a feedback source — in production that is
//! on-call engineers labelling alerts high/low per criterion; here it
//! is derived from the simulator's *ground truth*.
//! [`FeedbackOracle::label_window`] is the one QoA label rule: the
//! online loop learns from it window by window, and the offline
//! `qoa_eval` harness, the `qoa_training` example and the learned-QoA
//! tests label a whole trace through it as window 0. It reads §IV's
//! three criteria as:
//!
//! * **indicativeness** — at least one of the strategy's alerts in the
//!   window indicates an incident of its service
//!   ([`alertops_model::indicates_incident`], the rule the feature
//!   extractor uses);
//! * **precision** — the strategy was injected without severity-
//!   corrupting anti-patterns (no misleading severity, over-sensitive
//!   threshold, or chatty rule);
//! * **handleability** — the strategy's title is not vague (every
//!   catalog row carries a SOP).
//!
//! Real OCEs mislabel; a `noise` probability flips each verdict,
//! seeded per window so the label stream is a pure function of
//! `(seed, window_index, window contents)` — replay it anywhere and
//! the continually-updated model lands on identical weights. That
//! per-window flip is the one label-noise model.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use alertops_model::{indicates_incident, Alert, Incident, QoaLabel, StrategyId, QOA_CRITERIA};

use crate::strategies::StrategyCatalog;

/// A seeded, replayable source of per-window OCE feedback.
#[derive(Debug, Clone)]
pub struct FeedbackOracle {
    seed: u64,
    noise: f64,
}

impl FeedbackOracle {
    /// Creates an oracle. `noise` is the per-verdict flip probability.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is outside `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, noise: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&noise),
            "noise must be a probability, got {noise}"
        );
        Self { seed, noise }
    }

    /// Labels of one window: one [`QoaLabel`] per strategy that alerted
    /// in `window`, sorted by strategy id.
    ///
    /// `incidents` is the full ground-truth incident history of the
    /// run; `catalog` supplies the injected anti-pattern profiles the
    /// verdicts are derived from.
    #[must_use]
    pub fn label_window(
        &self,
        window_index: u64,
        catalog: &StrategyCatalog,
        window: &[Alert],
        incidents: &[Incident],
    ) -> Vec<QoaLabel> {
        // One pass over the window: each alerting strategy's
        // indicativeness verdict, looked up only until one of its alerts
        // indicates an incident.
        let mut indicative: BTreeMap<StrategyId, bool> = BTreeMap::new();
        for alert in window {
            let verdict = indicative.entry(alert.strategy()).or_insert(false);
            if !*verdict {
                if let Some(strategy) = catalog.strategy(alert.strategy()) {
                    *verdict = indicates_incident(incidents, strategy.service(), alert.raised_at());
                }
            }
        }
        let mut labels = Vec::with_capacity(indicative.len());
        for (id, indicative) in indicative {
            if catalog.strategy(id).is_none() {
                // Unknown strategy: no ground truth, no feedback.
                continue;
            }
            let profile = catalog.profile(id);
            let precise = !(profile.misleading_severity || profile.oversensitive || profile.chatty);
            let handleable = !profile.vague_title;
            labels.push(QoaLabel::new(id, [indicative, precise, handleable]));
        }
        self.flip(window_index, labels)
    }

    /// Applies the per-window label noise: each verdict flips with
    /// probability `noise`, drawn from an RNG seeded by
    /// `(oracle seed, window index)` so replays are exact.
    fn flip(&self, window_index: u64, mut labels: Vec<QoaLabel>) -> Vec<QoaLabel> {
        if self.noise == 0.0 {
            return labels;
        }
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ window_index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for label in &mut labels {
            for slot in 0..QOA_CRITERIA {
                if rng.gen_bool(self.noise) {
                    label.labels[slot] = !label.labels[slot];
                }
            }
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::scenarios;

    /// The rule as first written, kept as the reference: one scan of
    /// the whole window per alerting strategy, before the noise.
    fn per_strategy_labels(
        catalog: &StrategyCatalog,
        window: &[Alert],
        incidents: &[Incident],
    ) -> Vec<QoaLabel> {
        let alerted: BTreeSet<StrategyId> = window.iter().map(Alert::strategy).collect();
        let mut labels = Vec::new();
        for id in alerted {
            let Some(strategy) = catalog.strategy(id) else {
                continue;
            };
            let profile = catalog.profile(id);
            let indicative = window.iter().any(|alert| {
                alert.strategy() == id
                    && indicates_incident(incidents, strategy.service(), alert.raised_at())
            });
            let precise = !(profile.misleading_severity || profile.oversensitive || profile.chatty);
            let handleable = !profile.vague_title;
            labels.push(QoaLabel::new(id, [indicative, precise, handleable]));
        }
        labels
    }

    #[test]
    fn one_pass_labels_match_the_per_strategy_rule() {
        let out = scenarios::mini_study(5).run();
        // Six-hour windows, plus the whole trace as window 0, with and
        // without noise: every verdict and every flip is the reference's.
        let mut windows: Vec<&[Alert]> = out
            .alerts
            .chunk_by(|a, b| a.raised_at().as_secs() / 21_600 == b.raised_at().as_secs() / 21_600)
            .collect();
        windows.push(&out.alerts);
        assert!(windows.len() > 8, "{} windows", windows.len());
        let mut indicative = 0;
        for noise in [0.0, 0.1] {
            let oracle = FeedbackOracle::new(7, noise);
            for (index, window) in (0u64..).zip(&windows) {
                let reference = oracle.flip(
                    index,
                    per_strategy_labels(&out.catalog, window, &out.incidents),
                );
                let labels = oracle.label_window(index, &out.catalog, window, &out.incidents);
                assert_eq!(labels, reference, "window {index}, noise {noise}");
                indicative += labels.iter().filter(|l| l.labels[0]).count();
            }
        }
        assert!(indicative > 0, "some window indicates an incident");
    }

    #[test]
    fn labels_are_sorted_deduped_and_deterministic() {
        let out = scenarios::quickstart(5).run();
        let oracle = FeedbackOracle::new(11, 0.1);
        let window = &out.alerts[..out.alerts.len().min(300)];
        let a = oracle.label_window(0, &out.catalog, window, &out.incidents);
        let b = oracle.label_window(0, &out.catalog, window, &out.incidents);
        assert_eq!(a, b, "same (seed, window) must replay identically");
        assert!(!a.is_empty());
        for pair in a.windows(2) {
            assert!(pair[0].strategy < pair[1].strategy, "sorted, unique");
        }
    }

    #[test]
    fn noise_perturbs_and_zero_noise_is_ground_truth() {
        let out = scenarios::quickstart(5).run();
        let window = &out.alerts[..out.alerts.len().min(300)];
        let clean =
            FeedbackOracle::new(11, 0.0).label_window(3, &out.catalog, window, &out.incidents);
        let noisy =
            FeedbackOracle::new(11, 0.5).label_window(3, &out.catalog, window, &out.incidents);
        assert_eq!(clean.len(), noisy.len(), "noise flips verdicts, not rows");
        assert_ne!(clean, noisy, "50% noise must disturb some verdict");
        // Different windows draw different noise.
        let other =
            FeedbackOracle::new(11, 0.5).label_window(4, &out.catalog, window, &out.incidents);
        assert_ne!(noisy, other);
    }

    #[test]
    fn clean_strategies_score_high_on_ground_truth() {
        let out = scenarios::mini_study(5).run();
        let oracle = FeedbackOracle::new(0, 0.0);
        let labels = oracle.label_window(0, &out.catalog, &out.alerts, &out.incidents);
        assert_eq!(
            labels.len(),
            out.alerts
                .iter()
                .map(Alert::strategy)
                .collect::<BTreeSet<_>>()
                .len(),
            "one label per alerting strategy"
        );
        assert_eq!(
            labels,
            per_strategy_labels(&out.catalog, &out.alerts, &out.incidents)
        );
        let mut seen = [[false; 2]; QOA_CRITERIA];
        for label in &labels {
            for (slot, &verdict) in label.labels.iter().enumerate() {
                seen[slot][usize::from(verdict)] = true;
            }
        }
        assert_eq!(
            seen, [[true; 2]; QOA_CRITERIA],
            "each column takes both values"
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn noise_outside_unit_interval_rejected() {
        let _ = FeedbackOracle::new(0, 1.5);
    }
}
