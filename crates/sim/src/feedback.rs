//! The seeded OCE-feedback oracle: replayable QoA labels per window.
//!
//! The streaming QoA loop needs a feedback source — in production that
//! is on-call engineers labelling alerts high/low per criterion; here
//! it is derived from the simulator's *ground truth*:
//!
//! * **indicativeness** — at least one of the strategy's alerts in the
//!   window indicates an incident of its service
//!   ([`alertops_model::indicates_incident`], the rule the feature
//!   extractor uses);
//! * **precision** — the strategy was injected without severity-
//!   corrupting anti-patterns (no misleading severity, over-sensitive
//!   threshold, or chatty rule);
//! * **handleability** — the strategy has an SOP and its title is not
//!   vague.
//!
//! Real OCEs mislabel; a `noise` probability flips each verdict,
//! seeded per window so the label stream is a pure function of
//! `(seed, window_index, window contents)` — replay it anywhere and
//! the continually-updated model lands on identical weights.

use std::collections::BTreeSet;

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
    /// run; `catalog` supplies the injected anti-pattern profiles and
    /// SOPs the verdicts are derived from.
    #[must_use]
    pub fn label_window(
        &self,
        window_index: u64,
        catalog: &StrategyCatalog,
        window: &[Alert],
        incidents: &[Incident],
    ) -> Vec<QoaLabel> {
        let alerted: BTreeSet<StrategyId> = window.iter().map(Alert::strategy).collect();
        let mut labels = Vec::with_capacity(alerted.len());
        for id in alerted {
            let Some(strategy) = catalog.strategies().iter().find(|s| s.id() == id) else {
                // Unknown strategy: no ground truth, no feedback.
                continue;
            };
            let profile = catalog.profile(id);
            let indicative = window.iter().any(|alert| {
                alert.strategy() == id
                    && indicates_incident(incidents, strategy.service(), alert.raised_at())
            });
            let precise = !(profile.misleading_severity || profile.oversensitive || profile.chatty);
            let handleable = catalog.sop(id).is_some() && !profile.vague_title;
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
    use super::*;
    use crate::scenarios;

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
        let out = scenarios::quickstart(5).run();
        let oracle = FeedbackOracle::new(0, 0.0);
        let labels = oracle.label_window(0, &out.catalog, &out.alerts, &out.incidents);
        for label in &labels {
            let profile = out.catalog.profile(label.strategy);
            if profile.misleading_severity || profile.oversensitive || profile.chatty {
                assert!(!label.labels[1], "corrupted strategy labelled precise");
            } else {
                assert!(label.labels[1]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn noise_outside_unit_interval_rejected() {
        let _ = FeedbackOracle::new(0, 1.5);
    }
}
