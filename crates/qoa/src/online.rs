//! The online QoA loop: continual scoring at window boundaries.
//!
//! The paper's Fig. 6 loop wants the QoA model "continuously updated so
//! that it can automatically absorb the human knowledge" (§IV). This
//! module is the streaming half of that loop: an [`OnlineQoaModel`]
//! holds one [`LogisticRegression`] per [`Criterion`]
//! and, once per window, absorbs the window's OCE labels via
//! `partial_fit`, re-scores every strategy that alerted, and folds the
//! scores into per-strategy EMAs that drive governance:
//!
//! * strategies whose EMA sinks below `demote_below` are **demoted** —
//!   the governor adds a blocking rule for them;
//! * strategies whose EMA rises above `escalate_above` are **promoted**
//!   — their alerts ride the explicit `escalated` lane past storm
//!   suppression.
//!
//! Everything here is a pure function of the input streams: samples and
//! labels arrive sorted by strategy id, updates run in that order, EMAs
//! live in a `BTreeMap`, and the whole model state round-trips through
//! a bit-exact [`QoaCheckpoint`] so a cluster restart replays to
//! identical weights.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use alertops_model::{QoaLabel, StrategyId, QOA_CRITERIA};

use crate::features::FEATURE_NAMES;
use crate::logreg::LogisticRegression;

/// The three QoA criteria, in slot order: `criterion as usize` indexes
/// [`QoaLabel::labels`], [`StrategyQoa::scores`] and the model's
/// classifiers, and [`Criterion::ALL`] lists them in that order.
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
    /// All criteria, in slot order.
    pub const ALL: [Criterion; QOA_CRITERIA] = [
        Criterion::Indicativeness,
        Criterion::Precision,
        Criterion::Handleability,
    ];
}

/// Hyperparameters of the streaming QoA loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoaFeedbackConfig {
    /// `partial_fit` learning rate per window.
    pub learning_rate: f64,
    /// L2 penalty applied during the continual updates.
    pub l2: f64,
    /// EMA smoothing factor for per-strategy overall scores.
    pub ema_alpha: f64,
    /// EMA below which a strategy is demoted (blocked).
    pub demote_below: f64,
    /// EMA above which a strategy's alerts are escalated past storm
    /// suppression.
    pub escalate_above: f64,
}

impl Default for QoaFeedbackConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            l2: 1e-4,
            ema_alpha: 0.2,
            demote_below: 0.35,
            escalate_above: 0.8,
        }
    }
}

/// One strategy's feature vector for one window — what a shard emits
/// upward so the merge point's single sequential model can score it.
///
/// Sample streams are always sorted by [`QoaSample::strategy`] within a
/// window and carry at most one entry per strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QoaSample {
    /// The strategy the features describe.
    pub strategy: StrategyId,
    /// Feature vector in [`FEATURE_NAMES`] order.
    pub features: Vec<f64>,
}

/// One strategy's scores after a window update.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyQoa {
    /// The scored strategy.
    pub strategy: StrategyId,
    /// P(high quality) per criterion, in [`Criterion::ALL`] order.
    pub scores: [f64; QOA_CRITERIA],
    /// The strategy's overall-quality EMA after this window.
    pub ema: f64,
}

/// What the model concluded at one window boundary — published in the
/// window's `GovernanceSnapshot` so operators can watch the loop learn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QoaWindowReport {
    /// Labels absorbed (matched to a sample) this window.
    pub absorbed: usize,
    /// Every sampled strategy, scored with the post-update model,
    /// sorted by strategy id.
    pub scored: Vec<StrategyQoa>,
    /// Strategies whose EMA is below the demotion threshold.
    pub demoted: Vec<StrategyId>,
    /// Strategies whose EMA is above the escalation threshold.
    pub promoted: Vec<StrategyId>,
    /// FNV-1a digest of the full model state (weights, biases, EMAs,
    /// window count) — the cheap byte-identity probe differential
    /// tests compare across topologies.
    pub model_digest: u64,
}

/// The governance-facing verdicts derived from the current EMAs —
/// pushed down to shards so window `N + 1` governs with what window
/// `N` taught the model.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QoaVerdicts {
    /// Strategies to block (low quality).
    pub demoted: Vec<StrategyId>,
    /// Strategies whose alerts escalate past storm suppression.
    pub promoted: Vec<StrategyId>,
}

impl QoaVerdicts {
    /// True when no strategy is demoted or promoted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.demoted.is_empty() && self.promoted.is_empty()
    }
}

/// The continually-updated QoA model: one classifier per criterion
/// plus the per-strategy quality EMAs.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineQoaModel {
    config: QoaFeedbackConfig,
    models: [LogisticRegression; QOA_CRITERIA],
    emas: BTreeMap<StrategyId, f64>,
    windows_absorbed: u64,
}

impl OnlineQoaModel {
    /// Creates a fresh (all-zero-weights) model over the standard
    /// feature set.
    #[must_use]
    pub fn new(config: QoaFeedbackConfig) -> Self {
        let dim = FEATURE_NAMES.len();
        Self {
            config,
            models: [
                LogisticRegression::new(dim),
                LogisticRegression::new(dim),
                LogisticRegression::new(dim),
            ],
            emas: BTreeMap::new(),
            windows_absorbed: 0,
        }
    }

    /// Absorbs one window of feedback and re-scores its strategies.
    ///
    /// `samples` and `labels` must each be sorted by strategy id with
    /// at most one entry per strategy (the producers guarantee this).
    /// Labels without a matching sample are ignored — the strategy did
    /// not alert in this window, so there is nothing to score the
    /// feedback against.
    ///
    /// The update is strictly sequential: a merge-join pairs samples
    /// with labels, each criterion's classifier takes one `partial_fit`
    /// pass over the matched pairs in strategy order, and only then is
    /// every sample scored with the *post-update* model. Replaying the
    /// same streams therefore reproduces the same weights bit-for-bit.
    pub fn observe_window(
        &mut self,
        samples: &[QoaSample],
        labels: &[QoaLabel],
    ) -> QoaWindowReport {
        // Merge-join samples with labels (both sorted by strategy id).
        let mut matched: Vec<(&QoaSample, &QoaLabel)> = Vec::new();
        let mut label_iter = labels.iter().peekable();
        for sample in samples {
            while label_iter
                .peek()
                .is_some_and(|l| l.strategy < sample.strategy)
            {
                label_iter.next();
            }
            if let Some(label) = label_iter.peek() {
                if label.strategy == sample.strategy {
                    matched.push((sample, label));
                }
            }
        }

        // One in-order partial_fit pass per criterion.
        if !matched.is_empty() {
            let xs: Vec<Vec<f64>> = matched.iter().map(|(s, _)| s.features.clone()).collect();
            for (slot, model) in self.models.iter_mut().enumerate() {
                let ys: Vec<bool> = matched.iter().map(|(_, l)| l.labels[slot]).collect();
                model.partial_fit(&xs, &ys, self.config.learning_rate, self.config.l2);
            }
        }

        // Score every sampled strategy with the post-update model and
        // fold into the EMAs.
        let mut scored = Vec::with_capacity(samples.len());
        for sample in samples {
            let mut scores = [0.0; QOA_CRITERIA];
            for (slot, model) in self.models.iter().enumerate() {
                scores[slot] = model.predict_proba(&sample.features);
            }
            let overall = scores.iter().sum::<f64>() / QOA_CRITERIA as f64;
            let ema = self.emas.entry(sample.strategy).or_insert(0.5);
            *ema += self.config.ema_alpha * (overall - *ema);
            scored.push(StrategyQoa {
                strategy: sample.strategy,
                scores,
                ema: *ema,
            });
        }
        self.windows_absorbed += 1;

        let QoaVerdicts { demoted, promoted } = self.verdicts();
        QoaWindowReport {
            absorbed: matched.len(),
            scored,
            demoted,
            promoted,
            model_digest: self.digest(),
        }
    }

    /// The current governance verdicts, derived from all tracked EMAs
    /// (sorted by strategy id).
    #[must_use]
    pub fn verdicts(&self) -> QoaVerdicts {
        let mut verdicts = QoaVerdicts::default();
        for (&strategy, &ema) in &self.emas {
            if ema < self.config.demote_below {
                verdicts.demoted.push(strategy);
            } else if ema > self.config.escalate_above {
                verdicts.promoted.push(strategy);
            }
        }
        verdicts
    }

    /// FNV-1a digest over every weight bit, bias bit, EMA entry and
    /// the window count — equal digests mean bit-identical models.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bits: u64| {
            for byte in bits.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        for model in &self.models {
            for w in model.weights() {
                eat(w.to_bits());
            }
            eat(model.bias().to_bits());
        }
        for (strategy, ema) in &self.emas {
            eat(strategy.0);
            eat(ema.to_bits());
        }
        eat(self.windows_absorbed);
        hash
    }

    /// Captures the full model state for journaling.
    #[must_use]
    pub fn checkpoint(&self) -> QoaCheckpoint {
        QoaCheckpoint {
            windows_absorbed: self.windows_absorbed,
            models: self
                .models
                .iter()
                .map(|m| (m.weights().to_vec(), m.bias()))
                .collect(),
            emas: self.emas.iter().map(|(&s, &e)| (s, e)).collect(),
        }
    }

    /// Rebuilds a model from a checkpoint. Returns `None` when the
    /// checkpoint does not carry exactly one classifier per criterion
    /// over the standard feature set.
    #[must_use]
    pub fn from_checkpoint(config: QoaFeedbackConfig, checkpoint: &QoaCheckpoint) -> Option<Self> {
        if checkpoint
            .models
            .iter()
            .any(|(w, _)| w.len() != FEATURE_NAMES.len())
        {
            return None;
        }
        let models: Vec<LogisticRegression> = checkpoint
            .models
            .iter()
            .map(|(w, b)| LogisticRegression::from_parts(w.clone(), *b))
            .collect();
        Some(Self {
            config,
            // A checkpoint of any other model count is malformed.
            models: models.try_into().ok()?,
            emas: checkpoint.emas.iter().copied().collect(),
            windows_absorbed: checkpoint.windows_absorbed,
        })
    }
}

/// A bit-exact snapshot of an [`OnlineQoaModel`]'s learned state.
///
/// The binary encoding ([`to_bytes`](Self::to_bytes) /
/// [`from_bytes`](Self::from_bytes)) ships every `f64` as its raw IEEE
/// bits, so WAL round trips cannot drift; the serde derive is the
/// human-readable view for status endpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QoaCheckpoint {
    /// Windows absorbed when the checkpoint was taken.
    pub windows_absorbed: u64,
    /// Per-criterion `(weights, bias)` in [`Criterion::ALL`] order.
    pub models: Vec<(Vec<f64>, f64)>,
    /// Per-strategy quality EMAs, sorted by strategy id.
    pub emas: Vec<(StrategyId, f64)>,
}

/// Version byte of the binary checkpoint encoding.
const CHECKPOINT_VERSION: u8 = 1;

impl QoaCheckpoint {
    /// Encodes the checkpoint as raw little-endian bytes (every `f64`
    /// as its IEEE bit pattern).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![CHECKPOINT_VERSION];
        out.extend_from_slice(&self.windows_absorbed.to_le_bytes());
        // `checkpoint()` holds QOA_CRITERIA (3) models, each of
        // FEATURE_NAMES.len() weights, so both counts fit.
        out.push(u8::try_from(self.models.len()).expect("few criteria"));
        for (weights, bias) in &self.models {
            out.extend_from_slice(
                &u32::try_from(weights.len())
                    .expect("small feature dim")
                    .to_le_bytes(),
            );
            for w in weights {
                out.extend_from_slice(&w.to_bits().to_le_bytes());
            }
            out.extend_from_slice(&bias.to_bits().to_le_bytes());
        }
        // 2^32 EMA entries would first hold 64 GiB of (id, ema) pairs.
        out.extend_from_slice(
            &u32::try_from(self.emas.len())
                .expect("strategy count fits u32")
                .to_le_bytes(),
        );
        for (strategy, ema) in &self.emas {
            out.extend_from_slice(&strategy.0.to_le_bytes());
            out.extend_from_slice(&ema.to_bits().to_le_bytes());
        }
        out
    }

    /// Decodes [`to_bytes`](Self::to_bytes) output. Returns `None` on
    /// any malformed input (wrong version, truncation, trailing bytes).
    /// A declared length reserves no more than the remaining bytes can
    /// hold, so a corrupt count fails on its first missing entry instead
    /// of asking the allocator for it.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        /// The next `N` bytes, by value; `None` past the end.
        fn take<const N: usize>(rest: &mut &[u8]) -> Option<[u8; N]> {
            let (head, tail) = rest.split_first_chunk::<N>()?;
            *rest = tail;
            Some(*head)
        }
        let u64_at = |rest: &mut &[u8]| take(rest).map(u64::from_le_bytes);
        let u32_at = |rest: &mut &[u8]| take(rest).map(u32::from_le_bytes);
        let f64_at = |rest: &mut &[u8]| u64_at(rest).map(f64::from_bits);

        let mut rest = bytes;
        if take(&mut rest)? != [CHECKPOINT_VERSION] {
            return None;
        }
        let windows_absorbed = u64_at(&mut rest)?;
        let [model_count] = take(&mut rest)?;
        let mut models = Vec::with_capacity(usize::from(model_count));
        for _ in 0..model_count {
            let dim = u32_at(&mut rest)? as usize;
            let mut weights = Vec::with_capacity(dim.min(rest.len() / 8));
            for _ in 0..dim {
                weights.push(f64_at(&mut rest)?);
            }
            models.push((weights, f64_at(&mut rest)?));
        }
        let ema_count = u32_at(&mut rest)? as usize;
        let mut emas = Vec::with_capacity(ema_count.min(rest.len() / 16));
        for _ in 0..ema_count {
            let strategy = StrategyId(u64_at(&mut rest)?);
            emas.push((strategy, f64_at(&mut rest)?));
        }
        if !rest.is_empty() {
            return None;
        }
        Some(Self {
            windows_absorbed,
            models,
            emas,
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Deterministic synthetic feature vector for (seed, window,
    /// strategy) — arithmetic only, no RNG.
    fn features(seed: u64, window: u64, strategy: u64) -> Vec<f64> {
        (0..FEATURE_NAMES.len() as u64)
            .map(|i| {
                let h = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(window.wrapping_mul(31))
                    .wrapping_add(strategy.wrapping_mul(17))
                    .wrapping_add(i.wrapping_mul(7));
                (h % 1000) as f64 / 1000.0
            })
            .collect()
    }

    fn window_streams(seed: u64, window: u64, strategies: u64) -> (Vec<QoaSample>, Vec<QoaLabel>) {
        let samples: Vec<QoaSample> = (0..strategies)
            .map(|s| QoaSample {
                strategy: StrategyId(s),
                features: features(seed, window, s),
            })
            .collect();
        let labels: Vec<QoaLabel> = (0..strategies)
            // Leave some strategies unlabeled so the merge-join path is
            // exercised.
            .filter(|s| !(s + window).is_multiple_of(3))
            .map(|s| {
                QoaLabel::new(
                    StrategyId(s),
                    [
                        (s + seed).is_multiple_of(2),
                        s % 2 == 1,
                        (s + window).is_multiple_of(2),
                    ],
                )
            })
            .collect();
        (samples, labels)
    }

    #[test]
    fn observe_window_absorbs_and_scores() {
        let mut model = OnlineQoaModel::new(QoaFeedbackConfig::default());
        let (samples, labels) = window_streams(3, 0, 6);
        let report = model.observe_window(&samples, &labels);
        assert_eq!(report.scored.len(), 6);
        assert_eq!(report.absorbed, labels.len());
        assert_eq!(model.checkpoint().windows_absorbed, 1);
        // Scores are probabilities and EMAs moved off the 0.5 prior.
        for s in &report.scored {
            for p in s.scores {
                assert!((0.0..=1.0).contains(&p));
            }
            assert!((0.0..=1.0).contains(&s.ema));
        }
    }

    #[test]
    fn unmatched_labels_are_ignored() {
        let mut model = OnlineQoaModel::new(QoaFeedbackConfig::default());
        let labels = vec![QoaLabel::new(StrategyId(99), [true, true, true])];
        let report = model.observe_window(&[], &labels);
        assert_eq!(report.absorbed, 0);
        assert!(report.scored.is_empty());
        // No sample, no update: the classifiers are still the fresh ones.
        let fresh = OnlineQoaModel::new(QoaFeedbackConfig::default());
        assert_eq!(model.checkpoint().models, fresh.checkpoint().models);
    }

    #[test]
    fn verdicts_follow_thresholds() {
        let mut model = OnlineQoaModel::new(QoaFeedbackConfig::default());
        model.emas.insert(StrategyId(1), 0.1);
        model.emas.insert(StrategyId(2), 0.5);
        model.emas.insert(StrategyId(3), 0.95);
        let verdicts = model.verdicts();
        assert_eq!(verdicts.demoted, vec![StrategyId(1)]);
        assert_eq!(verdicts.promoted, vec![StrategyId(3)]);
        assert!(!verdicts.is_empty());
        assert!(QoaVerdicts::default().is_empty());
    }

    #[test]
    fn checkpoint_roundtrips_bit_exactly() {
        let mut model = OnlineQoaModel::new(QoaFeedbackConfig::default());
        for window in 0..5 {
            let (samples, labels) = window_streams(7, window, 8);
            model.observe_window(&samples, &labels);
        }
        let checkpoint = model.checkpoint();
        let bytes = checkpoint.to_bytes();
        let decoded = QoaCheckpoint::from_bytes(&bytes).expect("decodes");
        assert_eq!(checkpoint, decoded);
        let restored = OnlineQoaModel::from_checkpoint(QoaFeedbackConfig::default(), &decoded)
            .expect("restores");
        assert_eq!(model.digest(), restored.digest());
        assert_eq!(model, restored);
        // A checkpoint short one classifier is rejected, not padded.
        let mut short = decoded.clone();
        short.models.pop();
        assert!(OnlineQoaModel::from_checkpoint(QoaFeedbackConfig::default(), &short).is_none());
        // So is one with a classifier too many.
        let mut long = decoded;
        long.models.push(long.models[0].clone());
        assert!(OnlineQoaModel::from_checkpoint(QoaFeedbackConfig::default(), &long).is_none());
    }

    #[test]
    fn truncated_checkpoint_bytes_are_rejected() {
        let model = OnlineQoaModel::new(QoaFeedbackConfig::default());
        let bytes = model.checkpoint().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                QoaCheckpoint::from_bytes(&bytes[..cut]).is_none(),
                "truncation at {cut} decoded"
            );
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(QoaCheckpoint::from_bytes(&trailing).is_none());
    }

    #[test]
    fn a_huge_declared_count_is_rejected_without_reserving_it() {
        let checkpoint = QoaCheckpoint {
            windows_absorbed: 3,
            models: vec![(vec![0.25, -1.5], 0.5)],
            emas: vec![(StrategyId(7), 0.75), (StrategyId(9), 0.125)],
        };
        let bytes = checkpoint.to_bytes();
        assert_eq!(QoaCheckpoint::from_bytes(&bytes), Some(checkpoint));
        // version, windows_absorbed, model count, then the first dim.
        let dim_at = 1 + 8 + 1;
        // The dim, two weights and the bias, then the ema count.
        let ema_count_at = dim_at + 4 + 2 * 8 + 8;
        for at in [dim_at, ema_count_at] {
            let mut crafted = bytes.clone();
            crafted[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            // Reserving what the count claims would ask for 34–68 GB
            // and abort the process before the first entry ran out.
            assert_eq!(QoaCheckpoint::from_bytes(&crafted), None, "count at {at}");
        }
    }

    proptest! {
        /// The sharding contract (satellite): partition a window's
        /// sample/label streams across 1/2/4 shards by strategy id,
        /// merge each shard's contribution back in sorted order (what
        /// the coordinator does), and the replayed model must be
        /// byte-identical at EVERY window boundary regardless of the
        /// shard count.
        #[test]
        fn sharded_streams_replay_to_identical_weights(
            seed in 0u64..1_000,
            windows in 1u64..8,
            strategies in 1u64..12,
        ) {
            let mut digests: Vec<Vec<u64>> = Vec::new();
            for shards in [1u64, 2, 4] {
                let mut model = OnlineQoaModel::new(QoaFeedbackConfig::default());
                let mut boundary_digests = Vec::new();
                for window in 0..windows {
                    let (samples, labels) = window_streams(seed, window, strategies);
                    // Partition by shard, preserving per-shard order...
                    let mut sharded_samples: Vec<Vec<QoaSample>> =
                        vec![Vec::new(); shards as usize];
                    let mut sharded_labels: Vec<Vec<QoaLabel>> =
                        vec![Vec::new(); shards as usize];
                    for s in &samples {
                        sharded_samples[(s.strategy.0 % shards) as usize].push(s.clone());
                    }
                    for l in &labels {
                        sharded_labels[(l.strategy.0 % shards) as usize].push(*l);
                    }
                    // ...then merge at the coordinator: concat + sort.
                    let mut merged_samples: Vec<QoaSample> =
                        sharded_samples.into_iter().flatten().collect();
                    merged_samples.sort_by_key(|s| s.strategy);
                    let mut merged_labels: Vec<QoaLabel> =
                        sharded_labels.into_iter().flatten().collect();
                    merged_labels.sort_by_key(|l| l.strategy);
                    model.observe_window(&merged_samples, &merged_labels);
                    boundary_digests.push(model.digest());
                }
                digests.push(boundary_digests);
            }
            prop_assert_eq!(&digests[0], &digests[1]);
            prop_assert_eq!(&digests[0], &digests[2]);
        }
    }
}
