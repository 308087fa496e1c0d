//! Adaptive online LDA (AOLDA) over time windows.
//!
//! The paper's emerging-alert detection (R4) cites the AOLDA approach of
//! its references [30], [31]: alerts are bucketed into consecutive time
//! windows; each window gets its own topic model whose *prior* is adapted
//! from the topics of the preceding windows, so stable alert themes keep
//! their identity across windows while genuinely new themes — *emerging*
//! ones — stand out as topics with no historical counterpart.
//!
//! Emergence is quantified per topic as the minimum Jensen–Shannon
//! divergence to any topic of the recent history: high divergence ⇒ no
//! historical counterpart ⇒ emerging.

use serde::{Deserialize, Serialize};

use alertops_text::BagOfWords;

use crate::lda::{LdaConfig, LdaWorkspace, OnlineLda, ETA};
use crate::math::{js_divergence_prepared, neg_entropy};

/// How many previous windows feed the adaptive prior and the emergence
/// baseline.
const HISTORY: usize = 3;
/// Relative tolerance for the per-window pass loop's early exit: after
/// pass `p ≥ 2`, fitting stops once the variational bound satisfies
/// `|b_p − b_{p−1}| ≤ PASS_TOL · |b_{p−1}|` — the window has converged
/// and further passes would only re-derive the same λ. Measured on our
/// alert workloads the bound's per-pass delta decays geometrically, so
/// `1e-2` keeps topics visually and behaviourally indistinguishable from
/// running every pass while cutting the typical window to roughly three
/// passes out of the configured fifteen-plus.
const PASS_TOL: f64 = 1e-2;
/// Minimum weight a historical topic needs to serve as an emergence
/// baseline, and a window's topic to count as emerging. Topics that
/// never described real documents (weight ≈ 0) are spread-out junk
/// whose moderate divergence to everything would otherwise mask
/// genuinely new themes.
const MIN_BASELINE_WEIGHT: f64 = 0.05;
/// JS-divergence threshold above which a topic counts as emerging
/// (bounded by ln 2 ≈ 0.693). 0.25 separates re-learned stable themes
/// (novelty ≲ 0.05 with adaptation on) from genuinely new vocabulary
/// (novelty ≳ 0.3 in our alert workloads).
const EMERGING_THRESHOLD: f64 = 0.25;

/// Configuration for [`AdaptiveOnlineLda`]. The history length, the
/// pass loop's early-exit tolerance, the baseline weight floor and the
/// emerging threshold are fixed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AoldaConfig {
    /// Base LDA configuration (topics, vocabulary, seed).
    pub lda: LdaConfig,
    /// Weight of historical topics when seeding a window's prior, in
    /// `[0, 1)`. `0` disables adaptation (plain per-window LDA).
    pub adaptation_weight: f64,
    /// Most passes over the window's documents when fitting its model;
    /// the fit stops earlier once the variational bound settles.
    pub passes_per_window: usize,
}

impl Default for AoldaConfig {
    fn default() -> Self {
        Self {
            lda: LdaConfig::default(),
            adaptation_weight: 0.5,
            passes_per_window: 20,
        }
    }
}

/// One topic of one window, with its emergence assessment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowTopic {
    /// Topic index within the window's model.
    pub topic: usize,
    /// The topic-word probability distribution (length W).
    pub distribution: Vec<f64>,
    /// Minimum JS divergence to any topic of the history windows;
    /// `0.0` for the first window (no baseline).
    pub novelty: f64,
    /// Whether `novelty` exceeded the emerging threshold.
    pub emerging: bool,
    /// The topic's share of the window's document mass, in `[0, 1]`.
    pub weight: f64,
}

/// The fitted summary of one time window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicWindow {
    /// Zero-based window index.
    pub index: usize,
    /// Number of (non-empty) documents in the window.
    pub doc_count: usize,
    /// Per-topic summaries.
    pub topics: Vec<WindowTopic>,
    /// One topic mixture per bag of the fitted window, parallel to the
    /// `bags` slice [`AdaptiveOnlineLda::process_window`] was given.
    /// Emptied once a newer window is processed: only the newest
    /// window's documents are ever asked for.
    pub doc_mixtures: Vec<Vec<f64>>,
    /// Per document (position) of the window, the index of its mixture
    /// in [`doc_mixtures`](Self::doc_mixtures). Emptied with them.
    pub doc_bags: Vec<u32>,
}

impl TopicWindow {
    /// The topic mixture of the window's `position`-th document.
    ///
    /// # Panics
    ///
    /// Panics if `position` is past the window's last document, or the
    /// window's mixtures were dropped because a newer window exists.
    #[must_use]
    pub fn doc_mixture(&self, position: usize) -> &[f64] {
        &self.doc_mixtures[self.doc_bags[position] as usize]
    }

    /// Indices (positions) of documents whose dominant topic is
    /// emerging — the "emerging alerts" R4 surfaces to OCEs. The
    /// dominance test runs once per mixture, not once per position.
    #[must_use]
    pub fn emerging_doc_indices(&self) -> Vec<usize> {
        let emerging: Vec<usize> = self
            .topics
            .iter()
            .filter(|t| t.emerging)
            .map(|t| t.topic)
            .collect();
        if emerging.is_empty() {
            return Vec::new();
        }
        let flagged: Vec<bool> = self
            .doc_mixtures
            .iter()
            .map(|mixture| dominant_topic(mixture).is_some_and(|d| emerging.contains(&d)))
            .collect();
        self.doc_bags
            .iter()
            .enumerate()
            .filter(|&(_, &bag)| flagged[bag as usize])
            .map(|(position, _)| position)
            .collect()
    }

    /// The emerging topics of this window.
    #[must_use]
    pub fn emerging_topics(&self) -> Vec<&WindowTopic> {
        self.topics.iter().filter(|t| t.emerging).collect()
    }
}

/// A window fitted by [`AdaptiveOnlineLda::prepare_window`] but not
/// yet part of the history: its summary, and the λ it leaves for the
/// next windows' prior. [`AdaptiveOnlineLda::commit_window`] takes it;
/// dropping it is how a speculative fit is undone.
#[derive(Debug)]
pub struct PreparedWindow {
    window: TopicWindow,
    lambda: Vec<Vec<f64>>,
}

impl PreparedWindow {
    /// The window's summary, as committing it would return it.
    #[must_use]
    pub fn window(&self) -> &TopicWindow {
        &self.window
    }
}

/// The index of `mixture`'s largest component, the last one on a tie;
/// `None` when it is empty. `total_cmp` orders AO-LDA's strictly
/// positive mixtures as `partial_cmp` would, and cannot panic.
fn dominant_topic(mixture: &[f64]) -> Option<usize> {
    mixture
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
}

/// Adaptive online LDA over a stream of time windows.
///
/// # Example
///
/// ```
/// use alertops_topics::{AdaptiveOnlineLda, AoldaConfig, LdaConfig};
///
/// let mut aolda = AdaptiveOnlineLda::new(AoldaConfig {
///     lda: LdaConfig { num_topics: 2, vocab_size: 6, ..LdaConfig::default() },
///     ..AoldaConfig::default()
/// });
/// // Three documents, the first and the last with the same text.
/// let bags = vec![vec![(0, 2), (1, 1)], vec![(0, 1), (2, 2)]];
/// let summary = aolda.process_window(&bags, &[0, 1, 0]);
/// assert_eq!(summary.index, 0);
/// assert_eq!(summary.doc_count, 3);
/// assert_eq!(summary.topics.len(), 2);
/// assert_eq!(summary.doc_mixture(0), summary.doc_mixture(2));
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveOnlineLda {
    config: AoldaConfig,
    /// Recent window summaries, newest last, bounded by [`HISTORY`] —
    /// older windows can no longer influence the adaptive prior or the
    /// emergence baseline, so a long-running stream does not accumulate
    /// them.
    windows: Vec<TopicWindow>,
    /// Unnormalized λ snapshots of recent windows, newest last, bounded
    /// by [`HISTORY`].
    lambda_history: Vec<Vec<Vec<f64>>>,
    /// Total windows ever processed (not bounded by retention).
    windows_processed: usize,
    /// Scratch buffers reused across windows; carries no model state
    /// (see [`LdaWorkspace`]), so cloning or replacing it never changes
    /// results.
    workspace: LdaWorkspace,
}

impl AdaptiveOnlineLda {
    /// Creates an AOLDA pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `adaptation_weight` is outside `[0, 1)`.
    #[must_use]
    pub fn new(config: AoldaConfig) -> Self {
        assert!(
            (0.0..1.0).contains(&config.adaptation_weight),
            "adaptation_weight must lie in [0, 1)"
        );
        Self {
            config,
            windows: Vec::new(),
            lambda_history: Vec::new(),
            windows_processed: 0,
            workspace: LdaWorkspace::new(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AoldaConfig {
        &self.config
    }

    /// The retained recent windows (at most three of them), oldest
    /// first.
    #[must_use]
    pub fn windows(&self) -> &[TopicWindow] {
        &self.windows
    }

    /// Total windows processed since construction, including windows
    /// that have aged out of the retained history.
    #[must_use]
    pub fn windows_processed(&self) -> usize {
        self.windows_processed
    }

    /// Grows the model's vocabulary to `vocab_size` words mid-stream.
    ///
    /// Word ids must be stable-growth (new words only ever *append* ids
    /// — [`alertops_text::Vocabulary`] guarantees this), so growth is a
    /// pure widening: historical λ snapshots are padded with the
    /// topic-word prior η (the mass a never-seen word would have
    /// carried), and retained topic distributions are padded with zero
    /// probability. A subsequent window whose topics concentrate on the
    /// new columns therefore diverges sharply from every baseline —
    /// exactly the "new vocabulary ⇒ emerging" signal R4 wants.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size` is smaller than the current vocabulary —
    /// shrinking would invalidate issued word ids.
    pub fn grow_vocab(&mut self, vocab_size: usize) {
        let current = self.config.lda.vocab_size;
        assert!(
            vocab_size >= current,
            "vocab_size may only grow ({current} -> {vocab_size})"
        );
        if vocab_size == current {
            return;
        }
        for lambda in &mut self.lambda_history {
            for row in lambda.iter_mut() {
                row.resize(vocab_size, ETA);
            }
        }
        for window in &mut self.windows {
            for topic in &mut window.topics {
                topic.distribution.resize(vocab_size, 0.0);
            }
        }
        self.config.lda.vocab_size = vocab_size;
    }

    /// Undoes a [`grow_vocab`](Self::grow_vocab) to `vocab_size`
    /// words: cuts the padded columns off every λ snapshot and retained
    /// topic distribution, so the model is bit for bit what it was
    /// before the growth. Only for a growth no window has been
    /// committed over since (a discarded [`prepare_window`](Self::prepare_window)),
    /// whose columns still hold nothing but padding. A no-op when the
    /// model is no wider than `vocab_size`.
    pub fn truncate_vocab(&mut self, vocab_size: usize) {
        if vocab_size >= self.config.lda.vocab_size {
            return;
        }
        for lambda in &mut self.lambda_history {
            for row in lambda.iter_mut() {
                row.truncate(vocab_size);
            }
        }
        for window in &mut self.windows {
            for topic in &mut window.topics {
                topic.distribution.truncate(vocab_size);
            }
        }
        self.config.lda.vocab_size = vocab_size;
    }

    /// Fits the next window — whose `i`-th document is
    /// `bags[positions[i]]` — and returns its summary: exactly
    /// [`prepare_window`](Self::prepare_window) then
    /// [`commit_window`](Self::commit_window).
    ///
    /// A caller with one bag per document passes the identity index
    /// `0..n`; one that holds each distinct text once passes it with
    /// every position's bag, and the fit solves distinct documents only
    /// (see [`OnlineLda::fit_window_with`]). Either way the summary is
    /// bit-identical to fitting the window expanded to one bag per
    /// position.
    ///
    /// # Panics
    ///
    /// Panics if a position names a bag past the end of `bags`.
    pub fn process_window(&mut self, bags: &[BagOfWords], positions: &[u32]) -> &TopicWindow {
        let prepared = self.prepare_window(bags, positions);
        self.commit_window(prepared)
    }

    /// Fits the next window without making it part of the history: the
    /// returned [`PreparedWindow`] holds its summary and its λ, and the
    /// model is unchanged until [`commit_window`](Self::commit_window)
    /// takes it. Dropping it instead leaves no trace.
    ///
    /// The window's model is seeded from a blend of a fresh prior and the
    /// mean λ of the last three windows, weighted by
    /// [`adaptation_weight`](AoldaConfig::adaptation_weight).
    ///
    /// # Panics
    ///
    /// Panics if a position names a bag past the end of `bags`.
    pub fn prepare_window(&mut self, bags: &[BagOfWords], positions: &[u32]) -> PreparedWindow {
        let window_index = self.windows_processed;
        let lda_config = LdaConfig {
            // Vary the seed per window so non-adapted topics don't line up
            // by construction; determinism is preserved.
            seed: self.config.lda.seed.wrapping_add(window_index as u64),
            ..self.config.lda.clone()
        };
        let mut model = OnlineLda::new(lda_config);

        // Adaptive prior: blend fresh λ with historical mean λ.
        let w = self.config.adaptation_weight;
        if w > 0.0 && !self.lambda_history.is_empty() {
            let hist: Vec<&Vec<Vec<f64>>> = self.lambda_history.iter().rev().collect();
            let blended: Vec<Vec<f64>> = model
                .lambda()
                .iter()
                .enumerate()
                .map(|(k, fresh_row)| {
                    fresh_row
                        .iter()
                        .enumerate()
                        .map(|(word, &f)| {
                            let h: f64 = hist.iter().map(|lam| lam[k][word]).sum::<f64>()
                                / hist.len() as f64;
                            (1.0 - w) * f + w * h
                        })
                        .collect()
                })
                .collect();
            model.set_lambda(blended);
        }

        let doc_mixtures: Vec<Vec<f64>> = model.fit_window_with(
            bags,
            positions,
            self.config.passes_per_window,
            PASS_TOL,
            &mut self.workspace,
        );
        let topics_dist = model.topics();
        let k = topics_dist.len();

        // Topic weights: average share of document mass, summed per
        // position in position order.
        let mut weights = vec![0.0; k];
        for &bag in positions {
            for (slot, &p) in weights.iter_mut().zip(&doc_mixtures[bag as usize]) {
                *slot += p;
            }
        }
        let denom = positions.len().max(1) as f64;
        for slot in &mut weights {
            *slot /= denom;
        }

        // Emergence: min JS divergence against history topics. Each
        // distribution's Σp·ln p term is pair-independent, so it is
        // computed once here instead of inside every pair.
        let baseline: Vec<(&Vec<f64>, f64)> = self
            .windows
            .iter()
            .rev()
            .flat_map(|win| {
                win.topics
                    .iter()
                    .filter(|t| t.weight >= MIN_BASELINE_WEIGHT)
                    .map(|t| (&t.distribution, neg_entropy(&t.distribution)))
            })
            .collect();
        let topics: Vec<WindowTopic> = topics_dist
            .into_iter()
            .enumerate()
            .map(|(topic, distribution)| {
                let novelty = if baseline.is_empty() {
                    0.0
                } else {
                    let plogp = neg_entropy(&distribution);
                    baseline
                        .iter()
                        .map(|&(b, b_plogp)| {
                            js_divergence_prepared(&distribution, plogp, b, b_plogp)
                        })
                        .fold(f64::INFINITY, f64::min)
                };
                WindowTopic {
                    topic,
                    // A topic must both lack a historical counterpart AND
                    // actually describe documents in this window; junk
                    // topics (weight ≈ 0) are never "emerging".
                    emerging: !baseline.is_empty()
                        && novelty > EMERGING_THRESHOLD
                        && weights[topic] >= MIN_BASELINE_WEIGHT,
                    novelty,
                    distribution,
                    weight: weights[topic],
                }
            })
            .collect();

        PreparedWindow {
            window: TopicWindow {
                index: window_index,
                doc_count: positions
                    .iter()
                    .filter(|&&bag| !bags[bag as usize].is_empty())
                    .count(),
                topics,
                doc_mixtures,
                doc_bags: positions.to_vec(),
            },
            lambda: model.into_lambda(),
        }
    }

    /// Makes a prepared window the newest of the history: its λ feeds
    /// the next windows' prior and its topics their emergence baseline,
    /// and the window count advances.
    ///
    /// # Panics
    ///
    /// Panics if another window was committed since `prepared` was
    /// prepared: it was fitted against a history that is gone.
    pub fn commit_window(&mut self, prepared: PreparedWindow) -> &TopicWindow {
        let PreparedWindow { window, lambda } = prepared;
        assert_eq!(
            window.index, self.windows_processed,
            "a prepared window commits over the history it was fitted on"
        );
        self.lambda_history.push(lambda);
        if self.lambda_history.len() > HISTORY {
            let excess = self.lambda_history.len() - HISTORY;
            self.lambda_history.drain(..excess);
        }
        // Nothing reads an older window's documents; only its topics
        // feed the emergence baseline.
        if let Some(previous) = self.windows.last_mut() {
            previous.doc_mixtures = Vec::new();
            previous.doc_bags = Vec::new();
        }
        self.windows.push(window);
        if self.windows.len() > HISTORY {
            let excess = self.windows.len() - HISTORY;
            self.windows.drain(..excess);
        }
        self.windows_processed += 1;
        // HISTORY >= 1, so the drain above kept the window just pushed.
        self.windows.last().expect("window just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Docs about "storage" (ids 0..3).
    fn storage_docs(n: usize) -> Vec<BagOfWords> {
        (0..n).map(|i| vec![(i % 4, 2), ((i + 1) % 4, 1)]).collect()
    }

    /// Docs about a brand-new theme (ids 8..11).
    fn novel_docs(n: usize) -> Vec<BagOfWords> {
        (0..n)
            .map(|i| vec![(8 + i % 4, 2), (8 + (i + 1) % 4, 1)])
            .collect()
    }

    /// Processes a window that holds one bag per document.
    fn fit<'a>(aolda: &'a mut AdaptiveOnlineLda, docs: &[BagOfWords]) -> &'a TopicWindow {
        let identity: Vec<u32> = (0..docs.len() as u32).collect();
        aolda.process_window(docs, &identity)
    }

    fn config(k: usize) -> AoldaConfig {
        AoldaConfig {
            lda: LdaConfig {
                num_topics: k,
                vocab_size: 12,
                ..LdaConfig::default()
            },
            passes_per_window: 25,
            ..AoldaConfig::default()
        }
    }

    #[test]
    fn first_window_is_never_emerging() {
        let mut aolda = AdaptiveOnlineLda::new(config(2));
        let win = fit(&mut aolda, &storage_docs(10));
        assert!(win.topics.iter().all(|t| !t.emerging));
        assert!(win.topics.iter().all(|t| t.novelty == 0.0));
        assert!(win.emerging_doc_indices().is_empty());
    }

    #[test]
    fn stable_theme_stays_non_emerging() {
        let mut aolda = AdaptiveOnlineLda::new(config(2));
        fit(&mut aolda, &storage_docs(10));
        let win = fit(&mut aolda, &storage_docs(10));
        // Same theme again: topics should find close historical
        // counterparts.
        assert!(
            win.topics.iter().all(|t| !t.emerging),
            "stable window flagged emerging: {:?}",
            win.topics.iter().map(|t| t.novelty).collect::<Vec<_>>()
        );
    }

    #[test]
    fn novel_theme_is_flagged_emerging() {
        let mut aolda = AdaptiveOnlineLda::new(config(2));
        fit(&mut aolda, &storage_docs(10));
        fit(&mut aolda, &storage_docs(10));
        // Third window: half old theme, half brand-new vocabulary.
        let mut docs = storage_docs(6);
        docs.extend(novel_docs(6));
        let win = fit(&mut aolda, &docs);
        assert!(
            win.topics.iter().any(|t| t.emerging),
            "novel theme not flagged: novelties {:?}",
            win.topics.iter().map(|t| t.novelty).collect::<Vec<_>>()
        );
        // The emerging docs should be (mostly) the novel ones (indices 6..).
        let emerging_docs = win.emerging_doc_indices();
        assert!(!emerging_docs.is_empty());
        let novel_hits = emerging_docs.iter().filter(|&&i| i >= 6).count();
        assert!(
            novel_hits * 2 >= emerging_docs.len(),
            "emerging docs mostly stale: {emerging_docs:?}"
        );
    }

    #[test]
    fn topic_weights_sum_to_one_per_window() {
        let mut aolda = AdaptiveOnlineLda::new(config(3));
        let win = fit(&mut aolda, &storage_docs(8));
        let total: f64 = win.topics.iter().map(|t| t.weight).sum();
        assert!((total - 1.0).abs() < 1e-6, "weights sum to {total}");
    }

    #[test]
    fn window_indices_increment() {
        let mut aolda = AdaptiveOnlineLda::new(config(2));
        for i in 0..3 {
            let win = fit(&mut aolda, &storage_docs(4));
            assert_eq!(win.index, i);
        }
        assert_eq!(aolda.windows().len(), 3);
    }

    #[test]
    fn lambda_history_is_bounded() {
        let mut aolda = AdaptiveOnlineLda::new(config(2));
        for _ in 0..5 {
            fit(&mut aolda, &storage_docs(4));
        }
        assert_eq!(aolda.lambda_history.len(), HISTORY);
    }

    #[test]
    fn zero_adaptation_weight_is_allowed() {
        let mut aolda = AdaptiveOnlineLda::new(AoldaConfig {
            adaptation_weight: 0.0,
            ..config(2)
        });
        fit(&mut aolda, &storage_docs(4));
        fit(&mut aolda, &storage_docs(4));
        assert_eq!(aolda.windows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "adaptation_weight")]
    fn rejects_adaptation_weight_of_one() {
        let _ = AdaptiveOnlineLda::new(AoldaConfig {
            adaptation_weight: 1.0,
            ..config(2)
        });
    }

    #[test]
    fn empty_window_is_handled() {
        let mut aolda = AdaptiveOnlineLda::new(config(2));
        let win = fit(&mut aolda, &[]);
        assert_eq!(win.doc_count, 0);
        assert_eq!(win.doc_mixtures.len(), 0);
        assert_eq!(win.doc_bags.len(), 0);
    }

    /// A window of distinct bags plus a bag per position summarizes
    /// exactly as the same window with one bag per position.
    #[test]
    fn indexed_window_summarizes_as_its_expansion() {
        let mut bags = storage_docs(3);
        bags.extend(novel_docs(2));
        bags.push(Vec::new());
        bags.push(bags[0].clone());
        let positions = [0u32, 1, 5, 0, 3, 6, 2, 4, 4, 1, 5, 3];
        let expanded: Vec<BagOfWords> = positions
            .iter()
            .map(|&b| bags[b as usize].clone())
            .collect();
        let mut indexed = AdaptiveOnlineLda::new(config(2));
        let mut flat = AdaptiveOnlineLda::new(config(2));
        for _ in 0..3 {
            let a = indexed.process_window(&bags, &positions).clone();
            let b = fit(&mut flat, &expanded).clone();
            assert_eq!(a.topics, b.topics);
            assert_eq!(a.doc_count, b.doc_count);
            assert_eq!(a.emerging_doc_indices(), b.emerging_doc_indices());
            for position in 0..positions.len() {
                assert_eq!(a.doc_mixture(position), b.doc_mixture(position));
            }
        }
    }

    #[test]
    fn only_the_newest_window_keeps_its_mixtures() {
        let mut aolda = AdaptiveOnlineLda::new(config(2));
        for _ in 0..3 {
            fit(&mut aolda, &storage_docs(4));
        }
        let (newest, older) = aolda.windows().split_last().unwrap();
        assert_eq!(newest.doc_mixtures.len(), 4);
        assert_eq!(newest.doc_bags, [0, 1, 2, 3]);
        for window in older {
            assert!(window.doc_mixtures.is_empty() && window.doc_bags.is_empty());
            assert_eq!(window.topics.len(), 2, "topics stay for the baseline");
        }
    }

    #[test]
    fn dominant_topic_orders_positive_mixtures_as_partial_cmp_did() {
        let partial = |m: &[f64]| {
            m.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
        };
        // Strictly positive components, coarse enough to tie often.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..2_000 {
            let mixture: Vec<f64> = (0..4)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 8 + 1) as f64 / 8.0
                })
                .collect();
            assert_eq!(dominant_topic(&mixture), partial(&mixture), "{mixture:?}");
        }
        assert_eq!(dominant_topic(&[f64::MIN_POSITIVE, 1e-300]), Some(1));
        // Ties still resolve to the last maximum.
        assert_eq!(dominant_topic(&[0.4, 0.2, 0.4]), Some(2));
        assert_eq!(dominant_topic(&[0.25; 4]), Some(3));
        assert_eq!(dominant_topic(&[]), None);
        // A NaN cannot panic the close that asks.
        assert!(dominant_topic(&[0.5, f64::NAN]).is_some());
    }

    #[test]
    fn emerging_doc_indices_take_the_last_of_tied_topics() {
        let topic = |topic: usize, emerging: bool| WindowTopic {
            topic,
            distribution: vec![0.5, 0.5],
            novelty: 0.0,
            emerging,
            weight: 0.5,
        };
        let window = TopicWindow {
            index: 0,
            doc_count: 4,
            topics: vec![topic(0, false), topic(1, true)],
            doc_mixtures: vec![vec![0.5, 0.5], vec![0.7, 0.3], vec![0.2, 0.8]],
            doc_bags: vec![0, 1, 2, 0],
        };
        assert_eq!(window.emerging_doc_indices(), [0, 2, 3]);
    }

    #[test]
    fn windows_retention_is_bounded_but_indices_keep_counting() {
        let mut aolda = AdaptiveOnlineLda::new(config(2));
        for i in 0..5 {
            let win = fit(&mut aolda, &storage_docs(4));
            assert_eq!(win.index, i, "index counts all windows ever processed");
        }
        assert_eq!(aolda.windows_processed(), 5);
        assert_eq!(aolda.windows().len(), HISTORY);
        assert_eq!(aolda.windows().last().unwrap().index, 4);
    }

    #[test]
    fn grow_vocab_widens_state_and_preserves_determinism() {
        // Reference: a model born at the larger vocabulary.
        let big = AoldaConfig {
            lda: LdaConfig {
                num_topics: 2,
                vocab_size: 12,
                ..LdaConfig::default()
            },
            passes_per_window: 25,
            ..AoldaConfig::default()
        };
        let small = AoldaConfig {
            lda: LdaConfig {
                vocab_size: 4,
                ..big.lda.clone()
            },
            ..big.clone()
        };

        // Growth widens history in place: every retained distribution and
        // λ snapshot matches the new width, and probabilities still
        // normalize (zero padding adds no mass).
        let mut grown = AdaptiveOnlineLda::new(small);
        fit(&mut grown, &storage_docs(8));
        grown.grow_vocab(12);
        assert_eq!(grown.config().lda.vocab_size, 12);
        for win in grown.windows() {
            for t in &win.topics {
                assert_eq!(t.distribution.len(), 12);
                let sum: f64 = t.distribution.iter().sum();
                assert!((sum - 1.0).abs() < 1e-6, "padded topic sums to {sum}");
            }
        }

        // Windows processed after growth use the full width, and a novel
        // theme living entirely in the new columns is flagged emerging.
        fit(&mut grown, &storage_docs(8));
        let win = fit(&mut grown, &novel_docs(8));
        assert_eq!(win.topics[0].distribution.len(), 12);
        assert!(
            win.topics.iter().any(|t| t.emerging),
            "novel columns not emerging after growth: {:?}",
            win.topics.iter().map(|t| t.novelty).collect::<Vec<_>>()
        );
    }

    #[test]
    fn grow_vocab_to_same_size_is_a_no_op() {
        let mut a = AdaptiveOnlineLda::new(config(2));
        let mut b = AdaptiveOnlineLda::new(config(2));
        fit(&mut a, &storage_docs(6));
        fit(&mut b, &storage_docs(6));
        a.grow_vocab(12);
        assert_eq!(fit(&mut a, &storage_docs(6)), fit(&mut b, &storage_docs(6)));
    }

    /// A prepared window dropped, with the growth it needed undone,
    /// leaves no trace: later windows fit bit for bit as on a model
    /// that never saw it.
    #[test]
    fn a_dropped_prepared_window_leaves_no_trace() {
        let narrow = AoldaConfig {
            lda: LdaConfig {
                vocab_size: 8,
                ..config(2).lda
            },
            ..config(2)
        };
        let mut tried = AdaptiveOnlineLda::new(narrow.clone());
        let mut clean = AdaptiveOnlineLda::new(narrow);
        fit(&mut tried, &storage_docs(6));
        fit(&mut clean, &storage_docs(6));
        tried.grow_vocab(12);
        let prepared = tried.prepare_window(&novel_docs(5), &[0, 1, 2, 3, 4]);
        assert_eq!(prepared.window().index, 1);
        drop(prepared);
        tried.truncate_vocab(8);
        assert_eq!(tried.windows_processed(), 1);
        for _ in 0..3 {
            assert_eq!(
                fit(&mut tried, &storage_docs(6)),
                fit(&mut clean, &storage_docs(6))
            );
        }
    }

    #[test]
    #[should_panic(expected = "over the history it was fitted on")]
    fn a_stale_prepared_window_cannot_commit() {
        let mut aolda = AdaptiveOnlineLda::new(config(2));
        let stale = aolda.prepare_window(&storage_docs(4), &[0, 1, 2, 3]);
        fit(&mut aolda, &storage_docs(4));
        aolda.commit_window(stale);
    }

    #[test]
    #[should_panic(expected = "only grow")]
    fn grow_vocab_rejects_shrinking() {
        let mut aolda = AdaptiveOnlineLda::new(config(2));
        aolda.grow_vocab(3);
    }

    #[test]
    fn doc_mixtures_are_normalized() {
        let mut aolda = AdaptiveOnlineLda::new(config(2));
        let win = fit(&mut aolda, &storage_docs(5));
        for m in &win.doc_mixtures {
            assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
