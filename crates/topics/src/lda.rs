//! Online variational-Bayes latent Dirichlet allocation — sparse kernel.
//!
//! Implements the algorithm of Hoffman, Blei & Bach, *Online Learning for
//! Latent Dirichlet Allocation* (NIPS 2010): stochastic variational
//! inference where each minibatch contributes a noisy natural-gradient
//! step on the topic-word variational parameter λ with step size
//! `ρ_t = (τ₀ + t)^{−κ}`. Here the minibatch is one window, the whole
//! corpus of a model AO-LDA fits, and each pass over it is one step.
//!
//! # Sparsity, bit-for-bit
//!
//! The kernel never materializes the dense `[topics × vocab]`
//! `exp(E[log β])` table. Instead, each batch builds a β table over only
//! the word ids that batch actually contains (the *sparse support*), the
//! E-step reads β through a slot map, and the M-step folds sparse
//! sufficient statistics back into λ. Every float operation is ordered
//! exactly as the dense sweep in [`crate::dense::DenseOnlineLda`] orders
//! it, so the results are **bit-identical** — the property tests in
//! `tests/properties.rs` assert exactly that. The invariants that make
//! this work:
//!
//! * `lambda_row_sums[k]` always equals `lambda[k].iter().sum()`
//!   (left-to-right), recomputed in full after every λ mutation, so the
//!   `ψ(Σλ)` term never sees a differently-associated sum.
//! * β cells are `exp(ψ(λ_kw) − ψ(Σλ_k))` — the identical expression the
//!   dense sweep evaluated, just only for the cells a batch reads.
//! * Absent columns decay as `(1−ρ)·λ + ρ·η`, which is IEEE-754-exactly
//!   the dense `(1−ρ)·λ + ρ·(η + scale·0.0)`.
//! * Sufficient statistics accumulate in the dense order (document-major,
//!   position-major, topic-major). A window arrives as *indexed*
//!   documents — distinct bags plus one bag index per position — and
//!   each call indexes the bags by content once: a distinct document is
//!   solved once per pass, and every position replays that outcome in
//!   its own place through the index table, so the floats are those of
//!   the dense sweep over the window expanded to one bag per position.
//!
//! Scratch buffers live in [`LdaWorkspace`] and are reused across
//! documents, iterations, passes and windows — the hot loop performs no
//! per-iteration allocation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use alertops_text::BagOfWords;

use crate::math::{digamma, dirichlet_expectation_sparse, normalize_in_place};

/// Dirichlet prior on per-document topic mixtures (symmetric).
pub(crate) const ALPHA: f64 = 0.1;
/// Dirichlet prior on per-topic word distributions (symmetric); also the
/// mass AO-LDA pads a widened λ with.
pub(crate) const ETA: f64 = 0.01;
/// Learning-rate offset τ₀: the step after `t` updates is
/// `ρ_t = (τ₀ + t)^{−κ}`.
pub(crate) const TAU0: f64 = 1.0;
/// Learning-rate decay κ ∈ (0.5, 1], the range that guarantees
/// convergence.
pub(crate) const KAPPA: f64 = 0.7;
/// Maximum E-step iterations per document.
pub(crate) const MAX_E_STEPS: usize = 100;
/// E-step convergence threshold on the mean |Δγ|.
pub(crate) const E_STEP_TOL: f64 = 1e-3;

/// Configuration for [`OnlineLda`]: the model's shape and seed. The
/// priors and the E-step settings are fixed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of topics K.
    pub num_topics: usize,
    /// Vocabulary size W. Word ids ≥ `vocab_size` are ignored.
    pub vocab_size: usize,
    /// RNG seed for the λ initialization.
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        Self {
            num_topics: 10,
            vocab_size: 0,
            seed: 42,
        }
    }
}

/// The converged E-step outcome for one distinct document within a
/// batch. Batches of alert text are highly redundant, so a document is
/// solved once and its contributions *replayed* in every occurrence's
/// position — replaying a previously computed value adds the same bits
/// the dense path would add.
#[derive(Debug, Clone, Default)]
struct DocOutcome {
    /// `φ_kw · n_w` per in-vocab position (outer) and topic (inner).
    contribs: Vec<f64>,
    /// `doc_log_likelihood` at the converged γ.
    loglik: f64,
    /// Total token count, out-of-vocabulary positions included.
    words: u64,
}

/// `doc_slot` entry of an empty document.
const EMPTY: u32 = u32::MAX;

/// Reusable scratch space for the sparse E/M-steps.
///
/// Holding one of these across calls is what removes per-document and
/// per-iteration allocation from the hot loop: the slot map, the sparse
/// β table, sufficient statistics, the γ/θ/φ-norm vectors, the document
/// index and the per-document outcomes all keep their capacity between
/// batches. A workspace carries no model state — any workspace
/// (including a fresh `LdaWorkspace::default()`) produces bit-identical
/// results with any model; reuse only changes how often the allocator
/// runs. What it holds is bounded by the largest batch it has seen.
#[derive(Debug, Clone, Default)]
pub struct LdaWorkspace {
    /// `slot_of[id]` is `slot + 1` into the current batch's β table, or
    /// 0 when `id` is absent from the batch.
    slot_of: Vec<u32>,
    /// Word ids of the current batch in first-seen order; `unique_ids[s]`
    /// owns slot `s`.
    unique_ids: Vec<usize>,
    /// Sparse `exp(E[log β])`, K rows × `unique_ids.len()` slots.
    beta: Vec<f64>,
    /// Sparse sufficient statistics, same shape as `beta`.
    sstats: Vec<f64>,
    /// Per-document variational parameter γ (length K).
    gamma: Vec<f64>,
    /// γ from the previous E-step iteration, for the mean-change test.
    last_gamma: Vec<f64>,
    /// `exp(E[log θ])` (length K).
    exp_elog_theta: Vec<f64>,
    /// Per-topic dot accumulators for the γ update (length K).
    dots: Vec<f64>,
    /// Per-position φ normalizers (length = document positions).
    norms: Vec<f64>,
    /// Normalized-θ scratch for the per-document likelihood (length K).
    theta: Vec<f64>,
    /// Bag of the first occurrence of each distinct non-empty document
    /// (ordered by content); the document's index is its position here.
    first: Vec<u32>,
    /// Per bag, the index of its document in `first`, or [`EMPTY`].
    doc_slot: Vec<u32>,
    /// Outcome per distinct document of the current pass. Entries at and
    /// past `first.len()` are leftovers of a larger batch, kept for
    /// their capacity and never read.
    outcomes: Vec<DocOutcome>,
    /// Warm-start γ for [`OnlineLda::fit_window_with`], `first.len()` × K
    /// (row = document index): each pass starts from the previous pass's
    /// converged γ. Cleared at the start of every window fit, so it is
    /// empty on pass 0 and warmth never crosses windows.
    warm: Vec<f64>,
}

impl LdaWorkspace {
    /// Creates an empty workspace. Equivalent to `Default::default()`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of heap the workspace holds, counted by capacity. A test
    /// seam: `workspace_holds_a_linear_bound_of_its_largest_window`, in
    /// this file's tests, bounds it; no program code reads it.
    #[doc(hidden)]
    #[must_use]
    pub fn retained_bytes(&self) -> usize {
        fn held<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        // Named field by field, so a field added to the workspace has to
        // be counted here.
        let Self {
            slot_of,
            unique_ids,
            beta,
            sstats,
            gamma,
            last_gamma,
            exp_elog_theta,
            dots,
            norms,
            theta,
            first,
            doc_slot,
            outcomes,
            warm,
        } = self;
        held(slot_of)
            + held(unique_ids)
            + held(beta)
            + held(sstats)
            + held(gamma)
            + held(last_gamma)
            + held(exp_elog_theta)
            + held(dots)
            + held(norms)
            + held(theta)
            + held(first)
            + held(doc_slot)
            + held(outcomes)
            + outcomes.iter().map(|o| held(&o.contribs)).sum::<usize>()
            + held(warm)
    }

    /// Indexes `batch`: fills `first` and `doc_slot` so that equal
    /// documents share one index.
    ///
    /// The non-empty bags are sorted by content, ties by index, so
    /// each run of equal documents starts at its first occurrence;
    /// `first` is then compacted in place to one bag per run. No
    /// hashing (alert text is outside input) and, once `first` has
    /// grown to the largest batch, no allocation.
    fn index_docs(&mut self, batch: &[BagOfWords]) {
        let first = &mut self.first;
        first.clear();
        first.extend((0..batch.len() as u32).filter(|&pos| !batch[pos as usize].is_empty()));
        first.sort_unstable_by(|&a, &b| batch[a as usize].cmp(&batch[b as usize]).then(a.cmp(&b)));
        self.doc_slot.clear();
        self.doc_slot.resize(batch.len(), EMPTY);
        let mut distinct = 0;
        for i in 0..first.len() {
            let pos = first[i] as usize;
            if distinct == 0 || batch[first[distinct - 1] as usize] != batch[pos] {
                first[distinct] = pos as u32;
                distinct += 1;
            }
            self.doc_slot[pos] = (distinct - 1) as u32;
        }
        first.truncate(distinct);
    }

    /// Resets the per-batch registration state, keeping capacity.
    fn begin_batch(&mut self, vocab_size: usize) {
        for &id in &self.unique_ids {
            self.slot_of[id] = 0;
        }
        self.unique_ids.clear();
        if self.slot_of.len() < vocab_size {
            self.slot_of.resize(vocab_size, 0);
        }
        self.beta.clear();
        self.sstats.clear();
    }

    /// Adds `id` (< vocab size) to the batch support if new.
    fn register(&mut self, id: usize) {
        if self.slot_of[id] == 0 {
            self.unique_ids.push(id);
            self.slot_of[id] = self.unique_ids.len() as u32;
        }
    }

    /// Slot of a registered in-vocab id in the β/sstats tables.
    #[inline]
    fn slot(&self, id: usize) -> usize {
        (self.slot_of[id] - 1) as usize
    }
}

/// Online variational-Bayes LDA, fitted one window at a time.
///
/// Create it with a config (and, for AO-LDA's adaptive prior, seed λ
/// with [`set_lambda`](Self::set_lambda)), fit a window with
/// [`fit_window_with`](Self::fit_window_with), and read the
/// topic-word distributions with [`topics`](Self::topics). See the
/// [crate-level example](crate).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineLda {
    config: LdaConfig,
    /// Variational parameter λ, K×W.
    lambda: Vec<Vec<f64>>,
    /// Cached `lambda[k].iter().sum()` per row, maintained after every
    /// λ mutation. Always the full left-to-right sum so ψ(Σλ) is
    /// bit-identical to a freshly computed one.
    lambda_row_sums: Vec<f64>,
    /// Number of online updates (passes) applied so far.
    updates: u64,
}

impl OnlineLda {
    /// Creates a model with λ initialized from a seeded gamma-like
    /// distribution (uniform in `[0.5, 1.5)` scaled by 100/W, matching
    /// the spirit of Hoffman's `gamma(100, 1/100)` init).
    ///
    /// # Panics
    ///
    /// Panics if `num_topics` or `vocab_size` is zero.
    #[must_use]
    pub fn new(config: LdaConfig) -> Self {
        assert!(config.num_topics > 0, "num_topics must be positive");
        assert!(config.vocab_size > 0, "vocab_size must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let lambda: Vec<Vec<f64>> = (0..config.num_topics)
            .map(|_| {
                (0..config.vocab_size)
                    .map(|_| 100.0 / config.vocab_size as f64 * rng.gen_range(0.5..1.5))
                    .collect()
            })
            .collect();
        let lambda_row_sums = lambda.iter().map(|row| row.iter().sum()).collect();
        Self {
            config,
            lambda,
            lambda_row_sums,
            updates: 0,
        }
    }

    /// The configuration this model was built with.
    #[must_use]
    pub fn config(&self) -> &LdaConfig {
        &self.config
    }

    /// The number of online updates (passes) applied.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The current learning rate ρ_t = (τ₀ + t)^{−κ}.
    fn learning_rate(&self) -> f64 {
        (TAU0 + self.updates as f64).powf(-KAPPA)
    }

    /// One warm-started online update over the window whose `i`-th
    /// document is `bags[positions[i]]`, with `bags` already indexed
    /// into `ws`. Returns the window's variational bound per word
    /// (higher is better), computed before the update; 0 when no
    /// position holds a non-empty document, in which case nothing moves.
    ///
    /// Each distinct document is solved once, before any position reads
    /// it: a solve depends only on λ and its own warm row, never on the
    /// order of solves. Its γ starts from its `ws.warm` row (the cold
    /// `α+1` init while the rows are empty, on pass 0) and the converged
    /// γ is written back to that row. Only that document reads the row
    /// in this pass, so every occurrence sees the same init — the dense
    /// oracle's read-only-memo discipline.
    ///
    /// The minibatch statistics are scaled to the window's length: the
    /// window is the whole corpus this model is fitted on.
    fn update_pass(
        &mut self,
        bags: &[BagOfWords],
        positions: &[u32],
        ws: &mut LdaWorkspace,
    ) -> f64 {
        let k = self.config.num_topics;
        let w = self.config.vocab_size;
        let nonempty_count = positions
            .iter()
            .filter(|&&bag| ws.doc_slot[bag as usize] != EMPTY)
            .count();
        if nonempty_count == 0 {
            return 0.0;
        }

        self.prepare_beta(bags, ws);
        let u = ws.unique_ids.len();
        ws.sstats.resize(k * u, 0.0);

        // Detached so the E-steps can borrow the rest of the workspace;
        // reattached below to keep their capacity.
        let distinct = ws.first.len();
        let mut outcomes = std::mem::take(&mut ws.outcomes);
        if outcomes.len() < distinct {
            outcomes.resize_with(distinct, DocOutcome::default);
        }
        let mut warm = std::mem::take(&mut ws.warm);
        let cold = warm.is_empty();
        if cold {
            warm.resize(distinct * k, 0.0);
        }

        for (index, outcome) in outcomes[..distinct].iter_mut().enumerate() {
            let row = index * k..(index + 1) * k;
            let init = (!cold).then(|| &warm[row.clone()]);
            self.e_step(&bags[ws.first[index] as usize], init, ws, outcome);
            warm[row].copy_from_slice(&ws.gamma);
        }

        let mut bound = 0.0;
        let mut word_total = 0u64;
        for &bag in positions {
            let index = ws.doc_slot[bag as usize];
            if index == EMPTY {
                continue;
            }
            // Replay the document's contribution in this position,
            // preserving the dense accumulation order: document-major,
            // position-major, topic-major.
            let outcome = &outcomes[index as usize];
            let in_vocab = bags[bag as usize].iter().filter(|&&(id, _)| id < w);
            for (&(id, _), contrib) in in_vocab.zip(outcome.contribs.chunks_exact(k)) {
                let slot = ws.slot(id);
                for (topic, &c) in contrib.iter().enumerate() {
                    ws.sstats[topic * u + slot] += c;
                }
            }
            bound += outcome.loglik;
            word_total += outcome.words;
        }
        ws.outcomes = outcomes;
        ws.warm = warm;

        // M-step: blend λ toward the batch estimate with step ρ. Absent
        // columns see `ρ·η`, which equals the dense `ρ·(η + scale·0.0)`
        // exactly (scale·0.0 == 0.0 and η + 0.0 == η in IEEE 754).
        let rho = self.learning_rate();
        let scale = positions.len() as f64 / nonempty_count as f64;
        let absent = rho * ETA;
        for (topic, lam_row) in self.lambda.iter_mut().enumerate() {
            for (word, lam) in lam_row.iter_mut().enumerate() {
                let slot = ws.slot_of[word];
                *lam = if slot == 0 {
                    (1.0 - rho) * *lam + absent
                } else {
                    (1.0 - rho) * *lam
                        + rho * (ETA + scale * ws.sstats[topic * u + (slot - 1) as usize])
                };
            }
        }
        for (sum, row) in self.lambda_row_sums.iter_mut().zip(&self.lambda) {
            *sum = row.iter().sum();
        }
        self.updates += 1;
        if word_total == 0 {
            0.0
        } else {
            bound / word_total as f64
        }
    }

    /// Fits one window: up to `passes` online updates over the window
    /// whose `i`-th document is `bags[positions[i]]`, with cross-pass
    /// warm-started γ and a cheap early exit once the variational bound
    /// stops moving, returning each bag's normalized topic mixture from
    /// the final pass (parallel to `bags`).
    ///
    /// This is the one fit path. A caller that holds one bag per
    /// document passes the identity index `0..n`; one that holds each
    /// distinct text once passes its bags and every position's bag, and
    /// pays for the distinct documents only. Bags need not be distinct:
    /// equal bags are solved once and share their mixture's bits.
    ///
    /// The bags are indexed once for all passes. The warm-start
    /// rows (converged γ per distinct document, owned by the workspace)
    /// are cleared at entry and refreshed by each pass: pass `p`'s
    /// E-steps start from pass `p−1`'s converged γ instead of the cold
    /// `α+1` init, so after the first pass each document's E-step
    /// typically converges in one or two iterations instead of
    /// re-walking the whole trajectory. Warmth is strictly per-window
    /// (the entry clear): fitting a window is a pure function of
    /// `(model, docs, passes, pass_tol)`, never of earlier windows'
    /// scratch, so the workspace invariant — any workspace produces
    /// bit-identical results — still holds.
    ///
    /// `pass_tol` is the relative bound tolerance: after pass `p ≥ 2`,
    /// the loop stops when `|b_p − b_{p−1}| ≤ pass_tol · |b_{p−1}|`.
    /// Pass `0.0` (or negative) to always run all `passes`.
    ///
    /// The returned mixtures are the final pass's converged γ,
    /// normalized (uniform for empty documents): inference is folded
    /// into the fit, with no E-step sweep of its own.
    ///
    /// Every float is ordered exactly as
    /// [`crate::dense::DenseOnlineLda::fit_window`] orders it over the
    /// expanded window (`positions.map(|b| bags[b])`), so λ, the update
    /// count and every position's mixture are bit-identical to the
    /// dense sweep — asserted in `tests/properties.rs`.
    ///
    /// # Panics
    ///
    /// Panics if a position names a bag past the end of `bags`.
    pub fn fit_window_with(
        &mut self,
        bags: &[BagOfWords],
        positions: &[u32],
        passes: usize,
        pass_tol: f64,
        ws: &mut LdaWorkspace,
    ) -> Vec<Vec<f64>> {
        ws.index_docs(bags);
        ws.warm.clear();
        let mut prev: Option<f64> = None;
        for _ in 0..passes.max(1) {
            let bound = self.update_pass(bags, positions, ws);
            if let Some(p) = prev {
                if pass_tol > 0.0 && (bound - p).abs() <= pass_tol * p.abs() {
                    break;
                }
            }
            prev = Some(bound);
        }
        // After the last pass the warm rows hold every non-empty
        // document's final converged γ. With no non-empty position no
        // pass ran and the rows stay empty; every bag is then empty or
        // read by no position, and reads uniform.
        let k = self.config.num_topics;
        ws.doc_slot
            .iter()
            .map(|&index| {
                if index == EMPTY || ws.warm.is_empty() {
                    vec![1.0 / k as f64; k]
                } else {
                    let row = index as usize * k;
                    let mut mixture = ws.warm[row..row + k].to_vec();
                    normalize_in_place(&mut mixture);
                    mixture
                }
            })
            .collect()
    }

    /// The current topic-word distributions: K rows, each a length-W
    /// probability vector (the normalized λ rows).
    #[must_use]
    pub fn topics(&self) -> Vec<Vec<f64>> {
        self.lambda
            .iter()
            .map(|row| {
                let mut r = row.clone();
                normalize_in_place(&mut r);
                r
            })
            .collect()
    }

    /// Builds the sparse β table for the union of word ids in `batch`:
    /// registers every in-vocab id (first-seen order) and fills
    /// `ws.beta[topic·U + slot] = exp(ψ(λ_kw) − ψ(Σλ_k))` — the exact
    /// cells the dense K×W sweep would have produced for those columns.
    fn prepare_beta(&self, batch: &[BagOfWords], ws: &mut LdaWorkspace) {
        let w = self.config.vocab_size;
        ws.begin_batch(w);
        for doc in batch {
            for &(id, _) in doc.iter() {
                if id < w {
                    ws.register(id);
                }
            }
        }
        for topic in 0..self.config.num_topics {
            dirichlet_expectation_sparse(
                &self.lambda[topic],
                self.lambda_row_sums[topic],
                &ws.unique_ids,
                &mut ws.beta,
            );
        }
    }

    /// Variational E-step for one document: converges γ (left in
    /// `ws.gamma`) and captures the φ·n contributions plus the per-doc
    /// likelihood into `out`, reusing its buffer.
    ///
    /// The iteration order — γ init at `α+1` (or the warm-start `init`
    /// when given), θ refresh, φ-norm refresh, then the mean-change
    /// test — mirrors the dense implementation statement for statement
    /// so the γ trajectory and the break decision are identical.
    fn e_step(
        &self,
        doc: &BagOfWords,
        init: Option<&[f64]>,
        ws: &mut LdaWorkspace,
        out: &mut DocOutcome,
    ) {
        let k = self.config.num_topics;
        let w = self.config.vocab_size;
        let u = ws.unique_ids.len();

        ws.gamma.clear();
        match init {
            Some(g) => ws.gamma.extend_from_slice(g),
            None => ws.gamma.resize(k, ALPHA + 1.0),
        }
        debug_assert_eq!(ws.gamma.len(), k, "warm-start γ has the wrong arity");
        exp_dirichlet_into(&ws.gamma, &mut ws.exp_elog_theta);
        phinorm_into(
            doc,
            w,
            u,
            &ws.slot_of,
            &ws.beta,
            &ws.exp_elog_theta,
            &mut ws.norms,
        );

        for _ in 0..MAX_E_STEPS {
            ws.last_gamma.clone_from(&ws.gamma);
            gamma_update(doc, w, u, ws);
            exp_dirichlet_into(&ws.gamma, &mut ws.exp_elog_theta);
            phinorm_into(
                doc,
                w,
                u,
                &ws.slot_of,
                &ws.beta,
                &ws.exp_elog_theta,
                &mut ws.norms,
            );
            if mean_change(&ws.gamma, &ws.last_gamma) < E_STEP_TOL {
                break;
            }
        }

        // Final responsibilities φ·n for sufficient statistics, in
        // position order over the in-vocab positions.
        out.contribs.clear();
        let mut words = 0u64;
        for (&(id, count), &norm) in doc.iter().zip(&ws.norms) {
            words += u64::from(count);
            if id >= w {
                continue;
            }
            let slot = ws.slot(id);
            let count = f64::from(count);
            for topic in 0..k {
                let p = ws.exp_elog_theta[topic] * ws.beta[topic * u + slot] / norm;
                out.contribs.push(p * count);
            }
        }
        out.loglik = self.doc_log_likelihood(doc, &ws.gamma, &mut ws.theta);
        out.words = words;
    }

    /// log p(doc | θ̂, β̂) with θ̂ the normalized γ and β̂ the normalized λ —
    /// the cheap likelihood proxy behind a pass's bound. Uses
    /// the cached λ row sums instead of recomputing K×W sums per call;
    /// `theta` is caller-owned scratch (the workspace's) so the
    /// normalization never allocates.
    fn doc_log_likelihood(&self, doc: &BagOfWords, gamma: &[f64], theta: &mut Vec<f64>) -> f64 {
        theta.clear();
        theta.extend_from_slice(gamma);
        normalize_in_place(theta);
        doc.iter()
            .filter(|&&(id, _)| id < self.config.vocab_size)
            .map(|&(id, count)| {
                let p_word: f64 = theta
                    .iter()
                    .enumerate()
                    .map(|(topic, &t)| t * self.lambda[topic][id] / self.lambda_row_sums[topic])
                    .sum();
                f64::from(count) * p_word.max(1e-300).ln()
            })
            .sum()
    }

    /// Direct access to the unnormalized variational parameter λ
    /// (K rows × W columns). Exposed for AOLDA's adaptive priors.
    #[must_use]
    pub fn lambda(&self) -> &[Vec<f64>] {
        &self.lambda
    }

    /// The model's λ, taken without a copy.
    #[must_use]
    pub fn into_lambda(self) -> Vec<Vec<f64>> {
        self.lambda
    }

    /// Replaces λ wholesale (dimensions must match) and refreshes the
    /// cached row sums. Used by AOLDA to seed a window's model from
    /// adapted priors.
    ///
    /// # Panics
    ///
    /// Panics if the shape of `lambda` is not K×W or any entry is not
    /// strictly positive.
    pub fn set_lambda(&mut self, lambda: Vec<Vec<f64>>) {
        assert_eq!(lambda.len(), self.config.num_topics, "lambda row count");
        for row in &lambda {
            assert_eq!(row.len(), self.config.vocab_size, "lambda column count");
            assert!(
                row.iter().all(|&x| x > 0.0),
                "lambda entries must be positive"
            );
        }
        self.lambda_row_sums = lambda.iter().map(|row| row.iter().sum()).collect();
        self.lambda = lambda;
    }
}

/// One γ update: `γ_t = α + θ_t · Σ_w (n_w / norm_w) · β_tw`.
///
/// The per-topic dot products accumulate positions in document order —
/// the same per-topic addition sequence as the dense loop — with the
/// `n_w / norm_w` quotient hoisted out of the topic loop (it is the same
/// bits whether computed once or K times).
fn gamma_update(doc: &BagOfWords, w: usize, u: usize, ws: &mut LdaWorkspace) {
    let k = ws.gamma.len();
    ws.dots.clear();
    ws.dots.resize(k, 0.0);
    for (&(id, count), &norm) in doc.iter().zip(&ws.norms) {
        if id >= w {
            continue;
        }
        let slot = (ws.slot_of[id] - 1) as usize;
        let q = f64::from(count) / norm;
        for (topic, dot) in ws.dots.iter_mut().enumerate() {
            *dot += q * ws.beta[topic * u + slot];
        }
    }
    for (topic, g) in ws.gamma.iter_mut().enumerate() {
        *g = ALPHA + ws.exp_elog_theta[topic] * ws.dots[topic];
    }
}

/// `exp(E[log θ])` into `out`.
fn exp_dirichlet_into(gamma: &[f64], out: &mut Vec<f64>) {
    let total: f64 = gamma.iter().sum();
    let psi_total = digamma(total);
    out.clear();
    out.reserve(gamma.len());
    for &g in gamma {
        out.push((digamma(g) - psi_total).exp());
    }
}

/// Per-position φ normalizers: `1e-100 + Σ_t θ_t · β_tw`, with
/// out-of-vocabulary positions pinned at the dense path's `1e-100`
/// sentinel.
fn phinorm_into(
    doc: &BagOfWords,
    w: usize,
    u: usize,
    slot_of: &[u32],
    beta: &[f64],
    theta: &[f64],
    norms: &mut Vec<f64>,
) {
    norms.clear();
    norms.reserve(doc.len());
    for &(id, _) in doc.iter() {
        let mut s = 1e-100;
        if id < w {
            let slot = (slot_of[id] - 1) as usize;
            for (topic, &t) in theta.iter().enumerate() {
                s += t * beta[topic * u + slot];
            }
        }
        norms.push(s);
    }
}

/// Mean absolute γ change between iterations.
fn mean_change(gamma: &[f64], last_gamma: &[f64]) -> f64 {
    gamma
        .iter()
        .zip(last_gamma)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / gamma.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint word clusters: ids 0..3 ("storage" words) and
    /// 4..7 ("memory" words).
    fn synthetic_corpus() -> Vec<BagOfWords> {
        let mut docs = Vec::new();
        for i in 0..20 {
            if i % 2 == 0 {
                docs.push(vec![(0, 2), (1, 1), (2, 1), (3, 2)]);
            } else {
                docs.push(vec![(4, 2), (5, 1), (6, 2), (7, 1)]);
            }
        }
        docs
    }

    /// The index of a window that holds one bag per document.
    fn identity(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    fn config(k: usize) -> LdaConfig {
        LdaConfig {
            num_topics: k,
            vocab_size: 8,
            ..LdaConfig::default()
        }
    }

    /// Fits the synthetic corpus as one window of `passes` passes.
    fn fit(lda: &mut OnlineLda, passes: usize) -> Vec<Vec<f64>> {
        let corpus = synthetic_corpus();
        let positions = identity(corpus.len());
        lda.fit_window_with(&corpus, &positions, passes, 0.0, &mut LdaWorkspace::new())
    }

    #[test]
    fn topics_are_probability_distributions() {
        let mut lda = OnlineLda::new(config(2));
        fit(&mut lda, 5);
        for row in lda.topics() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn separates_disjoint_clusters() {
        let mut lda = OnlineLda::new(config(2));
        fit(&mut lda, 30);
        // The four most probable words of each topic are one cluster.
        let top4 = |row: &[f64]| {
            let mut ids: Vec<usize> = (0..row.len()).collect();
            ids.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
            ids.truncate(4);
            ids.sort_unstable();
            ids
        };
        let topics = lda.topics();
        let (t0, t1) = (top4(&topics[0]), top4(&topics[1]));
        let clusters = [vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        assert!(
            (t0 == clusters[0] && t1 == clusters[1]) || (t0 == clusters[1] && t1 == clusters[0]),
            "topics did not separate clusters: {t0:?} vs {t1:?}"
        );
    }

    #[test]
    fn a_document_lands_in_its_cluster_topic() {
        let mut lda = OnlineLda::new(config(2));
        // Documents 0 and 1 are a "storage" and a "memory" document.
        let mix = fit(&mut lda, 30);
        let dominant = |v: &[f64]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0
        };
        assert_ne!(dominant(&mix[0]), dominant(&mix[1]));
        assert!(mix[0].iter().cloned().fold(f64::MIN, f64::max) > 0.8);
    }

    #[test]
    fn fit_window_is_deterministic_and_normalized() {
        let corpus = synthetic_corpus();
        let run = || {
            let mut lda = OnlineLda::new(config(2));
            let mut ws = LdaWorkspace::new();
            let mix = lda.fit_window_with(&corpus, &identity(corpus.len()), 10, 1e-2, &mut ws);
            (mix, lda.lambda().to_vec())
        };
        let (ma, la) = run();
        let (mb, lb) = run();
        assert_eq!(ma, mb, "same input, same workspace age → same mixtures");
        assert_eq!(la, lb);
        for theta in &ma {
            assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(theta.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn fit_window_pass_tol_zero_runs_every_pass() {
        let mut lda = OnlineLda::new(config(2));
        let mut ws = LdaWorkspace::new();
        lda.fit_window_with(&synthetic_corpus(), &identity(20), 7, 0.0, &mut ws);
        assert_eq!(lda.updates(), 7, "disabled early exit must run all passes");
    }

    #[test]
    fn fit_window_early_exit_is_observable_via_updates() {
        // A huge tolerance accepts the first bound comparison, so the
        // loop stops right after pass 2 — the earliest the exit rule
        // (`p ≥ 2`) allows.
        let mut lda = OnlineLda::new(config(2));
        let mut ws = LdaWorkspace::new();
        lda.fit_window_with(&synthetic_corpus(), &identity(20), 9, 1e9, &mut ws);
        assert_eq!(lda.updates(), 2, "maximal tolerance must exit after pass 2");
    }

    #[test]
    fn fit_window_empty_docs_get_uniform_mixtures() {
        let mut docs = synthetic_corpus();
        docs.insert(1, Vec::new());
        let mut lda = OnlineLda::new(config(3));
        let mut ws = LdaWorkspace::new();
        let mix = lda.fit_window_with(&docs, &identity(docs.len()), 5, 1e-2, &mut ws);
        assert_eq!(mix.len(), docs.len());
        assert!(mix[1].iter().all(|&p| (p - 1.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn fit_window_duplicate_docs_get_identical_mixtures() {
        let mut docs = synthetic_corpus();
        docs.push(docs[0].clone());
        let mut lda = OnlineLda::new(config(2));
        let mut ws = LdaWorkspace::new();
        let mix = lda.fit_window_with(&docs, &identity(docs.len()), 5, 1e-2, &mut ws);
        let last = mix.len() - 1;
        assert_eq!(
            mix[0], mix[last],
            "same content must yield the same mixture"
        );
    }

    #[test]
    fn indexed_window_matches_its_expansion() {
        // Bag 0 and bag 3 collide, bag 2 is empty and bag 4 is read by
        // no position.
        let bags: Vec<BagOfWords> = vec![
            vec![(0, 2), (3, 1)],
            vec![(5, 4)],
            Vec::new(),
            vec![(0, 2), (3, 1)],
            vec![(7, 1)],
        ];
        let positions = [1u32, 0, 2, 3, 1, 1, 0, 2];
        let expanded: Vec<BagOfWords> = positions
            .iter()
            .map(|&b| bags[b as usize].clone())
            .collect();
        let mut indexed = OnlineLda::new(config(3));
        let mut flat = OnlineLda::new(config(3));
        let mut ws = LdaWorkspace::new();
        let per_bag = indexed.fit_window_with(&bags, &positions, 6, 1e-2, &mut ws);
        let per_doc = flat.fit_window_with(&expanded, &identity(expanded.len()), 6, 1e-2, &mut ws);
        assert_eq!(per_bag.len(), bags.len());
        assert_eq!(per_bag[0], per_bag[3], "colliding bags share their mixture");
        for (&bag, mixture) in positions.iter().zip(&per_doc) {
            assert_eq!(&per_bag[bag as usize], mixture);
        }
        assert_eq!(indexed.lambda(), flat.lambda());
        assert_eq!(indexed.updates(), flat.updates());
    }

    #[test]
    fn window_of_empty_positions_is_a_no_op() {
        let bags: Vec<BagOfWords> = vec![Vec::new(), vec![(1, 1)]];
        let mut lda = OnlineLda::new(config(2));
        let before = lda.lambda().to_vec();
        let mix = lda.fit_window_with(&bags, &[0, 0], 4, 1e-2, &mut LdaWorkspace::new());
        assert_eq!(lda.updates(), 0);
        assert_eq!(lda.lambda(), &before[..]);
        assert!(mix.iter().flatten().all(|&p| p == 0.5));
    }

    #[test]
    fn learning_rate_falls_as_passes_run() {
        let mut lda = OnlineLda::new(config(2));
        let r0 = lda.learning_rate();
        fit(&mut lda, 3);
        assert_eq!(lda.updates(), 3);
        assert!(lda.learning_rate() < r0);
        assert!(r0 <= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = OnlineLda::new(config(2));
        let mut b = OnlineLda::new(config(2));
        assert_eq!(fit(&mut a, 3), fit(&mut b, 3));
        assert_eq!(a.lambda(), b.lambda());
        let mut c = OnlineLda::new(LdaConfig {
            seed: 7,
            ..config(2)
        });
        fit(&mut c, 3);
        assert_ne!(a.lambda(), c.lambda());
    }

    #[test]
    fn out_of_vocab_ids_are_ignored() {
        let mut lda = OnlineLda::new(config(2));
        let weird = vec![vec![(0, 1), (999, 5)], vec![(999, 3)]];
        // Must not panic.
        let mix = lda.fit_window_with(&weird, &[0, 1], 3, 0.0, &mut LdaWorkspace::new());
        assert_eq!(lda.updates(), 3);
        for theta in &mix {
            assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn set_lambda_roundtrip() {
        let mut lda = OnlineLda::new(config(2));
        let mut lam = lda.lambda().to_vec();
        lam[0][0] = 5.0;
        lda.set_lambda(lam.clone());
        assert_eq!(lda.lambda(), &lam[..]);
    }

    #[test]
    #[should_panic(expected = "lambda row count")]
    fn set_lambda_rejects_bad_shape() {
        let mut lda = OnlineLda::new(config(2));
        lda.set_lambda(vec![vec![1.0; 8]]);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_workspaces() {
        let corpus = synthetic_corpus();
        let positions = identity(corpus.len());
        let mut reused = OnlineLda::new(config(2));
        let mut fresh = OnlineLda::new(config(2));
        let mut ws = LdaWorkspace::new();
        for _ in 0..10 {
            let a = reused.fit_window_with(&corpus, &positions, 2, 0.0, &mut ws);
            let b = fit(&mut fresh, 2);
            assert_eq!(a, b);
        }
        assert_eq!(reused.lambda(), fresh.lambda());
    }

    #[test]
    fn workspace_holds_a_linear_bound_of_its_largest_window() {
        const K: usize = 4;
        const W: usize = 64;
        let mut lda = OnlineLda::new(LdaConfig {
            num_topics: K,
            vocab_size: W,
            ..LdaConfig::default()
        });
        let mut ws = LdaWorkspace::new();
        // Two-word documents over the whole vocabulary, mostly distinct.
        let doc = |i: usize| -> BagOfWords {
            let a = i % W;
            let b = (a + 1 + (i / W) % (W - 1)) % W;
            let mut d = vec![(a, 1), (b, 2)];
            d.sort_unstable();
            d
        };
        let big: Vec<BagOfWords> = (0..2_000).map(doc).collect();
        lda.fit_window_with(&big, &identity(big.len()), 3, 1e-2, &mut ws);
        let (distinct, support) = (ws.first.len(), ws.unique_ids.len());
        assert!(
            distinct > 1_900 && support == W,
            "{distinct} docs, {support} ids"
        );
        // Eight f64s per cell of the window's γ rows and β table covers
        // the index, the outcomes and the growth slack, with no
        // fixed-size term. A 65,536-entry hash table (≈ 2 MB) would not
        // fit under it.
        let bound = 8 * std::mem::size_of::<f64>() * (distinct * K + support * K);
        let after_big = ws.retained_bytes();
        assert!(after_big <= bound, "{after_big} B held, bound {bound} B");
        for w in 0..200 {
            let small = vec![doc(w), Vec::new(), doc(w + 7)];
            lda.fit_window_with(&small, &identity(small.len()), 3, 1e-2, &mut ws);
            let held = ws.retained_bytes();
            assert!(
                held <= after_big,
                "window {w}: {held} B held, more than the largest window's {after_big} B"
            );
        }
    }
}
