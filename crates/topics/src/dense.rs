//! The dense reference implementation of online variational-Bayes LDA.
//!
//! This is a verbatim preservation of the pre-sparse kernel: every float
//! operation (order included) is exactly what `OnlineLda` computed before
//! the sparse rewrite. It exists so the differential property tests in
//! `tests/properties.rs` can assert that the sparse window fit in
//! [`crate::lda`] is **bit-identical** — same λ, same pass count, same
//! mixtures — across seeded corpora. It is not meant for production
//! use: every pass pays dense `[topics × vocab]` digamma sweeps.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use alertops_text::{BagOfWords, FxBuildHasher};

use crate::lda::{ALPHA, ETA, E_STEP_TOL, KAPPA, MAX_E_STEPS, TAU0};
use crate::math::{digamma, dirichlet_expectation, normalize_in_place};
use crate::LdaConfig;

/// Cross-pass warm-start memo: converged γ per document content, valid
/// for one window fit (see [`DenseOnlineLda::fit_window`], which starts a
/// fresh one). Never iterated, so the unkeyed hasher's bucket order
/// cannot reach any output.
type WarmGamma = HashMap<BagOfWords, Vec<f64>, FxBuildHasher>;

/// Dense online variational-Bayes LDA — the differential oracle for
/// [`crate::OnlineLda`]. It mirrors the window fit, with the same
/// semantics, kept deliberately unoptimized.
#[derive(Debug, Clone)]
pub struct DenseOnlineLda {
    config: LdaConfig,
    /// Variational parameter λ, K×W.
    lambda: Vec<Vec<f64>>,
    /// exp(E[log β]), K×W, kept in sync with λ.
    exp_elog_beta: Vec<Vec<f64>>,
    /// Number of online updates (passes) applied so far.
    updates: u64,
}

impl DenseOnlineLda {
    /// Creates a model with λ initialized from a seeded gamma-like
    /// distribution, byte-for-byte the same RNG sequence as
    /// [`crate::OnlineLda::new`].
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
        let exp_elog_beta = lambda.iter().map(|row| exp_dirichlet_row(row)).collect();
        Self {
            config,
            lambda,
            exp_elog_beta,
            updates: 0,
        }
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

    /// One online update warm-started from `warm`; the dense original of
    /// the sparse kernel's private `update_pass`. The memo is read-only
    /// while the window runs and refreshed after the document loop, so
    /// duplicate documents see the same init — the same discipline the
    /// sparse side follows, making the two bit-identical.
    fn update_pass(&mut self, batch: &[BagOfWords], warm: &mut WarmGamma) -> f64 {
        let nonempty: Vec<&BagOfWords> = batch.iter().filter(|d| !d.is_empty()).collect();
        if nonempty.is_empty() {
            return 0.0;
        }
        let k = self.config.num_topics;
        let w = self.config.vocab_size;
        let mut sstats = vec![vec![0.0; w]; k];
        let mut bound = 0.0;
        let mut word_total = 0u64;
        let mut converged: Vec<(&BagOfWords, Vec<f64>)> = Vec::new();

        for doc in &nonempty {
            let init = warm.get(doc.as_slice()).map(Vec::as_slice);
            let (gamma, phi_contrib) = self.e_step(doc, init);
            // Accumulate sufficient statistics: sstats[k][w] += phi_kw * n_w.
            for (slot, &(id, count)) in phi_contrib.iter().zip(doc.iter()) {
                if id >= w {
                    continue;
                }
                for (topic, &p) in slot.iter().enumerate() {
                    sstats[topic][id] += p * f64::from(count);
                }
            }
            bound += self.doc_log_likelihood(doc, &gamma);
            word_total += doc.iter().map(|&(_, c)| u64::from(c)).sum::<u64>();
            converged.push((*doc, gamma));
        }

        // End-of-pass write-back. Duplicate occurrences converged to the
        // same bits (same init, same β), so writing each is identical to
        // the sparse side's one-write-per-distinct-document.
        for (doc, gamma) in converged {
            match warm.get_mut(doc.as_slice()) {
                Some(slot) => slot.clone_from(&gamma),
                None => {
                    warm.insert((*doc).clone(), gamma);
                }
            }
        }

        // M-step: blend λ toward the batch estimate with step ρ, the
        // statistics scaled to the window's length.
        let rho = self.learning_rate();
        let scale = batch.len() as f64 / nonempty.len() as f64;
        for (lam_row, ss_row) in self.lambda.iter_mut().zip(&sstats) {
            for (lam, &ss) in lam_row.iter_mut().zip(ss_row) {
                *lam = (1.0 - rho) * *lam + rho * (ETA + scale * ss);
            }
        }
        for (beta_row, lam_row) in self.exp_elog_beta.iter_mut().zip(&self.lambda) {
            *beta_row = exp_dirichlet_row(lam_row);
        }
        self.updates += 1;
        if word_total == 0 {
            0.0
        } else {
            bound / word_total as f64
        }
    }

    /// Fits one window: up to `passes` updates over `docs` with warm-started
    /// γ and a relative-bound early exit, returning the final pass's
    /// normalized γ per document; the dense original of
    /// [`crate::OnlineLda::fit_window_with`]. Same memo discipline (fresh
    /// per window; read during a pass, written back after it) and the same
    /// exit rule on the bitwise-equal bound sequence, so the two stop
    /// after the same pass and return the same mixture bits.
    pub fn fit_window(
        &mut self,
        docs: &[BagOfWords],
        passes: usize,
        pass_tol: f64,
    ) -> Vec<Vec<f64>> {
        let mut warm = WarmGamma::default();
        let mut prev: Option<f64> = None;
        for _ in 0..passes.max(1) {
            let bound = self.update_pass(docs, &mut warm);
            if let Some(p) = prev {
                if pass_tol > 0.0 && (bound - p).abs() <= pass_tol * p.abs() {
                    break;
                }
            }
            prev = Some(bound);
        }

        // After the last pass's write-back the memo holds every
        // non-empty document's final converged γ.
        let k = self.config.num_topics;
        docs.iter()
            .map(|doc| {
                if doc.is_empty() {
                    vec![1.0 / k as f64; k]
                } else {
                    let mut mixture = warm[doc.as_slice()].clone();
                    normalize_in_place(&mut mixture);
                    mixture
                }
            })
            .collect()
    }

    /// The current topic-word distributions (normalized λ rows).
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

    /// Variational E-step for one document, starting γ from `init` (the
    /// warm-start memo) or the cold `α + 1`. Returns the converged γ and,
    /// per word position, the topic responsibilities φ.
    fn e_step(&self, doc: &BagOfWords, init: Option<&[f64]>) -> (Vec<f64>, Vec<Vec<f64>>) {
        let k = self.config.num_topics;
        let mut gamma = match init {
            Some(g) => g.to_vec(),
            None => vec![ALPHA + 1.0; k],
        };
        let mut exp_elog_theta: Vec<f64> = dirichlet_expectation(&gamma)
            .into_iter()
            .map(f64::exp)
            .collect();

        let ids: Vec<usize> = doc.iter().map(|&(id, _)| id).collect();
        let counts: Vec<f64> = doc.iter().map(|&(_, c)| f64::from(c)).collect();

        let phinorm = |theta: &[f64]| -> Vec<f64> {
            ids.iter()
                .map(|&id| {
                    let mut s = 1e-100;
                    if id < self.config.vocab_size {
                        for (topic, t) in theta.iter().enumerate() {
                            s += t * self.exp_elog_beta[topic][id];
                        }
                    }
                    s
                })
                .collect()
        };
        let mut norms = phinorm(&exp_elog_theta);

        for _ in 0..MAX_E_STEPS {
            let last_gamma = gamma.clone();
            for (topic, g) in gamma.iter_mut().enumerate() {
                let mut dot = 0.0;
                for ((&id, &count), &norm) in ids.iter().zip(&counts).zip(&norms) {
                    if id < self.config.vocab_size {
                        dot += count / norm * self.exp_elog_beta[topic][id];
                    }
                }
                *g = ALPHA + exp_elog_theta[topic] * dot;
            }
            exp_elog_theta = dirichlet_expectation(&gamma)
                .into_iter()
                .map(f64::exp)
                .collect();
            norms = phinorm(&exp_elog_theta);
            let mean_change: f64 = gamma
                .iter()
                .zip(&last_gamma)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / k as f64;
            if mean_change < E_STEP_TOL {
                break;
            }
        }

        // Final responsibilities φ for sufficient statistics.
        let phi: Vec<Vec<f64>> = ids
            .iter()
            .zip(&norms)
            .map(|(&id, &norm)| {
                (0..k)
                    .map(|topic| {
                        if id < self.config.vocab_size {
                            exp_elog_theta[topic] * self.exp_elog_beta[topic][id] / norm
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        (gamma, phi)
    }

    /// log p(doc | θ̂, β̂) with θ̂ the normalized γ and β̂ the normalized λ.
    fn doc_log_likelihood(&self, doc: &BagOfWords, gamma: &[f64]) -> f64 {
        let mut theta = gamma.to_vec();
        normalize_in_place(&mut theta);
        let lambda_sums: Vec<f64> = self.lambda.iter().map(|r| r.iter().sum()).collect();
        doc.iter()
            .filter(|&&(id, _)| id < self.config.vocab_size)
            .map(|&(id, count)| {
                let p_word: f64 = theta
                    .iter()
                    .enumerate()
                    .map(|(topic, &t)| t * self.lambda[topic][id] / lambda_sums[topic])
                    .sum();
                f64::from(count) * p_word.max(1e-300).ln()
            })
            .sum()
    }

    /// Direct access to the unnormalized variational parameter λ.
    #[must_use]
    pub fn lambda(&self) -> &[Vec<f64>] {
        &self.lambda
    }

    /// Replaces λ wholesale (dimensions must match) and refreshes the
    /// cached `exp(E[log β])`.
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
        self.exp_elog_beta = lambda.iter().map(|row| exp_dirichlet_row(row)).collect();
        self.lambda = lambda;
    }
}

/// exp(ψ(λ_w) − ψ(Σλ)) for one row.
fn exp_dirichlet_row(row: &[f64]) -> Vec<f64> {
    let total: f64 = row.iter().sum();
    let psi_total = digamma(total);
    row.iter()
        .map(|&x| (digamma(x) - psi_total).exp())
        .collect()
}
