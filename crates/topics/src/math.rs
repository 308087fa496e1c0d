//! Special functions and distribution utilities for variational LDA.

/// The digamma function ψ(x) = d/dx ln Γ(x), for x > 0.
///
/// Uses the standard recurrence to push the argument to at least 7, then
/// the asymptotic (Bernoulli) series through the B₁₂ term. Accurate to
/// ~1e-12 for x > 0, which is far tighter than variational inference
/// needs.
///
/// # Example
///
/// ```
/// // ψ(1) = −γ (Euler–Mascheroni).
/// let euler_gamma = 0.5772156649015329;
/// assert!((alertops_topics::math::digamma(1.0) + euler_gamma).abs() < 1e-12);
/// ```
#[must_use]
pub fn digamma(mut x: f64) -> f64 {
    assert!(x > 0.0, "digamma requires a positive argument, got {x}");
    let mut result = 0.0;
    // Push the argument to ≥ 7 — with the B₁₂ term below the series'
    // truncation error at 7 is ≈ 1/(12·7¹⁴) ≈ 1e-13, and every
    // recurrence step avoided is a serial division on the E-step's
    // hottest path (γ parameters live in [α, ~10], so the old
    // threshold of 10 cost three extra divisions per evaluation).
    while x < 7.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    // ψ(x) ≈ ln x − 1/(2x) − Σ B_{2n} / (2n x^{2n})
    result + x.ln()
        - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2
                    * (1.0 / 120.0
                        - inv2
                            * (1.0 / 252.0
                                - inv2
                                    * (1.0 / 240.0
                                        - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0))))))
}

/// Computes `E[log θ]` under a Dirichlet with parameter vector `gamma`:
/// `ψ(γ_k) − ψ(Σ γ)` for each component.
///
/// # Panics
///
/// Panics if `gamma` is empty or any component is non-positive.
#[must_use]
pub fn dirichlet_expectation(gamma: &[f64]) -> Vec<f64> {
    assert!(!gamma.is_empty(), "dirichlet_expectation of empty vector");
    let total: f64 = gamma.iter().sum();
    let psi_total = digamma(total);
    gamma.iter().map(|&g| digamma(g) - psi_total).collect()
}

/// Normalizes `v` in place to sum to 1. No-op for an all-zero vector.
pub fn normalize_in_place(v: &mut [f64]) {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

/// The Kullback–Leibler divergence `KL(p ‖ q)` between two discrete
/// distributions, in nats. Components where `p = 0` contribute zero;
/// components where `p > 0` but `q = 0` contribute `+∞` avoided by
/// flooring q at 1e-12.
#[must_use]
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution lengths differ");
    p.iter()
        .zip(q)
        .filter(|(&pi, _)| pi > 0.0)
        .map(|(&pi, &qi)| pi * (pi / qi.max(1e-12)).ln())
        .sum()
}

/// The Jensen–Shannon divergence between two discrete distributions, in
/// nats; symmetric, bounded by ln 2.
///
/// Used by AOLDA to decide whether a window's topic is *emerging*: a
/// topic far (in JS divergence) from every topic of the previous windows
/// has no historical counterpart.
#[must_use]
pub fn js_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution lengths differ");
    let m: Vec<f64> = p.iter().zip(q).map(|(&a, &b)| 0.5 * (a + b)).collect();
    0.5 * kl_divergence(p, &m) + 0.5 * kl_divergence(q, &m)
}

/// Σ p·ln p over the strictly positive entries of `p` — the negated
/// Shannon entropy, in nats.
///
/// Precompute this once per distribution and hand it to
/// [`js_divergence_prepared`]: the emergence scan compares every window
/// topic against every baseline topic, and the Σp·ln p term of each
/// distribution is pair-independent, so hoisting it halves the `ln`
/// volume of the scan.
#[must_use]
pub fn neg_entropy(p: &[f64]) -> f64 {
    p.iter().filter(|&&x| x > 0.0).map(|&x| x * x.ln()).sum()
}

/// [`js_divergence`] with both distributions' Σp·ln p terms precomputed
/// (via [`neg_entropy`]).
///
/// Uses the identity `JS(p,q) = ½(Σp·ln p + Σq·ln q) − Σ m·ln m` with
/// `m = (p+q)/2`, flooring `m` at 1e-12 inside the logarithm exactly
/// where [`kl_divergence`] floors its denominator. Columns where both
/// inputs are zero (e.g. vocabulary padding after
/// [`crate::AdaptiveOnlineLda::grow_vocab`]) contribute nothing, as in
/// the plain form. Agrees with [`js_divergence`] to floating-point
/// round-off (the summation is grouped differently, so bit-equality is
/// not promised — callers that need run-to-run determinism get it
/// because both runs take the same code path).
#[must_use]
pub fn js_divergence_prepared(p: &[f64], p_plogp: f64, q: &[f64], q_plogp: f64) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution lengths differ");
    let mut cross = 0.0;
    for (&a, &b) in p.iter().zip(q) {
        let m = 0.5 * (a + b);
        if m > 0.0 {
            cross += m * m.max(1e-12).ln();
        }
    }
    0.5 * (p_plogp + q_plogp) - cross
}

/// Appends `exp(ψ(row[id]) − ψ(row_sum))` for each `id` in `ids` to
/// `out` — the sparse counterpart of exponentiating
/// [`dirichlet_expectation`] over one λ row, touching only the columns a
/// batch actually reads.
///
/// `row_sum` must equal `row.iter().sum()` computed left to right; the
/// caller maintains that invariant so the ψ(Σλ) term is bit-identical
/// to what a dense sweep with a freshly computed sum would use.
///
/// # Panics
///
/// Panics if any `id` is out of bounds for `row`.
pub fn dirichlet_expectation_sparse(row: &[f64], row_sum: f64, ids: &[usize], out: &mut Vec<f64>) {
    let psi_total = digamma(row_sum);
    out.reserve(ids.len());
    for &id in ids {
        out.push((digamma(row[id]) - psi_total).exp());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

    #[test]
    fn digamma_known_values() {
        // ψ(1) = −γ, ψ(2) = 1 − γ, ψ(1/2) = −γ − 2 ln 2.
        assert!((digamma(1.0) + EULER_GAMMA).abs() < 1e-12);
        assert!((digamma(2.0) - (1.0 - EULER_GAMMA)).abs() < 1e-12);
        assert!((digamma(0.5) + EULER_GAMMA + 2.0 * 2.0_f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn digamma_recurrence_holds() {
        // ψ(x+1) = ψ(x) + 1/x.
        for x in [0.1, 0.7, 1.3, 5.5, 42.0] {
            assert!(
                (digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-10,
                "recurrence failed at {x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive argument")]
    fn digamma_rejects_nonpositive() {
        let _ = digamma(0.0);
    }

    #[test]
    fn dirichlet_expectation_is_negative_and_ordered() {
        let e = dirichlet_expectation(&[1.0, 2.0, 3.0]);
        // E[log θ] components are always negative (θ < 1 a.s. componentwise
        // in expectation) and monotone in the parameter.
        assert!(e.iter().all(|&x| x < 0.0));
        assert!(e[0] < e[1] && e[1] < e[2]);
    }

    #[test]
    fn normalize_in_place_sums_to_one() {
        let mut v = vec![2.0, 6.0, 2.0];
        normalize_in_place(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((v[1] - 0.6).abs() < 1e-12);
        let mut zeros = vec![0.0, 0.0];
        normalize_in_place(&mut zeros);
        assert_eq!(zeros, vec![0.0, 0.0]);
    }

    #[test]
    fn kl_divergence_properties() {
        let p = [0.5, 0.5];
        let q = [0.9, 0.1];
        assert_eq!(kl_divergence(&p, &p), 0.0);
        assert!(kl_divergence(&p, &q) > 0.0);
        // Not symmetric in general.
        assert!((kl_divergence(&p, &q) - kl_divergence(&q, &p)).abs() > 1e-6);
    }

    #[test]
    fn dirichlet_expectation_sparse_matches_dense() {
        let row = [0.3, 1.7, 0.05, 9.0, 2.2];
        let row_sum: f64 = row.iter().sum();
        let dense: Vec<f64> = dirichlet_expectation(&row)
            .iter()
            .map(|e| e.exp())
            .collect();
        let ids = [4usize, 0, 2];
        let mut out = Vec::new();
        dirichlet_expectation_sparse(&row, row_sum, &ids, &mut out);
        assert_eq!(out.len(), ids.len());
        for (slot, &id) in ids.iter().enumerate() {
            assert_eq!(
                out[slot].to_bits(),
                dense[id].to_bits(),
                "sparse cell {id} diverged from dense"
            );
        }
    }

    #[test]
    fn js_prepared_matches_plain_form() {
        // Overlapping, disjoint, identical, and zero-padded pairs — the
        // shapes the emergence scan actually sees.
        let pairs: &[(&[f64], &[f64])] = &[
            (&[0.5, 0.3, 0.2], &[0.1, 0.2, 0.7]),
            (&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]),
            (&[0.25, 0.25, 0.5], &[0.25, 0.25, 0.5]),
            (&[0.6, 0.4, 0.0, 0.0], &[0.3, 0.7, 0.0, 0.0]),
        ];
        for (p, q) in pairs {
            let plain = js_divergence(p, q);
            let prepared = js_divergence_prepared(p, neg_entropy(p), q, neg_entropy(q));
            assert!(
                (plain - prepared).abs() < 1e-12,
                "prepared {prepared} vs plain {plain} for {p:?} / {q:?}"
            );
        }
    }

    #[test]
    fn js_divergence_properties() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        // Maximal for disjoint supports: ln 2.
        assert!((js_divergence(&p, &q) - 2.0_f64.ln()).abs() < 1e-9);
        assert_eq!(js_divergence(&p, &p), 0.0);
        // Symmetric.
        let r = [0.3, 0.7];
        assert!((js_divergence(&p, &r) - js_divergence(&r, &p)).abs() < 1e-12);
        // Bounded.
        assert!(js_divergence(&q, &r) <= 2.0_f64.ln() + 1e-12);
    }
}
