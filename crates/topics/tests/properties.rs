//! Property-based tests over the topic-model substrate.
//!
//! The `sparse_*` properties are the differential wall around the sparse
//! AO-LDA kernel: every one compares the production [`OnlineLda`] against
//! the verbatim pre-rewrite dense implementation
//! ([`DenseOnlineLda`]) and asserts **bit-identical** results — `==` on
//! `f64`s, no tolerance — because the streaming/offline and shard/cluster
//! differentials downstream compare serialized bytes.

use proptest::prelude::*;

use alertops_topics::dense::DenseOnlineLda;
use alertops_topics::math::{
    digamma, dirichlet_expectation, dirichlet_expectation_sparse, js_divergence,
    js_divergence_prepared, neg_entropy, normalize_in_place,
};
use alertops_topics::{LdaConfig, LdaWorkspace, OnlineLda};

/// Deduplicates word ids within each doc (the `BagOfWords` contract).
fn to_bows(docs: Vec<Vec<(usize, u32)>>) -> Vec<Vec<(usize, u32)>> {
    docs.into_iter()
        .map(|d| {
            let mut m = std::collections::BTreeMap::new();
            for (id, c) in d {
                *m.entry(id).or_insert(0) += c;
            }
            m.into_iter().collect()
        })
        .collect()
}

/// The index of a window that holds one bag per document.
fn identity(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// A corpus strategy with some out-of-vocab ids mixed in (vocab is 12).
fn corpus_strategy() -> impl Strategy<Value = Vec<Vec<(usize, u32)>>> {
    prop::collection::vec(prop::collection::vec((0usize..15, 1u32..4), 1..7), 1..10)
        .prop_map(to_bows)
}

proptest! {
    #[test]
    fn digamma_is_monotone_increasing(x in 0.01f64..50.0, delta in 0.01f64..5.0) {
        prop_assert!(digamma(x + delta) > digamma(x));
    }

    #[test]
    fn digamma_recurrence(x in 0.05f64..100.0) {
        prop_assert!((digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-8);
    }

    #[test]
    fn dirichlet_expectation_components_nonpositive(
        gamma in prop::collection::vec(0.01f64..100.0, 1..20),
    ) {
        // E[log θ_k] ≤ 0 always; strictly negative once K ≥ 2 (for K = 1
        // the distribution is the constant θ = 1, so E[log θ] = 0).
        for e in dirichlet_expectation(&gamma) {
            prop_assert!(e <= 1e-12);
            if gamma.len() >= 2 {
                prop_assert!(e < 0.0);
            }
        }
    }

    #[test]
    fn normalize_produces_distribution(
        v in prop::collection::vec(0.0f64..100.0, 1..20),
    ) {
        let mut v = v;
        let had_mass = v.iter().sum::<f64>() > 0.0;
        normalize_in_place(&mut v);
        if had_mass {
            prop_assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(v.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn js_divergence_symmetric_and_bounded(
        p in prop::collection::vec(0.001f64..1.0, 4),
        q in prop::collection::vec(0.001f64..1.0, 4),
    ) {
        let mut p = p;
        let mut q = q;
        normalize_in_place(&mut p);
        normalize_in_place(&mut q);
        let pq = js_divergence(&p, &q);
        let qp = js_divergence(&q, &p);
        prop_assert!((pq - qp).abs() < 1e-9);
        prop_assert!((0.0..=2.0f64.ln() + 1e-9).contains(&pq));
        prop_assert!(js_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn lda_topics_are_distributions_after_any_batch(
        docs in prop::collection::vec(
            prop::collection::vec((0usize..12, 1u32..4), 1..6),
            1..8,
        ),
        seed in 0u64..100,
    ) {
        // Deduplicate ids within each doc (BagOfWords contract).
        let docs: Vec<Vec<(usize, u32)>> = docs
            .into_iter()
            .map(|d| {
                let mut m = std::collections::BTreeMap::new();
                for (id, c) in d {
                    *m.entry(id).or_insert(0) += c;
                }
                m.into_iter().collect()
            })
            .collect();
        let mut lda = OnlineLda::new(LdaConfig {
            num_topics: 3,
            vocab_size: 12,
            seed,
        });
        let mixtures =
            lda.fit_window_with(&docs, &identity(docs.len()), 1, 0.0, &mut LdaWorkspace::new());
        for row in lda.topics() {
            let sum: f64 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "topic sums to {}", sum);
            prop_assert!(row.iter().all(|&p| p >= 0.0));
        }
        // Every document's mixture is a distribution too.
        for theta in &mixtures {
            prop_assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        }
    }

    /// The tentpole guarantee: the sparse kernel's λ trajectory is
    /// bit-identical to the dense sweep's across seeded corpora and
    /// consecutive one-pass windows, with a shared workspace in play the
    /// whole time (duplicate docs exercise the replay of a distinct doc's
    /// outcome, ids ≥ 12 the out-of-vocab path).
    #[test]
    fn sparse_one_pass_windows_are_bit_identical_to_dense(
        corpus in corpus_strategy(),
        seed in 0u64..50,
        windows in 1usize..6,
    ) {
        let config = LdaConfig {
            num_topics: 3,
            vocab_size: 12,
            seed,
        };
        let mut sparse = OnlineLda::new(config.clone());
        let mut dense = DenseOnlineLda::new(config);
        prop_assert_eq!(sparse.lambda(), dense.lambda(), "seeded init diverged");
        let mut ws = LdaWorkspace::new();
        let positions = identity(corpus.len());
        for round in 0..windows {
            let sm = sparse.fit_window_with(&corpus, &positions, 1, 0.0, &mut ws);
            let dm = dense.fit_window(&corpus, 1, 0.0);
            prop_assert_eq!(&sm, &dm, "mixtures diverged at round {}", round);
            prop_assert_eq!(sparse.lambda(), dense.lambda(), "λ diverged at round {}", round);
            prop_assert_eq!(sparse.updates(), dense.updates(), "update count at round {}", round);
        }
        prop_assert_eq!(sparse.topics(), dense.topics());
    }

    /// The window-fit fast path — warm-started passes, bound early exit,
    /// folded inference — is bit-identical to the dense oracle across
    /// pass budgets and tolerances. The window gets a duplicated doc
    /// (exercising the shared warm init) and an empty doc (the uniform
    /// mixture edge), and both sides must agree on the λ trajectory, the
    /// mixtures, *and* how many passes the early exit actually ran.
    #[test]
    fn sparse_fit_window_is_bit_identical_to_dense(
        corpus in corpus_strategy(),
        seed in 0u64..50,
        passes in 1usize..8,
        tol_exp in 0i32..4, // 0 disables the early exit, else 1e-tol_exp
    ) {
        let pass_tol = if tol_exp == 0 { 0.0 } else { 10f64.powi(-tol_exp) };
        let config = LdaConfig {
            num_topics: 3,
            vocab_size: 12,
            seed,
        };
        let mut docs = corpus.clone();
        docs.push(corpus[0].clone());
        docs.push(Vec::new());

        let mut sparse = OnlineLda::new(config.clone());
        let mut dense = DenseOnlineLda::new(config);
        let mut ws = LdaWorkspace::new();
        let sm = sparse.fit_window_with(&docs, &identity(docs.len()), passes, pass_tol, &mut ws);
        let dm = dense.fit_window(&docs, passes, pass_tol);
        prop_assert_eq!(
            sparse.updates(), dense.updates(),
            "early exit stopped after different pass counts"
        );
        prop_assert_eq!(&sm, &dm, "window mixtures diverged");
        prop_assert_eq!(sparse.lambda(), dense.lambda(), "post-window λ diverged");

        // A second window through the same workspace: the warm rows must
        // reset cleanly, so back-to-back fits stay on the oracle too.
        let second: Vec<Vec<(usize, u32)>> = docs
            .iter()
            .map(|d| d.iter().map(|&(id, c)| ((id + 3) % 14, c)).collect())
            .collect();
        let second = to_bows(second);
        let sm2 = sparse.fit_window_with(&second, &identity(second.len()), passes, pass_tol, &mut ws);
        let dm2 = dense.fit_window(&second, passes, pass_tol);
        prop_assert_eq!(sparse.updates(), dense.updates());
        prop_assert_eq!(&sm2, &dm2, "second-window mixtures diverged");
        prop_assert_eq!(sparse.lambda(), dense.lambda());
    }

    /// The indexed fit — distinct bags plus a bag per position — against
    /// the dense oracle fitting the window expanded to one bag per
    /// position. The bags hold a duplicate of another bag (bags collide
    /// the way two titles differing only in digits do) and an empty bag;
    /// the positions repeat, skip and reorder bags freely. λ, the pass
    /// count and every position's mixture must match bit-for-bit, over
    /// two windows through one workspace.
    #[test]
    fn indexed_fit_window_is_bit_identical_to_dense(
        corpus in corpus_strategy(),
        picks in prop::collection::vec(0usize..64, 0..24),
        seed in 0u64..50,
        passes in 1usize..8,
        tol_exp in 0i32..4,
    ) {
        let pass_tol = if tol_exp == 0 { 0.0 } else { 10f64.powi(-tol_exp) };
        let config = LdaConfig {
            num_topics: 3,
            vocab_size: 12,
            seed,
        };
        let mut bags = corpus.clone();
        bags.push(Vec::new());
        bags.push(corpus[corpus.len() - 1].clone());
        let positions: Vec<u32> = picks.iter().map(|&p| (p % bags.len()) as u32).collect();

        let mut sparse = OnlineLda::new(config.clone());
        let mut dense = DenseOnlineLda::new(config);
        let mut ws = LdaWorkspace::new();
        for shift in [0usize, 5] {
            let bags: Vec<Vec<(usize, u32)>> = to_bows(
                bags.iter()
                    .map(|d| d.iter().map(|&(id, c)| ((id + shift) % 14, c)).collect())
                    .collect(),
            );
            let expanded: Vec<Vec<(usize, u32)>> =
                positions.iter().map(|&b| bags[b as usize].clone()).collect();
            let sm = sparse.fit_window_with(&bags, &positions, passes, pass_tol, &mut ws);
            let dm = dense.fit_window(&expanded, passes, pass_tol);
            prop_assert_eq!(sm.len(), bags.len(), "one mixture per bag");
            prop_assert_eq!(sparse.updates(), dense.updates(), "pass counts diverged");
            for (&bag, want) in positions.iter().zip(&dm) {
                prop_assert_eq!(&sm[bag as usize], want, "a position's mixture diverged");
            }
            prop_assert_eq!(sparse.lambda(), dense.lambda(), "λ diverged");
        }
    }

    /// A workspace that fitted a larger window carries outcomes and warm
    /// γ rows past the next window's distinct documents. None of them
    /// may be read: a smaller, heavily duplicated window with empty
    /// documents first, in the middle and last, then a smaller window
    /// still through the same workspace, all stay on the dense oracle
    /// bit-for-bit.
    #[test]
    fn leftovers_of_a_larger_window_never_leak(
        corpus in corpus_strategy(),
        seed in 0u64..50,
        passes in 1usize..6,
        pick_a in 0usize..16,
        pick_b in 0usize..16,
    ) {
        let config = LdaConfig {
            num_topics: 3,
            vocab_size: 12,
            seed,
        };
        // At least three distinct documents in the first window.
        let mut big = corpus;
        big.extend([vec![(0, 1)], vec![(1, 2)], vec![(2, 3), (13, 1)]]);
        let a = big[pick_a % big.len()].clone();
        let b = big[pick_b % big.len()].clone();
        let e = Vec::new();
        let small = vec![
            e.clone(), a.clone(), a.clone(), b.clone(), e.clone(),
            a.clone(), b.clone(), b.clone(), a.clone(), e,
        ];

        let mut sparse = OnlineLda::new(config.clone());
        let mut dense = DenseOnlineLda::new(config);
        let mut ws = LdaWorkspace::new();
        for (name, window) in [("larger", &big), ("smaller", &small)] {
            let sm = sparse.fit_window_with(window, &identity(window.len()), passes, 1e-2, &mut ws);
            let dm = dense.fit_window(window, passes, 1e-2);
            prop_assert_eq!(sparse.updates(), dense.updates(), "{} window: pass count", name);
            prop_assert_eq!(&sm, &dm, "{} window: mixtures diverged", name);
            prop_assert_eq!(sparse.lambda(), dense.lambda(), "{} window: λ diverged", name);
        }

        // A second, still smaller window: the leftovers of both larger
        // fits stay unread.
        let smaller = &small[3..7];
        let sm = sparse.fit_window_with(smaller, &identity(smaller.len()), passes, 1e-2, &mut ws);
        let dm = dense.fit_window(smaller, passes, 1e-2);
        prop_assert_eq!(sparse.updates(), dense.updates(), "smallest window: pass count");
        prop_assert_eq!(&sm, &dm, "smallest window: mixtures diverged");
        prop_assert_eq!(sparse.lambda(), dense.lambda(), "smallest window: λ diverged");
    }

    /// Growing the vocabulary (η-padded λ via `set_lambda`, what
    /// `AdaptiveOnlineLda::grow_vocab` does) and then running the sparse
    /// window fit over docs that reach the new columns stays on the
    /// dense oracle bit-for-bit.
    #[test]
    fn sparse_grow_vocab_then_fit_window_matches_dense(
        corpus_small in corpus_strategy(),
        corpus_wide in corpus_strategy(),
        seed in 0u64..50,
        passes in 1usize..6,
    ) {
        let small = LdaConfig {
            num_topics: 3,
            vocab_size: 12,
            seed,
        };
        let mut narrow = OnlineLda::new(small.clone());
        let mut ws = LdaWorkspace::new();
        narrow.fit_window_with(&corpus_small, &identity(corpus_small.len()), 1, 0.0, &mut ws);

        // Widen the learned λ with the padding growth uses, the
        // topic-word prior η = 0.01.
        let wide_config = LdaConfig { vocab_size: 20, ..small };
        let padded: Vec<Vec<f64>> = narrow
            .lambda()
            .iter()
            .map(|row| {
                let mut r = row.clone();
                r.resize(20, 0.01);
                r
            })
            .collect();
        let mut sparse = OnlineLda::new(wide_config.clone());
        let mut dense = DenseOnlineLda::new(wide_config);
        sparse.set_lambda(padded.clone());
        dense.set_lambda(padded);

        let wide_docs: Vec<Vec<(usize, u32)>> = corpus_wide
            .iter()
            .map(|d| d.iter().map(|&(id, c)| (id + 8, c)).collect())
            .collect();
        let sm = sparse.fit_window_with(&wide_docs, &identity(wide_docs.len()), passes, 1e-2, &mut ws);
        let dm = dense.fit_window(&wide_docs, passes, 1e-2);
        prop_assert_eq!(sparse.updates(), dense.updates());
        prop_assert_eq!(&sm, &dm, "post-growth window mixtures diverged");
        prop_assert_eq!(sparse.lambda(), dense.lambda(), "post-growth λ diverged");
    }

    /// The prepared (entropy-hoisted) JS form agrees with the plain form
    /// to round-off everywhere the emergence scan uses it, zero-padded
    /// columns included.
    #[test]
    fn js_prepared_agrees_with_plain(
        p in prop::collection::vec(0.0f64..1.0, 8),
        q in prop::collection::vec(0.0f64..1.0, 8),
        pad in 0usize..4,
    ) {
        let mut p = p;
        let mut q = q;
        normalize_in_place(&mut p);
        normalize_in_place(&mut q);
        // Vocabulary growth pads history topics with zero columns.
        p.resize(p.len() + pad, 0.0);
        q.resize(q.len() + pad, 0.0);
        let plain = js_divergence(&p, &q);
        let prepared = js_divergence_prepared(&p, neg_entropy(&p), &q, neg_entropy(&q));
        prop_assert!(
            (plain - prepared).abs() < 1e-9,
            "prepared {} vs plain {}", prepared, plain
        );
    }

    /// The batched sparse Dirichlet expectation equals the dense
    /// per-row sweep on the cells it touches.
    #[test]
    fn sparse_dirichlet_expectation_matches_dense(
        row in prop::collection::vec(0.01f64..50.0, 4..24),
        picks in prop::collection::vec(0usize..24, 1..12),
    ) {
        let mut ids: Vec<usize> = picks.into_iter().filter(|&i| i < row.len()).collect();
        if ids.is_empty() {
            ids.push(0); // row.len() >= 4, so id 0 always exists
        }
        let row_sum: f64 = row.iter().sum();
        let dense: Vec<f64> = dirichlet_expectation(&row).iter().map(|e| e.exp()).collect();
        let mut out = Vec::new();
        dirichlet_expectation_sparse(&row, row_sum, &ids, &mut out);
        for (slot, &id) in ids.iter().enumerate() {
            prop_assert_eq!(out[slot].to_bits(), dense[id].to_bits());
        }
    }
}
