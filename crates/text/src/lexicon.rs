//! Vague-word lexicon and title informativeness scoring.
//!
//! The paper's first anti-pattern, **A1 — unclear name or description**,
//! names typical unclear titles: *"Elastic Computing Service is
//! abnormal"*, *"Instance x is abnormal"*, *"Component y encounters
//! exceptions"*, *"Computing cluster has risks"*. They "describe the
//! system state in a very general way with vague words". A clear title,
//! by contrast, should contain the affected (micro)service and the
//! manifestation of the failure (§II-B2).
//!
//! [`title_report`] operationalizes exactly that: it combines a
//! vague-word density with the presence of a failure manifestation and a
//! concrete subject, producing an informativeness score in `[0, 1]` that
//! the A1 detector thresholds. The word lists are fixed, so a title's
//! score is a fixed property of its strategy: a catalog scores each title
//! once (`IndexedCatalog` in `alertops-model` caches the score per row).

use std::sync::LazyLock;

use serde::{Deserialize, Serialize};

use crate::Tokenizer;

/// Words that describe system state "in a very general way" without
/// naming a concrete manifestation.
const VAGUE_WORDS: &[&str] = &[
    "abnormal",
    "abnormality",
    "anomalous",
    "anomaly",
    "bad",
    "broken",
    "degraded",
    "error",
    "errors",
    "exception",
    "exceptions",
    "fault",
    "faulty",
    "issue",
    "issues",
    "problem",
    "problems",
    "risk",
    "risks",
    "strange",
    "unavailable",
    "unhealthy",
    "unknown",
    "unstable",
    "weird",
    "wrong",
];

/// Words that name a concrete failure manifestation (what happened).
const MANIFESTATION_WORDS: &[&str] = &[
    "full",
    "leak",
    "timeout",
    "timed",
    "refused",
    "rejected",
    "failed",
    "fail",
    "crash",
    "crashed",
    "oom",
    "killed",
    "dropped",
    "lost",
    "corrupt",
    "corrupted",
    "exceeded",
    "over",
    "above",
    "below",
    "under",
    "high",
    "higher",
    "low",
    "lower",
    "slow",
    "down",
    "exhausted",
    "overflow",
    "unreachable",
    "denied",
    "expired",
    "missing",
    "stuck",
    "restarting",
    "evicted",
    "throttled",
];

/// Generic placeholder subjects that do *not* count as naming the
/// affected component ("Instance x", "Component y", "cluster").
const GENERIC_SUBJECTS: &[&str] = &[
    "instance",
    "component",
    "cluster",
    "node",
    "service",
    "system",
    "module",
    "process",
    "resource",
    "object",
    "entity",
    "x",
    "y",
    "z",
];

/// The per-title breakdown produced by [`title_report`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InformativenessReport {
    /// Total (non-stopword) tokens in the title.
    pub token_count: usize,
    /// Tokens flagged as vague.
    pub vague_count: usize,
    /// Whether the title names a concrete failure manifestation.
    pub has_manifestation: bool,
    /// Whether the title names a concrete subject (a token that is
    /// neither vague, generic, nor a number).
    pub has_concrete_subject: bool,
    /// Whether the title contains a quantitative element (number or
    /// percent), e.g. a threshold.
    pub has_quantity: bool,
    /// The final informativeness score in `[0, 1]`.
    pub score: f64,
}

/// Built once per process: [`Tokenizer::new`] builds its stopword set.
static TOKENIZER: LazyLock<Tokenizer> = LazyLock::new(Tokenizer::new);

/// Scores an alert title for informativeness.
///
/// The score starts from the non-vague token fraction and is then gated
/// by the two attributes the paper requires of a good title — naming the
/// affected component and the manifestation of the failure:
///
/// ```text
/// base  = 1 - vague_count / token_count     (1.0 for empty titles → then zeroed)
/// score = base * (0.2 + 0.4·has_manifestation + 0.3·has_subject + 0.1·has_quantity)
/// ```
///
/// An empty or whitespace title scores 0. Scores near 1 require a
/// concrete subject *and* manifestation with no vague filler.
///
/// # Example
///
/// ```
/// use alertops_text::title_report;
///
/// let clear = title_report("Failed to allocate new blocks, disk full");
/// let vague = title_report("Instance x is abnormal");
/// assert!(clear.score > 0.6);
/// assert!(vague.score < 0.3);
/// assert_eq!(vague.vague_count, 1);
/// ```
#[must_use]
pub fn title_report(title: &str) -> InformativenessReport {
    let mut token_count = 0;
    let mut vague_count = 0;
    let mut has_manifestation = false;
    let mut has_concrete_subject = false;
    let mut has_quantity = false;
    let mut scratch = String::new();
    TOKENIZER.for_each_token(title, &mut scratch, |token| {
        token_count += 1;
        if token.bytes().all(|b| b.is_ascii_digit()) {
            has_quantity = true;
        } else if VAGUE_WORDS.contains(&token) {
            vague_count += 1;
        } else if MANIFESTATION_WORDS.contains(&token) {
            has_manifestation = true;
        } else if !GENERIC_SUBJECTS.contains(&token) {
            has_concrete_subject = true;
        }
    });
    if token_count == 0 {
        return InformativenessReport {
            token_count: 0,
            vague_count: 0,
            has_manifestation: false,
            has_concrete_subject: false,
            has_quantity: false,
            score: 0.0,
        };
    }
    if title.contains('%') {
        has_quantity = true;
    }
    let base = 1.0 - vague_count as f64 / token_count as f64;
    let gate = 0.2
        + 0.4 * f64::from(has_manifestation)
        + 0.3 * f64::from(has_concrete_subject)
        + 0.1 * f64::from(has_quantity);
    InformativenessReport {
        token_count,
        vague_count,
        has_manifestation,
        has_concrete_subject,
        has_quantity,
        score: (base * gate).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_unclear_examples_score_low() {
        // The four unclear titles quoted by the paper for A1.
        let examples = [
            "Elastic Computing Service is abnormal",
            "Instance x is abnormal",
            "Component y encounters exceptions",
            "Computing cluster has risks",
        ];
        for title in examples {
            let score = title_report(title).score;
            assert!(score < 0.45, "{title:?} scored {score}");
        }
    }

    #[test]
    fn paper_clear_examples_score_high() {
        let examples = [
            "Failed to allocate new blocks, disk full",
            "CPU usage of nginx instance is higher than 80%",
            "haproxy process number warning",
            "Failed to commit changes",
        ];
        for title in examples {
            let score = title_report(title).score;
            assert!(score >= 0.5, "{title:?} scored {score}");
        }
    }

    #[test]
    fn clear_titles_beat_vague_titles() {
        let clear = title_report("Failed to allocate new blocks, disk full").score;
        let vague = title_report("Instance x is abnormal").score;
        assert!(clear > 2.0 * vague);
    }

    #[test]
    fn empty_title_scores_zero() {
        assert_eq!(title_report("").score, 0.0);
        assert_eq!(title_report("   ").score, 0.0);
    }

    #[test]
    fn report_fields_for_clear_title() {
        let r = title_report("CPU usage of nginx instance is higher than 80%");
        assert!(r.has_manifestation); // "higher"
        assert!(r.has_concrete_subject); // "nginx", "cpu", "usage"
        assert!(r.has_quantity); // "80" and '%'
        assert_eq!(r.vague_count, 0);
    }

    #[test]
    fn report_fields_for_vague_title() {
        let r = title_report("Instance x is abnormal");
        assert_eq!(r.vague_count, 1);
        assert!(!r.has_manifestation);
        assert!(!r.has_concrete_subject);
        assert!(!r.has_quantity);
    }

    #[test]
    fn quantity_detection_via_percent_sign() {
        let r = title_report("disk usage over threshold %");
        assert!(r.has_quantity);
    }

    #[test]
    fn score_is_bounded() {
        for title in [
            "",
            "abnormal",
            "abnormal abnormal abnormal",
            "disk full on vm-42 at 80%",
            "a very long title with many concrete words like disk full timeout leak",
        ] {
            let s = title_report(title).score;
            assert!((0.0..=1.0).contains(&s), "{title:?} scored {s}");
        }
    }

    #[test]
    fn lexicon_membership() {
        assert!(VAGUE_WORDS.contains(&"abnormal"));
        assert!(MANIFESTATION_WORDS.contains(&"full"));
        assert!(GENERIC_SUBJECTS.contains(&"instance"));
        assert!(!VAGUE_WORDS.contains(&"disk"));
    }
}
