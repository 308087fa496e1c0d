//! Shared detector types.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use alertops_model::StrategyId;

use crate::input::DetectionInput;

/// The six anti-patterns of alerts (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AntiPattern {
    /// A1 — unclear name or description.
    UnclearTitle,
    /// A2 — misleading severity.
    MisleadingSeverity,
    /// A3 — improper and outdated generation rule.
    ImproperRule,
    /// A4 — transient and toggling alerts.
    TransientToggling,
    /// A5 — repeating alerts.
    Repeating,
    /// A6 — cascading alerts.
    Cascading,
}

impl AntiPattern {
    /// All anti-patterns, A1..A6.
    pub const ALL: [AntiPattern; 6] = [
        AntiPattern::UnclearTitle,
        AntiPattern::MisleadingSeverity,
        AntiPattern::ImproperRule,
        AntiPattern::TransientToggling,
        AntiPattern::Repeating,
        AntiPattern::Cascading,
    ];

    /// The paper's identifier, e.g. `"A1"`.
    #[must_use]
    pub const fn code(self) -> &'static str {
        match self {
            AntiPattern::UnclearTitle => "A1",
            AntiPattern::MisleadingSeverity => "A2",
            AntiPattern::ImproperRule => "A3",
            AntiPattern::TransientToggling => "A4",
            AntiPattern::Repeating => "A5",
            AntiPattern::Cascading => "A6",
        }
    }

    /// The paper's name for the anti-pattern.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            AntiPattern::UnclearTitle => "Unclear Name or Description",
            AntiPattern::MisleadingSeverity => "Misleading Severity",
            AntiPattern::ImproperRule => "Improper and Outdated Generation Rule",
            AntiPattern::TransientToggling => "Transient and Toggling Alerts",
            AntiPattern::Repeating => "Repeating Alerts",
            AntiPattern::Cascading => "Cascading Alerts",
        }
    }
}

impl fmt::Display for AntiPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code(), self.name())
    }
}

/// A per-strategy detection result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyFinding {
    /// The flagged strategy.
    pub strategy: StrategyId,
    /// Which anti-pattern was detected.
    pub pattern: AntiPattern,
    /// Detector-specific confidence/severity score, higher = worse.
    pub score: f64,
    /// Human-readable evidence ("title scored 0.12; vague words: ...").
    pub evidence: String,
}

impl StrategyFinding {
    /// Report order within one pattern: score descending, then `rank`
    /// ascending. Every detector's score is a count, a distance or a
    /// product of them with rates, so finite and never -0.0, and
    /// `total_cmp` is the `partial_cmp` order.
    pub(crate) fn report_order<K: Ord>(&self, other: &Self, rank: impl Fn(&Self) -> K) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| rank(self).cmp(&rank(other)))
    }
}

impl fmt::Display for StrategyFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} (score {:.2}): {}",
            self.pattern.code(),
            self.strategy,
            self.score,
            self.evidence
        )
    }
}

/// A detector of per-strategy anti-patterns.
///
/// Implementations examine a [`DetectionInput`] and return one finding
/// per flagged strategy, sorted by descending score. The cascading
/// detector (A6) does not fit this shape — its findings are groups of
/// alerts, not strategies — and exposes its own entry point instead.
pub trait Detector {
    /// Which anti-pattern this detector targets.
    fn pattern(&self) -> AntiPattern;

    /// Runs detection over the input.
    fn detect(&self, input: &DetectionInput<'_>) -> Vec<StrategyFinding>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `pattern` is an *individual* anti-pattern (a property of
    /// one strategy) rather than a *collective* one (a property of a
    /// bunch of alerts), as the paper divides them.
    fn is_individual(pattern: AntiPattern) -> bool {
        matches!(
            pattern,
            AntiPattern::UnclearTitle
                | AntiPattern::MisleadingSeverity
                | AntiPattern::ImproperRule
                | AntiPattern::TransientToggling
        )
    }

    #[test]
    fn codes_and_partition() {
        assert_eq!(AntiPattern::UnclearTitle.code(), "A1");
        assert_eq!(AntiPattern::Cascading.code(), "A6");
        let individual = AntiPattern::ALL
            .iter()
            .filter(|&&p| is_individual(p))
            .count();
        assert_eq!(individual, 4);
    }

    #[test]
    fn display_includes_code_and_name() {
        let s = AntiPattern::TransientToggling.to_string();
        assert!(s.contains("A4"));
        assert!(s.contains("Transient"));
    }

    #[test]
    fn finding_display() {
        let f = StrategyFinding {
            strategy: StrategyId(3),
            pattern: AntiPattern::Repeating,
            score: 12.0,
            evidence: "peaked at 12 alerts/hour".into(),
        };
        let s = f.to_string();
        assert!(s.contains("A5"));
        assert!(s.contains("strategy-3"));
        assert!(s.contains("12 alerts/hour"));
    }
}
