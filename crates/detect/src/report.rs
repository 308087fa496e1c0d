//! Aggregated anti-pattern reports and detector evaluation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use alertops_model::StrategyId;

use crate::a6_cascading::CascadeGroup;
use crate::input::DetectionInput;
use crate::types::{AntiPattern, Detector, StrategyFinding};
use crate::{
    CascadingDetector, ImproperRuleDetector, MisleadingSeverityDetector, RepeatingDetector,
    TransientTogglingDetector, UnclearTitleDetector,
};

/// The combined output of running every detector over one input.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AntiPatternReport {
    /// Per-strategy findings of the five strategy-level detectors,
    /// grouped by anti-pattern.
    pub findings: BTreeMap<AntiPattern, Vec<StrategyFinding>>,
    /// Cascade groups found by the A6 detector.
    pub cascades: Vec<CascadeGroup>,
}

impl AntiPatternReport {
    /// Runs all six detectors, A4 and A6 at their default settings: the
    /// batch reference the incremental engine is tested against. It
    /// records no metrics; the live engine's
    /// [`IncrementalState::evaluate`](crate::IncrementalState::evaluate)
    /// does.
    #[must_use]
    pub fn run_default(input: &DetectionInput<'_>) -> Self {
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(UnclearTitleDetector),
            Box::new(MisleadingSeverityDetector),
            Box::new(ImproperRuleDetector),
            Box::new(TransientTogglingDetector::default()),
            Box::new(RepeatingDetector),
        ];
        let mut findings: BTreeMap<AntiPattern, Vec<StrategyFinding>> = BTreeMap::new();
        for detector in detectors {
            findings.insert(detector.pattern(), detector.detect(input));
        }
        let cascades = CascadingDetector::default().detect_groups(input);
        Self { findings, cascades }
    }

    /// The strategies flagged for a given anti-pattern.
    #[must_use]
    pub fn flagged(&self, pattern: AntiPattern) -> BTreeSet<StrategyId> {
        self.findings
            .get(&pattern)
            .map(|v| v.iter().map(|f| f.strategy).collect())
            .unwrap_or_default()
    }

    /// Total number of strategy-level findings.
    #[must_use]
    pub fn finding_count(&self) -> usize {
        self.findings.values().map(Vec::len).sum()
    }
}

impl fmt::Display for AntiPatternReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Anti-pattern report:")?;
        for pattern in AntiPattern::ALL {
            if pattern == AntiPattern::Cascading {
                writeln!(f, "  {pattern}: {} cascade groups", self.cascades.len())?;
            } else {
                let count = self.findings.get(&pattern).map_or(0, Vec::len);
                writeln!(f, "  {pattern}: {count} strategies")?;
            }
        }
        Ok(())
    }
}

/// Precision / recall / F1 of a predicted set against a truth set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionRecall {
    /// |predicted ∩ truth| / |predicted| (1 if nothing predicted).
    pub precision: f64,
    /// |predicted ∩ truth| / |truth| (1 if truth is empty).
    pub recall: f64,
    /// Harmonic mean of precision and recall (0 when both are 0).
    pub f1: f64,
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

/// Scores a predicted strategy set against ground truth.
#[must_use]
pub fn evaluate_sets(
    predicted: &BTreeSet<StrategyId>,
    truth: &BTreeSet<StrategyId>,
) -> PrecisionRecall {
    let tp = predicted.intersection(truth).count();
    let fp = predicted.len() - tp;
    let fn_ = truth.len() - tp;
    let precision = if predicted.is_empty() {
        1.0
    } else {
        tp as f64 / predicted.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        tp as f64 / truth.len() as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    PrecisionRecall {
        precision,
        recall,
        f1,
        tp,
        fp,
        fn_,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u64]) -> BTreeSet<StrategyId> {
        ids.iter().map(|&i| StrategyId(i)).collect()
    }

    #[test]
    fn evaluate_perfect() {
        let r = evaluate_sets(&set(&[1, 2]), &set(&[1, 2]));
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 1.0);
        assert_eq!(r.f1, 1.0);
        assert_eq!((r.tp, r.fp, r.fn_), (2, 0, 0));
    }

    #[test]
    fn evaluate_partial() {
        let r = evaluate_sets(&set(&[1, 2, 3, 4]), &set(&[1, 2]));
        assert_eq!(r.precision, 0.5);
        assert_eq!(r.recall, 1.0);
        assert!((r.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn evaluate_empty_cases() {
        let r = evaluate_sets(&set(&[]), &set(&[]));
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 1.0);
        let r = evaluate_sets(&set(&[]), &set(&[1]));
        assert_eq!(r.recall, 0.0);
        assert_eq!(r.f1, 0.0);
        let r = evaluate_sets(&set(&[1]), &set(&[]));
        assert_eq!(r.precision, 0.0);
    }

    #[test]
    fn report_on_empty_input_is_empty() {
        let strategies: [alertops_model::AlertStrategy; 0] = [];
        let input = DetectionInput::new(&strategies);
        let report = AntiPatternReport::run_default(&input);
        assert_eq!(report.finding_count(), 0);
        assert!(report.cascades.is_empty());
        let display = report.to_string();
        assert!(display.contains("A1"));
        assert!(display.contains("cascade groups"));
    }
}
