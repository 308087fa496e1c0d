//! A1 — unclear name or description.
//!
//! "Typical unclear alert names describe the system state in a very
//! general way with vague words, e.g. *Elastic Computing Service is
//! abnormal*" (§III-A1). The detector scores every strategy's title
//! template with [`title_report`] and flags those below
//! [`UNCLEAR_TITLE_THRESHOLD`].

use alertops_model::AlertStrategy;
use alertops_text::title_report;

use crate::input::DetectionInput;
use crate::types::{AntiPattern, Detector, StrategyFinding};

/// The informativeness below which a title is unclear: the paper's
/// example vague titles score ≤ 0.4 while its clear samples score
/// ≥ 0.5. A1's threshold and the guideline linter's title check.
pub const UNCLEAR_TITLE_THRESHOLD: f64 = 0.45;

/// Detector for unclear titles: flags every strategy whose title scores
/// strictly below [`UNCLEAR_TITLE_THRESHOLD`]. This detector needs no
/// alert history — the title is a static property of the strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnclearTitleDetector;

impl UnclearTitleDetector {
    /// Whether A1 flags `strategy`: the verdict both detection paths
    /// share, read from the title alone.
    pub(crate) fn flags(strategy: &AlertStrategy) -> bool {
        title_report(strategy.title_template()).score < UNCLEAR_TITLE_THRESHOLD
    }

    /// The finding for a strategy A1 [`flags`](Self::flags): its score
    /// and evidence, rendered from the same title report.
    pub(crate) fn render(strategy: &AlertStrategy) -> StrategyFinding {
        let report = title_report(strategy.title_template());
        StrategyFinding {
            strategy: strategy.id(),
            pattern: AntiPattern::UnclearTitle,
            // Higher score = worse: invert informativeness.
            score: 1.0 - report.score,
            evidence: format!(
                "title {:?} scored {:.2} (vague {}/{} tokens, manifestation: {}, concrete subject: {})",
                strategy.title_template(),
                report.score,
                report.vague_count,
                report.token_count,
                report.has_manifestation,
                report.has_concrete_subject,
            ),
        }
    }
}

impl Detector for UnclearTitleDetector {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::UnclearTitle
    }

    fn detect(&self, input: &DetectionInput<'_>) -> Vec<StrategyFinding> {
        let mut findings: Vec<StrategyFinding> = input
            .strategies()
            .iter()
            .filter(|strategy| Self::flags(strategy))
            .map(Self::render)
            .collect();
        // A stable sort: equal scores stay in catalog row order.
        findings.sort_by(|a, b| a.report_order(b, |_| ()));
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{AlertStrategy, LogRule, SimDuration, StrategyId, StrategyKind};

    fn strategy(id: u64, title: &str) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(id))
            .title_template(title)
            .kind(StrategyKind::Log(LogRule {
                keyword: "E".into(),
                min_count: 1,
                window: SimDuration::from_mins(1),
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn flags_paper_vague_examples_only() {
        let strategies = [
            strategy(0, "Elastic Computing Service is abnormal"),
            strategy(1, "Instance x is abnormal"),
            strategy(2, "Component y encounters exceptions"),
            strategy(3, "Computing cluster has risks"),
            strategy(4, "Failed to allocate new blocks, disk full"),
            strategy(5, "CPU usage of nginx instance is higher than 80%"),
        ];
        let input = DetectionInput::new(&strategies);
        let findings = UnclearTitleDetector.detect(&input);
        let flagged: Vec<u64> = {
            let mut v: Vec<u64> = findings.iter().map(|f| f.strategy.0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(flagged, vec![0, 1, 2, 3]);
    }

    #[test]
    fn findings_sorted_by_descending_badness() {
        let strategies = [
            strategy(0, "Instance x is abnormal"),
            strategy(1, "database replicator has risks sometimes maybe"),
        ];
        let input = DetectionInput::new(&strategies);
        let findings = UnclearTitleDetector.detect(&input);
        for w in findings.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn evidence_mentions_title() {
        let strategies = [strategy(0, "Instance x is abnormal")];
        let input = DetectionInput::new(&strategies);
        let findings = UnclearTitleDetector.detect(&input);
        assert!(findings[0].evidence.contains("Instance x is abnormal"));
        assert_eq!(findings[0].pattern, AntiPattern::UnclearTitle);
    }
}
