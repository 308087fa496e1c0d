//! Automatic strategy remediation — closing the Fig. 6 loop.
//!
//! Detection feeding a review queue is half the loop; the other half is
//! the strategy *changing*. For the mechanically-fixable anti-patterns
//! the corrected strategy can be generated outright:
//!
//! * **A4 transient/toggling** → raise the metric rule's debounce
//!   (consecutive samples) so single-sample blips stop firing;
//! * **A5 repeating** → extend the cooldown so one persistent condition
//!   pages once, not every few minutes;
//! * **A2 misleading severity** → move the severity to the level the
//!   incident/auto-clear evidence implies.
//!
//! A1 (unclear title) and A3 (improper target) need a human — nobody can
//! synthesize what a rule *should* have said — so those come back as
//! advisories with no revised strategy.

use serde::{Deserialize, Serialize};

use alertops_detect::{AntiPattern, AntiPatternReport, DetectionInput, MisleadingSeverityDetector};
use alertops_model::{AlertStrategy, Severity, SimDuration, StrategyId, StrategyKind};

/// The concrete change a fix applies (or asks a human for).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FixAction {
    /// Raise a metric rule's consecutive-sample debounce.
    RaiseDebounce {
        /// Debounce before the fix.
        from: u32,
        /// Debounce after the fix.
        to: u32,
    },
    /// Extend the strategy's cooldown.
    ExtendCooldown {
        /// Cooldown before the fix.
        from: SimDuration,
        /// Cooldown after the fix.
        to: SimDuration,
    },
    /// Move the severity to the evidence-implied level.
    AdjustSeverity {
        /// Configured severity before the fix.
        from: Severity,
        /// Evidence-implied severity.
        to: Severity,
    },
    /// Human action required: rewrite the title per the Presentation
    /// guideline (name the component and the failure manifestation).
    RewriteTitle,
    /// Human action required: re-target the rule at a service-quality
    /// metric (the infrastructure signal is shielded or non-indicative).
    Retarget,
}

/// One proposed fix for one strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyFix {
    /// The strategy to change.
    pub strategy: StrategyId,
    /// Which anti-pattern motivated the fix.
    pub pattern: AntiPattern,
    /// What to change.
    pub action: FixAction,
    /// The corrected strategy, when the fix is mechanical; `None` for
    /// human-action advisories.
    pub revised: Option<AlertStrategy>,
}

/// Debounce (consecutive samples) a fix gives an over-sensitive metric
/// rule.
const TARGET_DEBOUNCE: u32 = 3;

/// Cooldown a fix gives a repeating strategy.
const TARGET_COOLDOWN: SimDuration = SimDuration::from_mins(30);

/// Derives fixes from a detection report.
///
/// One strategy can receive several fixes (it may be both toggling and
/// repeating); [`apply_fixes`] composes them. Output is ordered by
/// strategy id, then pattern.
#[must_use]
pub fn suggest_fixes(
    strategies: &[AlertStrategy],
    report: &AntiPatternReport,
    input: &DetectionInput<'_>,
) -> Vec<StrategyFix> {
    let mut fixes = Vec::new();
    // Materialize the flag sets once instead of per strategy.
    let toggling = report.flagged(AntiPattern::TransientToggling);
    let repeating = report.flagged(AntiPattern::Repeating);
    let misleading = report.flagged(AntiPattern::MisleadingSeverity);
    let unclear = report.flagged(AntiPattern::UnclearTitle);
    let improper = report.flagged(AntiPattern::ImproperRule);
    for strategy in strategies {
        // A4: raise debounce on over-sensitive metric rules.
        if toggling.contains(&strategy.id()) {
            if let StrategyKind::Metric(rule) = strategy.kind() {
                if rule.consecutive_samples < TARGET_DEBOUNCE {
                    let mut revised_rule = rule.clone();
                    revised_rule.consecutive_samples = TARGET_DEBOUNCE;
                    fixes.push(StrategyFix {
                        strategy: strategy.id(),
                        pattern: AntiPattern::TransientToggling,
                        action: FixAction::RaiseDebounce {
                            from: rule.consecutive_samples,
                            to: TARGET_DEBOUNCE,
                        },
                        revised: Some(
                            strategy
                                .clone()
                                .with_kind(StrategyKind::Metric(revised_rule)),
                        ),
                    });
                }
            }
        }
        // A5: extend cooldown on repeating strategies.
        if repeating.contains(&strategy.id()) && strategy.cooldown() < TARGET_COOLDOWN {
            fixes.push(StrategyFix {
                strategy: strategy.id(),
                pattern: AntiPattern::Repeating,
                action: FixAction::ExtendCooldown {
                    from: strategy.cooldown(),
                    to: TARGET_COOLDOWN,
                },
                revised: Some(strategy.clone().with_cooldown(TARGET_COOLDOWN)),
            });
        }
        // A2: adjust severity toward the evidence.
        if misleading.contains(&strategy.id()) {
            if let Some(implied) = MisleadingSeverityDetector.implied_for(input, strategy) {
                if implied != strategy.severity() {
                    fixes.push(StrategyFix {
                        strategy: strategy.id(),
                        pattern: AntiPattern::MisleadingSeverity,
                        action: FixAction::AdjustSeverity {
                            from: strategy.severity(),
                            to: implied,
                        },
                        revised: Some(strategy.clone().with_severity(implied)),
                    });
                }
            }
        }
        // A1/A3: advisories.
        if unclear.contains(&strategy.id()) {
            fixes.push(StrategyFix {
                strategy: strategy.id(),
                pattern: AntiPattern::UnclearTitle,
                action: FixAction::RewriteTitle,
                revised: None,
            });
        }
        if improper.contains(&strategy.id()) {
            fixes.push(StrategyFix {
                strategy: strategy.id(),
                pattern: AntiPattern::ImproperRule,
                action: FixAction::Retarget,
                revised: None,
            });
        }
    }
    fixes
}

/// Applies the mechanical fixes to a catalog, composing multiple fixes
/// per strategy (advisories are skipped). Returns the corrected
/// strategy list in the original order.
#[must_use]
pub fn apply_fixes(strategies: &[AlertStrategy], fixes: &[StrategyFix]) -> Vec<AlertStrategy> {
    strategies
        .iter()
        .map(|strategy| {
            let mut revised = strategy.clone();
            for fix in fixes.iter().filter(|f| f.strategy == strategy.id()) {
                match &fix.action {
                    FixAction::RaiseDebounce { to, .. } => {
                        if let StrategyKind::Metric(rule) = revised.kind() {
                            let mut rule = rule.clone();
                            rule.consecutive_samples = *to;
                            revised = revised.with_kind(StrategyKind::Metric(rule));
                        }
                    }
                    FixAction::ExtendCooldown { to, .. } => {
                        revised = revised.with_cooldown(*to);
                    }
                    FixAction::AdjustSeverity { to, .. } => {
                        revised = revised.with_severity(*to);
                    }
                    FixAction::RewriteTitle | FixAction::Retarget => {}
                }
            }
            revised
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_detect::AntiPatternReport;
    use alertops_model::{Alert, AlertId, Clearance, MetricKind, MetricRule, SimTime, ThresholdOp};

    fn oversensitive_strategy(id: u64) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(id))
            .title_template("cpu usage of worker is higher than 45")
            .severity(Severity::Warning)
            .kind(StrategyKind::Metric(MetricRule {
                metric: MetricKind::CpuUtilization,
                op: ThresholdOp::Above,
                threshold: 45.0,
                consecutive_samples: 1,
            }))
            .cooldown(SimDuration::from_mins(5))
            .build()
            .unwrap()
    }

    /// A burst of transients that trips both A4 and A5.
    fn noisy_history(strategy: u64) -> Vec<Alert> {
        (0..30u64)
            .map(|i| {
                let t = SimTime::from_secs(i * 110 * 60 / 30); // spread in ~2h
                let mut a = Alert::builder(AlertId(i), StrategyId(strategy))
                    .raised_at(t)
                    .build();
                a.clear(t + SimDuration::from_secs(40), Clearance::Auto)
                    .unwrap();
                a
            })
            .collect()
    }

    #[test]
    fn fixes_raise_debounce_and_cooldown_for_noise() {
        let strategies = vec![oversensitive_strategy(1)];
        let alerts = noisy_history(1);
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let report = AntiPatternReport::run_default(&input);
        assert!(report
            .flagged(AntiPattern::TransientToggling)
            .contains(&StrategyId(1)));
        let fixes = suggest_fixes(&strategies, &report, &input);
        assert!(fixes
            .iter()
            .any(|f| matches!(f.action, FixAction::RaiseDebounce { from: 1, to: 3 })));
        // Every mechanical fix carries a revised strategy.
        for fix in &fixes {
            match fix.action {
                FixAction::RewriteTitle | FixAction::Retarget => {
                    assert!(fix.revised.is_none())
                }
                _ => assert!(fix.revised.is_some()),
            }
        }

        let fixed = apply_fixes(&strategies, &fixes);
        assert_eq!(fixed.len(), 1);
        let StrategyKind::Metric(rule) = fixed[0].kind() else {
            panic!("kind preserved");
        };
        assert_eq!(rule.consecutive_samples, 3);
    }

    #[test]
    fn clean_strategies_get_no_fixes() {
        let strategies = vec![oversensitive_strategy(1)];
        let report = AntiPatternReport::default();
        let input = DetectionInput::new(&strategies);
        let fixes = suggest_fixes(&strategies, &report, &input);
        assert!(fixes.is_empty());
        assert_eq!(apply_fixes(&strategies, &fixes), strategies);
    }

    #[test]
    fn advisories_do_not_change_the_catalog() {
        let vague = AlertStrategy::builder(StrategyId(0))
            .title_template("Instance x is abnormal")
            .kind(StrategyKind::Metric(MetricRule {
                metric: MetricKind::Latency,
                op: ThresholdOp::Above,
                threshold: 500.0,
                consecutive_samples: 3,
            }))
            .cooldown(SimDuration::from_mins(30))
            .build()
            .unwrap();
        let strategies = vec![vague];
        let input = DetectionInput::new(&strategies);
        let report = AntiPatternReport::run_default(&input);
        let fixes = suggest_fixes(&strategies, &report, &input);
        assert!(fixes
            .iter()
            .any(|f| f.action == FixAction::RewriteTitle && f.revised.is_none()));
        assert_eq!(apply_fixes(&strategies, &fixes), strategies);
    }
}
