//! Preventative guidelines for alert strategies (RQ4).
//!
//! "The guidelines are designed by experienced OCEs and guide from three
//! aspects of alerts":
//!
//! * **Target** — what to monitor: "the performance metrics highly
//!   related to the service quality should be monitored";
//! * **Timing** — when to generate an alert: "sometimes an anomaly does
//!   not necessarily mean the service quality will be affected";
//! * **Presentation** — "whether the alerts' attributes are helpful for
//!   alert diagnosis".
//!
//! [`GuidelineLinter`] checks a strategy (plus its SOP) against concrete
//! rules in each aspect *at configuration time*, before a single alert
//! fires — the "Avoid" stage of Fig. 6.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use alertops_detect::UNCLEAR_TITLE_THRESHOLD;
use alertops_model::{
    AlertStrategy, MicroserviceId, Severity, SimDuration, Sop, StrategyId, StrategyKind,
};
use alertops_text::title_report;

/// Which guideline aspect a violation falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum GuidelineAspect {
    /// What to monitor.
    Target,
    /// When to generate an alert.
    Timing,
    /// Whether the alert's attributes help diagnosis.
    Presentation,
}

impl fmt::Display for GuidelineAspect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GuidelineAspect::Target => "Target",
            GuidelineAspect::Timing => "Timing",
            GuidelineAspect::Presentation => "Presentation",
        })
    }
}

/// One guideline violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuidelineViolation {
    /// The offending strategy.
    pub strategy: StrategyId,
    /// The violated aspect.
    pub aspect: GuidelineAspect,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl fmt::Display for GuidelineViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.aspect, self.strategy, self.message)
    }
}

/// Environmental knowledge the Target checks need.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuidelineContext {
    /// Microservices whose infrastructure faults are shielded from
    /// service quality by fault tolerance. Infrastructure-metric
    /// strategies on these targets violate the Target guideline.
    pub fault_tolerant: BTreeSet<MicroserviceId>,
}

/// The configuration-time guideline linter.
#[derive(Debug, Clone)]
pub struct GuidelineLinter {
    /// Minimum acceptable SOP completeness.
    pub min_sop_completeness: f64,
}

impl Default for GuidelineLinter {
    fn default() -> Self {
        Self {
            min_sop_completeness: 0.8,
        }
    }
}

impl GuidelineLinter {
    /// Creates a linter with default thresholds.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Lints one strategy.
    #[must_use]
    pub fn lint(
        &self,
        strategy: &AlertStrategy,
        sop: Option<&Sop>,
        context: &GuidelineContext,
    ) -> Vec<GuidelineViolation> {
        let mut violations = Vec::new();
        let mut push = |aspect, message: String| {
            violations.push(GuidelineViolation {
                strategy: strategy.id(),
                aspect,
                message,
            });
        };

        // --- Target ---
        if let StrategyKind::Metric(rule) = strategy.kind() {
            if rule.metric.is_infrastructure()
                && context.fault_tolerant.contains(&strategy.microservice())
            {
                push(
                    GuidelineAspect::Target,
                    format!(
                        "infrastructure metric `{}` on a fault-tolerant microservice does not \
                         reflect service quality; monitor latency/error rate instead",
                        rule.metric
                    ),
                );
            }
            if rule.metric.is_infrastructure() && strategy.severity() >= Severity::Critical {
                push(
                    GuidelineAspect::Target,
                    format!(
                        "`{}` alone rarely warrants Critical; reserve it for user-visible symptoms",
                        rule.metric
                    ),
                );
            }
        }

        // --- Timing ---
        match strategy.kind() {
            StrategyKind::Metric(rule) => {
                if rule.consecutive_samples < 2 {
                    push(
                        GuidelineAspect::Timing,
                        "metric rule fires on a single sample; require ≥2 consecutive samples \
                         to avoid transient/toggling alerts"
                            .to_owned(),
                    );
                }
            }
            StrategyKind::Probe(rule) => {
                if rule.no_response_timeout < SimDuration::from_secs(30) {
                    push(
                        GuidelineAspect::Timing,
                        format!(
                            "probe timeout of {} is shorter than a routine GC pause or \
                             failover; use ≥30s",
                            rule.no_response_timeout
                        ),
                    );
                }
            }
            StrategyKind::Log(rule) => {
                if rule.min_count <= 1 {
                    push(
                        GuidelineAspect::Timing,
                        "log rule fires on a single matching line; single errors are routine \
                         in distributed systems"
                            .to_owned(),
                    );
                }
            }
        }
        if strategy.cooldown() < SimDuration::from_mins(1) {
            push(
                GuidelineAspect::Timing,
                "cooldown under one minute invites repeating alerts".to_owned(),
            );
        }

        // --- Presentation ---
        let title_score = title_report(strategy.title_template()).score;
        if title_score < UNCLEAR_TITLE_THRESHOLD {
            push(
                GuidelineAspect::Presentation,
                format!(
                    "title {:?} scores {title_score:.2} informativeness (< {:.2}); name the \
                     affected component and the failure manifestation",
                    strategy.title_template(),
                    UNCLEAR_TITLE_THRESHOLD
                ),
            );
        }
        match sop {
            None => push(
                GuidelineAspect::Presentation,
                "no SOP registered for this strategy".to_owned(),
            ),
            Some(sop) if sop.completeness() < self.min_sop_completeness => push(
                GuidelineAspect::Presentation,
                format!(
                    "SOP is only {:.0}% complete (< {:.0}%); fill impact, causes, and steps",
                    sop.completeness() * 100.0,
                    self.min_sop_completeness * 100.0
                ),
            ),
            Some(_) => {}
        }
        if strategy.notify().is_empty() {
            push(
                GuidelineAspect::Presentation,
                "no notification target configured".to_owned(),
            );
        }

        violations
    }

    /// Lints a whole catalog; returns violations sorted by strategy.
    #[must_use]
    pub fn lint_catalog<'a>(
        &self,
        strategies: impl IntoIterator<Item = (&'a AlertStrategy, Option<&'a Sop>)>,
        context: &GuidelineContext,
    ) -> Vec<GuidelineViolation> {
        let mut violations: Vec<GuidelineViolation> = strategies
            .into_iter()
            .flat_map(|(s, sop)| self.lint(s, sop, context))
            .collect();
        violations.sort_by(|a, b| a.strategy.cmp(&b.strategy).then(a.aspect.cmp(&b.aspect)));
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{LogRule, MetricKind, MetricRule, ProbeRule, ThresholdOp};

    fn good_strategy() -> AlertStrategy {
        AlertStrategy::builder(StrategyId(1))
            .title_template("CPU usage of nginx instance is higher than 80%")
            .severity(Severity::Major)
            .kind(StrategyKind::Metric(MetricRule {
                metric: MetricKind::Latency,
                op: ThresholdOp::Above,
                threshold: 500.0,
                consecutive_samples: 3,
            }))
            .cooldown(SimDuration::from_mins(30))
            .notify("oce@example.com")
            .build()
            .unwrap()
    }

    fn full_sop() -> Sop {
        Sop::builder("x", StrategyId(1))
            .description("d")
            .generation_rule("g")
            .potential_impact("i")
            .possible_cause("c")
            .step("s")
            .build()
            .unwrap()
    }

    #[test]
    fn clean_strategy_passes() {
        let sop = full_sop();
        let violations =
            GuidelineLinter::new().lint(&good_strategy(), Some(&sop), &GuidelineContext::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn target_flags_infra_metric_on_fault_tolerant_target() {
        let strategy = AlertStrategy::builder(StrategyId(2))
            .title_template("disk usage of storage node over 90")
            .microservice(MicroserviceId(7))
            .kind(StrategyKind::Metric(MetricRule {
                metric: MetricKind::DiskUsage,
                op: ThresholdOp::Above,
                threshold: 90.0,
                consecutive_samples: 3,
            }))
            .cooldown(SimDuration::from_mins(30))
            .notify("x")
            .build()
            .unwrap();
        let context = GuidelineContext {
            fault_tolerant: [MicroserviceId(7)].into_iter().collect(),
        };
        let sop = full_sop();
        let violations = GuidelineLinter::new().lint(&strategy, Some(&sop), &context);
        assert!(violations
            .iter()
            .any(|v| v.aspect == GuidelineAspect::Target));
        // Without the context knowledge, no Target violation.
        let violations =
            GuidelineLinter::new().lint(&strategy, Some(&sop), &GuidelineContext::default());
        assert!(!violations
            .iter()
            .any(|v| v.aspect == GuidelineAspect::Target));
    }

    #[test]
    fn timing_flags_single_sample_and_zero_cooldown() {
        let strategy = AlertStrategy::builder(StrategyId(3))
            .title_template("latency of api gateway is higher than 500")
            .kind(StrategyKind::Metric(MetricRule {
                metric: MetricKind::Latency,
                op: ThresholdOp::Above,
                threshold: 500.0,
                consecutive_samples: 1,
            }))
            .notify("x")
            .build()
            .unwrap();
        let sop = full_sop();
        let violations =
            GuidelineLinter::new().lint(&strategy, Some(&sop), &GuidelineContext::default());
        let timing: Vec<_> = violations
            .iter()
            .filter(|v| v.aspect == GuidelineAspect::Timing)
            .collect();
        assert_eq!(timing.len(), 2, "{violations:?}");
    }

    #[test]
    fn timing_flags_twitchy_probe_and_log() {
        let probe = AlertStrategy::builder(StrategyId(4))
            .title_template("gateway not responding to heartbeat probes")
            .kind(StrategyKind::Probe(ProbeRule {
                no_response_timeout: SimDuration::from_secs(10),
            }))
            .cooldown(SimDuration::from_mins(5))
            .notify("x")
            .build()
            .unwrap();
        let sop = full_sop();
        let violations =
            GuidelineLinter::new().lint(&probe, Some(&sop), &GuidelineContext::default());
        assert!(violations
            .iter()
            .any(|v| v.message.contains("probe timeout")));

        let log = AlertStrategy::builder(StrategyId(5))
            .title_template("gateway logged errors within window")
            .kind(StrategyKind::Log(LogRule {
                keyword: "ERROR".into(),
                min_count: 1,
                window: SimDuration::from_mins(5),
            }))
            .cooldown(SimDuration::from_mins(5))
            .notify("x")
            .build()
            .unwrap();
        let violations =
            GuidelineLinter::new().lint(&log, Some(&sop), &GuidelineContext::default());
        assert!(violations
            .iter()
            .any(|v| v.message.contains("single matching line")));
    }

    #[test]
    fn presentation_flags_vague_title_missing_sop_and_no_notify() {
        let strategy = AlertStrategy::builder(StrategyId(6))
            .title_template("Instance x is abnormal")
            .kind(StrategyKind::Log(LogRule {
                keyword: "E".into(),
                min_count: 5,
                window: SimDuration::from_mins(2),
            }))
            .cooldown(SimDuration::from_mins(5))
            .build()
            .unwrap();
        let violations = GuidelineLinter::new().lint(&strategy, None, &GuidelineContext::default());
        let presentation: Vec<_> = violations
            .iter()
            .filter(|v| v.aspect == GuidelineAspect::Presentation)
            .collect();
        assert_eq!(presentation.len(), 3, "{violations:?}");
    }

    #[test]
    fn incomplete_sop_is_flagged() {
        let strategy = good_strategy();
        let poor = Sop::builder("x", StrategyId(1)).build().unwrap();
        let violations =
            GuidelineLinter::new().lint(&strategy, Some(&poor), &GuidelineContext::default());
        assert!(violations.iter().any(|v| v.message.contains("complete")));
    }

    #[test]
    fn lint_catalog_sorts_by_strategy() {
        let a = good_strategy();
        let b = AlertStrategy::builder(StrategyId(0))
            .title_template("Instance x is abnormal")
            .kind(StrategyKind::Log(LogRule {
                keyword: "E".into(),
                min_count: 5,
                window: SimDuration::from_mins(2),
            }))
            .cooldown(SimDuration::from_mins(5))
            .notify("x")
            .build()
            .unwrap();
        let sop = full_sop();
        let violations = GuidelineLinter::new().lint_catalog(
            [(&a, Some(&sop)), (&b, Some(&sop))],
            &GuidelineContext::default(),
        );
        assert!(!violations.is_empty());
        for w in violations.windows(2) {
            assert!(w[0].strategy <= w[1].strategy);
        }
    }

    #[test]
    fn violation_display() {
        let v = GuidelineViolation {
            strategy: StrategyId(9),
            aspect: GuidelineAspect::Timing,
            message: "too twitchy".into(),
        };
        let s = v.to_string();
        assert!(s.contains("Timing"));
        assert!(s.contains("strategy-9"));
    }
}
