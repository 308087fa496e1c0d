//! A3 — improper and outdated generation rule.
//!
//! "Due to the fault-tolerance techniques applied in cloud services, the
//! performance indicators of lower-level infrastructures do not have
//! definite effect on the quality of cloud services from the perspective
//! of customers" (§III-A1). The detector flags *infrastructure-metric*
//! strategies that keep firing without their alerts ever coinciding with
//! user-visible impact (incidents on the owning service).

use alertops_model::{indicates_incident, AlertStrategy, StrategyKind};

use crate::input::DetectionInput;
use crate::types::{AntiPattern, Detector, StrategyFinding};

/// Alerts a strategy needs before A3 judges it.
const MIN_ALERTS: usize = 5;

/// The incident co-occurrence rate at or below which an
/// infrastructure-metric rule is improper.
const MAX_INCIDENT_RATE: f64 = 0.12;

/// Detector for improper/outdated generation rules.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImproperRuleDetector;

impl ImproperRuleDetector {
    /// Whether A3 flags `strategy`, with `total` in-scope alerts of
    /// which `with_incident` indicated an incident on its service: the
    /// verdict both detection paths share. Only infrastructure-metric
    /// rules can be "improper" in the paper's sense.
    pub(crate) fn flags(strategy: &AlertStrategy, total: usize, with_incident: usize) -> bool {
        matches!(strategy.kind(), StrategyKind::Metric(rule) if rule.metric.is_infrastructure())
            && total >= MIN_ALERTS
            && incident_rate(total, with_incident) <= MAX_INCIDENT_RATE
    }

    /// The finding for a strategy A3 [`flags`](Self::flags): its score
    /// and evidence, rendered from the same aggregates.
    pub(crate) fn render(
        strategy: &AlertStrategy,
        total: usize,
        with_incident: usize,
    ) -> StrategyFinding {
        // What A3 flags is a metric rule; any other kind is named by
        // its category.
        let rule = match strategy.kind() {
            StrategyKind::Metric(rule) => rule.metric.name(),
            other => other.category(),
        };
        let incident_rate = incident_rate(total, with_incident);
        StrategyFinding {
            strategy: strategy.id(),
            pattern: AntiPattern::ImproperRule,
            // More alerts with zero impact = worse.
            score: total as f64 * (1.0 - incident_rate),
            evidence: format!(
                "infrastructure metric `{rule}` fired {total} times with {:.0}% incident co-occurrence",
                incident_rate * 100.0,
            ),
        }
    }
}

/// The share of `total` alerts that indicated an incident.
fn incident_rate(total: usize, with_incident: usize) -> f64 {
    with_incident as f64 / total as f64
}

impl Detector for ImproperRuleDetector {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::ImproperRule
    }

    fn detect(&self, input: &DetectionInput<'_>) -> Vec<StrategyFinding> {
        let mut findings = Vec::new();
        for strategy in input.strategies() {
            let total = input.alert_count_of(strategy.id());
            let with_incident = input
                .alerts_of(strategy.id())
                .filter(|a| {
                    indicates_incident(input.incidents(), strategy.service(), a.raised_at())
                })
                .count();
            if Self::flags(strategy, total, with_incident) {
                findings.push(Self::render(strategy, total, with_incident));
            }
        }
        findings.sort_by(|a, b| a.report_order(b, |f| f.strategy));
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{
        Alert, AlertId, AlertStrategy, Incident, IncidentId, MetricKind, MetricRule, ServiceId,
        Severity, SimTime, StrategyId, ThresholdOp,
    };

    fn metric_strategy(id: u64, metric: MetricKind, service: u64) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(id))
            .title_template("metric rule")
            .service(ServiceId(service))
            .kind(StrategyKind::Metric(MetricRule {
                metric,
                op: ThresholdOp::Above,
                threshold: 80.0,
                consecutive_samples: 1,
            }))
            .build()
            .unwrap()
    }

    fn alert(id: u64, strategy: u64, t: u64) -> Alert {
        Alert::builder(AlertId(id), StrategyId(strategy))
            .raised_at(SimTime::from_secs(t))
            .build()
    }

    #[test]
    fn flags_noisy_infra_rule_without_impact() {
        let strategies = [metric_strategy(1, MetricKind::DiskUsage, 0)];
        let alerts: Vec<Alert> = (0..20).map(|i| alert(i, 1, i * 100)).collect();
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = ImproperRuleDetector.detect(&input);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].evidence.contains("disk_usage"));
        assert!(findings[0].score >= 19.0);
    }

    #[test]
    fn spares_infra_rule_that_tracks_incidents() {
        let strategies = [metric_strategy(1, MetricKind::CpuUtilization, 0)];
        let alerts: Vec<Alert> = (0..10).map(|i| alert(i, 1, i * 100)).collect();
        let mut inc = Incident::new(
            IncidentId(0),
            ServiceId(0),
            Severity::Critical,
            SimTime::from_secs(0),
        );
        inc.mitigate(SimTime::from_secs(10_000));
        let incidents = [inc];
        let input = DetectionInput::new(&strategies)
            .with_alerts(&alerts)
            .with_incidents(&incidents);
        let findings = ImproperRuleDetector.detect(&input);
        assert!(findings.is_empty());
    }

    #[test]
    fn spares_service_level_metrics() {
        let strategies = [metric_strategy(1, MetricKind::Latency, 0)];
        let alerts: Vec<Alert> = (0..20).map(|i| alert(i, 1, i * 100)).collect();
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = ImproperRuleDetector.detect(&input);
        assert!(findings.is_empty(), "latency is not an infra metric");
    }

    #[test]
    fn spares_quiet_rules() {
        let strategies = [metric_strategy(1, MetricKind::DiskUsage, 0)];
        let alerts: Vec<Alert> = (0..3).map(|i| alert(i, 1, i * 100)).collect();
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = ImproperRuleDetector.detect(&input);
        assert!(findings.is_empty(), "3 alerts is not enough evidence");
    }

    #[test]
    fn noisier_rules_rank_first() {
        let strategies = [
            metric_strategy(1, MetricKind::DiskUsage, 0),
            metric_strategy(2, MetricKind::MemoryUtilization, 0),
        ];
        let mut alerts: Vec<Alert> = (0..20).map(|i| alert(i, 1, i * 100)).collect();
        alerts.extend((20..26).map(|i| alert(i, 2, i * 100)));
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = ImproperRuleDetector.detect(&input);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].strategy, StrategyId(1));
    }
}
