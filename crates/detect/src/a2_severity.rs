//! A2 — misleading severity.
//!
//! "Inappropriately high severity level takes up OCE's time for dealing
//! with less essential alerts, while too low severity level may lead to
//! missing important alerts" (§III-A1). The detector estimates each
//! strategy's *impact-implied* severity from evidence — how often its
//! alerts co-occur with an incident on the same service, and how often
//! they simply auto-clear — and flags strategies whose configured
//! severity sits at least two ranks away.

use alertops_model::{Clearance, Severity};

use crate::input::DetectionInput;
use crate::types::{AntiPattern, Detector, StrategyFinding};

/// Detector for misleading severities. Needs alert *and* incident
/// history; strategies with fewer than `min_alerts` alerts are skipped
/// (not enough evidence).
#[derive(Debug, Clone)]
pub struct MisleadingSeverityDetector {
    /// Minimum alert count before judging a strategy.
    pub min_alerts: usize,
    /// Minimum rank distance between configured and implied severity.
    pub min_distance: u8,
    /// How far after an alert an incident may begin and still count as
    /// indicated by it (alerts are early warnings).
    pub incident_lookahead: alertops_model::SimDuration,
}

impl Default for MisleadingSeverityDetector {
    fn default() -> Self {
        Self {
            min_alerts: 10,
            min_distance: 2,
            incident_lookahead: alertops_model::SimDuration::from_mins(30),
        }
    }
}

impl MisleadingSeverityDetector {
    /// Estimates the severity a strategy's impact evidence implies.
    ///
    /// * A clear majority of alerts co-occur with incidents → `Critical`.
    /// * A solid fraction does (and the alerts don't just auto-clear) →
    ///   `Major`.
    /// * Essentially no impact and the alerts mostly auto-clear →
    ///   `Warning` (pure noise).
    /// * Otherwise → `Minor`.
    ///
    /// Both high bands require a non-self-clearing majority (auto-clear
    /// ≤ 80%): alerts that overwhelmingly clear themselves never imply
    /// more than `Major`, however often they coincide with incidents —
    /// storms make incidental co-occurrence common, and a looser rule
    /// floods the detector with false flags.
    #[must_use]
    pub fn implied_severity(incident_rate: f64, auto_clear_rate: f64) -> Severity {
        let self_clearing = auto_clear_rate > 0.8;
        if incident_rate > 0.5 && !self_clearing {
            Severity::Critical
        } else if (incident_rate > 0.3 && !self_clearing) || incident_rate > 0.5 {
            Severity::Major
        } else if self_clearing && incident_rate <= 0.3 {
            Severity::Warning
        } else {
            Severity::Minor
        }
    }
}

/// The per-strategy aggregates A2 scoring reduces an alert history to.
/// Shared by the batch [`Detector`] pass and the incremental engine
/// ([`crate::IncrementalState`]) so both paths score identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SeverityEvidence {
    /// In-scope alerts of the strategy.
    pub total: usize,
    /// Alerts whose raise time indicated an incident on the strategy's
    /// service (within the detector's lookahead).
    pub with_incident: usize,
    /// Alerts that auto-cleared.
    pub auto_cleared: usize,
    /// Alerts that auto-cleared within [`a2_transient_cutoff`].
    pub transients: usize,
}

/// A2's transient cutoff: auto-cleared alerts shorter than this are
/// deferred to the A4 detector rather than judged for severity.
pub(crate) fn a2_transient_cutoff() -> alertops_model::SimDuration {
    alertops_model::SimDuration::from_mins(5)
}

impl MisleadingSeverityDetector {
    /// Evaluates one strategy from its [`SeverityEvidence`] aggregates —
    /// the single scoring formula behind both detection paths.
    pub(crate) fn evaluate_strategy(
        &self,
        strategy: &alertops_model::AlertStrategy,
        evidence: &SeverityEvidence,
    ) -> Option<StrategyFinding> {
        let total = evidence.total;
        if total < self.min_alerts {
            return None;
        }
        // Transient-dominated strategies are A4's finding, not A2's:
        // their severity is moot until the flapping is fixed.
        if evidence.transients as f64 / total as f64 > 0.5 {
            return None;
        }
        let incident_rate = evidence.with_incident as f64 / total as f64;
        let auto_clear_rate = evidence.auto_cleared as f64 / total as f64;
        let implied = Self::implied_severity(incident_rate, auto_clear_rate);
        // Probe severities encode worst-case impact (host down). A
        // noisy probe with no observed impact has a *timing/threshold*
        // problem, not a severity one — don't flag Critical probes
        // down to noise levels.
        if matches!(strategy.kind(), alertops_model::StrategyKind::Probe(_))
            && implied <= Severity::Minor
        {
            return None;
        }
        let distance = strategy.severity().distance(implied);
        if distance < self.min_distance {
            return None;
        }
        Some(StrategyFinding {
            strategy: strategy.id(),
            pattern: AntiPattern::MisleadingSeverity,
            score: f64::from(distance),
            evidence: format!(
                "configured {} but evidence implies {} ({} alerts, {:.0}% incident co-occurrence, {:.0}% auto-cleared)",
                strategy.severity(),
                implied,
                total,
                incident_rate * 100.0,
                auto_clear_rate * 100.0,
            ),
        })
    }

    /// The severity this detector's evidence implies for one strategy,
    /// or `None` when there is not enough history (fewer than
    /// `min_alerts` alerts). Exposed so governance remediation can
    /// propose the corrected severity without re-deriving the evidence
    /// rules.
    #[must_use]
    pub fn implied_for(
        &self,
        input: &DetectionInput<'_>,
        strategy: &alertops_model::AlertStrategy,
    ) -> Option<Severity> {
        let total = input.alert_count_of(strategy.id());
        if total < self.min_alerts {
            return None;
        }
        let mut with_incident = 0usize;
        let mut auto_cleared = 0usize;
        for alert in input.alerts_of(strategy.id()) {
            if input.incident_indicated(
                strategy.service(),
                alert.raised_at(),
                self.incident_lookahead,
            ) {
                with_incident += 1;
            }
            if alert.clearance() == Some(Clearance::Auto) {
                auto_cleared += 1;
            }
        }
        Some(Self::implied_severity(
            with_incident as f64 / total as f64,
            auto_cleared as f64 / total as f64,
        ))
    }
}

impl Detector for MisleadingSeverityDetector {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::MisleadingSeverity
    }

    fn detect(&self, input: &DetectionInput<'_>) -> Vec<StrategyFinding> {
        let mut findings = Vec::new();
        let transient_cutoff = a2_transient_cutoff();
        for strategy in input.strategies() {
            let mut evidence = SeverityEvidence {
                total: input.alert_count_of(strategy.id()),
                ..SeverityEvidence::default()
            };
            for alert in input.alerts_of(strategy.id()) {
                if input.incident_indicated(
                    strategy.service(),
                    alert.raised_at(),
                    self.incident_lookahead,
                ) {
                    evidence.with_incident += 1;
                }
                if alert.clearance() == Some(Clearance::Auto) {
                    evidence.auto_cleared += 1;
                    if alert.duration().is_some_and(|d| d < transient_cutoff) {
                        evidence.transients += 1;
                    }
                }
            }
            if let Some(finding) = self.evaluate_strategy(strategy, &evidence) {
                findings.push(finding);
            }
        }
        // Scores are severity distances, small whole numbers: no NaN or
        // -0.0, so this is the `partial_cmp` order.
        findings.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then(a.strategy.cmp(&b.strategy))
        });
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{
        Alert, AlertId, AlertStrategy, Incident, IncidentId, LogRule, ServiceId, SimDuration,
        SimTime, StrategyId, StrategyKind,
    };

    fn strategy(id: u64, severity: Severity, service: u64) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(id))
            .title_template("title")
            .severity(severity)
            .service(ServiceId(service))
            .kind(StrategyKind::Log(LogRule {
                keyword: "E".into(),
                min_count: 1,
                window: SimDuration::from_mins(1),
            }))
            .build()
            .unwrap()
    }

    /// Auto-cleared after 10 minutes: self-clearing but not transient
    /// (transient-dominated strategies are deferred to the A4 detector).
    fn alert(id: u64, strategy: u64, t: u64, auto_clear: bool) -> Alert {
        let mut a = Alert::builder(AlertId(id), StrategyId(strategy))
            .raised_at(SimTime::from_secs(t))
            .build();
        if auto_clear {
            a.clear(SimTime::from_secs(t + 600), Clearance::Auto)
                .unwrap();
        }
        a
    }

    fn incident(service: u64, from: u64, to: u64) -> Incident {
        let mut inc = Incident::new(
            IncidentId(0),
            ServiceId(service),
            Severity::Critical,
            SimTime::from_secs(from),
        );
        inc.mitigate(SimTime::from_secs(to));
        inc
    }

    #[test]
    fn implied_severity_mapping() {
        assert_eq!(
            MisleadingSeverityDetector::implied_severity(0.9, 0.0),
            Severity::Critical
        );
        // Self-clearing alerts cap at Major even with high co-occurrence.
        assert_eq!(
            MisleadingSeverityDetector::implied_severity(0.9, 1.0),
            Severity::Major
        );
        assert_eq!(
            MisleadingSeverityDetector::implied_severity(0.4, 0.0),
            Severity::Major
        );
        // Mostly-auto-cleared alerts cannot imply Major on moderate
        // co-occurrence — storms make that incidental.
        assert_eq!(
            MisleadingSeverityDetector::implied_severity(0.4, 0.9),
            Severity::Minor
        );
        assert_eq!(
            MisleadingSeverityDetector::implied_severity(0.0, 0.9),
            Severity::Warning
        );
        assert_eq!(
            MisleadingSeverityDetector::implied_severity(0.05, 0.2),
            Severity::Minor
        );
    }

    #[test]
    fn flags_warning_strategy_whose_alerts_track_incidents() {
        // Strategy 1 is Warning-configured but all its alerts fall inside
        // an incident window → implied Critical, distance 3.
        let strategies = [strategy(1, Severity::Warning, 4)];
        let alerts: Vec<Alert> = (0..12).map(|i| alert(i, 1, 100 + i * 10, false)).collect();
        let incidents = [incident(4, 50, 1_000)];
        let input = DetectionInput::new(&strategies)
            .with_alerts(&alerts)
            .with_incidents(&incidents);
        let findings = MisleadingSeverityDetector::default().detect(&input);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].strategy, StrategyId(1));
        assert_eq!(findings[0].score, 3.0);
        assert!(findings[0].evidence.contains("Critical"));
    }

    #[test]
    fn flags_critical_strategy_that_only_autoclears() {
        let strategies = [strategy(2, Severity::Critical, 4)];
        let alerts: Vec<Alert> = (0..12).map(|i| alert(i, 2, 100 + i * 10, true)).collect();
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = MisleadingSeverityDetector::default().detect(&input);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].evidence.contains("auto-cleared"));
    }

    #[test]
    fn transient_dominated_strategies_are_deferred_to_a4() {
        let strategies = [strategy(2, Severity::Critical, 4)];
        // All alerts auto-clear within 60s: transient share 100%.
        let alerts: Vec<Alert> = (0..12)
            .map(|i| {
                let mut a = Alert::builder(AlertId(i), StrategyId(2))
                    .raised_at(SimTime::from_secs(100 + i * 10))
                    .build();
                a.clear(SimTime::from_secs(160 + i * 10), Clearance::Auto)
                    .unwrap();
                a
            })
            .collect();
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = MisleadingSeverityDetector::default().detect(&input);
        assert!(findings.is_empty(), "transient flapping is A4's finding");
    }

    #[test]
    fn appropriate_severity_not_flagged() {
        // Major-configured, moderate incident co-occurrence → implied
        // Major, distance 0.
        let strategies = [strategy(3, Severity::Major, 4)];
        let alerts: Vec<Alert> = (0..10).map(|i| alert(i, 3, 100 + i * 200, false)).collect();
        let incidents = [incident(4, 100, 500)]; // covers 2/10 alerts
        let input = DetectionInput::new(&strategies)
            .with_alerts(&alerts)
            .with_incidents(&incidents);
        let findings = MisleadingSeverityDetector::default().detect(&input);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn too_few_alerts_is_no_evidence() {
        let strategies = [strategy(1, Severity::Warning, 4)];
        let alerts: Vec<Alert> = (0..5).map(|i| alert(i, 1, 100 + i, false)).collect();
        let incidents = [incident(4, 50, 1_000)];
        let input = DetectionInput::new(&strategies)
            .with_alerts(&alerts)
            .with_incidents(&incidents);
        let findings = MisleadingSeverityDetector::default().detect(&input);
        assert!(findings.is_empty());
    }

    #[test]
    fn incidents_on_other_services_do_not_count() {
        let strategies = [strategy(1, Severity::Warning, 4)];
        let alerts: Vec<Alert> = (0..12).map(|i| alert(i, 1, 100 + i * 10, false)).collect();
        let incidents = [incident(9, 50, 1_000)]; // different service
        let input = DetectionInput::new(&strategies)
            .with_alerts(&alerts)
            .with_incidents(&incidents);
        let findings = MisleadingSeverityDetector::default().detect(&input);
        // No incident co-occurrence, no auto-clear → implied Minor,
        // distance from Warning = 1 < 2.
        assert!(findings.is_empty());
    }
}
