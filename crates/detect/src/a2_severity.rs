//! A2 — misleading severity.
//!
//! "Inappropriately high severity level takes up OCE's time for dealing
//! with less essential alerts, while too low severity level may lead to
//! missing important alerts" (§III-A1). The detector estimates each
//! strategy's *impact-implied* severity from evidence — how often its
//! alerts co-occur with an incident on the same service, and how often
//! they simply auto-clear — and flags strategies whose configured
//! severity sits at least two ranks away.

use alertops_model::{indicates_incident, AlertStrategy, Clearance, Severity, StrategyKind};

use crate::input::DetectionInput;
use crate::types::{AntiPattern, Detector, StrategyFinding};

/// Alerts a strategy needs before A2 judges it (fewer is not enough
/// evidence).
const MIN_ALERTS: usize = 10;

/// Rank distance between the configured and the implied severity that
/// A2 flags.
const MIN_DISTANCE: u8 = 2;

/// Detector for misleading severities. Needs alert *and* incident
/// history; strategies with fewer than ten alerts are skipped (not
/// enough evidence).
#[derive(Debug, Clone, Copy, Default)]
pub struct MisleadingSeverityDetector;

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
    /// Alerts that indicated an incident on the strategy's service.
    pub with_incident: usize,
    /// Alerts that auto-cleared.
    pub auto_cleared: usize,
    /// Transient alerts ([`Alert::is_transient`](alertops_model::Alert::is_transient)).
    pub transients: usize,
}

impl SeverityEvidence {
    /// Reduces one strategy's alerts in `input` to its aggregates.
    fn of(input: &DetectionInput<'_>, strategy: &AlertStrategy) -> Self {
        let mut evidence = Self {
            total: input.alert_count_of(strategy.id()),
            ..Self::default()
        };
        for alert in input.alerts_of(strategy.id()) {
            evidence.with_incident += usize::from(indicates_incident(
                input.incidents(),
                strategy.service(),
                alert.raised_at(),
            ));
            evidence.auto_cleared += usize::from(alert.clearance() == Some(Clearance::Auto));
            evidence.transients += usize::from(alert.is_transient());
        }
        evidence
    }

    /// The incident co-occurrence and auto-clear rates.
    fn rates(&self) -> (f64, f64) {
        let total = self.total as f64;
        (
            self.with_incident as f64 / total,
            self.auto_cleared as f64 / total,
        )
    }

    /// The severity the rates imply.
    fn implied(&self) -> Severity {
        let (incident_rate, auto_clear_rate) = self.rates();
        MisleadingSeverityDetector::implied_severity(incident_rate, auto_clear_rate)
    }
}

impl MisleadingSeverityDetector {
    /// Whether A2 flags `strategy` on its [`SeverityEvidence`]
    /// aggregates: the verdict both detection paths share, read from
    /// the counters alone.
    pub(crate) fn flags(strategy: &AlertStrategy, evidence: &SeverityEvidence) -> bool {
        let total = evidence.total;
        if total < MIN_ALERTS {
            return false;
        }
        // Transient-dominated strategies are A4's finding, not A2's:
        // their severity is moot until the flapping is fixed.
        if evidence.transients as f64 / total as f64 > 0.5 {
            return false;
        }
        let implied = evidence.implied();
        // Probe severities encode worst-case impact (host down). A
        // noisy probe with no observed impact has a *timing/threshold*
        // problem, not a severity one — don't flag Critical probes
        // down to noise levels.
        if matches!(strategy.kind(), StrategyKind::Probe(_)) && implied <= Severity::Minor {
            return false;
        }
        strategy.severity().distance(implied) >= MIN_DISTANCE
    }

    /// The finding for a strategy A2 [`flags`](Self::flags): its score
    /// and evidence, rendered from the same aggregates.
    pub(crate) fn render(strategy: &AlertStrategy, evidence: &SeverityEvidence) -> StrategyFinding {
        let (incident_rate, auto_clear_rate) = evidence.rates();
        let implied = Self::implied_severity(incident_rate, auto_clear_rate);
        StrategyFinding {
            strategy: strategy.id(),
            pattern: AntiPattern::MisleadingSeverity,
            score: f64::from(strategy.severity().distance(implied)),
            evidence: format!(
                "configured {} but evidence implies {} ({} alerts, {:.0}% incident co-occurrence, {:.0}% auto-cleared)",
                strategy.severity(),
                implied,
                evidence.total,
                incident_rate * 100.0,
                auto_clear_rate * 100.0,
            ),
        }
    }

    /// The severity this detector's evidence implies for one strategy,
    /// or `None` when there is not enough history (fewer than ten
    /// alerts). Exposed so governance remediation can propose the
    /// corrected severity without re-deriving the evidence rules.
    #[must_use]
    pub fn implied_for(
        &self,
        input: &DetectionInput<'_>,
        strategy: &AlertStrategy,
    ) -> Option<Severity> {
        let evidence = SeverityEvidence::of(input, strategy);
        (evidence.total >= MIN_ALERTS).then(|| evidence.implied())
    }
}

impl Detector for MisleadingSeverityDetector {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::MisleadingSeverity
    }

    fn detect(&self, input: &DetectionInput<'_>) -> Vec<StrategyFinding> {
        let mut findings: Vec<StrategyFinding> = input
            .strategies()
            .iter()
            .filter_map(|strategy| {
                let evidence = SeverityEvidence::of(input, strategy);
                Self::flags(strategy, &evidence).then(|| Self::render(strategy, &evidence))
            })
            .collect();
        findings.sort_by(|a, b| a.report_order(b, |f| f.strategy));
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
        let findings = MisleadingSeverityDetector.detect(&input);
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
        let findings = MisleadingSeverityDetector.detect(&input);
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
        let findings = MisleadingSeverityDetector.detect(&input);
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
        let findings = MisleadingSeverityDetector.detect(&input);
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
        let findings = MisleadingSeverityDetector.detect(&input);
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
        let findings = MisleadingSeverityDetector.detect(&input);
        // No incident co-occurrence, no auto-clear → implied Minor,
        // distance from Warning = 1 < 2.
        assert!(findings.is_empty());
    }
}
