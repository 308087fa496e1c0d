//! Evidence-based QoA scoring.

use serde::{Deserialize, Serialize};

use alertops_model::{
    indicates_incident, Alert, AlertStrategy, Clearance, Incident, Severity, Sop,
};
use alertops_text::title_report;

/// The three QoA criteria for one strategy, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoaScores {
    /// Does the alert indicate end-user-visible failures?
    pub indicativeness: f64,
    /// Does the configured severity reflect the anomaly's real severity?
    pub precision: f64,
    /// Can the alert be quickly handled (target + presentation)?
    pub handleability: f64,
}

impl QoaScores {
    /// The mean of the three criteria — a single QoA headline number.
    #[must_use]
    pub fn overall(&self) -> f64 {
        (self.indicativeness + self.precision + self.handleability) / 3.0
    }
}

/// A strategy's QoA assessment with the evidence that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QoaReport {
    /// The assessed strategy.
    pub strategy: alertops_model::StrategyId,
    /// The three criteria.
    pub scores: QoaScores,
    /// Number of alerts the evidence is based on.
    pub alert_count: usize,
}

/// Computes evidence-based QoA scores.
///
/// * `indicativeness` = fraction of the strategy's alerts that indicate
///   an incident on the owning service
///   ([`indicates_incident`]);
/// * `precision` = `1 − severity_distance/3`, where the implied severity
///   comes from the same incident/auto-clear evidence the A2 detector
///   uses;
/// * `handleability` = mean of title informativeness, SOP completeness,
///   and the fraction of alerts carrying instance-level location.
///
/// Behavioural evidence is weighted by volume: with fewer than
/// [`min_evidence`](QoaScorer::min_evidence) alerts the scores blend
/// toward their no-evidence defaults (indicativeness 0.5, precision 1.0
/// — nothing contradicts the configured severity), so a probe that
/// fired once and self-healed is not condemned on a single sample.
/// Handleability is always judged statically from the title template and
/// SOP when no alerts exist.
#[derive(Debug, Clone)]
pub struct QoaScorer {
    /// Alert count at which behavioural evidence gets full weight.
    pub min_evidence: usize,
}

impl Default for QoaScorer {
    fn default() -> Self {
        Self { min_evidence: 10 }
    }
}

impl QoaScorer {
    /// Creates a scorer with the default evidence floor.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the evidence floor: the alert count at which behavioural
    /// criteria get full weight (consuming builder-style).
    #[must_use]
    pub fn with_min_evidence(mut self, min_evidence: usize) -> Self {
        self.min_evidence = min_evidence;
        self
    }

    /// Scores one strategy given its SOP (if any), its alerts, and the
    /// incident history.
    #[must_use]
    pub fn score(
        &self,
        strategy: &AlertStrategy,
        sop: Option<&Sop>,
        alerts: &[&Alert],
        incidents: &[Incident],
    ) -> QoaReport {
        let total = alerts.len();
        let mut with_incident = 0usize;
        let mut auto_cleared = 0usize;
        let mut instance_level = 0usize;
        for alert in alerts {
            if indicates_incident(incidents, strategy.service(), alert.raised_at()) {
                with_incident += 1;
            }
            if alert.clearance() == Some(Clearance::Auto) {
                auto_cleared += 1;
            }
            if alert.location().is_instance_level() {
                instance_level += 1;
            }
        }
        let title = title_report(strategy.title_template()).score;
        let sop_completeness = sop.map_or(0.0, Sop::completeness);

        // Confidence in the behavioural evidence: 0 with no alerts, 1
        // once `min_evidence` alerts accumulated.
        let confidence = (total as f64 / self.min_evidence.max(1) as f64).min(1.0);
        let (indicativeness, precision, instance_rate) = if total == 0 {
            // No behavioural evidence: neutral indicativeness, benefit of
            // the doubt on precision, template-only presentation.
            (0.5, 1.0, 1.0)
        } else {
            let incident_rate = with_incident as f64 / total as f64;
            let auto_clear_rate = auto_cleared as f64 / total as f64;
            let implied = implied_severity(incident_rate, auto_clear_rate);
            let evidence_precision = 1.0 - f64::from(strategy.severity().distance(implied)) / 3.0;
            (
                confidence * incident_rate + (1.0 - confidence) * 0.5,
                confidence * evidence_precision + (1.0 - confidence) * 1.0,
                instance_level as f64 / total as f64,
            )
        };
        let handleability = (title + sop_completeness + instance_rate) / 3.0;

        QoaReport {
            strategy: strategy.id(),
            scores: QoaScores {
                indicativeness,
                precision,
                handleability,
            },
            alert_count: total,
        }
    }
}

/// The impact-implied severity QoA's precision criterion is judged
/// against. Deliberately not A2's
/// `MisleadingSeverityDetector::implied_severity`: its bands (0.15
/// incident rate for `Major`, 0.7 auto-clear for `Warning`) are looser
/// than A2's (0.3 and 0.8, with A2's self-clearing cap), so a score
/// grades a severity A2 would not yet flag. Merging the two would change
/// every QoA score.
fn implied_severity(incident_rate: f64, auto_clear_rate: f64) -> Severity {
    if incident_rate > 0.5 {
        Severity::Critical
    } else if incident_rate > 0.15 {
        Severity::Major
    } else if auto_clear_rate > 0.7 {
        Severity::Warning
    } else {
        Severity::Minor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{
        AlertId, IncidentId, Location, LogRule, ServiceId, SimDuration, SimTime, StrategyId,
        StrategyKind,
    };

    fn strategy(severity: Severity, title: &str) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(1))
            .title_template(title)
            .severity(severity)
            .service(ServiceId(0))
            .kind(StrategyKind::Log(LogRule {
                keyword: "E".into(),
                min_count: 1,
                window: SimDuration::from_mins(1),
            }))
            .build()
            .unwrap()
    }

    fn alert(id: u64, t: u64, auto: bool, instance: bool) -> Alert {
        let mut location = Location::new("r", "dc");
        if instance {
            location = location.with_instance("vm-1");
        }
        let mut a = Alert::builder(AlertId(id), StrategyId(1))
            .location(location)
            .raised_at(SimTime::from_secs(t))
            .build();
        if auto {
            a.clear(SimTime::from_secs(t + 30), Clearance::Auto)
                .unwrap();
        }
        a
    }

    fn incident(from: u64, to: u64) -> Incident {
        let mut inc = Incident::new(
            IncidentId(0),
            ServiceId(0),
            Severity::Critical,
            SimTime::from_secs(from),
        );
        inc.mitigate(SimTime::from_secs(to));
        inc
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
    fn indicative_precise_handleable_strategy_scores_high() {
        let s = strategy(
            Severity::Critical,
            "Failed to allocate new blocks, disk full",
        );
        let alerts: Vec<Alert> = (0..10)
            .map(|i| alert(i, 100 + i * 10, false, true))
            .collect();
        let refs: Vec<&Alert> = alerts.iter().collect();
        let incidents = [incident(0, 10_000)];
        let sop = full_sop();
        let report = QoaScorer::new().score(&s, Some(&sop), &refs, &incidents);
        assert_eq!(report.scores.indicativeness, 1.0);
        assert_eq!(report.scores.precision, 1.0);
        assert!(report.scores.handleability > 0.8);
        assert!(report.scores.overall() > 0.9);
    }

    #[test]
    fn noise_strategy_scores_low() {
        let s = strategy(Severity::Critical, "Instance x is abnormal");
        // All alerts auto-clear, never during incidents; no SOP.
        let alerts: Vec<Alert> = (0..10)
            .map(|i| alert(i, 100 + i * 10, true, false))
            .collect();
        let refs: Vec<&Alert> = alerts.iter().collect();
        let report = QoaScorer::new().score(&s, None, &refs, &[]);
        assert_eq!(report.scores.indicativeness, 0.0);
        // Implied Warning vs configured Critical: precision 0.
        assert_eq!(report.scores.precision, 0.0);
        assert!(report.scores.handleability < 0.3);
        assert!(report.scores.overall() < 0.2);
    }

    #[test]
    fn scores_are_bounded() {
        let s = strategy(Severity::Minor, "disk full");
        for (auto, inst, with_inc) in [
            (false, false, false),
            (true, true, true),
            (false, true, true),
        ] {
            let alerts: Vec<Alert> = (0..6).map(|i| alert(i, 100 + i, auto, inst)).collect();
            let refs: Vec<&Alert> = alerts.iter().collect();
            let incidents = if with_inc {
                vec![incident(0, 1_000)]
            } else {
                vec![]
            };
            let r = QoaScorer::new().score(&s, None, &refs, &incidents);
            for v in [
                r.scores.indicativeness,
                r.scores.precision,
                r.scores.handleability,
                r.scores.overall(),
            ] {
                assert!((0.0..=1.0).contains(&v), "score {v} out of bounds");
            }
        }
    }

    #[test]
    fn no_alerts_means_neutral_behavioural_scores() {
        let s = strategy(Severity::Minor, "CPU usage of nginx is higher than 80%");
        let sop = full_sop();
        let report = QoaScorer::new().score(&s, Some(&sop), &[], &[]);
        assert_eq!(report.alert_count, 0);
        assert_eq!(report.scores.indicativeness, 0.5);
        assert_eq!(report.scores.precision, 1.0);
        assert!(report.scores.handleability > 0.7);
    }

    #[test]
    fn partial_incident_overlap_gives_partial_indicativeness() {
        let s = strategy(Severity::Major, "disk full");
        let alerts: Vec<Alert> = (0..10).map(|i| alert(i, i * 1_000, false, true)).collect();
        let refs: Vec<&Alert> = alerts.iter().collect();
        let incidents = [incident(0, 3_000)]; // covers alerts at 0,1000,2000
        let report = QoaScorer::new().score(&s, None, &refs, &incidents);
        assert!((report.scores.indicativeness - 0.3).abs() < 1e-12);
        // Implied Major (rate 0.3 > 0.15), configured Major: precision 1.
        assert_eq!(report.scores.precision, 1.0);
    }
}
