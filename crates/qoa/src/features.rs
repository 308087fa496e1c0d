//! Feature extraction for learned QoA models.
//!
//! Eleven per-strategy features in `[0, 1]`, drawn from the strategy
//! definition, its SOP, and its alert history — the observable signals
//! an OCE implicitly weighs when labelling an alert's quality.
//!
//! [`extract_features`] takes the title's informativeness score as an
//! argument rather than scoring the title itself: the score is a fixed
//! property of the strategy, so a streaming shard reads it from its
//! `IndexedCatalog`, where it was computed once, while a batch caller
//! passes `alertops_text::title_report(title).score`.

use alertops_model::{
    indicates_incident, Alert, AlertStrategy, Clearance, Incident, Sop, StrategyKind,
};

/// Names of the extracted features, index-aligned with
/// [`extract_features`].
pub const FEATURE_NAMES: [&str; 11] = [
    "title_informativeness",
    "sop_completeness",
    "severity_rank",
    "is_infra_metric",
    "is_probe",
    "alert_volume_norm",
    "auto_clear_rate",
    "transient_rate",
    "incident_rate",
    "instance_location_rate",
    "severity_evidence_gap",
];

/// Alerts-per-strategy count that maps to feature value 1.0 (volumes
/// above it saturate).
const VOLUME_CEILING: f64 = 200.0;

/// Extracts the feature vector of one strategy, given its title's
/// informativeness score.
#[must_use]
pub fn extract_features(
    strategy: &AlertStrategy,
    title_score: f64,
    sop: Option<&Sop>,
    alerts: &[&Alert],
    incidents: &[Incident],
) -> Vec<f64> {
    let total = alerts.len();
    let mut auto = 0usize;
    let mut transient = 0usize;
    let mut with_incident = 0usize;
    let mut instance_level = 0usize;
    for alert in alerts {
        auto += usize::from(alert.clearance() == Some(Clearance::Auto));
        transient += usize::from(alert.is_transient());
        with_incident += usize::from(indicates_incident(
            incidents,
            strategy.service(),
            alert.raised_at(),
        ));
        if alert.location().is_instance_level() {
            instance_level += 1;
        }
    }
    let rate = |count: usize| {
        if total == 0 {
            0.0
        } else {
            count as f64 / total as f64
        }
    };
    // The severity-vs-evidence gap: distance between the configured
    // severity and the rank the incident/auto-clear evidence implies
    // (the A2 detector's signal, exposed as a learnable feature).
    let severity_gap = if total == 0 {
        0.0
    } else {
        let incident_rate = rate(with_incident);
        let auto_rate = rate(auto);
        let self_clearing = auto_rate > 0.8;
        let implied: u8 = if incident_rate > 0.5 && !self_clearing {
            3
        } else if (incident_rate > 0.3 && !self_clearing) || incident_rate > 0.5 {
            2
        } else if self_clearing && incident_rate <= 0.3 {
            0
        } else {
            1
        };
        f64::from(strategy.severity().rank().abs_diff(implied)) / 3.0
    };
    vec![
        title_score,
        sop.map_or(0.0, Sop::completeness),
        f64::from(strategy.severity().rank()) / 3.0,
        f64::from(matches!(
            strategy.kind(),
            StrategyKind::Metric(rule) if rule.metric.is_infrastructure()
        )),
        f64::from(matches!(strategy.kind(), StrategyKind::Probe(_))),
        (total as f64 / VOLUME_CEILING).min(1.0),
        rate(auto),
        rate(transient),
        rate(with_incident),
        rate(instance_level),
        severity_gap,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{
        AlertId, Location, LogRule, MetricKind, MetricRule, Severity, SimDuration, SimTime,
        StrategyId, ThresholdOp,
    };
    use alertops_text::title_report;

    fn metric_strategy(infra: bool) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(1))
            .title_template("disk usage of node over 90")
            .severity(Severity::Major)
            .kind(StrategyKind::Metric(MetricRule {
                metric: if infra {
                    MetricKind::DiskUsage
                } else {
                    MetricKind::Latency
                },
                op: ThresholdOp::Above,
                threshold: 90.0,
                consecutive_samples: 1,
            }))
            .build()
            .unwrap()
    }

    fn log_strategy() -> AlertStrategy {
        AlertStrategy::builder(StrategyId(2))
            .title_template("errors in log")
            .kind(StrategyKind::Log(LogRule {
                keyword: "E".into(),
                min_count: 1,
                window: SimDuration::from_mins(1),
            }))
            .build()
            .unwrap()
    }

    fn transient_alert(id: u64) -> Alert {
        let mut a = Alert::builder(AlertId(id), StrategyId(1))
            .location(Location::new("r", "d").with_instance("vm"))
            .raised_at(SimTime::from_secs(id * 100))
            .build();
        a.clear(SimTime::from_secs(id * 100 + 30), Clearance::Auto)
            .unwrap();
        a
    }

    /// The features as a batch caller gets them.
    fn extract(strategy: &AlertStrategy, alerts: &[&Alert]) -> Vec<f64> {
        let title_score = title_report(strategy.title_template()).score;
        extract_features(strategy, title_score, None, alerts, &[])
    }

    #[test]
    fn dimension_matches_names() {
        let features = extract(&metric_strategy(true), &[]);
        assert_eq!(features.len(), FEATURE_NAMES.len());
    }

    #[test]
    fn all_features_bounded() {
        let alerts: Vec<Alert> = (0..300).map(transient_alert).collect();
        let refs: Vec<&Alert> = alerts.iter().collect();
        let features = extract(&metric_strategy(true), &refs);
        for (name, value) in FEATURE_NAMES.iter().zip(&features) {
            assert!(
                (0.0..=1.0).contains(value),
                "feature {name} = {value} out of bounds"
            );
        }
    }

    #[test]
    fn kind_flags() {
        let infra = extract(&metric_strategy(true), &[]);
        assert_eq!(infra[3], 1.0);
        assert_eq!(infra[4], 0.0);
        let service = extract(&metric_strategy(false), &[]);
        assert_eq!(service[3], 0.0);
        let log = extract(&log_strategy(), &[]);
        assert_eq!(log[3], 0.0);
        assert_eq!(log[4], 0.0);
    }

    #[test]
    fn transient_and_auto_rates() {
        let alerts: Vec<Alert> = (0..10).map(transient_alert).collect();
        let refs: Vec<&Alert> = alerts.iter().collect();
        let features = extract(&metric_strategy(true), &refs);
        assert_eq!(features[6], 1.0); // auto clear rate
        assert_eq!(features[7], 1.0); // transient rate
        assert_eq!(features[9], 1.0); // instance location rate
    }

    #[test]
    fn volume_saturates_at_ceiling() {
        let alerts: Vec<Alert> = (0..500).map(transient_alert).collect();
        let refs: Vec<&Alert> = alerts.iter().collect();
        let features = extract(&metric_strategy(true), &refs);
        assert_eq!(features[5], 1.0);
    }

    #[test]
    fn severity_rank_scaling() {
        let features = extract(&metric_strategy(true), &[]);
        assert!((features[2] - 2.0 / 3.0).abs() < 1e-12); // Major = rank 2
    }
}
