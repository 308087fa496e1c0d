//! A4 — transient and toggling alerts.
//!
//! From the paper (§III-A1): "When the interval between the generation
//! time and automatic clearance time of an alarm is less than a certain
//! value (known as the **intermittent interruption threshold**), the
//! alert is called a **transient alert**. When the same alert is
//! generated and cleared multiple times (i.e., oscillation), and the
//! number of oscillations is greater than a certain value (known as the
//! **oscillation threshold**), it is called a **toggling alert**."
//!
//! Both definitions are implemented verbatim; the detector flags
//! strategies whose alert history is dominated by transients or exhibits
//! toggling runs.

use alertops_model::{Clearance, SimDuration, SimTime, StrategyId, INTERMITTENT_THRESHOLD};

use crate::input::DetectionInput;
use crate::types::{AntiPattern, Detector, StrategyFinding};

/// The paper's *oscillation threshold*: more than this many transient
/// alerts of one strategy within [`OSCILLATION_WINDOW`] make it toggling.
const OSCILLATION_THRESHOLD: usize = 3;

/// The span oscillations are counted in.
const OSCILLATION_WINDOW: SimDuration = SimDuration::from_mins(30);

/// Transient alerts a strategy needs before A4 flags it.
const MIN_TRANSIENTS: usize = 4;

/// The share of a strategy's alerts that must be transient.
const MIN_TRANSIENT_SHARE: f64 = 0.3;

/// Detector for transient and toggling alerts.
#[derive(Debug, Clone)]
pub struct TransientTogglingDetector {
    /// The intermittent interruption threshold: auto-cleared alerts with
    /// a shorter duration are transient. Defaults to
    /// [`INTERMITTENT_THRESHOLD`], the one the incremental engine uses.
    pub intermittent_threshold: SimDuration,
}

impl Default for TransientTogglingDetector {
    fn default() -> Self {
        Self {
            intermittent_threshold: INTERMITTENT_THRESHOLD,
        }
    }
}

/// The longest oscillation run: the maximum number of transient alerts
/// of one strategy falling within any [`OSCILLATION_WINDOW`]-long span.
/// `times` must be sorted ascending.
fn max_oscillation(times: &[SimTime]) -> usize {
    let mut best = 0;
    let mut lo = 0;
    for hi in 0..times.len() {
        while times[hi].duration_since(times[lo]) > OSCILLATION_WINDOW {
            lo += 1;
        }
        best = best.max(hi - lo + 1);
    }
    best
}

impl TransientTogglingDetector {
    /// Whether a single alert is *transient* under this configuration.
    #[must_use]
    pub fn is_transient(&self, alert: &alertops_model::Alert) -> bool {
        alert.clearance() == Some(Clearance::Auto)
            && alert
                .duration()
                .is_some_and(|d| d < self.intermittent_threshold)
    }

    /// Whether A4 flags a strategy with `total` in-scope alerts,
    /// `transients` of them transient: the verdict both detection paths
    /// share, read from the counts alone. Oscillation shapes only the
    /// score and the evidence.
    pub(crate) fn flags(total: usize, transients: usize) -> bool {
        total > 0
            && transients >= MIN_TRANSIENTS
            && transients as f64 / total as f64 >= MIN_TRANSIENT_SHARE
    }

    /// The finding for a strategy A4 [`flags`](Self::flags): `total`
    /// in-scope alerts, of which those raised at `transient_times`
    /// (sorted ascending, one entry per alert) were transient. Both
    /// detection paths reduce a strategy's evidence to exactly these
    /// inputs, so their findings agree byte for byte.
    pub(crate) fn render(
        &self,
        strategy: StrategyId,
        total: usize,
        transient_times: &[SimTime],
    ) -> StrategyFinding {
        let transients = transient_times.len();
        let oscillation = max_oscillation(transient_times);
        let toggling = oscillation > OSCILLATION_THRESHOLD;
        StrategyFinding {
            strategy,
            pattern: AntiPattern::TransientToggling,
            score: transients as f64 * if toggling { 2.0 } else { 1.0 },
            evidence: format!(
                "{transients}/{total} alerts transient (< {}); max oscillation {} in {}{}",
                self.intermittent_threshold,
                oscillation,
                OSCILLATION_WINDOW,
                if toggling { " — TOGGLING" } else { "" },
            ),
        }
    }
}

impl Detector for TransientTogglingDetector {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::TransientToggling
    }

    fn detect(&self, input: &DetectionInput<'_>) -> Vec<StrategyFinding> {
        let mut findings = Vec::new();
        for strategy in input.strategies() {
            let total = input.alert_count_of(strategy.id());
            let mut transient_times: Vec<SimTime> = input
                .alerts_of(strategy.id())
                .filter(|alert| self.is_transient(alert))
                .map(alertops_model::Alert::raised_at)
                .collect();
            transient_times.sort_unstable();
            if Self::flags(total, transient_times.len()) {
                findings.push(self.render(strategy.id(), total, &transient_times));
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
        Alert, AlertId, AlertStrategy, LogRule, SimTime, StrategyId, StrategyKind,
    };

    fn strategy(id: u64) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(id))
            .title_template("t")
            .kind(StrategyKind::Log(LogRule {
                keyword: "E".into(),
                min_count: 1,
                window: SimDuration::from_mins(1),
            }))
            .build()
            .unwrap()
    }

    /// An alert raised at `t` and auto-cleared after `secs`.
    fn transient(id: u64, strategy: u64, t: u64, secs: u64) -> Alert {
        let mut a = Alert::builder(AlertId(id), StrategyId(strategy))
            .raised_at(SimTime::from_secs(t))
            .build();
        a.clear(SimTime::from_secs(t + secs), Clearance::Auto)
            .unwrap();
        a
    }

    /// A long-lived manually cleared alert.
    fn solid(id: u64, strategy: u64, t: u64) -> Alert {
        let mut a = Alert::builder(AlertId(id), StrategyId(strategy))
            .raised_at(SimTime::from_secs(t))
            .build();
        a.clear(SimTime::from_secs(t + 3_600), Clearance::Manual)
            .unwrap();
        a
    }

    #[test]
    fn transient_definition_matches_paper() {
        let det = TransientTogglingDetector::default();
        assert!(det.is_transient(&transient(0, 1, 0, 60)));
        // 5 minutes exactly is NOT below the threshold.
        assert!(!det.is_transient(&transient(0, 1, 0, 300)));
        // Manual clearance is never transient.
        assert!(!det.is_transient(&solid(0, 1, 0)));
        // Active alerts are not transient.
        let active = Alert::builder(AlertId(0), StrategyId(1)).build();
        assert!(!det.is_transient(&active));
    }

    #[test]
    fn flags_transient_heavy_strategy() {
        let strategies = [strategy(1)];
        // 6 transients spread over hours (no toggling).
        let alerts: Vec<Alert> = (0..6).map(|i| transient(i, 1, i * 7_200, 30)).collect();
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = TransientTogglingDetector::default().detect(&input);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].evidence.contains("6/6 alerts transient"));
        assert!(!findings[0].evidence.contains("TOGGLING"));
    }

    #[test]
    fn detects_toggling_runs() {
        let strategies = [strategy(1)];
        // 5 transients within 20 minutes: oscillation 5 > threshold 3.
        let alerts: Vec<Alert> = (0..5)
            .map(|i| transient(i, 1, 1_000 + i * 240, 30))
            .collect();
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = TransientTogglingDetector::default().detect(&input);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].evidence.contains("TOGGLING"),
            "{}",
            findings[0].evidence
        );
    }

    #[test]
    fn toggling_is_strictly_above_the_threshold() {
        let strategies = [strategy(1)];
        // OSCILLATION_THRESHOLD transients within 10 minutes, one more
        // hours later: flagged as transient, not toggling.
        let mut alerts: Vec<Alert> = (0..OSCILLATION_THRESHOLD as u64)
            .map(|i| transient(i, 1, 1_000 + i * 300, 30))
            .collect();
        alerts.push(transient(9, 1, 20_000, 30));
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = TransientTogglingDetector::default().detect(&input);
        assert!(
            findings[0]
                .evidence
                .contains(&format!("max oscillation {OSCILLATION_THRESHOLD} in"))
                && !findings[0].evidence.contains("TOGGLING"),
            "{}",
            findings[0].evidence
        );
        // One more inside the window tips it over.
        alerts.push(transient(10, 1, 1_100, 30));
        alerts.sort_by_key(Alert::raised_at);
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = TransientTogglingDetector::default().detect(&input);
        assert!(
            findings[0].evidence.contains("TOGGLING"),
            "{}",
            findings[0].evidence
        );
    }

    #[test]
    fn spares_solid_strategies() {
        let strategies = [strategy(1)];
        let alerts: Vec<Alert> = (0..10).map(|i| solid(i, 1, i * 1_000)).collect();
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = TransientTogglingDetector::default().detect(&input);
        assert!(findings.is_empty());
    }

    #[test]
    fn share_threshold_spares_mostly_solid_strategies() {
        let strategies = [strategy(1)];
        // 4 transients among 20 solid alerts: share 4/24 < 0.3.
        let mut alerts: Vec<Alert> = (0..20).map(|i| solid(i, 1, i * 1_000)).collect();
        alerts.extend((20..24).map(|i| transient(i, 1, 50_000 + i * 10, 30)));
        alerts.sort_by_key(Alert::raised_at);
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = TransientTogglingDetector::default().detect(&input);
        assert!(findings.is_empty());
    }

    #[test]
    fn toggling_scores_above_plain_transient() {
        let strategies = [strategy(1), strategy(2)];
        let mut alerts: Vec<Alert> = (0..5)
            .map(|i| transient(i, 1, 1_000 + i * 240, 30)) // toggling
            .collect();
        alerts.extend((5..10).map(|i| transient(i, 2, i * 7_200, 30))); // spread
        alerts.sort_by_key(Alert::raised_at);
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        let findings = TransientTogglingDetector::default().detect(&input);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].strategy, StrategyId(1));
        assert!(findings[0].score > findings[1].score);
    }

    #[test]
    fn max_oscillation_window_logic() {
        let t = |s: u64| SimTime::from_secs(s);
        assert_eq!(max_oscillation(&[]), 0);
        assert_eq!(max_oscillation(&[t(0)]), 1);
        // 0, 10m, 20m, 29m → all within 30m window.
        assert_eq!(max_oscillation(&[t(0), t(600), t(1_200), t(1_740)]), 4);
        // 0 and 31m → never together.
        assert_eq!(max_oscillation(&[t(0), t(1_860)]), 1);
    }
}
