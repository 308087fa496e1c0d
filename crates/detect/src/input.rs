//! The shared input bundle detectors operate on.

use std::collections::HashMap;

use alertops_model::{Alert, AlertStrategy, DependencyGraph, Incident, StrategyId};

/// Everything a detector may need: the strategy catalog, the alert
/// history, the incident history, and the dependency graph. All fields
/// except the strategies are optional — detectors that need missing
/// evidence simply return no findings for it.
///
/// Construct with [`DetectionInput::new`] and chain `with_*` methods.
#[derive(Debug, Clone, Default)]
pub struct DetectionInput<'a> {
    strategies: &'a [AlertStrategy],
    alerts: &'a [Alert],
    incidents: &'a [Incident],
    graph: Option<&'a DependencyGraph>,
    by_strategy: HashMap<StrategyId, Vec<usize>>,
}

impl<'a> DetectionInput<'a> {
    /// Creates an input over a strategy catalog with no alert evidence.
    #[must_use]
    pub fn new(strategies: &'a [AlertStrategy]) -> Self {
        Self {
            strategies,
            alerts: &[],
            incidents: &[],
            graph: None,
            by_strategy: HashMap::new(),
        }
    }

    /// Attaches the alert history (and indexes it by strategy).
    #[must_use]
    pub fn with_alerts(mut self, alerts: &'a [Alert]) -> Self {
        self.alerts = alerts;
        self.by_strategy = HashMap::new();
        for (ix, alert) in alerts.iter().enumerate() {
            self.by_strategy
                .entry(alert.strategy())
                .or_default()
                .push(ix);
        }
        self
    }

    /// Attaches the incident history.
    #[must_use]
    pub fn with_incidents(mut self, incidents: &'a [Incident]) -> Self {
        self.incidents = incidents;
        self
    }

    /// Attaches the dependency graph (needed by the A6 detector).
    #[must_use]
    pub fn with_graph(mut self, graph: &'a DependencyGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The strategy catalog.
    #[must_use]
    pub fn strategies(&self) -> &'a [AlertStrategy] {
        self.strategies
    }

    /// The alert history.
    #[must_use]
    pub fn alerts(&self) -> &'a [Alert] {
        self.alerts
    }

    /// The incident history.
    #[must_use]
    pub fn incidents(&self) -> &'a [Incident] {
        self.incidents
    }

    /// The dependency graph, if attached.
    #[must_use]
    pub fn graph(&self) -> Option<&'a DependencyGraph> {
        self.graph
    }

    /// The alerts of one strategy, in stream order.
    pub fn alerts_of(&self, strategy: StrategyId) -> impl Iterator<Item = &'a Alert> + '_ {
        self.by_strategy
            .get(&strategy)
            .into_iter()
            .flatten()
            .map(|&ix| &self.alerts[ix])
    }

    /// Number of alerts recorded for `strategy`.
    #[must_use]
    pub fn alert_count_of(&self, strategy: StrategyId) -> usize {
        self.by_strategy.get(&strategy).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{AlertId, LogRule, SimDuration, SimTime, StrategyKind};

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

    fn alert(id: u64, strategy: u64, t: u64) -> Alert {
        Alert::builder(AlertId(id), StrategyId(strategy))
            .raised_at(SimTime::from_secs(t))
            .build()
    }

    #[test]
    fn indexes_alerts_by_strategy() {
        let strategies = [strategy(1), strategy(2)];
        let alerts = [alert(0, 1, 10), alert(1, 2, 20), alert(2, 1, 30)];
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        assert_eq!(input.alert_count_of(StrategyId(1)), 2);
        assert_eq!(input.alert_count_of(StrategyId(2)), 1);
        assert_eq!(input.alert_count_of(StrategyId(9)), 0);
        let times: Vec<u64> = input
            .alerts_of(StrategyId(1))
            .map(|a| a.raised_at().as_secs())
            .collect();
        assert_eq!(times, vec![10, 30]);
    }

    #[test]
    fn empty_input_is_safe() {
        let strategies: [AlertStrategy; 0] = [];
        let input = DetectionInput::new(&strategies);
        assert!(input.alerts().is_empty());
        assert!(input.incidents().is_empty());
        assert!(input.graph().is_none());
        assert_eq!(input.alerts_of(StrategyId(1)).count(), 0);
    }
}
