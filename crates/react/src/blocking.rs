//! R1 — alert blocking.
//!
//! "When OCEs find that transient alerts, toggling alerts, and repeating
//! alerts provide no information about service anomaly, they can treat
//! these alerts as noise and block them with alert blocking rules"
//! (§III-C). A [`BlockRule`] is a conjunction of criteria, optionally
//! limited to a time window (the paper notes rules must be re-examined
//! after service updates — windows make stale rules expire instead of
//! silently eating real alerts).

use serde::{Deserialize, Serialize};

use alertops_model::{Alert, RegionId, Severity, StrategyId, TimeRange};

/// One matching criterion of a blocking rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BlockCriterion {
    /// Match alerts of this strategy.
    Strategy(StrategyId),
    /// Match alerts whose title contains this substring
    /// (case-insensitive).
    TitleContains(String),
    /// Match alerts at or below this severity.
    SeverityAtMost(Severity),
    /// Match alerts from this region.
    Region(RegionId),
}

impl BlockCriterion {
    /// Whether `alert` satisfies this criterion.
    #[must_use]
    pub fn matches(&self, alert: &Alert) -> bool {
        match self {
            BlockCriterion::Strategy(id) => alert.strategy() == *id,
            BlockCriterion::TitleContains(needle) => alert
                .title()
                .to_ascii_lowercase()
                .contains(&needle.to_ascii_lowercase()),
            BlockCriterion::SeverityAtMost(max) => alert.severity() <= *max,
            BlockCriterion::Region(region) => alert.location().region() == region,
        }
    }
}

/// A blocking rule: every criterion must match (conjunction), within the
/// optional activity window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockRule {
    /// Human-readable name (shown in audit trails).
    pub name: String,
    /// The conjunction of criteria. An empty conjunction matches nothing
    /// (a rule must say *something*).
    pub criteria: Vec<BlockCriterion>,
    /// If set, the rule only applies to alerts raised within the window.
    pub active_window: Option<TimeRange>,
}

impl BlockRule {
    /// A rule blocking everything from one strategy — the typical output
    /// of reviewing an A4/A5 finding.
    #[must_use]
    pub fn for_strategy(name: impl Into<String>, strategy: StrategyId) -> Self {
        Self {
            name: name.into(),
            criteria: vec![BlockCriterion::Strategy(strategy)],
            active_window: None,
        }
    }

    /// Restricts the rule to a time window (consuming builder-style).
    #[must_use]
    pub fn within(mut self, window: TimeRange) -> Self {
        self.active_window = Some(window);
        self
    }

    /// Whether this rule blocks `alert`.
    #[must_use]
    pub fn blocks(&self, alert: &Alert) -> bool {
        if self.criteria.is_empty() {
            return false;
        }
        if let Some(window) = &self.active_window {
            if !window.contains(alert.raised_at()) {
                return false;
            }
        }
        self.criteria.iter().all(|c| c.matches(alert))
    }
}

/// The result of applying a blocker to a stream: a partition of the
/// input.
#[derive(Debug, Clone)]
pub struct BlockOutcome<'a> {
    /// Alerts that passed through to the OCE.
    pub passed: Vec<&'a Alert>,
    /// Alerts suppressed by some rule.
    pub blocked: Vec<&'a Alert>,
    /// Per-rule hit counts, parallel to the blocker's rule list.
    pub rule_hits: Vec<usize>,
}

impl BlockOutcome<'_> {
    /// Fraction of input that was blocked (0 for empty input).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        let total = self.passed.len() + self.blocked.len();
        if total == 0 {
            0.0
        } else {
            self.blocked.len() as f64 / total as f64
        }
    }
}

/// A rule-based alert blocker.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AlertBlocker {
    rules: Vec<BlockRule>,
}

impl AlertBlocker {
    /// Creates a blocker with no rules (everything passes).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, rule: BlockRule) {
        self.rules.push(rule);
    }

    /// The configured rules.
    #[must_use]
    pub fn rules(&self) -> &[BlockRule] {
        &self.rules
    }

    /// Partitions `alerts` into passed and blocked. The first matching
    /// rule is credited with the hit.
    ///
    /// A rule that says exactly "this strategy, always" — what
    /// [`BlockRule::for_strategy`] builds and every derived rule is —
    /// is found by the alert's strategy id instead of by scanning, so
    /// an alert costs a binary search plus the conditional rules, not
    /// one test per rule.
    #[must_use]
    pub fn apply<'a>(&self, alerts: &'a [Alert]) -> BlockOutcome<'a> {
        // `(strategy, rule)` of the first unconditional rule for each
        // strategy, sorted by strategy; every rule that is not an
        // unconditional strategy rule goes to `scanned`, in rule order.
        // A later unconditional rule for an already-covered strategy
        // goes nowhere: the first one matches whenever it would.
        let mut by_strategy: Vec<(StrategyId, usize)> = Vec::with_capacity(self.rules.len());
        let mut scanned: Vec<usize> = Vec::new();
        for (ix, rule) in self.rules.iter().enumerate() {
            match (rule.criteria.as_slice(), &rule.active_window) {
                ([BlockCriterion::Strategy(id)], None) => by_strategy.push((*id, ix)),
                _ => scanned.push(ix),
            }
        }
        by_strategy.sort_unstable();
        by_strategy.dedup_by_key(|&mut (strategy, _)| strategy);

        let mut passed = Vec::new();
        let mut blocked = Vec::new();
        let mut rule_hits = vec![0usize; self.rules.len()];
        for alert in alerts {
            let unconditional = by_strategy
                .binary_search_by_key(&alert.strategy(), |&(strategy, _)| strategy)
                .ok()
                .map(|at| by_strategy[at].1);
            // Only a scanned rule listed before the unconditional one
            // can take the credit from it.
            let limit = unconditional.unwrap_or(usize::MAX);
            let first = scanned
                .iter()
                .copied()
                .take_while(|&ix| ix < limit)
                .find(|&ix| self.rules[ix].blocks(alert))
                .or(unconditional);
            match first {
                Some(ix) => {
                    rule_hits[ix] += 1;
                    blocked.push(alert);
                }
                None => passed.push(alert),
            }
        }
        BlockOutcome {
            passed,
            blocked,
            rule_hits,
        }
    }
}

impl FromIterator<BlockRule> for AlertBlocker {
    fn from_iter<I: IntoIterator<Item = BlockRule>>(iter: I) -> Self {
        Self {
            rules: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{AlertId, Location, SimTime};

    fn alert(
        id: u64,
        strategy: u64,
        title: &str,
        severity: Severity,
        region: &str,
        t: u64,
    ) -> Alert {
        Alert::builder(AlertId(id), StrategyId(strategy))
            .title(title)
            .severity(severity)
            .location(Location::new(region, "dc"))
            .raised_at(SimTime::from_secs(t))
            .build()
    }

    fn sample() -> Vec<Alert> {
        vec![
            alert(
                0,
                1,
                "haproxy process number warning",
                Severity::Warning,
                "r1",
                100,
            ),
            alert(
                1,
                2,
                "disk full on storage node",
                Severity::Critical,
                "r1",
                200,
            ),
            alert(
                2,
                1,
                "haproxy process number warning",
                Severity::Warning,
                "r2",
                300,
            ),
            alert(3, 3, "latency over threshold", Severity::Major, "r2", 400),
        ]
    }

    #[test]
    fn empty_blocker_passes_everything() {
        let alerts = sample();
        let outcome = AlertBlocker::new().apply(&alerts);
        assert_eq!(outcome.passed.len(), 4);
        assert!(outcome.blocked.is_empty());
        assert_eq!(outcome.reduction(), 0.0);
    }

    #[test]
    fn partition_is_exact() {
        let alerts = sample();
        let blocker: AlertBlocker = [BlockRule::for_strategy("mute haproxy", StrategyId(1))]
            .into_iter()
            .collect();
        let outcome = blocker.apply(&alerts);
        assert_eq!(outcome.passed.len() + outcome.blocked.len(), alerts.len());
        assert_eq!(outcome.blocked.len(), 2);
        assert_eq!(outcome.rule_hits, vec![2]);
        assert!((outcome.reduction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn title_criterion_is_case_insensitive() {
        let alerts = sample();
        let blocker: AlertBlocker = [BlockRule {
            name: "mute haproxy".into(),
            criteria: vec![BlockCriterion::TitleContains("HAPROXY".into())],
            active_window: None,
        }]
        .into_iter()
        .collect();
        assert_eq!(blocker.apply(&alerts).blocked.len(), 2);
    }

    #[test]
    fn severity_ceiling_spares_high_severities() {
        let alerts = sample();
        let blocker: AlertBlocker = [BlockRule {
            name: "mute low severities".into(),
            criteria: vec![BlockCriterion::SeverityAtMost(Severity::Minor)],
            active_window: None,
        }]
        .into_iter()
        .collect();
        let outcome = blocker.apply(&alerts);
        assert_eq!(outcome.blocked.len(), 2); // the two warnings
        assert!(outcome
            .passed
            .iter()
            .all(|a| a.severity() >= Severity::Major));
    }

    #[test]
    fn criteria_are_conjunctive() {
        let alerts = sample();
        let blocker: AlertBlocker = [BlockRule {
            name: "haproxy only in r1".into(),
            criteria: vec![
                BlockCriterion::Strategy(StrategyId(1)),
                BlockCriterion::Region(RegionId::new("r1")),
            ],
            active_window: None,
        }]
        .into_iter()
        .collect();
        let outcome = blocker.apply(&alerts);
        assert_eq!(outcome.blocked.len(), 1);
        assert_eq!(outcome.blocked[0].id(), AlertId(0));
    }

    #[test]
    fn window_limits_applicability() {
        let alerts = sample();
        let rule = BlockRule::for_strategy("temp mute", StrategyId(1)).within(TimeRange::new(
            SimTime::from_secs(0),
            SimTime::from_secs(150),
        ));
        let blocker: AlertBlocker = [rule].into_iter().collect();
        let outcome = blocker.apply(&alerts);
        assert_eq!(outcome.blocked.len(), 1); // only the t=100 haproxy alert
    }

    #[test]
    fn empty_conjunction_matches_nothing() {
        let alerts = sample();
        let blocker: AlertBlocker = [BlockRule {
            name: "vacuous".into(),
            criteria: Vec::new(),
            active_window: None,
        }]
        .into_iter()
        .collect();
        assert!(blocker.apply(&alerts).blocked.is_empty());
    }

    #[test]
    fn first_matching_rule_gets_credit() {
        let alerts = sample();
        let blocker: AlertBlocker = [
            BlockRule::for_strategy("first", StrategyId(1)),
            BlockRule {
                name: "second".into(),
                criteria: vec![BlockCriterion::SeverityAtMost(Severity::Warning)],
                active_window: None,
            },
        ]
        .into_iter()
        .collect();
        let outcome = blocker.apply(&alerts);
        assert_eq!(outcome.rule_hits, vec![2, 0]);
    }

    #[test]
    fn idempotent_refilter() {
        let alerts = sample();
        let blocker: AlertBlocker = [BlockRule::for_strategy("mute", StrategyId(1))]
            .into_iter()
            .collect();
        let once = blocker.apply(&alerts);
        let passed_owned: Vec<Alert> = once.passed.iter().map(|&a| a.clone()).collect();
        let twice = blocker.apply(&passed_owned);
        assert!(twice.blocked.is_empty());
        assert_eq!(twice.passed.len(), once.passed.len());
    }
}
