//! R1 — alert blocking.
//!
//! "When OCEs find that transient alerts, toggling alerts, and repeating
//! alerts provide no information about service anomaly, they can treat
//! these alerts as noise and block them with alert blocking rules"
//! (§III-C). A [`BlockRule`] is a conjunction of criteria, optionally
//! limited to a time window (the paper notes rules must be re-examined
//! after service updates — windows make stale rules expire instead of
//! silently eating real alerts).
//!
//! An alert is blocked when some rule matches it, and the first such
//! rule takes the credit, which [`audit_blocker`](crate::audit_blocker)
//! counts; the reaction pipeline keeps only the alerts that pass.

use std::collections::BTreeSet;

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
            BlockCriterion::TitleContains(needle) => {
                contains_ignore_ascii_case(alert.title(), needle)
            }
            BlockCriterion::SeverityAtMost(max) => alert.severity() <= *max,
            BlockCriterion::Region(region) => alert.location().region() == region,
        }
    }
}

/// Whether `haystack` contains `needle`, ASCII letters compared
/// case-insensitively, without allocating. A byte window of valid UTF-8
/// that equals a valid UTF-8 needle starts on a character boundary, so
/// this is `str::contains` over both strings ASCII-lowercased.
fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    let (haystack, needle) = (haystack.as_bytes(), needle.as_bytes());
    // `windows(0)` panics, and every string contains the empty one.
    needle.is_empty()
        || haystack
            .windows(needle.len())
            .any(|window| window.eq_ignore_ascii_case(needle))
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

/// A rule-based alert blocker: an ordered rule list in which the first
/// matching rule is credited with a hit.
///
/// A rule that says exactly "this strategy, always" — what
/// [`BlockRule::for_strategy`] builds and every derived rule is — is
/// found by the alert's strategy id instead of by scanning. The blocker
/// keeps that index as rules are added and removed, so an alert costs
/// one index lookup plus the conditional rules, not one test per rule,
/// and a long-lived blocker never rebuilds it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertBlocker {
    rules: Vec<BlockRule>,
    /// `(strategy, position)` of every unconditional strategy rule.
    by_strategy: BTreeSet<(StrategyId, usize)>,
    /// Positions of every other rule.
    scanned: BTreeSet<usize>,
}

/// The strategy `rule` blocks unconditionally, if it says exactly
/// "this strategy, always".
fn unconditional_strategy(rule: &BlockRule) -> Option<StrategyId> {
    match (rule.criteria.as_slice(), &rule.active_window) {
        ([BlockCriterion::Strategy(id)], None) => Some(*id),
        _ => None,
    }
}

impl AlertBlocker {
    /// Creates a blocker with no rules (everything passes).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule after every existing one. O(log rules).
    pub fn add_rule(&mut self, rule: BlockRule) {
        self.rules.push(rule);
        self.index(self.rules.len() - 1);
    }

    /// Removes the rule at position `ix` of [`rules`](Self::rules) and
    /// returns it. The last rule moves into the freed position — so
    /// this is O(log rules), and that rule now comes earlier in the
    /// first-match order.
    ///
    /// # Panics
    ///
    /// If there is no rule at `ix`.
    pub fn remove_rule(&mut self, ix: usize) -> BlockRule {
        assert!(ix < self.rules.len(), "no blocking rule at position {ix}");
        let last = self.rules.len() - 1;
        self.unindex(ix);
        self.unindex(last);
        let rule = self.rules.swap_remove(ix);
        if ix < last {
            self.index(ix);
        }
        rule
    }

    /// The position of the unconditional rule for `strategy` named
    /// `name`, if the blocker has one.
    #[must_use]
    pub fn strategy_rule(&self, strategy: StrategyId, name: &str) -> Option<usize> {
        self.unconditional(strategy)
            .find(|&ix| self.rules[ix].name == name)
    }

    /// The configured rules.
    #[must_use]
    pub fn rules(&self) -> &[BlockRule] {
        &self.rules
    }

    fn index(&mut self, ix: usize) {
        match unconditional_strategy(&self.rules[ix]) {
            Some(strategy) => self.by_strategy.insert((strategy, ix)),
            None => self.scanned.insert(ix),
        };
    }

    fn unindex(&mut self, ix: usize) {
        match unconditional_strategy(&self.rules[ix]) {
            Some(strategy) => self.by_strategy.remove(&(strategy, ix)),
            None => self.scanned.remove(&ix),
        };
    }

    /// Positions of `strategy`'s unconditional rules, ascending.
    fn unconditional(&self, strategy: StrategyId) -> impl Iterator<Item = usize> + '_ {
        self.by_strategy
            .range((strategy, 0)..=(strategy, usize::MAX))
            .map(|&(_, ix)| ix)
    }

    /// The position of the first rule that blocks `alert`: the rule
    /// credited with the hit. The one definition of R1's credit; an
    /// alert passes when this is `None`.
    pub(crate) fn first_match(&self, alert: &Alert) -> Option<usize> {
        let unconditional = self.unconditional(alert.strategy()).next();
        // Only a scanned rule listed before the unconditional one can
        // take the credit from it.
        self.scanned
            .range(..unconditional.unwrap_or(usize::MAX))
            .copied()
            .find(|&ix| self.rules[ix].blocks(alert))
            .or(unconditional)
    }

    /// Partitions `alerts` into passed and blocked, each in input
    /// order.
    #[must_use]
    pub fn apply<'a>(&self, alerts: &'a [Alert]) -> BlockOutcome<'a> {
        let (blocked, passed) = alerts
            .iter()
            .partition(|alert| self.first_match(alert).is_some());
        BlockOutcome { passed, blocked }
    }
}

impl FromIterator<BlockRule> for AlertBlocker {
    fn from_iter<I: IntoIterator<Item = BlockRule>>(iter: I) -> Self {
        let mut blocker = Self::new();
        for rule in iter {
            blocker.add_rule(rule);
        }
        blocker
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
        // The reference scan: try every rule in order on every alert.
        let mut credit = vec![0usize; blocker.rules().len()];
        for alert in &alerts {
            if let Some(ix) = blocker.rules().iter().position(|r| r.blocks(alert)) {
                credit[ix] += 1;
            }
        }
        assert_eq!(credit, vec![2, 0]);
        let audits = crate::audit_blocker(&blocker, &alerts, &[]);
        let total_hits: Vec<usize> = audits.iter().map(|a| a.total_hits).collect();
        assert_eq!(total_hits, credit);
        let outcome = blocker.apply(&alerts);
        assert_eq!(outcome.blocked.len(), 2);
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
