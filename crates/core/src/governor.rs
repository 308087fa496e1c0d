//! The alert governor: detect → derive reactions → react → evaluate.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use alertops_detect::{AntiPattern, AntiPatternReport, FlagTransitions, IncrementalState};
use alertops_model::{
    Alert, AlertStrategy, DependencyGraph, Incident, IndexedCatalog, Sop, StrategyId,
};
use alertops_qoa::{QoaScorer, QoaVerdicts};
use alertops_react::blocking::{AlertBlocker, BlockRule};
use alertops_react::correlation::AlertCorrelator;
use alertops_react::ReactionPipeline;

use crate::guidelines::{GuidelineContext, GuidelineLinter};
use crate::metrics::GovernorMetrics;
use crate::reports::GovernanceReport;

/// Configuration for [`AlertGovernor`]. The reaction pipeline takes
/// none: R2 always groups by strategy over 30 minutes.
#[derive(Debug, Clone, Default)]
pub struct GovernorConfig {
    /// Context for the preventative-guideline linter.
    pub guideline_context: GuidelineContext,
}

/// The unified governance engine over one strategy catalog.
///
/// See the [crate-level example](crate) for basic usage; the typical
/// production loop is:
///
/// 1. [`lint`](Self::lint) new/changed strategies before rollout (Avoid);
/// 2. periodically [`govern`](Self::govern) the recent alert history —
///    anti-patterns are detected, blocking rules derived from the A4/A5
///    findings, the reaction pipeline evaluated, and strategies ranked
///    by QoA (React + Detect);
/// 3. fix the worst strategies and repeat.
#[derive(Debug, Clone)]
pub struct AlertGovernor {
    /// Shared with the detection engine of a streaming governor over
    /// this one: the catalog is held once.
    strategies: Arc<IndexedCatalog>,
    sops: HashMap<StrategyId, Sop>,
    graph: Option<Arc<DependencyGraph>>,
    config: GovernorConfig,
    metrics: Option<GovernorMetrics>,
    /// The streaming QoA loop's current per-strategy verdicts; empty
    /// until feedback arrives. Both lists are sorted by strategy id.
    qoa_verdicts: QoaVerdicts,
}

impl AlertGovernor {
    /// Creates a governor over a strategy catalog.
    #[must_use]
    pub fn new(strategies: Vec<AlertStrategy>, config: GovernorConfig) -> Self {
        Self {
            strategies: Arc::new(IndexedCatalog::new(strategies)),
            sops: HashMap::new(),
            graph: None,
            config,
            metrics: None,
            qoa_verdicts: QoaVerdicts::default(),
        }
    }

    /// Attaches metric handles (detector wall time, reaction-stage
    /// timings, streaming-ingest latency). Metrics are observer-only:
    /// every report the governor produces is identical with or without
    /// them.
    #[must_use]
    pub fn with_metrics(mut self, metrics: GovernorMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// In-place variant of [`with_metrics`](Self::with_metrics), for
    /// instrumenting a governor already wrapped in a larger structure.
    pub fn set_metrics(&mut self, metrics: GovernorMetrics) {
        self.metrics = Some(metrics);
    }

    /// The attached metric handles, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&GovernorMetrics> {
        self.metrics.as_ref()
    }

    /// Registers SOPs (keyed by their strategy).
    #[must_use]
    pub fn with_sops(mut self, sops: impl IntoIterator<Item = Sop>) -> Self {
        for sop in sops {
            self.sops.insert(sop.strategy(), sop);
        }
        self
    }

    /// Attaches the microservice dependency graph: batch
    /// [`detect`](Self::detect) reports A6 cascade groups with it, and
    /// [`react`](Self::react) correlates by topology (R3). A
    /// [`StreamingGovernor`](crate::StreamingGovernor) over this
    /// governor uses it for neither: whoever closes its windows
    /// correlates by it ([`GovernanceSnapshot::fill_triage`]).
    ///
    /// [`GovernanceSnapshot::fill_triage`]: crate::GovernanceSnapshot::fill_triage
    #[must_use]
    pub fn with_dependency_graph(mut self, graph: impl Into<Arc<DependencyGraph>>) -> Self {
        self.graph = Some(graph.into());
        self
    }

    /// The governed strategies.
    #[must_use]
    pub fn strategies(&self) -> &[AlertStrategy] {
        self.strategies.rows()
    }

    /// The governed catalog, as the detection engine borrows it.
    #[must_use]
    pub fn catalog(&self) -> &Arc<IndexedCatalog> {
        &self.strategies
    }

    /// The governed strategy with the given id, if any (the first, on
    /// a duplicate id).
    #[must_use]
    pub fn strategy(&self, id: StrategyId) -> Option<&AlertStrategy> {
        self.strategies.get(id)
    }

    /// The attached microservice dependency graph, if any.
    #[must_use]
    pub fn dependency_graph(&self) -> Option<&DependencyGraph> {
        self.graph.as_deref()
    }

    /// Detaches the graph, for a shard whose merge point correlates.
    pub(crate) fn take_dependency_graph(&mut self) -> Option<Arc<DependencyGraph>> {
        self.graph.take()
    }

    /// The SOP of one strategy, if registered.
    #[must_use]
    pub fn sop(&self, id: StrategyId) -> Option<&Sop> {
        self.sops.get(&id)
    }

    /// The streaming QoA loop's current verdicts.
    #[must_use]
    pub fn qoa_verdicts(&self) -> &QoaVerdicts {
        &self.qoa_verdicts
    }

    /// Installs the verdicts the QoA loop derived at the previous
    /// window boundary. [`derive_blocker`](Self::derive_blocker) then
    /// blocks demoted strategies and spares promoted ones — the
    /// "scores drive governance" half of the feedback loop.
    pub fn set_qoa_verdicts(&mut self, verdicts: QoaVerdicts) {
        self.qoa_verdicts = verdicts;
    }

    /// Stage 1 (Avoid): lints every strategy against the preventative
    /// guidelines.
    #[must_use]
    pub fn lint(&self) -> Vec<crate::GuidelineViolation> {
        GuidelineLinter::new().lint_catalog(
            self.strategies()
                .iter()
                .map(|s| (s, self.sops.get(&s.id()))),
            &self.config.guideline_context,
        )
    }

    /// Stage 3 (Detect): runs the six anti-pattern detectors over the
    /// history.
    ///
    /// Implemented as "feed one window, never evict" over the same
    /// [`IncrementalState`] engine that powers the streaming governor,
    /// so batch and streaming detection share exactly one code path.
    #[must_use]
    pub fn detect(&self, alerts: &[Alert], incidents: &[Incident]) -> AntiPatternReport {
        let metrics = self.metrics.as_ref().map(|m| &m.detect);
        let mut engine = IncrementalState::default();
        engine.observe_window(alerts, self.graph.as_deref(), metrics);
        engine.report(&self.strategies, incidents, self.graph.as_deref(), metrics)
    }

    /// Derives R1 blocking rules from transient/toggling (A4) and
    /// repeating (A5) findings — the paper's reaction to noise — and
    /// auto-tunes them with the QoA verdicts: strategies the feedback
    /// loop *promoted* (consistently high quality) are spared the
    /// A4/A5 rules, and strategies it *demoted* (consistently low
    /// quality) are blocked outright even without a finding. One rule
    /// per A4 finding, then per A5 finding, then per demotion, in that
    /// order: R1's rule set folded over the whole report.
    #[must_use]
    pub fn derive_blocker(&self, report: &AntiPatternReport) -> AlertBlocker {
        let mut rules = BlockingRules::default();
        for pattern in NOISE {
            for finding in report.findings.get(&pattern).into_iter().flatten() {
                rules.set_flag(pattern, finding.strategy, true, &self.qoa_verdicts);
            }
        }
        for &strategy in &self.qoa_verdicts.demoted {
            rules.set_demoted(strategy, true);
        }
        rules.blocker
    }

    /// Stage 2 (React): runs the reaction pipeline with the given
    /// blocker, owned or borrowed — a streaming governor lends the R1
    /// rules it keeps across windows.
    #[must_use]
    pub fn react(
        &self,
        alerts: &[Alert],
        blocker: impl Borrow<AlertBlocker>,
    ) -> alertops_react::PipelineReport {
        self.pipeline().run(alerts, blocker.borrow())
    }

    /// The reaction pipeline [`react`](Self::react) runs: R3 over the
    /// graph, and the metric handles. A streaming governor runs its R1
    /// and R2 alone.
    pub(crate) fn pipeline(&self) -> ReactionPipeline {
        let mut correlator = AlertCorrelator::new();
        if let Some(graph) = &self.graph {
            correlator = correlator.with_topology(Arc::clone(graph));
        }
        let pipeline = ReactionPipeline::new().with_correlator(correlator);
        match &self.metrics {
            Some(metrics) => pipeline.with_metrics(metrics.react.clone()),
            None => pipeline,
        }
    }

    /// Evidence-based QoA scores for every strategy, worst overall
    /// first.
    #[must_use]
    pub fn qoa(&self, alerts: &[Alert], incidents: &[Incident]) -> Vec<alertops_qoa::QoaReport> {
        let mut by_strategy: HashMap<StrategyId, Vec<&Alert>> = HashMap::new();
        for alert in alerts {
            by_strategy.entry(alert.strategy()).or_default().push(alert);
        }
        let scorer = QoaScorer::new();
        let mut reports: Vec<alertops_qoa::QoaReport> = self
            .strategies()
            .iter()
            .map(|strategy| {
                scorer.score(
                    strategy,
                    self.sops.get(&strategy.id()),
                    by_strategy
                        .get(&strategy.id())
                        .map(Vec::as_slice)
                        .unwrap_or(&[]),
                    incidents,
                )
            })
            .collect();
        // The criteria are sums and differences of non-negative rates:
        // finite and never -0.0, so this is the `partial_cmp` order.
        reports.sort_by(|a, b| {
            a.scores
                .overall()
                .total_cmp(&b.scores.overall())
                .then(a.strategy.cmp(&b.strategy))
        });
        reports
    }

    /// The full Fig. 6 loop: lint, detect, derive blocking, react, and
    /// rank by QoA.
    #[must_use]
    pub fn govern(&self, alerts: &[Alert], incidents: &[Incident]) -> GovernanceReport {
        let violations = self.lint();
        let anti_patterns = self.detect(alerts, incidents);
        let blocker = self.derive_blocker(&anti_patterns);
        let derived_rules = blocker.rules().len();
        let pipeline = self.react(alerts, blocker);
        let qoa = self.qoa(alerts, incidents);
        GovernanceReport {
            guideline_violations: violations,
            anti_patterns,
            derived_blocking_rules: derived_rules,
            pipeline,
            qoa_worst_first: qoa,
        }
    }
}

/// The two anti-patterns R1 blocks: the paper's noise.
const NOISE: [AntiPattern; 2] = [AntiPattern::TransientToggling, AntiPattern::Repeating];

/// The cause named in a demotion rule.
const DEMOTION: &str = "qoa-demotion";

/// R1's rule set, `(A4 ∪ A5 − promoted) ∪ demoted`: a blocking rule per
/// A4 or A5 flag of a strategy the QoA loop has not promoted, and one
/// per demoted strategy. As in the paper, where on-call engineers keep
/// the rules, a rule is added when its anti-pattern is confirmed and
/// retired when it is fixed.
///
/// [`AlertGovernor::derive_blocker`] folds a whole report into a fresh
/// set. A [`StreamingGovernor`](crate::StreamingGovernor) keeps one set
/// across windows and folds in each window's flag transitions and each
/// verdict change: O(log rules) per change, nothing per unchanged rule.
/// Every update sets a flag or a verdict to a value rather than
/// toggling it, so folding in the same change twice is harmless.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockingRules {
    /// Which of [`NOISE`] flag each strategy either flags, promoted or
    /// not.
    noisy: BTreeMap<StrategyId, [bool; 2]>,
    blocker: AlertBlocker,
}

impl BlockingRules {
    /// The rules, as the blocker R1 runs.
    pub(crate) fn blocker(&self) -> &AlertBlocker {
        &self.blocker
    }

    /// Folds in one evaluation's (or rollback's) flag transitions. The
    /// rules must be current with `verdicts`.
    pub(crate) fn apply(&mut self, transitions: &FlagTransitions, verdicts: &QoaVerdicts) {
        for finding in &transitions.raised {
            self.set_flag(finding.pattern, finding.strategy, true, verdicts);
        }
        for &(pattern, strategy) in &transitions.cleared {
            self.set_flag(pattern, strategy, false, verdicts);
        }
    }

    /// Sets whether `pattern` flags `strategy`; patterns other than
    /// [`NOISE`] make no rule. The rules must be current with
    /// `verdicts`.
    fn set_flag(
        &mut self,
        pattern: AntiPattern,
        strategy: StrategyId,
        flagged: bool,
        verdicts: &QoaVerdicts,
    ) {
        let Some(slot) = NOISE.iter().position(|&noise| noise == pattern) else {
            return;
        };
        let mut flags = self.noisy.get(&strategy).copied().unwrap_or_default();
        if flags[slot] == flagged {
            return;
        }
        flags[slot] = flagged;
        if flags == [false; 2] {
            self.noisy.remove(&strategy);
        } else {
            self.noisy.insert(strategy, flags);
        }
        if !is_listed(&verdicts.promoted, strategy) {
            self.set_rule(strategy, pattern.code(), flagged);
        }
    }

    /// Sets whether the QoA loop demoted `strategy`.
    fn set_demoted(&mut self, strategy: StrategyId, demoted: bool) {
        self.set_rule(strategy, DEMOTION, demoted);
    }

    /// Moves the rules from the verdicts `old` to `new`: O(verdicts),
    /// plus O(log rules) per strategy whose verdict changed.
    pub(crate) fn set_verdicts(&mut self, old: &QoaVerdicts, new: &QoaVerdicts) {
        for strategy in listed_in_one(&old.promoted, &new.promoted) {
            let promoted = is_listed(&new.promoted, strategy);
            let flags = self.noisy.get(&strategy).copied().unwrap_or_default();
            for (pattern, flagged) in NOISE.into_iter().zip(flags) {
                if flagged {
                    self.set_rule(strategy, pattern.code(), !promoted);
                }
            }
        }
        for strategy in listed_in_one(&old.demoted, &new.demoted) {
            self.set_demoted(strategy, is_listed(&new.demoted, strategy));
        }
    }

    /// Adds or retires the rule blocking `strategy` for `cause`.
    fn set_rule(&mut self, strategy: StrategyId, cause: &str, on: bool) {
        let name = format!("{strategy} per {cause}");
        match self.blocker.strategy_rule(strategy, &name) {
            None if on => self
                .blocker
                .add_rule(BlockRule::for_strategy(name, strategy)),
            Some(ix) if !on => {
                self.blocker.remove_rule(ix);
            }
            _ => {}
        }
    }
}

/// Whether `strategy` is in the sorted verdict list `list`.
fn is_listed(list: &[StrategyId], strategy: StrategyId) -> bool {
    list.binary_search(&strategy).is_ok()
}

/// The strategies in exactly one of two sorted verdict lists.
fn listed_in_one<'a>(
    old: &'a [StrategyId],
    new: &'a [StrategyId],
) -> impl Iterator<Item = StrategyId> + 'a {
    let dropped = old.iter().filter(|&&s| !is_listed(new, s));
    let added = new.iter().filter(|&&s| !is_listed(old, s));
    dropped.chain(added).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{
        AlertId, Clearance, LogRule, MetricKind, MetricRule, Severity, SimDuration, SimTime,
        StrategyKind, ThresholdOp,
    };

    fn noisy_strategy(id: u64) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(id))
            .title_template("haproxy process number warning")
            .severity(Severity::Warning)
            .kind(StrategyKind::Metric(MetricRule {
                metric: MetricKind::CpuUtilization,
                op: ThresholdOp::Above,
                threshold: 45.0,
                consecutive_samples: 1,
            }))
            .build()
            .unwrap()
    }

    fn clean_strategy(id: u64) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(id))
            .title_template("Failed to commit changes, storage backend down")
            .severity(Severity::Critical)
            .service(alertops_model::ServiceId(5))
            .kind(StrategyKind::Log(LogRule {
                keyword: "ERROR".into(),
                min_count: 5,
                window: SimDuration::from_mins(2),
            }))
            .cooldown(SimDuration::from_mins(30))
            .notify("oce@example.com")
            .build()
            .unwrap()
    }

    /// A burst of transient alerts from the noisy strategy plus a couple
    /// of real ones.
    fn history() -> Vec<Alert> {
        let mut alerts = Vec::new();
        for i in 0..12u64 {
            let mut a = Alert::builder(AlertId(i), StrategyId(1))
                .title("haproxy process number warning")
                .raised_at(SimTime::from_secs(i * 300))
                .build();
            a.clear(SimTime::from_secs(i * 300 + 30), Clearance::Auto)
                .unwrap();
            alerts.push(a);
        }
        for i in 12..14u64 {
            alerts.push(
                Alert::builder(AlertId(i), StrategyId(2))
                    .title("Failed to commit changes, storage backend down")
                    .raised_at(SimTime::from_secs(i * 300))
                    .build(),
            );
        }
        alerts.sort_by_key(Alert::raised_at);
        alerts
    }

    /// An incident on the clean strategy's service covering its alerts,
    /// so the Critical severity is evidence-backed.
    fn incidents() -> Vec<alertops_model::Incident> {
        let mut inc = alertops_model::Incident::new(
            alertops_model::IncidentId(0),
            alertops_model::ServiceId(5),
            Severity::Critical,
            SimTime::from_secs(3_000),
        );
        inc.mitigate(SimTime::from_secs(8_000));
        vec![inc]
    }

    fn governor() -> AlertGovernor {
        AlertGovernor::new(
            vec![noisy_strategy(1), clean_strategy(2)],
            GovernorConfig::default(),
        )
    }

    #[test]
    fn detect_finds_the_noise() {
        let report = governor().detect(&history(), &[]);
        let flagged = report.flagged(AntiPattern::TransientToggling);
        assert!(flagged.contains(&StrategyId(1)));
        assert!(!flagged.contains(&StrategyId(2)));
    }

    #[test]
    fn derived_blocker_targets_flagged_strategies_only() {
        let gov = governor();
        let report = gov.detect(&history(), &[]);
        let blocker = gov.derive_blocker(&report);
        assert!(!blocker.rules().is_empty());
        let alerts = history();
        let outcome = blocker.apply(&alerts);
        assert!(outcome
            .blocked
            .iter()
            .all(|a| a.strategy() == StrategyId(1)));
        assert!(outcome.passed.iter().any(|a| a.strategy() == StrategyId(2)));
    }

    #[test]
    fn qoa_verdicts_tune_the_blocker() {
        let mut gov = governor();
        let report = gov.detect(&history(), &[]);
        // Baseline: A4 blocks the noisy strategy.
        assert!(!gov.derive_blocker(&report).rules().is_empty());
        // Promotion spares it despite the finding.
        gov.set_qoa_verdicts(QoaVerdicts {
            demoted: Vec::new(),
            promoted: vec![StrategyId(1)],
        });
        assert!(gov.derive_blocker(&report).rules().is_empty());
        // Demotion blocks the clean strategy even without a finding.
        gov.set_qoa_verdicts(QoaVerdicts {
            demoted: vec![StrategyId(2)],
            promoted: Vec::new(),
        });
        let blocker = gov.derive_blocker(&report);
        let alerts = history();
        let outcome = blocker.apply(&alerts);
        assert!(outcome
            .blocked
            .iter()
            .any(|a| a.strategy() == StrategyId(2)));
    }

    #[test]
    fn govern_runs_the_full_loop() {
        let report = governor().govern(&history(), &incidents());
        assert!(report.anti_patterns.finding_count() >= 1);
        assert!(report.derived_blocking_rules >= 1);
        assert!(report.pipeline.reduction > 0.5);
        assert_eq!(report.qoa_worst_first.len(), 2);
        // The noisy strategy ranks worse than the clean one.
        assert_eq!(report.qoa_worst_first[0].strategy, StrategyId(1));
        // The noisy strategy also violates guidelines (single-sample
        // metric, no cooldown, no notify target, no SOP).
        assert!(report
            .guideline_violations
            .iter()
            .any(|v| v.strategy == StrategyId(1)));
        let text = report.to_string();
        assert!(text.contains("Governance report"));
    }

    #[test]
    fn qoa_ranking_is_ascending_overall() {
        let reports = governor().qoa(&history(), &incidents());
        for w in reports.windows(2) {
            assert!(w[0].scores.overall() <= w[1].scores.overall());
        }
    }

    #[test]
    fn sops_improve_lint_results() {
        let base = governor();
        let violations_without = base.lint().len();
        let sop = Sop::builder("clean", StrategyId(2))
            .description("d")
            .generation_rule("g")
            .potential_impact("i")
            .possible_cause("c")
            .step("s")
            .build()
            .unwrap();
        let with_sop = governor().with_sops([sop]);
        let violations_with = with_sop.lint().len();
        assert!(violations_with < violations_without);
    }
}
