//! Property-based tests over the reactions: blocking partitions,
//! aggregation preserves counts, correlation partitions, and a
//! discarded emerging pass leaves no trace.

use proptest::prelude::*;

use alertops_model::{
    Alert, AlertId, DependencyGraph, Location, MicroserviceId, Severity, SimDuration, SimTime,
    StrategyId, TimeRange,
};
use alertops_obs::MetricsRegistry;
use alertops_react::blocking::{AlertBlocker, BlockCriterion, BlockRule};
use alertops_react::correlation::AlertCorrelator;
use alertops_react::{
    aggregate, audit_blocker, propose_incidents, EmergingAlertDetector, EmergingConfig,
    EmergingDoc, EmergingReport, ReactMetrics, ReactionPipeline, AGGREGATION_WINDOW,
    STALE_AFTER_DAYS,
};

fn arb_alerts(max: usize) -> impl Strategy<Value = Vec<Alert>> {
    prop::collection::vec((0u64..10, 0u64..10, 0u64..50_000, 0u8..4), 0..max).prop_map(|rows| {
        let mut alerts: Vec<Alert> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (strategy, ms, t, sev))| {
                Alert::builder(AlertId(i as u64), StrategyId(strategy))
                    .title(format!("alert of strategy {strategy}"))
                    .severity(Severity::from_rank(sev).unwrap())
                    .microservice(MicroserviceId(ms))
                    .location(Location::new("r", "dc"))
                    .raised_at(SimTime::from_secs(t))
                    .build()
            })
            .collect();
        alerts.sort_by_key(|a| (a.raised_at(), a.id()));
        alerts
    })
}

fn arb_rules() -> impl Strategy<Value = Vec<BlockRule>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..10).prop_map(|s| BlockRule::for_strategy("mute", StrategyId(s))),
            (0u8..4).prop_map(|r| BlockRule {
                name: "sev".into(),
                criteria: vec![BlockCriterion::SeverityAtMost(
                    Severity::from_rank(r).unwrap()
                )],
                active_window: None,
            }),
        ],
        0..6,
    )
}

/// Rule lists that mix what `AlertBlocker::apply` looks up by strategy
/// id (unconditional strategy rules — over 4 ids, so one strategy often
/// gets two) with everything it must still try in order: a strategy
/// rule `within` a window, multi-criterion, severity-only and
/// empty-criteria rules.
fn arb_mixed_rules() -> impl Strategy<Value = Vec<BlockRule>> {
    let severity = |rank: u8| BlockCriterion::SeverityAtMost(Severity::from_rank(rank).unwrap());
    // One `kind` draw picks the rule's shape; half the draws are the
    // unconditional strategy rule.
    prop::collection::vec(
        (0u8..8, 0u64..4, 0u8..4, 0u64..50_000, 0u64..30_000).prop_map(
            move |(kind, strategy, rank, start, len)| {
                let strategy = StrategyId(strategy);
                match kind {
                    0..=3 => BlockRule::for_strategy("mute", strategy),
                    4 => BlockRule::for_strategy("mute for a while", strategy).within(
                        TimeRange::new(SimTime::from_secs(start), SimTime::from_secs(start + len)),
                    ),
                    5 => BlockRule {
                        name: "strategy and severity".into(),
                        criteria: vec![BlockCriterion::Strategy(strategy), severity(rank)],
                        active_window: None,
                    },
                    6 => BlockRule {
                        name: "sev".into(),
                        criteria: vec![severity(rank / 2)],
                        active_window: None,
                    },
                    _ => BlockRule {
                        name: "vacuous".into(),
                        criteria: Vec::new(),
                        active_window: None,
                    },
                }
            },
        ),
        0..12,
    )
}

/// Each rule's credit as the audit counts it: the alerts it blocked as
/// the first matching rule.
fn total_hits(blocker: &AlertBlocker, alerts: &[Alert]) -> Vec<usize> {
    audit_blocker(blocker, alerts, &[])
        .iter()
        .map(|audit| audit.total_hits)
        .collect()
}

/// Deep sweep under `ALERTOPS_TEST_FULL=1`; a faster default keeps the
/// tier-1 wall clock flat.
fn cases(full: u32, quick: u32) -> u32 {
    if std::env::var("ALERTOPS_TEST_FULL").as_deref() == Ok("1") {
        full
    } else {
        quick
    }
}

/// Title and needle characters: ASCII letters of both cases, a space,
/// and non-ASCII letters whose Unicode lowercase differs (`É`, `İ`, the
/// Kelvin sign `K`), which an ASCII-only fold must leave alone.
const TITLE_CHARS: &str = "[aAbBkK \u{e9}\u{c9}\u{130}\u{212a}]{0,12}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256, 96)))]

    /// `TitleContains` matches exactly where the title, ASCII-lowercased,
    /// contains the needle, ASCII-lowercased: drawn needles (the empty
    /// one among them) and case-swapped slices of the title itself.
    #[test]
    fn title_contains_is_ascii_case_insensitive_substring(
        title in TITLE_CHARS,
        drawn in "[aAbBkK \u{e9}\u{c9}\u{130}\u{212a}]{0,4}",
        start in 0usize..12,
        len in 0usize..5,
        cut in any::<bool>(),
    ) {
        let needle: String = if cut {
            title
                .chars()
                .skip(start)
                .take(len)
                .map(|c| if c.is_ascii_lowercase() { c.to_ascii_uppercase() } else { c.to_ascii_lowercase() })
                .collect()
        } else {
            drawn
        };
        let alert = Alert::builder(AlertId(0), StrategyId(0)).title(title.as_str()).build();
        let expected = title.to_ascii_lowercase().contains(&needle.to_ascii_lowercase());
        prop_assert_eq!(
            BlockCriterion::TitleContains(needle.clone()).matches(&alert),
            expected,
            "title {:?}, needle {:?}",
            title,
            needle
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64, 24)))]

    #[test]
    fn blocking_partitions_the_input(alerts in arb_alerts(150), rules in arb_rules()) {
        let blocker: AlertBlocker = rules.into_iter().collect();
        let outcome = blocker.apply(&alerts);
        prop_assert_eq!(outcome.passed.len() + outcome.blocked.len(), alerts.len());
        let credited: usize = audit_blocker(&blocker, &alerts, &[]).iter().map(|a| a.total_hits).sum();
        prop_assert_eq!(credited, outcome.blocked.len());
        // Idempotent: re-filtering the passed set blocks nothing.
        let passed: Vec<Alert> = outcome.passed.iter().map(|&a| a.clone()).collect();
        prop_assert!(blocker.apply(&passed).blocked.is_empty());
    }

    #[test]
    fn blocking_partition_is_exact_on_ids(alerts in arb_alerts(150), rules in arb_rules()) {
        // DESIGN.md §7: blocked ∪ passed == input, as an *exact* id
        // partition, not just a count identity.
        let blocker: AlertBlocker = rules.into_iter().collect();
        let outcome = blocker.apply(&alerts);
        let mut ids: Vec<AlertId> = outcome
            .passed
            .iter()
            .map(|a| a.id())
            .chain(outcome.blocked.iter().map(|a| a.id()))
            .collect();
        ids.sort_unstable();
        let mut want: Vec<AlertId> = alerts.iter().map(Alert::id).collect();
        want.sort_unstable();
        prop_assert_eq!(ids, want);
    }

    #[test]
    fn blocking_equals_a_first_match_scan(alerts in arb_alerts(150), rules in arb_mixed_rules()) {
        // The reference: try every rule on every alert, in order, and
        // credit the first that blocks.
        let mut passed = Vec::new();
        let mut blocked = Vec::new();
        let mut credit = vec![0usize; rules.len()];
        for alert in &alerts {
            match rules.iter().position(|r| r.blocks(alert)) {
                Some(ix) => {
                    credit[ix] += 1;
                    blocked.push(alert.id());
                }
                None => passed.push(alert.id()),
            }
        }
        let blocker: AlertBlocker = rules.into_iter().collect();
        let outcome = blocker.apply(&alerts);
        let ids = |side: &[&Alert]| side.iter().map(|a| a.id()).collect::<Vec<AlertId>>();
        prop_assert_eq!(ids(&outcome.passed), passed);
        prop_assert_eq!(ids(&outcome.blocked), blocked);
        prop_assert_eq!(total_hits(&blocker, &alerts), credit);
    }

    #[test]
    fn blocking_after_removals_equals_a_first_match_scan(
        alerts in arb_alerts(150),
        rules in arb_mixed_rules(),
        removals in prop::collection::vec(0usize..12, 0..8),
    ) {
        // The reference: the rule list with each removal made by
        // `Vec::swap_remove`, scanned in order for the first rule that
        // blocks.
        let mut expected = rules.clone();
        let mut blocker: AlertBlocker = rules.into_iter().collect();
        for ix in removals {
            if expected.is_empty() {
                break;
            }
            let ix = ix % expected.len();
            prop_assert_eq!(blocker.remove_rule(ix), expected.swap_remove(ix));
        }
        prop_assert_eq!(blocker.rules(), expected.as_slice());
        prop_assert_eq!(&blocker, &expected.iter().cloned().collect::<AlertBlocker>());
        let mut credit = vec![0usize; expected.len()];
        let mut blocked = Vec::new();
        for alert in &alerts {
            if let Some(ix) = expected.iter().position(|r| r.blocks(alert)) {
                credit[ix] += 1;
                blocked.push(alert.id());
            }
        }
        let outcome = blocker.apply(&alerts);
        prop_assert_eq!(outcome.blocked.iter().map(|a| a.id()).collect::<Vec<_>>(), blocked);
        prop_assert_eq!(total_hits(&blocker, &alerts), credit);
        // A strategy's unconditional rule is found by its name.
        for strategy in (0..4).map(StrategyId) {
            let first = expected.iter().position(|r| {
                r.name == "mute"
                    && r.active_window.is_none()
                    && r.criteria == [BlockCriterion::Strategy(strategy)]
            });
            prop_assert_eq!(blocker.strategy_rule(strategy, "mute"), first);
        }
    }

    #[test]
    fn pipeline_with_metrics_is_observer_only(
        alerts in arb_alerts(150),
        rules in arb_rules(),
    ) {
        // The alertops-obs guarantee: attaching ReactMetrics must never
        // change the pipeline report, only record its volumes.
        let blocker: AlertBlocker = rules.into_iter().collect();
        let baseline = ReactionPipeline::new().run(&alerts, &blocker);

        let registry = MetricsRegistry::new();
        let instrumented = ReactionPipeline::new()
            .with_metrics(ReactMetrics::register(&registry))
            .run(&alerts, &blocker);
        prop_assert_eq!(&instrumented, &baseline);

        // The volume counters agree with the report's own accounting.
        let text = registry.render();
        prop_assert!(
            text.contains(&format!("alertops_react_input_total {}", alerts.len())),
            "{}",
            text
        );
        let after_blocking = instrumented
            .remaining_after("blocking")
            .expect("pipeline reports the blocking stage");
        prop_assert!(
            text.contains(&format!(
                "alertops_react_blocked_total {}",
                alerts.len() - after_blocking
            )),
            "{}",
            text
        );
        prop_assert!(alertops_obs::lint_exposition(&text).is_ok());
    }

    #[test]
    fn pipeline_triage_equals_block_aggregate_correlate(
        alerts in arb_alerts(150),
        rules in arb_mixed_rules(),
        edges in prop::collection::vec((0u64..10, 0u64..10), 0..20),
        with_topology in any::<bool>(),
    ) {
        // The reference: R1's partition, R2's rendered groups over its
        // pipeline window, an owned copy of each representative in
        // group order, then R3 over those copies.
        let blocker: AlertBlocker = rules.into_iter().collect();
        let mut correlator = AlertCorrelator::new();
        if with_topology {
            let graph: DependencyGraph = edges
                .into_iter()
                .map(|(a, b)| (MicroserviceId(a), MicroserviceId(b)))
                .collect();
            correlator = correlator.with_topology(graph);
        }
        let passed: Vec<Alert> = blocker.apply(&alerts).passed.into_iter().cloned().collect();
        let groups = aggregate(&passed, AGGREGATION_WINDOW);
        let representatives: Vec<Alert> = groups
            .iter()
            .map(|g| passed.iter().find(|a| a.id() == g.representative).unwrap().clone())
            .collect();
        let triage: Vec<AlertId> = correlator
            .correlate(&representatives)
            .iter()
            .map(|c| c.source)
            .collect();

        let report = ReactionPipeline::new().with_correlator(correlator).run(&alerts, &blocker);
        prop_assert_eq!(&report.triage, &triage);
        prop_assert_eq!(report.remaining_after("blocking"), Some(passed.len()));
        prop_assert_eq!(report.remaining_after("aggregation"), Some(groups.len()));
    }

    #[test]
    fn aggregation_preserves_every_alert_once(
        alerts in arb_alerts(150),
        window_mins in 1u64..120,
    ) {
        let groups = aggregate(&alerts, SimDuration::from_mins(window_mins));
        let total: usize = groups.iter().map(|g| g.count).sum();
        prop_assert_eq!(total, alerts.len());
        let mut seen: Vec<AlertId> = groups.iter().flat_map(|g| g.members.clone()).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), alerts.len());
        // Representative is a member, max severity is attained.
        for group in &groups {
            prop_assert!(group.members.contains(&group.representative));
            let max = group
                .members
                .iter()
                .map(|id| alerts.iter().find(|a| a.id() == *id).unwrap().severity())
                .max()
                .unwrap();
            prop_assert_eq!(max, group.max_severity);
        }
    }

    #[test]
    fn audit_accounting_is_exact(alerts in arb_alerts(150), rules in arb_rules()) {
        let blocker: AlertBlocker = rules.into_iter().collect();
        let audits = audit_blocker(&blocker, &alerts, &[]);
        prop_assert_eq!(audits.len(), blocker.rules().len());
        // Total audited hits equals what apply() actually blocks.
        let blocked = blocker.apply(&alerts).blocked.len();
        let audited: usize = audits.iter().map(|a| a.total_hits).sum();
        prop_assert_eq!(audited, blocked);
        for audit in &audits {
            // Daily histogram sums to the total.
            let daily: usize = audit.daily_hits.iter().sum();
            prop_assert_eq!(daily, audit.total_hits);
            // Staleness is consistent with the trailing window.
            if !audit.daily_hits.is_empty() {
                let window = (STALE_AFTER_DAYS as usize).min(audit.daily_hits.len());
                let tail_hits: usize = audit.daily_hits
                    [audit.daily_hits.len() - window..]
                    .iter()
                    .sum();
                prop_assert_eq!(audit.stale, tail_hits == 0);
            }
        }
    }

    #[test]
    fn escalation_proposals_keep_their_contract(
        alerts in arb_alerts(100),
        edges in prop::collection::vec((0u64..10, 0u64..10), 0..15),
    ) {
        let graph: DependencyGraph = edges
            .into_iter()
            .map(|(a, b)| (MicroserviceId(a), MicroserviceId(b)))
            .collect();
        let clusters = AlertCorrelator::new().with_topology(graph).correlate(&alerts);
        for proposal in &propose_incidents(&clusters, &alerts) {
            prop_assert!(proposal.alerts.contains(&proposal.source));
            let max = proposal
                .alerts
                .iter()
                .filter_map(|id| alerts.iter().find(|a| a.id() == *id))
                .map(|a| a.severity())
                .max()
                .unwrap();
            prop_assert_eq!(max, proposal.severity);
        }
    }

    #[test]
    fn correlation_partitions_and_sources_are_earliest(
        alerts in arb_alerts(120),
        edges in prop::collection::vec((0u64..10, 0u64..10), 0..20),
    ) {
        let graph: DependencyGraph = edges
            .into_iter()
            .map(|(a, b)| (MicroserviceId(a), MicroserviceId(b)))
            .collect();
        let correlator = AlertCorrelator::new().with_topology(graph);
        let clusters = correlator.correlate(&alerts);
        let mut all: Vec<AlertId> = clusters
            .iter()
            .flat_map(|c| std::iter::once(c.source).chain(c.derived.iter().copied()))
            .collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), alerts.len());
        // A cluster's source precedes (or ties) all its derived alerts.
        let time_of = |id: AlertId| {
            alerts.iter().find(|a| a.id() == id).unwrap().raised_at()
        };
        for cluster in &clusters {
            for d in &cluster.derived {
                prop_assert!(time_of(cluster.source) <= time_of(*d));
            }
        }
    }
}

/// The words emerging-channel documents are drawn from: the first
/// [`COMMON`] are routine, the rest turn up only where a window draws
/// past them.
const WORDS: [&str; 14] = [
    "disk",
    "usage",
    "storage",
    "node",
    "cpu",
    "high",
    "worker",
    "network",
    "quorum",
    "lease",
    "expired",
    "handshake",
    "rotation",
    "deadlock",
];
const COMMON: usize = 8;

/// One window of documents: per document, the word indices of its
/// title and the word index of its service.
type DocWindow = Vec<(Vec<usize>, usize)>;

fn arb_window(words: usize) -> impl Strategy<Value = DocWindow> {
    prop::collection::vec((prop::collection::vec(0..words, 1..5), 0..words), 0..10)
}

/// `window` as the documents of wall-clock hour `hour`, sorted by
/// alert id, with ids continuing from `next_id`.
fn hour_docs(window: &DocWindow, hour: u64, next_id: &mut u64) -> Vec<EmergingDoc> {
    window
        .iter()
        .enumerate()
        .map(|(i, (title, service))| {
            let title: Vec<&str> = title.iter().map(|&w| WORDS[w]).collect();
            let alert = Alert::builder(AlertId(*next_id), StrategyId(i as u64 % 3))
                .title(title.join(" "))
                .service(WORDS[*service])
                .raised_at(SimTime::from_secs(hour * 3_600 + i as u64 * 60))
                .build();
            *next_id += 1;
            EmergingDoc::from_alert(&alert)
        })
        .collect()
}

fn words_of(detector: &EmergingAlertDetector) -> Vec<(usize, String)> {
    detector
        .vocabulary()
        .iter()
        .map(|(id, word)| (id, word.to_owned()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48, 16)))]

    /// Preparing window A and discarding it, then observing B in its
    /// place, is observing B: the same report, the same vocabulary, and
    /// the same report for every later window as a detector that only
    /// ever saw B — though A interned words nobody had seen, and with or
    /// without a model before it.
    #[test]
    fn a_discarded_pass_leaves_no_trace(
        history in prop::collection::vec(arb_window(COMMON), 0..3),
        a in arb_window(WORDS.len()),
        novel in COMMON..WORDS.len(),
        b in arb_window(WORDS.len()),
        later in prop::collection::vec(arb_window(WORDS.len()), 0..3),
    ) {
        let config = EmergingConfig {
            num_topics: 3,
            passes_per_window: 5,
            ..EmergingConfig::default()
        };
        let mut tried = EmergingAlertDetector::new(config.clone());
        let mut clean = EmergingAlertDetector::new(config);
        let mut next_id = 0;
        let mut hour = 0;
        for window in &history {
            let docs = hour_docs(window, hour, &mut next_id);
            prop_assert_eq!(tried.observe_docs(&docs), clean.observe_docs(&docs));
            hour += 1;
        }

        let mut a = a;
        a.push((vec![novel], novel));
        let a_docs = hour_docs(&a, hour, &mut next_id);
        let pass = tried.prepare_docs(&a_docs.iter().collect::<Vec<_>>());
        prop_assert!(tried.vocabulary().len() > clean.vocabulary().len(), "A interns new words");
        tried.discard(pass);
        prop_assert_eq!(words_of(&tried), words_of(&clean));

        let b_docs = hour_docs(&b, hour, &mut next_id);
        let report: EmergingReport = tried.observe_docs(&b_docs);
        prop_assert_eq!(report, clean.observe_docs(&b_docs));
        prop_assert_eq!(words_of(&tried), words_of(&clean));
        for window in &later {
            hour += 1;
            let docs = hour_docs(window, hour, &mut next_id);
            prop_assert_eq!(tried.observe_docs(&docs), clean.observe_docs(&docs));
        }
        prop_assert_eq!(words_of(&tried), words_of(&clean));
    }
}
