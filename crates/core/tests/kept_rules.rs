//! A streaming governor keeps its flags and its R1 blocking rules
//! across windows and moves them by what changed: the engine's flag
//! transitions, QoA verdict pushes, and rollbacks. This suite holds
//! that kept state equal to a full derivation — a batch report over
//! the same scope, and `derive_blocker` of that report — after every
//! step.

use std::collections::{BTreeSet, VecDeque};

use alertops_core::{AlertGovernor, GovernorConfig, StreamingConfig, StreamingGovernor};
use alertops_detect::AntiPattern;
use alertops_model::{Alert, AlertId, StrategyId};
use alertops_qoa::QoaVerdicts;

/// Asserts that what `s` keeps across windows equals a full derivation
/// over `scope`, the windows its engine holds: its flags are those of a
/// batch report over the scope (none before the first window is
/// announced), and its blocker passes and blocks exactly the alerts of
/// `trace` that `derive_blocker` of that report does. Returns the
/// report's A4/A5 strategies.
fn assert_derivable(
    s: &StreamingGovernor,
    scope: &VecDeque<&[Alert]>,
    trace: &[Alert],
    step: &str,
) -> Vec<StrategyId> {
    let flat: Vec<Alert> = scope.iter().flat_map(|w| w.iter().cloned()).collect();
    let report = s.governor().detect(&flat, &[]);
    let announced: BTreeSet<(AntiPattern, StrategyId)> = if s.windows_ingested() == 0 {
        BTreeSet::new()
    } else {
        report
            .findings
            .iter()
            .flat_map(|(&pattern, found)| found.iter().map(move |f| (pattern, f.strategy)))
            .collect()
    };
    let kept: BTreeSet<(AntiPattern, StrategyId)> = s.flags().collect();
    assert_eq!(kept, announced, "flags diverged {step}");
    let ids = |side: &[&Alert]| side.iter().map(|a| a.id()).collect::<Vec<AlertId>>();
    let kept = s.blocker().apply(trace);
    let derived = s.governor().derive_blocker(&report).apply(trace);
    assert_eq!(
        ids(&kept.passed),
        ids(&derived.passed),
        "passed diverged {step}"
    );
    assert_eq!(
        ids(&kept.blocked),
        ids(&derived.blocked),
        "blocked diverged {step}"
    );
    let noisy: BTreeSet<StrategyId> = [AntiPattern::TransientToggling, AntiPattern::Repeating]
        .into_iter()
        .flat_map(|pattern| report.flagged(pattern))
        .collect();
    noisy.into_iter().collect()
}

/// The flags and R1 rules a streaming governor keeps equal a full
/// derivation after every step of a seeded trace: uncommitted ingests
/// rolled back (the first before any commit), and QoA verdict pushes
/// that demote, un-demote, promote and revoke, at window boundaries
/// and between an uncommitted ingest and its rollback.
#[test]
fn kept_flags_and_rules_equal_a_full_derivation() {
    let history = 6;
    for seed in [7, 2022] {
        let out = alertops_sim::scenarios::quickstart(seed).run();
        let mut trace = out.alerts.clone();
        trace.sort_by_key(|a| (a.raised_at(), a.id()));
        let windows: Vec<&[Alert]> = trace.chunks(50).collect();
        let catalog: Vec<StrategyId> = out.catalog.strategies().iter().map(|s| s.id()).collect();
        // One run starts from verdicts installed before the governor
        // was wrapped.
        let mut governor =
            AlertGovernor::new(out.catalog.strategies().to_vec(), GovernorConfig::default());
        if seed == 2022 {
            governor.set_qoa_verdicts(QoaVerdicts {
                demoted: vec![catalog[0]],
                promoted: Vec::new(),
            });
        }
        let mut s = StreamingGovernor::new(
            governor,
            StreamingConfig {
                history_windows: history,
                ..StreamingConfig::default()
            },
        );
        let slide = |scope: &mut VecDeque<&[Alert]>| {
            while scope.len() > history {
                scope.pop_front();
            }
        };
        // The engine's committed scope, and the A4/A5 strategies over it.
        let mut scope: VecDeque<&[Alert]> = VecDeque::new();
        let mut noisy = assert_derivable(&s, &scope, &trace, "at construction");
        let mut promotions = 0;
        for (i, &window) in windows.iter().enumerate() {
            // Every second window a push over the noisy strategies seen
            // last, cycling through promote + demote, un-demote +
            // revoke + promote another, and revoke everything.
            let push = (i % 2 == 0 && i > 0).then(|| {
                let quiet = catalog.iter().copied().find(|id| !noisy.contains(id));
                let pick = |k: usize| noisy.get(k).copied();
                let list = |ids: &[Option<StrategyId>]| {
                    let mut ids: Vec<StrategyId> = ids.iter().flatten().copied().collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids
                };
                match i / 2 % 3 {
                    1 => QoaVerdicts {
                        demoted: list(&[quiet, pick(1)]),
                        promoted: list(&[pick(0)]),
                    },
                    2 => QoaVerdicts {
                        demoted: list(&[quiet]),
                        promoted: list(&[pick(1)]),
                    },
                    _ => QoaVerdicts::default(),
                }
            });
            if push.as_ref().is_some_and(|v| !v.promoted.is_empty()) {
                promotions += 1;
            }

            // A decoy close, rolled back: at window 0 before any
            // commit, and on every fourth window with the push between
            // the ingest and the rollback.
            let decoy = windows[(i + 5) % windows.len()];
            s.ingest_uncommitted(decoy, &[]);
            let mut decoy_scope = scope.clone();
            decoy_scope.push_back(decoy);
            slide(&mut decoy_scope);
            assert_derivable(&s, &decoy_scope, &trace, &format!("after decoy {i}"));
            let mid_decoy = i % 4 == 0;
            if let Some(verdicts) = push.clone().filter(|_| mid_decoy) {
                s.set_qoa_verdicts(verdicts);
                assert_derivable(&s, &decoy_scope, &trace, &format!("mid-decoy {i}"));
            }
            s.rollback();
            assert_derivable(&s, &scope, &trace, &format!("after rollback {i}"));
            if let Some(verdicts) = push.filter(|_| !mid_decoy) {
                s.set_qoa_verdicts(verdicts);
                assert_derivable(&s, &scope, &trace, &format!("after push {i}"));
            }

            s.ingest_uncommitted(window, &[]);
            scope.push_back(window);
            slide(&mut scope);
            noisy = assert_derivable(&s, &scope, &trace, &format!("after window {i}"));
            s.commit();
        }
        assert!(
            promotions >= 2,
            "seed {seed}: the trace must flag A4/A5 for a promotion to matter"
        );
    }
}
