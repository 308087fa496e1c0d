//! The governance decisions, pinned bit for bit on a seeded study.
//!
//! Each test folds one surface's whole output over `mini_study(2022)`,
//! its incidents and its dependency graph into an FNV-1a checksum:
//!
//! * `golden_findings` — every finding (pattern, strategy, score bits,
//!   evidence) and every cascade group, from the governor's engine and
//!   from the batch detectors;
//! * `golden_fixes` — every remediation fix;
//! * `golden_audits` — both blocking-rule audits over the derived
//!   blocker, the service-blind one and the catalog-service one;
//! * `golden_escalations` — every incident proposal over the
//!   topology-correlated clusters;
//! * `golden_qoa_scores` — the QoA criteria of every strategy;
//! * `golden_features` — the learned-QoA feature vector of every
//!   alerting strategy;
//! * `golden_feedback_labels` — the feedback oracle's labels over hourly
//!   windows.
//!
//! A moved detector, audit, escalation or remediation threshold, incident
//! lookahead or transient cutoff shows up as a checksum mismatch
//! wherever the study reaches it. Two it cannot reach: the audit's
//! staleness window is clamped to the study's four days, and every A4
//! finding here oscillates at least six times, so any oscillation
//! threshold below six reads the same. Their boundaries are pinned by
//! unit tests in `audit.rs` and `a4_transient.rs`.

use std::collections::BTreeMap;

use alertops::core::prelude::*;
use alertops::core::suggest_fixes;
use alertops::model::indicates_incident;
use alertops::qoa::extract_features;
use alertops::react::{audit_blocker, audit_blocker_with, propose_incidents, RuleAudit};
use alertops::sim::{scenarios, FeedbackOracle, SimOutput};
use alertops::text::title_report;

const HOUR: u64 = 3_600;

/// FNV-1a over the little-endian bytes of each word.
fn fold(hash: &mut u64, word: u64) {
    fold_bytes(hash, &word.to_le_bytes());
}

/// FNV-1a over raw bytes, length first so adjacent strings cannot run
/// together.
fn fold_str(hash: &mut u64, text: &str) {
    fold(hash, text.len() as u64);
    fold_bytes(hash, text.as_bytes());
}

fn fold_bytes(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn study() -> SimOutput {
    scenarios::mini_study(2022).run()
}

fn governor(out: &SimOutput) -> AlertGovernor {
    let sops: Vec<Sop> = out
        .catalog
        .strategies()
        .iter()
        .filter_map(|s| out.catalog.sop(s.id()).cloned())
        .collect();
    AlertGovernor::new(out.catalog.strategies().to_vec(), GovernorConfig::default())
        .with_sops(sops)
        .with_dependency_graph(out.topology.dependency_graph())
}

fn fold_report(hash: &mut u64, report: &AntiPatternReport) {
    for (pattern, findings) in &report.findings {
        fold_str(hash, &pattern.to_string());
        fold(hash, findings.len() as u64);
        for finding in findings {
            fold_str(hash, &finding.pattern.to_string());
            fold(hash, finding.strategy.0);
            fold(hash, finding.score.to_bits());
            fold_str(hash, &finding.evidence);
        }
    }
    fold(hash, report.cascades.len() as u64);
    for group in &report.cascades {
        fold(hash, group.root.0);
        fold(hash, group.members.len() as u64);
        for member in &group.members {
            fold(hash, member.0);
        }
        fold(hash, group.window.start().as_secs());
        fold(hash, group.window.end().as_secs());
    }
}

fn fold_audits(hash: &mut u64, audits: &[RuleAudit]) {
    fold(hash, audits.len() as u64);
    for audit in audits {
        fold_str(hash, &audit.rule);
        fold(hash, audit.total_hits as u64);
        fold(hash, audit.daily_hits.len() as u64);
        for &hits in &audit.daily_hits {
            fold(hash, hits as u64);
        }
        fold(hash, u64::from(audit.stale));
        fold(hash, audit.suppressed_indicative as u64);
    }
}

/// A checksum mismatch, printed in the form the constant is written in.
fn assert_golden(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: got {got:#018x}, pinned {want:#018x}");
}

#[test]
fn golden_findings() {
    let out = study();
    let graph = out.topology.dependency_graph();
    let engine = governor(&out).detect(&out.alerts, &out.incidents);
    let input = DetectionInput::new(out.catalog.strategies())
        .with_alerts(&out.alerts)
        .with_incidents(&out.incidents)
        .with_graph(&graph);
    let batch = AntiPatternReport::run_default(&input);

    // Every detector is exercised: each of A1–A6 has a finding on this
    // input.
    for pattern in AntiPattern::ALL {
        let found = if pattern == AntiPattern::Cascading {
            engine.cascades.len()
        } else {
            engine.findings.get(&pattern).map_or(0, Vec::len)
        };
        assert!(found > 0, "{pattern} has no finding on the study");
    }

    let mut hash = FNV_OFFSET;
    fold_report(&mut hash, &engine);
    assert_golden("engine findings", hash, 0x5a16_32c2_9d3c_5d2d);
    let mut hash = FNV_OFFSET;
    fold_report(&mut hash, &batch);
    assert_golden("batch findings", hash, 0x5a16_32c2_9d3c_5d2d);
}

#[test]
fn golden_fixes() {
    let out = study();
    let graph = out.topology.dependency_graph();
    let report = governor(&out).detect(&out.alerts, &out.incidents);
    let input = DetectionInput::new(out.catalog.strategies())
        .with_alerts(&out.alerts)
        .with_incidents(&out.incidents)
        .with_graph(&graph);
    let fixes = suggest_fixes(out.catalog.strategies(), &report, &input);
    assert!(!fixes.is_empty());
    let mut hash = FNV_OFFSET;
    fold(&mut hash, fixes.len() as u64);
    for fix in &fixes {
        fold_str(&mut hash, &format!("{fix:?}"));
    }
    assert_golden("fixes", hash, 0xe32e_e381_7448_5029);
}

#[test]
fn golden_audits() {
    let out = study();
    let governor = governor(&out);
    let blocker = governor.derive_blocker(&governor.detect(&out.alerts, &out.incidents));
    assert!(!blocker.rules().is_empty());

    let blind = audit_blocker(&blocker, &out.alerts, &out.incidents);
    let mut hash = FNV_OFFSET;
    fold_audits(&mut hash, &blind);
    assert_golden("service-blind audits", hash, 0x00ca_9a54_01b7_bb6f);

    let precise = audit_blocker_with(&blocker, &out.alerts, |alert| {
        out.catalog
            .strategy(alert.strategy())
            .is_some_and(|s| indicates_incident(&out.incidents, s.service(), alert.raised_at()))
    });
    let mut hash = FNV_OFFSET;
    fold_audits(&mut hash, &precise);
    assert_golden("catalog-service audits", hash, 0x99b3_0238_8423_fe33);
}

#[test]
fn golden_escalations() {
    let out = study();
    let clusters = AlertCorrelator::new()
        .with_topology(out.topology.dependency_graph())
        .correlate(&out.alerts);
    let proposals = propose_incidents(&clusters, &out.alerts);
    assert!(!proposals.is_empty());
    let mut hash = FNV_OFFSET;
    fold(&mut hash, proposals.len() as u64);
    for proposal in &proposals {
        fold(&mut hash, proposal.source.0);
        fold_str(&mut hash, &proposal.severity.to_string());
        fold(&mut hash, proposal.services.len() as u64);
        for service in &proposal.services {
            fold_str(&mut hash, service);
        }
        fold(&mut hash, proposal.started_at.as_secs());
        fold(&mut hash, proposal.alerts.len() as u64);
        for id in &proposal.alerts {
            fold(&mut hash, id.0);
        }
        fold_str(&mut hash, &format!("{:?}", proposal.reason));
    }
    assert_golden("escalations", hash, 0x47a3_4a5a_0014_1e7f);
}

#[test]
fn golden_qoa_scores() {
    let out = study();
    let reports = governor(&out).qoa(&out.alerts, &out.incidents);
    let mut hash = FNV_OFFSET;
    fold(&mut hash, reports.len() as u64);
    for report in &reports {
        fold(&mut hash, report.strategy.0);
        fold(&mut hash, report.scores.indicativeness.to_bits());
        fold(&mut hash, report.scores.precision.to_bits());
        fold(&mut hash, report.scores.handleability.to_bits());
        fold(&mut hash, report.alert_count as u64);
    }
    assert_golden("qoa scores", hash, 0xf34c_d90b_3791_76b8);
}

#[test]
fn golden_features() {
    let out = study();
    let mut by_strategy: BTreeMap<StrategyId, Vec<&Alert>> = BTreeMap::new();
    for alert in &out.alerts {
        by_strategy.entry(alert.strategy()).or_default().push(alert);
    }
    let mut hash = FNV_OFFSET;
    fold(&mut hash, by_strategy.len() as u64);
    for (id, alerts) in &by_strategy {
        let strategy = out.catalog.strategy(*id).expect("alerting strategy");
        let features = extract_features(
            strategy,
            title_report(strategy.title_template()).score,
            out.catalog.sop(*id),
            alerts,
            &out.incidents,
        );
        fold(&mut hash, id.0);
        for value in features {
            fold(&mut hash, value.to_bits());
        }
    }
    assert_golden("features", hash, 0x4a7b_6d35_2fee_c5aa);
}

#[test]
fn golden_feedback_labels() {
    let out = study();
    let mut alerts = out.alerts.clone();
    alerts.sort_by_key(|a| (a.raised_at(), a.id()));
    let mut windows: BTreeMap<u64, Vec<Alert>> = BTreeMap::new();
    for alert in alerts {
        windows
            .entry(alert.raised_at().as_secs() / HOUR)
            .or_default()
            .push(alert);
    }
    let oracle = FeedbackOracle::new(2022, 0.0);
    let mut hash = FNV_OFFSET;
    fold(&mut hash, windows.len() as u64);
    for (index, (hour, window)) in windows.iter().enumerate() {
        let labels = oracle.label_window(index as u64, &out.catalog, window, &out.incidents);
        fold(&mut hash, *hour);
        fold(&mut hash, labels.len() as u64);
        for label in &labels {
            fold(&mut hash, label.strategy.0);
            for verdict in label.labels {
                fold(&mut hash, u64::from(verdict));
            }
        }
    }
    assert_golden("feedback labels", hash, 0xf7c9_796b_4763_dc11);
}
