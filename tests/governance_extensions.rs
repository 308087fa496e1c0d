//! Integration coverage for the governance extensions: blocking-rule
//! audits and incident escalation, driven through the umbrella API over
//! simulated data.

use alertops::core::prelude::*;
use alertops::model::indicates_incident;
use alertops::react::{audit_blocker_with, propose_incidents, review_queue};
use alertops::sim::scenarios;

#[test]
fn derived_rules_are_auditable_and_reviewable() {
    let out = scenarios::mini_study(13).run();
    let governor = AlertGovernor::new(out.catalog.strategies().to_vec(), GovernorConfig::default())
        .with_dependency_graph(out.topology.dependency_graph());
    let findings = governor.detect(&out.alerts, &out.incidents);
    let blocker = governor.derive_blocker(&findings);
    assert!(!blocker.rules().is_empty());

    let audits = audit_blocker_with(&blocker, &out.alerts, |alert| {
        out.catalog
            .strategy(alert.strategy())
            .is_some_and(|s| indicates_incident(&out.incidents, s.service(), alert.raised_at()))
    });
    assert_eq!(audits.len(), blocker.rules().len());
    // Derived rules target live noise: total hits must match what the
    // blocker actually suppresses.
    let suppressed = blocker.apply(&out.alerts).blocked.len();
    let audited: usize = audits.iter().map(|a| a.total_hits).sum();
    assert_eq!(audited, suppressed);
    // The review queue is a subset, ordered harmful-first.
    let queue = review_queue(&audits);
    for pair in queue.windows(2) {
        assert!(pair[0].suppressed_indicative >= pair[1].suppressed_indicative);
    }
}

#[test]
fn escalation_proposes_incidents_from_storm_clusters() {
    let out = scenarios::mini_study(13).run();
    let correlator = AlertCorrelator::new().with_topology(out.topology.dependency_graph());
    let clusters = correlator.correlate(&out.alerts);
    let proposals = propose_incidents(&clusters, &out.alerts);
    assert!(
        !proposals.is_empty(),
        "a study with storms should yield escalation proposals"
    );
    for proposal in &proposals {
        // Every proposal references real alerts and a real source.
        assert!(out.alerts.iter().any(|a| a.id() == proposal.source));
        assert!(proposal.alerts.contains(&proposal.source));
        assert!(!proposal.services.is_empty());
        // The severity is attained by some member.
        let max = proposal
            .alerts
            .iter()
            .filter_map(|id| out.alerts.iter().find(|a| a.id() == *id))
            .map(|a| a.severity())
            .max()
            .unwrap();
        assert_eq!(max, proposal.severity);
    }
    // Proposals must overlap the derived (ground-truth) incidents in
    // time: at least one proposal per real incident window.
    let mut matched = 0;
    for incident in &out.incidents {
        if proposals.iter().any(|p| {
            incident.covers_or_follows(p.started_at, alertops::model::SimDuration::from_mins(30))
        }) {
            matched += 1;
        }
    }
    assert!(
        matched * 2 >= out.incidents.len(),
        "only {matched}/{} incidents matched by proposals",
        out.incidents.len()
    );
}
