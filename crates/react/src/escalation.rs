//! Incident escalation proposals from correlated alert clusters.
//!
//! "A severe enough alert (or a group of related alerts) can escalate to
//! an incident" (§I, Table I). The paper's related work (Li et al.,
//! ATC'21) generates incidents from alerts automatically; this module
//! implements that step on top of R3's output: a correlated cluster
//! whose evidence is severe enough becomes an [`IncidentProposal`] for
//! the incident-management system.

use serde::{Deserialize, Serialize};

use alertops_model::{Alert, AlertId, Severity, SimTime};

use crate::correlation::CorrelatedCluster;

/// A cluster with at least this many alerts escalates regardless of
/// severity (volume alone marks a broad failure).
const MIN_CLUSTER_SIZE: usize = 5;

/// A cluster containing an alert at or above this severity escalates
/// regardless of size.
const SEVERITY_FLOOR: Severity = Severity::Critical;

/// A proposed incident, ready for the incident-management system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncidentProposal {
    /// The cluster's source alert — the proposed root cause.
    pub source: AlertId,
    /// Severity for the incident: the maximum across the cluster.
    pub severity: Severity,
    /// Display names of the services touched by the cluster, sorted and
    /// deduplicated (alerts carry the service name the OCE sees).
    pub services: Vec<String>,
    /// When the earliest alert of the cluster fired.
    pub started_at: SimTime,
    /// Every alert of the cluster (source first).
    pub alerts: Vec<AlertId>,
    /// Why the cluster escalated.
    pub reason: EscalationReason,
}

/// What pushed a cluster over the escalation bar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum EscalationReason {
    /// The cluster contained an alert at/above the severity floor.
    SevereAlert,
    /// The cluster's sheer size crossed the volume threshold.
    ClusterVolume,
    /// Both conditions held.
    Both,
}

/// Evaluates correlated clusters against the escalation thresholds.
///
/// `alerts` must contain every alert referenced by the clusters (as
/// produced by [`AlertCorrelator::correlate`](crate::AlertCorrelator));
/// unknown ids are skipped defensively. Proposals come back ordered by
/// start time.
#[must_use]
pub fn propose_incidents(
    clusters: &[CorrelatedCluster],
    alerts: &[Alert],
) -> Vec<IncidentProposal> {
    let by_id: std::collections::HashMap<AlertId, &Alert> =
        alerts.iter().map(|a| (a.id(), a)).collect();
    let lookup = |id: AlertId| by_id.get(&id).copied();
    let mut proposals = Vec::new();
    for cluster in clusters {
        let members: Vec<&Alert> = std::iter::once(cluster.source)
            .chain(cluster.derived.iter().copied())
            .filter_map(lookup)
            .collect();
        let Some((first, rest)) = members.split_first() else {
            continue;
        };
        let severe = members.iter().any(|a| a.severity() >= SEVERITY_FLOOR);
        let voluminous = members.len() >= MIN_CLUSTER_SIZE;
        let reason = match (severe, voluminous) {
            (true, true) => EscalationReason::Both,
            (true, false) => EscalationReason::SevereAlert,
            (false, true) => EscalationReason::ClusterVolume,
            (false, false) => continue,
        };
        let mut services: Vec<String> = members
            .iter()
            .map(|a| a.service_name().to_owned())
            .collect();
        services.sort_unstable();
        services.dedup();
        proposals.push(IncidentProposal {
            source: cluster.source,
            severity: rest
                .iter()
                .map(|a| a.severity())
                .fold(first.severity(), Ord::max),
            services,
            started_at: rest
                .iter()
                .map(|a| a.raised_at())
                .fold(first.raised_at(), Ord::min),
            alerts: members.iter().map(|a| a.id()).collect(),
            reason,
        });
    }
    proposals.sort_by_key(|p| (p.started_at, p.source));
    proposals
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{SimTime, StrategyId};

    fn alert(id: u64, severity: Severity, t: u64) -> Alert {
        Alert::builder(AlertId(id), StrategyId(0))
            .severity(severity)
            .service(format!("svc-{}", id % 3))
            .raised_at(SimTime::from_secs(t))
            .build()
    }

    fn cluster(source: u64, derived: &[u64]) -> CorrelatedCluster {
        CorrelatedCluster {
            source: AlertId(source),
            derived: derived.iter().map(|&d| AlertId(d)).collect(),
        }
    }

    #[test]
    fn severe_singleton_escalates() {
        let alerts = vec![alert(0, Severity::Critical, 100)];
        let proposals = propose_incidents(&[cluster(0, &[])], &alerts);
        assert_eq!(proposals.len(), 1);
        assert_eq!(proposals[0].reason, EscalationReason::SevereAlert);
        assert_eq!(proposals[0].severity, Severity::Critical);
        assert_eq!(proposals[0].started_at, SimTime::from_secs(100));
    }

    #[test]
    fn large_mild_cluster_escalates_on_volume() {
        let alerts: Vec<Alert> = (0..6).map(|i| alert(i, Severity::Minor, 100 + i)).collect();
        let proposals = propose_incidents(&[cluster(0, &[1, 2, 3, 4, 5])], &alerts);
        assert_eq!(proposals.len(), 1);
        assert_eq!(proposals[0].reason, EscalationReason::ClusterVolume);
        assert_eq!(proposals[0].alerts.len(), 6);
        assert_eq!(proposals[0].services, vec!["svc-0", "svc-1", "svc-2"]);
    }

    #[test]
    fn small_mild_cluster_does_not_escalate() {
        let alerts: Vec<Alert> = (0..3).map(|i| alert(i, Severity::Minor, 100)).collect();
        let proposals = propose_incidents(&[cluster(0, &[1, 2])], &alerts);
        assert!(proposals.is_empty());
    }

    #[test]
    fn both_reason_when_severe_and_large() {
        let mut alerts: Vec<Alert> = (0..5).map(|i| alert(i, Severity::Minor, 100)).collect();
        alerts.push(alert(5, Severity::Critical, 105));
        let proposals = propose_incidents(&[cluster(0, &[1, 2, 3, 4, 5])], &alerts);
        assert_eq!(proposals[0].reason, EscalationReason::Both);
    }

    #[test]
    fn unknown_ids_are_skipped_defensively() {
        let alerts = vec![alert(0, Severity::Critical, 100)];
        let proposals = propose_incidents(&[cluster(0, &[99, 100])], &alerts);
        assert_eq!(proposals.len(), 1);
        assert_eq!(proposals[0].alerts, vec![AlertId(0)]);
    }

    #[test]
    fn proposals_sorted_by_start() {
        let alerts = vec![
            alert(0, Severity::Critical, 500),
            alert(1, Severity::Critical, 100),
        ];
        let proposals = propose_incidents(&[cluster(0, &[]), cluster(1, &[])], &alerts);
        assert_eq!(proposals[0].source, AlertId(1));
        assert_eq!(proposals[1].source, AlertId(0));
    }
}
