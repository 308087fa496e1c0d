//! Incidents: what alerts escalate to when not mitigated in time.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{AlertId, IncidentId, ServiceId, Severity, SimDuration, SimTime};

/// How long after an alert an incident may begin and still count as
/// indicated by it: alerts are early warnings of the impact they report.
/// The one lookahead of every indicativeness check — A2, A3, the
/// blocking-rule audits, QoA scoring and features, and the feedback
/// oracle.
pub const INCIDENT_LOOKAHEAD: SimDuration = SimDuration::from_mins(30);

/// Whether an alert raised at `t` on `service` indicates an incident: one
/// on that service was ongoing at `t`, or began within
/// [`INCIDENT_LOOKAHEAD`] after it.
#[must_use]
pub fn indicates_incident(incidents: &[Incident], service: ServiceId, t: SimTime) -> bool {
    incidents
        .iter()
        .any(|inc| inc.service() == service && inc.covers_or_follows(t, INCIDENT_LOOKAHEAD))
}

/// The lifecycle status of an incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum IncidentStatus {
    /// Ongoing interruption or degradation.
    Open,
    /// Mitigated; service restored.
    Mitigated {
        /// When mitigation completed.
        at: SimTime,
    },
}

/// Any unplanned interruption or performance degradation of a service or
/// product, which can lead to service shortages at all service levels.
///
/// A severe enough alert (or a group of related alerts) can escalate to an
/// incident. Incidents are the ground truth for the QoA *indicativeness*
/// criterion: an alert is indicative when the anomaly it reports does end
/// up affecting end users, i.e. co-occurs with an incident on its service.
///
/// # Example
///
/// ```
/// use alertops_model::{AlertId, Incident, IncidentId, ServiceId, Severity, SimTime};
///
/// let mut incident = Incident::new(
///     IncidentId(1),
///     ServiceId(3),
///     Severity::Critical,
///     SimTime::from_hours(7),
/// );
/// incident.link_alert(AlertId(10));
/// incident.mitigate(SimTime::from_hours(9));
/// assert!(!incident.is_open());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Incident {
    id: IncidentId,
    service: ServiceId,
    severity: Severity,
    started_at: SimTime,
    status: IncidentStatus,
    alerts: Vec<AlertId>,
}

impl Incident {
    /// Creates a new open incident.
    #[must_use]
    pub fn new(
        id: IncidentId,
        service: ServiceId,
        severity: Severity,
        started_at: SimTime,
    ) -> Self {
        Self {
            id,
            service,
            severity,
            started_at,
            status: IncidentStatus::Open,
            alerts: Vec::new(),
        }
    }

    /// The incident id.
    #[must_use]
    pub fn id(&self) -> IncidentId {
        self.id
    }

    /// The affected service.
    #[must_use]
    pub fn service(&self) -> ServiceId {
        self.service
    }

    /// The incident severity.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// When the interruption started.
    #[must_use]
    pub fn started_at(&self) -> SimTime {
        self.started_at
    }

    /// The current status.
    #[must_use]
    pub fn status(&self) -> IncidentStatus {
        self.status
    }

    /// Whether the incident is still open.
    #[must_use]
    pub fn is_open(&self) -> bool {
        matches!(self.status, IncidentStatus::Open)
    }

    /// Alerts that escalated to / are associated with this incident.
    #[must_use]
    pub fn alerts(&self) -> &[AlertId] {
        &self.alerts
    }

    /// Associates an alert with this incident. Duplicates are ignored.
    pub fn link_alert(&mut self, alert: AlertId) {
        if !self.alerts.contains(&alert) {
            self.alerts.push(alert);
        }
    }

    /// Marks the incident mitigated at `at` (idempotent: a later call on a
    /// mitigated incident keeps the earlier mitigation time).
    pub fn mitigate(&mut self, at: SimTime) {
        if self.is_open() {
            self.status = IncidentStatus::Mitigated {
                at: at.max(self.started_at),
            };
        }
    }

    /// Whether the incident was ongoing at `t`, or began within
    /// `lookahead` after `t` — the test for an alert at `t` being an
    /// *early warning* of this incident. Alerts legitimately precede the
    /// user-visible impact they indicate (that is their whole purpose),
    /// so indicativeness checks use this rather than [`covers`](Self::covers).
    #[must_use]
    pub fn covers_or_follows(&self, t: SimTime, lookahead: SimDuration) -> bool {
        if self.covers(t) {
            return true;
        }
        self.started_at >= t && self.started_at.duration_since(t) <= lookahead
    }

    /// Whether the incident was ongoing at `t`.
    #[must_use]
    pub fn covers(&self, t: SimTime) -> bool {
        if t < self.started_at {
            return false;
        }
        match self.status {
            IncidentStatus::Open => true,
            IncidentStatus::Mitigated { at } => t < at,
        }
    }
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} started {} ({} linked alerts, {})",
            self.id,
            self.severity.label(),
            self.service,
            self.started_at,
            self.alerts.len(),
            if self.is_open() { "open" } else { "mitigated" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn incident() -> Incident {
        Incident::new(
            IncidentId(1),
            ServiceId(2),
            Severity::Major,
            SimTime::from_hours(1),
        )
    }

    #[test]
    fn new_incident_is_open() {
        let inc = incident();
        assert!(inc.is_open());
        assert_eq!(inc.status(), IncidentStatus::Open);
        assert!(inc.alerts().is_empty());
    }

    #[test]
    fn link_alert_dedups() {
        let mut inc = incident();
        inc.link_alert(AlertId(5));
        inc.link_alert(AlertId(5));
        inc.link_alert(AlertId(6));
        assert_eq!(inc.alerts(), &[AlertId(5), AlertId(6)]);
    }

    #[test]
    fn mitigate_is_idempotent() {
        let mut inc = incident();
        inc.mitigate(SimTime::from_hours(2));
        inc.mitigate(SimTime::from_hours(5));
        assert_eq!(
            inc.status(),
            IncidentStatus::Mitigated {
                at: SimTime::from_hours(2)
            }
        );
    }

    #[test]
    fn mitigate_clamps_to_start() {
        let mut inc = incident();
        inc.mitigate(SimTime::from_secs(0));
        assert_eq!(
            inc.status(),
            IncidentStatus::Mitigated {
                at: SimTime::from_hours(1)
            }
        );
    }

    #[test]
    fn covers_or_follows_adds_lookahead() {
        let inc = incident(); // starts at hour 1
        let lookahead = SimDuration::from_mins(30);
        // 20 minutes before the incident: early warning.
        let early = SimTime::from_secs(3_600 - 20 * 60);
        assert!(!inc.covers(early));
        assert!(inc.covers_or_follows(early, lookahead));
        // 2 hours before: too early to be a warning.
        assert!(!inc.covers_or_follows(SimTime::from_secs(0), lookahead));
        // During the incident: still covered.
        assert!(inc.covers_or_follows(SimTime::from_hours(2), lookahead));
    }

    #[test]
    fn indicates_incident_on_the_alerts_service_within_the_lookahead() {
        let t = SimTime::from_hours(5);
        let starting = |offset: u64| {
            Incident::new(
                IncidentId(1),
                ServiceId(2),
                Severity::Major,
                t.saturating_add(SimDuration::from_secs(offset)),
            )
        };
        // Ongoing at `t`: started an hour before it, still open.
        let ongoing = Incident::new(
            IncidentId(1),
            ServiceId(2),
            Severity::Major,
            SimTime::from_hours(4),
        );
        assert!(indicates_incident(
            std::slice::from_ref(&ongoing),
            ServiceId(2),
            t
        ));
        // Starting exactly INCIDENT_LOOKAHEAD after `t` counts; one second
        // later does not.
        let edge = INCIDENT_LOOKAHEAD.as_secs();
        assert!(indicates_incident(&[starting(edge)], ServiceId(2), t));
        assert!(!indicates_incident(&[starting(edge + 1)], ServiceId(2), t));
        // An incident on another service never counts.
        assert!(!indicates_incident(
            &[ongoing, starting(0)],
            ServiceId(3),
            t
        ));
        assert!(!indicates_incident(&[], ServiceId(2), t));
    }

    #[test]
    fn covers_window() {
        let mut inc = incident();
        assert!(!inc.covers(SimTime::from_secs(0)));
        assert!(inc.covers(SimTime::from_hours(3)));
        inc.mitigate(SimTime::from_hours(2));
        assert!(inc.covers(SimTime::from_hours(1)));
        assert!(!inc.covers(SimTime::from_hours(2)));
    }

    #[test]
    fn display_mentions_status() {
        let mut inc = incident();
        assert!(inc.to_string().contains("open"));
        inc.mitigate(SimTime::from_hours(2));
        assert!(inc.to_string().contains("mitigated"));
    }
}
