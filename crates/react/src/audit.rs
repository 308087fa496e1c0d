//! Blocking-rule auditing.
//!
//! The paper's §IV pain point: "How to define the blocking rules and
//! when to invalidate these rules becomes a crucial problem … outdated
//! reactive measures is hard to detect." This module makes rule health
//! measurable: per-rule hit rates over daily windows, staleness (a rule
//! that stopped matching — its noise source was fixed), and harm (a rule
//! that suppressed alerts coinciding with incidents).
//!
//! Each blocked alert counts for the first rule that matches it, as the
//! blocker's own index finds it: R1's credit has that one definition.

use serde::{Deserialize, Serialize};

use alertops_model::{Alert, Incident, INCIDENT_LOOKAHEAD};

use crate::blocking::AlertBlocker;

/// A rule with zero hits in this many trailing days of the audited
/// period is reported stale.
pub const STALE_AFTER_DAYS: u64 = 7;

/// The health verdict for one blocking rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleAudit {
    /// The rule's name (from [`BlockRule::name`](crate::BlockRule)).
    pub rule: String,
    /// Total alerts this rule suppressed over the audited period.
    pub total_hits: usize,
    /// Hits per day-bucket of the audited period (index 0 = first day).
    pub daily_hits: Vec<usize>,
    /// No hits in the trailing window: the noise source is gone and the
    /// rule should be retired before it eats a real alert some day.
    pub stale: bool,
    /// Suppressed alerts that indicated an incident on their service —
    /// the rule is actively harmful if this is non-zero.
    pub suppressed_indicative: usize,
}

impl RuleAudit {
    /// Whether the rule should be surfaced for review (stale or harmful).
    #[must_use]
    pub fn needs_review(&self) -> bool {
        self.stale || self.suppressed_indicative > 0
    }
}

/// Audits every rule of `blocker` against an alert history (time-sorted)
/// and the incident record. Returns one [`RuleAudit`] per rule, in rule
/// order.
///
/// The harm check here is *time-overlap only* (an incident somewhere in
/// the system was ongoing at the suppressed alert's raise time or began
/// within [`INCIDENT_LOOKAHEAD`] after it) because the alert alone does
/// not identify its service. When the caller can map an
/// alert to its service, [`audit_blocker_with`] takes a precise
/// indicativeness predicate instead.
///
/// A rule created *during* the period naturally shows zero hits in its
/// pre-creation days; pass only the post-creation history for precise
/// staleness. An empty alert history marks every rule stale (nothing to
/// justify keeping it).
#[must_use]
pub fn audit_blocker(
    blocker: &AlertBlocker,
    alerts: &[Alert],
    incidents: &[Incident],
) -> Vec<RuleAudit> {
    audit_blocker_with(blocker, alerts, |alert| {
        incidents
            .iter()
            .any(|inc| inc.covers_or_follows(alert.raised_at(), INCIDENT_LOOKAHEAD))
    })
}

/// [`audit_blocker`] with a caller-supplied indicativeness predicate —
/// typically [`alertops_model::indicates_incident`] on the alert's own
/// service, looked up in the strategy catalog.
#[must_use]
pub fn audit_blocker_with(
    blocker: &AlertBlocker,
    alerts: &[Alert],
    is_indicative: impl Fn(&Alert) -> bool,
) -> Vec<RuleAudit> {
    // Scan for the day range rather than trusting first/last order, so
    // unsorted input degrades gracefully instead of underflowing.
    let day_range = alerts.iter().map(|a| a.raised_at().day_bucket()).fold(
        None,
        |acc: Option<(u64, u64)>, d| match acc {
            None => Some((d, d)),
            Some((lo, hi)) => Some((lo.min(d), hi.max(d))),
        },
    );
    let (first_day, last_day) = match day_range {
        Some(range) => range,
        None => {
            return blocker
                .rules()
                .iter()
                .map(|rule| RuleAudit {
                    rule: rule.name.clone(),
                    total_hits: 0,
                    daily_hits: Vec::new(),
                    stale: true,
                    suppressed_indicative: 0,
                })
                .collect()
        }
    };
    let days = (last_day - first_day + 1) as usize;
    let mut audits: Vec<RuleAudit> = blocker
        .rules()
        .iter()
        .map(|rule| RuleAudit {
            rule: rule.name.clone(),
            total_hits: 0,
            daily_hits: vec![0; days],
            stale: false,
            suppressed_indicative: 0,
        })
        .collect();

    for alert in alerts {
        // The first matching rule gets the credit, found as R1 finds it.
        let Some(ix) = blocker.first_match(alert) else {
            continue;
        };
        let audit = &mut audits[ix];
        audit.total_hits += 1;
        let day = (alert.raised_at().day_bucket() - first_day) as usize;
        audit.daily_hits[day] += 1;
        // Harm check: did the suppressed alert indicate an incident?
        if is_indicative(alert) {
            audit.suppressed_indicative += 1;
        }
    }

    let stale_window = STALE_AFTER_DAYS.min(days as u64) as usize;
    for audit in &mut audits {
        let tail = &audit.daily_hits[days - stale_window..];
        audit.stale = tail.iter().all(|&h| h == 0);
    }
    audits
}

/// Convenience: the subset of audits that need review, harmful first,
/// then stale, each group by descending hits.
#[must_use]
pub fn review_queue(audits: &[RuleAudit]) -> Vec<&RuleAudit> {
    let mut queue: Vec<&RuleAudit> = audits.iter().filter(|a| a.needs_review()).collect();
    queue.sort_by_key(|a| {
        (
            std::cmp::Reverse(a.suppressed_indicative),
            std::cmp::Reverse(a.total_hits),
        )
    });
    queue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockRule;
    use alertops_model::{
        AlertId, IncidentId, ServiceId, Severity, SimTime, StrategyId, SECS_PER_DAY,
    };

    fn alert(id: u64, strategy: u64, day: u64, offset: u64) -> Alert {
        Alert::builder(AlertId(id), StrategyId(strategy))
            .raised_at(SimTime::from_secs(day * SECS_PER_DAY + offset))
            .build()
    }

    fn blocker(strategies: &[u64]) -> AlertBlocker {
        strategies
            .iter()
            .map(|&s| BlockRule::for_strategy(format!("mute-{s}"), StrategyId(s)))
            .collect()
    }

    #[test]
    fn counts_hits_per_day() {
        let blocker = blocker(&[1]);
        let alerts = vec![
            alert(0, 1, 0, 100),
            alert(1, 1, 0, 200),
            alert(2, 1, 2, 100),
            alert(3, 9, 2, 200), // unmatched
        ];
        let audits = audit_blocker(&blocker, &alerts, &[]);
        assert_eq!(audits.len(), 1);
        assert_eq!(audits[0].total_hits, 3);
        assert_eq!(audits[0].daily_hits, vec![2, 0, 1]);
        assert!(!audits[0].stale);
        assert_eq!(audits[0].suppressed_indicative, 0);
    }

    #[test]
    fn rule_with_quiet_tail_is_stale() {
        let blocker = blocker(&[1, 2, 3, 4]);
        // 10-day history: rule 1 hits early only; rule 2 hits daily;
        // rule 3 is quiet for exactly the trailing STALE_AFTER_DAYS, and
        // rule 4 for one day fewer.
        let mut alerts = vec![alert(0, 1, 0, 100), alert(1, 1, 1, 100)];
        for day in 0..10 {
            alerts.push(alert(100 + day, 2, day, 500));
        }
        alerts.push(alert(200, 3, 10 - STALE_AFTER_DAYS - 1, 100));
        alerts.push(alert(201, 4, 10 - STALE_AFTER_DAYS, 100));
        alerts.sort_by_key(Alert::raised_at);
        let audits = audit_blocker(&blocker, &alerts, &[]);
        assert!(audits[0].stale, "rule 1 stopped matching 8 days ago");
        assert!(!audits[1].stale);
        assert!(audits[2].stale);
        assert!(!audits[3].stale);
        assert!(audits[0].needs_review());
        assert!(!audits[1].needs_review());
    }

    #[test]
    fn harmful_rule_is_flagged() {
        let blocker = blocker(&[1]);
        let alerts = vec![alert(0, 1, 0, 1_000)];
        let mut incident = Incident::new(
            IncidentId(0),
            ServiceId(0),
            Severity::Critical,
            SimTime::from_secs(500),
        );
        incident.mitigate(SimTime::from_secs(5_000));
        let audits = audit_blocker(&blocker, &alerts, &[incident]);
        assert_eq!(audits[0].suppressed_indicative, 1);
        assert!(audits[0].needs_review());
    }

    #[test]
    fn empty_history_marks_everything_stale() {
        let blocker = blocker(&[1, 2, 3]);
        let audits = audit_blocker(&blocker, &[], &[]);
        assert_eq!(audits.len(), 3);
        assert!(audits.iter().all(|a| a.stale && a.total_hits == 0));
    }

    #[test]
    fn review_queue_orders_harmful_before_stale() {
        let audits = vec![
            RuleAudit {
                rule: "stale-big".into(),
                total_hits: 50,
                daily_hits: vec![50, 0],
                stale: true,
                suppressed_indicative: 0,
            },
            RuleAudit {
                rule: "healthy".into(),
                total_hits: 10,
                daily_hits: vec![5, 5],
                stale: false,
                suppressed_indicative: 0,
            },
            RuleAudit {
                rule: "harmful".into(),
                total_hits: 5,
                daily_hits: vec![2, 3],
                stale: false,
                suppressed_indicative: 2,
            },
        ];
        let queue = review_queue(&audits);
        assert_eq!(queue.len(), 2);
        assert_eq!(queue[0].rule, "harmful");
        assert_eq!(queue[1].rule, "stale-big");
    }

    #[test]
    fn unsorted_input_degrades_gracefully() {
        let blocker = blocker(&[1]);
        // Later day first: the day range must still be computed correctly.
        let alerts = vec![alert(0, 1, 5, 10), alert(1, 1, 1, 10)];
        let audits = audit_blocker(&blocker, &alerts, &[]);
        assert_eq!(audits[0].total_hits, 2);
        assert_eq!(audits[0].daily_hits.len(), 5);
        assert_eq!(audits[0].daily_hits[0], 1); // day 1
        assert_eq!(audits[0].daily_hits[4], 1); // day 5
    }

    #[test]
    fn short_histories_use_available_days_for_staleness() {
        // 2-day history with hits on both days: not stale even though the
        // configured window is 7 days.
        let blocker = blocker(&[1]);
        let alerts = vec![alert(0, 1, 0, 100), alert(1, 1, 1, 100)];
        let audits = audit_blocker(&blocker, &alerts, &[]);
        assert!(!audits[0].stale);
    }
}
