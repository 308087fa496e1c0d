//! Postmortem reactions to alert anti-patterns (DSN'22, RQ3).
//!
//! When the number of alerts becomes too large for manual triage, the
//! paper's OCEs take four kinds of reactions, all implemented here:
//!
//! | Id | Reaction | Module |
//! |----|----------|--------|
//! | R1 | Alert blocking | [`blocking`] — rule-based suppression of transient / toggling / repeating noise |
//! | R2 | Alert aggregation | [`aggregation`] — dedup into groups, "use the number of alerts as another feature" |
//! | R3 | Alert correlation analysis | [`correlation`] — strategy-dependency rules + service topology → diagnose source alerts only |
//! | R4 | Emerging alert detection | [`emerging`] — adaptive online LDA over alert-text windows to flag alerts with no historical counterpart |
//!
//! [`pipeline`] chains them in the order OCEs apply them (block →
//! aggregate → correlate) and reports per-stage volume reduction — the
//! quantity Fig. 2(c) of the paper asks OCEs to rate the effectiveness
//! of. Two governance extensions round the reactions out: [`audit`]
//! measures blocking-rule health (the paper's "when to invalidate these
//! rules" problem), and [`escalation`] proposes incidents from severe
//! correlated clusters (Table I's "a group of related alerts can
//! escalate to an incident").
//!
//! # Example
//!
//! ```
//! use alertops_model::{Alert, AlertId, SimTime, StrategyId};
//! use alertops_react::blocking::{AlertBlocker, BlockRule};
//!
//! let alerts: Vec<Alert> = (0..4)
//!     .map(|i| {
//!         Alert::builder(AlertId(i), StrategyId(i % 2))
//!             .raised_at(SimTime::from_secs(i * 60))
//!             .build()
//!     })
//!     .collect();
//! let mut blocker = AlertBlocker::new();
//! blocker.add_rule(BlockRule::for_strategy("mute noisy rule", StrategyId(0)));
//! let outcome = blocker.apply(&alerts);
//! assert_eq!(outcome.blocked.len(), 2);
//! assert_eq!(outcome.passed.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod aggregation;
pub mod audit;
pub mod blocking;
pub mod correlation;
pub mod emerging;
pub mod escalation;
pub mod metrics;
pub mod pipeline;

pub use aggregation::{aggregate, reduction_ratio, AggregationConfig, AlertGroup, GroupKey};
pub use audit::{audit_blocker, audit_blocker_with, review_queue, RuleAudit, STALE_AFTER_DAYS};
pub use blocking::{AlertBlocker, BlockCriterion, BlockOutcome, BlockRule};
pub use correlation::{
    correlate_by_topology, AlertCorrelator, CorrelatedCluster, Representative, StrategyDependencies,
};
pub use emerging::{
    apply_budget, EmergingAlertDetector, EmergingBudget, EmergingConfig, EmergingDoc,
    EmergingReport, PreparedPass,
};
pub use escalation::{propose_incidents, EscalationReason, IncidentProposal};
pub use metrics::ReactMetrics;
pub use pipeline::{PipelineReport, ReactionPipeline, StageStat};
