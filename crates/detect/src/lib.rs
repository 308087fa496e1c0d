//! Detectors for the six anti-patterns of alerts (DSN'22, RQ1).
//!
//! The paper characterizes six anti-patterns from 4M+ production alerts:
//!
//! | Id | Anti-pattern | Detector |
//! |----|--------------|----------|
//! | A1 | Unclear name or description | [`UnclearTitleDetector`] |
//! | A2 | Misleading severity | [`MisleadingSeverityDetector`] |
//! | A3 | Improper / outdated generation rule | [`ImproperRuleDetector`] |
//! | A4 | Transient and toggling alerts | [`TransientTogglingDetector`] |
//! | A5 | Repeating alerts | [`RepeatingDetector`] |
//! | A6 | Cascading alerts | [`CascadingDetector`] |
//!
//! It also describes the **mining methodology** that surfaced them, which
//! this crate reproduces faithfully:
//!
//! * [`candidates`] — strategies in the top 30% of average processing
//!   time become candidates of *individual* anti-patterns; region-hours
//!   with more than 200 alerts become candidates of *collective* ones;
//! * [`storm`] — alert-storm detection (>100 alerts per region-hour,
//!   consecutive storm hours merged);
//! * [`adjudication`] — the two-OCE agreement protocol (third opinion on
//!   disagreement) plus Cohen's κ;
//! * [`report`] — aggregation and precision/recall scoring against a
//!   known ground truth.
//!
//! # Example
//!
//! ```
//! use alertops_detect::{DetectionInput, Detector, UnclearTitleDetector};
//! use alertops_model::{AlertStrategy, LogRule, Severity, SimDuration, StrategyId, StrategyKind};
//!
//! # fn main() -> Result<(), alertops_model::ModelError> {
//! let vague = AlertStrategy::builder(StrategyId(0))
//!     .title_template("Instance x is abnormal")
//!     .kind(StrategyKind::Log(LogRule {
//!         keyword: "ERROR".into(),
//!         min_count: 5,
//!         window: SimDuration::from_mins(2),
//!     }))
//!     .build()?;
//! let strategies = [vague];
//! let input = DetectionInput::new(&strategies);
//! let findings = UnclearTitleDetector.detect(&input);
//! assert_eq!(findings.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod adjudication;
pub mod candidates;
pub mod metrics;
pub mod report;
pub mod storm;

mod a1_unclear;
mod a2_severity;
mod a3_improper;
mod a4_transient;
mod a5_repeating;
mod a6_cascading;
mod engine;
mod input;
mod types;

pub use a1_unclear::{UnclearTitleDetector, UNCLEAR_TITLE_THRESHOLD};
pub use a2_severity::MisleadingSeverityDetector;
pub use a3_improper::ImproperRuleDetector;
pub use a4_transient::TransientTogglingDetector;
pub use a5_repeating::RepeatingDetector;
pub use a6_cascading::{CascadeGroup, CascadingDetector};
pub use engine::{FlagTransitions, IncrementalState};
pub use input::DetectionInput;
pub use metrics::DetectMetrics;
pub use report::{evaluate_sets, AntiPatternReport, PrecisionRecall};
pub use storm::{region_hour_histogram, storms_from_histogram, AlertStorm, StormConfig};
pub use types::{AntiPattern, Detector, StrategyFinding};
