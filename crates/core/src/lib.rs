//! Unified alert governance — the primary public API of the `alertops`
//! workspace.
//!
//! The paper's Fig. 6 frames the mitigation of alert anti-patterns as a
//! three-stage loop:
//!
//! 1. **Avoid** — preventative guidelines on alert strategies (*Target*,
//!    *Timing*, *Presentation*) applied at configuration time
//!    ([`GuidelineLinter`]);
//! 2. **React** — postmortem reactions (blocking, aggregation,
//!    correlation, emerging detection) applied to the live stream;
//! 3. **Detect** — automatic detection of anti-patterns and QoA
//!    evaluation feeding back into strategy fixes.
//!
//! [`AlertGovernor`] wires the three stages over one strategy catalog:
//! feed it the alert/incident history, and it produces a
//! [`GovernanceReport`] with detected anti-patterns, auto-derived
//! blocking rules, the volume-reduction pipeline result, and a
//! worst-first QoA ranking.
//!
//! # Example
//!
//! ```
//! use alertops_core::{AlertGovernor, GovernorConfig};
//! use alertops_model::{
//!     Alert, AlertId, AlertStrategy, LogRule, SimDuration, SimTime,
//!     StrategyId, StrategyKind,
//! };
//!
//! # fn main() -> Result<(), alertops_model::ModelError> {
//! let strategy = AlertStrategy::builder(StrategyId(0))
//!     .title_template("Instance x is abnormal") // A1 bait
//!     .kind(StrategyKind::Log(LogRule {
//!         keyword: "ERROR".into(),
//!         min_count: 1,
//!         window: SimDuration::from_mins(5),
//!     }))
//!     .build()?;
//! let governor = AlertGovernor::new(vec![strategy], GovernorConfig::default());
//! let alerts: Vec<Alert> = (0..3)
//!     .map(|i| {
//!         Alert::builder(AlertId(i), StrategyId(0))
//!             .title("Instance x is abnormal")
//!             .raised_at(SimTime::from_secs(i * 60))
//!             .build()
//!     })
//!     .collect();
//! let report = governor.govern(&alerts, &[]);
//! assert!(report.anti_patterns.finding_count() >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod governor;
mod guidelines;
mod metrics;
mod postmortem;
mod remediation;
mod reports;
mod streaming;

pub mod prelude;

pub use governor::{AlertGovernor, GovernorConfig};
pub use guidelines::{GuidelineAspect, GuidelineContext, GuidelineLinter, GuidelineViolation};
pub use metrics::{EmergingMetrics, GovernorMetrics, QoaMetrics};
pub use postmortem::{render_postmortem, PostmortemInput};
pub use remediation::{apply_fixes, suggest_fixes, FixAction, StrategyFix};
pub use reports::GovernanceReport;
pub use streaming::{
    Channel, ChannelMode, EmergingChannel, EmergingMode, GovernanceSnapshot, QoaChannel, QoaMode,
    StreamingConfig, StreamingGovernor, WindowDelta,
};

// Downstream layers (ingestd, cluster) speak the QoA loop's vocabulary
// through this crate, mirroring how they consume the emerging channel.
pub use alertops_qoa::{
    OnlineQoaModel, QoaCheckpoint, QoaFeedbackConfig, QoaSample, QoaVerdicts, QoaWindowReport,
    StrategyQoa,
};
