//! Core data model for cloud alert governance.
//!
//! This crate defines the shared vocabulary used across the `alertops`
//! workspace, mirroring the terminology of *"Characterizing and Mitigating
//! Anti-patterns of Alerts in Industrial Cloud Systems"* (DSN 2022,
//! Table I):
//!
//! * [`Alert`] — a notification sent to on-call engineers (OCEs), of the
//!   form defined by an [`AlertStrategy`], about a specific anomaly.
//! * [`AlertStrategy`] — the policy of alert generation: when to generate
//!   an alert, what attributes and descriptions it has, and to whom it is
//!   sent.
//! * [`Sop`] — the standard operating procedure an OCE follows upon
//!   receiving an alert.
//! * [`Incident`] — an unplanned interruption or performance degradation
//!   that a severe enough alert (or group of alerts) can escalate to.
//! * [`Oce`] — an on-call engineer, with an experience band matching the
//!   demographics reported in the paper's survey.
//!
//! Everything here is plain data: `Clone`/`Debug`/`serde`-friendly types
//! with no behaviour beyond validation, formatting, and cheap accessors.
//! The simulator ([`alertops-sim`]), the anti-pattern detectors
//! ([`alertops-detect`]) and the reactions ([`alertops-react`]) all speak
//! this vocabulary.
//!
//! # Example
//!
//! ```
//! use alertops_model::{
//!     Alert, AlertId, Location, Severity, SimTime, StrategyId,
//! };
//!
//! let alert = Alert::builder(AlertId(1), StrategyId(7))
//!     .title("Failed to allocate new blocks, disk full")
//!     .severity(Severity::Critical)
//!     .service("Block Storage")
//!     .microservice(alertops_model::MicroserviceId(12))
//!     .location(Location::new("region-x", "dc-1"))
//!     .raised_at(SimTime::from_secs(3600))
//!     .build();
//!
//! assert_eq!(alert.severity(), Severity::Critical);
//! assert!(alert.is_active());
//! ```
//!
//! [`alertops-sim`]: https://docs.rs/alertops-sim
//! [`alertops-detect`]: https://docs.rs/alertops-detect
//! [`alertops-react`]: https://docs.rs/alertops-react

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod alert;
mod error;
mod feedback;
mod graph;
mod ids;
mod incident;
mod intern;
mod location;
mod oce;
mod severity;
mod sop;
mod strategy;
mod time;

pub use alert::{Alert, AlertBuilder, AlertState, Clearance, INTERMITTENT_THRESHOLD};
pub use error::ModelError;
pub use feedback::{QoaLabel, QOA_CRITERIA};
pub use graph::{DependencyGraph, DERIVATION_WINDOW};
pub use ids::{AlertId, IncidentId, MicroserviceId, OceId, RegionId, ServiceId, StrategyId};
pub use incident::{indicates_incident, Incident, IncidentStatus, INCIDENT_LOOKAHEAD};
pub use intern::{intern, IStr, StrTable, DEFAULT_TABLE_BYTE_CAP, DEFAULT_TABLE_CAP};
pub use location::Location;
pub use oce::{ExperienceBand, Oce};
pub use severity::Severity;
pub use sop::{Sop, SopBuilder};
pub use strategy::{
    AlertStrategy, AlertStrategyBuilder, IndexedCatalog, LogRule, MetricKind, MetricRule,
    ProbeRule, StrategyKind, ThresholdOp,
};
pub use time::{SimDuration, SimTime, TimeRange, SECS_PER_DAY, SECS_PER_HOUR};
