//! # alertops
//!
//! A Rust toolkit for **alert governance** in cloud systems: detecting
//! the anti-patterns of alerts, mitigating them with the standard
//! industrial reactions, and evaluating the Quality of Alerts (QoA) —
//! a full reproduction of *"Characterizing and Mitigating Anti-patterns
//! of Alerts in Industrial Cloud Systems"* (DSN 2022).
//!
//! This umbrella crate re-exports the workspace's library crates. The
//! harness crates are not re-exported: `alertops-bench`,
//! `pipeline-bench` and `alertops-load`, the exposition parser
//! `pipeline-bench` scrapes the daemon with.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`model`] | `alertops-model` | Alerts, strategies, SOPs, incidents, ids, time |
//! | [`text`] | `alertops-text` | Tokenizer, vocabulary, title scoring, templates |
//! | [`topics`] | `alertops-topics` | Online LDA and adaptive online LDA |
//! | [`sim`] | `alertops-sim` | The cloud/monitoring simulator and scenario presets |
//! | [`detect`] | `alertops-detect` | Anti-pattern detectors A1–A6, storms, candidate mining |
//! | [`react`] | `alertops-react` | Reactions R1–R4 and the reaction pipeline |
//! | [`qoa`] | `alertops-qoa` | QoA criteria, features, learned models |
//! | [`survey`] | `alertops-survey` | The 18-OCE survey dataset and Likert analysis |
//! | [`core`] | `alertops-core` | The [`AlertGovernor`](core::AlertGovernor) facade |
//! | [`ingestd`] | `alertops-ingestd` | The sharded streaming ingestion daemon |
//! | [`cluster`] | `alertops-cluster` | Multi-node clustering, write-ahead logs, range handoff |
//! | [`obs`] | `alertops-obs` | Metrics registry, histograms, spans, Prometheus text |
//! | [`chaos`] | `alertops-chaos` | Seeded fault schedules, frame corruption, backoff |
//!
//! # Quickstart
//!
//! ```
//! use alertops::core::prelude::*;
//! use alertops::sim::scenarios;
//!
//! // Simulate a small cloud for six hours...
//! let out = scenarios::quickstart(7).run();
//! // ...and govern its alert stream.
//! let governor = AlertGovernor::new(
//!     out.catalog.strategies().to_vec(),
//!     GovernorConfig::default(),
//! )
//! .with_dependency_graph(out.topology.dependency_graph());
//! let report = governor.govern(&out.alerts, &out.incidents);
//! assert!(report.pipeline.reduction > 0.0);
//! ```
//!
//! See `examples/` for runnable walkthroughs and `crates/bench` for the
//! harnesses that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use alertops_chaos as chaos;
pub use alertops_cluster as cluster;
pub use alertops_core as core;
pub use alertops_detect as detect;
pub use alertops_ingestd as ingestd;
pub use alertops_model as model;
pub use alertops_obs as obs;
pub use alertops_qoa as qoa;
pub use alertops_react as react;
pub use alertops_sim as sim;
pub use alertops_survey as survey;
pub use alertops_text as text;
pub use alertops_topics as topics;
pub use alertops_wire as wire;
