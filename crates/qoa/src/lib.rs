//! Quality of Alerts (QoA) evaluation — the paper's proposed future
//! direction (§IV), built out.
//!
//! The paper proposes three criteria to measure the quality of alerts:
//!
//! * **Indicativeness** — whether the alert indicates failures that will
//!   affect the end users' experience;
//! * **Precision** — whether the alert correctly reflects the severity
//!   of the anomaly;
//! * **Handleability** — whether the alert can be quickly handled
//!   (depends on the target and the presentation of the alert).
//!
//! Two evaluation paths are provided:
//!
//! * [`QoaScorer`] — direct, evidence-based scoring of each criterion
//!   from alert/incident history (the "human knowledge" rules of Fig. 6);
//! * [`QoaModel`] — the machine-learning path the paper sketches: OCEs
//!   label alerts high/low per criterion, a model is trained on
//!   [`features`] and "continuously updated so that it can automatically
//!   absorb the human knowledge" — implemented as from-scratch logistic
//!   regression ([`LogisticRegression`]) with a `partial_fit` for
//!   continual updates.
//!
//! # Example
//!
//! ```
//! use alertops_qoa::{LogisticRegression, TrainConfig};
//!
//! // Tiny separable problem: y = x0 > 0.
//! let x: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i - 20) / 20.0]).collect();
//! let y: Vec<bool> = (0..40).map(|i| i - 20 > 0).collect();
//! let mut model = LogisticRegression::new(1);
//! model.fit(&x, &y, &TrainConfig::default());
//! assert!(model.predict_proba(&[0.9]) > 0.8);
//! assert!(model.predict_proba(&[-0.9]) < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod criteria;
pub mod eval;
pub mod features;
pub mod labels;
pub mod logreg;
pub mod online;

mod model;

pub use criteria::{QoaReport, QoaScorer, QoaScores};
pub use eval::{auc, BinaryMetrics};
pub use features::{extract_features, FEATURE_NAMES};
pub use labels::flip_labels;
pub use logreg::{LogisticRegression, TrainConfig};
pub use model::{Criterion, QoaModel};
pub use online::{
    OnlineQoaModel, QoaCheckpoint, QoaFeedbackConfig, QoaSample, QoaVerdicts, QoaWindowReport,
    StrategyQoa,
};
