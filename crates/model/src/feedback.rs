//! OCE feedback labels for the Quality-of-Alerts loop.
//!
//! The paper (§IV) proposes that on-call engineers label alerts
//! high/low against three quality criteria so a model can be
//! "continuously updated so that it can automatically absorb the
//! human knowledge". [`QoaLabel`] is that unit of feedback: one
//! per-strategy verdict per window, carrying one boolean per
//! criterion.
//!
//! The criteria order is fixed by `alertops_qoa::Criterion::ALL`
//! (`crates/qoa/src/online.rs`: indicativeness, precision,
//! handleability); this crate only defines the carrier so the
//! simulator can produce labels without depending on the scoring
//! crate. The one rule that fills a label is the simulator's
//! `FeedbackOracle::label_window`.

use serde::{Deserialize, Serialize};

use crate::ids::StrategyId;

/// Number of QoA criteria a label covers (indicativeness, precision,
/// handleability — in that order).
pub const QOA_CRITERIA: usize = 3;

/// One window of OCE feedback about one alert strategy: a high/low
/// verdict per QoA criterion.
///
/// Label streams are always sorted by [`QoaLabel::strategy`] within a
/// window and carry at most one entry per strategy; consumers rely on
/// that ordering for deterministic `partial_fit` updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QoaLabel {
    /// The strategy the feedback is about.
    pub strategy: StrategyId,
    /// High (`true`) / low (`false`) per criterion, in the fixed
    /// criteria order (indicativeness, precision, handleability).
    pub labels: [bool; QOA_CRITERIA],
}

impl QoaLabel {
    /// Builds a label for `strategy` from per-criterion verdicts.
    #[must_use]
    pub fn new(strategy: StrategyId, labels: [bool; QOA_CRITERIA]) -> Self {
        QoaLabel { strategy, labels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_roundtrips_through_json() {
        let label = QoaLabel::new(StrategyId(7), [true, false, true]);
        let json = serde_json::to_string(&label).expect("serializes");
        let back: QoaLabel = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(label, back);
    }
}
