//! Convenience re-exports: `use alertops_core::prelude::*;` pulls in the
//! governor plus the most commonly used types of every layer.

pub use crate::{
    AlertGovernor, Channel, ChannelMode, GovernanceReport, GovernanceSnapshot, GovernorConfig,
    GovernorMetrics, GuidelineAspect, GuidelineContext, GuidelineLinter, GuidelineViolation,
    StreamingConfig, StreamingGovernor, WindowDelta,
};

pub use alertops_detect::{
    AntiPattern, AntiPatternReport, CascadingDetector, DetectionInput, Detector,
    ImproperRuleDetector, IncrementalState, MisleadingSeverityDetector, RepeatingDetector,
    StrategyFinding, TransientTogglingDetector, UnclearTitleDetector,
};
pub use alertops_model::{
    Alert, AlertId, AlertStrategy, Clearance, DependencyGraph, Incident, Location, MetricKind,
    MicroserviceId, QoaLabel, RegionId, ServiceId, Severity, SimDuration, SimTime, Sop, StrategyId,
    StrategyKind, TimeRange,
};
pub use alertops_qoa::{
    Criterion, OnlineQoaModel, QoaCheckpoint, QoaFeedbackConfig, QoaReport, QoaSample, QoaScorer,
    QoaScores, QoaVerdicts, QoaWindowReport, StrategyQoa,
};
pub use alertops_react::{
    aggregate, AlertBlocker, AlertCorrelator, BlockRule, EmergingAlertDetector, EmergingBudget,
    EmergingConfig, EmergingDoc, EmergingReport, ReactionPipeline, StrategyDependencies,
    AGGREGATION_WINDOW,
};

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_exposes_key_types() {
        use super::*;
        fn assert_type<T>() {}
        assert_type::<AlertGovernor>();
        assert_type::<Alert>();
        assert_type::<AntiPattern>();
        assert_type::<OnlineQoaModel>();
        assert_type::<ReactionPipeline>();
    }
}
