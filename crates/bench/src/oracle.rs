//! The pre-refactor streaming governor, preserved as a baseline.
//!
//! Before the incremental detection engine, every ingested window
//! re-ran full detection over the flattened rolling history — O(history)
//! per window. [`BatchRecomputeGovernor`] keeps that implementation
//! alive so the `streaming` criterion bench can measure the refactor's
//! speedup against the real thing, and so the equivalence suites have
//! an executable oracle to diff against.

use std::collections::{BTreeSet, VecDeque};

use alertops_core::{AlertGovernor, StreamingConfig, WindowDelta};
use alertops_detect::storm::{region_hour_histogram, storms_from_histogram};
use alertops_detect::{AntiPattern, StrategyFinding};
use alertops_model::{Alert, Incident, IncidentStatus, RegionId, StrategyId};

/// Streaming governance by brute force: owned windows, flatten + sort +
/// batch re-detection on every ingest. Semantically identical to
/// [`alertops_core::StreamingGovernor`] (the equivalence suites hold
/// the two byte-identical), but O(history) per window.
pub struct BatchRecomputeGovernor {
    governor: AlertGovernor,
    config: StreamingConfig,
    history: VecDeque<Vec<Alert>>,
    incidents: Vec<Incident>,
    previous_flags: BTreeSet<(AntiPattern, StrategyId)>,
    windows_ingested: u64,
}

impl BatchRecomputeGovernor {
    /// Wraps a governor for brute-force streaming use.
    #[must_use]
    pub fn new(governor: AlertGovernor, config: StreamingConfig) -> Self {
        Self {
            governor,
            config,
            history: VecDeque::new(),
            incidents: Vec::new(),
            previous_flags: BTreeSet::new(),
            windows_ingested: 0,
        }
    }

    /// Ingests one window the pre-refactor way: push it onto the owned
    /// history, flatten and sort everything retained, and re-detect
    /// from scratch.
    pub fn ingest(&mut self, window: &[Alert], incidents: &[Incident]) -> WindowDelta {
        self.history.push_back(window.to_vec());
        while self.history.len() > self.config.history_windows {
            self.history.pop_front();
        }
        self.incidents.extend(incidents.iter().cloned());

        let mut scope: Vec<Alert> = self.history.iter().flatten().cloned().collect();
        scope.sort_by_key(|a| (a.raised_at(), a.id()));

        match scope.first().map(Alert::raised_at) {
            Some(oldest) => self.incidents.retain(|inc| {
                inc.is_open()
                    || match inc.status() {
                        IncidentStatus::Mitigated { at } => at >= oldest,
                        IncidentStatus::Open => true,
                    }
            }),
            None => self.incidents.retain(Incident::is_open),
        }

        let report = self.governor.detect(&scope, &self.incidents);
        let current_flags: BTreeSet<(AntiPattern, StrategyId)> = report
            .findings
            .iter()
            .flat_map(|(&pattern, findings)| findings.iter().map(move |f| (pattern, f.strategy)))
            .collect();
        let new_findings: Vec<StrategyFinding> = report
            .findings
            .values()
            .flatten()
            .filter(|f| !self.previous_flags.contains(&(f.pattern, f.strategy)))
            .cloned()
            .collect();
        let resolved: Vec<(AntiPattern, StrategyId)> = self
            .previous_flags
            .difference(&current_flags)
            .copied()
            .collect();

        let histogram = region_hour_histogram(&scope);
        let region_hours: Vec<(RegionId, u64, usize)> = histogram
            .iter()
            .map(|(key, count)| (key.0.clone(), key.1, *count))
            .collect();
        let window_hours: Vec<u64> = window
            .iter()
            .map(Alert::hour_bucket)
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .collect();
        let storm_active = storms_from_histogram(histogram, &self.config.storm)
            .iter()
            .any(|s| {
                s.hours
                    .iter()
                    .any(|h| window_hours.binary_search(h).is_ok())
            });

        let blocker = self.governor.derive_blocker(&report);
        let pipeline = self.governor.react(window, blocker);

        self.previous_flags = current_flags;
        let delta = WindowDelta {
            window_index: self.windows_ingested,
            alert_count: window.len(),
            new_findings,
            resolved,
            storm_active,
            region_hours,
            window_hours,
            triage: pipeline.triage,
            emerging_docs: Vec::new(),
            emerging: None,
            qoa_samples: Vec::new(),
            escalated: Vec::new(),
            qoa: None,
        };
        self.windows_ingested += 1;
        delta
    }
}
