//! The one window-close path.
//!
//! Closing a window is the same sequence wherever it happens: merge
//! the window's deltas through the [`WindowDelta`] monoid, build the
//! [`GovernanceSnapshot`], then run the two *sequential* channels over
//! the merged result — the AO-LDA pass over the merged documents and
//! the online QoA model's `partial_fit` against the window's labels.
//! Both passes thread state from every earlier window (AO-LDA's
//! adaptive prior, the model's weights), so each must run exactly once
//! per window, at the topmost merge point, for N-shard and N-node
//! output to equal 1-shard output byte for byte.
//!
//! [`WindowCloser`] owns that state and performs the sequence — the
//! passes run here and nowhere else. A process has one closer, at its
//! one merge point, and it runs every channel that is not `Off`:
//!
//! | role                 | holder of the `MergePoint` | closes over                       |
//! |----------------------|----------------------------|-----------------------------------|
//! | daemon merge point   | a standalone ingestd       | its shards' deltas                |
//! | cluster merge point  | `AlertCluster`             | every alive node's shards' deltas |
//!
//! A cluster node is shards and a log, not a merge point: nothing
//! below a closer merges. A [`crate::StreamingGovernor`] never holds
//! one. A library caller with a single governor is the 1-shard case of
//! the daemon row, not a path of its own:
//! `closer.close(std::slice::from_ref(&delta), labels)`, then
//! `governor.set_qoa_verdicts(..)` with the returned verdicts before
//! the next window.

use std::sync::Arc;

use alertops_detect::StormConfig;
use alertops_model::QoaLabel;
use alertops_obs::Histogram;
use alertops_qoa::{OnlineQoaModel, QoaCheckpoint, QoaFeedbackConfig, QoaVerdicts};
use alertops_react::{EmergingAlertDetector, EmergingConfig};

use crate::metrics::{EmergingMetrics, QoaMetrics};
use crate::streaming::{GovernanceSnapshot, WindowDelta};

/// Everything one window close produced.
#[derive(Debug, Clone)]
pub struct ClosedWindow {
    /// The published governance picture of the window.
    pub snapshot: GovernanceSnapshot,
    /// The QoA verdicts as of this close, when this closer ran the
    /// model update. They govern from the *next* window on, so the
    /// holder pushes them down to its shards before the next close.
    pub verdicts: Option<QoaVerdicts>,
}

/// Owns the sequential post-merge state (emerging detector, online QoA
/// model) and runs the window-close sequence; see the module docs.
#[derive(Debug, Clone)]
pub struct WindowCloser {
    storm: StormConfig,
    emerging: Option<EmergingAlertDetector>,
    qoa: Option<OnlineQoaModel>,
    metrics: Option<(EmergingMetrics, QoaMetrics)>,
    merge_timer: Option<Arc<Histogram>>,
}

impl WindowCloser {
    /// A closer that runs the AO-LDA pass when `emerging` is given and
    /// the QoA model update when `qoa` is given.
    #[must_use]
    pub fn new(
        storm: StormConfig,
        emerging: Option<EmergingConfig>,
        qoa: Option<QoaFeedbackConfig>,
    ) -> Self {
        Self {
            storm,
            emerging: emerging.map(EmergingAlertDetector::new),
            qoa: qoa.map(OnlineQoaModel::new),
            metrics: None,
            merge_timer: None,
        }
    }

    /// Attaches the channel metric handles: AO-LDA wall time and
    /// emerging counters, model-update wall time and QoA gauges.
    /// Observer-only.
    #[must_use]
    pub fn with_metrics(mut self, emerging: EmergingMetrics, qoa: QoaMetrics) -> Self {
        self.metrics = Some((emerging, qoa));
        self
    }

    /// Times the merge step (monoid fold + snapshot build, nothing
    /// else) of every [`close`](Self::close) into `histogram`.
    #[must_use]
    pub fn with_merge_timer(mut self, histogram: Arc<Histogram>) -> Self {
        self.merge_timer = Some(histogram);
        self
    }

    /// Closes one window: folds its deltas through the monoid, builds
    /// the snapshot (storm reconstruction included), runs this
    /// closer's two sequential passes, in their fixed order, over the
    /// merged documents and samples and embeds their reports in the
    /// snapshot. The AO-LDA pass runs on every window, empty ones
    /// included — its windowing counts them. The model updates after
    /// the window's governance, so window `N` is governed entirely by
    /// what window `N - 1` taught.
    pub fn close(&mut self, deltas: &[WindowDelta], labels: &[QoaLabel]) -> ClosedWindow {
        let (delta, mut snapshot) = {
            let _span = self.merge_timer.as_ref().map(|h| h.time());
            let delta = WindowDelta::merge_all(deltas);
            let snapshot = GovernanceSnapshot::from_delta(&delta, &self.storm);
            (delta, snapshot)
        };
        let metrics = self.metrics.as_ref();
        snapshot.emerging = self.emerging.as_mut().map(|detector| {
            let report = {
                let _span = metrics.map(|(m, _)| m.window_timer());
                detector.observe_docs(&delta.emerging_docs)
            };
            if let Some((m, _)) = metrics {
                m.record_report(&report);
            }
            report
        });
        snapshot.qoa = self.qoa.as_mut().map(|model| {
            let report = {
                let _span = metrics.map(|(_, m)| m.update_timer());
                model.observe_window(&delta.qoa_samples, labels)
            };
            if let Some((_, m)) = metrics {
                m.record_report(&report);
            }
            report
        });
        ClosedWindow {
            snapshot,
            verdicts: self.qoa.as_ref().map(OnlineQoaModel::verdicts),
        }
    }

    /// The online QoA model, when this closer owns one — its
    /// verdicts, digest and checkpoint are read through it.
    #[must_use]
    pub fn qoa_model(&self) -> Option<&OnlineQoaModel> {
        self.qoa.as_ref()
    }

    /// Starts the QoA channel with a fresh model, replacing any
    /// current one.
    pub fn start_qoa(&mut self, config: QoaFeedbackConfig) {
        self.qoa = Some(OnlineQoaModel::new(config));
    }

    /// Starts the QoA channel from a stored checkpoint — exact
    /// weights, not a relearn. Returns `false` when the checkpoint is
    /// malformed, leaving the current model (or its absence) untouched.
    pub fn restore_qoa(&mut self, config: QoaFeedbackConfig, checkpoint: &QoaCheckpoint) -> bool {
        let Some(model) = OnlineQoaModel::from_checkpoint(config, checkpoint) else {
            return false;
        };
        self.qoa = Some(model);
        true
    }
}
