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
//! A close runs in one call ([`WindowCloser::close`]) or in two
//! halves. [`WindowCloser::begin`] prepares the AO-LDA pass over
//! documents the holder has before any delta arrives (a merge point's
//! shard queues hand them over with `Close{seq}`), so the pass runs
//! while the shards close; [`WindowCloser::redo`] replaces it when the
//! barrier shows those were not the window's documents;
//! [`WindowCloser::finish`] merges the deltas and commits. A prepared
//! pass moves only the detector's vocabulary and model width, and a
//! discarded one is undone by truncating both, so the committed pass
//! is always the one a single call would have run.
//!
//! A cluster node is shards and a log, not a merge point: nothing
//! below a closer merges. A [`crate::StreamingGovernor`] never holds
//! one. A library caller with a single governor is the 1-shard case of
//! the daemon row, not a path of its own:
//! `closer.close(std::slice::from_ref(&delta), labels)`, then
//! `governor.set_qoa_verdicts(..)` with the returned verdicts before
//! the next window.

use std::sync::Arc;
use std::time::{Duration, Instant};

use alertops_detect::StormConfig;
use alertops_model::QoaLabel;
use alertops_obs::Histogram;
use alertops_qoa::{OnlineQoaModel, QoaCheckpoint, QoaFeedbackConfig, QoaVerdicts};
use alertops_react::{EmergingAlertDetector, EmergingConfig, EmergingDoc, PreparedPass};

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

/// The first half of a window close ([`WindowCloser::begin`]): the
/// window's AO-LDA pass, prepared and not yet committed, and the wall
/// time spent on it so far. [`WindowCloser::finish`] commits it.
#[derive(Debug)]
#[must_use = "a begun close is finished"]
pub struct EmergingPass {
    /// `None` when the emerging channel is off.
    prepared: Option<PreparedPass>,
    took: Duration,
}

/// Owns the sequential post-merge state (emerging detector, online QoA
/// model) and runs the window-close sequence; see the module docs.
/// Not `Clone`: a speculative pass is undone by truncation, never by
/// keeping a copy of the detector.
#[derive(Debug)]
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
    /// else) of every close into `histogram`.
    #[must_use]
    pub fn with_merge_timer(mut self, histogram: Arc<Histogram>) -> Self {
        self.merge_timer = Some(histogram);
        self
    }

    /// Closes one window in one call: folds its deltas through the
    /// monoid, builds the snapshot (storm reconstruction included),
    /// runs this closer's two sequential passes, in their fixed order,
    /// over the merged documents and samples and embeds their reports
    /// in the snapshot. The AO-LDA pass runs on every window, empty
    /// ones included — its windowing counts them. The model updates
    /// after the window's governance, so window `N` is governed
    /// entirely by what window `N - 1` taught.
    ///
    /// Exactly [`begin`](Self::begin) over the merged documents, then
    /// [`finish`](Self::finish): the form for a holder whose deltas
    /// carry the documents (the library and batch paths).
    pub fn close(&mut self, deltas: &[WindowDelta], labels: &[QoaLabel]) -> ClosedWindow {
        let (delta, snapshot) = self.merge(deltas);
        let docs: Vec<&EmergingDoc> = delta.emerging_docs.iter().collect();
        let pass = self.begin(&docs);
        self.complete(pass, &delta, snapshot, labels)
    }

    /// First half of a close: the window's AO-LDA pass over `docs`
    /// (sorted by alert id), prepared but not committed — a holder runs
    /// it while its shards close. Nothing when the channel is off.
    pub fn begin(&mut self, docs: &[&EmergingDoc]) -> EmergingPass {
        let started = Instant::now();
        let prepared = self.emerging.as_mut().map(|d| d.prepare_docs(docs));
        EmergingPass {
            prepared,
            took: started.elapsed(),
        }
    }

    /// Replaces a begun pass that turned out to run over the wrong
    /// documents: discards it, which leaves the detector as if it never
    /// ran, and prepares the window again over `docs`.
    pub fn redo(&mut self, pass: &mut EmergingPass, docs: &[&EmergingDoc]) {
        let (Some(detector), Some(prepared)) = (self.emerging.as_mut(), pass.prepared.take())
        else {
            return;
        };
        let started = Instant::now();
        detector.discard(prepared);
        pass.prepared = Some(detector.prepare_docs(docs));
        pass.took += started.elapsed();
    }

    /// Second half: folds the window's deltas and builds the snapshot
    /// as [`close`](Self::close) does, commits the begun pass, and runs
    /// the QoA update.
    pub fn finish(
        &mut self,
        pass: EmergingPass,
        deltas: &[WindowDelta],
        labels: &[QoaLabel],
    ) -> ClosedWindow {
        let (delta, snapshot) = self.merge(deltas);
        self.complete(pass, &delta, snapshot, labels)
    }

    /// The monoid fold and the snapshot build, timed by the merge
    /// timer.
    fn merge(&self, deltas: &[WindowDelta]) -> (WindowDelta, GovernanceSnapshot) {
        let _span = self.merge_timer.as_ref().map(|h| h.time());
        let delta = WindowDelta::merge_all(deltas);
        let snapshot = GovernanceSnapshot::from_delta(&delta, &self.storm);
        (delta, snapshot)
    }

    /// Commits the AO-LDA pass and runs the QoA update over the merged
    /// `delta`, embedding both reports in `snapshot`.
    fn complete(
        &mut self,
        pass: EmergingPass,
        delta: &WindowDelta,
        mut snapshot: GovernanceSnapshot,
        labels: &[QoaLabel],
    ) -> ClosedWindow {
        let metrics = self.metrics.as_ref();
        let EmergingPass { prepared, took } = pass;
        snapshot.emerging = self
            .emerging
            .as_mut()
            .zip(prepared)
            .map(|(detector, prepared)| {
                let started = Instant::now();
                let report = detector.commit(prepared);
                if let Some((m, _)) = metrics {
                    m.observe_window(took + started.elapsed());
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

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{Alert, AlertId, SimTime, StrategyId};

    fn doc(id: u64, title: &str, hour: u64) -> EmergingDoc {
        let alert = Alert::builder(AlertId(id), StrategyId(id % 3))
            .title(title)
            .service("storage")
            .raised_at(SimTime::from_secs(hour * 3_600 + id))
            .build();
        EmergingDoc::from_alert(&alert)
    }

    fn closer() -> WindowCloser {
        let emerging = EmergingConfig {
            num_topics: 3,
            ..EmergingConfig::default()
        };
        WindowCloser::new(StormConfig::default(), Some(emerging), None)
    }

    /// A close begun over the wrong documents and redone over the
    /// window's own publishes, window after window, what the one-call
    /// close over the window's own documents publishes — though the
    /// wrong ones interned words the right ones never use.
    #[test]
    fn a_redone_close_publishes_as_the_one_call_close() {
        let titles = ["disk usage high", "cpu load high", "disk latency spike"];
        let (mut one_call, mut halves) = (closer(), closer());
        for hour in 0..4u64 {
            let docs: Vec<EmergingDoc> = (0..9)
                .map(|i| doc(hour * 100 + i, titles[(i % 3) as usize], hour))
                .collect();
            let delta = WindowDelta {
                alert_count: docs.len(),
                emerging_docs: docs.clone(),
                ..WindowDelta::identity()
            };
            let want = one_call.close(std::slice::from_ref(&delta), &[]);

            let mut wrong = docs.clone();
            wrong.push(doc(hour * 100 + 50, "certificate rotation deadlock", hour));
            let mut pass = halves.begin(&wrong.iter().collect::<Vec<_>>());
            halves.redo(&mut pass, &docs.iter().collect::<Vec<_>>());
            let got = halves.finish(pass, std::slice::from_ref(&delta), &[]);
            assert_eq!(got.snapshot, want.snapshot, "window {hour}");
            assert_eq!(got.snapshot.emerging.map(|r| r.alert_count), Some(9));
        }
    }
}
