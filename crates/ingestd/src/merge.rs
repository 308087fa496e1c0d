//! The merge point: a process's one window close and its one restart,
//! for a standalone daemon over its one [`ShardPool`] and for a
//! cluster over every alive node's pool alike. A close never fails on
//! a sick disk: a failed checkpoint or boundary write counts one write
//! error and the close completes, published and counted as usual.
//!
//! A close folds every shard's [`WindowDelta`] through the monoid,
//! builds the [`GovernanceSnapshot`], fills in its triage and
//! escalation lane by R3 over the merged representatives, then runs
//! the two *sequential* passes over the merged window: R4's AO-LDA pass
//! over its documents and the online QoA model's update against its
//! labels. R3 links alerts across strategies, and so across shards and
//! nodes; the two passes thread state from every earlier window
//! (AO-LDA's adaptive prior, the model's weights). So each runs exactly
//! once per window, here, for N-shard and N-node output to equal
//! 1-shard output byte for byte. A shard governor runs none of them; a
//! library caller with one governor runs them over its delta
//! ([`GovernanceSnapshot::fill_triage`],
//! [`EmergingAlertDetector::observe_docs`],
//! [`OnlineQoaModel::observe_window`]).
//!
//! The AO-LDA pass overlaps the barrier: the shard queues hand over
//! the window's emerging documents with `Close{seq}`, and the pass runs
//! over them on the closing thread while the workers close. It is
//! speculative. It is committed when the deltas show every queued
//! alert was delivered, and otherwise discarded, which truncates the
//! detector back to where it was, and run again over the documents the
//! deltas say were delivered. So the committed pass is always the one
//! over the window's delivered documents.
//!
//! [`ShardPool`]: crate::ShardPool

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alertops_core::{
    EmergingMetrics, GovernanceSnapshot, OnlineQoaModel, QoaCheckpoint, QoaFeedbackConfig,
    QoaMetrics, QoaVerdicts, WindowDelta,
};
use alertops_detect::StormConfig;
use alertops_model::{Alert, QoaLabel};
use alertops_obs::{Counter, Histogram};
use alertops_react::{EmergingAlertDetector, EmergingDoc, ReactMetrics};
use alertops_wire::wal::{read_qoa_checkpoint, write_qoa_checkpoint};

use crate::config::IngestdConfig;
use crate::node::Node;
use crate::pool::{elapsed_micros, ShardPool};
use crate::queue::ShardDocs;

/// Everything one window close produced.
#[derive(Debug, Clone)]
pub struct ClosedWindow {
    /// The published governance picture of the window.
    pub snapshot: GovernanceSnapshot,
    /// The QoA verdicts as of this close, when the model ran. They
    /// govern from the *next* window on: the next close pushes them
    /// down to the shards with `Close{seq}`.
    pub verdicts: Option<QoaVerdicts>,
}

/// The counters and metric handles a merge point moves: handles on its
/// holder's registry. The optional ones are observer-only.
#[derive(Debug)]
pub struct MergeCounters {
    /// Windows closed and published.
    pub windows_closed: Arc<Counter>,
    /// Closed windows listing at least one degraded shard.
    pub degraded_windows: Arc<Counter>,
    /// Failed seals and checkpoint writes, and the holder's appends.
    pub write_errors: Arc<Counter>,
    /// Checkpoint files found damaged at restart.
    pub checkpoints_discarded: Arc<Counter>,
    /// AO-LDA wall time and emerging counters.
    pub emerging: Option<EmergingMetrics>,
    /// Model-update wall time and QoA gauges.
    pub qoa: Option<QoaMetrics>,
    /// R3's wall time and cluster count, recorded once per window here
    /// (shards record R1's and R2's).
    pub correlation: Option<ReactMetrics>,
    /// Times the merge step (monoid fold + snapshot build, nothing
    /// else) of every close.
    pub merge_timer: Option<Arc<Histogram>>,
}

/// A process's one merge point: the sequential state (emerging
/// detector, online QoA model), the sequence number of the next close,
/// and the QoA checkpoint's directory (`dir/` for a journaled daemon,
/// `<wal_root>/coordinator/` for a cluster). A daemon holds it under
/// its merge lock, a cluster behind the `&mut self` of its closes.
/// Not `Clone`: a speculative pass is undone by truncation, never by
/// keeping a copy of the detector.
#[derive(Debug)]
pub struct MergePoint {
    storm: StormConfig,
    detector: Option<EmergingAlertDetector>,
    qoa: Option<QoaFeedbackConfig>,
    /// The online QoA model: parked (`None`) until
    /// [`restart`](Self::restart) starts or restores it.
    model: Option<OnlineQoaModel>,
    seq: u64,
    dir: Option<PathBuf>,
    /// Shards per node, for the flat degraded list.
    shards: usize,
    /// The QoA verdicts the next close pushes down: computed by the
    /// last close's model update, or at restart from the resumed model.
    verdicts: Option<QoaVerdicts>,
    counters: MergeCounters,
}

/// The holder [`MergePoint::restart`] drives, through its own route
/// and close.
pub trait MergeHolder {
    /// The holder's merge point.
    fn merge_point(&mut self) -> &mut MergePoint;
    /// Journals, then queues, one recovered alert.
    fn route_recovered(&mut self, alert: Alert);
    /// Closes the window in flight; errs once the holder's workers are
    /// gone.
    fn close_recovered(&mut self) -> io::Result<()>;
}

impl MergePoint {
    /// A merge point over nodes of `config.shards` shards, running every
    /// channel of `config.streaming` that is on. The QoA model is parked
    /// until [`restart`](Self::restart).
    #[must_use]
    pub fn new(config: &IngestdConfig, dir: Option<PathBuf>, counters: MergeCounters) -> Self {
        let streaming = &config.streaming;
        Self {
            storm: streaming.storm,
            detector: streaming
                .emerging
                .unless_off()
                .map(EmergingAlertDetector::new),
            qoa: streaming.qoa.unless_off(),
            model: None,
            seq: 0,
            dir,
            shards: config.shards,
            verdicts: None,
            counters,
        }
    }

    /// The sequence number the next close publishes under.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// The online QoA model, once resumed.
    #[must_use]
    pub fn qoa_model(&self) -> Option<&OnlineQoaModel> {
        self.model.as_ref()
    }

    /// The one close, over each [`Node`]: its pool (`None` while dead)
    /// and its log (`None` for a daemon without one). In order:
    ///
    /// 1. `Close{seq}`, carrying the verdicts as of the last close,
    ///    goes down every alive pool before any is waited on, and each
    ///    shard queue hands back the window's emerging documents;
    /// 2. AO-LDA prepares its pass over them, on this thread, while
    ///    the shards close;
    /// 3. the barrier collects one delta per shard;
    /// 4. the pass is discarded and prepared again over the delivered
    ///    documents when the barrier shows they differ (see
    ///    `delivered_docs`);
    /// 5. the deltas merge and the snapshot is built, under the merge
    ///    timer;
    /// 6. R3 correlates the merged representatives by the first alive
    ///    pool's dependency graph into the snapshot's triage, and the
    ///    escalation lane is read off it
    ///    ([`GovernanceSnapshot::fill_triage`]);
    /// 7. the pass is committed, its report embedded;
    /// 8. the QoA model updates against `labels`, its report embedded;
    /// 9. the verdicts the next close pushes down are read off it;
    /// 10. the QoA checkpoint is replaced, then each node that delivered
    ///     seals its log at `seq`.
    ///
    /// The AO-LDA pass runs on every window, empty ones included — its
    /// windowing counts them — and its wall time (prepare, any redo,
    /// commit) is one observation. The model updates after the
    /// window's governance, so window `N` is governed entirely by what
    /// window `N - 1` taught. The snapshot carries `window_index = seq`
    /// and the flat `node * shards + shard` degraded list, a dead
    /// node's every shard included. Also returns the nodes found dead
    /// (workers gone), closed without.
    pub fn close(&mut self, nodes: &[Node], labels: &[QoaLabel]) -> (ClosedWindow, Vec<usize>) {
        let seq = self.seq;
        self.seq += 1;
        let started = Instant::now();
        // Every alive pool is begun before any is waited on; one that
        // refuses has lost its workers.
        let queued: Vec<Option<Vec<ShardDocs>>> = nodes
            .iter()
            .map(|node| node.pool()?.begin_close(seq, self.verdicts.as_ref()))
            .collect();
        // AO-LDA runs here, over every queued document in alert id
        // order, while the workers close.
        let mut took = Duration::ZERO;
        let mut pass = self.detector.as_mut().map(|detector| {
            let mut docs: Vec<&EmergingDoc> = queued
                .iter()
                .flatten()
                .flatten()
                .flat_map(ShardDocs::iter)
                .collect();
            docs.sort_unstable_by_key(|d| d.alert);
            let began = Instant::now();
            let prepared = detector.prepare_docs(&docs);
            took = began.elapsed();
            prepared
        });

        let mut deltas = Vec::with_capacity(nodes.len() * self.shards);
        let mut degraded = Vec::new();
        let mut dead = Vec::new();
        // Per node, where its deltas start in `deltas`: `None` for a
        // node that delivered nothing.
        let mut delivered = Vec::with_capacity(nodes.len());
        for (node, pool) in nodes.iter().map(Node::pool).enumerate() {
            let begun = pool.filter(|_| queued[node].is_some());
            let base = deltas.len();
            let collected = begun.and_then(|pool| {
                let collected = pool.collect(seq, &mut deltas);
                if let Some(m) = pool.metrics() {
                    // Broadcast to last delta: the critical path a
                    // straggling shard, or the AO-LDA pass run ahead of
                    // the barrier, puts on the window.
                    m.barrier_wait_micros.observe(elapsed_micros(started));
                }
                collected
            });
            let first = node * self.shards;
            if let Some(shards) = collected {
                degraded.extend(shards.iter().map(|shard| first + shard));
                delivered.push(Some(base));
            } else {
                degraded.extend(first..first + self.shards);
                delivered.push(None);
                if pool.is_some() {
                    dead.push(node);
                }
            }
        }
        if let Some(detector) = self.detector.as_mut() {
            if let Some(docs) = delivered_docs(&queued, &delivered, &deltas, &degraded, self.shards)
            {
                let began = Instant::now();
                if let Some(wrong) = pass.take() {
                    detector.discard(wrong);
                }
                pass = Some(detector.prepare_docs(&docs));
                took += began.elapsed();
            }
        }
        // The pass is settled: the window's documents go now, before
        // the merge and the QoA update allocate.
        drop(queued);
        let (delta, mut snapshot) = {
            let _span = self.counters.merge_timer.as_ref().map(|h| h.time());
            let delta = WindowDelta::merge_all(&deltas);
            let snapshot = GovernanceSnapshot::from_delta(&delta, &self.storm);
            (delta, snapshot)
        };
        let metrics = &self.counters;
        let pool = nodes.iter().find_map(Node::pool);
        let span = metrics.correlation.as_ref().map(|m| m.correlation_timer());
        snapshot.fill_triage(&delta, pool.and_then(ShardPool::dependency_graph));
        drop(span);
        if let Some(m) = &metrics.correlation {
            m.record_clusters(snapshot.triage.len() as u64);
        }
        snapshot.emerging = self
            .detector
            .as_mut()
            .zip(pass)
            .map(|(detector, prepared)| {
                let began = Instant::now();
                let report = detector.commit(prepared);
                if let Some(m) = &metrics.emerging {
                    m.observe_window(took + began.elapsed());
                    m.record_report(&report);
                }
                report
            });
        snapshot.qoa = self.model.as_mut().map(|model| {
            let report = {
                let _span = metrics.qoa.as_ref().map(QoaMetrics::update_timer);
                model.observe_window(&delta.qoa_samples, labels)
            };
            if let Some(m) = &metrics.qoa {
                m.record_report(&report);
            }
            report
        });
        // The merged window goes before the checkpoint is encoded.
        drop(delta);
        let verdicts = self.model.as_ref().map(OnlineQoaModel::verdicts);
        self.verdicts.clone_from(&verdicts);
        // The model as of this close is durable before any log says
        // the window closed.
        let mut failed = 0;
        if let (Some(dir), Some(model)) = (&self.dir, &self.model) {
            failed += u64::from(write_qoa_checkpoint(dir, model.checkpoint().to_bytes()).is_err());
        }
        for (index, node) in nodes.iter().enumerate() {
            if let (Some(_), Some(wal), false) = (node.pool(), node.wal(), dead.contains(&index)) {
                failed += u64::from(wal.boundary(seq).is_err());
            }
        }
        self.counters.write_errors.add(failed);
        snapshot.window_index = seq;
        snapshot.degraded = degraded;
        self.counters.windows_closed.inc();
        if !snapshot.degraded.is_empty() {
            self.counters.degraded_windows.inc();
        }
        (ClosedWindow { snapshot, verdicts }, dead)
    }

    /// The one restart: each recovered `(seq, window)` re-routes and
    /// re-closes at its recorded sequence number through the holder's
    /// route and close, so counters, the published snapshot and the
    /// fresh logs move as live; the `tail` re-routes as the window in
    /// flight. Only then does the QoA model start (labels are never
    /// journaled, so re-closes must not relearn it): from an intact
    /// checkpoint file, exact weights, else fresh — a file that does not
    /// restore counts one discarded, a missing one is a first start.
    ///
    /// # Errors
    ///
    /// A re-close that finds the holder's workers gone, and filesystem
    /// errors reading the checkpoint.
    pub fn restart(
        holder: &mut impl MergeHolder,
        windows: impl IntoIterator<Item = (u64, Vec<Alert>)>,
        tail: Vec<Alert>,
    ) -> io::Result<()> {
        for (seq, alerts) in windows {
            holder.merge_point().seq = seq;
            alerts.into_iter().for_each(|a| holder.route_recovered(a));
            holder.close_recovered()?;
        }
        tail.into_iter().for_each(|a| holder.route_recovered(a));

        let merge = holder.merge_point();
        if let Some(config) = merge.qoa {
            let file = merge.dir.as_deref().map(read_qoa_checkpoint);
            let file = file.transpose()?.flatten();
            let found = file.is_some();
            let checkpoint = file.flatten().and_then(|b| QoaCheckpoint::from_bytes(&b));
            let restored = checkpoint.and_then(|c| OnlineQoaModel::from_checkpoint(config, &c));
            if restored.is_none() {
                merge.counters.checkpoints_discarded.add(u64::from(found));
            }
            let model = restored.unwrap_or_else(|| OnlineQoaModel::new(config));
            merge.verdicts = Some(model.verdicts());
            merge.model = Some(model);
        }
        Ok(())
    }
}

/// The documents a window's AO-LDA pass must run over when they are
/// not the ones the shard queues handed over at `begin_close`, sorted
/// by alert id; `None` when they are, and the speculative pass stands.
///
/// A shard's queued documents are exactly its window's alerts unless a
/// worker restart lost some: such a shard is degraded, and its delta
/// lists the documents of the alerts that survived. So the queued
/// documents stand when every node that was begun delivered, and every
/// delivered shard is clean — not degraded, and its delta counts as
/// many alerts as its queue recorded documents. Otherwise the window's
/// documents are the clean shards' queued ones plus the survivors of
/// the others; a node that delivered nothing contributes none.
fn delivered_docs<'a>(
    queued: &'a [Option<Vec<ShardDocs>>],
    delivered: &[Option<usize>],
    deltas: &'a [WindowDelta],
    degraded: &[usize],
    shards: usize,
) -> Option<Vec<&'a EmergingDoc>> {
    // Per shard of a begun node: its queue's documents, if they stand,
    // else the ones its delta lists (none for a node that delivered
    // nothing).
    let shard_docs = queued
        .iter()
        .zip(delivered)
        .enumerate()
        .flat_map(|(node, (queued, base))| {
            queued
                .iter()
                .flatten()
                .enumerate()
                .map(move |(shard, taken)| {
                    let Some(delta) = base.map(|base| &deltas[base + shard]) else {
                        return (None, &[][..]);
                    };
                    let degraded = degraded.contains(&(node * shards + shard));
                    if delta.alert_count == taken.len() && !degraded {
                        (Some(taken), &[][..])
                    } else {
                        (None, delta.emerging_docs.as_slice())
                    }
                })
        });
    if shard_docs.clone().all(|(queue, _)| queue.is_some()) {
        return None;
    }
    let mut docs: Vec<&EmergingDoc> = shard_docs
        .flat_map(|(queue, delta)| queue.into_iter().flat_map(ShardDocs::iter).chain(delta))
        .collect();
    docs.sort_unstable_by_key(|d| d.alert);
    Some(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{AlertId, StrategyId};

    fn doc(id: u64) -> EmergingDoc {
        let alert = Alert::builder(AlertId(id), StrategyId(0))
            .title("disk full")
            .build();
        EmergingDoc::from_alert(&alert)
    }

    /// A shard's delta: `alerts` delivered, carrying `docs` (what a
    /// degraded shard lists).
    fn delta(alerts: usize, docs: &[u64]) -> WindowDelta {
        WindowDelta {
            alert_count: alerts,
            emerging_docs: docs.iter().copied().map(doc).collect(),
            ..WindowDelta::identity()
        }
    }

    fn ids(docs: &[&EmergingDoc]) -> Vec<u64> {
        docs.iter().map(|d| d.alert.0).collect()
    }

    fn shard(ids: &[u64]) -> ShardDocs {
        ids.iter().copied().map(doc).collect()
    }

    /// Two nodes of two shards; node 0's shards queued alerts 4, 1 and
    /// 3, node 1's alerts 2 and 5.
    fn queued() -> Vec<Option<Vec<ShardDocs>>> {
        vec![
            Some(vec![shard(&[4, 1]), shard(&[3])]),
            Some(vec![shard(&[2]), shard(&[5])]),
        ]
    }

    #[test]
    fn clean_shards_keep_the_speculative_pass() {
        let queued = queued();
        let deltas = [delta(2, &[]), delta(1, &[]), delta(1, &[]), delta(1, &[])];
        let found = delivered_docs(&queued, &[Some(0), Some(2)], &deltas, &[], 2);
        assert!(found.is_none());
    }

    #[test]
    fn a_degraded_shard_contributes_its_survivors() {
        // Shard 0 of node 0 lost alert 4 to a restart; node 1's shard 1
        // lost its whole window mid-close.
        let queued = queued();
        let deltas = [delta(1, &[1]), delta(1, &[]), delta(1, &[]), delta(0, &[])];
        let found = delivered_docs(&queued, &[Some(0), Some(2)], &deltas, &[0, 3], 2);
        assert_eq!(ids(&found.expect("the pass is redone")), [1, 2, 3]);
    }

    #[test]
    fn a_count_mismatch_alone_redoes_the_pass() {
        let queued = queued();
        let deltas = [delta(2, &[]), delta(0, &[]), delta(1, &[]), delta(1, &[])];
        let found = delivered_docs(&queued, &[Some(0), Some(2)], &deltas, &[], 2);
        assert_eq!(ids(&found.expect("the pass is redone")), [1, 2, 4, 5]);
    }

    #[test]
    fn a_node_that_delivered_nothing_contributes_nothing() {
        let queued = queued();
        let deltas = [delta(2, &[]), delta(1, &[])];
        let found = delivered_docs(&queued, &[Some(0), None], &deltas, &[2, 3], 2);
        assert_eq!(ids(&found.expect("the pass is redone")), [1, 3, 4]);
        // A node never begun was never in the pass.
        let unbegun = [queued.into_iter().next().flatten(), None];
        assert!(delivered_docs(&unbegun, &[Some(0), None], &deltas, &[2, 3], 2).is_none());
    }
}
