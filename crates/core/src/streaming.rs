//! Streaming governance: the Fig. 6 loop run incrementally.
//!
//! A production deployment does not re-scan two years of alerts on every
//! pass — it ingests the stream window by window, keeps bounded rolling
//! state, and reacts to *deltas*: strategies newly flagged since the
//! last window, flags that cleared (the strategy was fixed or its noise
//! subsided), and storm onsets. [`StreamingGovernor`] wraps an
//! [`AlertGovernor`] around an
//! [`IncrementalState`](alertops_detect::IncrementalState) engine: each
//! window is folded into per-strategy counters and region-hour
//! histograms as a *digest*, and subtracted again when it slides out of
//! scope — so per-window cost is O(window), not O(history), while the
//! emitted deltas stay byte-identical to batch recomputation. The
//! engine tracks no cascade (A6) state here: the governor's dependency
//! graph is never handed to the engine (see
//! [`StreamingGovernor::ingest_uncommitted`]). It serves topology
//! correlation (R3), which runs where a window's deltas merge.
//!
//! A close reads only what changed. The engine hands over the
//! `(pattern, strategy)` flags that flipped
//! ([`FlagTransitions`](alertops_detect::FlagTransitions)), which are
//! the delta's `new_findings` and `resolved` as they stand. R1's
//! blocking rules are one set kept across windows, moved by those flips
//! and by each QoA verdict change. So beyond scoring the strategies the
//! window touched, a close costs nothing per held finding, per rule or
//! per catalog row. The engine evaluates against the governor's own
//! `Arc<IndexedCatalog>`: a shard holds its catalog once.
//!
//! A governor governs one partition of the stream and nothing more: a
//! [`WindowDelta`] carries mergeable *inputs* only. What reads the whole
//! window belongs to whoever closes it: R3, which links alerts across
//! strategies ([`GovernanceSnapshot::fill_triage`]), and the two
//! sequential passes over the whole stream (AO-LDA, the online QoA
//! model). A daemon's or cluster's merge point
//! (`alertops_ingestd::MergePoint`) runs all three; a library caller
//! with one governor runs them over its delta: `fill_triage` with the
//! governor's graph, then the two bare passes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use alertops_detect::storm::storms_from_histogram;
use alertops_detect::{AlertStorm, AntiPattern, IncrementalState, StormConfig, StrategyFinding};
use alertops_model::{Alert, AlertId, DependencyGraph, Incident, RegionId, StrategyId};
use alertops_qoa::{extract_features, QoaFeedbackConfig, QoaSample, QoaVerdicts, QoaWindowReport};
use alertops_react::{
    correlate_by_topology, AlertBlocker, EmergingConfig, EmergingDoc, EmergingReport,
    Representative,
};

use crate::governor::{AlertGovernor, BlockingRules};

/// Whether a *sequential* post-merge channel is on. The emerging-alert
/// channel (R4, AO-LDA) and the streaming QoA feedback loop share this
/// shape: each window's pass depends on the full preceding stream
/// (AO-LDA's adaptive prior, `partial_fit`'s order sensitivity), so the
/// single pass must run at the topmost merge point for N-shard output
/// to reproduce the 1-shard output byte-identically. A governor never
/// runs it; see the module docs for who does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelMode {
    /// The channel is off: nothing extracted, no reports.
    #[default]
    Off,
    /// Extract this window's input — documents into
    /// [`WindowDelta::emerging_docs`], per-strategy feature vectors
    /// into [`WindowDelta::qoa_samples`]. Whoever closes the window
    /// merges the forwards of all its governors, runs the one pass
    /// over them, and (for QoA) pushes the resulting [`QoaVerdicts`]
    /// back down before the next close.
    Forward,
}

/// One sequential channel's configuration, carried by
/// [`StreamingConfig`]: where the pass runs, plus the pass's own
/// config. The config rides through ingestd and cluster unchanged —
/// whichever process runs the pass applies it (including the emerging
/// channel's opt-in storm-load token budget,
/// [`alertops_react::EmergingBudget`]).
#[derive(Debug, Clone, Default)]
pub struct Channel<C> {
    /// Whether and where the pass runs.
    pub mode: ChannelMode,
    /// The pass's configuration.
    pub config: C,
}

impl<C: Clone> Channel<C> {
    /// The config, when the channel is on at all — what the topmost
    /// merge point runs the pass with.
    #[must_use]
    pub fn unless_off(&self) -> Option<C> {
        (self.mode != ChannelMode::Off).then(|| self.config.clone())
    }
}

/// [`ChannelMode`] of the emerging-alert (R4) channel.
pub type EmergingMode = ChannelMode;
/// [`ChannelMode`] of the streaming QoA feedback loop.
pub type QoaMode = ChannelMode;
/// Emerging-channel configuration (detector window length, topic
/// count, seed, budget).
pub type EmergingChannel = Channel<EmergingConfig>;
/// QoA-feedback configuration (learning rate, EMA smoothing, demotion
/// / escalation thresholds).
pub type QoaChannel = Channel<QoaFeedbackConfig>;

/// Configuration for [`StreamingGovernor`].
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// How many ingested windows of history the detectors see. Evidence
    /// older than this slides out of scope (bounded memory, and stale
    /// noise stops tainting fixed strategies).
    pub history_windows: usize,
    /// Storm detection configuration. A governor never reads it — a
    /// partition cannot know the global storm state — the merge point
    /// does, over the merged histogram.
    pub storm: StormConfig,
    /// The emerging-alert (R4) channel.
    pub emerging: Channel<EmergingConfig>,
    /// The streaming QoA feedback loop.
    pub qoa: Channel<QoaFeedbackConfig>,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self {
            history_windows: 24,
            storm: StormConfig::default(),
            emerging: Channel::default(),
            qoa: Channel::default(),
        }
    }
}

/// What changed in the governance picture after one ingested window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowDelta {
    /// 0-based index of the ingested window.
    pub window_index: u64,
    /// Alerts ingested in this window.
    pub alert_count: usize,
    /// Findings whose `(pattern, strategy)` was not flagged after the
    /// previous window — the items to page a strategy owner about.
    pub new_findings: Vec<StrategyFinding>,
    /// `(pattern, strategy)` pairs flagged after the previous window but
    /// clear now — fixes taking effect (or evidence sliding out).
    pub resolved: Vec<(AntiPattern, StrategyId)>,
    /// `(region, hour, count)` histogram over the *rolling history*
    /// scope this delta was computed from. Histograms from shards that
    /// partition the stream sum key-wise to the unsharded histogram,
    /// which is how [`GovernanceSnapshot::from_delta`] over the merged
    /// delta recovers exact global storm state (see
    /// `alertops_detect::storms_from_histogram`).
    pub region_hours: Vec<(RegionId, u64, usize)>,
    /// Hour buckets present in the ingested window itself, ascending
    /// and deduplicated — the hours that count as "now" for the storm
    /// flag.
    pub window_hours: Vec<u64>,
    /// What R3 reads of each R2 group's representative (R1's rules
    /// derived from the *current* findings), sorted by (`raised_at`,
    /// id): the input of the one correlation over the merged window,
    /// [`GovernanceSnapshot::fill_triage`].
    pub representatives: Vec<Representative>,
    /// Emerging-channel documents extracted from this window's alerts,
    /// sorted by alert id, when the governor runs in
    /// [`ChannelMode::Forward`]. Empty otherwise. Alert ids are unique,
    /// so however the window was sharded, the merged forwards sort back
    /// to one canonical document list ([`WindowDelta::merge_all`]).
    pub emerging_docs: Vec<EmergingDoc>,
    /// Per-strategy QoA feature vectors extracted from this window's
    /// alerts, sorted by strategy id, when the governor runs in
    /// [`ChannelMode::Forward`]. Empty otherwise. Strategies are sharded
    /// disjointly, so merged forwards sort back to one canonical
    /// sample list with unique keys.
    pub qoa_samples: Vec<QoaSample>,
    /// This window's alerts of QoA-promoted strategies, sorted by alert
    /// id: the escalation lane's input. Promotion is per strategy, so
    /// the merged forwards list exactly the promoted alerts of the
    /// window.
    pub promoted: Vec<AlertId>,
}

impl WindowDelta {
    /// The identity element of [`merged`](Self::merged): an empty
    /// window that changes nothing. `identity().merged(&d) == d` for
    /// every *canonical* delta `d` — one whose vector fields are in
    /// the canonical sort orders the merge produces (every delta the
    /// [`StreamingGovernor`] emits is canonical).
    #[must_use]
    pub fn identity() -> Self {
        Self {
            window_index: 0,
            alert_count: 0,
            new_findings: Vec::new(),
            resolved: Vec::new(),
            region_hours: Vec::new(),
            window_hours: Vec::new(),
            representatives: Vec::new(),
            emerging_docs: Vec::new(),
            qoa_samples: Vec::new(),
            promoted: Vec::new(),
        }
    }

    /// Merges two deltas of the *same* closed window produced over
    /// disjoint partitions of its alerts (different shards, or
    /// different nodes of a cluster).
    ///
    /// This is the commutative monoid the whole scale-out story rests
    /// on: counts and histograms sum, set-like fields union into
    /// canonical sort order, and `window_index` takes the maximum.
    /// Associativity, commutativity, and the identity law hold on
    /// every field — a delta carries mergeable inputs only, never the
    /// report of a sequential pass — and are proven by property tests
    /// in `tests/determinism.rs`; they are what let a cluster's
    /// merge point fold every node's shard deltas in one merge, in
    /// arrival order, and still reproduce the single-process
    /// governance picture byte for byte.
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self::merge_all(&[self.clone(), other.clone()])
    }

    /// Merges any number of same-window deltas in one pass; the n-ary
    /// form of [`merged`](Self::merged) (empty input yields
    /// [`identity`](Self::identity)).
    #[must_use]
    pub fn merge_all(deltas: &[WindowDelta]) -> WindowDelta {
        let window_index = deltas.iter().map(|d| d.window_index).max().unwrap_or(0);
        let alert_count = deltas.iter().map(|d| d.alert_count).sum();

        let mut new_findings: Vec<StrategyFinding> = deltas
            .iter()
            .flat_map(|d| d.new_findings.iter().cloned())
            .collect();
        new_findings.sort_by(|a, b| {
            (a.pattern, a.strategy, &a.evidence).cmp(&(b.pattern, b.strategy, &b.evidence))
        });

        let mut resolved: Vec<(AntiPattern, StrategyId)> = deltas
            .iter()
            .flat_map(|d| d.resolved.iter().copied())
            .collect();
        resolved.sort_unstable();

        let mut histogram: BTreeMap<(RegionId, u64), usize> = BTreeMap::new();
        for (region, hour, count) in deltas.iter().flat_map(|d| d.region_hours.iter()) {
            *histogram.entry((region.clone(), *hour)).or_insert(0) += count;
        }
        let region_hours: Vec<(RegionId, u64, usize)> = histogram
            .into_iter()
            .map(|((region, hour), count)| (region, hour, count))
            .collect();

        let window_hours: Vec<u64> = deltas
            .iter()
            .flat_map(|d| d.window_hours.iter().copied())
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .collect();

        // (raise time, id) order, the order R3 takes; the record's
        // remaining fields make the sort total for any input.
        let mut representatives: Vec<Representative> = deltas
            .iter()
            .flat_map(|d| d.representatives.iter().copied())
            .collect();
        representatives.sort_unstable();

        let emerging_docs = merge_emerging_docs(deltas);

        // Canonical sample order: by strategy id, ties broken by the
        // raw feature bits so the sort is total (shards never produce
        // duplicate strategies, but the monoid laws must hold for any
        // input).
        let mut qoa_samples: Vec<QoaSample> = deltas
            .iter()
            .flat_map(|d| d.qoa_samples.iter().cloned())
            .collect();
        qoa_samples.sort_by(|a, b| {
            a.strategy.cmp(&b.strategy).then_with(|| {
                a.features
                    .iter()
                    .map(|f| f.to_bits())
                    .cmp(b.features.iter().map(|f| f.to_bits()))
            })
        });

        let mut promoted: Vec<AlertId> = deltas
            .iter()
            .flat_map(|d| d.promoted.iter().copied())
            .collect();
        promoted.sort_unstable();

        WindowDelta {
            window_index,
            alert_count,
            new_findings,
            resolved,
            region_hours,
            window_hours,
            representatives,
            emerging_docs,
            qoa_samples,
            promoted,
        }
    }
}

/// The global governance picture for one closed window, merged from the
/// per-shard [`WindowDelta`]s of a sharded deployment (or from a single
/// delta, which it passes through).
///
/// Merging is exact for everything computed per strategy or per region:
/// alerts are sharded by `StrategyId`, so each `(pattern, strategy)`
/// flag lives on exactly one shard, and the summed region-hour
/// histograms reproduce the unsharded storm detector's input. Triage
/// and the escalation lane link alerts across strategies, so they are
/// computed once over the merged delta
/// ([`fill_triage`](Self::fill_triage)) and are as exact as the rest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GovernanceSnapshot {
    /// Index of the merged window.
    pub window_index: u64,
    /// Total alerts ingested across shards in this window.
    pub alert_count: usize,
    /// Newly flagged findings across shards, sorted by
    /// `(pattern, strategy)`.
    pub new_findings: Vec<StrategyFinding>,
    /// Flags cleared across shards, sorted.
    pub resolved: Vec<(AntiPattern, StrategyId)>,
    /// Storms over the merged region-hour histogram.
    pub storms: Vec<AlertStorm>,
    /// Whether any detected storm touches an hour present in this
    /// window.
    pub storm_active: bool,
    /// The source alert of each R3 cluster of the window's merged
    /// representatives, sorted by alert id. Empty until
    /// [`fill_triage`](Self::fill_triage).
    pub triage: Vec<AlertId>,
    /// Shards whose contribution to this window is degraded: their
    /// worker was restarted after a panic during the window, so alerts
    /// that were buffered (or mid-detection) at the time of the crash
    /// are missing from this window's picture. Empty in healthy
    /// windows; [`GovernanceSnapshot::from_delta`] always starts empty
    /// and the merge point fills it in.
    pub degraded: Vec<usize>,
    /// The emerging-channel (R4) report for this window, when the
    /// channel is enabled. [`GovernanceSnapshot::from_delta`] leaves
    /// it `None`: deltas carry only forwarded documents, and the
    /// topmost merge point runs the single AO-LDA pass over the
    /// window's merged documents *after* merging and fills this in,
    /// keeping 1-shard and N-shard output byte-identical.
    pub emerging: Option<EmergingReport>,
    /// Alerts escalated past storm suppression because their strategy
    /// is QoA-promoted and R3 did not surface them in `triage`, sorted
    /// by alert id. The explicit lane keeps the conservation law
    /// balanced: escalated alerts are a subset of the delivered ones,
    /// never an extra count. Empty until
    /// [`fill_triage`](Self::fill_triage).
    pub escalated: Vec<AlertId>,
    /// The QoA window report, when the feedback loop is enabled —
    /// same contract as `emerging`: filled in by the topmost merge
    /// point's model update over the merged
    /// [`WindowDelta::qoa_samples`].
    pub qoa: Option<QoaWindowReport>,
}

/// Collects the emerging-channel documents forwarded in one closed
/// window's deltas into the canonical order the merge point feeds
/// AO-LDA: sorted by alert id. Since alert ids are unique and sharding
/// only partitions the window, every shard count concatenates and sorts
/// to the same list.
fn merge_emerging_docs(deltas: &[WindowDelta]) -> Vec<EmergingDoc> {
    let mut docs: Vec<EmergingDoc> = deltas
        .iter()
        .flat_map(|d| d.emerging_docs.iter().cloned())
        .collect();
    docs.sort_by_key(|d| d.alert);
    docs
}

impl GovernanceSnapshot {
    /// Builds the snapshot of one (already merged, or single-source)
    /// delta: sorts the per-window lists into their canonical orders
    /// and reconstructs exact global storm state from the delta's
    /// region-hour histogram. A merge point folds its deltas through
    /// the [`WindowDelta`] monoid and calls this on the fold's result,
    /// then [`fill_triage`](Self::fill_triage).
    #[must_use]
    pub fn from_delta(delta: &WindowDelta, storm: &StormConfig) -> Self {
        let mut histogram: BTreeMap<(RegionId, u64), usize> = BTreeMap::new();
        for (region, hour, count) in &delta.region_hours {
            *histogram.entry((region.clone(), *hour)).or_insert(0) += count;
        }
        let storms = storms_from_histogram(histogram, storm);

        let window_hours: BTreeSet<u64> = delta.window_hours.iter().copied().collect();
        let storm_active = storms
            .iter()
            .any(|s| s.hours.iter().any(|h| window_hours.contains(h)));

        let mut new_findings = delta.new_findings.clone();
        new_findings.sort_by(|a, b| {
            (a.pattern, a.strategy, &a.evidence).cmp(&(b.pattern, b.strategy, &b.evidence))
        });
        let mut resolved = delta.resolved.clone();
        resolved.sort_unstable();

        Self {
            window_index: delta.window_index,
            alert_count: delta.alert_count,
            new_findings,
            resolved,
            storms,
            storm_active,
            triage: Vec::new(),
            degraded: Vec::new(),
            emerging: None,
            escalated: Vec::new(),
            qoa: None,
        }
    }

    /// R3 and the escalation lane, once over a window's whole `delta`
    /// (merged, or a single governor's): correlates its
    /// representatives by the service topology `graph` into
    /// [`triage`](Self::triage), and escalates each promoted alert that
    /// triage does not list. R3 links alerts of different strategies,
    /// so run over the merged delta it is what one governor over the
    /// whole window publishes, whatever the partition.
    pub fn fill_triage(&mut self, delta: &WindowDelta, graph: Option<&DependencyGraph>) {
        let clusters = correlate_by_topology(&delta.representatives, graph);
        self.triage = clusters.iter().map(|cluster| cluster.source).collect();
        self.triage.sort_unstable();
        let promoted = delta.promoted.iter().copied();
        self.escalated = promoted
            .filter(|id| self.triage.binary_search(id).is_err())
            .collect();
    }
}

/// Incremental governance over an alert stream.
///
/// # Example
///
/// ```
/// use alertops_core::{AlertGovernor, GovernorConfig, StreamingConfig, StreamingGovernor};
/// use alertops_model::{Alert, AlertId, LogRule, SimDuration, SimTime, StrategyId, StrategyKind};
///
/// # fn main() -> Result<(), alertops_model::ModelError> {
/// let strategy = alertops_model::AlertStrategy::builder(StrategyId(0))
///     .title_template("Instance x is abnormal")
///     .kind(StrategyKind::Log(LogRule {
///         keyword: "E".into(),
///         min_count: 1,
///         window: SimDuration::from_mins(5),
///     }))
///     .build()?;
/// let governor = AlertGovernor::new(vec![strategy], GovernorConfig::default());
/// let mut streaming = StreamingGovernor::new(governor, StreamingConfig::default());
/// let window: Vec<Alert> = (0..3)
///     .map(|i| Alert::builder(AlertId(i), StrategyId(0)).raised_at(SimTime::from_secs(i * 60)).build())
///     .collect();
/// let delta = streaming.ingest(&window, &[]);
/// assert_eq!(delta.window_index, 0);
/// assert_eq!(delta.alert_count, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingGovernor {
    governor: AlertGovernor,
    config: StreamingConfig,
    /// Holds the flags announced so far, and evaluates against the
    /// governor's catalog allocation.
    engine: IncrementalState,
    incidents: Vec<Incident>,
    /// R1, current with the engine's flags and the QoA verdicts.
    rules: BlockingRules,
    windows_ingested: u64,
    /// `windows_ingested` as of the last [`commit`](Self::commit) —
    /// what [`rollback`](Self::rollback) puts back.
    windows_committed: u64,
}

impl StreamingGovernor {
    /// Wraps a governor for streaming use.
    #[must_use]
    pub fn new(governor: AlertGovernor, config: StreamingConfig) -> Self {
        let mut rules = BlockingRules::default();
        rules.set_verdicts(&QoaVerdicts::default(), governor.qoa_verdicts());
        Self {
            governor,
            config,
            engine: IncrementalState::default(),
            incidents: Vec::new(),
            rules,
            windows_ingested: 0,
            windows_committed: 0,
        }
    }

    /// Makes this governor a shard below a merge point whose channels
    /// are configured as `streaming`: it forwards exactly the inputs
    /// that merge point consumes from its deltas, however the caller
    /// built the governor. This is what keeps N-shard output
    /// byte-identical to 1-shard. The QoA channel's samples are
    /// forwarded; the emerging channel's documents are not, because a
    /// shard queue records them as it queues the alerts and hands them
    /// to the merge point with the close. The dependency graph is
    /// handed back for the merge point's R3
    /// ([`GovernanceSnapshot::fill_triage`]): the shard holds none.
    #[must_use]
    pub fn into_shard(
        mut self,
        streaming: &StreamingConfig,
    ) -> (Self, Option<Arc<DependencyGraph>>) {
        self.config.emerging.mode = ChannelMode::Off;
        self.config.qoa.mode = streaming.qoa.mode;
        let graph = self.governor.take_dependency_graph();
        (self, graph)
    }

    /// Installs QoA verdicts on the wrapped governor — how whoever
    /// closes the window pushes the model's conclusions back down
    /// between closes — and moves R1's rules with them.
    pub fn set_qoa_verdicts(&mut self, verdicts: QoaVerdicts) {
        self.rules
            .set_verdicts(self.governor.qoa_verdicts(), &verdicts);
        self.governor.set_qoa_verdicts(verdicts);
    }

    /// The wrapped governor.
    #[must_use]
    pub fn governor(&self) -> &AlertGovernor {
        &self.governor
    }

    /// Every `(pattern, strategy)` flag announced and not yet resolved
    /// — none before the first window.
    pub fn flags(&self) -> impl Iterator<Item = (AntiPattern, StrategyId)> + '_ {
        self.engine.flags()
    }

    /// R1's blocking rules as they stand: a rule per A4/A5 flag in
    /// [`flags`](Self::flags) of a strategy the installed QoA verdicts
    /// do not promote, and one per demoted strategy.
    #[must_use]
    pub fn blocker(&self) -> &AlertBlocker {
        self.rules.blocker()
    }

    /// Attaches metric handles to the wrapped governor: detector and
    /// reaction-stage instrumentation plus a wall-time histogram over
    /// each [`ingest`](Self::ingest) call. Observer-only — deltas are
    /// identical with or without metrics.
    #[must_use]
    pub fn with_metrics(mut self, metrics: crate::GovernorMetrics) -> Self {
        self.governor.set_metrics(metrics);
        self
    }

    /// Number of windows ingested so far.
    #[must_use]
    pub fn windows_ingested(&self) -> u64 {
        self.windows_ingested
    }

    /// Alerts currently inside the rolling history. O(1): the engine
    /// tracks the count as windows are observed and evicted. Serves
    /// `tests/incremental_equivalence.rs::incremental_streaming_matches_batch_recompute`.
    #[doc(hidden)]
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.engine.alert_count()
    }

    /// Ingests one window of (time-sorted) alerts plus any incidents
    /// declared during it, folds the window into the incremental
    /// detection engine (evicting windows that slide out of the rolling
    /// scope), and returns the delta.
    ///
    /// Exactly [`ingest_uncommitted`](Self::ingest_uncommitted)
    /// followed by [`commit`](Self::commit): a holder that only ever
    /// ingests keeps nothing around for a rollback it will never ask
    /// for.
    pub fn ingest(&mut self, window: &[Alert], incidents: &[Incident]) -> WindowDelta {
        let delta = self.ingest_uncommitted(window, incidents);
        self.commit();
        delta
    }

    /// [`ingest`](Self::ingest) that leaves the window applied but not
    /// committed: until [`commit`](Self::commit),
    /// [`rollback`](Self::rollback) can still undo it. For a holder
    /// that must survive a panic between a window's detection and its
    /// hand-off (the daemon's shard worker).
    pub fn ingest_uncommitted(&mut self, window: &[Alert], incidents: &[Incident]) -> WindowDelta {
        let metrics = self.governor.metrics();
        let _span = metrics.map(|m| m.ingest_timer());
        let detect_metrics = metrics.map(|m| &m.detect);

        // The engine never gets the governor's dependency graph, here
        // or in `rollback`: cascade groups (A6) have no reader on this
        // path — deltas and snapshots carry no cascade field, R1 reads
        // A4/A5, and R3 runs where the window's deltas merge — and
        // under strategy sharding a shard would group fragments of
        // every cascade. Publishing them online would take a post-merge
        // channel, not per-shard state.
        self.engine.observe_window(window, None, detect_metrics);
        while self.engine.window_count() > self.config.history_windows {
            self.engine.evict_window(detect_metrics);
        }
        self.incidents.extend(incidents.iter().cloned());

        // Prune incidents that can no longer intersect the retained
        // evidence — without this the incident list grows for the
        // lifetime of the stream. Open incidents are always kept; with
        // no alerts in scope every closed incident is prunable, since a
        // closed incident cannot influence detection without alert
        // evidence to co-occur with.
        match self.engine.oldest_alert_time() {
            Some(oldest) => self.incidents.retain(|inc| {
                inc.is_open()
                    || match inc.status() {
                        alertops_model::IncidentStatus::Mitigated { at } => at >= oldest,
                        alertops_model::IncidentStatus::Open => true,
                    }
            }),
            None => self.incidents.retain(Incident::is_open),
        }

        // What changed is all this close reads: the engine hands over
        // its flag transitions, and R1 moves by them.
        let transitions =
            self.engine
                .evaluate(self.governor.catalog(), &self.incidents, detect_metrics);
        self.rules.apply(&transitions, self.governor.qoa_verdicts());

        let region_hours: Vec<(RegionId, u64, usize)> = self
            .engine
            .histogram()
            .iter()
            .map(|(key, count)| (key.0.clone(), key.1, *count))
            .collect();
        let window_hours: Vec<u64> = window
            .iter()
            .map(Alert::hour_bucket)
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .collect();

        // R1 and R2; R3 runs over the merged window.
        let representatives = self
            .governor
            .pipeline()
            .representatives(window, self.rules.blocker());

        // The escalation lane's input: this window's alerts of
        // QoA-promoted strategies, by the verdicts installed at the
        // previous window boundary — like R1 above, so window N is
        // governed entirely by what window N-1 taught the model.
        let promoted = &self.governor.qoa_verdicts().promoted;
        let mut promoted: Vec<AlertId> = window
            .iter()
            .filter(|a| promoted.binary_search(&a.strategy()).is_ok())
            .map(Alert::id)
            .collect();
        promoted.sort_unstable();
        promoted.dedup();

        // The QoA channel's input: one feature vector per strategy
        // that alerted, canonically sorted by strategy id. The title
        // score is read from the catalog, which scores each row once.
        let qoa_samples: Vec<QoaSample> = match self.config.qoa.mode {
            ChannelMode::Off => Vec::new(),
            ChannelMode::Forward => {
                let mut by_strategy: BTreeMap<StrategyId, Vec<&Alert>> = BTreeMap::new();
                for alert in window {
                    by_strategy.entry(alert.strategy()).or_default().push(alert);
                }
                let catalog = self.governor.catalog();
                by_strategy
                    .iter()
                    .filter_map(|(&id, alerts)| {
                        Some(QoaSample {
                            strategy: id,
                            features: extract_features(
                                catalog.get(id)?,
                                catalog.title_score(id)?,
                                self.governor.sop(id),
                                alerts,
                                &self.incidents,
                            ),
                        })
                    })
                    .collect()
            }
        };

        // R4 — the emerging channel's input. The document list is
        // canonically sorted by alert id so the pass over merged
        // forwards sees the same order at any shard count
        // (floating-point accumulation makes document order part of
        // the byte-identical contract).
        let emerging_docs: Vec<EmergingDoc> = match self.config.emerging.mode {
            ChannelMode::Off => Vec::new(),
            ChannelMode::Forward => {
                let mut docs: Vec<EmergingDoc> =
                    window.iter().map(EmergingDoc::from_alert).collect();
                docs.sort_by_key(|d| d.alert);
                docs
            }
        };

        let delta = WindowDelta {
            window_index: self.windows_ingested,
            alert_count: window.len(),
            new_findings: transitions.raised,
            resolved: transitions.cleared,
            region_hours,
            window_hours,
            representatives,
            emerging_docs,
            qoa_samples,
            promoted,
        };
        self.windows_ingested += 1;
        delta
    }

    /// Makes the current state the one [`rollback`](Self::rollback)
    /// returns to. O(1) besides dropping what was kept for the
    /// previous commit point.
    pub fn commit(&mut self) {
        self.engine.commit();
        self.windows_committed = self.windows_ingested;
    }

    /// Returns to the state of the last [`commit`](Self::commit) (the
    /// governor as constructed, if there was none). The engine is
    /// rebuilt from its own window digests
    /// ([`IncrementalState::rollback`], O(history); there are no
    /// cascade edges to re-derive, since the engine was never given the
    /// graph) and goes back to the flags announced as of the commit —
    /// none before the first window, though the catalog's unclear
    /// titles are already flagged then. R1 moves back by the flags that restored, and the window
    /// index is put back. The next delta is the one the governor would
    /// have emitted had the undone ingest never started, however far it
    /// got. Exact when the stream carried no incidents
    /// (true of every daemon shard), because the incident list is not
    /// rewound. QoA verdicts are deliberately not rewound either: they
    /// are pushed from outside, and a recovery must not regress them.
    pub fn rollback(&mut self) {
        let restored = self.engine.rollback(None);
        self.rules.apply(&restored, self.governor.qoa_verdicts());
        self.windows_ingested = self.windows_committed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::governor::GovernorConfig;
    use alertops_model::{
        AlertStrategy, Clearance, LogRule, QoaLabel, SimDuration, SimTime, StrategyKind,
    };
    use alertops_qoa::OnlineQoaModel;
    use alertops_react::EmergingAlertDetector;

    fn noisy_strategy(id: u64) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(id))
            .title_template("haproxy process number warning")
            .kind(StrategyKind::Log(LogRule {
                keyword: "WARN".into(),
                min_count: 1,
                window: SimDuration::from_mins(5),
            }))
            .build()
            .unwrap()
    }

    /// `n` transient alerts of `strategy` inside hour `hour`.
    fn transient_window(start_id: u64, strategy: u64, hour: u64, n: usize) -> Vec<Alert> {
        let spacing = (3_500 / n.max(1)) as u64;
        (0..n as u64)
            .map(|i| {
                let t = SimTime::from_secs(hour * 3_600 + i * spacing.max(1));
                let mut a = Alert::builder(AlertId(start_id + i), StrategyId(strategy))
                    .title("haproxy process number warning")
                    .raised_at(t)
                    .build();
                a.clear(t + SimDuration::from_secs(30), Clearance::Auto)
                    .unwrap();
                a
            })
            .collect()
    }

    /// The snapshot a window's close publishes from `delta`, triage
    /// filled in by `graph`.
    fn closed(delta: &WindowDelta, graph: Option<&DependencyGraph>) -> GovernanceSnapshot {
        let mut snapshot = GovernanceSnapshot::from_delta(delta, &StormConfig::default());
        snapshot.fill_triage(delta, graph);
        snapshot
    }

    fn streaming(history_windows: usize) -> StreamingGovernor {
        let governor = AlertGovernor::new(
            vec![noisy_strategy(1), noisy_strategy(2)],
            GovernorConfig::default(),
        );
        StreamingGovernor::new(
            governor,
            StreamingConfig {
                history_windows,
                ..StreamingConfig::default()
            },
        )
    }

    #[test]
    fn findings_appear_once_then_stay_quiet() {
        let mut s = streaming(24);
        // Hour 0: enough transients to trip A4 on strategy 1.
        let d0 = s.ingest(&transient_window(0, 1, 0, 8), &[]);
        assert_eq!(d0.window_index, 0);
        assert!(
            d0.new_findings.iter().any(|f| f.strategy == StrategyId(1)),
            "A4 should fire on the first window: {:?}",
            d0.new_findings
        );
        // Hour 1: same behaviour continues — no *new* findings.
        let d1 = s.ingest(&transient_window(100, 1, 1, 8), &[]);
        assert!(
            d1.new_findings.is_empty(),
            "already-known findings must not repeat: {:?}",
            d1.new_findings
        );
        assert!(d1.resolved.is_empty());
    }

    #[test]
    fn fixed_strategy_resolves_when_evidence_slides_out() {
        let mut s = streaming(2); // short memory
        s.ingest(&transient_window(0, 1, 0, 8), &[]);
        // Two quiet windows push the noisy evidence out of history.
        let quiet: Vec<Alert> = Vec::new();
        s.ingest(&quiet, &[]);
        let d = s.ingest(&quiet, &[]);
        assert!(
            d.resolved
                .iter()
                .any(|&(_, strategy)| strategy == StrategyId(1)),
            "flag should resolve once evidence leaves scope: {:?}",
            d.resolved
        );
    }

    #[test]
    fn history_is_bounded() {
        let mut s = streaming(3);
        for hour in 0..10u64 {
            s.ingest(&transient_window(hour * 100, 1, hour, 5), &[]);
        }
        assert_eq!(s.windows_ingested(), 10);
        assert_eq!(s.history_len(), 15, "3 windows × 5 alerts");
    }

    #[test]
    fn plain_ingest_keeps_nothing_for_a_rollback() {
        // Every holder that only ever calls `ingest` (oracles, the
        // CLI) must stay as small as it was before rollback existed:
        // nothing kept between calls.
        let mut s = streaming(3);
        for hour in 0..30u64 {
            s.ingest(&transient_window(hour * 100, 1, hour, 5), &[]);
            assert_eq!(s.engine.kept_digests(), 0);
            assert_eq!(s.windows_committed, s.windows_ingested);
        }
        // The uncommitted entry point is the one that keeps them.
        s.ingest_uncommitted(&transient_window(9_000, 1, 30, 5), &[]);
        assert_eq!(s.engine.kept_digests(), 1);
        assert_eq!(s.windows_committed + 1, s.windows_ingested);
    }

    #[test]
    fn the_graph_reaches_react_but_never_the_engine() {
        use alertops_detect::{CascadingDetector, DetectionInput};
        use alertops_model::MicroserviceId;

        // m0 calls m1 calls m2; a fault in m2 surfaces as one alert per
        // tier, a minute apart, each from its own strategy.
        let graph: DependencyGraph = [
            (MicroserviceId(0), MicroserviceId(1)),
            (MicroserviceId(1), MicroserviceId(2)),
        ]
        .into_iter()
        .collect();
        let catalog = vec![noisy_strategy(1), noisy_strategy(2), noisy_strategy(3)];
        let windows: Vec<Vec<Alert>> = (0..3u64)
            .map(|hour| {
                (0..3u64)
                    .map(|tier| {
                        Alert::builder(AlertId(hour * 10 + tier), StrategyId(1 + tier))
                            .title("haproxy process number warning")
                            .microservice(MicroserviceId(2 - tier))
                            .raised_at(SimTime::from_secs(hour * 3_600 + tier * 60))
                            .build()
                    })
                    .collect()
            })
            .collect();
        let input = DetectionInput::new(&catalog)
            .with_alerts(&windows[0])
            .with_graph(&graph);
        assert_eq!(
            CascadingDetector::default().detect_groups(&input).len(),
            1,
            "the stream must hold a cascade for the graph to matter"
        );

        let mut s = StreamingGovernor::new(
            AlertGovernor::new(catalog, GovernorConfig::default())
                .with_dependency_graph(graph.clone()),
            StreamingConfig {
                history_windows: 2,
                ..StreamingConfig::default()
            },
        );
        let mut no_graph = IncrementalState::default();
        let mut with_graph = IncrementalState::default();
        for window in &windows {
            // R3 still correlates by topology where the window closes:
            // the two upstream alerts fold into the one at the faulty
            // tier.
            let delta = s.ingest_uncommitted(window, &[]);
            assert_eq!(closed(&delta, Some(&graph)).triage, vec![window[0].id()]);
            for (engine, graph) in [(&mut no_graph, None), (&mut with_graph, Some(&graph))] {
                engine.observe_window(window, graph, None);
                while engine.window_count() > 2 {
                    engine.evict_window(None);
                }
            }
            // Engine equality covers cascade edges, so this fails if
            // the graph is ever handed to the engine again.
            assert_eq!(s.engine, no_graph);
            assert_ne!(s.engine, with_graph);
            s.commit();
        }
        // A rollback lands on the same graph-free engine.
        s.ingest_uncommitted(&windows[0], &[]);
        s.rollback();
        assert_eq!(s.engine, no_graph);
    }

    #[test]
    fn triage_covers_only_the_current_window() {
        let mut s = streaming(24);
        let window = transient_window(0, 2, 0, 6);
        let delta = s.ingest(&window, &[]);
        let snapshot = closed(&delta, None);
        for id in snapshot
            .triage
            .iter()
            .chain(delta.representatives.iter().map(|r| &r.id))
        {
            assert!(window.iter().any(|a| a.id() == *id));
        }
    }

    #[test]
    fn storm_flag_follows_volume() {
        let mut s = streaming(24);
        let storm_active = |delta: &WindowDelta| {
            GovernanceSnapshot::from_delta(delta, &StormConfig::default()).storm_active
        };
        let calm = s.ingest(&transient_window(0, 1, 0, 10), &[]);
        assert!(!storm_active(&calm));
        // 150 alerts in one hour: above the 100/region/hour bar.
        let stormy = s.ingest(&transient_window(1_000, 2, 1, 150), &[]);
        assert!(storm_active(&stormy));
    }

    #[test]
    fn mitigated_incidents_are_pruned_with_history() {
        use alertops_model::{Incident, IncidentId, ServiceId, Severity};
        let mut s = streaming(2);
        let mut old_incident = Incident::new(
            IncidentId(0),
            ServiceId(0),
            Severity::Critical,
            SimTime::from_secs(0),
        );
        old_incident.mitigate(SimTime::from_secs(600));
        s.ingest(&transient_window(0, 1, 0, 4), &[old_incident]);
        // Two later windows slide hour 0 out of history; the mitigated
        // incident must go with it.
        s.ingest(&transient_window(100, 1, 5, 4), &[]);
        s.ingest(&transient_window(200, 1, 6, 4), &[]);
        assert!(s.incidents.is_empty(), "stale incident retained");
        // An open incident survives any amount of sliding.
        let open = Incident::new(
            IncidentId(1),
            ServiceId(0),
            Severity::Critical,
            SimTime::from_secs(0),
        );
        s.ingest(&transient_window(300, 1, 7, 4), &[open]);
        s.ingest(&transient_window(400, 1, 9, 4), &[]);
        assert_eq!(s.incidents.len(), 1);
    }

    #[test]
    fn empty_window_is_fine() {
        let mut s = streaming(4);
        let d = s.ingest(&[], &[]);
        assert_eq!(d.alert_count, 0);
        assert!(d.representatives.is_empty());
        assert!(closed(&d, None).triage.is_empty());
        assert!(d.region_hours.is_empty() && d.window_hours.is_empty());
    }

    #[test]
    fn window_delta_roundtrips_through_json() {
        let mut s = streaming(24);
        let delta = s.ingest(&transient_window(0, 1, 0, 8), &[]);
        let json = serde_json::to_string(&delta).unwrap();
        let back: WindowDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(delta, back);
        assert!(!delta.region_hours.is_empty());
        assert_eq!(delta.window_hours, vec![0]);
    }

    #[test]
    fn snapshot_merge_of_single_delta_preserves_fields() {
        let mut s = streaming(24);
        let window = transient_window(1_000, 2, 1, 150);
        let delta = s.ingest(&window, &[]);
        let mut snapshot = GovernanceSnapshot::from_delta(
            &WindowDelta::merge_all(std::slice::from_ref(&delta)),
            &StormConfig::default(),
        );
        snapshot.fill_triage(&delta, None);
        assert_eq!(snapshot.window_index, delta.window_index);
        assert_eq!(snapshot.alert_count, delta.alert_count);
        assert!(snapshot.storm_active, "150 alerts/hour is a storm");
        assert_eq!(snapshot.storms.len(), 1);
        // The filled triage is the batch pipeline's over the window.
        let mut triage = s.governor().react(&window, s.blocker()).triage;
        triage.sort_unstable();
        assert_eq!(snapshot.triage, triage);
        assert!(snapshot.degraded.is_empty(), "merge never marks degraded");
        assert!(snapshot.emerging.is_none() && snapshot.qoa.is_none());
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: GovernanceSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snapshot, back);
    }

    #[test]
    fn closed_single_delta_carries_both_reports_and_roundtrips() {
        // The 1-shard library path: one Forward governor, then the two
        // bare passes over its delta fill in the reports.
        let window = transient_window(1_000, 2, 1, 150);
        let config = StreamingConfig {
            emerging: Channel {
                mode: ChannelMode::Forward,
                ..Channel::default()
            },
            qoa: Channel {
                mode: ChannelMode::Forward,
                ..Channel::default()
            },
            ..StreamingConfig::default()
        };
        let mut detector = EmergingAlertDetector::new(config.emerging.config.clone());
        let mut model = OnlineQoaModel::new(config.qoa.config);
        let delta = StreamingGovernor::new(
            AlertGovernor::new(vec![noisy_strategy(2)], GovernorConfig::default()),
            config,
        )
        .ingest(&window, &[]);
        assert!(!delta.emerging_docs.is_empty() && !delta.qoa_samples.is_empty());
        let mut snapshot = GovernanceSnapshot::from_delta(&delta, &StormConfig::default());
        assert!(snapshot.emerging.is_none() && snapshot.qoa.is_none());
        let emerging = detector.observe_docs(&delta.emerging_docs);
        assert_eq!(emerging.alert_count, window.len());
        snapshot.emerging = Some(emerging);
        let qoa = model.observe_window(&delta.qoa_samples, &labels_for(&window, true));
        assert_eq!(qoa.absorbed, 1, "one labeled strategy alerted");
        snapshot.qoa = Some(qoa);
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: GovernanceSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snapshot, back);
    }

    fn streaming_with_emerging(mode: ChannelMode) -> StreamingGovernor {
        let governor = AlertGovernor::new(
            vec![noisy_strategy(1), noisy_strategy(2)],
            GovernorConfig::default(),
        );
        StreamingGovernor::new(
            governor,
            StreamingConfig {
                emerging: Channel {
                    mode,
                    config: EmergingConfig::default(),
                },
                ..StreamingConfig::default()
            },
        )
    }

    #[test]
    fn emerging_off_emits_nothing() {
        let mut s = streaming(24);
        assert_eq!(s.config.emerging.mode, ChannelMode::Off);
        let d = s.ingest(&transient_window(0, 1, 0, 5), &[]);
        assert!(d.emerging_docs.is_empty());
    }

    #[test]
    fn forward_mode_extracts_docs_sorted_by_id() {
        let mut s = streaming_with_emerging(ChannelMode::Forward);
        let d = s.ingest(&transient_window(10, 1, 0, 5), &[]);
        assert_eq!(d.emerging_docs.len(), 5);
        assert!(d.emerging_docs.windows(2).all(|w| w[0].alert < w[1].alert));
        // An empty window still forwards (an empty list) so the
        // coordinator sees every wall-clock window.
        let empty = s.ingest(&[], &[]);
        assert!(empty.emerging_docs.is_empty());
    }

    #[test]
    fn one_closed_governor_equals_two_merged_shards_under_a_bare_detector() {
        let mut single = streaming_with_emerging(ChannelMode::Forward);
        let mut detector = EmergingAlertDetector::new(EmergingConfig::default());
        let mut shard_a = streaming_with_emerging(ChannelMode::Forward);
        let mut shard_b = streaming_with_emerging(ChannelMode::Forward);
        let mut coordinator = EmergingAlertDetector::new(EmergingConfig::default());
        for hour in 0..3u64 {
            let window = transient_window(hour * 100, 1, hour, 6);
            let delta = single.ingest(&window, &[]);
            let single_report = detector.observe_docs(&delta.emerging_docs);
            // Partition the window across two "shards" by id parity.
            let (wa, wb): (Vec<Alert>, Vec<Alert>) =
                window.iter().cloned().partition(|a| a.id().0 % 2 == 0);
            let da = shard_a.ingest(&wa, &[]);
            let db = shard_b.ingest(&wb, &[]);
            let docs = WindowDelta::merge_all(&[da, db]).emerging_docs;
            assert_eq!(delta.emerging_docs, docs, "window {hour}");
            let merged_report = coordinator.observe_docs(&docs);
            assert_eq!(single_report, merged_report);
        }
    }

    #[test]
    fn delta_monoid_smoke() {
        // The full law suite lives in tests/determinism.rs; this pins
        // the basics close to the implementation.
        let mut a = streaming(24);
        let mut b = streaming(24);
        let da = a.ingest(&transient_window(0, 1, 0, 8), &[]);
        let db = b.ingest(&transient_window(500, 2, 0, 6), &[]);
        assert_eq!(WindowDelta::identity().merged(&da), da);
        assert_eq!(da.merged(&db), db.merged(&da));
        assert_eq!(da.merged(&db), WindowDelta::merge_all(&[da, db]));
    }

    fn streaming_with_qoa(mode: ChannelMode) -> StreamingGovernor {
        let governor = AlertGovernor::new(
            vec![noisy_strategy(1), noisy_strategy(2)],
            GovernorConfig::default(),
        );
        StreamingGovernor::new(
            governor,
            StreamingConfig {
                qoa: Channel {
                    mode,
                    config: QoaFeedbackConfig::default(),
                },
                ..StreamingConfig::default()
            },
        )
    }

    fn labels_for(window: &[Alert], high: bool) -> Vec<QoaLabel> {
        let ids: BTreeSet<StrategyId> = window.iter().map(Alert::strategy).collect();
        ids.into_iter()
            .map(|id| QoaLabel::new(id, [high; 3]))
            .collect()
    }

    #[test]
    fn qoa_off_emits_nothing() {
        let mut s = streaming(24);
        assert_eq!(s.config.qoa.mode, ChannelMode::Off);
        let d = s.ingest(&transient_window(0, 1, 0, 5), &[]);
        assert!(d.qoa_samples.is_empty());
        assert!(d.promoted.is_empty());
        assert!(closed(&d, None).escalated.is_empty());
    }

    #[test]
    fn forward_mode_extracts_one_sample_per_strategy() {
        let mut s = streaming_with_qoa(ChannelMode::Forward);
        let mut window = transient_window(0, 1, 0, 5);
        window.extend(transient_window(100, 2, 0, 3));
        window.sort_by_key(|a| (a.raised_at(), a.id()));
        let d = s.ingest(&window, &[]);
        assert_eq!(d.qoa_samples.len(), 2);
        assert!(d
            .qoa_samples
            .windows(2)
            .all(|w| w[0].strategy < w[1].strategy));
        for sample in &d.qoa_samples {
            assert_eq!(sample.features.len(), alertops_qoa::FEATURE_NAMES.len());
        }
    }

    #[test]
    fn one_closed_governor_equals_two_merged_shards_under_a_bare_model() {
        let mut single = streaming_with_qoa(ChannelMode::Forward);
        let mut model = OnlineQoaModel::new(QoaFeedbackConfig::default());
        let mut shard_a = streaming_with_qoa(ChannelMode::Forward);
        let mut shard_b = streaming_with_qoa(ChannelMode::Forward);
        let mut coordinator = OnlineQoaModel::new(QoaFeedbackConfig::default());
        for hour in 0..4u64 {
            let mut window = transient_window(hour * 1_000, 1, hour, 6);
            window.extend(transient_window(hour * 1_000 + 500, 2, hour, 4));
            window.sort_by_key(|a| (a.raised_at(), a.id()));
            let labels = labels_for(&window, hour % 2 == 0);
            let delta = single.ingest(&window, &[]);
            let single_report = model.observe_window(&delta.qoa_samples, &labels);
            single.set_qoa_verdicts(model.verdicts());
            // Shard by strategy id — the daemon's partitioning.
            let (wa, wb): (Vec<Alert>, Vec<Alert>) = window
                .iter()
                .cloned()
                .partition(|a| a.strategy() == StrategyId(1));
            let da = shard_a.ingest(&wa, &[]);
            let db = shard_b.ingest(&wb, &[]);
            let merged = da.merged(&db);
            let merged_report = coordinator.observe_window(&merged.qoa_samples, &labels);
            assert_eq!(single_report, merged_report, "diverged at window {hour}");
            // Push the verdicts back down, as the daemon coordinator
            // does between closes.
            shard_a.set_qoa_verdicts(coordinator.verdicts());
            shard_b.set_qoa_verdicts(coordinator.verdicts());
        }
        assert_eq!(model.digest(), coordinator.digest());
    }

    #[test]
    fn promoted_strategies_escalate_untriaged_alerts() {
        let mut s = streaming_with_qoa(ChannelMode::Forward);
        s.set_qoa_verdicts(QoaVerdicts {
            demoted: Vec::new(),
            promoted: vec![StrategyId(2)],
        });
        let mut window = transient_window(0, 1, 0, 5);
        window.extend(transient_window(100, 2, 0, 4));
        window.sort_by_key(|a| (a.raised_at(), a.id()));
        let d = s.ingest(&window, &[]);
        let snapshot = closed(&d, None);
        assert!(!snapshot.escalated.is_empty());
        let triaged: BTreeSet<AlertId> = snapshot.triage.iter().copied().collect();
        for id in &snapshot.escalated {
            let alert = window.iter().find(|a| a.id() == *id).expect("window alert");
            assert_eq!(alert.strategy(), StrategyId(2));
            assert!(!triaged.contains(id), "escalated lane excludes triage");
        }
    }

    #[test]
    fn snapshot_merge_sums_disjoint_histograms() {
        // Two "shards" each see 80 alerts of r1-hour-0 — below the
        // storm bar alone, above it combined.
        let mut shard_a = streaming(24);
        let mut shard_b = streaming(24);
        let da = shard_a.ingest(&transient_window(0, 1, 0, 80), &[]);
        let db = shard_b.ingest(&transient_window(500, 2, 0, 80), &[]);
        for alone in [&da, &db] {
            let alone = GovernanceSnapshot::from_delta(alone, &StormConfig::default());
            assert!(!alone.storm_active, "80 alerts/hour is below the bar");
        }
        let merged = GovernanceSnapshot::from_delta(
            &WindowDelta::merge_all(&[da, db]),
            &StormConfig::default(),
        );
        assert!(merged.storm_active, "shards must sum to a global storm");
        assert_eq!(merged.alert_count, 160);
        assert_eq!(merged.storms[0].total_alerts, 160);
    }

    /// Two promoted strategies on microservices A and B, where B calls
    /// A; one alert on A at 0 s and one on B at 60 s. One governor over
    /// both, and two governors of one alert each merged, publish the
    /// same triage and escalation lane: R3 links across the partition.
    #[test]
    fn one_governor_and_two_merged_governors_triage_alike() {
        use alertops_model::MicroserviceId;

        let graph: DependencyGraph = [(MicroserviceId(1), MicroserviceId(0))]
            .into_iter()
            .collect();
        let alerts: Vec<Alert> = (0..2u64)
            .map(|i| {
                Alert::builder(AlertId(i), StrategyId(1 + i))
                    .title("haproxy process number warning")
                    .microservice(MicroserviceId(i))
                    .raised_at(SimTime::from_secs(60 * i))
                    .build()
            })
            .collect();
        let governor = |catalog: Vec<AlertStrategy>| {
            let mut s = StreamingGovernor::new(
                AlertGovernor::new(catalog, GovernorConfig::default())
                    .with_dependency_graph(graph.clone()),
                StreamingConfig::default(),
            );
            s.set_qoa_verdicts(QoaVerdicts {
                demoted: Vec::new(),
                promoted: vec![StrategyId(1), StrategyId(2)],
            });
            s
        };
        let publish = |delta: &WindowDelta| {
            let mut snapshot = GovernanceSnapshot::from_delta(delta, &StormConfig::default());
            snapshot.fill_triage(delta, Some(&graph));
            (snapshot.triage, snapshot.escalated)
        };
        let one = governor(vec![noisy_strategy(1), noisy_strategy(2)]).ingest(&alerts, &[]);
        let two = WindowDelta::merge_all(&[
            governor(vec![noisy_strategy(1)]).ingest(&alerts[..1], &[]),
            governor(vec![noisy_strategy(2)]).ingest(&alerts[1..], &[]),
        ]);
        let want = (vec![AlertId(0)], vec![AlertId(1)]);
        assert_eq!(publish(&one), want);
        assert_eq!(publish(&two), want);
    }

    /// A shard holds its catalog once: the engine evaluates against the
    /// governor's own allocation after any number of windows and after
    /// a rollback, and holds none when rolled back before any window.
    #[test]
    fn the_engine_borrows_the_governors_catalog() {
        let shares = |s: &StreamingGovernor| {
            s.engine
                .catalog()
                .is_some_and(|held| Arc::ptr_eq(held, s.governor().catalog()))
        };
        let mut s = streaming(3);
        s.ingest_uncommitted(&transient_window(0, 1, 0, 8), &[]);
        assert!(shares(&s));
        s.rollback();
        assert!(s.engine.catalog().is_none());
        for hour in 0..6u64 {
            s.ingest(&transient_window(hour * 100, 1 + hour % 2, hour, 8), &[]);
            assert!(shares(&s), "window {hour}");
        }
        s.ingest_uncommitted(&transient_window(900, 2, 6, 8), &[]);
        s.rollback();
        assert!(shares(&s), "after a rollback");
        assert!(shares(&s.clone()), "a clone shares it too");
    }
}
