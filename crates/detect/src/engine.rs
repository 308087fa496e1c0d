//! The incremental detection engine: per-window governance in
//! O(window), not O(history).
//!
//! The streaming governance loop used to flatten its entire rolling
//! history into a fresh `Vec<Alert>` and re-run every detector from
//! scratch on each ingested window — O(history × window) work plus full
//! reallocations per tick. [`IncrementalState`] replaces that with a
//! stateful engine exposing three rolling operations:
//!
//! * [`observe_window`](IncrementalState::observe_window) — fold one
//!   window of alerts into per-strategy rolling counters, the storm
//!   region-hour histogram, and (for a caller that hands over the
//!   dependency graph) the cascade edge set, remembering a compact
//!   [`WindowDigest`] so the window can later be subtracted;
//! * [`evict_window`](IncrementalState::evict_window) — subtract the
//!   oldest window's digest from every aggregate (the *eviction
//!   algebra*: each aggregate is a count, so subtraction is exact and
//!   order-independent);
//! * [`evaluate`](IncrementalState::evaluate) — bring the cached
//!   findings up to date, re-evaluating only strategies whose
//!   aggregates changed, and hand back the `(pattern, strategy)` flags
//!   that flipped as [`FlagTransitions`]. This is all a streaming close
//!   reads, and it costs O(change): nothing per held finding or per
//!   catalog row.
//!
//! [`report`](IncrementalState::report) (and
//! [`current_findings`](IncrementalState::current_findings), its form
//! for a caller holding catalog rows rather than an
//! `Arc<IndexedCatalog>`) evaluates and then renders everything held
//! into an [`AntiPatternReport`] equal to running the batch detectors
//! over the flattened surviving history — O(findings) more, for the
//! batch callers.
//!
//! # Exactness
//!
//! Every detector's scoring was refactored into a per-strategy
//! `evaluate_strategy` function of *aggregates* (counts, sorted
//! transient times, `(hour, count)` runs); both the batch [`Detector`]
//! passes and this engine reduce a strategy's evidence to exactly those
//! inputs and call the same function, so findings agree byte for byte.
//! The rolling counters are order-independent and support exact
//! subtraction, with empty entries removed eagerly so a long-lived
//! state is structurally identical to one freshly built from only the
//! surviving windows (the property suite asserts this).
//!
//! A1 (unclear title) depends only on the catalog; it is computed once
//! and re-derived only when the catalog changes — and then contributes
//! transitions like any other pattern. A catalog is told apart from
//! the last one by its allocation (`Arc::ptr_eq`), not by comparing
//! rows; a new allocation also rescores every strategy in scope. A2/A3
//! additionally depend on the incident list, so their cached findings
//! are invalidated whenever the provided incidents differ from the
//! previous evaluation.
//!
//! # Memory: each raise time held once, the catalog not at all
//!
//! A window's raise times live in its digest and nowhere else: a digest
//! is two exactly-sized vectors, one [`Slice`] of counters per strategy
//! and every alert's raise time, both in strategy-id order. A
//! strategy's rolling state is three counters. The times an evaluator
//! reads — A2/A3's co-occurrence count, A4's sorted transient times,
//! A5's hour runs — are gathered from the surviving digests when it
//! runs, into buffers the engine reuses, and only where they can change
//! the verdict: A2/A3 only when there are incidents, A4 and A5 only for
//! a strategy whose counters say it `may_flag` at all. The
//! `held_raise_times` probe states the bound and the property suite
//! checks it after every operation.
//!
//! The catalog is the caller's: the engine keeps a clone of the
//! caller's `Arc<IndexedCatalog>`, so a streaming governor and its
//! engine share one allocation. Only the slice entry point
//! [`current_findings`](IncrementalState::current_findings) copies rows
//! into a catalog of its own, and only when they differ from the last.
//!
//! # Who attaches a graph
//!
//! A6 state — the alive-alert set and its derivation edges — is kept
//! only for windows observed with a dependency graph, and cascade
//! groups are reported only when `report` is given one. The
//! batch `AlertGovernor::detect` does both (its `report.cascades` is
//! what the post-mortem and the figure harnesses read), as may any
//! direct user of the engine. `StreamingGovernor` never does: nothing
//! downstream of a window close reads cascade groups, and a shard of a
//! strategy-sharded stream would group fragments of every cascade. For
//! such a caller the engine's cost per window has no A6 term at all.
//!
//! # Commit and rollback
//!
//! Because the rolling state is a pure function of the window digests,
//! undoing work needs no second copy of it.
//! [`commit`](IncrementalState::commit) marks the current scope as the
//! one to return to — O(1); until the next commit the engine keeps the
//! digests it evicts instead of dropping them and counts the windows it
//! observes. [`rollback`](IncrementalState::rollback) rebuilds the
//! aggregates from *kept digests ++ surviving windows minus the
//! uncommitted tail* — O(history), paid only by whoever rolls back, and
//! exact however far an interrupted observe, evict or evaluation got,
//! since nothing of the interrupted aggregates is reused.
//!
//! The flags need the same care, since transitions are relative to
//! what was announced: the flags after a rollback must be the ones
//! announced as of the commit (none before the first, though A1
//! already has findings then). An evaluation keeps, until the next
//! commit, what each strategy held as of the commit the first time one
//! of its flags flips — O(flips), not a copy of the caches — and the
//! catalog and A1 findings it replaces. Rollback puts those back,
//! returns the flips that took as [`FlagTransitions`], and has the next
//! evaluation rescore every strategy in scope or cached, so no other
//! cached value is trusted.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use alertops_model::{
    indicates_incident, Alert, AlertId, AlertStrategy, Clearance, DependencyGraph, Incident,
    IndexedCatalog, MicroserviceId, RegionId, SimTime, StrategyId,
};

use crate::a2_severity::SeverityEvidence;
use crate::a5_repeating::push_hour_runs;
use crate::a6_cascading::{CascadeGroup, CascadeState};
use crate::input::DetectionInput;
use crate::metrics::DetectMetrics;
use crate::report::AntiPatternReport;
use crate::types::{AntiPattern, Detector, StrategyFinding};
use crate::{
    CascadingDetector, ImproperRuleDetector, MisleadingSeverityDetector, RepeatingDetector,
    TransientTogglingDetector, UnclearTitleDetector,
};

/// One strategy's run of a [`WindowDigest`]: its raise times are
/// `times[previous slice's end..end]`, the first `transients` of them
/// those of transient alerts ([`Alert::is_transient`], the one
/// definition A2 and A4 share).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slice {
    strategy: StrategyId,
    /// One past the slice's last entry in [`WindowDigest::times`].
    end: u32,
    /// Leading entries of the slice that are transient.
    transients: u32,
    /// Alerts that auto-cleared.
    auto_cleared: u32,
}

/// The compact per-window summary retained instead of cloned alerts,
/// and the one place the engine keeps a raise time.
#[derive(Debug, Clone, Default, PartialEq)]
struct WindowDigest {
    /// Alerts ingested in the window.
    alert_count: usize,
    /// Earliest raise time in the window, if any alerts.
    oldest: Option<SimTime>,
    /// One slice per strategy with alerts in the window, in id order.
    slices: Vec<Slice>,
    /// Every alert's raise time, slice by slice; within a slice the
    /// transient ones first, each group ascending.
    times: Vec<SimTime>,
    /// `(region, hour) → count` contribution to the storm histogram.
    region_hours: Vec<((RegionId, u64), usize)>,
    /// `(raise time, id, microservice)` of every alert, recorded only
    /// when a dependency graph was attached at observe time (the
    /// cascade state is maintained only then — see "Who attaches a
    /// graph" in the [module docs](self)); empty, and free, otherwise.
    cascade: Vec<(SimTime, AlertId, MicroserviceId)>,
}

impl WindowDigest {
    /// The range of slice `i`'s raise times in `times`.
    fn range(&self, i: usize) -> Range<usize> {
        let start = i.checked_sub(1).map_or(0, |p| self.slices[p].end as usize);
        start..self.slices[i].end as usize
    }

    /// Each slice's contribution to the rolling counters, in id order.
    fn counts(&self) -> impl Iterator<Item = (StrategyId, StrategyState)> + '_ {
        self.slices.iter().enumerate().map(|(i, slice)| {
            let counts = StrategyState {
                total: self.range(i).len(),
                transients: slice.transients as usize,
                auto_cleared: slice.auto_cleared as usize,
            };
            (slice.strategy, counts)
        })
    }

    /// One step of a merge-walk over the id-ordered slices: moves
    /// `cursor` past every slice ordered before `id` and returns `id`'s
    /// slice and its raise times, if the window has one.
    fn seek(&self, cursor: &mut usize, id: StrategyId) -> Option<(&Slice, &[SimTime])> {
        while self.slices.get(*cursor).is_some_and(|s| s.strategy < id) {
            *cursor += 1;
        }
        let slice = self.slices.get(*cursor).filter(|s| s.strategy == id)?;
        Some((slice, &self.times[self.range(*cursor)]))
    }
}

/// One alert of the window being digested, ordered the way its digest
/// lays it out: by strategy, transients first, then by raise time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DigestRow {
    strategy: StrategyId,
    /// Not transient — `false` sorts the transient alerts first.
    lasting: bool,
    raised_at: SimTime,
    auto_cleared: bool,
}

/// Rolling counters for one strategy over the surviving windows — no
/// raise time: those stay in the digests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct StrategyState {
    /// Total in-scope alerts.
    total: usize,
    /// Transient alerts, read by A2 and A4.
    transients: usize,
    /// Auto-cleared alerts.
    auto_cleared: usize,
}

impl StrategyState {
    fn add(&mut self, other: &Self) {
        self.total += other.total;
        self.transients += other.transients;
        self.auto_cleared += other.auto_cleared;
    }

    fn sub(&mut self, other: &Self) {
        self.total -= other.total;
        self.transients -= other.transients;
        self.auto_cleared -= other.auto_cleared;
    }
}

/// Buffers the engine reuses across windows and evaluations, so that
/// once grown neither a digest build nor an evaluation allocates for
/// them. Empty between calls; only their capacity persists.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The window being digested, one row per alert, sorted.
    rows: Vec<DigestRow>,
    /// Per surviving window, the evaluation's merge-walk position.
    cursors: Vec<usize>,
    /// A4: the sorted transient times of every stale strategy A4
    /// `may_flag`, back to back.
    transient_times: Vec<SimTime>,
    /// A5: one strategy's hour buckets, before they are run-length
    /// encoded into `hour_runs`.
    hours: Vec<u64>,
    /// A5: the `(hour, count)` runs of every stale strategy A5
    /// `may_flag`, back to back.
    hour_runs: Vec<(u64, usize)>,
}

/// Cached per-strategy findings of the four history-driven detectors.
#[derive(Debug, Clone, Default)]
struct CachedFindings {
    a2: Option<StrategyFinding>,
    a3: Option<StrategyFinding>,
    a4: Option<StrategyFinding>,
    a5: Option<StrategyFinding>,
}

impl CachedFindings {
    /// No detector flagged the strategy.
    fn is_empty(&self) -> bool {
        self.a2.is_none() && self.a3.is_none() && self.a4.is_none() && self.a5.is_none()
    }

    /// The findings, in [`CACHED`] order.
    fn findings(&self) -> [Option<&StrategyFinding>; 4] {
        [
            self.a2.as_ref(),
            self.a3.as_ref(),
            self.a4.as_ref(),
            self.a5.as_ref(),
        ]
    }

    /// Which of A2–A5 flag the strategy.
    fn flags(&self) -> [bool; 4] {
        self.findings().map(|finding| finding.is_some())
    }
}

/// The patterns a [`CachedFindings`] holds, in field order.
const CACHED: [AntiPattern; 4] = [
    AntiPattern::MisleadingSeverity,
    AntiPattern::ImproperRule,
    AntiPattern::TransientToggling,
    AntiPattern::Repeating,
];

/// The cached A2–A5 findings: an entry per in-scope strategy that holds
/// at least one — a strategy with none has no entry — and how many
/// entries hold each pattern's.
#[derive(Debug, Clone, Default)]
struct FindingsCache {
    entries: BTreeMap<StrategyId, CachedFindings>,
    /// Flags held per pattern, A2–A5.
    counts: [usize; 4],
}

impl FindingsCache {
    /// Replaces `id`'s findings, recording every flag that flips into
    /// `transitions`. Returns what it held when a flag flipped.
    fn put(
        &mut self,
        id: StrategyId,
        findings: CachedFindings,
        transitions: &mut FlagTransitions,
    ) -> Option<CachedFindings> {
        let entry = self.entries.entry(id);
        let before = match &entry {
            Entry::Occupied(held) => held.get().flags(),
            Entry::Vacant(_) => [false; 4],
        };
        let after = findings.flags();
        for ((pattern, finding), was) in CACHED.into_iter().zip(findings.findings()).zip(before) {
            transitions.flip(pattern, id, was, finding);
        }
        for (count, (was, is)) in self.counts.iter_mut().zip(before.into_iter().zip(after)) {
            *count = *count + usize::from(is) - usize::from(was);
        }
        let held = match entry {
            Entry::Occupied(mut held) if !findings.is_empty() => {
                std::mem::replace(held.get_mut(), findings)
            }
            Entry::Occupied(held) => held.remove(),
            Entry::Vacant(slot) => {
                if !findings.is_empty() {
                    slot.insert(findings);
                }
                CachedFindings::default()
            }
        };
        (before != after).then_some(held)
    }
}

/// What the caches reported as of the last commit, kept only for what
/// an evaluation has changed since — what
/// [`rollback`](IncrementalState::rollback) puts back.
#[derive(Debug, Clone, Default)]
struct Undo {
    /// Each strategy an evaluation flipped a flag of, with its findings
    /// as of the commit.
    findings: BTreeMap<StrategyId, CachedFindings>,
    /// The catalog and its A1 findings as of the commit, once an
    /// evaluation replaced them.
    a1: Option<(Option<Arc<IndexedCatalog>>, Vec<StrategyFinding>)>,
}

impl Undo {
    /// Keeps what a strategy `held` before a flip of its flags, if this
    /// is the first since the commit.
    fn keep(&mut self, id: StrategyId, held: Option<CachedFindings>) {
        if let Some(held) = held {
            self.findings.entry(id).or_insert(held);
        }
    }
}

/// What one evaluation changed in the set of `(pattern, strategy)`
/// flags: the findings it raised and the flags it cleared. From a
/// [`rollback`](IncrementalState::rollback), what returning to the last
/// commit changed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlagTransitions {
    /// Findings whose `(pattern, strategy)` was not flagged before, in
    /// [`AntiPatternReport`] order: by pattern, then as that pattern's
    /// detector sorts its findings.
    pub raised: Vec<StrategyFinding>,
    /// `(pattern, strategy)` pairs that were flagged before and are
    /// clear now, sorted.
    pub cleared: Vec<(AntiPattern, StrategyId)>,
}

impl FlagTransitions {
    /// Records the flip, if any, of one flag that was (`before`) or was
    /// not set and now holds `after`.
    fn flip(
        &mut self,
        pattern: AntiPattern,
        strategy: StrategyId,
        before: bool,
        after: Option<&StrategyFinding>,
    ) {
        match (before, after) {
            (false, Some(finding)) => self.raised.push(finding.clone()),
            (true, None) => self.cleared.push((pattern, strategy)),
            _ => {}
        }
    }

    /// Records the A1 flips from the findings `before` to `after`, in
    /// the order the A1 detector put `after` in.
    fn flip_a1(&mut self, before: &[StrategyFinding], after: &[StrategyFinding]) {
        let ids = |findings: &[StrategyFinding]| -> BTreeSet<StrategyId> {
            findings.iter().map(|f| f.strategy).collect()
        };
        let (was, is) = (ids(before), ids(after));
        self.raised
            .extend(after.iter().filter(|f| !was.contains(&f.strategy)).cloned());
        self.cleared.extend(
            was.difference(&is)
                .map(|&id| (AntiPattern::UnclearTitle, id)),
        );
    }

    /// Puts both lists in their documented order. Each pattern's raised
    /// findings were recorded in strategy-id order (A2–A5) or in the A1
    /// detector's order, so a stable sort on score keeps the detectors'
    /// tie order.
    fn sorted(mut self) -> Self {
        // A1–A5 scores are finite and never -0.0 (see each detector's
        // sort), so this is the `partial_cmp` order.
        self.raised
            .sort_by(|a, b| a.pattern.cmp(&b.pattern).then(b.score.total_cmp(&a.score)));
        self.cleared.sort_unstable();
        self.cleared.dedup();
        self
    }
}

/// One stale strategy, resolved for an evaluation: the catalog row, the
/// rolling counters, the raise-time evidence gathered for it, and what
/// the evaluators make of them.
struct Stale<'a> {
    strategy: &'a AlertStrategy,
    state: &'a StrategyState,
    /// The aggregates changed since the last evaluation, so A4/A5 are
    /// stale along with A2/A3. False for a clean strategy that only a
    /// changed incident list made stale.
    aggregates_changed: bool,
    /// Alerts that indicated an incident on the strategy's service, the
    /// count A2 and A3 share (0 without incidents).
    with_incident: usize,
    /// Its sorted transient times in [`Scratch::transient_times`];
    /// `None` unless A4 is stale and `may_flag` on the counters.
    transient_times: Option<Range<usize>>,
    /// Its hour runs in [`Scratch::hour_runs`]; `None` unless A5 is
    /// stale and `may_flag` on the counters.
    hour_runs: Option<Range<usize>>,
    /// The evaluators' verdicts, held here until the one cache write.
    rescored: CachedFindings,
}

/// The incremental detection engine. See the [module docs](self) for
/// the design; see `StreamingGovernor` in `alertops-core` for the
/// production driver.
///
/// Cloning the state clones the full rolling aggregates. Crash recovery
/// does not need a clone: it [`commit`](Self::commit)s after each good
/// window and [`rollback`](Self::rollback)s by rebuilding from the
/// digests.
#[derive(Debug, Clone, Default)]
pub struct IncrementalState {
    /// Digests of the surviving windows, oldest first.
    windows: VecDeque<WindowDigest>,
    /// Total alerts across surviving windows (O(1) scope size).
    alerts_in_scope: usize,
    /// Per-strategy rolling counters; entries are removed when a
    /// strategy's last alert is evicted.
    per_strategy: BTreeMap<StrategyId, StrategyState>,
    /// The storm `(region, hour) → count` histogram, incrementally
    /// maintained; zero entries are removed.
    histogram: BTreeMap<(RegionId, u64), usize>,
    /// A6's alive-alert set and derivation edges.
    cascade: CascadeState,
    /// Strategies whose aggregates changed since the last evaluation.
    dirty: BTreeSet<StrategyId>,
    /// The catalog of the last evaluation (None before the first) —
    /// the caller's allocation, shared, not a copy.
    catalog: Option<Arc<IndexedCatalog>>,
    /// The incident list seen by the last evaluation.
    incidents_seen: Option<Vec<Incident>>,
    /// A1 findings for `catalog` (valid while the catalog is unchanged).
    a1_cache: Vec<StrategyFinding>,
    /// Cached A2–A5 findings.
    findings_cache: FindingsCache,
    /// The flags as of the last commit, where an evaluation has
    /// changed them since.
    undo: Undo,
    /// Digests of committed windows evicted since the last
    /// [`commit`](Self::commit), oldest first — with the committed
    /// prefix of `windows`, the scope [`rollback`](Self::rollback)
    /// rebuilds.
    evicted: Vec<WindowDigest>,
    /// How many windows at the back of `windows` were observed since
    /// the last commit.
    uncommitted: usize,
    /// Reused digest-build and evaluation buffers.
    scratch: Scratch,
}

impl PartialEq for IncrementalState {
    /// Compares only the *rolling state* (window digests, per-strategy
    /// counters, histogram, cascade edges) — not evaluation caches,
    /// which legitimately differ between a long-lived state and a fresh
    /// rebuild until the next `current_findings` call, and not the
    /// rollback bookkeeping, which says where the last commit was, not
    /// what is in scope.
    fn eq(&self, other: &Self) -> bool {
        self.windows == other.windows
            && self.alerts_in_scope == other.alerts_in_scope
            && self.per_strategy == other.per_strategy
            && self.histogram == other.histogram
            && self.cascade == other.cascade
    }
}

impl IncrementalState {
    /// Total alerts across the surviving windows — O(1).
    #[must_use]
    pub fn alert_count(&self) -> usize {
        self.alerts_in_scope
    }

    /// Number of surviving (observed but not evicted) windows.
    #[must_use]
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// The earliest alert raise time still in scope, if any.
    #[must_use]
    pub fn oldest_alert_time(&self) -> Option<SimTime> {
        self.windows.iter().filter_map(|w| w.oldest).min()
    }

    /// The incrementally maintained storm `(region, hour) → count`
    /// histogram over the surviving windows. Identical to
    /// [`region_hour_histogram`](crate::region_hour_histogram) over the
    /// flattened scope.
    #[must_use]
    pub fn histogram(&self) -> &BTreeMap<(RegionId, u64), usize> {
        &self.histogram
    }

    /// Folds one window of alerts into the rolling aggregates —
    /// O(window), independent of how much history is in scope.
    ///
    /// Pass the dependency graph if (and only if) cascade detection is
    /// wanted; the cascade edge set is maintained only for windows
    /// observed with a graph. `metrics` times the apply under
    /// `alertops_engine_apply_micros` (observer-only).
    pub fn observe_window(
        &mut self,
        window: &[Alert],
        graph: Option<&DependencyGraph>,
        metrics: Option<&DetectMetrics>,
    ) {
        let _span = metrics.map(DetectMetrics::engine_apply_timer);
        let digest = self.digest(window, graph.is_some());
        self.apply(&digest, graph);
        self.windows.push_back(digest);
        self.uncommitted += 1;
    }

    /// Summarises one window, sorting it through the engine's reused
    /// row buffer. Reads nothing else of the engine, so a digest means
    /// the same to whichever engine applies it.
    fn digest(&mut self, window: &[Alert], with_cascade: bool) -> WindowDigest {
        let rows = &mut self.scratch.rows;
        let mut digest = WindowDigest {
            alert_count: window.len(),
            ..WindowDigest::default()
        };
        let mut region_hours: BTreeMap<(RegionId, u64), usize> = BTreeMap::new();
        for alert in window {
            let t = alert.raised_at();
            digest.oldest = Some(digest.oldest.map_or(t, |o| o.min(t)));
            rows.push(DigestRow {
                strategy: alert.strategy(),
                lasting: !alert.is_transient(),
                raised_at: t,
                auto_cleared: alert.clearance() == Some(Clearance::Auto),
            });
            *region_hours
                .entry((alert.location().region().clone(), alert.hour_bucket()))
                .or_insert(0) += 1;
            if with_cascade {
                digest.cascade.push((t, alert.id(), alert.microservice()));
            }
        }
        rows.sort_unstable();
        digest.times = rows.iter().map(|row| row.raised_at).collect();
        let runs = rows.chunk_by(|a, b| a.strategy == b.strategy);
        digest.slices = Vec::with_capacity(runs.clone().count());
        let mut end = 0;
        for run in runs {
            end += run.len();
            let count = |of: fn(&DigestRow) -> bool| to_u32(run.iter().filter(|r| of(r)).count());
            digest.slices.push(Slice {
                strategy: run[0].strategy,
                end: to_u32(end),
                transients: count(|r| !r.lasting),
                auto_cleared: count(|r| r.auto_cleared),
            });
        }
        rows.clear();
        digest.region_hours = region_hours.into_iter().collect();
        digest
    }

    /// Adds one digest to the rolling aggregates — what
    /// [`evict_window`](Self::evict_window) later subtracts. The caller
    /// files the digest under `windows`.
    fn apply(&mut self, digest: &WindowDigest, graph: Option<&DependencyGraph>) {
        self.alerts_in_scope += digest.alert_count;
        for (strategy, counts) in digest.counts() {
            self.per_strategy.entry(strategy).or_default().add(&counts);
            self.dirty.insert(strategy);
        }
        for ((region, hour), count) in &digest.region_hours {
            *self.histogram.entry((region.clone(), *hour)).or_insert(0) += count;
        }
        if let Some(graph) = graph {
            let window = CascadingDetector::default().window;
            for &(t, id, ms) in &digest.cascade {
                self.cascade.insert(t, id, ms, window, graph);
            }
        }
    }

    /// Subtracts the oldest window from every aggregate. Returns the
    /// number of alerts evicted (0 when no window survives). `metrics`
    /// times the eviction under `alertops_engine_evict_micros`.
    ///
    /// The digest of a committed window is kept until the next
    /// [`commit`](Self::commit), for [`rollback`](Self::rollback); a
    /// window observed since the last commit was never part of the
    /// committed scope, so its digest is dropped.
    pub fn evict_window(&mut self, metrics: Option<&DetectMetrics>) -> usize {
        let _span = metrics.map(DetectMetrics::engine_evict_timer);
        // The digest stays in `windows` while it is subtracted, so a
        // rollback that interrupts the subtraction still finds it.
        let Some(digest) = self.windows.front() else {
            return 0;
        };
        self.alerts_in_scope -= digest.alert_count;
        for (strategy, counts) in digest.counts() {
            if let Entry::Occupied(mut state) = self.per_strategy.entry(strategy) {
                state.get_mut().sub(&counts);
                if state.get().total == 0 {
                    state.remove();
                }
            }
            self.dirty.insert(strategy);
        }
        for ((region, hour), count) in &digest.region_hours {
            let key = (region.clone(), *hour);
            if let Some(current) = self.histogram.get_mut(&key) {
                *current -= count;
                if *current == 0 {
                    self.histogram.remove(&key);
                }
            }
        }
        for &(t, id, _) in &digest.cascade {
            self.cascade.remove(t, id);
        }
        let committed = self.windows.len() > self.uncommitted;
        let digest = self.windows.pop_front().expect("front checked above");
        let alerts = digest.alert_count;
        if committed {
            self.evicted.push(digest);
        } else {
            self.uncommitted -= 1;
        }
        alerts
    }

    /// Makes the current scope, and the flags evaluated over it, the
    /// ones [`rollback`](Self::rollback) returns to, and releases what
    /// was kept for the previous commit. O(1) besides dropping it.
    pub fn commit(&mut self) {
        self.evicted.clear();
        self.uncommitted = 0;
        self.undo = Undo::default();
    }

    /// Returns to the scope of the last [`commit`](Self::commit) (an
    /// empty engine, if there was none) by applying its digests, oldest
    /// first, to fresh aggregates, and returns what that did to the
    /// flags. A rebuild rather than a subtraction, so the result is
    /// exact even when the work being undone was cut short by a panic.
    /// O(history). `graph` is the one the windows were observed with;
    /// cascade edges are rebuilt against it.
    ///
    /// Of the evaluation caches only the flags are kept: every one an
    /// evaluation flipped since the commit is put back, with the
    /// catalog and A1 findings, so the flags are the ones last
    /// committed — none at all before the first commit. The next
    /// evaluation then rescores every strategy in scope or cached
    /// against them, so nothing else the caches held is trusted.
    pub fn rollback(&mut self, graph: Option<&DependencyGraph>) -> FlagTransitions {
        let mut scope = std::mem::take(&mut self.evicted);
        let committed = self.windows.len() - self.uncommitted;
        scope.extend(self.windows.drain(..committed));
        let mut restored = FlagTransitions::default();
        let Undo { findings, a1 } = std::mem::take(&mut self.undo);
        for (id, committed) in findings {
            self.findings_cache.put(id, committed, &mut restored);
        }
        if let Some((catalog, a1)) = a1 {
            restored.flip_a1(&self.a1_cache, &a1);
            (self.catalog, self.a1_cache) = (catalog, a1);
        }
        // Drop the old aggregates first: the rebuild never holds two
        // copies of the state.
        *self = Self {
            catalog: self.catalog.take(),
            incidents_seen: self.incidents_seen.take(),
            a1_cache: std::mem::take(&mut self.a1_cache),
            findings_cache: std::mem::take(&mut self.findings_cache),
            ..Self::default()
        };
        for digest in scope {
            self.apply(&digest, graph);
            self.windows.push_back(digest);
        }
        // `apply` marked every strategy in scope dirty.
        self.dirty
            .extend(self.findings_cache.entries.keys().copied());
        restored.sorted()
    }

    /// How many evicted digests are being kept for a rollback; zero
    /// right after every [`commit`](Self::commit).
    #[doc(hidden)]
    #[must_use]
    pub fn kept_digests(&self) -> usize {
        self.evicted.len()
    }

    /// How many raise times the engine holds, wherever it holds them.
    /// Each is held once, in the digest of its window, so this is
    /// [`alert_count`](Self::alert_count) plus the alerts of the
    /// [kept digests](Self::kept_digests). A6's cascade tuples, recorded
    /// only for windows observed with a graph, are that detector's own
    /// state and not counted.
    #[doc(hidden)]
    #[must_use]
    pub fn held_raise_times(&self) -> usize {
        // Named field by field, so a field added to the engine has to
        // be classified here.
        let Self {
            windows,
            alerts_in_scope: _,
            per_strategy: _, // counters only
            histogram: _,
            cascade: _,
            dirty: _,
            catalog: _,
            incidents_seen: _,
            a1_cache: _,
            findings_cache: _,
            undo: _, // findings only
            evicted,
            uncommitted: _,
            scratch,
        } = self;
        let digests: usize = windows.iter().chain(evicted).map(|d| d.times.len()).sum();
        digests + scratch.rows.len() + scratch.transient_times.len()
    }

    /// The catalog of the last evaluation: the allocation the caller
    /// passed, not a copy.
    #[must_use]
    pub fn catalog(&self) -> Option<&Arc<IndexedCatalog>> {
        self.catalog.as_ref()
    }

    /// Every `(pattern, strategy)` flag reported so far — by the last
    /// evaluation, or after a [`rollback`](Self::rollback) as of the
    /// last commit — A1's first, then by strategy.
    pub fn flags(&self) -> impl Iterator<Item = (AntiPattern, StrategyId)> + '_ {
        let a1 = self.a1_cache.iter().map(|f| (f.pattern, f.strategy));
        let rest = self
            .findings_cache
            .entries
            .iter()
            .flat_map(|(&id, cached)| {
                CACHED
                    .into_iter()
                    .zip(cached.flags())
                    .filter(|&(_, flagged)| flagged)
                    .map(move |(pattern, _)| (pattern, id))
            });
        a1.chain(rest)
    }

    /// Evaluates the current scope against `catalog` and `incidents`
    /// and returns the flags that flipped since the last evaluation —
    /// O(stale strategies + flips), whatever the catalog's size and
    /// however many findings are held.
    ///
    /// Only strategies whose aggregates changed since the last
    /// evaluation are re-scored. A new `catalog` — told apart from the
    /// last one by identity, not by content — re-runs A1 and rescores
    /// every strategy in scope; a changed incident list rescores A2/A3.
    /// A strategy is scored against the catalog row with its id (the
    /// first, should the catalog repeat one); one with alerts in scope
    /// but no row has no findings. Per-pattern wall time and finding
    /// counts are recorded into `metrics` as the batch
    /// [`run_instrumented`](AntiPatternReport::run_instrumented) does;
    /// gathering the stale strategies' raise times from the digests is
    /// one pass before the evaluators and timed under none of them.
    pub fn evaluate(
        &mut self,
        catalog: &Arc<IndexedCatalog>,
        incidents: &[Incident],
        metrics: Option<&DetectMetrics>,
    ) -> FlagTransitions {
        if let Some(m) = metrics {
            m.record_run(self.alerts_in_scope as u64);
        }
        let mut transitions = FlagTransitions::default();

        // A1 — pure function of the catalog.
        if !self
            .catalog
            .as_ref()
            .is_some_and(|held| Arc::ptr_eq(held, catalog))
        {
            let _span = metrics.map(|m| m.detector_timer(AntiPattern::UnclearTitle));
            // Strategy attributes (severity, kind, service) feed every
            // evaluator: invalidate everything.
            self.dirty.extend(self.per_strategy.keys().copied());
            let a1 = UnclearTitleDetector.detect(&DetectionInput::new(catalog.rows()));
            transitions.flip_a1(&self.a1_cache, &a1);
            let held = self.catalog.replace(Arc::clone(catalog));
            let before = std::mem::replace(&mut self.a1_cache, a1);
            self.undo.a1.get_or_insert((held, before));
        }
        let incidents_changed = self.incidents_seen.as_deref() != Some(incidents);

        let Self {
            windows,
            per_strategy,
            dirty,
            findings_cache,
            undo,
            scratch,
            ..
        } = self;

        // Resolve every stale strategy once — its rolling state and its
        // catalog row — so the four evaluators below share one lookup
        // of each. One no longer in scope, or in scope but missing from
        // the catalog (nothing to score it against), has no findings.
        let mut stale: Vec<Stale<'_>> = Vec::with_capacity(dirty.len());
        let mut resolve = |id: StrategyId, aggregates_changed: bool| match per_strategy
            .get(&id)
            .zip(catalog.get(id))
        {
            Some((state, strategy)) => stale.push(Stale {
                strategy,
                state,
                aggregates_changed,
                with_incident: 0,
                transient_times: None,
                hour_runs: None,
                rescored: CachedFindings::default(),
            }),
            None => {
                let held = findings_cache.put(id, CachedFindings::default(), &mut transitions);
                undo.keep(id, held);
            }
        };
        if incidents_changed {
            // A2/A3 consume the incident list; a changed list makes
            // every in-scope strategy stale for them, the clean ones
            // for them alone.
            for &id in per_strategy.keys().filter(|id| !dirty.contains(id)) {
                resolve(id, false);
            }
        }
        for &id in dirty.iter() {
            resolve(id, true);
        }
        stale.sort_unstable_by_key(|s| s.strategy.id());

        // Gather the raise times the evaluators read, with one
        // merge-walk per surviving window over the id-ordered stale
        // list, and only where they can change a verdict.
        let Scratch {
            cursors,
            transient_times,
            hours,
            hour_runs,
            ..
        } = scratch;
        cursors.clear();
        cursors.resize(windows.len(), 0);
        let co_occurrence = !incidents.is_empty();
        for s in &mut stale {
            let a4 = s.aggregates_changed
                && TransientTogglingDetector::may_flag(s.state.total, s.state.transients);
            let a5 = s.aggregates_changed && RepeatingDetector::may_flag(s.state.total);
            if !(co_occurrence || a4 || a5) {
                continue;
            }
            let id = s.strategy.id();
            let transients_from = transient_times.len();
            for (digest, cursor) in windows.iter().zip(cursors.iter_mut()) {
                let Some((slice, times)) = digest.seek(cursor, id) else {
                    continue;
                };
                if co_occurrence {
                    let service = s.strategy.service();
                    s.with_incident += times
                        .iter()
                        .filter(|&&t| indicates_incident(incidents, service, t))
                        .count();
                }
                if a4 {
                    transient_times.extend_from_slice(&times[..slice.transients as usize]);
                }
                if a5 {
                    hours.extend(times.iter().map(|t| t.hour_bucket()));
                }
            }
            if a4 {
                transient_times[transients_from..].sort_unstable();
                s.transient_times = Some(transients_from..transient_times.len());
            }
            if a5 {
                hours.sort_unstable();
                let runs_from = hour_runs.len();
                push_hour_runs(hours, hour_runs);
                hours.clear();
                s.hour_runs = Some(runs_from..hour_runs.len());
            }
        }

        // A2 — misleading severity.
        {
            let _span = metrics.map(|m| m.detector_timer(AntiPattern::MisleadingSeverity));
            for s in &mut stale {
                let evidence = SeverityEvidence {
                    total: s.state.total,
                    with_incident: s.with_incident,
                    auto_cleared: s.state.auto_cleared,
                    transients: s.state.transients,
                };
                s.rescored.a2 =
                    MisleadingSeverityDetector::evaluate_strategy(s.strategy, &evidence);
            }
        }

        // A3 — improper rule.
        {
            let _span = metrics.map(|m| m.detector_timer(AntiPattern::ImproperRule));
            for s in &mut stale {
                s.rescored.a3 = ImproperRuleDetector::evaluate_strategy(
                    s.strategy,
                    s.state.total,
                    s.with_incident,
                );
            }
        }

        // A4 — transient/toggling — and A5 — repeating — read the
        // aggregates alone: a strategy stale through the incident list
        // only keeps what it has. One the gather skipped because the
        // evaluator may not flag it has no evidence, and the evaluator
        // would say `None` on the same counts.
        {
            let _span = metrics.map(|m| m.detector_timer(AntiPattern::TransientToggling));
            let a4 = TransientTogglingDetector::default();
            for s in stale.iter_mut().filter(|s| s.aggregates_changed) {
                s.rescored.a4 = s.transient_times.clone().and_then(|range| {
                    a4.evaluate_strategy(s.strategy.id(), s.state.total, &transient_times[range])
                });
            }
        }
        {
            let _span = metrics.map(|m| m.detector_timer(AntiPattern::Repeating));
            for s in stale.iter_mut().filter(|s| s.aggregates_changed) {
                s.rescored.a5 = s.hour_runs.clone().and_then(|range| {
                    RepeatingDetector::evaluate_strategy(
                        s.strategy.id(),
                        s.state.total,
                        &hour_runs[range],
                    )
                });
            }
        }

        // One cache write per stale strategy, in id order. A strategy
        // stale through the incident list only keeps its A4/A5.
        for s in stale {
            let id = s.strategy.id();
            let mut findings = s.rescored;
            if !s.aggregates_changed {
                if let Some(kept) = findings_cache.entries.get(&id) {
                    (findings.a4, findings.a5) = (kept.a4.clone(), kept.a5.clone());
                }
            }
            let held = findings_cache.put(id, findings, &mut transitions);
            undo.keep(id, held);
        }
        transient_times.clear();
        hour_runs.clear();

        if let Some(m) = metrics {
            m.record_findings(AntiPattern::UnclearTitle, self.a1_cache.len() as u64);
            for (pattern, count) in CACHED.into_iter().zip(self.findings_cache.counts) {
                m.record_findings(pattern, count as u64);
            }
        }
        self.dirty.clear();
        if incidents_changed {
            self.incidents_seen = Some(incidents.to_vec());
        }
        transitions.sorted()
    }

    /// [`evaluate`](Self::evaluate)s the current scope, then renders
    /// everything held into an [`AntiPatternReport`] equal to running
    /// the batch detectors over the flattened surviving history with
    /// `catalog`, `incidents` and `graph` attached: O(findings) on top
    /// of the evaluation, for the callers that want the whole picture.
    /// Cascade groups (A6) are reported only when `graph` is given.
    pub fn report(
        &mut self,
        catalog: &Arc<IndexedCatalog>,
        incidents: &[Incident],
        graph: Option<&DependencyGraph>,
        metrics: Option<&DetectMetrics>,
    ) -> AntiPatternReport {
        self.evaluate(catalog, incidents, metrics);
        let mut findings = BTreeMap::from([(AntiPattern::UnclearTitle, self.a1_cache.clone())]);
        for (slot, pattern) in CACHED.into_iter().enumerate() {
            let mut found: Vec<StrategyFinding> = self
                .findings_cache
                .entries
                .values()
                .filter_map(|cached| cached.findings()[slot].cloned())
                .collect();
            // The detectors' shared comparator: score descending, then
            // strategy. A2–A5 scores are finite and never -0.0, so
            // `total_cmp` is the `partial_cmp` order.
            found.sort_by(|a, b| {
                b.score
                    .total_cmp(&a.score)
                    .then(a.strategy.cmp(&b.strategy))
            });
            findings.insert(pattern, found);
        }

        // A6 — cascades come straight off the maintained edge set.
        let cascades: Vec<CascadeGroup> = {
            let _span = metrics.map(|m| m.detector_timer(AntiPattern::Cascading));
            match graph {
                Some(graph) => self.cascade.groups(graph),
                None => Vec::new(),
            }
        };
        if let Some(m) = metrics {
            m.record_findings(AntiPattern::Cascading, cascades.len() as u64);
        }
        AntiPatternReport { findings, cascades }
    }

    /// [`report`](Self::report) over the catalog `strategies`, for a
    /// caller that holds the rows rather than an
    /// `Arc<IndexedCatalog>`: the rows are compared with the last
    /// evaluation's (O(catalog)), and copied into a new catalog only
    /// when they differ.
    pub fn current_findings(
        &mut self,
        strategies: &[AlertStrategy],
        incidents: &[Incident],
        graph: Option<&DependencyGraph>,
        metrics: Option<&DetectMetrics>,
    ) -> AntiPatternReport {
        let catalog = match &self.catalog {
            Some(held) if held.rows() == strategies => Arc::clone(held),
            _ => Arc::new(IndexedCatalog::new(strategies.to_vec())),
        };
        self.report(&catalog, incidents, graph, metrics)
    }
}

/// A digest count: a window's alerts, and so any count of them, fit a
/// `u32`.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("a window holds fewer than 2^32 alerts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{LogRule, Severity, SimDuration, StrategyKind};

    fn strategy(id: u64) -> AlertStrategy {
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

    fn alert(id: u64, strategy: u64, t: u64) -> Alert {
        let mut a = Alert::builder(AlertId(id), StrategyId(strategy))
            .raised_at(SimTime::from_secs(t))
            .build();
        a.clear(SimTime::from_secs(t + 30), Clearance::Auto)
            .unwrap();
        a
    }

    fn windows() -> Vec<Vec<Alert>> {
        (0..4u64)
            .map(|w| {
                (0..6u64)
                    .map(|i| alert(w * 100 + i, 1 + (i % 2), w * 3_600 + i * 300))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batch_and_engine_reports_agree() {
        let strategies = vec![strategy(1), strategy(2)];
        let scope: Vec<Alert> = windows().concat();
        let input = DetectionInput::new(&strategies).with_alerts(&scope);
        let batch = AntiPatternReport::run_default(&input);
        let mut engine = IncrementalState::default();
        engine.observe_window(&scope, None, None);
        let incremental = engine.current_findings(&strategies, &[], None, None);
        assert_eq!(batch, incremental);
    }

    #[test]
    fn eviction_restores_fresh_state() {
        let ws = windows();
        let mut engine = IncrementalState::default();
        for w in &ws {
            engine.observe_window(w, None, None);
        }
        engine.evict_window(None);
        engine.evict_window(None);
        let mut fresh = IncrementalState::default();
        for w in &ws[2..] {
            fresh.observe_window(w, None, None);
        }
        assert_eq!(engine, fresh);
        assert_eq!(engine.alert_count(), fresh.alert_count());
        assert_eq!(engine.oldest_alert_time(), fresh.oldest_alert_time());
    }

    #[test]
    fn evicting_everything_leaves_an_empty_state() {
        let ws = windows();
        let mut engine = IncrementalState::default();
        for w in &ws {
            engine.observe_window(w, None, None);
        }
        while engine.window_count() > 0 {
            engine.evict_window(None);
        }
        assert_eq!(engine, IncrementalState::default());
        assert_eq!(engine.alert_count(), 0);
        assert!(engine.histogram().is_empty());
        assert_eq!(engine.oldest_alert_time(), None);
    }

    #[test]
    fn findings_cache_tracks_evictions() {
        let strategies = vec![strategy(1), strategy(2)];
        let ws = windows();
        let mut engine = IncrementalState::default();
        for w in &ws {
            engine.observe_window(w, None, None);
        }
        let before = engine.current_findings(&strategies, &[], None, None);
        // Evict everything: findings must clear (evidence gone).
        for _ in 0..ws.len() {
            engine.evict_window(None);
        }
        let after = engine.current_findings(&strategies, &[], None, None);
        assert!(before.finding_count() > 0, "{before}");
        assert_eq!(
            after.finding_count(),
            0,
            "no evidence may survive full eviction: {after}"
        );
    }

    /// Sixteen hourly windows: strategy 1 toggles (six 30-second
    /// transients four minutes apart) in hour 2; strategy 2 bursts (20
    /// alerts an hour) in hours 0 and 1; strategy 3 fires twice an hour
    /// throughout — 32 alerts over 16 hours, A5's sustained branch.
    fn a4_a5_windows() -> Vec<Vec<Alert>> {
        let lasting = |id: u64, strategy: u64, t: u64| {
            let mut a = Alert::builder(AlertId(id), StrategyId(strategy))
                .raised_at(SimTime::from_secs(t))
                .build();
            a.clear(SimTime::from_secs(t + 900), Clearance::Auto)
                .unwrap();
            a
        };
        (0..16u64)
            .map(|hour| {
                let base = hour * 3_600;
                let id = |i: u64| hour * 1_000 + i;
                let mut window = vec![lasting(id(0), 3, base), lasting(id(1), 3, base + 1_800)];
                if hour < 2 {
                    window.extend((0..20).map(|i| lasting(id(10 + i), 2, base + i * 150)));
                }
                if hour == 2 {
                    window.extend((0..6).map(|i| alert(id(100 + i), 1, base + 600 + i * 240)));
                }
                window
            })
            .collect()
    }

    #[test]
    fn a4_and_a5_findings_survive_eviction_and_rollback() {
        let strategies = vec![strategy(1), strategy(2), strategy(3)];
        let ws = a4_a5_windows();
        let batch = |scope: &[Vec<Alert>]| {
            let flat = scope.concat();
            AntiPatternReport::run_default(&DetectionInput::new(&strategies).with_alerts(&flat))
        };
        let evidence = |report: &AntiPatternReport, pattern: AntiPattern, id: u64| {
            report.findings[&pattern]
                .iter()
                .find(|f| f.strategy == StrategyId(id))
                .map(|f| f.evidence.clone())
        };
        let mut engine = IncrementalState::default();
        for w in &ws {
            engine.observe_window(w, None, None);
        }
        engine.commit();
        let full = engine.current_findings(&strategies, &[], None, None);
        assert_eq!(full, batch(&ws));
        let toggling = evidence(&full, AntiPattern::TransientToggling, 1).expect("A4 flags 1");
        assert!(toggling.contains("TOGGLING"), "{toggling}");
        let burst = evidence(&full, AntiPattern::Repeating, 2).expect("A5 flags 2");
        assert!(burst.starts_with("reached"), "{burst}");
        let sustained = evidence(&full, AntiPattern::Repeating, 3).expect("A5 flags 3");
        assert!(
            sustained.starts_with("fired in 16 distinct hours"),
            "{sustained}"
        );

        // Evicting the burst hours and then the toggling run clears
        // those findings, in step with batch; strategy 3 still repeats.
        for k in 1..=3 {
            engine.evict_window(None);
            assert_eq!(
                engine.current_findings(&strategies, &[], None, None),
                batch(&ws[k..])
            );
            assert_eq!(engine.held_raise_times(), ws.concat().len());
        }
        let evicted = engine.current_findings(&strategies, &[], None, None);
        assert_eq!(evidence(&evicted, AntiPattern::TransientToggling, 1), None);
        assert_eq!(evidence(&evicted, AntiPattern::Repeating, 2), None);
        assert!(evidence(&evicted, AntiPattern::Repeating, 3).is_some());

        // Rolling back to the commit brings every finding back.
        engine.rollback(None);
        assert_eq!(engine.current_findings(&strategies, &[], None, None), full);
        assert_eq!(engine.held_raise_times(), engine.alert_count());
    }

    #[test]
    fn findings_cache_holds_findings_only() {
        // Strategy 4 fires once in each of the first four hours and
        // never flags; strategy 9 fires every hour but has no catalog
        // row.
        let strategies = vec![strategy(1), strategy(2), strategy(3), strategy(4)];
        let mut ws = a4_a5_windows();
        for (hour, window) in (0u64..).zip(&mut ws) {
            let base = hour * 3_600;
            if hour < 4 {
                let mut quiet = Alert::builder(AlertId(hour * 1_000 + 500), StrategyId(4))
                    .raised_at(SimTime::from_secs(base + 1_200))
                    .build();
                quiet
                    .clear(SimTime::from_secs(base + 2_100), Clearance::Auto)
                    .unwrap();
                window.push(quiet);
            }
            window.push(alert(hour * 1_000 + 501, 9, base + 2_400));
        }
        let assert_findings_only = |engine: &IncrementalState, step: &str| {
            assert!(
                engine
                    .findings_cache
                    .entries
                    .values()
                    .all(|c| !c.is_empty()),
                "{step}: an entry without a finding"
            );
        };

        let mut engine = IncrementalState::default();
        for w in &ws {
            engine.observe_window(w, None, None);
        }
        engine.commit();
        let full = engine.current_findings(&strategies, &[], None, None);
        assert!(
            full.findings
                .values()
                .flatten()
                .all(|f| f.strategy != StrategyId(4)),
            "strategy 4 is quiet: {full}"
        );
        assert_findings_only(&engine, "observe");
        for k in 1..=3 {
            engine.evict_window(None);
            engine.current_findings(&strategies, &[], None, None);
            assert_findings_only(&engine, &format!("evict {k}"));
        }
        engine.rollback(None);
        assert_eq!(engine.current_findings(&strategies, &[], None, None), full);
        assert_findings_only(&engine, "rollback");
    }

    #[test]
    fn commit_releases_every_kept_digest() {
        let history = 3;
        let ws = windows();
        let mut engine = IncrementalState::default();
        for i in 0..10 * history {
            engine.observe_window(&ws[i % ws.len()], None, None);
            assert_eq!(engine.uncommitted, 1);
            while engine.window_count() > history {
                engine.evict_window(None);
            }
            // One committed window slid out once the scope was full.
            assert_eq!(engine.evicted.len(), usize::from(i >= history));
            engine.commit();
            assert!(engine.evicted.is_empty());
            assert_eq!(engine.uncommitted, 0);
        }
        assert_eq!(engine.window_count(), history);
    }

    #[test]
    fn evict_on_empty_engine_is_a_noop() {
        let mut engine = IncrementalState::default();
        assert_eq!(engine.evict_window(None), 0);
        assert_eq!(engine, IncrementalState::default());
    }

    /// [`strategy`] with a title A1 flags.
    fn vague(id: u64) -> AlertStrategy {
        strategy(id).with_title_template("Instance x is abnormal")
    }

    type FlagSet = BTreeSet<(AntiPattern, StrategyId)>;

    fn flag_set(report: &AntiPatternReport) -> FlagSet {
        report
            .findings
            .iter()
            .flat_map(|(&pattern, found)| found.iter().map(move |f| (pattern, f.strategy)))
            .collect()
    }

    fn raised_and_cleared(transitions: &FlagTransitions) -> (FlagSet, FlagSet) {
        let raised = transitions
            .raised
            .iter()
            .map(|f| (f.pattern, f.strategy))
            .collect();
        (raised, transitions.cleared.iter().copied().collect())
    }

    /// A catalog is told apart by its allocation: the same `Arc` again
    /// flips nothing, while a new one — strategy 1 with a clearer title,
    /// strategy 2 gone, strategy 3 now Critical — re-runs A1 and
    /// rescores every strategy in scope, the clean ones included,
    /// exactly as batch detection over the new rows would.
    #[test]
    fn a_new_catalog_reruns_a1_and_rescores_everything() {
        let scope = a4_a5_windows().concat();
        let batch = |rows: &[AlertStrategy]| {
            AntiPatternReport::run_default(&DetectionInput::new(rows).with_alerts(&scope))
        };
        let old_rows = vec![vague(1), strategy(2), strategy(3)];
        let new_rows = vec![strategy(1), strategy(3).with_severity(Severity::Critical)];
        let (old, new) = (
            Arc::new(IndexedCatalog::new(old_rows.clone())),
            Arc::new(IndexedCatalog::new(new_rows.clone())),
        );
        let mut engine = IncrementalState::default();
        engine.observe_window(&scope, None, None);
        assert_eq!(engine.report(&old, &[], None, None), batch(&old_rows));
        assert_eq!(engine.evaluate(&old, &[], None), FlagTransitions::default());

        let (raised, cleared) = raised_and_cleared(&engine.evaluate(&new, &[], None));
        let (before, after) = (flag_set(&batch(&old_rows)), flag_set(&batch(&new_rows)));
        assert_eq!(raised, &after - &before);
        assert_eq!(cleared, &before - &after);
        for flip in [
            (AntiPattern::UnclearTitle, StrategyId(1)),
            (AntiPattern::Repeating, StrategyId(2)),
        ] {
            assert!(cleared.contains(&flip), "{flip:?} should clear");
        }
        let clean = (AntiPattern::MisleadingSeverity, StrategyId(3));
        assert!(raised.contains(&clean), "clean strategy 3 was not rescored");
        assert_eq!(engine.report(&new, &[], None, None), batch(&new_rows));
        assert!(Arc::ptr_eq(engine.catalog().expect("evaluated"), &new));
    }

    /// An evaluation raises findings in report order — by pattern, then
    /// as each detector sorts, A1's equal scores in catalog order — so
    /// the first one raises the whole report, finding for finding.
    #[test]
    fn raised_findings_come_in_report_order() {
        let catalog = Arc::new(IndexedCatalog::new(vec![vague(3), vague(1), strategy(2)]));
        let mut engine = IncrementalState::default();
        for w in &a4_a5_windows() {
            engine.observe_window(w, None, None);
        }
        let raised = engine.evaluate(&catalog, &[], None).raised;
        let report = engine.report(&catalog, &[], None, None);
        let a1: Vec<StrategyId> = raised.iter().take(2).map(|f| f.strategy).collect();
        assert_eq!(a1, [StrategyId(3), StrategyId(1)]);
        assert_eq!(
            raised,
            report.findings.into_values().flatten().collect::<Vec<_>>()
        );
    }

    /// What `rollback` reports is exactly the way back to the last
    /// commit's flags — to none at all before the first commit, A1's
    /// included. Afterwards the engine reports those flags, the next
    /// evaluation finds them current, and a commit keeps nothing.
    #[test]
    fn rollback_returns_to_the_committed_flags() {
        let catalog = Arc::new(IndexedCatalog::new(vec![
            vague(1),
            strategy(2),
            strategy(3),
        ]));
        let ws = a4_a5_windows();
        let flags = |engine: &IncrementalState| engine.flags().collect::<FlagSet>();
        let mut engine = IncrementalState::default();
        engine.observe_window(&ws[0], None, None);
        let (first, _) = raised_and_cleared(&engine.evaluate(&catalog, &[], None));
        assert!(first.contains(&(AntiPattern::UnclearTitle, StrategyId(1))));
        let (raised, cleared) = raised_and_cleared(&engine.rollback(None));
        assert_eq!((raised, cleared), (FlagSet::new(), first));
        assert!(flags(&engine).is_empty() && engine.catalog().is_none());

        // Commit after the burst and toggling hours, then slide them
        // out: A4 on 1 and A5 on 2 clear before the rollback.
        for w in &ws[..3] {
            engine.observe_window(w, None, None);
        }
        engine.evaluate(&catalog, &[], None);
        engine.commit();
        let committed = flags(&engine);
        for w in &ws[3..8] {
            engine.observe_window(w, None, None);
            while engine.window_count() > 3 {
                engine.evict_window(None);
            }
            engine.evaluate(&catalog, &[], None);
        }
        let moved = flags(&engine);
        assert!(!engine.undo.findings.is_empty());
        let (raised, cleared) = raised_and_cleared(&engine.rollback(None));
        assert_eq!(raised, &committed - &moved);
        assert_eq!(cleared, &moved - &committed);
        assert!(cleared.is_empty() && !raised.is_empty());
        assert_eq!(flags(&engine), committed);
        assert_eq!(
            engine.evaluate(&catalog, &[], None),
            FlagTransitions::default()
        );
        engine.commit();
        assert!(engine.undo.findings.is_empty() && engine.undo.a1.is_none());
    }
}
