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
//! * [`evaluate`](IncrementalState::evaluate) — bring the held
//!   `(pattern, strategy)` flags up to date, re-judging only strategies
//!   whose aggregates changed, and hand back the flags that flipped as
//!   [`FlagTransitions`], rendering a finding only for a flag that
//!   flips on. This is all a streaming close reads, and it costs
//!   O(change): nothing per held flag or per catalog row, and no
//!   evidence string for a flag that stays as it was.
//!
//! [`report`](IncrementalState::report) (and
//! [`current_findings`](IncrementalState::current_findings), its form
//! for a caller holding catalog rows rather than an
//! `Arc<IndexedCatalog>`) evaluates and then renders every flag held
//! into an [`AntiPatternReport`] equal to running the batch detectors
//! over the flattened surviving history — O(findings) more, for the
//! batch callers.
//!
//! # Exactness
//!
//! Each of A1–A5 is two per-strategy functions: a verdict, `flags`,
//! that says whether the strategy is flagged, and `render`, which
//! builds its finding, score and evidence. A1 reads the catalog row
//! alone; A2–A5 read *aggregates* (counts, sorted transient times,
//! `(hour, count)` runs): A2, A3 and A4 judge on counters alone (A2/A3
//! with the incident co-occurrence count), and A5 on hour runs. Both
//! the batch [`Detector`](crate::Detector) passes and this engine
//! reduce a strategy's evidence to exactly those inputs and call the
//! same functions, so flags and findings agree byte for byte.
//! The rolling counters are order-independent and support exact
//! subtraction, with empty entries removed eagerly so a long-lived
//! state is structurally identical to one freshly built from only the
//! surviving windows (the property suite asserts this).
//!
//! A1 (unclear title) depends only on the catalog row, so its flag is
//! rejudged, once per row, only when the catalog changes, and flips
//! like any other; a strategy keeps it whether or not it has alerts in
//! scope. A catalog is told apart from the last one by its allocation
//! (`Arc::ptr_eq`), not by comparing rows; a new allocation also
//! rejudges every strategy in scope. A2/A3 additionally depend on the
//! incident list, so their flags are rejudged whenever the provided
//! incidents differ from the previous evaluation.
//!
//! # Memory: each raise time held once, a flag as five bits, the catalog not at all
//!
//! A window's raise times live in its digest and nowhere else: a digest
//! is two exactly-sized vectors, one [`Slice`] of counters per strategy
//! and every alert's raise time, both in strategy-id order. A
//! strategy's rolling state is three counters, and what A1–A5 say of
//! it is five bits in a table that holds only flagged strategies; no
//! finding or evidence string outlives the call that rendered it. The
//! times the engine reads — A2/A3's co-occurrence count, A5's hour
//! runs for its verdict, and A4's sorted transient times and A5's runs
//! to render a finding — are gathered from the surviving digests one
//! strategy at a time, into buffers the engine reuses, and only where
//! they are read: A2/A3's count only when there are incidents, A5's
//! runs only for a strategy whose counters say it `may_flag` at all,
//! A4's times only for a finding being rendered. So the buffers never
//! grow past the largest single strategy's alerts in scope. The
//! `held_raise_times` and `evaluation_scratch` probes state the two
//! bounds and the property suite checks them after every operation.
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
//! announced as of the commit (none before the first, though the
//! catalog already has unclear titles then). An evaluation keeps, until
//! the next commit, each strategy's flags as of the commit the first
//! time one of them flips — O(flips), not a copy of the table, A1's
//! included — and the catalog it replaces. Rollback puts those back,
//! returns the flips that took as [`FlagTransitions`] (a flag back on
//! with its finding rendered from the committed scope and catalog), and
//! has the next evaluation rejudge every strategy in scope or flagged.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use alertops_model::{
    indicates_incident, Alert, AlertId, AlertStrategy, Clearance, DependencyGraph, Incident,
    IndexedCatalog, MicroserviceId, RegionId, ServiceId, SimTime, StrategyId, DERIVATION_WINDOW,
};

use crate::a2_severity::SeverityEvidence;
use crate::a5_repeating::push_hour_runs;
use crate::a6_cascading::{CascadeGroup, CascadeState};
use crate::metrics::DetectMetrics;
use crate::report::AntiPatternReport;
use crate::types::{AntiPattern, StrategyFinding};
use crate::{
    ImproperRuleDetector, MisleadingSeverityDetector, RepeatingDetector, TransientTogglingDetector,
    UnclearTitleDetector,
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
    /// slice and its raise times, if the window has one. The search
    /// gallops, so a walk that skips most slices costs O(log) per step
    /// and a dense one O(1).
    fn seek(&self, cursor: &mut usize, id: StrategyId) -> Option<(&Slice, &[SimTime])> {
        let rest = &self.slices[*cursor..];
        let mut end = 1;
        while end <= rest.len() && rest[end - 1].strategy < id {
            end *= 2;
        }
        // Every slice before `end / 2` is ordered before `id`.
        let skipped = end / 2;
        *cursor +=
            skipped + rest[skipped..end.min(rest.len())].partition_point(|s| s.strategy < id);
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

    /// What A2 reads: these counters and the incident co-occurrence
    /// count.
    fn severity_evidence(&self, with_incident: usize) -> SeverityEvidence {
        SeverityEvidence {
            total: self.total,
            with_incident,
            auto_cleared: self.auto_cleared,
            transients: self.transients,
        }
    }
}

/// Buffers the engine reuses across windows and evaluations, so that
/// once grown neither a digest build nor an evaluation allocates for
/// them. Empty between calls; only their capacity persists.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The window being digested, one row per alert, sorted.
    rows: Vec<DigestRow>,
    /// The raise-time evidence of one strategy at a time.
    gather: Gather,
}

/// Gathers one strategy's raise-time evidence from the surviving
/// digests into buffers that hold one strategy's at a time, so they
/// never grow past the largest single strategy's alerts in scope.
#[derive(Debug, Clone, Default)]
struct Gather {
    /// Per surviving window, the merge-walk position. A walk visits
    /// strategies in ascending id order from [`start`](Self::start).
    cursors: Vec<usize>,
    /// A4: one strategy's sorted transient times.
    transient_times: Vec<SimTime>,
    /// A5: one strategy's hour buckets, before they are run-length
    /// encoded into `hour_runs`.
    hours: Vec<u64>,
    /// A5: one strategy's `(hour, count)` runs.
    hour_runs: Vec<(u64, usize)>,
    /// The most entries one buffer held since the last evaluation
    /// started.
    peak: usize,
}

impl Gather {
    /// Starts a walk over `windows` surviving windows.
    fn start(&mut self, windows: usize) {
        self.cursors.clear();
        self.cursors.resize(windows, 0);
    }

    /// Calls `f` with strategy `id`'s slice and raise times in every
    /// surviving window that has one. `id` must not be below the last
    /// one walked since [`start`](Self::start).
    fn walk(
        &mut self,
        windows: &VecDeque<WindowDigest>,
        id: StrategyId,
        mut f: impl FnMut(&Slice, &[SimTime]),
    ) {
        for (digest, cursor) in windows.iter().zip(&mut self.cursors) {
            if let Some((slice, times)) = digest.seek(cursor, id) {
                f(slice, times);
            }
        }
    }

    /// How many of `id`'s alerts indicated an incident on `service`.
    fn with_incident(
        &mut self,
        windows: &VecDeque<WindowDigest>,
        id: StrategyId,
        service: ServiceId,
        incidents: &[Incident],
    ) -> usize {
        let mut count = 0;
        self.walk(windows, id, |_, times| {
            count += times
                .iter()
                .filter(|&&t| indicates_incident(incidents, service, t))
                .count();
        });
        count
    }

    /// Calls `f` with `id`'s transient times, sorted — what A4 renders
    /// from — and empties the buffer again.
    fn with_transient_times<R>(
        &mut self,
        windows: &VecDeque<WindowDigest>,
        id: StrategyId,
        f: impl FnOnce(&[SimTime]) -> R,
    ) -> R {
        let mut times = std::mem::take(&mut self.transient_times);
        self.walk(windows, id, |slice, all| {
            times.extend_from_slice(&all[..slice.transients as usize]);
        });
        times.sort_unstable();
        self.peak = self.peak.max(times.len());
        let result = f(&times);
        times.clear();
        self.transient_times = times;
        result
    }

    /// Calls `f` with `id`'s `(hour, count)` runs — what A5 judges and
    /// renders from — and empties the buffers again.
    fn with_hour_runs<R>(
        &mut self,
        windows: &VecDeque<WindowDigest>,
        id: StrategyId,
        f: impl FnOnce(&[(u64, usize)]) -> R,
    ) -> R {
        let mut hours = std::mem::take(&mut self.hours);
        self.walk(windows, id, |_, times| {
            hours.extend(times.iter().map(|t| t.hour_bucket()));
        });
        hours.sort_unstable();
        push_hour_runs(&hours, &mut self.hour_runs);
        self.peak = self.peak.max(hours.len());
        hours.clear();
        self.hours = hours;
        let result = f(&self.hour_runs);
        self.hour_runs.clear();
        result
    }

    /// Renders the findings `flags` holds for `strategy` from its
    /// rolling counters `state`, gathering only the raise times those
    /// findings read, and hands them to `out` in A1–A5 order.
    fn render(
        &mut self,
        windows: &VecDeque<WindowDigest>,
        incidents: &[Incident],
        strategy: &AlertStrategy,
        state: &StrategyState,
        flags: Flags,
        mut out: impl FnMut(StrategyFinding),
    ) {
        let id = strategy.id();
        let total = state.total;
        if flags.has(A1) {
            out(UnclearTitleDetector::render(strategy));
        }
        let with_incident = if (flags.has(A2) || flags.has(A3)) && !incidents.is_empty() {
            self.with_incident(windows, id, strategy.service(), incidents)
        } else {
            0
        };
        if flags.has(A2) {
            out(MisleadingSeverityDetector::render(
                strategy,
                &state.severity_evidence(with_incident),
            ));
        }
        if flags.has(A3) {
            out(ImproperRuleDetector::render(strategy, total, with_incident));
        }
        if flags.has(A4) {
            out(self.with_transient_times(windows, id, |times| {
                TransientTogglingDetector::default().render(id, total, times)
            }));
        }
        if flags.has(A5) {
            out(self.with_hour_runs(windows, id, |runs| {
                RepeatingDetector::render(id, total, runs)
            }));
        }
    }
}

/// The patterns a [`Flags`] holds, by bit.
const FLAGGED: [AntiPattern; 5] = [
    AntiPattern::UnclearTitle,
    AntiPattern::MisleadingSeverity,
    AntiPattern::ImproperRule,
    AntiPattern::TransientToggling,
    AntiPattern::Repeating,
];

/// Bits of [`Flags`], indices into [`FLAGGED`].
const A1: usize = 0;
const A2: usize = 1;
const A3: usize = 2;
const A4: usize = 3;
const A5: usize = 4;

/// Which of A1–A5 flag one strategy: bit `i` for `FLAGGED[i]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Flags(u8);

impl Flags {
    fn has(self, bit: usize) -> bool {
        self.0 & (1 << bit) != 0
    }

    fn set(&mut self, bit: usize, on: bool) {
        if on {
            self.0 |= 1 << bit;
        } else {
            self.0 &= !(1 << bit);
        }
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The flags set here and not in `other`.
    fn without(self, other: Self) -> Self {
        Self(self.0 & !other.0)
    }

    /// The patterns flagged, in [`FLAGGED`] order.
    fn patterns(self) -> impl Iterator<Item = AntiPattern> {
        (0..FLAGGED.len())
            .filter(move |&bit| self.has(bit))
            .map(|bit| FLAGGED[bit])
    }
}

/// The A1–A5 flags: an entry per strategy that holds at least one — a
/// strategy with none has no entry — and how many entries hold each
/// pattern's.
#[derive(Debug, Clone, Default)]
struct FlagTable {
    entries: BTreeMap<StrategyId, Flags>,
    /// Flags held per pattern, in [`FLAGGED`] order.
    counts: [usize; FLAGGED.len()],
}

impl FlagTable {
    fn get(&self, id: StrategyId) -> Flags {
        self.entries.get(&id).copied().unwrap_or_default()
    }

    /// Replaces `id`'s flags, recording the ones that clear into
    /// `transitions` (the caller records the raised ones with their
    /// findings). Returns what it held.
    fn put(&mut self, id: StrategyId, flags: Flags, transitions: &mut FlagTransitions) -> Flags {
        let held = if flags.is_empty() {
            self.entries.remove(&id)
        } else {
            self.entries.insert(id, flags)
        }
        .unwrap_or_default();
        for bit in 0..FLAGGED.len() {
            self.counts[bit] =
                self.counts[bit] + usize::from(flags.has(bit)) - usize::from(held.has(bit));
        }
        transitions
            .cleared
            .extend(held.without(flags).patterns().map(|pattern| (pattern, id)));
        held
    }
}

/// What the flags were as of the last commit, kept only for what an
/// evaluation has changed since — what
/// [`rollback`](IncrementalState::rollback) puts back.
#[derive(Debug, Clone, Default)]
struct Undo {
    /// Each strategy an evaluation flipped a flag of, with its flags
    /// as of the commit.
    flags: BTreeMap<StrategyId, Flags>,
    /// The catalog as of the commit, once an evaluation replaced it.
    /// Its A1 flags come back through `flags`.
    catalog: Option<Option<Arc<IndexedCatalog>>>,
}

impl Undo {
    /// Keeps what a strategy `held` before its flags changed, if this
    /// is the first change since the commit.
    fn keep(&mut self, id: StrategyId, held: Flags, now: Flags) {
        if held != now {
            self.flags.entry(id).or_insert(held);
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
    /// Puts both lists in their documented order; `catalog` is the one
    /// the raised findings were flagged against.
    fn sorted(mut self, catalog: Option<&IndexedCatalog>) -> Self {
        self.raised.sort_unstable_by(|a, b| {
            a.pattern
                .cmp(&b.pattern)
                .then_with(|| a.report_order(b, |f| rank(catalog, f)))
        });
        self.cleared.sort_unstable();
        self.cleared.dedup();
        self
    }
}

/// What breaks a score tie in report order, as the batch detectors
/// break it: an A1 finding's row in `catalog`, else the strategy id.
fn rank(catalog: Option<&IndexedCatalog>, f: &StrategyFinding) -> (Option<usize>, StrategyId) {
    let row = catalog.filter(|_| f.pattern == AntiPattern::UnclearTitle);
    (row.and_then(|c| c.position(f.strategy)), f.strategy)
}

/// One stale strategy, resolved for an evaluation: the catalog row, the
/// rolling counters, and its flags before and after.
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
    /// The flags it held.
    was: Flags,
    /// The verdicts, held here until the one table write.
    now: Flags,
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
    /// The A1–A5 flags; findings are rendered only when one flips on
    /// or a report is asked for.
    flags: FlagTable,
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
    /// counters, histogram, cascade edges) — not the evaluation state
    /// (the flags), which legitimately differs between a long-lived
    /// state and a fresh rebuild until the next `current_findings`
    /// call, and not the rollback bookkeeping, which says where the
    /// last commit was, not what is in scope.
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
            for &(t, id, ms) in &digest.cascade {
                self.cascade.insert(t, id, ms, DERIVATION_WINDOW, graph);
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
    /// Of the evaluation state only the flags are kept: every one an
    /// evaluation flipped since the commit is put back, A1's included,
    /// with the catalog, so the flags are the ones last committed —
    /// none at all before the first commit. A flag that
    /// comes back on is raised with its finding rendered from the
    /// committed scope. The next evaluation then rejudges every
    /// strategy in scope or flagged against them.
    pub fn rollback(&mut self, graph: Option<&DependencyGraph>) -> FlagTransitions {
        let mut scope = std::mem::take(&mut self.evicted);
        let committed = self.windows.len() - self.uncommitted;
        scope.extend(self.windows.drain(..committed));
        let mut restored = FlagTransitions::default();
        let Undo { flags, catalog } = std::mem::take(&mut self.undo);
        if let Some(catalog) = catalog {
            self.catalog = catalog;
        }
        // Drop the old aggregates first: the rebuild never holds two
        // copies of the state.
        *self = Self {
            catalog: self.catalog.take(),
            incidents_seen: self.incidents_seen.take(),
            flags: std::mem::take(&mut self.flags),
            scratch: std::mem::take(&mut self.scratch),
            ..Self::default()
        };
        for digest in scope {
            self.apply(&digest, graph);
            self.windows.push_back(digest);
        }
        let Self {
            windows,
            per_strategy,
            catalog,
            incidents_seen,
            flags: table,
            scratch,
            ..
        } = self;
        let incidents = incidents_seen.as_deref().unwrap_or_default();
        scratch.gather.start(windows.len());
        for (id, committed) in flags {
            let raised = committed.without(table.put(id, committed, &mut restored));
            // A flag is only ever set for a strategy with a row in the
            // catalog it was evaluated against, which is the one put
            // back; its counters are those of the committed scope.
            let Some(strategy) = catalog.as_ref().and_then(|c| c.get(id)) else {
                continue;
            };
            let state = per_strategy.get(&id).copied().unwrap_or_default();
            scratch
                .gather
                .render(windows, incidents, strategy, &state, raised, |finding| {
                    restored.raised.push(finding);
                });
        }
        // `apply` marked every strategy in scope dirty.
        self.dirty.extend(self.flags.entries.keys().copied());
        restored.sorted(self.catalog.as_deref())
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
            flags: _,
            undo: _, // flags only
            evicted,
            uncommitted: _,
            scratch,
        } = self;
        let digests: usize = windows.iter().chain(evicted).map(|d| d.times.len()).sum();
        digests + scratch.rows.len() + scratch.gather.transient_times.len()
    }

    /// The most entries one evaluation buffer held since the last
    /// [`evaluate`](Self::evaluate) started (through what
    /// [`report`](Self::report) renders after it): raise times or hour
    /// runs, gathered one strategy at a time, so never more than the
    /// largest single strategy's alerts in scope.
    #[doc(hidden)]
    #[must_use]
    pub fn evaluation_scratch(&self) -> usize {
        self.scratch.gather.peak
    }

    /// The catalog of the last evaluation: the allocation the caller
    /// passed, not a copy.
    #[must_use]
    pub fn catalog(&self) -> Option<&Arc<IndexedCatalog>> {
        self.catalog.as_ref()
    }

    /// Every `(pattern, strategy)` flag reported so far — by the last
    /// evaluation, or after a [`rollback`](Self::rollback) as of the
    /// last commit — by strategy, and a strategy's by pattern.
    pub fn flags(&self) -> impl Iterator<Item = (AntiPattern, StrategyId)> + '_ {
        self.flags
            .entries
            .iter()
            .flat_map(|(&id, flags)| flags.patterns().map(move |pattern| (pattern, id)))
    }

    /// Evaluates the current scope against `catalog` and `incidents`
    /// and returns the flags that flipped since the last evaluation —
    /// O(stale strategies + flips), whatever the catalog's size and
    /// however many flags are held.
    ///
    /// Only strategies whose aggregates changed since the last
    /// evaluation are re-judged. A new `catalog` — told apart from the
    /// last one by identity, not by content — rejudges A1 on every row
    /// and everything else on every strategy in scope; a changed
    /// incident list rejudges A2/A3. A strategy is judged against the
    /// catalog row with its id (the first, should the catalog repeat
    /// one); one with alerts in scope but no row is flagged by nothing,
    /// and one with a row but no alerts in scope by A1 at most. A
    /// verdict reads the row (A1) or the rolling counters (A2/A3 also
    /// the incident co-occurrence count, gathered only when there are
    /// incidents), and A5's the strategy's hour runs; a finding is
    /// rendered only for a flag that flips on.
    /// Per-pattern verdict wall time and flag counts are recorded into
    /// `metrics` as the batch
    /// [`run_instrumented`](AntiPatternReport::run_instrumented) does;
    /// the co-occurrence gather and the rendering are timed under none
    /// of them.
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
        let incidents_changed = self.incidents_seen.as_deref() != Some(incidents);
        let Self {
            windows,
            per_strategy,
            dirty,
            catalog: held,
            flags,
            undo,
            scratch,
            ..
        } = self;
        let gather = &mut scratch.gather;
        gather.peak = 0;

        // A1 — a property of the catalog row, rejudged on every row
        // (a repeated id on its first) only when the catalog is new.
        // A flag whose row is gone clears.
        if !held.as_ref().is_some_and(|held| Arc::ptr_eq(held, catalog)) {
            let _span = metrics.map(|m| m.detector_timer(AntiPattern::UnclearTitle));
            // Strategy attributes (severity, kind, service) feed every
            // verdict: invalidate everything.
            dirty.extend(per_strategy.keys().copied());
            let replaced = held.replace(Arc::clone(catalog));
            undo.catalog.get_or_insert(replaced);
            let held_a1 = flags.entries.iter().filter(|(_, f)| f.has(A1));
            let gone: Vec<StrategyId> = held_a1
                .map(|(&id, _)| id)
                .filter(|&id| catalog.get(id).is_none())
                .collect();
            let rows = catalog.rows().iter().map(AlertStrategy::id);
            for id in gone.into_iter().chain(rows) {
                let row = catalog.get(id);
                let mut now = flags.get(id);
                now.set(A1, row.is_some_and(UnclearTitleDetector::flags));
                let was = flags.put(id, now, &mut transitions);
                undo.keep(id, was, now);
                if let Some(strategy) = row.filter(|_| now.without(was).has(A1)) {
                    let raised = &mut transitions.raised;
                    raised.push(UnclearTitleDetector::render(strategy));
                }
            }
        }

        // Resolve every stale strategy once — its rolling state and its
        // catalog row — so the four verdicts below share one lookup of
        // each. One no longer in scope, or in scope but missing from
        // the catalog (nothing to judge it against), is flagged by none
        // of A2–A5; its A1 flag is its row's and stays.
        let mut stale: Vec<Stale<'_>> = Vec::with_capacity(dirty.len());
        let mut resolve = |id: StrategyId, aggregates_changed: bool| match per_strategy
            .get(&id)
            .zip(catalog.get(id))
        {
            Some((state, strategy)) => {
                let was = flags.get(id);
                stale.push(Stale {
                    strategy,
                    state,
                    aggregates_changed,
                    with_incident: 0,
                    was,
                    now: was,
                });
            }
            None => {
                let mut now = Flags::default();
                now.set(A1, flags.get(id).has(A1));
                let held = flags.put(id, now, &mut transitions);
                undo.keep(id, held, now);
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

        // A2 and A3 share the co-occurrence count: one merge-walk per
        // surviving window over the id-ordered stale list.
        if !incidents.is_empty() {
            gather.start(windows.len());
            for s in &mut stale {
                s.with_incident =
                    gather.with_incident(windows, s.strategy.id(), s.strategy.service(), incidents);
            }
        }

        // A2 — misleading severity.
        {
            let _span = metrics.map(|m| m.detector_timer(AntiPattern::MisleadingSeverity));
            for s in &mut stale {
                let evidence = s.state.severity_evidence(s.with_incident);
                s.now
                    .set(A2, MisleadingSeverityDetector::flags(s.strategy, &evidence));
            }
        }

        // A3 — improper rule.
        {
            let _span = metrics.map(|m| m.detector_timer(AntiPattern::ImproperRule));
            for s in &mut stale {
                let on = ImproperRuleDetector::flags(s.strategy, s.state.total, s.with_incident);
                s.now.set(A3, on);
            }
        }

        // A4 — transient/toggling — and A5 — repeating — read the
        // aggregates alone: a strategy stale through the incident list
        // only keeps its flags. A4's verdict is its counters'; A5
        // gathers the hour runs of a strategy its counters do not rule
        // out, one strategy at a time.
        {
            let _span = metrics.map(|m| m.detector_timer(AntiPattern::TransientToggling));
            for s in stale.iter_mut().filter(|s| s.aggregates_changed) {
                let on = TransientTogglingDetector::flags(s.state.total, s.state.transients);
                s.now.set(A4, on);
            }
        }
        {
            let _span = metrics.map(|m| m.detector_timer(AntiPattern::Repeating));
            gather.start(windows.len());
            for s in stale.iter_mut().filter(|s| s.aggregates_changed) {
                let total = s.state.total;
                let on = RepeatingDetector::may_flag(total)
                    && gather.with_hour_runs(windows, s.strategy.id(), |runs| {
                        RepeatingDetector::flags(total, runs)
                    });
                s.now.set(A5, on);
            }
        }

        // One table write per strategy whose flags flipped, in id
        // order, and a finding rendered for each flag that flips on.
        gather.start(windows.len());
        for s in stale.iter().filter(|s| s.now != s.was) {
            let id = s.strategy.id();
            flags.put(id, s.now, &mut transitions);
            undo.keep(id, s.was, s.now);
            let raised = s.now.without(s.was);
            if !raised.is_empty() {
                gather.render(windows, incidents, s.strategy, s.state, raised, |finding| {
                    transitions.raised.push(finding);
                });
            }
        }

        if let Some(m) = metrics {
            for (pattern, count) in FLAGGED.into_iter().zip(self.flags.counts) {
                m.record_findings(pattern, count as u64);
            }
        }
        self.dirty.clear();
        if incidents_changed {
            self.incidents_seen = Some(incidents.to_vec());
        }
        transitions.sorted(Some(catalog))
    }

    /// [`evaluate`](Self::evaluate)s the current scope, then renders
    /// every flag held into an [`AntiPatternReport`] equal to running
    /// the batch detectors over the flattened surviving history with
    /// `catalog`, `incidents` and `graph` attached: O(findings) on top
    /// of the evaluation, for the callers that want the whole picture.
    /// Each finding is rendered from the aggregates by the function the
    /// batch detector renders it with. Cascade groups (A6) are reported
    /// only when `graph` is given.
    pub fn report(
        &mut self,
        catalog: &Arc<IndexedCatalog>,
        incidents: &[Incident],
        graph: Option<&DependencyGraph>,
        metrics: Option<&DetectMetrics>,
    ) -> AntiPatternReport {
        self.evaluate(catalog, incidents, metrics);
        let mut findings = BTreeMap::from(FLAGGED.map(|pattern| (pattern, Vec::new())));
        let Self {
            windows,
            per_strategy,
            flags,
            scratch,
            ..
        } = self;
        scratch.gather.start(windows.len());
        for (&id, &held) in &flags.entries {
            // An evaluation leaves flags only on strategies with a row,
            // and A2–A5 flags only on those in scope too.
            let Some(strategy) = catalog.get(id) else {
                continue;
            };
            let state = per_strategy.get(&id).copied().unwrap_or_default();
            scratch
                .gather
                .render(windows, incidents, strategy, &state, held, |finding| {
                    findings.entry(finding.pattern).or_default().push(finding);
                });
        }
        for found in findings.values_mut() {
            found.sort_unstable_by(|a, b| a.report_order(b, |f| rank(Some(catalog), f)));
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
    use crate::input::DetectionInput;
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
    fn findings_clear_with_their_evidence() {
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
    fn the_flag_table_holds_flagged_strategies_only() {
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
        let assert_flagged_only = |engine: &IncrementalState, step: &str| {
            assert!(
                engine.flags.entries.values().all(|f| !f.is_empty()),
                "{step}: an entry without a flag"
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
        assert_flagged_only(&engine, "observe");
        for k in 1..=3 {
            engine.evict_window(None);
            engine.current_findings(&strategies, &[], None, None);
            assert_flagged_only(&engine, &format!("evict {k}"));
        }
        engine.rollback(None);
        assert_eq!(engine.current_findings(&strategies, &[], None, None), full);
        assert_flagged_only(&engine, "rollback");
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

    /// A rollback across a catalog change raises A1's flags again from
    /// the table, in id order, yet hands them back the way the report
    /// lists them: equal scores in catalog row order.
    #[test]
    fn rollback_keeps_a1_in_catalog_row_order() {
        let rows = vec![vague(3), vague(1), strategy(2), vague(5)];
        let old = Arc::new(IndexedCatalog::new(rows.clone()));
        let clear = Arc::new(IndexedCatalog::new(
            rows.iter().map(|s| strategy(s.id().0)).collect(),
        ));
        let mut engine = IncrementalState::default();
        for w in &a4_a5_windows()[..3] {
            engine.observe_window(w, None, None);
        }
        engine.evaluate(&old, &[], None);
        engine.commit();
        let (_, cleared) = raised_and_cleared(&engine.evaluate(&clear, &[], None));
        let a1 = |id: u64| (AntiPattern::UnclearTitle, StrategyId(id));
        assert_eq!(cleared, FlagSet::from([a1(1), a1(3), a1(5)]));

        let restored = engine.rollback(None);
        assert!(Arc::ptr_eq(engine.catalog().expect("restored"), &old));
        let raised_a1: Vec<StrategyFinding> = restored
            .raised
            .into_iter()
            .filter(|f| f.pattern == AntiPattern::UnclearTitle)
            .collect();
        let order: Vec<StrategyId> = raised_a1.iter().map(|f| f.strategy).collect();
        assert_eq!(order, [StrategyId(3), StrategyId(1), StrategyId(5)]);
        let report = engine.report(&old, &[], None, None);
        assert_eq!(raised_a1, report.findings[&AntiPattern::UnclearTitle]);
    }

    /// A1 is a property of the row, not of the alerts in scope: a vague
    /// strategy whose alerts are all evicted keeps its A1 flag and
    /// loses the rest, and a vague row that never alerted is raised at
    /// the first evaluation and never cleared.
    #[test]
    fn a1_outlives_scope() {
        let catalog = Arc::new(IndexedCatalog::new(vec![
            strategy(1),
            vague(2),
            strategy(3),
            vague(7),
        ]));
        let a1 = |id: u64| (AntiPattern::UnclearTitle, StrategyId(id));
        let mut engine = IncrementalState::default();
        for w in &a4_a5_windows()[..3] {
            engine.observe_window(w, None, None);
        }
        let (raised, _) = raised_and_cleared(&engine.evaluate(&catalog, &[], None));
        assert!(raised.contains(&a1(2)) && raised.contains(&a1(7)));
        let of_2 = |engine: &IncrementalState| -> FlagSet {
            engine
                .flags()
                .filter(|&(_, id)| id == StrategyId(2))
                .collect()
        };
        assert!(
            of_2(&engine).len() > 1,
            "strategy 2 bursts: {:?}",
            of_2(&engine)
        );

        while engine.window_count() > 0 {
            engine.evict_window(None);
            let (_, cleared) = raised_and_cleared(&engine.evaluate(&catalog, &[], None));
            assert!(!cleared.contains(&a1(2)) && !cleared.contains(&a1(7)));
        }
        assert_eq!(engine.alert_count(), 0);
        assert_eq!(of_2(&engine), FlagSet::from([a1(2)]));
        assert_eq!(
            engine.flags().collect::<FlagSet>(),
            FlagSet::from([a1(2), a1(7)])
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
        assert!(!engine.undo.flags.is_empty());
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
        assert!(engine.undo.flags.is_empty() && engine.undo.catalog.is_none());
    }
}
