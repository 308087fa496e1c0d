//! R4 — emerging alert detection.
//!
//! "Manually configured dependencies of alert strategies could not cover
//! all the alert strategies … a few alerts corresponding to a root cause
//! (i.e., emerging alerts) appear first. If they are not dealt with
//! seriously, when the root cause escalates its influence, numerous
//! cascading alerts will be generated. … We employ the adaptive online
//! Latent Dirichlet Allocation to capture the implicit dependencies"
//! (§III-C). This typically catches gray failures (memory leaks, CPU
//! creep) before they cascade.
//!
//! The detector buckets alerts into fixed time windows, turns each
//! alert's text (title + service) into a bag-of-words document, runs
//! [`AdaptiveOnlineLda`] window by window, and reports alerts whose
//! dominant topic has no counterpart in recent history.
//!
//! Storms repeat a few templates, so a window is handled per distinct
//! text: each distinct (title, service) pair is tokenized once and
//! AO-LDA fits the distinct bags plus one bag index per alert, with
//! every float what a per-alert pass would compute.
//!
//! The detector has one driver, the online one:
//! [`observe_window`](EmergingAlertDetector::observe_window) interns
//! unseen words as they arrive (stable-id growth) and widens the
//! topic-word matrix via [`AdaptiveOnlineLda::grow_vocab`] as the
//! vocabulary grows. [`run`](EmergingAlertDetector::run) is that driver
//! run once over a whole stream: it interns the stream's words first, so
//! the model is built at full width on the first window, then observes
//! every wall-clock window in order, empty ones included, so the
//! JS-divergence history only ever compares time-adjacent windows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use alertops_model::{Alert, AlertId, IStr, SimDuration, SimTime};
use alertops_text::{BagOfWords, Tokenizer, Vocabulary};
use alertops_topics::{AdaptiveOnlineLda, AoldaConfig, LdaConfig, PreparedWindow};

/// An opt-in per-window token budget for the emerging channel.
///
/// Under storm load a window can carry far more text than AO-LDA needs
/// to recover its themes. When a window's total token count exceeds
/// [`max_tokens_per_window`](Self::max_tokens_per_window), the detector
/// downsamples the window to exactly that many tokens with seeded
/// reservoir-style selection sampling (Knuth's Algorithm S) over the
/// individual token occurrences, in document order.
///
/// The budget is **adaptive**: windows at or under the cap pass through
/// untouched, byte-exact — sampling only engages under load. It is
/// **off by default** (`budget: None` in [`EmergingConfig`]), so every
/// sampling-off configuration keeps the streaming-vs-offline and
/// shard-count differentials byte-exact. When sampling does engage,
/// exactness versus an unbudgeted run is deliberately traded away — but
/// the draw is a pure function of `(seed, window_index, window
/// contents)`, so any two runs with the same seed sample the same token
/// set and produce identical snapshots (seed-replayable; asserted in
/// `tests/emerging_streaming.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmergingBudget {
    /// Hard per-window token cap; sampling engages only above it.
    pub max_tokens_per_window: usize,
    /// Seed for the per-window sampling RNG. The window index is mixed
    /// in, so each window draws an independent but replayable sample.
    pub seed: u64,
}

impl EmergingBudget {
    /// A budget of `max_tokens_per_window` tokens with the given seed.
    #[must_use]
    pub fn new(max_tokens_per_window: usize, seed: u64) -> Self {
        Self {
            max_tokens_per_window,
            seed,
        }
    }
}

/// Downsamples `bows` in place to at most `budget.max_tokens_per_window`
/// tokens using seeded selection sampling over token occurrences, and
/// returns the number of tokens kept.
///
/// Windows at or under the cap are returned untouched (the adaptive
/// fast path). Over the cap, each token occurrence — the unit is one
/// count of one word in one document, visited in (document, position,
/// count) order — is kept with Algorithm S: keep iff
/// `rng.gen_range(0..remaining) < needed`. This keeps *exactly* the cap,
/// preserves document order, and is a pure function of the inputs and
/// the per-window RNG `StdRng::seed_from_u64(seed ^ mix(window_index))`,
/// which is what makes budgeted runs seed-replayable. Emptied documents
/// keep their slot (as empty bags) so document indices still line up
/// with the window's alert ids.
pub fn apply_budget(
    bows: &mut [BagOfWords],
    budget: &EmergingBudget,
    window_index: usize,
) -> usize {
    let total: usize = bows
        .iter()
        .map(|d| d.iter().map(|&(_, c)| c as usize).sum::<usize>())
        .sum();
    if total <= budget.max_tokens_per_window {
        return total;
    }
    // SplitMix64's golden-ratio increment decorrelates consecutive
    // window indices before they perturb the seed.
    let mix = (window_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(budget.seed ^ mix);
    let mut remaining = total as u64;
    let mut needed = budget.max_tokens_per_window as u64;
    for doc in bows.iter_mut() {
        for entry in doc.iter_mut() {
            let mut kept = 0u32;
            for _ in 0..entry.1 {
                if rng.gen_range(0..remaining) < needed {
                    kept += 1;
                    needed -= 1;
                }
                remaining -= 1;
            }
            entry.1 = kept;
        }
        doc.retain(|&(_, c)| c > 0);
    }
    budget.max_tokens_per_window
}

/// Configuration for [`EmergingAlertDetector`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmergingConfig {
    /// Window length for bucketing alerts.
    pub window: SimDuration,
    /// Number of topics.
    pub num_topics: usize,
    /// AOLDA adaptation weight (see [`AoldaConfig`]).
    pub adaptation_weight: f64,
    /// LDA passes per window.
    pub passes_per_window: usize,
    /// Seed.
    pub seed: u64,
    /// Optional per-window token budget (see [`EmergingBudget`]).
    /// `None` — the default — disables sampling entirely, keeping every
    /// differential byte-exact.
    pub budget: Option<EmergingBudget>,
}

impl Default for EmergingConfig {
    fn default() -> Self {
        Self {
            window: SimDuration::from_hours(1),
            num_topics: 6,
            adaptation_weight: 0.5,
            passes_per_window: 15,
            seed: 17,
            budget: None,
        }
    }
}

/// The text of one alert, detached from the full [`Alert`] record.
///
/// This is what ingestd shards forward to the merge point for the
/// emerging channel: the id (to name flagged alerts), the raise time
/// (to place the window on the wall clock), and the text AO-LDA
/// tokenizes — nothing else crosses the shard boundary. The text is
/// the alert's own interned title and service, so extracting, cloning
/// and merging documents copies no string.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmergingDoc {
    /// The alert this document was extracted from.
    pub alert: AlertId,
    /// When the alert was raised.
    pub raised_at: SimTime,
    /// The alert's title; tokenized first.
    pub title: IStr,
    /// The alert's service name; tokenized after the title.
    pub service: IStr,
}

impl EmergingDoc {
    /// Extracts the emerging-channel document from an alert.
    #[must_use]
    pub fn from_alert(alert: &Alert) -> Self {
        Self {
            alert: alert.id(),
            raised_at: alert.raised_at(),
            title: alert.title_interned().clone(),
            service: alert.service_name_interned().clone(),
        }
    }

    /// Whether `self` and `other` carry the same text.
    fn same_text(&self, other: &Self) -> bool {
        self.title == other.title && self.service == other.service
    }
}

/// Visits the tokens of an alert's text: its title's, then its
/// service's. These are exactly the tokens of `"{title} {service}"`,
/// because the tokenizer splits on the space between them.
fn for_each_text_token(
    tokenizer: &Tokenizer,
    title: &str,
    service: &str,
    scratch: &mut String,
    mut f: impl FnMut(&str),
) {
    tokenizer.for_each_token(title, scratch, &mut f);
    tokenizer.for_each_token(service, scratch, f);
}

/// The verdict for one processed window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmergingReport {
    /// Window index — counts every wall-clock window processed,
    /// empty ones included.
    pub window_index: usize,
    /// Wall-clock start of the window (aligned down to the configured
    /// window length).
    pub window_start: SimTime,
    /// Alerts in the window.
    pub alert_count: usize,
    /// Number of emerging topics found.
    pub emerging_topics: usize,
    /// Alerts whose dominant topic is emerging — surface these to OCEs
    /// first.
    pub emerging_alerts: Vec<AlertId>,
}

/// One window's AO-LDA pass, fitted by
/// [`EmergingAlertDetector::prepare_docs`] but not yet part of the
/// detector's history: [`EmergingAlertDetector::commit`] makes it so
/// and returns its report, [`EmergingAlertDetector::discard`] undoes
/// it.
#[derive(Debug)]
#[must_use = "a prepared pass is committed or discarded"]
pub struct PreparedPass {
    report: EmergingReport,
    fit: PreparedWindow,
    /// The vocabulary's length before the pass interned its words.
    vocab_len: usize,
    /// The model's width before the pass; `None` when the pass made
    /// the model.
    model_width: Option<usize>,
}

/// Emerging-alert detection over consecutive time windows.
///
/// Construct and call [`observe_window`](Self::observe_window) per
/// wall-clock window; [`run`](Self::run) does so over a whole stream.
#[derive(Debug, Clone)]
pub struct EmergingAlertDetector {
    config: EmergingConfig,
    tokenizer: Tokenizer,
    vocab: Vocabulary,
    aolda: Option<AdaptiveOnlineLda>,
    windows_processed: usize,
    /// Where the next window starts if it turns out to be empty —
    /// carried forward so gaps in the stream keep their place on the
    /// wall clock.
    next_window_start: Option<SimTime>,
}

impl EmergingAlertDetector {
    /// Creates a detector whose vocabulary starts empty and grows
    /// online as windows arrive.
    #[must_use]
    pub fn new(config: EmergingConfig) -> Self {
        Self::with_vocabulary(config, Vocabulary::new())
    }

    /// Creates a detector pre-seeded with `vocab` (word ids are reused
    /// as-is; unseen words still intern online). Pass the vocabulary an
    /// offline [`run`](Self::run) ended with to make a streaming
    /// detector reproduce that run exactly.
    #[must_use]
    pub fn with_vocabulary(config: EmergingConfig, vocab: Vocabulary) -> Self {
        Self {
            config,
            tokenizer: Tokenizer::new().drop_numbers(),
            vocab,
            aolda: None,
            windows_processed: 0,
            next_window_start: None,
        }
    }

    /// The current vocabulary.
    #[must_use]
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Processes one wall-clock window of alerts: unseen words are
    /// interned and the topic model's vocabulary widens in
    /// place. Feed windows in stream order, **including empty ones** —
    /// the adaptive prior and the emergence baseline assume adjacent
    /// windows are adjacent in time.
    pub fn observe_window(&mut self, alerts: &[&Alert]) -> EmergingReport {
        let docs: Vec<EmergingDoc> = alerts.iter().map(|a| EmergingDoc::from_alert(a)).collect();
        self.observe_docs(&docs)
    }

    /// [`observe_window`](Self::observe_window) over pre-extracted
    /// documents — the form ingestd's merge point consumes after
    /// merging the per-shard forwards: exactly
    /// [`prepare_docs`](Self::prepare_docs) then
    /// [`commit`](Self::commit).
    ///
    /// Each distinct text is tokenized once and fitted once; the report
    /// is the one a pass over every document would give.
    pub fn observe_docs(&mut self, docs: &[EmergingDoc]) -> EmergingReport {
        let docs: Vec<&EmergingDoc> = docs.iter().collect();
        let pass = self.prepare_docs(&docs);
        self.commit(pass)
    }

    /// Runs the AO-LDA pass over one window's documents without making
    /// it part of the detector's history, so it can be run before the
    /// window is known to be complete. Only the vocabulary (new words
    /// interned) and the model's width (widened to match) move, and
    /// [`discard`](Self::discard) puts both back; the window counters,
    /// the λ history and the emergence baseline move at
    /// [`commit`](Self::commit). Commit or discard a pass before
    /// preparing the next one.
    pub fn prepare_docs(&mut self, docs: &[&EmergingDoc]) -> PreparedPass {
        let window_start = docs
            .iter()
            .map(|d| d.raised_at)
            .min()
            .map(|t| self.align_down(t))
            .or(self.next_window_start)
            .unwrap_or(SimTime::from_secs(0));
        let vocab_len = self.vocab.len();
        let model_width = self.aolda.as_ref().map(|a| a.config().lda.vocab_size);

        let (mut bags, mut positions) = self.encode_distinct(docs);

        // Storm-load token budget (opt-in; see `EmergingBudget`).
        // Applied *after* encoding so vocabulary interning — and thus
        // word ids — never depends on which tokens the sampler keeps.
        // The sampler draws per token occurrence in document order, so
        // it gets the window expanded to one bag per document, and the
        // fit the identity index.
        if let Some(budget) = self.config.budget {
            bags = positions
                .iter()
                .map(|&b| bags[b as usize].clone())
                .collect();
            apply_budget(&mut bags, &budget, self.windows_processed);
            positions = (0..bags.len() as u32).collect();
        }

        // Lazily create the model, or widen it if interning grew the
        // vocabulary. Ids only ever append, so widening is sound.
        let vocab_size = self.vocab.len().max(1);
        let config = &self.config;
        let aolda = self.aolda.get_or_insert_with(|| {
            AdaptiveOnlineLda::new(AoldaConfig {
                lda: LdaConfig {
                    num_topics: config.num_topics,
                    vocab_size,
                    seed: config.seed,
                },
                adaptation_weight: config.adaptation_weight,
                passes_per_window: config.passes_per_window,
            })
        });
        if vocab_size > aolda.config().lda.vocab_size {
            aolda.grow_vocab(vocab_size);
        }

        let fit = aolda.prepare_window(&bags, &positions);
        let emerging_alerts = fit
            .window()
            .emerging_doc_indices()
            .into_iter()
            .map(|ix| docs[ix].alert)
            .collect();
        let report = EmergingReport {
            window_index: self.windows_processed,
            window_start,
            alert_count: docs.len(),
            emerging_topics: fit.window().emerging_topics().len(),
            emerging_alerts,
        };
        PreparedPass {
            report,
            fit,
            vocab_len,
            model_width,
        }
    }

    /// Makes a prepared pass the newest window of the detector's
    /// history and returns its report.
    ///
    /// # Panics
    ///
    /// Panics if another pass was committed since `pass` was prepared.
    pub fn commit(&mut self, pass: PreparedPass) -> EmergingReport {
        // Preparing `pass` left a model; only discarding a pass drops one.
        let aolda = self.aolda.as_mut().expect("a prepared pass made the model");
        aolda.commit_window(pass.fit);
        self.windows_processed += 1;
        self.next_window_start = Some(pass.report.window_start + self.config.window);
        pass.report
    }

    /// Undoes a prepared pass by truncation: the words it interned are
    /// forgotten and the model is cut back to its width before the pass
    /// (or dropped, if the pass created it). The detector is then bit
    /// for bit the one that never prepared it.
    pub fn discard(&mut self, pass: PreparedPass) {
        self.vocab.truncate(pass.vocab_len);
        match pass.model_width {
            None => self.aolda = None,
            Some(width) => {
                if let Some(aolda) = self.aolda.as_mut() {
                    aolda.truncate_vocab(width);
                }
            }
        }
    }

    /// Offline driver: the streaming detector run once over a whole
    /// stream, from a fresh start (any previous state is discarded). It
    /// interns the stream's words in first-seen order, buckets the
    /// stream into wall-clock windows of the configured length, and
    /// observes **every** window from the first alert to the last —
    /// empty windows included, so the topic history never compares
    /// windows that are not adjacent in time, and `window_index` counts
    /// wall-clock buckets. With every word interned up front, the model
    /// is built at full width on the first window and never widens.
    pub fn run(&mut self, alerts: &[Alert]) -> Vec<EmergingReport> {
        let mut vocab = Vocabulary::new();
        let mut scratch = String::new();
        for alert in alerts {
            for_each_text_token(
                &self.tokenizer,
                alert.title(),
                alert.service_name(),
                &mut scratch,
                |token| {
                    vocab.intern(token);
                },
            );
        }
        *self = Self::with_vocabulary(self.config.clone(), vocab);
        if alerts.is_empty() {
            return Vec::new();
        }
        let window_secs = self.config.window.as_secs().max(1);
        let (first, last) = alerts
            .iter()
            .map(|a| a.raised_at().as_secs())
            .fold((u64::MAX, 0), |(lo, hi), t| (lo.min(t), hi.max(t)));
        let origin = first - first % window_secs;

        // One bucketing pass over the stream (input order preserved
        // within each bucket), instead of re-filtering the whole slice
        // once per window.
        let bucket_count = ((last - origin) / window_secs + 1) as usize;
        let mut buckets: Vec<Vec<&Alert>> = vec![Vec::new(); bucket_count];
        for alert in alerts {
            let ix = ((alert.raised_at().as_secs() - origin) / window_secs) as usize;
            buckets[ix].push(alert);
        }
        buckets
            .iter()
            .map(|bucket| self.observe_window(bucket))
            .collect()
    }

    fn align_down(&self, t: SimTime) -> SimTime {
        let window_secs = self.config.window.as_secs().max(1);
        SimTime::from_secs(t.as_secs() - t.as_secs() % window_secs)
    }

    /// Encodes `docs` once per distinct text: returns one bag per
    /// distinct (title, service) pair, in the order of the pair's first
    /// document, and each document's bag index.
    ///
    /// Documents are grouped by content with a sort, not a hash (alert
    /// text is outside input), ties by position so each group starts at
    /// its first document. Tokens stream through one reused scratch
    /// buffer straight into the interner. Visiting the pairs in
    /// first-document order interns every word at the same point of the
    /// stream as tokenizing every document in order would (a repeated
    /// text interns nothing new), so word ids, counts and every
    /// downstream topic are those of the per-document encode.
    fn encode_distinct(&mut self, docs: &[&EmergingDoc]) -> (Vec<BagOfWords>, Vec<u32>) {
        let mut order: Vec<u32> = (0..docs.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (x, y) = (docs[a as usize], docs[b as usize]);
            x.title
                .cmp(&y.title)
                .then_with(|| x.service.cmp(&y.service))
                .then(a.cmp(&b))
        });
        // `bag_of[pos]` first names the first document with pos's text;
        // the walk below turns it into pos's bag index. A group's first
        // document opens a bag, every later one copies the index its
        // first document (an earlier position) already holds.
        let mut bag_of = vec![0u32; docs.len()];
        for group in order.chunk_by(|&a, &b| docs[a as usize].same_text(docs[b as usize])) {
            for &pos in group {
                bag_of[pos as usize] = group[0];
            }
        }
        let mut bags: Vec<BagOfWords> = Vec::new();
        let mut scratch = String::new();
        for pos in 0..docs.len() {
            let first = bag_of[pos] as usize;
            bag_of[pos] = if first == pos {
                let doc = docs[pos];
                let mut bag = BagOfWords::new();
                let vocab = &mut self.vocab;
                for_each_text_token(
                    &self.tokenizer,
                    &doc.title,
                    &doc.service,
                    &mut scratch,
                    |token| vocab.count_token(token, &mut bag),
                );
                bag.sort_unstable_by_key(|&(id, _)| id);
                bags.push(bag);
                (bags.len() - 1) as u32
            } else {
                bag_of[first]
            };
        }
        (bags, bag_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{AlertId, SimTime, StrategyId};

    fn alert(id: u64, title: &str, t: u64) -> Alert {
        Alert::builder(AlertId(id), StrategyId(id % 7))
            .title(title)
            .service("Storage")
            .raised_at(SimTime::from_secs(t))
            .build()
    }

    /// Hours 0..3: routine disk/cpu themes. Hour 3: a brand-new theme
    /// ("certificate rotation deadlock") appears.
    fn stream() -> Vec<Alert> {
        let mut alerts = Vec::new();
        let mut id = 0;
        for hour in 0..4u64 {
            for i in 0..12 {
                let title = if i % 2 == 0 {
                    "disk usage of storage node over threshold"
                } else {
                    "cpu utilization high on compute worker"
                };
                alerts.push(alert(id, title, hour * 3_600 + i * 240));
                id += 1;
            }
            if hour == 3 {
                for i in 0..10 {
                    alerts.push(alert(
                        id,
                        "certificate rotation deadlock renewal stuck handshake expired",
                        hour * 3_600 + 100 + i * 300,
                    ));
                    id += 1;
                }
            }
        }
        alerts.sort_by_key(Alert::raised_at);
        alerts
    }

    /// The layout guard for the record a shard queue keeps per queued
    /// alert: an id, a raise time and two one-word handles.
    #[test]
    fn a_document_is_four_words() {
        assert!(
            std::mem::size_of::<EmergingDoc>() <= 32,
            "{} B",
            std::mem::size_of::<EmergingDoc>()
        );
    }

    #[test]
    fn run_produces_one_report_per_nonempty_window() {
        let alerts = stream();
        let mut detector = EmergingAlertDetector::new(EmergingConfig::default());
        let reports = detector.run(&alerts);
        assert_eq!(reports.len(), 4);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.window_index, i);
            assert_eq!(r.window_start, SimTime::from_secs(i as u64 * 3_600));
            assert!(r.alert_count > 0);
        }
    }

    #[test]
    fn novel_theme_is_flagged_in_its_window() {
        let alerts = stream();
        let mut detector = EmergingAlertDetector::new(EmergingConfig {
            num_topics: 3,
            ..EmergingConfig::default()
        });
        let reports = detector.run(&alerts);
        // The first window has no history: never emerging.
        assert!(reports[0].emerging_alerts.is_empty());
        // The novel "certificate" theme lands in window 3.
        let last = &reports[3];
        assert!(
            !last.emerging_alerts.is_empty(),
            "no emerging alerts flagged in the novel window"
        );
        // The flagged alerts should mostly be certificate alerts (ids >= 48).
        let novel_hits = last.emerging_alerts.iter().filter(|id| id.0 >= 48).count();
        assert!(
            novel_hits * 2 >= last.emerging_alerts.len(),
            "emerging alerts are mostly stale: {:?}",
            last.emerging_alerts
        );
    }

    #[test]
    fn stable_stream_stays_quiet() {
        let mut alerts = Vec::new();
        for hour in 0..4u64 {
            for i in 0..10 {
                alerts.push(alert(
                    hour * 100 + i,
                    "disk usage of storage node over threshold",
                    hour * 3_600 + i * 300,
                ));
            }
        }
        let mut detector = EmergingAlertDetector::new(EmergingConfig {
            num_topics: 2,
            ..EmergingConfig::default()
        });
        let reports = detector.run(&alerts);
        let total_emerging: usize = reports.iter().map(|r| r.emerging_alerts.len()).sum();
        assert_eq!(total_emerging, 0, "stable stream flagged {total_emerging}");
    }

    #[test]
    fn empty_stream_is_fine() {
        let mut detector = EmergingAlertDetector::new(EmergingConfig::default());
        let reports = detector.run(&[]);
        assert!(reports.is_empty());
    }

    /// A stream whose every title and service tokenizes to nothing
    /// (numbers are dropped) still gets one report per wall-clock
    /// bucket, and nothing in it is emerging.
    #[test]
    fn stream_without_words_reports_every_window_quietly() {
        let alerts: Vec<Alert> = (0..6u64)
            .map(|i| {
                Alert::builder(AlertId(i), StrategyId(i % 2))
                    .title("42 7")
                    .service("--")
                    .raised_at(SimTime::from_secs(i / 2 * 3_600 + i % 2 * 600))
                    .build()
            })
            .collect();
        let mut detector = EmergingAlertDetector::new(EmergingConfig::default());
        let reports = detector.run(&alerts);
        assert_eq!(reports.len(), 3, "one report per wall-clock hour");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.window_index, i);
            assert_eq!(r.window_start, SimTime::from_secs(i as u64 * 3_600));
            assert_eq!(r.alert_count, 2);
            assert_eq!(r.emerging_topics, 0);
            assert!(r.emerging_alerts.is_empty());
        }
    }

    #[test]
    fn deterministic() {
        let alerts = stream();
        let mut a = EmergingAlertDetector::new(EmergingConfig::default());
        let mut b = EmergingAlertDetector::new(EmergingConfig::default());
        assert_eq!(a.run(&alerts), b.run(&alerts));
    }

    /// Regression (windowing bug): a silent hour used to be skipped
    /// entirely, so the JS-divergence history compared windows that
    /// were not adjacent in time and `window_index` drifted off the
    /// wall clock. Empty buckets now produce explicit empty reports.
    #[test]
    fn gap_in_stream_yields_explicit_empty_window() {
        let mut alerts = Vec::new();
        let mut id = 0;
        // Hours 0, 1 and 3 are active; hour 2 is silent.
        for hour in [0u64, 1, 3] {
            for i in 0..10 {
                alerts.push(alert(
                    id,
                    "disk usage of storage node over threshold",
                    hour * 3_600 + i * 300,
                ));
                id += 1;
            }
        }
        let mut detector = EmergingAlertDetector::new(EmergingConfig::default());
        let reports = detector.run(&alerts);
        assert_eq!(reports.len(), 4, "the silent hour must appear as a window");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.window_index, i, "indices count wall-clock buckets");
            assert_eq!(r.window_start, SimTime::from_secs(i as u64 * 3_600));
        }
        let silent = &reports[2];
        assert_eq!(silent.alert_count, 0);
        assert_eq!(silent.emerging_topics, 0);
        assert!(silent.emerging_alerts.is_empty());
    }

    /// Regression (refit bug): a reused detector's `run` used to keep
    /// the previous corpus's vocabulary, so it silently grew its
    /// vocabulary and diverged from a fresh one. A rerun now equals a
    /// fresh run.
    #[test]
    fn refit_matches_fresh_detector() {
        let first_corpus = stream();
        let mut second_corpus = Vec::new();
        for hour in 0..3u64 {
            for i in 0..8 {
                second_corpus.push(alert(
                    hour * 100 + i,
                    "replication lag on database follower exceeds budget",
                    hour * 3_600 + i * 400,
                ));
            }
        }
        let config = EmergingConfig::default();

        let mut reused = EmergingAlertDetector::new(config.clone());
        reused.run(&first_corpus);
        let refit_reports = reused.run(&second_corpus);

        let mut fresh = EmergingAlertDetector::new(config);
        let fresh_reports = fresh.run(&second_corpus);

        assert_eq!(refit_reports, fresh_reports);
        assert_eq!(
            reused.vocabulary().len(),
            fresh.vocabulary().len(),
            "refit kept stale tokens from the previous corpus"
        );
    }

    /// The streaming API needs no vocabulary pass: the vocabulary is
    /// interned online and the model widens as new words arrive, yet a
    /// genuinely novel window is still flagged.
    #[test]
    fn observe_window_is_fit_free() {
        let alerts = stream();
        let mut detector = EmergingAlertDetector::new(EmergingConfig {
            num_topics: 3,
            ..EmergingConfig::default()
        });
        let window_secs = 3_600;
        let mut reports = Vec::new();
        for hour in 0..4u64 {
            let bucket: Vec<&Alert> = alerts
                .iter()
                .filter(|a| a.raised_at().as_secs() / window_secs == hour)
                .collect();
            reports.push(detector.observe_window(&bucket));
        }
        assert!(
            !detector.vocabulary().is_empty(),
            "vocabulary interned online"
        );
        assert!(reports[0].emerging_alerts.is_empty(), "no history yet");
        assert!(
            !reports[3].emerging_alerts.is_empty(),
            "novel certificate theme not flagged in streaming mode"
        );
        let novel_hits = reports[3]
            .emerging_alerts
            .iter()
            .filter(|id| id.0 >= 48)
            .count();
        assert!(novel_hits * 2 >= reports[3].emerging_alerts.len());
    }

    fn doc(id: u64, title: &str, service: &str) -> EmergingDoc {
        EmergingDoc {
            alert: AlertId(id),
            raised_at: SimTime::from_secs(id * 60),
            title: title.into(),
            service: service.into(),
        }
    }

    /// Repeated pairs, titles that differ only in digits (the tokenizer
    /// drops numbers, so their bags collide), and a text that tokenizes
    /// to nothing.
    fn mixed_window() -> Vec<EmergingDoc> {
        vec![
            doc(0, "disk usage of node 7 over threshold", "Storage"),
            doc(1, "the 42 of", "--"),
            doc(2, "cpu utilization high on worker", "Compute"),
            doc(3, "disk usage of node 7 over threshold", "Storage"),
            doc(4, "disk usage of node 12 over threshold", "Storage"),
            doc(5, "cpu utilization high on worker", "Compute"),
            doc(6, "the 42 of", "--"),
            doc(7, "cpu utilization high on worker", "Storage"),
        ]
    }

    #[test]
    fn each_distinct_text_is_encoded_once_in_first_document_order() {
        let docs = mixed_window();
        let mut detector = EmergingAlertDetector::new(EmergingConfig::default());
        let (bags, positions) = detector.encode_distinct(&docs.iter().collect::<Vec<_>>());
        assert_eq!(positions, [0, 1, 2, 0, 3, 2, 1, 4]);
        assert_eq!(bags.len(), 5, "one bag per distinct (title, service)");
        assert!(bags[1].is_empty());
        assert_eq!(bags[0], bags[3], "titles differing in digits collide");

        // The per-document encode of the joined text gives the same
        // word ids and the same bag at every position.
        let tokenizer = Tokenizer::new().drop_numbers();
        let mut vocab = Vocabulary::new();
        for (d, &bag) in docs.iter().zip(&positions) {
            let tokens = tokenizer.tokenize(&format!("{} {}", d.title, d.service));
            assert_eq!(vocab.encode_and_update(&tokens), bags[bag as usize]);
        }
        let words =
            |v: &Vocabulary| -> Vec<String> { v.iter().map(|(_, w)| w.to_owned()).collect() };
        assert_eq!(words(&vocab), words(detector.vocabulary()));
    }

    /// Discarding a pass puts the model back as it was: dropped when
    /// the pass made it, cut back to its old width when it widened it.
    #[test]
    fn a_discarded_pass_restores_the_model() {
        let width = |d: &EmergingAlertDetector| d.aolda.as_ref().map(|a| a.config().lda.vocab_size);
        let first = mixed_window();
        let novel = [doc(9, "certificate rotation deadlock", "Security")];
        let mut detector = EmergingAlertDetector::new(EmergingConfig::default());
        for window in [&first[..], &novel[..]] {
            let before = width(&detector);
            let pass = detector.prepare_docs(&window.iter().collect::<Vec<_>>());
            assert_ne!(
                width(&detector),
                before,
                "the pass made or widened the model"
            );
            detector.discard(pass);
            assert_eq!(width(&detector), before);
            detector.observe_docs(&first);
        }
    }

    /// An unengaged budget expands the window to one bag per document
    /// and fits it through the identity index, so it is the per-document
    /// reference for the distinct-text path.
    #[test]
    fn distinct_text_path_reports_as_the_per_document_path() {
        let windows: Vec<Vec<EmergingDoc>> = (0..4u64)
            .map(|hour| {
                let mut window = mixed_window();
                for (i, d) in window.iter_mut().enumerate() {
                    d.alert = AlertId(hour * 100 + i as u64);
                    d.raised_at = SimTime::from_secs(hour * 3_600 + i as u64);
                }
                if hour == 3 {
                    window.push(doc(399, "certificate rotation deadlock", "Security"));
                    window.push(doc(398, "certificate rotation deadlock", "Security"));
                }
                window
            })
            .collect();
        let config = EmergingConfig {
            num_topics: 3,
            ..EmergingConfig::default()
        };
        let mut distinct = EmergingAlertDetector::new(config.clone());
        let mut per_document = EmergingAlertDetector::new(EmergingConfig {
            budget: Some(EmergingBudget::new(1_000_000, 1)),
            ..config
        });
        for window in &windows {
            assert_eq!(
                distinct.observe_docs(window),
                per_document.observe_docs(window)
            );
        }
        let words = |d: &EmergingAlertDetector| -> Vec<String> {
            d.vocabulary().iter().map(|(_, w)| w.to_owned()).collect()
        };
        assert_eq!(words(&distinct), words(&per_document));
    }

    fn total_tokens(bows: &[BagOfWords]) -> usize {
        bows.iter()
            .map(|d| d.iter().map(|&(_, c)| c as usize).sum::<usize>())
            .sum()
    }

    #[test]
    fn budget_under_cap_is_untouched() {
        let mut bows: Vec<BagOfWords> = vec![vec![(0, 2), (1, 1)], vec![(2, 3)]];
        let original = bows.clone();
        let kept = apply_budget(&mut bows, &EmergingBudget::new(6, 9), 0);
        assert_eq!(kept, 6, "window is exactly at the cap");
        assert_eq!(bows, original, "at/under the cap nothing may change");
    }

    #[test]
    fn budget_over_cap_keeps_exactly_the_cap_and_is_seed_replayable() {
        let make = || -> Vec<BagOfWords> {
            (0..10)
                .map(|i| vec![(i, 3), (i + 10, 2), (i + 20, 1)])
                .collect()
        };
        let mut a = make();
        let mut b = make();
        assert_eq!(total_tokens(&a), 60);
        let kept_a = apply_budget(&mut a, &EmergingBudget::new(25, 7), 4);
        let kept_b = apply_budget(&mut b, &EmergingBudget::new(25, 7), 4);
        assert_eq!(kept_a, 25);
        assert_eq!(kept_b, 25);
        assert_eq!(total_tokens(&a), 25, "exactly the cap survives");
        assert_eq!(a, b, "same seed + window index → same sampled token set");

        // A different seed or window index draws a different sample.
        let mut c = make();
        apply_budget(&mut c, &EmergingBudget::new(25, 8), 4);
        let mut d = make();
        apply_budget(&mut d, &EmergingBudget::new(25, 7), 5);
        assert!(a != c || a != d, "sampling ignored seed and window index");
    }

    #[test]
    fn budget_preserves_doc_slots_and_word_order() {
        let mut bows: Vec<BagOfWords> = (0..8).map(|i| vec![(i, 4), (i + 8, 4)]).collect();
        apply_budget(&mut bows, &EmergingBudget::new(10, 3), 0);
        assert_eq!(bows.len(), 8, "emptied docs keep their slot");
        for doc in &bows {
            let ids: Vec<usize> = doc.iter().map(|&(id, _)| id).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "within-doc id order preserved");
        }
    }

    /// A budget generous enough never to engage leaves the whole
    /// detector run byte-identical to a budget-free run — the adaptive
    /// "off under the cap" guarantee at the report level.
    #[test]
    fn unengaged_budget_run_matches_budget_free_run() {
        let alerts = stream();
        let mut plain = EmergingAlertDetector::new(EmergingConfig::default());
        let mut budgeted = EmergingAlertDetector::new(EmergingConfig {
            budget: Some(EmergingBudget::new(1_000_000, 99)),
            ..EmergingConfig::default()
        });
        assert_eq!(plain.run(&alerts), budgeted.run(&alerts));
    }

    /// With the cap low enough to engage, same-seed runs still agree
    /// with each other (replayability at the report level).
    #[test]
    fn engaged_budget_is_deterministic_across_runs() {
        let alerts = stream();
        let config = EmergingConfig {
            budget: Some(EmergingBudget::new(20, 42)),
            ..EmergingConfig::default()
        };
        let mut a = EmergingAlertDetector::new(config.clone());
        let mut b = EmergingAlertDetector::new(config);
        assert_eq!(a.run(&alerts), b.run(&alerts));
    }

    /// A streaming detector seeded with the vocabulary an offline run
    /// ended with reproduces that run byte-for-byte, gaps included.
    #[test]
    fn streaming_with_preagreed_vocabulary_matches_offline_run() {
        let mut alerts = stream();
        // Punch a gap: drop hour 2 so the stream has a silent window.
        alerts.retain(|a| a.raised_at().as_secs() / 3_600 != 2);
        let config = EmergingConfig::default();

        let mut offline = EmergingAlertDetector::new(config.clone());
        let offline_reports = offline.run(&alerts);

        let mut streaming =
            EmergingAlertDetector::with_vocabulary(config, offline.vocabulary().clone());
        let streaming_reports: Vec<EmergingReport> = (0..4u64)
            .map(|hour| {
                let bucket: Vec<&Alert> = alerts
                    .iter()
                    .filter(|a| a.raised_at().as_secs() / 3_600 == hour)
                    .collect();
                streaming.observe_window(&bucket)
            })
            .collect();
        assert_eq!(offline_reports, streaming_reports);
    }
}
