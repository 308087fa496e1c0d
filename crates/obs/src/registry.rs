//! Metric registration and naming.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::encode;
use crate::histogram::Histogram;
use crate::metrics::{Counter, Gauge};

/// What a family of series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One labelled series inside a family.
#[derive(Debug)]
pub(crate) struct Series {
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) instrument: Instrument,
}

#[derive(Debug)]
pub(crate) enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// All series sharing one metric name.
#[derive(Debug)]
pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: MetricKind,
    pub(crate) series: Vec<Series>,
}

/// Owns metric names, help text, and label sets.
///
/// The registry's mutex is touched only when a metric is registered or
/// the exposition is rendered — instrumented code registers once, caches
/// the returned `Arc` handle, and records through relaxed atomics from
/// then on. Registering the same `(name, labels)` pair again returns the
/// *same* handle, so independent components (e.g. shard workers) that
/// name the same series share one aggregate instrument.
///
/// # Panics
///
/// Registering a name under two different instrument kinds (say, a
/// counter and then a histogram) is a programmer error and panics at
/// registration time, long before any exposition is scraped.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) a counter series.
    #[must_use]
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, MetricKind::Counter, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked during registration"),
        }
    }

    /// Registers (or retrieves) a gauge series.
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, MetricKind::Gauge, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked during registration"),
        }
    }

    /// Registers (or retrieves) a histogram series.
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, help, labels, MetricKind::Histogram, || {
            Instrument::Histogram(Arc::new(Histogram::new()))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked during registration"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name {name:?}"
        );
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        let mut families = self.families();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: Vec::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} registered as {} and {}",
            family.kind.as_str(),
            kind.as_str()
        );
        if let Some(existing) = family.series.iter().find(|s| s.labels == labels) {
            return clone_instrument(&existing.instrument);
        }
        let instrument = make();
        let handle = clone_instrument(&instrument);
        family.series.push(Series { labels, instrument });
        handle
    }

    /// Renders the Prometheus text exposition of every registered
    /// series.
    #[must_use]
    pub fn render(&self) -> String {
        encode::render_families(&self.families())
    }

    /// Locks the family map, taking it back from a poisoned lock.
    ///
    /// Sound because a panic under the lock leaves the map as some
    /// sequence of completed registrations. The map is mutated only by a
    /// completed `or_insert_with` (one whole family) and a completed
    /// `push` (one whole series), and the one panic point under the lock,
    /// the kind-mismatch `assert!` in `register`, runs after the first and
    /// before the second: it cannot fire for a family the insert just made
    /// (that family has the kind it checks), and when it fires for an
    /// existing family nothing has been changed yet. `render` only reads.
    fn families(&self) -> MutexGuard<'_, BTreeMap<String, Family>> {
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn clone_instrument(i: &Instrument) -> Instrument {
    match i {
        Instrument::Counter(c) => Instrument::Counter(Arc::clone(c)),
        Instrument::Gauge(g) => Instrument::Gauge(Arc::clone(g)),
        Instrument::Histogram(h) => Instrument::Histogram(Arc::clone(h)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_one_instrument() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total", "X.", &[("shard", "0")]);
        let b = r.counter("x_total", "X.", &[("shard", "0")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "both handles hit the same atomic");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn distinct_labels_are_distinct_series() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total", "X.", &[("shard", "0")]);
        let b = r.counter("x_total", "X.", &[("shard", "1")]);
        a.inc();
        assert_eq!(b.get(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as counter and histogram")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        let _c = r.counter("x_total", "X.", &[]);
        let _h = r.histogram("x_total", "X.", &[]);
    }

    #[test]
    fn a_panicked_registration_leaves_scrapes_and_registrations_working() {
        let r = Arc::new(MetricsRegistry::new());
        r.counter("kept_total", "Kept.", &[]).inc();
        let clashing = Arc::clone(&r);
        let joined = std::thread::spawn(move || {
            let _c = clashing.counter("x_total", "X.", &[]);
            let _g = clashing.gauge("x_total", "X.", &[]);
        })
        .join();
        assert!(joined.is_err(), "the kind mismatch panics its thread");
        assert!(r.families.is_poisoned(), "the panic held the lock");

        let text = r.render();
        assert!(text.contains("kept_total 1"), "{text}");
        assert!(text.contains("# TYPE x_total counter"), "{text}");
        r.gauge("after_poison", "Registered after the panic.", &[])
            .set(3);
        assert!(r.render().contains("after_poison 3"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        let r = MetricsRegistry::new();
        let _c = r.counter("bad name", "X.", &[]);
    }
}
