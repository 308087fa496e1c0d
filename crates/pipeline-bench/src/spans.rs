//! In-memory span recorder for traced runs.
//!
//! A span is `{id, parent, name, window, start_us, end_us}`, recorded
//! around each of the benchmark's own calls into a layer. Spans stay in
//! memory for the whole run and are written as JSON lines at exit, so
//! recording costs one `Instant::now()` pair and a `Vec::push`. With
//! tracing off every method is a no-op returning [`NO_SPAN`] — the
//! end-to-end runs take the same code path minus the pushes.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The id handed out when tracing is off, and the parent of root spans.
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dense id: the span's index in the recorder.
    pub id: u32,
    /// The span that caused this one, or [`NO_SPAN`] for a root.
    pub parent: u32,
    /// `layer.operation`, e.g. `ingestd.send`.
    pub name: &'static str,
    /// The stream window the work belongs to (spans of one window
    /// share it); `u64::MAX` for run-level spans.
    pub window: u64,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch (equal to `start_us` until closed).
    pub end_us: f64,
}

impl Span {
    /// Wall duration in microseconds.
    #[must_use]
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The recorder. Single-threaded by design: only the generator thread
/// records, because spans wrap the benchmark's *own* calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; with `enabled == false` it records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under `parent`; close it with [`end`](Self::end).
    pub fn start(&mut self, name: &'static str, parent: u32, window: u64) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        let now = self.now_us();
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent,
            name,
            window,
            start_us: now,
            end_us: now,
        });
        id
    }

    /// Closes a span opened by [`start`](Self::start).
    pub fn end(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now_us();
        self.spans[id as usize].end_us = now;
    }

    /// Records a span whose interval the caller already measured (the
    /// end-to-end loop takes its own `Instant`s for the metrics and
    /// reuses them here, so tracing adds no clock reads to the timed
    /// path).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        window: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent,
            name,
            window,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.epoch).as_secs_f64() * 1e6,
        });
        id
    }

    /// Every span recorded so far, in id order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Filesystem errors pass through.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_SPAN {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let window = if s.window == u64::MAX {
                "null".to_owned()
            } else {
                s.window.to_string()
            };
            writeln!(
                out,
                r#"{{"id":{},"parent":{parent},"name":"{}","window":{window},"start_us":{:.3},"end_us":{:.3}}}"#,
                s.id, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Whether every span's parent is [`NO_SPAN`] or an earlier span that
/// encloses nothing it should not: the parent exists and was opened
/// first.
#[must_use]
pub fn parents_valid(spans: &[Span]) -> bool {
    spans
        .iter()
        .all(|s| s.parent == NO_SPAN || ((s.parent as usize) < spans.len() && s.parent < s.id))
}

/// Self time per span: its duration minus the part of its interval its
/// direct children cover. Children may nest deeper (handled by their
/// own self time) and may overlap each other (the union is taken, so an
/// overlap is not subtracted twice); a child is clipped to its parent.
#[must_use]
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_SPAN {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_us();
            };
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start_us;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_us);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.duration_us() - covered).max(0.0)
        })
        .collect()
}

/// Total self time per span name, microseconds.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_us(spans)) {
        *out.entry(s.name).or_insert(0.0) += own;
    }
    out
}

/// Durations (µs) of every span called `name`, in recording order.
#[must_use]
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_us)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            window: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] > a [10,60] > b [20,30]; root also > c [70,90].
        let spans = vec![
            span(0, NO_SPAN, "root", 0.0, 100.0),
            span(1, 0, "a", 10.0, 60.0),
            span(2, 1, "b", 20.0, 30.0),
            span(3, 0, "c", 70.0, 90.0),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own, vec![30.0, 40.0, 10.0, 20.0]);
        // Self times partition the root's duration.
        assert!((own.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        // Children [10,50] and [30,70] overlap on [30,50]; a third runs
        // past the parent's end.
        let spans = vec![
            span(0, NO_SPAN, "root", 0.0, 100.0),
            span(1, 0, "x", 10.0, 50.0),
            span(2, 0, "y", 30.0, 70.0),
            span(3, 0, "z", 90.0, 130.0),
        ];
        let own = self_times_us(&spans);
        // Union cover = [10,70] ∪ [90,100] = 70.
        assert!((own[0] - 30.0).abs() < 1e-9, "root self {}", own[0]);
        assert!((own[1] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.start("a.b", NO_SPAN, 3);
        t.end(id);
        assert_eq!(id, NO_SPAN);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn recorded_spans_have_valid_parents_and_share_their_window() {
        let mut t = Tracer::new(true);
        let root = t.start("run", NO_SPAN, u64::MAX);
        let w = t.start("window", root, 7);
        let a = t.start("ingestd.send", w, 7);
        t.end(a);
        t.end(w);
        t.end(root);
        assert!(parents_valid(t.spans()));
        assert_eq!(t.spans()[2].window, t.spans()[1].window);
        let by_name = self_time_by_name(t.spans());
        assert!(by_name.contains_key("ingestd.send"));
        // An orphan parent id is caught.
        let bad = vec![span(0, 5, "orphan", 0.0, 1.0)];
        assert!(!parents_valid(&bad));
    }
}
