//! Prometheus text-exposition scraping.
//!
//! Reads a live daemon the same way an operator's monitoring stack
//! would: by scraping the status socket's `metrics` document and
//! reading the families back out of the text format. This parser
//! covers exactly the subset `alertops-obs` emits — integer
//! samples, `{k="v"}` label sets, and cumulative `_bucket{le=...}`
//! histogram series — and mirrors
//! [`alertops_obs::HistogramSnapshot::quantile`] bit for bit over the
//! scraped buckets (same 1-based `ceil(q·count)` rank over the same
//! cumulative counts), so a latency gate enforced from the outside
//! agrees with one enforced in-process.

use std::collections::BTreeMap;

/// One scraped exposition document, indexed for lookups.
#[derive(Debug, Default, Clone)]
pub struct Exposition {
    /// Non-histogram samples: full series key (name + rendered labels,
    /// exactly as exposed) → value.
    samples: BTreeMap<String, u64>,
    /// Histogram buckets: family key (name + non-`le` labels) →
    /// ascending `(upper_bound, cumulative_count)`; the `+Inf` bucket
    /// is stored as [`u64::MAX`].
    buckets: BTreeMap<String, Vec<(u64, u64)>>,
}

impl Exposition {
    /// Parses an exposition document. Unparseable lines are skipped —
    /// a scraper must not crash on a format extension.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut out = Self::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<u64>() else {
                continue;
            };
            if let Some((family, le)) = split_bucket(series) {
                out.buckets.entry(family).or_default().push((le, value));
            } else {
                out.samples.insert(series.to_owned(), value);
            }
        }
        out
    }

    /// The value of a plain (non-histogram) series, by its full key as
    /// exposed — e.g. `alertops_ingested_total` or
    /// `alertops_queue_depth{shard="2"}`.
    #[must_use]
    pub fn value(&self, series: &str) -> Option<u64> {
        self.samples.get(series).copied()
    }

    /// The `q`-quantile upper bound of an unlabelled histogram family,
    /// mirroring [`alertops_obs::HistogramSnapshot::quantile`]: the
    /// upper bound of the bucket holding the 1-based `ceil(q·count)`
    /// ranked observation. Returns `None` when the family is absent or
    /// empty.
    #[must_use]
    pub fn histogram_quantile(&self, family: &str, q: f64) -> Option<u64> {
        let buckets = self.buckets.get(family)?;
        let total = buckets.iter().map(|&(_, cum)| cum).max()?;
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((q * total as f64).ceil() as u64).max(1);
        buckets
            .iter()
            .find(|&&(_, cum)| cum >= rank)
            .map(|&(upper, _)| upper)
    }
}

/// Splits a `_bucket{...le="N"...}` series into its family key (name +
/// labels minus `le`) and the bucket upper bound (`+Inf` → `u64::MAX`).
fn split_bucket(series: &str) -> Option<(String, u64)> {
    let (name, labels) = series.split_once('{')?;
    let name = name.strip_suffix("_bucket")?;
    let labels = labels.strip_suffix('}')?;
    let mut upper = None;
    let mut rest = Vec::new();
    for part in labels.split(',') {
        let (key, value) = part.split_once('=')?;
        let value = value.strip_prefix('"')?.strip_suffix('"')?;
        if key == "le" {
            upper = Some(if value == "+Inf" {
                u64::MAX
            } else {
                value.parse().ok()?
            });
        } else {
            rest.push(part);
        }
    }
    let family = if rest.is_empty() {
        name.to_owned()
    } else {
        format!("{name}{{{}}}", rest.join(","))
    };
    Some((family, upper?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_obs::MetricsRegistry;

    #[test]
    fn parses_counters_gauges_and_labels() {
        let doc = "\
# HELP alertops_ingested_total Frames in.
# TYPE alertops_ingested_total counter
alertops_ingested_total 42
alertops_queue_depth{shard=\"0\"} 3
alertops_queue_depth{shard=\"1\"} 9
";
        let exposition = Exposition::parse(doc);
        assert_eq!(exposition.value("alertops_ingested_total"), Some(42));
        assert_eq!(
            exposition.value("alertops_queue_depth{shard=\"1\"}"),
            Some(9)
        );
        assert_eq!(
            exposition.value("alertops_queue_depth"),
            None,
            "a labelled series answers to its full key only"
        );
        assert_eq!(exposition.value("missing"), None);
    }

    /// The scraped quantile must agree with the in-process snapshot
    /// quantile on real histogram output — `pipeline-bench` reads the
    /// daemon's close-latency p99 through this round-trip.
    #[test]
    fn scraped_quantiles_match_inprocess_snapshots() {
        let registry = MetricsRegistry::new();
        let histogram = registry.histogram("demo_close_micros", "Close latency.", &[]);
        for i in 1..=1000u64 {
            histogram.observe(i * 7 % 5000);
        }
        let exposition = Exposition::parse(&registry.render());
        let snapshot = histogram.snapshot();
        assert_eq!(
            exposition.value("demo_close_micros_count"),
            Some(snapshot.count())
        );
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                exposition.histogram_quantile("demo_close_micros", q),
                Some(snapshot.quantile(q)),
                "quantile {q} diverged from the in-process snapshot"
            );
        }
    }

    #[test]
    fn labelled_histograms_keep_their_label_key() {
        let registry = MetricsRegistry::new();
        let histogram =
            registry.histogram("demo_shard_micros", "Per-shard close.", &[("shard", "2")]);
        histogram.observe(100);
        let exposition = Exposition::parse(&registry.render());
        assert_eq!(
            exposition.value("demo_shard_micros_count{shard=\"2\"}"),
            Some(1)
        );
        assert!(exposition
            .histogram_quantile("demo_shard_micros{shard=\"2\"}", 0.5)
            .is_some());
    }

    #[test]
    fn garbage_lines_are_skipped_not_fatal() {
        let exposition = Exposition::parse("!!!\nname_only\nok 5\nbad value x\n");
        assert_eq!(exposition.value("ok"), Some(5));
    }
}
