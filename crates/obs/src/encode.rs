//! Prometheus text-format exposition: rendering and a structural lint.
//!
//! The renderer emits the subset of the text format this workspace
//! needs: `# HELP` / `# TYPE` headers, integer-valued samples, and
//! cumulative histogram series (`_bucket{le=...}` + `_sum` + `_count`).
//! The lint re-parses that output and proves the structural properties
//! CI cares about: headers present, no duplicate series, bucket
//! cumulative counts monotone, and `_count` equal to the `+Inf` bucket.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

use crate::registry::{Family, Instrument};

/// Formats one exposition sample line (no trailing newline). Every
/// series this workspace exposes lives on a [`crate::MetricsRegistry`],
/// so the registry renderer is its only caller.
#[must_use]
pub(crate) fn render_sample(name: &str, labels: &[(&str, &str)], value: u64) -> String {
    let mut line = String::with_capacity(name.len() + 24);
    line.push_str(name);
    push_labels(&mut line, labels.iter().map(|(k, v)| (*k, *v)));
    let _ = write!(line, " {value}");
    line
}

fn push_labels<'a>(out: &mut String, labels: impl Iterator<Item = (&'a str, &'a str)>) {
    let mut first = true;
    for (key, value) in labels {
        out.push(if first { '{' } else { ',' });
        first = false;
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    if !first {
        out.push('}');
    }
}

fn labels_with_le(labels: &[(String, String)], le: &str) -> String {
    let mut out = String::new();
    push_labels(
        &mut out,
        labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(std::iter::once(("le", le))),
    );
    out
}

/// Renders every family in registration (BTreeMap = lexicographic)
/// order.
pub(crate) fn render_families(families: &BTreeMap<String, Family>) -> String {
    let mut out = String::new();
    for (name, family) in families {
        let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
        let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
        for series in &family.series {
            let labels: Vec<(&str, &str)> = series
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            match &series.instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{}", render_sample(name, &labels, c.get()));
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "{}", render_sample(name, &labels, g.get()));
                }
                Instrument::Histogram(h) => {
                    let snap = h.snapshot();
                    let count = snap.count();
                    for (upper, cumulative) in snap.cumulative_nonzero() {
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            labels_with_le(&series.labels, &upper.to_string())
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {count}",
                        labels_with_le(&series.labels, "+Inf")
                    );
                    let _ = writeln!(
                        out,
                        "{}",
                        render_sample(&format!("{name}_sum"), &labels, snap.sum())
                    );
                    let _ = writeln!(
                        out,
                        "{}",
                        render_sample(&format!("{name}_count"), &labels, count)
                    );
                }
            }
        }
    }
    out
}

/// Structural lint for an exposition document produced by this crate
/// (or anything emitting the same subset of the text format).
///
/// Checks, in order of severity:
/// 1. every `# TYPE` name is declared at most once, with a known kind;
/// 2. every sample's base name has both `# TYPE` and `# HELP`;
/// 3. no series (name + label set) appears twice;
/// 4. per histogram series, `le` bounds strictly ascend, cumulative
///    bucket counts are monotone non-decreasing, and the `+Inf` bucket
///    equals the `_count` sample.
///
/// # Errors
///
/// Returns the first violation found, described with its line.
pub fn lint_exposition(text: &str) -> Result<(), String> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashSet<String> = HashSet::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    // histogram series key -> (last le, last cumulative, inf count)
    let mut buckets: HashMap<String, (Option<f64>, u64, Option<u64>)> = HashMap::new();
    let mut counts: HashMap<String, u64> = HashMap::new();

    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or_default().to_string();
            let kind = parts.next().unwrap_or_default().to_string();
            if !matches!(kind.as_str(), "counter" | "gauge" | "histogram") {
                return Err(format!("unknown type {kind:?} in {line:?}"));
            }
            if types.insert(name.clone(), kind).is_some() {
                return Err(format!("duplicate # TYPE for {name:?}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or_default().to_string();
            if !helps.insert(name.clone()) {
                return Err(format!("duplicate # HELP for {name:?}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal
        }

        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("malformed sample {line:?}"))?;
        let value: u64 = value
            .parse()
            .map_err(|_| format!("non-integer value in {line:?}"))?;
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("unclosed labels in {line:?}"))?;
                (name, labels)
            }
            None => (series, ""),
        };
        if !seen_series.insert(series.to_string()) {
            return Err(format!("duplicate series {series:?}"));
        }

        // Resolve the family name: histogram samples carry suffixes.
        let (family, suffix) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| {
                name.strip_suffix(s).and_then(|base| {
                    (types.get(base).map(String::as_str) == Some("histogram")).then_some((base, *s))
                })
            })
            .unwrap_or((name, ""));
        let kind = types
            .get(family)
            .ok_or_else(|| format!("sample {name:?} has no # TYPE"))?;
        if !helps.contains(family) {
            return Err(format!("sample {name:?} has no # HELP"));
        }
        if (kind == "histogram") == suffix.is_empty() {
            return Err(format!("sample {name:?} inconsistent with type {kind}"));
        }

        if suffix == "_bucket" {
            let mut le = None;
            let mut rest_labels: Vec<&str> = Vec::new();
            for part in labels.split(',') {
                match part.strip_prefix("le=\"") {
                    Some(v) => le = Some(v.trim_end_matches('"').to_string()),
                    None => rest_labels.push(part),
                }
            }
            let le = le.ok_or_else(|| format!("bucket without le in {line:?}"))?;
            let key = format!("{family}{{{}}}", rest_labels.join(","));
            let entry = buckets.entry(key.clone()).or_insert((None, 0, None));
            if le == "+Inf" {
                if entry.2.replace(value).is_some() {
                    return Err(format!("duplicate +Inf bucket for {key:?}"));
                }
            } else {
                let bound: f64 = le
                    .parse()
                    .map_err(|_| format!("bad le {le:?} in {line:?}"))?;
                if entry.2.is_some() {
                    return Err(format!("bucket after +Inf for {key:?}"));
                }
                if let Some(prev) = entry.0 {
                    if bound <= prev {
                        return Err(format!("le bounds not ascending for {key:?}"));
                    }
                }
                entry.0 = Some(bound);
            }
            if value < entry.1 {
                return Err(format!("bucket counts not monotone for {key:?}"));
            }
            entry.1 = value;
        } else if suffix == "_count" {
            let key = format!("{family}{{{labels}}}");
            counts.insert(key, value);
        }
    }

    for (key, (_, _, inf)) in &buckets {
        let inf = inf.ok_or_else(|| format!("histogram {key:?} missing +Inf bucket"))?;
        let count = counts
            .get(key)
            .ok_or_else(|| format!("histogram {key:?} missing _count"))?;
        if inf != *count {
            return Err(format!(
                "histogram {key:?}: +Inf bucket {inf} != _count {count}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn render_sample_formats_labels_and_escapes() {
        assert_eq!(render_sample("x_total", &[], 7), "x_total 7");
        assert_eq!(
            render_sample("x_total", &[("reason", "over\"sized\"")], 1),
            "x_total{reason=\"over\\\"sized\\\"\"} 1"
        );
    }

    #[test]
    fn registry_render_passes_lint() {
        let r = MetricsRegistry::new();
        let c = r.counter("demo_total", "Demo counter.", &[("shard", "0")]);
        c.add(3);
        let g = r.gauge("demo_depth", "Demo gauge.", &[]);
        g.set(9);
        let h = r.histogram("demo_micros", "Demo histogram.", &[]);
        for v in [5u64, 100, 100, 9_000] {
            h.observe(v);
        }
        let empty = r.histogram("demo_idle_micros", "Never observed.", &[]);
        let _ = empty; // registered-but-empty histograms must still lint
        let text = r.render();
        assert!(text.contains("# TYPE demo_total counter"));
        assert!(text.contains("# TYPE demo_micros histogram"));
        assert!(text.contains("demo_micros_count 4"));
        assert!(text.contains("le=\"+Inf\"} 4"));
        lint_exposition(&text).unwrap();
    }

    #[test]
    fn lint_rejects_duplicate_series() {
        let text = "# HELP x_total X.\n# TYPE x_total counter\nx_total 1\nx_total 2\n";
        assert!(lint_exposition(text)
            .unwrap_err()
            .contains("duplicate series"));
    }

    #[test]
    fn lint_rejects_missing_headers() {
        assert!(lint_exposition("x_total 1\n")
            .unwrap_err()
            .contains("no # TYPE"));
        let no_help = "# TYPE x_total counter\nx_total 1\n";
        assert!(lint_exposition(no_help).unwrap_err().contains("no # HELP"));
    }

    #[test]
    fn lint_rejects_non_monotone_buckets() {
        let text = concat!(
            "# HELP h_micros H.\n",
            "# TYPE h_micros histogram\n",
            "h_micros_bucket{le=\"10\"} 5\n",
            "h_micros_bucket{le=\"20\"} 3\n",
            "h_micros_bucket{le=\"+Inf\"} 5\n",
            "h_micros_sum 50\n",
            "h_micros_count 5\n",
        );
        assert!(lint_exposition(text).unwrap_err().contains("not monotone"));
    }

    #[test]
    fn lint_rejects_count_inf_mismatch() {
        let text = concat!(
            "# HELP h_micros H.\n",
            "# TYPE h_micros histogram\n",
            "h_micros_bucket{le=\"+Inf\"} 5\n",
            "h_micros_sum 50\n",
            "h_micros_count 4\n",
        );
        assert!(lint_exposition(text).unwrap_err().contains("!= _count"));
    }
}
