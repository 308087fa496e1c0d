//! Process-level resource observation: resident set size.
//!
//! An operator gauge: the daemon publishes its own RSS on the status
//! socket's `metrics` document, so memory growth is visible from the
//! running process with no external tooling. On Linux that is one line
//! of `/proc/self/status`; elsewhere the probe degrades to `None` and
//! the gauge is left untouched.
//!
//! Like everything in this crate the probe is an observer: reading it
//! never perturbs the governed outputs, it only costs one small procfs
//! read — cheap enough to sample once per window close.

use std::sync::Arc;

use crate::metrics::Gauge;
use crate::registry::MetricsRegistry;

/// The conventional family name for the process RSS gauge.
pub const RSS_GAUGE_NAME: &str = "alertops_process_rss_bytes";

/// Current resident set size of this process in bytes, or `None` when
/// the platform does not expose `/proc/self/status` (or its `VmRSS:`
/// line is missing/unparseable).
#[must_use]
pub fn rss_bytes() -> Option<u64> {
    parse_vmrss(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Extracts `VmRSS:` (reported in kB) from a `/proc/<pid>/status`
/// document and scales it to bytes.
fn parse_vmrss(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line
        .strip_prefix("VmRSS:")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Registers (or fetches) the process-RSS gauge on `registry`.
#[must_use]
pub fn rss_gauge(registry: &MetricsRegistry) -> Arc<Gauge> {
    registry.gauge(
        RSS_GAUGE_NAME,
        "Resident set size of this process in bytes (0 where unsupported).",
        &[],
    )
}

/// Samples the current RSS into `gauge` and returns it. Leaves the
/// gauge untouched (and returns `None`) where the probe is
/// unsupported.
pub fn sample_rss(gauge: &Gauge) -> Option<u64> {
    let rss = rss_bytes()?;
    gauge.set(rss);
    Some(rss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_procfs_status_document() {
        let doc = "Name:\tingestd\nVmPeak:\t  202000 kB\nVmRSS:\t  101376 kB\nThreads:\t9\n";
        assert_eq!(parse_vmrss(doc), Some(101_376 * 1024));
        assert_eq!(parse_vmrss("Name:\tingestd\n"), None);
        assert_eq!(parse_vmrss("VmRSS:\tgarbage kB\n"), None);
    }

    #[test]
    fn live_probe_reports_a_sane_rss_on_linux() {
        let Some(rss) = rss_bytes() else {
            return; // unsupported platform: nothing to assert
        };
        // A running test binary occupies somewhere between 100 KiB and
        // 100 GiB — generous bounds that catch unit mistakes (pages vs
        // kB vs bytes), not environment variance.
        assert!(rss > 100 * 1024, "implausibly small rss: {rss}");
        assert!(rss < 100 * 1024 * 1024 * 1024, "implausibly large: {rss}");
    }

    #[test]
    fn gauge_sampling_publishes_the_probe() {
        let registry = MetricsRegistry::new();
        let gauge = rss_gauge(&registry);
        let sampled = sample_rss(&gauge);
        if let Some(rss) = sampled {
            assert_eq!(gauge.get(), rss);
            let text = registry.render();
            assert!(text.contains(RSS_GAUGE_NAME));
            crate::lint_exposition(&text).unwrap();
        }
    }
}
