//! Output checks: the rolling output digest, the comparable form of a
//! snapshot, and the in-process 1-shard oracle the leading windows are
//! held against.

use std::io;

use alertops_core::GovernanceSnapshot;
use alertops_ingestd::{Ingestd, IngestdConfig};

use crate::loadgen::Loadgen;
use crate::spans::{Tracer, NO_SPAN};
use crate::workloads::{Traffic, Workload, QUEUE_CAPACITY};

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The JSON of a snapshot with the one field sharding is not exact for
/// stripped: triage (cross-strategy correlation runs within each shard
/// only). Everything else must be byte-identical across shard counts,
/// node counts and transports — the same rule `alertops_load::driver`
/// applies.
#[must_use]
pub fn comparable(mut snapshot: GovernanceSnapshot) -> String {
    snapshot.triage.clear();
    serde_json::to_string(&snapshot).expect("snapshots always serialize")
}

/// Replays the first `windows` windows of the seeded stream through an
/// in-process 1-shard daemon (route + labelled flush, no sockets, no
/// WAL) and returns the comparable snapshots. The inputs are
/// regenerated from the seed, so the oracle holds nothing while
/// the measured phase runs.
///
/// # Errors
///
/// Daemon spawn failures pass through.
pub fn oracle_snapshots(
    workload: &Workload,
    traffic: &Traffic,
    windows: usize,
) -> io::Result<Vec<String>> {
    let (mut generator, world) = Loadgen::new(&workload.in_process(), traffic);
    let config = IngestdConfig {
        shards: 1,
        queue_capacity: QUEUE_CAPACITY,
        streaming: world.streaming.clone(),
        ..IngestdConfig::default()
    };
    let handle = Ingestd::spawn(&config, |_, _| world.governor(world.strategies.clone()))?;
    let mut tracer = Tracer::new(false);
    let mut out = Vec::with_capacity(windows);
    for _ in 0..windows {
        let mut window = generator.next(&mut tracer, NO_SPAN);
        for alert in window.alerts.drain(..) {
            handle.route(alert);
        }
        let closed = handle
            .flush_window_labeled(std::mem::take(&mut window.labels))
            .ok_or_else(|| io::Error::other("oracle flush yielded no window"))?;
        out.push(comparable(closed.snapshot));
    }
    handle.shutdown();
    Ok(out)
}

/// Index of the first published snapshot that differs from the oracle,
/// if any. A length mismatch counts as a difference at the shorter
/// length.
#[must_use]
pub fn first_divergence(published: &[String], oracle: &[String]) -> Option<usize> {
    published
        .iter()
        .zip(oracle)
        .position(|(a, b)| a != b)
        .or_else(|| (published.len() != oracle.len()).then(|| published.len().min(oracle.len())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.value(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.value(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.update(b"foobar");
        assert_eq!(h.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn divergence_reports_the_first_differing_window() {
        let a = vec!["x".to_owned(), "y".to_owned()];
        assert_eq!(first_divergence(&a, &a), None);
        let b = vec!["x".to_owned(), "z".to_owned()];
        assert_eq!(first_divergence(&a, &b), Some(1));
        assert_eq!(first_divergence(&a, &a[..1]), Some(1));
    }
}
