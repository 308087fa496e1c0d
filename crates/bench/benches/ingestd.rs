//! Criterion benches: the sharded ingestion daemon's two overhead
//! comparisons — the cost of supervised crash recovery (a
//! chaos-injected worker panic mid-window: restart, governor
//! rollback, degraded merge) against the fault-free baseline, and
//! the full observability layer (stage histograms, span timers, frame
//! counters) against a metrics-free run — the observer-only claim says
//! the delta should be a few relaxed atomic adds per event, a few
//! percent at most. Plain route → close throughput is a
//! `pipeline-bench` ledger row (`ingestd.route_us_per_alert`,
//! `ingestd.flush_ms_p50`, `cluster.*`), not a criterion group.
//!
//! Sockets are left out so the numbers isolate the daemon's own
//! pipeline (sharding, bounded queues, per-shard detection, the merge
//! barrier) from kernel TCP behaviour.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use alertops_chaos::silence_panics_containing;
use alertops_core::{AlertGovernor, GovernorConfig, StreamingConfig, StreamingGovernor};
use alertops_ingestd::{shard_catalog, Ingestd, IngestdConfig, CHAOS_PANIC_MSG};
use alertops_sim::scenarios;

/// Fault-free vs chaos-supervised: the same trace and window close at
/// 4 shards, with the supervised variant forcing one worker panic
/// mid-window per iteration — so the delta is exactly the price of
/// catch_unwind supervision, the restart, and the governor rollback.
fn bench_chaos_supervision(c: &mut Criterion) {
    silence_panics_containing(CHAOS_PANIC_MSG);
    let out = scenarios::mini_study(2022).run();
    let strategies = out.catalog.strategies().to_vec();
    let shards = 4usize;

    let mut group = c.benchmark_group("ingestd_chaos");
    group.sample_size(10);
    group.throughput(Throughput::Elements(out.alerts.len() as u64));
    for (name, panics) in [("fault_free", 0usize), ("supervised_panic", 1)] {
        let config = IngestdConfig {
            shards,
            queue_capacity: 8192,
            ..IngestdConfig::default()
        };
        let handle = Ingestd::spawn(&config, |shard, shards| {
            StreamingGovernor::new(
                AlertGovernor::new(
                    shard_catalog(&strategies, shards, shard),
                    GovernorConfig::default(),
                ),
                StreamingConfig::default(),
            )
        })
        .expect("daemon starts");
        group.bench_function(format!("{name}_{shards}_shards"), |b| {
            b.iter(|| {
                let half = out.alerts.len() / 2;
                for alert in &out.alerts[..half] {
                    handle.route(alert.clone());
                }
                for _ in 0..panics {
                    handle.inject_panic(0, false);
                }
                for alert in &out.alerts[half..] {
                    handle.route(alert.clone());
                }
                black_box(handle.flush().expect("flush yields a snapshot"))
            });
        });
        handle.shutdown();
    }
    group.finish();
}

/// Metrics on vs off: the same trace and window close at 4 shards,
/// with the only difference being [`IngestdConfig::metrics`] — so the
/// delta is exactly the cost of the instrumentation (relaxed atomic
/// bumps, histogram bucket adds, `Instant::now` pairs per span).
fn bench_metrics_overhead(c: &mut Criterion) {
    let out = scenarios::mini_study(2022).run();
    let strategies = out.catalog.strategies().to_vec();
    let shards = 4usize;

    let mut group = c.benchmark_group("ingestd_metrics");
    group.sample_size(10);
    group.throughput(Throughput::Elements(out.alerts.len() as u64));
    for (name, metrics) in [("metrics_off", false), ("metrics_on", true)] {
        let config = IngestdConfig {
            shards,
            queue_capacity: 8192,
            metrics,
            ..IngestdConfig::default()
        };
        let handle = Ingestd::spawn(&config, |shard, shards| {
            StreamingGovernor::new(
                AlertGovernor::new(
                    shard_catalog(&strategies, shards, shard),
                    GovernorConfig::default(),
                ),
                StreamingConfig::default(),
            )
        })
        .expect("daemon starts");
        group.bench_function(format!("{name}_{shards}_shards"), |b| {
            b.iter(|| {
                for alert in &out.alerts {
                    handle.route(alert.clone());
                }
                black_box(handle.flush().expect("flush yields a snapshot"))
            });
        });
        handle.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_chaos_supervision, bench_metrics_overhead);
criterion_main!(benches);
