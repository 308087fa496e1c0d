//! Criterion benches: throughput of the reactions and the composed
//! pipeline. During a storm the reactions sit on the hot path between
//! the monitoring system and the paging system, so per-alert cost is the
//! number that matters. The R2 rows time `aggregate`, which renders
//! every group under a chosen key; the pipeline row runs R2 as the
//! governor does, by strategy over 30 minutes, borrowing the blocker
//! and reading only each group's representative.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use alertops_react::blocking::{AlertBlocker, BlockRule};
use alertops_react::correlation::AlertCorrelator;
use alertops_react::{aggregate, AggregationConfig, GroupKey, ReactionPipeline};
use alertops_sim::scenarios;

fn bench_reactions(c: &mut Criterion) {
    let out = scenarios::mini_study(2022).run();
    let n = out.alerts.len() as u64;
    let blocker: AlertBlocker = out
        .catalog
        .strategies()
        .iter()
        .filter(|s| {
            let p = out.catalog.profile(s.id());
            p.chatty || p.oversensitive
        })
        .map(|s| BlockRule::for_strategy("mute", s.id()))
        .collect();
    let graph = out.topology.dependency_graph();

    let mut group = c.benchmark_group("reactions");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n));
    group.bench_function("r1_blocking", |b| {
        b.iter(|| black_box(blocker.apply(&out.alerts)));
    });
    group.bench_function("r2_aggregation_by_strategy", |b| {
        b.iter(|| black_box(aggregate(&out.alerts, &AggregationConfig::default())));
    });
    group.bench_function("r2_aggregation_by_template", |b| {
        let config = AggregationConfig {
            key: GroupKey::TitleTemplate,
            ..AggregationConfig::default()
        };
        b.iter(|| black_box(aggregate(&out.alerts, &config)));
    });
    group.bench_function("r3_correlation_topology", |b| {
        let correlator = AlertCorrelator::new().with_topology(graph.clone());
        b.iter(|| black_box(correlator.correlate(&out.alerts)));
    });
    group.bench_function("pipeline_block_aggregate_correlate", |b| {
        let pipeline = ReactionPipeline::new()
            .with_correlator(AlertCorrelator::new().with_topology(graph.clone()));
        b.iter(|| black_box(pipeline.run(&out.alerts, &blocker)));
    });
    group.finish();
}

criterion_group!(benches, bench_reactions);
criterion_main!(benches);
