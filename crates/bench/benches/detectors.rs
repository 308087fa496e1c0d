//! Criterion benches: throughput of each anti-pattern detector and the
//! candidate-mining primitives over a fixed mini-study alert history
//! (~10k alerts, 480 strategies). Detectors must stay near-linear in the
//! alert count — the paper's setting is 4M+ alerts.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use alertops_detect::storm::detect_storms;
use alertops_detect::{
    candidates, AntiPatternReport, CascadingDetector, DetectionInput, Detector,
    ImproperRuleDetector, MisleadingSeverityDetector, RepeatingDetector, StormConfig,
    TransientTogglingDetector, UnclearTitleDetector,
};
use alertops_sim::scenarios;

fn bench_detectors(c: &mut Criterion) {
    let out = scenarios::mini_study(2022).run();
    let graph = out.topology.dependency_graph();
    let input = DetectionInput::new(out.catalog.strategies())
        .with_alerts(&out.alerts)
        .with_incidents(&out.incidents)
        .with_graph(&graph);

    let mut group = c.benchmark_group("detectors");
    group.sample_size(20);
    group.bench_function("a1_unclear_titles", |b| {
        let detector = UnclearTitleDetector;
        b.iter(|| black_box(detector.detect(&input)));
    });
    group.bench_function("a2_misleading_severity", |b| {
        let detector = MisleadingSeverityDetector;
        b.iter(|| black_box(detector.detect(&input)));
    });
    group.bench_function("a3_improper_rule", |b| {
        let detector = ImproperRuleDetector;
        b.iter(|| black_box(detector.detect(&input)));
    });
    group.bench_function("a4_transient_toggling", |b| {
        let detector = TransientTogglingDetector::default();
        b.iter(|| black_box(detector.detect(&input)));
    });
    group.bench_function("a5_repeating", |b| {
        let detector = RepeatingDetector;
        b.iter(|| black_box(detector.detect(&input)));
    });
    group.bench_function("a6_cascading_groups", |b| {
        let detector = CascadingDetector::default();
        b.iter(|| black_box(detector.detect_groups(&input)));
    });
    group.bench_function("full_report", |b| {
        b.iter(|| black_box(AntiPatternReport::run_default(&input)));
    });
    group.finish();

    let mut group = c.benchmark_group("mining");
    group.bench_function("storm_detection", |b| {
        b.iter(|| black_box(detect_storms(&out.alerts, &StormConfig::default())));
    });
    group.bench_function("individual_candidates_top30", |b| {
        b.iter(|| black_box(candidates::individual_candidates(&out.alerts, 0.3)));
    });
    group.bench_function("collective_candidates_200", |b| {
        b.iter(|| black_box(candidates::collective_candidates(&out.alerts, 200)));
    });
    group.finish();
}

criterion_group!(benches, bench_detectors);
criterion_main!(benches);
