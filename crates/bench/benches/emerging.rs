//! Criterion benches: the emerging-alert (R4) channel end to end — the
//! per-window observe path (group by text → tokenize each distinct text
//! once → sparse AO-LDA over the distinct bags → emergence scan) with
//! and without the opt-in token budget, plus the budget sampler on its
//! own. End-to-end timing of the channel lives
//! in `crates/pipeline-bench` (see its README).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use alertops_model::{AlertId, IStr, SimTime};
use alertops_react::{
    apply_budget, EmergingAlertDetector, EmergingBudget, EmergingConfig, EmergingDoc,
};
use alertops_text::{BagOfWords, Tokenizer, Vocabulary};

const THEMES: [&str; 4] = [
    "disk usage of storage node over threshold block allocation failing",
    "cpu utilization high on compute worker load spike detected",
    "request latency of api gateway above limit timeouts rising",
    "network packet retransmission rate abnormal on edge router",
];

/// One wall-clock hour of alert-title documents cycling the themes
/// (no service name, so the text is the title alone).
fn window(hour: u64, len: usize) -> Vec<EmergingDoc> {
    (0..len)
        .map(|i| EmergingDoc {
            alert: AlertId(hour * len as u64 + i as u64),
            raised_at: SimTime::from_secs(hour * 3_600 + i as u64 * 40),
            title: THEMES[i % THEMES.len()].into(),
            service: IStr::empty(),
        })
        .collect()
}

fn bench_emerging(c: &mut Criterion) {
    let windows: Vec<Vec<EmergingDoc>> = (0..6).map(|h| window(h, 64)).collect();
    // ~64 docs × ~8 kept tokens each ≈ 500 tokens/window; a 256 cap
    // engages the sampler on every window, like the bench harness row.
    // Expect the budgeted run to be *slower* here, not faster: these
    // windows are so regular that the unsampled fit converges in ~3
    // passes, while the sampled counts oscillate and keep more of the
    // 15-pass ceiling. The budget is a worst-case cost bound for storm
    // windows (cost ∝ cap × max passes, not tokens × max passes), and
    // this pair of rows makes its typical-window overhead visible.
    let budget = EmergingBudget::new(256, 7);

    let mut group = c.benchmark_group("emerging");
    group.sample_size(20);
    group.bench_function("observe_six_windows_64_docs", |b| {
        b.iter(|| {
            let mut detector = EmergingAlertDetector::new(EmergingConfig::default());
            for w in &windows {
                black_box(detector.observe_docs(w));
            }
        });
    });
    group.bench_function("observe_six_windows_budget_256", |b| {
        b.iter(|| {
            let mut detector = EmergingAlertDetector::new(EmergingConfig {
                budget: Some(budget),
                ..EmergingConfig::default()
            });
            for w in &windows {
                black_box(detector.observe_docs(w));
            }
        });
    });
    group.bench_function("apply_budget_one_window", |b| {
        let tokenizer = Tokenizer::new().drop_numbers();
        let mut vocab = Vocabulary::new();
        let bows: Vec<BagOfWords> = windows[0]
            .iter()
            .map(|d| vocab.encode_and_update(&tokenizer.tokenize(&d.title)))
            .collect();
        b.iter(|| {
            let mut sampled = bows.clone();
            black_box(apply_budget(&mut sampled, &budget, 3))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_emerging);
criterion_main!(benches);
