//! Criterion benches: the topic-model substrate — one online-LDA window
//! fit and a full AOLDA window — at alert-title corpus scale (R4 runs
//! hourly over each window's alerts).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use alertops_text::{BagOfWords, Tokenizer, Vocabulary};
use alertops_topics::{AdaptiveOnlineLda, AoldaConfig, LdaConfig, LdaWorkspace, OnlineLda};

/// A synthetic alert-title corpus: 200 docs, 3 underlying themes.
fn corpus() -> (Vocabulary, Vec<BagOfWords>) {
    let themes = [
        "disk usage of storage node over threshold block allocation failing",
        "cpu utilization high on compute worker load spike detected",
        "request latency of api gateway above limit timeouts rising",
    ];
    let tokenizer = Tokenizer::new();
    let mut vocab = Vocabulary::new();
    let docs = (0..200)
        .map(|i| vocab.encode_and_update(&tokenizer.tokenize(themes[i % 3])))
        .collect();
    (vocab, docs)
}

fn bench_topics(c: &mut Criterion) {
    let (vocab, docs) = corpus();
    let config = LdaConfig {
        num_topics: 6,
        vocab_size: vocab.len(),
        ..LdaConfig::default()
    };
    let identity: Vec<u32> = (0..docs.len() as u32).collect();

    let mut group = c.benchmark_group("topics");
    group.sample_size(20);
    group.bench_function("lda_fit_window_200_docs_5_passes", |b| {
        let mut workspace = LdaWorkspace::new();
        b.iter(|| {
            let mut lda = OnlineLda::new(config.clone());
            black_box(lda.fit_window_with(&docs, &identity, 5, 0.0, &mut workspace))
        });
    });
    group.bench_function("aolda_process_window", |b| {
        b.iter(|| {
            let mut aolda = AdaptiveOnlineLda::new(AoldaConfig {
                lda: config.clone(),
                passes_per_window: 5,
                ..AoldaConfig::default()
            });
            black_box(aolda.process_window(&docs, &identity).doc_count)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_topics);
criterion_main!(benches);
