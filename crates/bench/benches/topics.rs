//! Criterion benches: the topic-model substrate — online LDA minibatch
//! updates, inference, and a full AOLDA window — at alert-title corpus
//! scale (R4 runs hourly over each window's alerts).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use alertops_text::{BagOfWords, Tokenizer, Vocabulary};
use alertops_topics::{AdaptiveOnlineLda, AoldaConfig, LdaConfig, OnlineLda};

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
        corpus_size: Some(docs.len()),
        ..LdaConfig::default()
    };

    let mut group = c.benchmark_group("topics");
    group.sample_size(20);
    group.bench_function("lda_update_batch_200_docs", |b| {
        b.iter(|| {
            let mut lda = OnlineLda::new(config.clone());
            black_box(lda.update_batch(&docs))
        });
    });
    group.bench_function("lda_infer_one_doc", |b| {
        let mut lda = OnlineLda::new(config.clone());
        for _ in 0..5 {
            lda.update_batch(&docs);
        }
        b.iter(|| black_box(lda.infer(&docs[0])));
    });
    group.bench_function("aolda_process_window", |b| {
        let identity: Vec<u32> = (0..docs.len() as u32).collect();
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
