//! Title informativeness is one scoring rule, computed once per catalog.
//!
//! * `golden_study_title_reports` pins every field of the report of every
//!   `study` title, so a change to the tokenizer, the word lists or the
//!   arithmetic shows up as a checksum mismatch;
//! * `streaming_qoa_samples_equal_batch_features` checks that the shard
//!   path, which reads the title score from the indexed catalog, builds
//!   the same QoA samples, bit for bit, as `extract_features` over the
//!   title's `title_report` score.

use std::collections::BTreeMap;

use alertops::core::prelude::*;
use alertops::qoa::extract_features;
use alertops::sim::{scenarios, StrategyCatalog, Topology};
use alertops::text::title_report;

/// FNV-1a over the little-endian bytes of each word.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn golden_study_title_reports() {
    let scenario = scenarios::study(2022);
    let topology = Topology::generate(&scenario.topology);
    let catalog = StrategyCatalog::generate(&topology, &scenario.catalog);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for strategy in catalog.strategies() {
        let r = title_report(strategy.title_template());
        fold(&mut hash, r.token_count as u64);
        fold(&mut hash, r.vague_count as u64);
        fold(&mut hash, u64::from(r.has_manifestation));
        fold(&mut hash, u64::from(r.has_concrete_subject));
        fold(&mut hash, u64::from(r.has_quantity));
        fold(&mut hash, r.score.to_bits());
    }
    assert_eq!(catalog.len(), 2010);
    assert_eq!(hash, 0x466b_1dbb_04eb_ba7b, "golden checksum {hash:#018x}");
}

/// Every window's samples equal `extract_features` over the same
/// strategy, title score, SOP, alerts and incidents. The governor sees every
/// incident at window 0; the ones it prunes ended before its oldest
/// alert, so they touch no feature. The catalog is given ascending
/// (binary-searched) and reversed (indexed by id).
#[test]
fn streaming_qoa_samples_equal_batch_features() {
    let out = scenarios::mini_study(2022).run();
    let mut trace = out.alerts.clone();
    trace.sort_by_key(|a| (a.raised_at(), a.id()));
    let sops: Vec<Sop> = out
        .catalog
        .strategies()
        .iter()
        .filter_map(|s| out.catalog.sop(s.id()).cloned())
        .collect();
    let streaming = StreamingConfig {
        qoa: Channel {
            mode: ChannelMode::Forward,
            config: QoaFeedbackConfig::default(),
        },
        ..StreamingConfig::default()
    };
    let ascending = out.catalog.strategies().to_vec();
    let reversed: Vec<AlertStrategy> = ascending.iter().rev().cloned().collect();
    for rows in [ascending, reversed] {
        let governor = AlertGovernor::new(rows, GovernorConfig::default()).with_sops(sops.clone());
        let mut governor = StreamingGovernor::new(governor, streaming.clone());
        let mut samples = 0;
        for (index, window) in trace.chunks(300).enumerate() {
            let incidents = if index == 0 { &out.incidents[..] } else { &[] };
            let delta = governor.ingest(window, incidents);
            let mut by_strategy: BTreeMap<StrategyId, Vec<&Alert>> = BTreeMap::new();
            for alert in window {
                by_strategy.entry(alert.strategy()).or_default().push(alert);
            }
            assert_eq!(delta.qoa_samples.len(), by_strategy.len());
            for (sample, (&id, alerts)) in delta.qoa_samples.iter().zip(&by_strategy) {
                assert_eq!(sample.strategy, id);
                let strategy = out.catalog.strategy(id).expect("alerting strategy");
                let title_score = title_report(strategy.title_template()).score;
                let batch = extract_features(
                    strategy,
                    title_score,
                    out.catalog.sop(id),
                    alerts,
                    &out.incidents,
                );
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sample.features), bits(&batch), "window {index}, {id}");
            }
            samples += delta.qoa_samples.len();
        }
        assert!(samples > 1_000, "only {samples} samples");
    }
}
