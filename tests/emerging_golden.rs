//! R4's emerging channel, pinned bit for bit on a seeded study.
//!
//! * `golden_emerging_reports` folds every field of every
//!   `EmergingReport` the detector gives over `mini_study(2022)`, once
//!   window by window (`observe_docs`) and once over the whole stream
//!   (`run`), both at `EmergingConfig::default()`;
//! * `golden_aolda_windows` folds the bits of every topic's novelty,
//!   weight and distribution and of every document's mixture that
//!   `AdaptiveOnlineLda` gives at `AoldaConfig::default()` over the same
//!   hourly windows.
//!
//! A change to a prior, a tolerance, a threshold or the order of a float
//! operation anywhere in the topic model shows up as a checksum mismatch.

use std::collections::BTreeMap;

use alertops::core::prelude::*;
use alertops::react::{EmergingAlertDetector, EmergingConfig, EmergingDoc, EmergingReport};
use alertops::sim::scenarios;
use alertops::text::{BagOfWords, Tokenizer, Vocabulary};
use alertops::topics::{AdaptiveOnlineLda, AoldaConfig, LdaConfig};

const HOUR: u64 = 3_600;

/// FNV-1a over the little-endian bytes of each word.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The study's alerts in stream order, cut into consecutive wall-clock
/// hours from the first alert's hour to the last's, empty hours kept.
fn hourly_windows() -> (Vec<Alert>, Vec<Vec<Alert>>) {
    let mut alerts = scenarios::mini_study(2022).run().alerts;
    alerts.sort_by_key(|a| (a.raised_at(), a.id()));
    let hour = |a: &Alert| a.raised_at().as_secs() / HOUR;
    let first = hour(&alerts[0]);
    let last = hour(alerts.last().expect("the study raises alerts"));
    let mut windows = vec![Vec::new(); (last - first + 1) as usize];
    for alert in &alerts {
        windows[(hour(alert) - first) as usize].push(alert.clone());
    }
    (alerts, windows)
}

fn fold_report(hash: &mut u64, report: &EmergingReport) {
    fold(hash, report.window_index as u64);
    fold(hash, report.window_start.as_secs());
    fold(hash, report.alert_count as u64);
    fold(hash, report.emerging_topics as u64);
    fold(hash, report.emerging_alerts.len() as u64);
    for id in &report.emerging_alerts {
        fold(hash, id.0);
    }
}

#[test]
fn golden_emerging_reports() {
    let (alerts, windows) = hourly_windows();
    assert_eq!(windows.len(), 96);

    let mut streaming = EmergingAlertDetector::new(EmergingConfig::default());
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut flagged = 0;
    for window in &windows {
        let docs: Vec<EmergingDoc> = window.iter().map(EmergingDoc::from_alert).collect();
        let report = streaming.observe_docs(&docs);
        flagged += report.emerging_alerts.len();
        fold_report(&mut hash, &report);
    }
    assert!(flagged > 0, "the study flags no emerging alert");
    assert_eq!(
        hash, 0x178a_17a9_6757_937f,
        "streaming golden checksum {hash:#018x}"
    );

    let reports = EmergingAlertDetector::new(EmergingConfig::default()).run(&alerts);
    assert_eq!(reports.len(), windows.len());
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for report in &reports {
        fold_report(&mut hash, report);
    }
    assert_eq!(
        hash, 0x3243_5793_acfe_98fd,
        "offline golden checksum {hash:#018x}"
    );
}

#[test]
fn golden_aolda_windows() {
    let (alerts, windows) = hourly_windows();
    let tokenizer = Tokenizer::new().drop_numbers();
    let text = |a: &Alert| tokenizer.tokenize(&format!("{} {}", a.title(), a.service_name()));
    let mut vocab = Vocabulary::new();
    for alert in &alerts {
        vocab.encode_and_update(&text(alert));
    }
    let mut aolda = AdaptiveOnlineLda::new(AoldaConfig {
        lda: LdaConfig {
            vocab_size: vocab.len(),
            ..LdaConfig::default()
        },
        ..AoldaConfig::default()
    });

    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for window in &windows {
        // One bag per distinct text, in first-seen order.
        let mut index: BTreeMap<BagOfWords, u32> = BTreeMap::new();
        let mut bags: Vec<BagOfWords> = Vec::new();
        let positions: Vec<u32> = window
            .iter()
            .map(|alert| {
                let bag = vocab.encode_and_update(&text(alert));
                *index.entry(bag.clone()).or_insert_with(|| {
                    bags.push(bag);
                    bags.len() as u32 - 1
                })
            })
            .collect();
        let prepared = aolda.prepare_window(&bags, &positions);
        let fitted = aolda.commit_window(prepared);
        fold(&mut hash, fitted.doc_count as u64);
        for topic in &fitted.topics {
            fold(&mut hash, u64::from(topic.emerging));
            fold(&mut hash, topic.novelty.to_bits());
            fold(&mut hash, topic.weight.to_bits());
            for p in &topic.distribution {
                fold(&mut hash, p.to_bits());
            }
        }
        for position in 0..positions.len() {
            for p in fitted.doc_mixture(position) {
                fold(&mut hash, p.to_bits());
            }
        }
    }
    assert_eq!(
        hash, 0xa827_2cf1_2db6_2b75,
        "AO-LDA golden checksum {hash:#018x}"
    );
}
