//! Negative-path WAL replay: corruption that is *not* the clean torn
//! tail the happy-path suite already covers. Replay must quarantine and
//! count each anomaly deterministically — never panic, never parse
//! garbage, never silently drop a countable record:
//!
//! * a CRC mismatch in the middle of a sealed segment (bit rot, not a
//!   crash) discards the rest of that segment only — in both the v1
//!   text and v2 binary segment formats;
//! * a zero-length frame (valid header, empty payload) is counted as
//!   torn, not parsed as an empty record;
//! * a frame kind that is valid on the ingress wire but meaningless in
//!   a journal (a `Flush`) ends trust in its v2 segment;
//! * a duplicate window sequence number is counted and merged, not
//!   replayed as two windows.
//!
//! Since v2 became the only writable format this suite is also where
//! v1 segments come from: it carries the one independent v1 framer, so
//! the positive v1 cases (a clean upgrade, v1 replay == v2 replay) live
//! here beside it.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;

use alertops_cluster::{crc32, replay, Wal, WalRecord};
use alertops_model::{Alert, AlertId, SimTime, StrategyId};
use alertops_wire::{Frame, WireEncoder, WAL_MAGIC, WAL_VERSION};

fn alert(id: u64) -> Alert {
    Alert::builder(AlertId(id), StrategyId(id % 5))
        .raised_at(SimTime::from_secs(id * 60))
        .build()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alertops-wal-negative-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Frames a record exactly as the removed v1 writer did (the format is
/// public contract: `<len:08x> <crc32:08x> <json>`). Nothing in the
/// workspace writes v1 any more, so this independent framer is what
/// keeps v1 segments a tested replay input.
fn frame(record: &WalRecord) -> String {
    let json = serde_json::to_string(record).expect("record serializes");
    format!("{:08x} {:08x} {json}", json.len(), crc32(json.as_bytes()))
}

/// Writes a raw segment file from pre-framed lines.
fn write_segment(dir: &PathBuf, index: u64, lines: &[String]) {
    fs::create_dir_all(dir).expect("create wal dir");
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(dir.join(format!("seg-{index:010}.wal")))
        .expect("create segment");
    for line in lines {
        writeln!(file, "{line}").expect("write record");
    }
}

/// Bit rot in the middle of a *sealed* segment: the corrupt record and
/// everything after it in that segment (including its boundary) are
/// discarded and counted; the segments before and after replay intact.
#[test]
fn crc_mismatch_mid_segment_quarantines_only_that_segment() {
    let dir = temp_dir("crc-mid");
    // A v1 text log: the line-oriented corruption below splits on
    // newlines.
    let lines = |ids: std::ops::Range<u64>, window: Option<u64>| -> Vec<String> {
        ids.map(|id| frame(&WalRecord::Alert(alert(id))))
            .chain(window.map(|window| frame(&WalRecord::Boundary { window })))
            .collect()
    };
    write_segment(&dir, 0, &lines(0..3, Some(0)));
    write_segment(&dir, 1, &lines(3..5, Some(1)));
    write_segment(&dir, 2, &lines(5..6, None));

    // Flip one payload byte of the SECOND record of segment 0 — a
    // mid-segment corruption, not a torn tail.
    let seg0 = dir.join(format!("seg-{:010}.wal", 0));
    let bytes = fs::read(&seg0).expect("read segment");
    let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let second_start = lines[0].len() + 1;
    let mut corrupted = bytes.clone();
    let target = second_start + lines[1].len() - 1; // last payload byte
    corrupted[target] ^= 0x01;
    fs::write(&seg0, corrupted).expect("write corrupted segment");

    let replayed = replay(&dir).expect("replay never errors on corruption");
    assert_eq!(replayed.torn_records, 1, "exactly the flipped record");
    // Window 0's boundary died with its segment; the surviving leading
    // record flows into the next sealed window. Nothing readable is
    // lost, nothing corrupt is parsed.
    assert_eq!(replayed.windows.len(), 1);
    assert_eq!(replayed.windows[0].0, 1);
    assert_eq!(
        replayed.windows[0].1,
        vec![alert(0), alert(3), alert(4)],
        "segment-0 survivor plus the intact window-1 records"
    );
    assert_eq!(replayed.tail, vec![alert(5)], "open segment is untouched");
    assert_eq!(replayed.duplicate_boundaries, 0);
    assert_eq!(replayed.recovered_alerts, 4);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A zero-length frame has a self-consistent header (`len 0`, the CRC
/// of the empty string) but no payload to parse. It must be counted as
/// torn — an empty JSON document is not a record — and end trust in its
/// segment deterministically.
#[test]
fn zero_length_frame_is_torn_not_parsed() {
    let dir = temp_dir("zero-len");
    write_segment(
        &dir,
        0,
        &[
            frame(&WalRecord::Alert(alert(1))),
            format!("{:08x} {:08x} ", 0, crc32(b"")), // zero-length frame
            frame(&WalRecord::Alert(alert(2))),       // untrusted from here on
        ],
    );
    write_segment(
        &dir,
        1,
        &[
            frame(&WalRecord::Alert(alert(3))),
            frame(&WalRecord::Boundary { window: 0 }),
        ],
    );

    let replayed = replay(&dir).expect("replay never errors");
    assert_eq!(replayed.torn_records, 1, "the zero-length frame");
    assert_eq!(replayed.windows.len(), 1);
    assert_eq!(
        replayed.windows[0].1,
        vec![alert(1), alert(3)],
        "pre-corruption record survives; post-corruption record does not"
    );
    assert!(replayed.tail.is_empty());
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A header too short to frame anything (fewer than 18 bytes) is the
/// same class: torn, counted, no panic.
#[test]
fn truncated_header_is_torn_not_parsed() {
    let dir = temp_dir("short-header");
    write_segment(
        &dir,
        0,
        &[frame(&WalRecord::Alert(alert(9))), "00000000".to_owned()],
    );
    let replayed = replay(&dir).expect("replay never errors");
    assert_eq!(replayed.torn_records, 1);
    assert_eq!(replayed.tail, vec![alert(9)]);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// The same window sequence sealed twice (a re-append bug or a
/// replay-then-crash restart): replay keeps one window, merges the
/// alerts in log order, and counts the anomaly — it must never present
/// the same window seq twice to the governor.
#[test]
fn duplicate_window_seq_is_counted_and_merged() {
    let dir = temp_dir("dup-seq");
    write_segment(
        &dir,
        0,
        &[
            frame(&WalRecord::Alert(alert(1))),
            frame(&WalRecord::Boundary { window: 7 }),
        ],
    );
    write_segment(
        &dir,
        1,
        &[
            frame(&WalRecord::Alert(alert(2))),
            frame(&WalRecord::Boundary { window: 7 }), // duplicate seq
        ],
    );
    write_segment(&dir, 2, &[frame(&WalRecord::Alert(alert(3)))]);

    let replayed = replay(&dir).expect("replay never errors");
    assert_eq!(replayed.duplicate_boundaries, 1);
    assert_eq!(replayed.torn_records, 0);
    assert_eq!(
        replayed.windows,
        vec![(7, vec![alert(1), alert(2)])],
        "one window, every alert, log order"
    );
    assert_eq!(replayed.tail, vec![alert(3)]);
    assert_eq!(replayed.recovered_alerts, 3);

    // Deterministic: a second replay of the same log is identical.
    assert_eq!(replay(&dir).expect("replay"), replayed);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Writes a raw v2 binary segment from pre-encoded frame bytes.
fn write_v2_segment(dir: &PathBuf, index: u64, frames: &[Vec<u8>]) {
    fs::create_dir_all(dir).expect("create wal dir");
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(dir.join(format!("seg-{index:010}.wal")))
        .expect("create segment");
    file.write_all(&WAL_MAGIC).expect("write magic");
    file.write_all(&[WAL_VERSION]).expect("write version");
    for frame in frames {
        file.write_all(frame).expect("write frame");
    }
}

/// Encodes a run of frames with one segment-scoped encoder (string
/// table shared, as a real segment's would be), returning per-frame
/// byte runs so tests can corrupt one frame surgically.
fn encode_v2_frames(frames: &[Frame]) -> Vec<Vec<u8>> {
    let mut encoder = WireEncoder::new();
    frames
        .iter()
        .map(|frame| {
            let mut buf = Vec::new();
            encoder.encode_into(frame, &mut buf);
            buf
        })
        .collect()
}

/// Bit rot mid-segment in the v2 binary format: the CRC catches the
/// flip, the rest of that segment is untrusted (binary streams cannot
/// resync), and neighbouring segments replay intact — the same
/// blast-radius contract the v1 test above pins.
#[test]
fn crc_mismatch_mid_v2_segment_quarantines_the_rest() {
    let dir = temp_dir("crc-mid-v2");
    let mut seg0 = encode_v2_frames(&[
        Frame::Alert(Box::new(alert(1))),
        Frame::Alert(Box::new(alert(2))),
        Frame::Alert(Box::new(alert(3))),
    ]);
    // Flip one payload byte of the SECOND frame (last byte is payload:
    // the frame tail is body bytes, not header).
    let last = seg0[1].len() - 1;
    seg0[1][last] ^= 0x01;
    write_v2_segment(&dir, 0, &seg0);
    write_v2_segment(
        &dir,
        1,
        &encode_v2_frames(&[
            Frame::Alert(Box::new(alert(4))),
            Frame::Boundary { window: 0 },
        ]),
    );

    let replayed = replay(&dir).expect("replay never errors on corruption");
    assert_eq!(
        replayed.torn_records, 1,
        "one torn count for the corrupt frame and its untrusted tail"
    );
    assert_eq!(replayed.windows.len(), 1);
    assert_eq!(
        replayed.windows[0].1,
        vec![alert(1), alert(4)],
        "segment-0 survivor plus the intact segment-1 record"
    );
    assert!(replayed.tail.is_empty());
    assert_eq!(replayed.recovered_alerts, 2);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A frame kind that is valid wire traffic but meaningless in a
/// journal — here a `Flush` — ends trust in its v2 segment: whatever
/// wrote it was not this WAL's writer, so nothing after it is safe to
/// believe either.
#[test]
fn non_journal_frame_kind_is_torn_not_replayed() {
    let dir = temp_dir("flush-in-wal");
    write_v2_segment(
        &dir,
        0,
        &encode_v2_frames(&[
            Frame::Alert(Box::new(alert(1))),
            Frame::Flush,
            Frame::Alert(Box::new(alert(2))),
        ]),
    );

    let replayed = replay(&dir).expect("replay never errors");
    assert_eq!(replayed.torn_records, 1, "the stray flush frame");
    assert_eq!(replayed.tail, vec![alert(1)]);
    assert_eq!(replayed.recovered_alerts, 1);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A v1 incarnation followed by a v2 one (the upgrade path): replay
/// stitches both into one history, and corruption inside the v2 part
/// never bleeds back into the v1 windows.
#[test]
fn v1_then_corrupt_v2_replays_the_v1_history_intact() {
    let dir = temp_dir("v1-then-v2");
    write_segment(
        &dir,
        0,
        &[
            frame(&WalRecord::Alert(alert(1))),
            frame(&WalRecord::Boundary { window: 0 }),
        ],
    );
    let mut seg1 = encode_v2_frames(&[
        Frame::Alert(Box::new(alert(2))),
        Frame::Boundary { window: 1 },
    ]);
    let last = seg1[0].len() - 1;
    seg1[0][last] ^= 0x40;
    write_v2_segment(&dir, 1, &seg1);

    let replayed = replay(&dir).expect("replay never errors");
    assert_eq!(replayed.torn_records, 1);
    assert_eq!(
        replayed.windows,
        vec![(0, vec![alert(1)])],
        "the v1 window survives; the corrupt v2 segment contributes nothing"
    );
    assert_eq!(replayed.recovered_alerts, 1);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// The upgrade path without corruption: a pre-binary incarnation
/// sealed window 0 in v1, the upgraded one continues in binary (each
/// open starts a fresh segment after the existing ones, so the v1
/// leftovers are untouched), and replay reads one history.
#[test]
fn mixed_format_logs_replay_as_one_history() {
    let dir = temp_dir("mixed");
    write_segment(
        &dir,
        0,
        &[
            frame(&WalRecord::Alert(alert(1))),
            frame(&WalRecord::Boundary { window: 0 }),
        ],
    );
    {
        let wal = Wal::open(&dir, 8).expect("wal opens");
        wal.append(&alert(2)).expect("append");
        wal.boundary(1).expect("boundary");
        wal.append(&alert(3)).expect("append");
    }
    let replayed = replay(&dir).expect("replay");
    assert_eq!(replayed.torn_records, 0);
    assert_eq!(
        replayed.windows,
        vec![(0, vec![alert(1)]), (1, vec![alert(2)])]
    );
    assert_eq!(replayed.tail, vec![alert(3)]);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A log in the pre-binary v1 text format and one written in the v2
/// binary format from the same appends — a real scenario trace, every
/// alert field in play — replay to the same history: recovery is
/// format-blind.
#[test]
fn v1_and_v2_wals_replay_identically() {
    let mut trace = alertops_sim::scenarios::quickstart(11).run().alerts;
    trace.sort_by_key(|a| (a.raised_at(), a.id()));
    let windows: Vec<&[Alert]> = trace.chunks(150).collect();

    let v1_dir = temp_dir("identity-v1");
    let v2_dir = temp_dir("identity-v2");
    let wal = Wal::open(&v2_dir, 16).expect("wal opens");
    for (window, seq) in windows.iter().zip(0u64..) {
        let mut lines = Vec::with_capacity(window.len() + 1);
        for alert in *window {
            wal.append(alert).expect("append");
            lines.push(frame(&WalRecord::Alert(alert.clone())));
        }
        wal.boundary(seq).expect("boundary");
        lines.push(frame(&WalRecord::Boundary { window: seq }));
        write_segment(&v1_dir, seq, &lines);
    }
    drop(wal);

    let v1 = replay(&v1_dir).expect("replay");
    let v2 = replay(&v2_dir).expect("replay");
    assert_eq!(v1, v2, "replay must be format-blind");
    assert_eq!(v1.torn_records, 0);
    assert_eq!(v1.recovered_alerts, trace.len() as u64);
    fs::remove_dir_all(&v1_dir).expect("cleanup");
    fs::remove_dir_all(&v2_dir).expect("cleanup");
}
