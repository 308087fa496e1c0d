//! Negative-path WAL replay: corruption that is *not* the clean torn
//! tail the happy-path suite already covers. Replay must quarantine and
//! count each anomaly deterministically — never panic, never parse
//! garbage, never silently drop a countable record:
//!
//! * a CRC mismatch in the middle of a sealed segment (bit rot, not a
//!   crash) discards the rest of that segment only;
//! * a zero-length frame (valid header, empty payload) is counted as
//!   torn, not parsed as an empty record;
//! * a frame cut inside its length+CRC header is torn, not waited on;
//! * a frame kind that is valid on the ingress wire but meaningless in
//!   a journal (a `Flush`) ends trust in its segment;
//! * a segment that does not start with the `AOWL` + version header is
//!   one torn record, whatever it holds instead;
//! * a duplicate window sequence number is counted and merged, not
//!   replayed as two windows.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use alertops_cluster::replay;
use alertops_model::{Alert, AlertId, SimTime, StrategyId};
use alertops_wire::{crc32, Frame, WireEncoder, WAL_MAGIC, WAL_VERSION};

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

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:010}.wal"))
}

/// Writes a raw segment file: the v2 header, then pre-encoded frame
/// bytes.
fn write_v2_segment(dir: &Path, index: u64, frames: &[Vec<u8>]) {
    fs::create_dir_all(dir).expect("create wal dir");
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(segment_path(dir, index))
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

fn alert_frame(id: u64) -> Frame {
    Frame::Alert(Box::new(alert(id)))
}

/// Bit rot mid-segment: the CRC catches the flip, the rest of that
/// segment is untrusted (binary streams cannot resync), and
/// neighbouring segments replay intact.
#[test]
fn crc_mismatch_mid_v2_segment_quarantines_the_rest() {
    let dir = temp_dir("crc-mid-v2");
    let mut seg0 = encode_v2_frames(&[alert_frame(1), alert_frame(2), alert_frame(3)]);
    // Flip one payload byte of the SECOND frame (last byte is payload:
    // the frame tail is body bytes, not header).
    let last = seg0[1].len() - 1;
    seg0[1][last] ^= 0x01;
    write_v2_segment(&dir, 0, &seg0);
    write_v2_segment(
        &dir,
        1,
        &encode_v2_frames(&[alert_frame(4), Frame::Boundary { window: 0 }]),
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

/// A zero-length frame has a self-consistent header (`len 0`, the CRC
/// of the empty payload) but no payload to parse. It must be counted as
/// torn — an empty payload has no frame tag, so it is not a record —
/// and end trust in its segment deterministically.
#[test]
fn zero_length_frame_is_torn_not_parsed() {
    let dir = temp_dir("zero-len");
    let mut zero_length = vec![0u8]; // varint length 0
    zero_length.extend_from_slice(&crc32(b"").to_le_bytes());
    let mut seg0 = encode_v2_frames(&[alert_frame(1), alert_frame(2)]);
    seg0.insert(1, zero_length); // alert 2 is untrusted from here on
    write_v2_segment(&dir, 0, &seg0);
    write_v2_segment(
        &dir,
        1,
        &encode_v2_frames(&[alert_frame(3), Frame::Boundary { window: 0 }]),
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

/// A frame cut inside its varint+CRC header — the segment ends before
/// the frame's length and checksum are whole — is the same class: torn,
/// counted, no panic.
#[test]
fn truncated_header_is_torn_not_parsed() {
    let dir = temp_dir("short-header");
    let mut frames = encode_v2_frames(&[alert_frame(9), alert_frame(10)]);
    frames[1].truncate(3); // the length varint and part of the CRC
    write_v2_segment(&dir, 0, &frames);
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
    write_v2_segment(
        &dir,
        0,
        &encode_v2_frames(&[alert_frame(1), Frame::Boundary { window: 7 }]),
    );
    write_v2_segment(
        &dir,
        1,
        &encode_v2_frames(&[
            alert_frame(2),
            Frame::Boundary { window: 7 }, // duplicate seq
        ]),
    );
    write_v2_segment(&dir, 2, &encode_v2_frames(&[alert_frame(3)]));

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

/// A frame kind that is valid wire traffic but meaningless in a
/// journal — here a `Flush` — ends trust in its segment: whatever
/// wrote it was not this WAL's writer, so nothing after it is safe to
/// believe either.
#[test]
fn non_journal_frame_kind_is_torn_not_replayed() {
    let dir = temp_dir("flush-in-wal");
    write_v2_segment(
        &dir,
        0,
        &encode_v2_frames(&[alert_frame(1), Frame::Flush, alert_frame(2)]),
    );

    let replayed = replay(&dir).expect("replay never errors");
    assert_eq!(replayed.torn_records, 1, "the stray flush frame");
    assert_eq!(replayed.tail, vec![alert(1)]);
    assert_eq!(replayed.recovered_alerts, 1);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Replay reads the one layout the log writes. A segment that does not
/// open with `AOWL` + version — a pre-binary text segment, a header cut
/// short — is one torn record and contributes nothing; an empty file (a
/// crash between creating a segment and writing its header) is no
/// record at all. Either way the next segment still replays.
#[test]
fn a_segment_without_the_v2_header_is_one_torn_record() {
    // A window-3 boundary line in the retired text layout.
    let v1_boundary = b"00000019 4ce0f72c {\"boundary\":{\"window\":3}}\n".as_slice();
    for (tag, segment, torn) in [
        ("v1-text", v1_boundary, 1),
        ("short-header", b"AOW".as_slice(), 1),
        ("empty", b"".as_slice(), 0),
    ] {
        let dir = temp_dir(tag);
        fs::create_dir_all(&dir).expect("create wal dir");
        fs::write(segment_path(&dir, 0), segment).expect("write segment");
        write_v2_segment(
            &dir,
            1,
            &encode_v2_frames(&[alert_frame(1), Frame::Boundary { window: 3 }]),
        );

        let replayed = replay(&dir).expect("replay never errors");
        assert_eq!(replayed.torn_records, torn, "{tag}");
        assert_eq!(
            replayed.windows,
            vec![(3, vec![alert(1)])],
            "{tag}: only the v2 segment's window"
        );
        assert_eq!(replayed.duplicate_boundaries, 0, "{tag}");
        assert_eq!(replayed.recovered_alerts, 1, "{tag}");
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
