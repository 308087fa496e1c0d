//! The wire differential: the binary frame format is a *transport*,
//! never a semantics change. The harness (`tests/common`) plays the
//! same windowed trace through the batch oracle, in-process daemons,
//! daemons fed over real TCP in NDJSON and in binary frames at 1 and 4
//! shards, and clusters journaling binary WAL segments, and every
//! published `GovernanceSnapshot` stream must agree byte for byte,
//! triage included. A corrupt binary frame must be quarantined and counted,
//! not parsed. (The journal-side twin — a rotted, cut or headerless
//! WAL segment is torn, never parsed — lives in
//! `crates/cluster/tests/wal_negative.rs`.)

mod common;

use std::io::Write;
use std::net::TcpStream;

use alertops::ingestd::{IngestdConfig, IngressClient};
use alertops::wire::{AckFrame, Frame, WireEncoder, WireFormat};

use common::Case;

/// The acceptance matrix: batch == 1-shard == 4-shard == N-node, and
/// NDJSON == binary at every point where both travel, over the
/// quickstart trace of seed 2022 in windows of 400 with a trailing
/// empty window (detection over a draining history).
#[test]
fn binary_and_ndjson_publish_byte_identical_snapshots_across_topologies() {
    common::assert_topologies_agree(&Case::quickstart(2022, 400, 1));
}

/// Corruption on the binary wire is counted, not parsed: the daemon
/// quarantines the frame as `corrupt_frame`, closes the connection,
/// and the conservation law still holds — alerts decoded before the
/// corruption survive.
#[test]
fn corrupt_binary_frame_is_quarantined_and_closes_the_connection() {
    let case = Case::quickstart(7, 200, 1);
    let window = &case.windows[0].alerts;
    let handle = case.daemon(
        IngestdConfig {
            shards: 2,
            queue_capacity: 8192,
            listen: Some("127.0.0.1:0".to_owned()),
            wire: WireFormat::Binary,
            ..IngestdConfig::default()
        },
        None,
    );
    let addr = handle.ingest_addr().expect("ingress bound");

    let mut writer = TcpStream::connect(addr).expect("connect");
    let mut encoder = WireEncoder::new();
    let mut buf = Vec::new();
    for alert in window {
        encoder.encode_alert_into(alert, &mut buf);
    }
    // Flip a payload bit of the LAST frame: everything before it is
    // intact, the flipped frame fails its CRC.
    let last = buf.len() - 1;
    buf[last] ^= 0x01;
    writer.write_all(&buf).expect("write corrupted stream");
    writer.flush().expect("flush socket");
    // The daemon closes the poisoned connection; wait for it.
    let mut rest = Vec::new();
    let _ = std::io::Read::read_to_end(&mut writer, &mut rest);

    // A fresh connection still works — poisoning is per-stream. Its
    // ack comes back as a binary frame, like everything else on a
    // binary connection.
    let mut client = IngressClient::connect(addr, WireFormat::Binary).expect("reconnect");
    assert!(
        matches!(
            client.request(&Frame::Flush).expect("flush acked"),
            AckFrame::Flush { .. }
        ),
        "binary connection acks with a binary flush frame"
    );

    let counters = handle.counters();
    assert_eq!(
        counters.quarantined_corrupt_frame, 1,
        "exactly the flipped frame: {counters:?}"
    );
    // Quarantine counts toward `ingested` (conservation law), so the
    // whole window entered the pipeline but one frame short delivered.
    assert_eq!(counters.ingested, window.len() as u64, "{counters:?}");
    assert_eq!(
        counters.delivered,
        window.len() as u64 - 1,
        "every frame before the corruption was decoded: {counters:?}"
    );
    assert!(counters.is_conserved(), "{counters:?}");
    drop(client);
    handle.shutdown();
}
