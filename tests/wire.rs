//! The wire differential: the binary frame format is a *transport*,
//! never a semantics change. The same windowed trace is played
//!
//! * through an in-process daemon (the oracle),
//! * over real TCP in NDJSON and in binary frames, at 1 and 4 shards,
//! * and through a 4-node cluster journaling binary WAL segments,
//!
//! and every published [`GovernanceSnapshot`] stream must agree —
//! byte-for-byte where the partitioning is exact, modulo per-shard
//! triage where it is not. A corrupt binary frame must be quarantined
//! and counted, not parsed; and a WAL written in the pre-binary v1
//! format must replay to exactly the history a v2 log of the same
//! appends replays to.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use alertops::cluster::{replay, AlertCluster, ClusterConfig, Wal, WalFormat};
use alertops::core::prelude::*;
use alertops::ingestd::codec::encode_alert;
use alertops::ingestd::{shard_catalog, Ingestd, IngestdConfig, IngestdHandle, FLUSH_FRAME};
use alertops::sim::scenarios;
use alertops::wire::{AckFrame, Frame, WireDecoder, WireEncoder, WireFormat};

/// The quickstart trace chopped into time-sorted windows, with a
/// trailing empty window so the differential also covers detection
/// over a draining history.
fn windowed_trace(seed: u64, window_len: usize) -> (Vec<AlertStrategy>, Vec<Vec<Alert>>) {
    let out = scenarios::quickstart(seed).run();
    let mut trace = out.alerts.clone();
    trace.sort_by_key(|a| (a.raised_at(), a.id()));
    let mut windows: Vec<Vec<Alert>> = trace.chunks(window_len).map(<[Alert]>::to_vec).collect();
    windows.push(Vec::new());
    (out.catalog.strategies().to_vec(), windows)
}

fn daemon(
    strategies: &[AlertStrategy],
    shards: usize,
    wire: WireFormat,
    listen: bool,
) -> IngestdHandle {
    let config = IngestdConfig {
        shards,
        queue_capacity: 8192,
        listen: listen.then(|| "127.0.0.1:0".to_owned()),
        wire,
        ..IngestdConfig::default()
    };
    let strategies = strategies.to_vec();
    Ingestd::spawn(&config, move |shard, shards| {
        StreamingGovernor::new(
            AlertGovernor::new(
                shard_catalog(&strategies, shards, shard),
                GovernorConfig::default(),
            ),
            StreamingConfig::default(),
        )
    })
    .expect("daemon starts")
}

/// Reads the next binary frame off the daemon's ack lane. The ingest
/// protocol is lock-step (one ack per flush), so nothing else is ever
/// in flight toward the client.
fn read_binary_frame(reader: &mut BufReader<TcpStream>, decoder: &mut WireDecoder) -> Frame {
    loop {
        let buf = reader.fill_buf().expect("read ack bytes");
        assert!(!buf.is_empty(), "connection closed before the ack frame");
        let consumed = buf.len();
        let frames = decoder.feed(buf);
        reader.consume(consumed);
        if let Some(frame) = frames.into_iter().next() {
            return frame.expect("well-formed ack frame");
        }
    }
}

/// Streams the windows over a real TCP connection in `wire` format and
/// returns the per-window published snapshots.
fn run_over_tcp(
    strategies: &[AlertStrategy],
    windows: &[Vec<Alert>],
    shards: usize,
    wire: WireFormat,
) -> Vec<GovernanceSnapshot> {
    let handle = daemon(strategies, shards, wire, true);
    let addr = handle.ingest_addr().expect("ingress bound");
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = stream;
    let mut encoder = WireEncoder::new();
    let mut decoder = WireDecoder::new();
    let mut buf = Vec::new();
    let mut snapshots = Vec::with_capacity(windows.len());
    for (seq, window) in windows.iter().enumerate() {
        // Acks come back in the connection's own format: a JSON text
        // line on NDJSON connections, a binary `AckFrame` on binary
        // ones — never a text line mid-binary-stream.
        match wire {
            WireFormat::Ndjson => {
                for alert in window {
                    writeln!(writer, "{}", encode_alert(alert)).expect("write alert");
                }
                writeln!(writer, "{FLUSH_FRAME}").expect("write flush");
                writer.flush().expect("flush socket");
                let mut ack = String::new();
                reader.read_line(&mut ack).expect("read flush ack");
                assert!(ack.contains(r#""ack":"flush""#), "unexpected ack: {ack:?}");
            }
            WireFormat::Binary => {
                buf.clear();
                for alert in window {
                    encoder.encode_alert_into(alert, &mut buf);
                }
                encoder.encode_into(&Frame::Flush, &mut buf);
                writer.write_all(&buf).expect("write window");
                writer.flush().expect("flush socket");
                match read_binary_frame(&mut reader, &mut decoder) {
                    Frame::Ack(AckFrame::Flush {
                        window: acked,
                        alerts,
                    }) => {
                        assert_eq!(acked, seq as u64, "ack carries the window seq");
                        assert_eq!(
                            alerts,
                            window.len() as u64,
                            "ack carries the window's alert count"
                        );
                    }
                    other => panic!("expected a binary flush ack, got {other:?}"),
                }
            }
        }
        snapshots.push(handle.latest_snapshot().expect("snapshot published"));
    }
    let counters = handle.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!(counters.dropped, 0);
    assert_eq!(counters.decode_errors, 0);
    // Close the connection before shutdown: the daemon joins its
    // per-connection threads, which are parked in read() until EOF.
    drop(reader);
    drop(writer);
    handle.shutdown();
    snapshots
}

/// The in-process oracle: same governors, no sockets, no wire format.
fn run_in_process(
    strategies: &[AlertStrategy],
    windows: &[Vec<Alert>],
    shards: usize,
) -> Vec<GovernanceSnapshot> {
    let handle = daemon(strategies, shards, WireFormat::default(), false);
    let mut snapshots = Vec::with_capacity(windows.len());
    for window in windows {
        for alert in window {
            handle.route(alert.clone());
        }
        snapshots.push(handle.flush().expect("flush publishes"));
    }
    handle.shutdown();
    snapshots
}

/// Strips the one field sharding is not exact for (triage correlates
/// within a shard) plus the fault bookkeeping.
fn comparable(snapshot: &GovernanceSnapshot) -> GovernanceSnapshot {
    GovernanceSnapshot {
        triage: Vec::new(),
        degraded: Vec::new(),
        ..snapshot.clone()
    }
}

fn json(snapshot: &GovernanceSnapshot) -> String {
    serde_json::to_string(snapshot).expect("snapshot serializes")
}

/// The acceptance matrix: batch == 1-shard == 4-shard == 4-node, and
/// NDJSON == binary at every point where both travel.
#[test]
fn binary_and_ndjson_publish_byte_identical_snapshots_across_topologies() {
    let (strategies, windows) = windowed_trace(2022, 400);

    let oracle = run_in_process(&strategies, &windows, 1);
    let ndjson_1 = run_over_tcp(&strategies, &windows, 1, WireFormat::Ndjson);
    let binary_1 = run_over_tcp(&strategies, &windows, 1, WireFormat::Binary);
    let ndjson_4 = run_over_tcp(&strategies, &windows, 4, WireFormat::Ndjson);
    let binary_4 = run_over_tcp(&strategies, &windows, 4, WireFormat::Binary);

    for (((oracle, ndjson), binary), window) in
        oracle.iter().zip(&ndjson_1).zip(&binary_1).zip(0usize..)
    {
        // Single shard is the full catalog: byte equality, triage and
        // all, across the in-process oracle and both transports.
        assert_eq!(json(oracle), json(ndjson), "ndjson diverged at {window}");
        assert_eq!(json(oracle), json(binary), "binary diverged at {window}");
    }
    for ((ndjson, binary), window) in ndjson_4.iter().zip(&binary_4).zip(0usize..) {
        // Same topology, different transport: still byte equality.
        assert_eq!(
            json(ndjson),
            json(binary),
            "4-shard binary diverged from 4-shard ndjson at {window}"
        );
        assert_eq!(
            json(&comparable(ndjson)),
            json(&comparable(&oracle[window])),
            "4-shard diverged from the oracle at {window}"
        );
    }

    // The 4-node cluster agrees too, whichever segment format its
    // WALs journal in.
    for wal_format in [WalFormat::V2Binary, WalFormat::V1Json] {
        let root = std::env::temp_dir().join(format!("alertops-wire-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = ClusterConfig {
            nodes: 4,
            node: IngestdConfig {
                shards: 1,
                queue_capacity: 8192,
                ..IngestdConfig::default()
            },
            wal_root: root.clone(),
            wal_format,
        };
        let mut cluster = AlertCluster::spawn(
            config,
            strategies.clone(),
            std::sync::Arc::new(|catalog: &[AlertStrategy]| {
                StreamingGovernor::new(
                    AlertGovernor::new(catalog.to_vec(), GovernorConfig::default()),
                    StreamingConfig::default(),
                )
            }),
        )
        .expect("cluster spawns");
        for (window, index) in windows.iter().zip(0usize..) {
            for alert in window {
                cluster.route(alert.clone()).expect("route succeeds");
            }
            let snapshot = cluster.close_window().expect("window closes");
            assert_eq!(
                json(&comparable(&snapshot)),
                json(&comparable(&oracle[index])),
                "4-node cluster ({}) diverged from the oracle at {index}",
                wal_format.label()
            );
        }
        assert!(cluster.counters().is_conserved());
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Corruption on the binary wire is counted, not parsed: the daemon
/// quarantines the frame as `corrupt_frame`, closes the connection,
/// and the conservation law still holds — alerts decoded before the
/// corruption survive.
#[test]
fn corrupt_binary_frame_is_quarantined_and_closes_the_connection() {
    let (strategies, windows) = windowed_trace(7, 200);
    let window = &windows[0];
    let handle = daemon(&strategies, 2, WireFormat::Binary, true);
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
    let stream = TcpStream::connect(addr).expect("reconnect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = stream;
    let mut flush = Vec::new();
    WireEncoder::new().encode_into(&Frame::Flush, &mut flush);
    writer.write_all(&flush).expect("write flush");
    writer.flush().expect("flush socket");
    let mut decoder = WireDecoder::new();
    assert!(
        matches!(
            read_binary_frame(&mut reader, &mut decoder),
            Frame::Ack(AckFrame::Flush { .. })
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
    drop(reader);
    drop(writer);
    handle.shutdown();
}

/// A WAL written in the pre-binary v1 text format and one written in
/// the v2 binary format from the same appends replay to the same
/// history — recovery is format-blind.
#[test]
fn v1_and_v2_wals_replay_identically() {
    let (_, windows) = windowed_trace(11, 150);
    let base = std::env::temp_dir().join(format!("alertops-wire-wal-{}", std::process::id()));
    let mut replays = Vec::new();
    for format in [WalFormat::V1Json, WalFormat::V2Binary] {
        let dir = base.join(format.label());
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Wal::open_with_format(&dir, 16, format).expect("wal opens");
        for (window, seq) in windows.iter().zip(0u64..) {
            for alert in window {
                wal.append(alert).expect("append");
            }
            wal.boundary(seq).expect("boundary");
        }
        drop(wal);
        replays.push(replay(&dir).expect("replay"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(replays[0], replays[1], "replay must be format-blind");
    assert_eq!(replays[0].torn_records, 0);
    assert_eq!(
        replays[0].recovered_alerts,
        windows.iter().map(Vec::len).sum::<usize>() as u64
    );
}
