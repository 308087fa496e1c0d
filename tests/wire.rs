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
//! and counted, not parsed. (The journal-side twin — a rotted, cut or
//! headerless WAL segment is torn, never parsed — lives in
//! `crates/cluster/tests/wal_negative.rs`.)

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use alertops::cluster::{AlertCluster, ClusterConfig, WalFormat};
use alertops::core::prelude::*;
use alertops::ingestd::codec::{parse_ack_line, scan_alert};
use alertops::ingestd::{
    shard_catalog, Ingestd, IngestdConfig, IngestdHandle, IngressClient, FLUSH_FRAME,
};
use alertops::sim::scenarios;
use alertops::wire::{AckFrame, Frame, WireEncoder, WireFormat};

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

/// The window an NDJSON run sends half of as [`noncanonical_line`]s.
const NONCANONICAL_WINDOW: u64 = 0;

/// `alert` as an NDJSON line the daemon's scanner defers on: every
/// object's keys in reverse order, whitespace around every `:` and `,`,
/// and every string character `\u`-escaped. Only the classifying path
/// decodes it.
fn noncanonical_line(alert: &Alert) -> String {
    fn render(value: &serde_json::Value, out: &mut String) {
        match value {
            serde_json::Value::Object(map) => {
                let entries: Vec<_> = map.iter().collect();
                out.push_str("{ ");
                for (i, (key, value)) in entries.into_iter().rev().enumerate() {
                    if i > 0 {
                        out.push_str(" , ");
                    }
                    escaped(key, out);
                    out.push_str(" : ");
                    render(value, out);
                }
                out.push_str(" }");
            }
            serde_json::Value::String(s) => escaped(s, out),
            other => out.push_str(&other.to_string()),
        }
    }
    fn escaped(s: &str, out: &mut String) {
        out.push('"');
        for unit in s.encode_utf16() {
            write!(out, "\\u{unit:04x}").expect("writing to a String");
        }
        out.push('"');
    }
    let value = serde_json::from_str(&serde_json::to_string(alert).expect("alert serializes"))
        .expect("alert JSON parses");
    let mut line = String::new();
    render(&value, &mut line);
    line
}

/// Sends `alerts` as [`noncanonical_line`]s and a flush on a
/// connection of its own, returning the flush's ack.
fn send_noncanonical(addr: SocketAddr, alerts: &[Alert]) -> AckFrame {
    assert!(!alerts.is_empty(), "the non-canonical lines carry alerts");
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut text = String::new();
    for alert in alerts {
        let line = noncanonical_line(alert);
        assert_eq!(scan_alert(&line), None, "{line}");
        text.push_str(&line);
        text.push('\n');
    }
    text.push_str(FLUSH_FRAME);
    text.push('\n');
    stream.write_all(text.as_bytes()).expect("write window");
    let mut ack = String::new();
    BufReader::new(&stream)
        .read_line(&mut ack)
        .expect("read ack");
    parse_ack_line(&ack).expect("an ack line")
}

/// Streams the windows over a real TCP connection in `wire` format and
/// returns the per-window published snapshots. An NDJSON run sends the
/// second half of window [`NONCANONICAL_WINDOW`] as
/// [`noncanonical_line`]s instead.
fn run_over_tcp(
    strategies: &[AlertStrategy],
    windows: &[Vec<Alert>],
    shards: usize,
    wire: WireFormat,
) -> Vec<GovernanceSnapshot> {
    let handle = daemon(strategies, shards, wire, true);
    let addr = handle.ingest_addr().expect("ingress bound");
    let mut client = IngressClient::connect(addr, wire).expect("connect");
    let mut snapshots = Vec::with_capacity(windows.len());
    for (window, seq) in windows.iter().zip(0u64..) {
        let ack = if wire == WireFormat::Ndjson && seq == NONCANONICAL_WINDOW {
            // The sync routes the first half before the second half
            // arrives on its own connection, so the window keeps its
            // order.
            let (head, tail) = window.split_at(window.len() / 2);
            client.send_alerts(head).expect("write window");
            assert_eq!(
                client.request(&Frame::Sync).expect("sync acked"),
                AckFrame::Sync
            );
            send_noncanonical(addr, tail)
        } else {
            client.send_alerts(window).expect("write window");
            client.request(&Frame::Flush).expect("flush acked")
        };
        // Acks come back in the connection's own format — a JSON text
        // line on NDJSON connections, a binary `AckFrame` on binary
        // ones — and say the same thing in both.
        assert_eq!(
            ack,
            AckFrame::Flush {
                window: seq,
                alerts: window.len() as u64,
            },
            "ack carries the window seq and its alert count"
        );
        snapshots.push(handle.latest_snapshot().expect("snapshot published"));
    }
    let counters = handle.counters();
    assert!(counters.is_conserved(), "{counters:?}");
    assert_eq!(counters.dropped, 0);
    assert_eq!(counters.decode_errors, 0);
    // Close the connection before shutdown: the daemon joins its
    // per-connection threads, which are parked in read() until EOF.
    drop(client);
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

    // The 4-node cluster, journaling binary WAL segments, agrees too.
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
        wal_format: WalFormat::default(),
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
            "4-node cluster diverged from the oracle at {index}"
        );
    }
    assert!(cluster.counters().is_conserved());
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
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
