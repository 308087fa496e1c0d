//! The system under test, driven through public APIs only: a live
//! `Ingestd` behind a TCP listener, the same daemon called in process,
//! or an in-process `AlertCluster` journaling to a WAL.
//!
//! Every variant runs the production defaults the issue fixes: two
//! shards (or 2 nodes × 1 shard), no tick, `OverflowPolicy::Block`,
//! `queue_capacity` 8192, metrics on.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use alertops_cluster::{AlertCluster, ClusterConfig, GovernorFactory, WalFormat};
use alertops_core::GovernanceSnapshot;
use alertops_ingestd::{
    shard_catalog, Ingestd, IngestdConfig, IngestdHandle, OverflowPolicy, FLUSH_FRAME,
};
use alertops_model::AlertStrategy;
use alertops_wire::{AckFrame, Frame, WireDecoder, WireEncoder, WireFormat};

use crate::loadgen::{Prepared, World};
use crate::spans::Tracer;
use crate::workloads::{Transport, QUEUE_CAPACITY};

/// What one window's hand-over produced and when.
#[derive(Debug)]
pub struct Closed {
    /// First byte (or first alert) of the window handed over.
    pub first_byte: Instant,
    /// The write or `route` of the window's last alert returned.
    pub last_alert: Instant,
    /// The flush ack arrived, or the snapshot was returned.
    pub ack: Instant,
    /// The snapshot the system published for the window.
    pub snapshot: GovernanceSnapshot,
    /// Deepest shard queue right after the last alert was handed over
    /// (sampled in traced runs only; 0 otherwise and for the cluster).
    pub queue_depth: u64,
}

/// The conservation counters of whichever system ran, on one shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conservation {
    /// Alerts that entered the pipeline.
    pub ingested: u64,
    /// Alerts folded into a closed window.
    pub delivered: u64,
    /// Alerts shed or lost.
    pub dropped: u64,
    /// Alerts rejected at the edge or the transport.
    pub quarantined: u64,
    /// Alerts journaled but not yet in a closed window (cluster only).
    pub in_flight: u64,
    /// Times a producer blocked on a full shard queue (0 for the
    /// cluster, whose node handles are private).
    pub backpressure_waits: u64,
}

impl Conservation {
    /// `ingested == delivered + dropped + quarantined + in_flight`.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.ingested == self.delivered + self.dropped + self.quarantined + self.in_flight
    }
}

/// One TCP connection into the daemon, speaking its wire format in
/// both directions.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    binary: bool,
    /// The flush control frame, encoded once.
    flush_frame: Vec<u8>,
    decoder: WireDecoder,
    line: String,
}

impl Connection {
    fn open(handle: &IngestdHandle, binary: bool) -> io::Result<Self> {
        let addr = handle
            .ingest_addr()
            .ok_or_else(|| io::Error::other("ingress listener not bound"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let flush_frame = if binary {
            // A flush frame carries no strings, so it is independent of
            // the alert stream's string table.
            WireEncoder::new().encode(&Frame::Flush)
        } else {
            format!("{FLUSH_FRAME}\n").into_bytes()
        };
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            binary,
            flush_frame,
            decoder: WireDecoder::new(),
            line: String::new(),
        })
    }

    /// Sends the flush frame and blocks for its ack; returns the acked
    /// `(window, alerts)`.
    fn flush(&mut self) -> io::Result<(u64, u64)> {
        self.stream.write_all(&self.flush_frame)?;
        if self.binary {
            loop {
                let buf = self.reader.fill_buf()?;
                if buf.is_empty() {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                let consumed = buf.len();
                let frames = self.decoder.feed(buf);
                self.reader.consume(consumed);
                match frames.into_iter().next() {
                    None => {}
                    Some(Ok(Frame::Ack(AckFrame::Flush { window, alerts }))) => {
                        return Ok((window, alerts));
                    }
                    Some(other) => {
                        return Err(io::Error::other(format!("expected a flush ack: {other:?}")));
                    }
                }
            }
        }
        // The daemon writes an ack line as two segments, text then
        // newline, and Nagle holds the newline until the text is acked
        // — which a client blocked in `read_line` delays by 40 ms. The
        // ack is complete at its closing brace, so read to that; the
        // newline is skipped as whitespace before the next ack.
        self.line.clear();
        loop {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let end = buf.iter().position(|&b| b == b'}');
            let take = end.map_or(buf.len(), |at| at + 1);
            self.line.push_str(&String::from_utf8_lossy(&buf[..take]));
            self.reader.consume(take);
            if end.is_some() {
                break;
            }
        }
        parse_flush_ack(&self.line)
            .ok_or_else(|| io::Error::other(format!("expected a flush ack: {:?}", self.line)))
    }
}

/// Parses `{"ack":"flush","window":N,"alerts":M}`.
fn parse_flush_ack(line: &str) -> Option<(u64, u64)> {
    let field = |key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    };
    line.contains(r#""ack":"flush""#)
        .then(|| Some((field(r#""window":"#)?, field(r#""alerts":"#)?)))?
}

/// How to respawn the cluster over the log it wrote.
#[derive(Clone)]
pub struct ClusterSpec {
    config: ClusterConfig,
    catalog: Vec<AlertStrategy>,
    factory: GovernorFactory,
}

impl std::fmt::Debug for ClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSpec")
            .field("wal_root", &self.config.wal_root)
            .finish_non_exhaustive()
    }
}

impl ClusterSpec {
    /// Spawns (or restarts) the cluster over its WAL root.
    ///
    /// # Errors
    ///
    /// Spawn and replay failures pass through.
    pub fn spawn(&self) -> io::Result<AlertCluster> {
        AlertCluster::spawn(
            self.config.clone(),
            self.catalog.clone(),
            Arc::clone(&self.factory),
        )
    }

    /// Where node `node` keeps its log.
    #[must_use]
    pub fn wal_dir(&self, node: usize) -> PathBuf {
        self.config.wal_root.join(format!("node-{node}"))
    }
}

/// A running system under test.
#[derive(Debug)]
pub enum Sut {
    /// A daemon behind one TCP connection.
    Tcp {
        /// The daemon.
        handle: IngestdHandle,
        /// The generator's connection.
        conn: Box<Connection>,
    },
    /// A daemon called directly.
    InProcess {
        /// The daemon.
        handle: IngestdHandle,
    },
    /// A 2-node cluster called directly.
    Cluster {
        /// The cluster.
        cluster: Box<AlertCluster>,
        /// How to restart it over the same log.
        spec: ClusterSpec,
    },
}

fn daemon_config(world: &World, shards: usize) -> IngestdConfig {
    IngestdConfig {
        shards,
        queue_capacity: QUEUE_CAPACITY,
        tick: None,
        overflow: OverflowPolicy::Block,
        streaming: world.streaming.clone(),
        metrics: true,
        ..IngestdConfig::default()
    }
}

impl Sut {
    /// Spawns the system for `transport` over `world`. The cluster
    /// journals under `scratch/wal`.
    ///
    /// # Errors
    ///
    /// Spawn, bind and connect failures pass through.
    pub fn spawn(transport: Transport, world: &World, scratch: &Path) -> io::Result<Self> {
        let spawn_daemon = |config: &IngestdConfig| {
            Ingestd::spawn(config, |shard, shards| {
                world.governor(shard_catalog(&world.strategies, shards, shard))
            })
        };
        match transport {
            Transport::TcpBinary | Transport::TcpNdjson => {
                let binary = transport == Transport::TcpBinary;
                let handle = spawn_daemon(&IngestdConfig {
                    listen: Some("127.0.0.1:0".to_owned()),
                    wire: if binary {
                        WireFormat::Binary
                    } else {
                        WireFormat::Ndjson
                    },
                    ..daemon_config(world, 2)
                })?;
                let conn = Box::new(Connection::open(&handle, binary)?);
                Ok(Self::Tcp { handle, conn })
            }
            Transport::InProcess => Ok(Self::InProcess {
                handle: spawn_daemon(&daemon_config(world, 2))?,
            }),
            Transport::Cluster => {
                let factory_world = world.clone();
                let spec = ClusterSpec {
                    config: ClusterConfig {
                        nodes: 2,
                        node: daemon_config(world, 1),
                        wal_root: scratch.join("wal"),
                        wal_format: WalFormat::V2Binary,
                    },
                    catalog: world.strategies.clone(),
                    factory: Arc::new(move |catalog: &[AlertStrategy]| {
                        factory_world.governor(catalog.to_vec())
                    }),
                };
                Ok(Self::Cluster {
                    cluster: Box::new(spec.spawn()?),
                    spec,
                })
            }
        }
    }

    /// Hands one window over and closes it. The three instants bracket
    /// exactly the busy time of the window; when tracing, the two
    /// calls are recorded as spans under `parent` from those same
    /// instants.
    ///
    /// # Errors
    ///
    /// Socket and WAL failures pass through; a missing or mismatched
    /// ack is an error.
    pub fn drive(
        &mut self,
        window: &mut Prepared,
        tracer: &mut Tracer,
        parent: u32,
    ) -> io::Result<Closed> {
        let depth_of = |handle: &IngestdHandle| {
            handle
                .counters()
                .queue_depths
                .into_iter()
                .max()
                .unwrap_or(0)
        };
        let mut queue_depth = 0;
        let (names, first_byte, last_alert, ack, snapshot) = match self {
            Self::Tcp { handle, conn } => {
                let first_byte = Instant::now();
                conn.stream.write_all(&window.bytes)?;
                let last_alert = Instant::now();
                if tracer.enabled() {
                    queue_depth = depth_of(handle);
                }
                let (_, alerts) = conn.flush()?;
                let ack = Instant::now();
                if alerts != window.count {
                    return Err(io::Error::other(format!(
                        "window {} acked {alerts} of {} alerts",
                        window.index, window.count
                    )));
                }
                let snapshot = handle
                    .latest_snapshot()
                    .ok_or_else(|| io::Error::other("flush published no snapshot"))?;
                (
                    ("ingestd.send", "ingestd.ack_wait"),
                    first_byte,
                    last_alert,
                    ack,
                    snapshot,
                )
            }
            Self::InProcess { handle } => {
                let labels = std::mem::take(&mut window.labels);
                let first_byte = Instant::now();
                for alert in window.alerts.drain(..) {
                    handle.route(alert);
                }
                let last_alert = Instant::now();
                if tracer.enabled() {
                    queue_depth = depth_of(handle);
                }
                let closed = handle
                    .flush_window_labeled(labels)
                    .ok_or_else(|| io::Error::other("flush yielded no window"))?;
                let ack = Instant::now();
                (
                    ("ingestd.route", "ingestd.flush"),
                    first_byte,
                    last_alert,
                    ack,
                    closed.snapshot,
                )
            }
            Self::Cluster { cluster, .. } => {
                let labels = std::mem::take(&mut window.labels);
                let first_byte = Instant::now();
                for alert in window.alerts.drain(..) {
                    cluster.route(alert)?;
                }
                let last_alert = Instant::now();
                let snapshot = cluster.close_window_labeled(labels)?;
                let ack = Instant::now();
                (
                    ("cluster.route", "cluster.close"),
                    first_byte,
                    last_alert,
                    ack,
                    snapshot,
                )
            }
        };
        tracer.record(names.0, parent, window.index, first_byte, last_alert);
        tracer.record(names.1, parent, window.index, last_alert, ack);
        Ok(Closed {
            first_byte,
            last_alert,
            ack,
            snapshot,
            queue_depth,
        })
    }

    /// The conservation counters, on one shape for every variant.
    #[must_use]
    pub fn conservation(&self) -> Conservation {
        match self {
            Self::Tcp { handle, .. } | Self::InProcess { handle } => {
                let c = handle.counters();
                Conservation {
                    ingested: c.ingested,
                    delivered: c.delivered,
                    dropped: c.dropped,
                    quarantined: c.quarantined(),
                    in_flight: 0,
                    backpressure_waits: c.backpressure_waits,
                }
            }
            Self::Cluster { cluster, .. } => {
                let c = cluster.counters();
                Conservation {
                    ingested: c.ingested,
                    delivered: c.delivered,
                    dropped: c.dropped,
                    quarantined: c.quarantined,
                    in_flight: c.in_flight,
                    backpressure_waits: 0,
                }
            }
        }
    }

    /// The system's Prometheus exposition.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        match self {
            Self::Tcp { handle, .. } | Self::InProcess { handle } => handle.render_metrics(),
            Self::Cluster { cluster, .. } => cluster.render_metrics(),
        }
    }

    /// The daemon-level exposition (barrier, merge and shard-close
    /// histograms), where the variant holds a daemon handle of its
    /// own; the cluster's node handles are private.
    #[must_use]
    pub fn daemon_exposition(&self) -> Option<String> {
        (!matches!(self, Self::Cluster { .. })).then(|| self.render_metrics())
    }

    /// Whole-cluster restart over the log the run wrote: shuts the
    /// cluster down, respawns it from its WAL, and reports whether the
    /// QoA model digest and the window sequence survived. Systems
    /// without a log pass through untouched.
    ///
    /// # Errors
    ///
    /// Replay and spawn failures pass through.
    pub fn restart(self) -> io::Result<(Self, bool)> {
        let Self::Cluster { cluster, spec } = self else {
            return Ok((self, true));
        };
        let before = (cluster.qoa_model_digest(), cluster.next_window_seq());
        cluster.shutdown();
        let cluster = Box::new(spec.spawn()?);
        let same = (cluster.qoa_model_digest(), cluster.next_window_seq()) == before;
        Ok((Self::Cluster { cluster, spec }, same))
    }

    /// Stops the system and joins its threads. The cluster's WAL stays
    /// on disk.
    pub fn shutdown(self) {
        match self {
            Self::Tcp { handle, conn } => {
                // The connection thread exits on EOF; close our end
                // first so shutdown does not leave it detached.
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                drop(conn);
                handle.shutdown();
            }
            Self::InProcess { handle } => handle.shutdown(),
            Self::Cluster { cluster, .. } => cluster.shutdown(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_ack_lines_parse() {
        assert_eq!(
            parse_flush_ack(r#"{"ack":"flush","window":12,"alerts":345}"#),
            Some((12, 345))
        );
        assert_eq!(parse_flush_ack(r#"{"ack":"sync"}"#), None);
        assert_eq!(parse_flush_ack("garbage"), None);
    }

    #[test]
    fn conservation_law_counts_in_flight() {
        let mut c = Conservation {
            ingested: 10,
            delivered: 6,
            dropped: 1,
            quarantined: 1,
            in_flight: 2,
            backpressure_waits: 0,
        };
        assert!(c.holds());
        c.in_flight = 1;
        assert!(!c.holds());
    }
}
