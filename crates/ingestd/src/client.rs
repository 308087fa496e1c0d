//! The ingress client: the one place that speaks the daemon's TCP
//! protocol from the producer side, in either encoding.
//!
//! Callers deal in `alertops-wire` [`Frame`]s and [`AckFrame`]s only;
//! which bytes travel — NDJSON lines ([`crate::codec`]) or binary
//! frames — is fixed at [`IngressClient::connect`] and must match the
//! daemon's [`crate::IngestdConfig::wire`]. The connection speaks one
//! encoding in both directions.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use alertops_model::Alert;
use alertops_wire::{AckFrame, Frame, WireDecoder, WireEncoder, WireFormat};

use crate::codec::{frame_line, parse_ack_line, write_alert_line};

/// One open ingress connection into a live daemon.
#[derive(Debug)]
pub struct IngressClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    wire: WireFormat,
    /// Binary mode only: the connection-scoped string table.
    encoder: WireEncoder,
    /// Binary mode only: decodes the daemon's binary ack frames (its
    /// write half runs an independent encoder).
    decoder: WireDecoder,
    /// Binary mode only: reusable frame scratch.
    scratch: Vec<u8>,
    /// NDJSON mode only: reusable line scratch, for alert lines out
    /// and ack lines in.
    line: String,
}

impl IngressClient {
    /// Connects to a daemon listening on `addr` that was spawned with
    /// the same `wire` format.
    ///
    /// # Errors
    ///
    /// Socket errors pass through.
    pub fn connect(addr: impl ToSocketAddrs, wire: WireFormat) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
            wire,
            encoder: WireEncoder::new(),
            decoder: WireDecoder::new(),
            scratch: Vec::new(),
            line: String::new(),
        })
    }

    /// Streams `alerts` (buffered; flushed to the socket at the end so
    /// the daemon sees the whole batch promptly).
    ///
    /// # Errors
    ///
    /// Socket errors pass through.
    pub fn send_alerts(&mut self, alerts: &[Alert]) -> io::Result<()> {
        match self.wire {
            WireFormat::Ndjson => {
                for alert in alerts {
                    self.line.clear();
                    write_alert_line(alert, &mut self.line);
                    self.line.push('\n');
                    self.writer.write_all(self.line.as_bytes())?;
                }
            }
            WireFormat::Binary => {
                for alert in alerts {
                    self.scratch.clear();
                    self.encoder.encode_alert_into(alert, &mut self.scratch);
                    self.writer.write_all(&self.scratch)?;
                }
            }
        }
        self.writer.flush()
    }

    /// Sends one frame the daemon does not acknowledge (the chaos
    /// `panic` and `resume` verbs) and flushes it to the socket.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a frame kind that is not
    /// ingress traffic on this connection's encoding; socket errors
    /// pass through.
    pub fn post(&mut self, frame: &Frame) -> io::Result<()> {
        match self.wire {
            WireFormat::Ndjson => {
                let line = frame_line(frame).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("{frame:?} has no NDJSON line"),
                    )
                })?;
                writeln!(self.writer, "{line}")?;
            }
            WireFormat::Binary => {
                self.scratch.clear();
                self.encoder.encode_into(frame, &mut self.scratch);
                self.writer.write_all(&self.scratch)?;
            }
        }
        self.writer.flush()
    }

    /// Sends one acknowledged frame (`Flush`, `Sync`, `Shutdown`, the
    /// chaos `Stall`) and waits for the daemon's answer. The ingest
    /// protocol is lock-step — one ack per such frame, nothing
    /// unsolicited — so the next thing on the read half is that ack.
    ///
    /// # Errors
    ///
    /// As [`post`](Self::post); [`io::ErrorKind::UnexpectedEof`] if the
    /// daemon closed the connection before acknowledging;
    /// [`io::ErrorKind::InvalidData`] if what came back is not an ack.
    pub fn request(&mut self, frame: &Frame) -> io::Result<AckFrame> {
        self.post(frame)?;
        let closed = || {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before acknowledging",
            )
        };
        let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        match self.wire {
            WireFormat::Ndjson => {
                self.line.clear();
                if self.reader.read_line(&mut self.line)? == 0 {
                    return Err(closed());
                }
                parse_ack_line(&self.line)
                    .ok_or_else(|| invalid(format!("expected an ack line, got {:?}", self.line)))
            }
            WireFormat::Binary => loop {
                let buf = self.reader.fill_buf()?;
                if buf.is_empty() {
                    return Err(closed());
                }
                let consumed = buf.len();
                let frames = self.decoder.feed(buf);
                self.reader.consume(consumed);
                match frames.into_iter().next() {
                    None => {}
                    Some(Ok(Frame::Ack(ack))) => return Ok(ack),
                    Some(other) => {
                        return Err(invalid(format!("expected an ack frame, got {other:?}")))
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ingestd, IngestdConfig};
    use alertops_core::{AlertGovernor, GovernorConfig, StreamingConfig, StreamingGovernor};
    use alertops_wire::ChaosCmd;

    /// The control verbs travel and answer identically in both
    /// encodings: acked ones through `request`, un-acked ones through
    /// `post`, and a frame kind that is not ingress traffic is refused
    /// before it reaches the socket where the encoding cannot carry it.
    #[test]
    fn control_verbs_roundtrip_in_both_encodings() {
        for wire in [WireFormat::Ndjson, WireFormat::Binary] {
            let config = IngestdConfig {
                shards: 2,
                listen: Some("127.0.0.1:0".to_owned()),
                wire,
                chaos: true,
                ..IngestdConfig::default()
            };
            let handle = Ingestd::spawn(&config, |_, _| {
                StreamingGovernor::new(
                    AlertGovernor::new(Vec::new(), GovernorConfig::default()),
                    StreamingConfig::default(),
                )
            })
            .expect("daemon starts");
            let addr = handle.ingest_addr().expect("ingress bound");
            let mut client = IngressClient::connect(addr, wire).expect("connect");

            let stall = Frame::Chaos(ChaosCmd::Stall { shard: 1 });
            assert_eq!(
                client.request(&stall).expect("stall acked"),
                AckFrame::Stall { shard: 1 },
                "{wire}"
            );
            client
                .post(&Frame::Chaos(ChaosCmd::Resume { shard: 1 }))
                .expect("resume sent");
            // Sync only answers once the resumed shard drains.
            assert_eq!(
                client.request(&Frame::Sync).expect("sync acked"),
                AckFrame::Sync
            );
            assert_eq!(
                client.request(&Frame::Flush).expect("flush acked"),
                AckFrame::Flush {
                    window: 0,
                    alerts: 0
                }
            );
            if wire == WireFormat::Ndjson {
                let err = client.post(&Frame::Boundary { window: 0 }).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            }
            assert_eq!(
                client.request(&Frame::Shutdown).expect("shutdown acked"),
                AckFrame::Shutdown
            );
            assert_eq!(handle.counters().decode_errors, 0, "{wire}");
            drop(client);
            handle.shutdown();
        }
    }
}
