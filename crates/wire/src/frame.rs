//! Frame types and their payload bodies.
//!
//! A payload is `[tag: u8][body]`; this module owns the tag space and
//! the per-tag body layouts. Bodies use [`varint`]
//! integers and table-backed strings (see [`codec`](crate::codec) for
//! the marker bytes). [`codec::WireEncoder`](crate::WireEncoder) and
//! [`codec::WireDecoder`](crate::WireDecoder) add the outer
//! length+CRC framing around what is encoded here.

use alertops_model::{
    Alert, AlertId, AlertState, Clearance, IStr, Location, MicroserviceId, Severity, SimDuration,
    SimTime, StrategyId,
};

use crate::codec::WireError;
use crate::table::{DecodeTable, EncodeTable, Slot};
use crate::varint;

/// Payload tag: an alert record.
pub(crate) const TAG_ALERT: u8 = 1;
/// Payload tag: a WAL window boundary.
pub(crate) const TAG_BOUNDARY: u8 = 2;
/// Payload tag: a chaos fault-injection command.
pub(crate) const TAG_CHAOS: u8 = 3;
// Tag 4 is retired and stays unassigned, so a frame from an old
// producer is rejected as malformed rather than misread.
/// Payload tag: close the current window.
pub(crate) const TAG_FLUSH: u8 = 5;
/// Payload tag: stop the daemon.
pub(crate) const TAG_SHUTDOWN: u8 = 6;
/// Payload tag: drain barrier.
pub(crate) const TAG_SYNC: u8 = 7;
/// Payload tag: a daemon→client acknowledgement.
pub(crate) const TAG_ACK: u8 = 8;
/// Payload tag: an opaque QoA model checkpoint (the merge point's
/// checkpoint file).
pub(crate) const TAG_QOA_STATE: u8 = 9;

/// String marker: literal, registered in the table (assigns the next
/// dense id on both ends).
const STR_LITERAL: u8 = 0x00;
/// String marker: back-reference to a previously assigned id.
const STR_BACKREF: u8 = 0x01;
/// String marker: literal that did *not* register (the encoder's
/// table was at a cap), so it assigns no id.
const STR_UNCACHED: u8 = 0x02;

/// One decoded binary frame. The superset of the NDJSON protocol's
/// line frames: ingress uses `Alert`/`Flush`/`Shutdown`/`Sync`/
/// `Chaos`, the WAL adds `Boundary`, the merge point's checkpoint
/// file is one `QoaState`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// An alert record.
    Alert(Box<Alert>),
    /// The window with this cluster sequence number closed; in a WAL
    /// segment this seals the segment it ends.
    Boundary {
        /// The merge point's window sequence number.
        window: u64,
    },
    /// Chaos fault injection, gated exactly like the NDJSON chaos
    /// verbs.
    Chaos(ChaosCmd),
    /// Close the current window across all shards now.
    Flush,
    /// Stop the daemon.
    Shutdown,
    /// Drain every shard queue, then ack.
    Sync,
    /// A daemon→client acknowledgement. On a binary connection acks
    /// travel as frames, mirroring the NDJSON `{"ack":...}` lines.
    Ack(AckFrame),
    /// An opaque QoA model checkpoint (`QoaCheckpoint::to_bytes`
    /// bytes). The wire layer does not interpret the body — the merge
    /// point writes it as its checkpoint file at every window close so
    /// a restart resumes the online model at identical weights.
    QoaState(Vec<u8>),
}

/// The body of a daemon→client [`Frame::Ack`]. Each variant mirrors
/// one NDJSON ack line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckFrame {
    /// `{"ack":"flush","window":N,"alerts":M}` — a window closed.
    Flush {
        /// Index of the window that closed.
        window: u64,
        /// Alerts governed in that window.
        alerts: u64,
    },
    /// `{"ack":"sync"}` — every shard queue drained.
    Sync,
    /// `{"ack":"shutdown"}` — daemon is stopping.
    Shutdown,
    /// `{"ack":"stall","shard":N}` — chaos stall took effect.
    Stall {
        /// The stalled shard.
        shard: usize,
    },
}

/// A chaos fault-injection command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosCmd {
    /// Panic the shard's worker (at this queue position, or during its
    /// next window close).
    Panic {
        /// Target shard.
        shard: usize,
        /// Panic inside the next close instead of immediately.
        on_close: bool,
    },
    /// Park the shard's worker until resumed.
    Stall {
        /// Target shard.
        shard: usize,
    },
    /// Unpark a stalled worker.
    Resume {
        /// Target shard.
        shard: usize,
    },
}

/// A read cursor over one payload's bytes.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let byte = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| WireError::malformed("payload ends mid-field"))?;
        self.pos += 1;
        Ok(byte)
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let (value, used) = varint::decode(&self.bytes[self.pos..])
            .ok_or_else(|| WireError::malformed("bad varint"))?;
        self.pos += used;
        Ok(value)
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(WireError::malformed("payload ends mid-field"));
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.varint()?).map_err(|_| WireError::malformed("count overflows usize"))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::malformed(format!("bad bool byte {other:#04x}"))),
        }
    }

    /// Decodes one table-backed string into its handle.
    fn str(&mut self, table: &mut DecodeTable) -> Result<IStr, WireError> {
        match self.u8()? {
            STR_BACKREF => {
                let id = u32::try_from(self.varint()?)
                    .map_err(|_| WireError::malformed("back-reference id overflows u32"))?;
                table
                    .resolve(id)
                    .cloned()
                    .ok_or_else(|| WireError::malformed(format!("unassigned back-reference {id}")))
            }
            marker @ (STR_LITERAL | STR_UNCACHED) => {
                let len = self.usize()?;
                let bytes = self.take(len)?;
                let text = std::str::from_utf8(bytes)
                    .map_err(|_| WireError::malformed("string literal is not UTF-8"))?;
                if marker == STR_LITERAL {
                    // Takes the next id, mirroring the encoder's
                    // assignment.
                    Ok(table.register(text))
                } else {
                    Ok(alertops_model::intern(text))
                }
            }
            other => Err(WireError::malformed(format!(
                "bad string marker {other:#04x}"
            ))),
        }
    }
}

/// Appends one table-backed string: a back-reference when the table
/// already assigned `s` an id, a registering literal on first sight,
/// an unregistered literal when the table is at a cap.
fn encode_str(s: &IStr, table: &mut EncodeTable, out: &mut Vec<u8>) {
    let marker = match table.slot(s) {
        Slot::Known(id) => {
            out.push(STR_BACKREF);
            varint::encode(u64::from(id), out);
            return;
        }
        Slot::Registered => STR_LITERAL,
        Slot::Uncached => STR_UNCACHED,
    };
    out.push(marker);
    varint::encode(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

fn encode_alert_body(alert: &Alert, table: &mut EncodeTable, out: &mut Vec<u8>) {
    varint::encode(alert.id().value(), out);
    varint::encode(alert.strategy().value(), out);
    encode_str(alert.title_interned(), table, out);
    out.push(alert.severity().rank());
    encode_str(alert.service_name_interned(), table, out);
    varint::encode(alert.microservice().value(), out);
    let location = alert.location();
    encode_str(&location.region().0, table, out);
    encode_str(location.dc_interned(), table, out);
    match location.instance_interned() {
        Some(instance) => {
            out.push(1);
            encode_str(instance, table, out);
        }
        None => out.push(0),
    }
    varint::encode(alert.raised_at().as_secs(), out);
    match alert.state() {
        AlertState::Active => out.push(0),
        AlertState::Cleared { at, by } => {
            out.push(1);
            varint::encode(at.as_secs(), out);
            out.push(match by {
                Clearance::Manual => 0,
                Clearance::Auto => 1,
            });
        }
    }
    match alert.processing_time() {
        Some(time) => {
            out.push(1);
            varint::encode(time.as_secs(), out);
        }
        None => out.push(0),
    }
}

fn decode_alert_body(cursor: &mut Cursor<'_>, table: &mut DecodeTable) -> Result<Alert, WireError> {
    let id = AlertId(cursor.varint()?);
    let strategy = StrategyId(cursor.varint()?);
    let title = cursor.str(table)?;
    let severity = Severity::from_rank(cursor.u8()?)
        .ok_or_else(|| WireError::malformed("bad severity rank"))?;
    let service = cursor.str(table)?;
    let microservice = MicroserviceId(cursor.varint()?);
    let region = cursor.str(table)?;
    let dc = cursor.str(table)?;
    let mut location = Location::new(region, dc);
    if cursor.bool()? {
        location = location.with_instance(cursor.str(table)?);
    }
    let raised_at = SimTime::from_secs(cursor.varint()?);
    let mut alert = Alert::builder(id, strategy)
        .title(title)
        .severity(severity)
        .service(service)
        .microservice(microservice)
        .location(location)
        .raised_at(raised_at)
        .build();
    if cursor.bool()? {
        let at = SimTime::from_secs(cursor.varint()?);
        let by = match cursor.u8()? {
            0 => Clearance::Manual,
            1 => Clearance::Auto,
            other => {
                return Err(WireError::malformed(format!(
                    "bad clearance byte {other:#04x}"
                )))
            }
        };
        alert
            .clear(at, by)
            .map_err(|e| WireError::malformed(format!("bad clearance: {e}")))?;
    }
    if cursor.bool()? {
        alert.record_processing_time(SimDuration::from_secs(cursor.varint()?));
    }
    Ok(alert)
}

fn encode_chaos_body(cmd: &ChaosCmd, out: &mut Vec<u8>) {
    match *cmd {
        ChaosCmd::Panic { shard, on_close } => {
            out.push(1);
            varint::encode(shard as u64, out);
            out.push(u8::from(on_close));
        }
        ChaosCmd::Stall { shard } => {
            out.push(2);
            varint::encode(shard as u64, out);
        }
        ChaosCmd::Resume { shard } => {
            out.push(3);
            varint::encode(shard as u64, out);
        }
    }
}

fn encode_ack_body(ack: &AckFrame, out: &mut Vec<u8>) {
    match *ack {
        AckFrame::Flush { window, alerts } => {
            out.push(1);
            varint::encode(window, out);
            varint::encode(alerts, out);
        }
        AckFrame::Sync => out.push(2),
        AckFrame::Shutdown => out.push(3),
        AckFrame::Stall { shard } => {
            out.push(4);
            varint::encode(shard as u64, out);
        }
    }
}

fn decode_ack_body(cursor: &mut Cursor<'_>) -> Result<AckFrame, WireError> {
    match cursor.u8()? {
        1 => Ok(AckFrame::Flush {
            window: cursor.varint()?,
            alerts: cursor.varint()?,
        }),
        2 => Ok(AckFrame::Sync),
        3 => Ok(AckFrame::Shutdown),
        4 => Ok(AckFrame::Stall {
            shard: cursor.usize()?,
        }),
        other => Err(WireError::malformed(format!(
            "bad ack sub-tag {other:#04x}"
        ))),
    }
}

fn decode_chaos_body(cursor: &mut Cursor<'_>) -> Result<ChaosCmd, WireError> {
    let sub = cursor.u8()?;
    let shard = cursor.usize()?;
    match sub {
        1 => Ok(ChaosCmd::Panic {
            shard,
            on_close: cursor.bool()?,
        }),
        2 => Ok(ChaosCmd::Stall { shard }),
        3 => Ok(ChaosCmd::Resume { shard }),
        other => Err(WireError::malformed(format!(
            "bad chaos sub-tag {other:#04x}"
        ))),
    }
}

/// Appends an alert payload (`[TAG_ALERT][body]`) without requiring
/// the alert to be boxed into a [`Frame`] first — the WAL's
/// per-append hot path.
pub(crate) fn encode_alert_payload(alert: &Alert, table: &mut EncodeTable, out: &mut Vec<u8>) {
    out.push(TAG_ALERT);
    encode_alert_body(alert, table, out);
}

/// Appends `frame`'s payload (`[tag][body]`, no outer framing) to
/// `out`, assigning string ids through `table`.
pub(crate) fn encode_payload(frame: &Frame, table: &mut EncodeTable, out: &mut Vec<u8>) {
    match frame {
        Frame::Alert(alert) => {
            out.push(TAG_ALERT);
            encode_alert_body(alert, table, out);
        }
        Frame::Boundary { window } => {
            out.push(TAG_BOUNDARY);
            varint::encode(*window, out);
        }
        Frame::Chaos(cmd) => {
            out.push(TAG_CHAOS);
            encode_chaos_body(cmd, out);
        }
        Frame::Flush => out.push(TAG_FLUSH),
        Frame::Shutdown => out.push(TAG_SHUTDOWN),
        Frame::Sync => out.push(TAG_SYNC),
        Frame::Ack(ack) => {
            out.push(TAG_ACK);
            encode_ack_body(ack, out);
        }
        Frame::QoaState(bytes) => {
            out.push(TAG_QOA_STATE);
            varint::encode(bytes.len() as u64, out);
            out.extend_from_slice(bytes);
        }
    }
}

/// Decodes one payload back into its frame. The whole payload must be
/// consumed — trailing bytes mean a layout mismatch, not padding.
pub(crate) fn decode_payload(bytes: &[u8], table: &mut DecodeTable) -> Result<Frame, WireError> {
    let mut cursor = Cursor::new(bytes);
    let frame = match cursor.u8()? {
        TAG_ALERT => Frame::Alert(Box::new(decode_alert_body(&mut cursor, table)?)),
        TAG_BOUNDARY => Frame::Boundary {
            window: cursor.varint()?,
        },
        TAG_CHAOS => Frame::Chaos(decode_chaos_body(&mut cursor)?),
        TAG_FLUSH => Frame::Flush,
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_SYNC => Frame::Sync,
        TAG_ACK => Frame::Ack(decode_ack_body(&mut cursor)?),
        TAG_QOA_STATE => {
            let len = cursor.usize()?;
            Frame::QoaState(cursor.take(len)?.to_vec())
        }
        other => return Err(WireError::malformed(format!("bad frame tag {other:#04x}"))),
    };
    if cursor.remaining() != 0 {
        return Err(WireError::malformed(format!(
            "{} trailing bytes after payload",
            cursor.remaining()
        )));
    }
    Ok(frame)
}
