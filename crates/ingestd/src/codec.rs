//! The NDJSON wire encoding: a line ⇄ [`Frame`] adapter.
//!
//! The frame vocabulary is `alertops-wire`'s — [`Frame`], [`AckFrame`],
//! [`ChaosCmd`] — and this module is only its text rendering: past
//! [`FrameDecoder`] (daemon side) or [`parse_ack_line`] (client side)
//! nothing knows which encoding a connection speaks.
//!
//! One frame per line. A line is either an [`Alert`] serialized as a
//! JSON object, or a control frame `{"ctrl": "..."}`:
//!
//! - `{"ctrl":"flush"}` — close the current window across all shards
//!   now. The daemon replies on the same connection with
//!   `{"ack":"flush","window":N,"alerts":M}` once the merged snapshot
//!   is published, which is what makes replay deterministic.
//! - `{"ctrl":"shutdown"}` — request daemon shutdown (acked with
//!   `{"ack":"shutdown"}` before the socket closes).
//! - `{"ctrl":"sync"}` — barrier: acked (`{"ack":"sync"}`) only after
//!   every shard queue has fully drained. Producers use it to pace
//!   bursts deterministically.
//!
//! With chaos mode enabled ([`crate::IngestdConfig::chaos`]) three
//! fault-injection frames are also accepted (and quarantined as
//! unknown controls otherwise):
//!
//! - `{"ctrl":"panic","shard":N}` — the shard's worker panics at that
//!   point in its queue (add `"on_close":true` to panic mid-close
//!   instead, after detection has already mutated governor state);
//! - `{"ctrl":"stall","shard":N}` — park the shard's worker (acked
//!   with `{"ack":"stall","shard":N}` once it is parked and its queue
//!   drained);
//! - `{"ctrl":"resume","shard":N}` — unpark a stalled worker.
//!
//! Blank lines are ignored. Malformed lines are *quarantined*: counted
//! per [`QuarantineReason`] (with [`crate::CounterSnapshot::decode_errors`]
//! as the total) and skipped — one bad producer must not poison the
//! stream. [`FrameDecoder`] performs the byte-level framing: it
//! carries partial lines across reads, quarantines frames cut short by
//! a dropped connection, and sheds lines that exceed
//! [`MAX_FRAME_LEN`] without buffering them.
//!
//! # The alert line
//!
//! An alert line is written in one fixed layout, the one
//! `serde_json::to_string(&Alert)` produces:
//!
//! ```text
//! {"id":N,"strategy":N,"title":S,"severity":"warning|minor|major|critical",
//!  "service_name":S,"microservice":N,"location":{"region":S,"dc":S,"instance":S|null},
//!  "raised_at":N,"state":"active"|{"cleared":{"at":N,"by":"manual|auto"}},
//!  "processing_time":N|null}
//! ```
//!
//! (one line on the wire, with no whitespace). The layout is declared
//! once, as `ALERT_LINE`'s key literals and field kinds, and both
//! halves of the codec walk that one declaration:
//! [`write_alert_line`] appends it with no intermediate JSON tree, and
//! [`scan_alert`] matches it in one pass, borrowing each string from
//! the line, interning it straight into an `IStr`, and parsing each
//! integer in place.
//!
//! Decoding an ingress line therefore tries [`scan_alert`] first. The
//! scanner defers (returns `None`) on anything outside the template:
//! an escape or control byte inside a string, a different key order,
//! a missing, extra or duplicate key, a sign, fraction, exponent,
//! leading zero or overflow in a number, whitespace between tokens,
//! trailing bytes, and a clearance earlier than the raise (which
//! `Alert::clear` rejects but the derived deserializer accepts). A
//! deferred line takes the classifying path: it is parsed once into a
//! `serde_json::Value`, an object with a `ctrl` key is a control frame,
//! and anything else is deserialized as an [`Alert`] from that value.
//! Every line the scanner takes decodes to exactly the alert the
//! classifying path would produce, and every line it defers keeps that
//! path's verdict and quarantine detail, so the scanner only changes
//! what decoding costs.

use std::fmt::{self, Write as _};

use alertops_model::{Alert, Clearance, Location, Severity, SimDuration, SimTime};
use alertops_wire::{AckFrame, ChaosCmd, Frame};

pub use alertops_wire::MAX_FRAME_LEN;

/// The flush control frame, exactly as it appears on the wire.
pub const FLUSH_FRAME: &str = r#"{"ctrl":"flush"}"#;

/// The shutdown control frame, exactly as it appears on the wire.
pub const SHUTDOWN_FRAME: &str = r#"{"ctrl":"shutdown"}"#;

/// The sync (full queue drain) control frame.
pub const SYNC_FRAME: &str = r#"{"ctrl":"sync"}"#;

/// Why a quarantined line was rejected. Each reason has its own
/// counter on the status socket, so an operator can tell a buggy
/// serializer (`invalid_alert`) from line noise (`invalid_utf8`) from
/// a protocol-version skew (`unknown_control`) at a glance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarantineReason {
    /// The line is not valid JSON (includes frames truncated by a
    /// connection reset).
    InvalidJson,
    /// The line is not valid UTF-8.
    InvalidUtf8,
    /// A `ctrl` frame with an unknown or malformed verb — including
    /// chaos verbs when chaos mode is off and shard targets out of
    /// range.
    UnknownControl,
    /// Valid JSON, but not an alert record.
    InvalidAlert,
    /// The line exceeded [`MAX_FRAME_LEN`].
    Oversized,
    /// A binary-ingress frame failed CRC or framing validation
    /// (`--wire binary` connections only). Terminal for its
    /// connection: a binary stream cannot resync past a bad length
    /// prefix, so the daemon quarantines the frame and closes.
    CorruptFrame,
}

impl QuarantineReason {
    /// All reasons, in counter order.
    pub const ALL: [QuarantineReason; 6] = [
        QuarantineReason::InvalidJson,
        QuarantineReason::InvalidUtf8,
        QuarantineReason::UnknownControl,
        QuarantineReason::InvalidAlert,
        QuarantineReason::Oversized,
        QuarantineReason::CorruptFrame,
    ];

    /// The stable snake_case label used in counter names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            QuarantineReason::InvalidJson => "invalid_json",
            QuarantineReason::InvalidUtf8 => "invalid_utf8",
            QuarantineReason::UnknownControl => "unknown_control",
            QuarantineReason::InvalidAlert => "invalid_alert",
            QuarantineReason::Oversized => "oversized",
            QuarantineReason::CorruptFrame => "corrupt_frame",
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a line failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The line was empty or whitespace; callers skip these silently.
    Empty,
    /// A quarantinable line: counted by reason and skipped.
    Malformed {
        /// The quarantine bucket.
        reason: QuarantineReason,
        /// Human-readable diagnostics (never parsed).
        detail: String,
    },
}

impl FrameError {
    fn malformed(reason: QuarantineReason, detail: impl Into<String>) -> Self {
        FrameError::Malformed {
            reason,
            detail: detail.into(),
        }
    }

    /// The quarantine bucket this error counts under; `None` for a
    /// blank line, which is skipped rather than quarantined.
    #[must_use]
    pub fn reason(&self) -> Option<QuarantineReason> {
        match self {
            FrameError::Empty => None,
            FrameError::Malformed { reason, .. } => Some(*reason),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Empty => f.write_str("empty line"),
            FrameError::Malformed { reason, detail } => {
                write!(f, "malformed frame ({reason}): {detail}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

fn parse_control(value: &serde_json::Value) -> Result<Frame, FrameError> {
    let shard = || {
        value
            .get("shard")
            .and_then(serde_json::Value::as_u64)
            .and_then(|s| usize::try_from(s).ok())
            .ok_or_else(|| {
                FrameError::malformed(
                    QuarantineReason::UnknownControl,
                    "control frame requires a numeric \"shard\"",
                )
            })
    };
    match value.get("ctrl").and_then(serde_json::Value::as_str) {
        Some("flush") => Ok(Frame::Flush),
        Some("shutdown") => Ok(Frame::Shutdown),
        Some("sync") => Ok(Frame::Sync),
        Some("panic") => Ok(Frame::Chaos(ChaosCmd::Panic {
            shard: shard()?,
            on_close: value
                .get("on_close")
                .and_then(serde_json::Value::as_bool)
                .unwrap_or(false),
        })),
        Some("stall") => Ok(Frame::Chaos(ChaosCmd::Stall { shard: shard()? })),
        Some("resume") => Ok(Frame::Chaos(ChaosCmd::Resume { shard: shard()? })),
        other => Err(FrameError::malformed(
            QuarantineReason::UnknownControl,
            format!("unknown control verb {other:?}"),
        )),
    }
}

/// Decodes one line of ingress.
///
/// # Errors
///
/// [`FrameError::Empty`] for blank lines, [`FrameError::Malformed`]
/// (with a [`QuarantineReason`]) for anything that is neither a
/// control frame nor an alert.
pub fn parse_frame(line: &str) -> Result<Frame, FrameError> {
    let line = line.trim();
    if line.is_empty() {
        return Err(FrameError::Empty);
    }
    if let Some(alert) = scan_alert(line) {
        return Ok(Frame::Alert(Box::new(alert)));
    }
    let value: serde_json::Value = serde_json::from_str(line)
        .map_err(|e| FrameError::malformed(QuarantineReason::InvalidJson, e.to_string()))?;
    if value.get("ctrl").is_some() {
        return parse_control(&value);
    }
    <Alert as serde::Deserialize>::from_value(&value)
        .map(|alert| Frame::Alert(Box::new(alert)))
        .map_err(|e| FrameError::malformed(QuarantineReason::InvalidAlert, e.to_string()))
}

/// Incremental NDJSON framing over raw reads.
///
/// Feed it whatever byte chunks the socket produces — frames split
/// across reads are carried over, frames cut short by a dropped
/// connection surface from [`finish`](Self::finish) as quarantined
/// lines, and lines longer than [`MAX_FRAME_LEN`] are quarantined
/// once and then discarded bytewise instead of buffered.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    skipping: bool,
}

impl FrameDecoder {
    /// A fresh decoder with no buffered bytes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one read's worth of bytes, returning every frame (or
    /// quarantinable error) completed by it. Blank lines are dropped
    /// here, so [`FrameError::Empty`] is never returned.
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<Result<Frame, FrameError>> {
        let mut out = Vec::new();
        self.feed_into(bytes, &mut out);
        out
    }

    /// [`feed`](Self::feed) into a caller-owned scratch vector, so a
    /// read loop reuses one allocation for its whole connection
    /// instead of allocating a fresh `Vec` per socket read. `out` is
    /// cleared first.
    pub fn feed_into(&mut self, bytes: &[u8], out: &mut Vec<Result<Frame, FrameError>>) {
        out.clear();
        self.feed_with(bytes, |item| out.push(item));
    }

    /// [`feed`](Self::feed) handing each completed item to `sink` in
    /// stream order, so a caller can fold decoding into its own item
    /// type without an intermediate vector.
    pub fn feed_with(&mut self, bytes: &[u8], mut sink: impl FnMut(Result<Frame, FrameError>)) {
        let mut rest = bytes;
        while !rest.is_empty() {
            match rest.iter().position(|&b| b == b'\n') {
                Some(idx) => {
                    let (line_end, tail) = rest.split_at(idx);
                    rest = &tail[1..];
                    if self.skipping {
                        // The oversized line this byte run belongs to
                        // was already quarantined; its newline ends it.
                        self.skipping = false;
                    } else {
                        self.extend_checked(line_end, &mut sink);
                        if self.skipping {
                            self.skipping = false;
                        } else if let Some(item) = decode_line(&self.buf) {
                            sink(item);
                        }
                    }
                    self.buf.clear();
                }
                None => {
                    if !self.skipping {
                        self.extend_checked(rest, &mut sink);
                    }
                    rest = &[];
                }
            }
        }
    }

    /// Flushes the trailing unterminated line at end of stream, if
    /// any. A connection reset mid-frame lands here: the partial
    /// frame decodes (almost always to a quarantined
    /// [`QuarantineReason::InvalidJson`]) instead of vanishing.
    pub fn finish(&mut self) -> Option<Result<Frame, FrameError>> {
        if std::mem::take(&mut self.skipping) {
            self.buf.clear();
            return None; // already quarantined as oversized
        }
        let item = decode_line(&self.buf);
        self.buf.clear();
        item
    }

    fn extend_checked(&mut self, part: &[u8], sink: &mut impl FnMut(Result<Frame, FrameError>)) {
        if self.buf.len() + part.len() > MAX_FRAME_LEN {
            sink(Err(FrameError::malformed(
                QuarantineReason::Oversized,
                format!("frame exceeds {MAX_FRAME_LEN} bytes"),
            )));
            self.buf.clear();
            self.skipping = true;
        } else {
            self.buf.extend_from_slice(part);
        }
    }
}

fn decode_line(bytes: &[u8]) -> Option<Result<Frame, FrameError>> {
    match std::str::from_utf8(bytes) {
        Err(e) => Some(Err(FrameError::malformed(
            QuarantineReason::InvalidUtf8,
            e.to_string(),
        ))),
        Ok(text) => match parse_frame(text) {
            Err(FrameError::Empty) => None,
            other => Some(other),
        },
    }
}

/// Encodes one alert as a wire line (no trailing newline).
#[must_use]
pub fn encode_alert(alert: &Alert) -> String {
    let mut line = String::with_capacity(LINE_CAPACITY);
    write_alert_line(alert, &mut line);
    line
}

/// A capacity that holds a typical alert line without regrowing (the
/// soak world's lines run 300–340 bytes).
const LINE_CAPACITY: usize = 384;

/// One field of the alert line, in the order [`ALERT_LINE`] lists it.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// `u64`: the alert id.
    Id,
    /// `u64`: the strategy id.
    Strategy,
    /// String: the title.
    Title,
    /// One of [`SEVERITY_NAMES`], quoted.
    Severity,
    /// String: the service name.
    ServiceName,
    /// `u64`: the microservice id.
    Microservice,
    /// String: the location's region.
    Region,
    /// String: the location's data center.
    Dc,
    /// String or `null`: the location's instance.
    Instance,
    /// `u64`: the raise time, in seconds.
    RaisedAt,
    /// [`STATE_ACTIVE`], or the cleared object built from
    /// [`CLEARED_AT`], [`CLEARED_BY`] and [`CLEARED_END`].
    State,
    /// `u64` or `null`: the processing time, in seconds.
    ProcessingTime,
}

/// The alert line's layout: each field with the literal text that
/// precedes its value, in wire order, then [`ALERT_LINE_END`]. The
/// writer and the scanner both walk this one table.
const ALERT_LINE: [(&str, Field); 12] = [
    ("{\"id\":", Field::Id),
    (",\"strategy\":", Field::Strategy),
    (",\"title\":", Field::Title),
    (",\"severity\":", Field::Severity),
    (",\"service_name\":", Field::ServiceName),
    (",\"microservice\":", Field::Microservice),
    (",\"location\":{\"region\":", Field::Region),
    (",\"dc\":", Field::Dc),
    (",\"instance\":", Field::Instance),
    ("},\"raised_at\":", Field::RaisedAt),
    (",\"state\":", Field::State),
    (",\"processing_time\":", Field::ProcessingTime),
];
const ALERT_LINE_END: &str = "}";
const NULL: &str = "null";
const STATE_ACTIVE: &str = "\"active\"";
const CLEARED_AT: &str = "{\"cleared\":{\"at\":";
const CLEARED_BY: &str = ",\"by\":";
const CLEARED_END: &str = "}}";
const SEVERITY_NAMES: [(Severity, &str); 4] = [
    (Severity::Warning, "warning"),
    (Severity::Minor, "minor"),
    (Severity::Major, "major"),
    (Severity::Critical, "critical"),
];
const CLEARANCE_NAMES: [(Clearance, &str); 2] =
    [(Clearance::Manual, "manual"), (Clearance::Auto, "auto")];

/// The wire name of `value` in a `(value, name)` table.
fn name_of<T: PartialEq + Copy>(names: &[(T, &'static str)], value: T) -> &'static str {
    names
        .iter()
        .find(|(v, _)| *v == value)
        .map_or("", |(_, name)| name)
}

/// Appends `alert` as one wire line (no trailing newline) to `out`,
/// byte-for-byte what `serde_json::to_string(alert)` produces.
pub fn write_alert_line(alert: &Alert, out: &mut String) {
    for (literal, field) in ALERT_LINE {
        out.push_str(literal);
        match field {
            Field::Id => push_u64(alert.id().value(), out),
            Field::Strategy => push_u64(alert.strategy().value(), out),
            Field::Title => push_str(alert.title(), out),
            Field::Severity => push_str(name_of(&SEVERITY_NAMES, alert.severity()), out),
            Field::ServiceName => push_str(alert.service_name(), out),
            Field::Microservice => push_u64(alert.microservice().value(), out),
            Field::Region => push_str(alert.location().region().as_str(), out),
            Field::Dc => push_str(alert.location().dc(), out),
            Field::Instance => match alert.location().instance() {
                Some(instance) => push_str(instance, out),
                None => out.push_str(NULL),
            },
            Field::RaisedAt => push_u64(alert.raised_at().as_secs(), out),
            Field::State => match (alert.cleared_at(), alert.clearance()) {
                (Some(at), Some(by)) => {
                    out.push_str(CLEARED_AT);
                    push_u64(at.as_secs(), out);
                    out.push_str(CLEARED_BY);
                    push_str(name_of(&CLEARANCE_NAMES, by), out);
                    out.push_str(CLEARED_END);
                }
                _ => out.push_str(STATE_ACTIVE),
            },
            Field::ProcessingTime => match alert.processing_time() {
                Some(time) => push_u64(time.as_secs(), out),
                None => out.push_str(NULL),
            },
        }
    }
    out.push_str(ALERT_LINE_END);
}

fn push_u64(n: u64, out: &mut String) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{n}");
}

/// Writes `s` as a JSON string literal with the escapes serde's writer
/// uses: `\" \\ \n \r \t \b \f`, lowercase `\u00xx` for the other
/// control bytes, and raw UTF-8 for everything else.
fn push_str(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut plain = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xf)]));
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Matches `line` against the alert line's layout in one pass.
///
/// `None` when the line is anything other than the template with
/// plain strings and canonical integers (see the module docs for the
/// full list); the caller then decodes it the general way. A `Some`
/// is always equal to what `serde_json::from_str::<Alert>(line)`
/// returns.
#[must_use]
pub fn scan_alert(line: &str) -> Option<Alert> {
    let mut scan = Scanner { rest: line };
    let mut parts = AlertParts::default();
    for (literal, field) in ALERT_LINE {
        scan.literal(literal)?;
        match field {
            Field::Id => parts.id = scan.u64()?,
            Field::Strategy => parts.strategy = scan.u64()?,
            Field::Title => parts.title = scan.str()?,
            Field::Severity => parts.severity = scan.named(&SEVERITY_NAMES)?,
            Field::ServiceName => parts.service = scan.str()?,
            Field::Microservice => parts.microservice = scan.u64()?,
            Field::Region => parts.region = scan.str()?,
            Field::Dc => parts.dc = scan.str()?,
            Field::Instance => {
                if scan.literal(NULL).is_none() {
                    parts.instance = Some(scan.str()?);
                }
            }
            Field::RaisedAt => parts.raised_at = scan.u64()?,
            Field::State => {
                if scan.literal(STATE_ACTIVE).is_none() {
                    scan.literal(CLEARED_AT)?;
                    let at = scan.u64()?;
                    scan.literal(CLEARED_BY)?;
                    let by = scan.named(&CLEARANCE_NAMES)?;
                    scan.literal(CLEARED_END)?;
                    parts.cleared = Some((at, by));
                }
            }
            Field::ProcessingTime => {
                if scan.literal(NULL).is_none() {
                    parts.processing_time = Some(scan.u64()?);
                }
            }
        }
    }
    scan.literal(ALERT_LINE_END)?;
    if !scan.rest.is_empty() {
        return None;
    }
    parts.build()
}

/// The fields of one scanned alert line, strings still borrowed.
#[derive(Default)]
struct AlertParts<'a> {
    id: u64,
    strategy: u64,
    title: &'a str,
    severity: Severity,
    service: &'a str,
    microservice: u64,
    region: &'a str,
    dc: &'a str,
    instance: Option<&'a str>,
    raised_at: u64,
    cleared: Option<(u64, Clearance)>,
    processing_time: Option<u64>,
}

impl AlertParts<'_> {
    fn build(self) -> Option<Alert> {
        let mut location = Location::new(self.region, self.dc);
        if let Some(instance) = self.instance {
            location = location.with_instance(instance);
        }
        let mut builder = Alert::builder(self.id.into(), self.strategy.into())
            .title(self.title)
            .severity(self.severity)
            .service(self.service)
            .microservice(self.microservice)
            .location(location)
            .raised_at(SimTime::from_secs(self.raised_at));
        if let Some(time) = self.processing_time {
            builder = builder.processing_time(SimDuration::from_secs(time));
        }
        let mut alert = builder.build();
        if let Some((at, by)) = self.cleared {
            // A clearance before the raise is not a valid alert, but
            // the derived deserializer accepts it: defer to it.
            alert.clear(SimTime::from_secs(at), by).ok()?;
        }
        Some(alert)
    }
}

/// A cursor over the unmatched rest of an alert line.
struct Scanner<'a> {
    rest: &'a str,
}

impl<'a> Scanner<'a> {
    fn literal(&mut self, literal: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(literal)?;
        Some(())
    }

    /// A canonical decimal `u64`: digits only, no leading zero.
    fn u64(&mut self) -> Option<u64> {
        let len = self.rest.bytes().take_while(u8::is_ascii_digit).count();
        let (digits, rest) = self.rest.split_at(len);
        if digits.len() > 1 && digits.starts_with('0') {
            return None;
        }
        self.rest = rest;
        digits.parse().ok()
    }

    /// A string without escapes or control bytes, borrowed.
    fn str(&mut self) -> Option<&'a str> {
        let body = self.rest.strip_prefix('"')?;
        let end = body
            .bytes()
            .position(|b| b == b'"' || b == b'\\' || b < 0x20)?;
        if body.as_bytes()[end] != b'"' {
            return None;
        }
        self.rest = &body[end + 1..];
        Some(&body[..end])
    }

    /// A string that is one of the names in `names`.
    fn named<T: Copy>(&mut self, names: &[(T, &str)]) -> Option<T> {
        let name = self.str()?;
        names.iter().find(|(_, n)| *n == name).map(|(v, _)| *v)
    }
}

/// Renders one ingress frame as its wire line (no trailing newline) —
/// the inverse of [`parse_frame`]. `None` for the frame kinds that
/// only exist in WAL segments, the cluster's checkpoint file and the
/// ack lane, which NDJSON has no line for.
#[must_use]
pub fn frame_line(frame: &Frame) -> Option<String> {
    Some(match frame {
        Frame::Alert(alert) => encode_alert(alert),
        Frame::Flush => FLUSH_FRAME.to_owned(),
        Frame::Shutdown => SHUTDOWN_FRAME.to_owned(),
        Frame::Sync => SYNC_FRAME.to_owned(),
        Frame::Chaos(ChaosCmd::Panic { shard, on_close }) => {
            format!(r#"{{"ctrl":"panic","shard":{shard},"on_close":{on_close}}}"#)
        }
        Frame::Chaos(ChaosCmd::Stall { shard }) => {
            format!(r#"{{"ctrl":"stall","shard":{shard}}}"#)
        }
        Frame::Chaos(ChaosCmd::Resume { shard }) => {
            format!(r#"{{"ctrl":"resume","shard":{shard}}}"#)
        }
        Frame::Boundary { .. } | Frame::Ack(_) | Frame::QoaState(_) => return None,
    })
}

/// Renders one acknowledgement as the line the daemon sends back on an
/// NDJSON connection (no trailing newline).
#[must_use]
pub fn ack_line(ack: &AckFrame) -> String {
    match *ack {
        AckFrame::Flush { window, alerts } => {
            format!(r#"{{"ack":"flush","window":{window},"alerts":{alerts}}}"#)
        }
        AckFrame::Sync => r#"{"ack":"sync"}"#.to_owned(),
        AckFrame::Shutdown => r#"{"ack":"shutdown"}"#.to_owned(),
        AckFrame::Stall { shard } => format!(r#"{{"ack":"stall","shard":{shard}}}"#),
    }
}

/// Reads one acknowledgement line back; `None` if it is not one.
#[must_use]
pub fn parse_ack_line(line: &str) -> Option<AckFrame> {
    let value: serde_json::Value = serde_json::from_str(line.trim()).ok()?;
    let field = |name| value.get(name).and_then(serde_json::Value::as_u64);
    match value.get("ack")?.as_str()? {
        "flush" => Some(AckFrame::Flush {
            window: field("window")?,
            alerts: field("alerts")?,
        }),
        "sync" => Some(AckFrame::Sync),
        "shutdown" => Some(AckFrame::Shutdown),
        "stall" => Some(AckFrame::Stall {
            shard: usize::try_from(field("shard")?).ok()?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{AlertId, SimTime, StrategyId};

    fn sample_alert() -> Alert {
        Alert::builder(AlertId(7), StrategyId(3))
            .title("cpu high")
            .raised_at(SimTime::from_secs(120))
            .build()
    }

    fn reason_of(result: Result<Frame, FrameError>) -> QuarantineReason {
        match result {
            Err(FrameError::Malformed { reason, .. }) => reason,
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn alert_frames_roundtrip() {
        let alert = sample_alert();
        let line = encode_alert(&alert);
        match parse_frame(&line).unwrap() {
            Frame::Alert(back) => assert_eq!(*back, alert),
            other => panic!("expected alert frame, got {other:?}"),
        }
    }

    #[test]
    fn control_frames_parse() {
        assert_eq!(parse_frame(FLUSH_FRAME), Ok(Frame::Flush));
        assert_eq!(parse_frame(SHUTDOWN_FRAME), Ok(Frame::Shutdown));
        assert_eq!(parse_frame(SYNC_FRAME), Ok(Frame::Sync));
        assert_eq!(parse_frame("  \t "), Err(FrameError::Empty));
        assert_eq!(
            reason_of(parse_frame(r#"{"ctrl":"reboot"}"#)),
            QuarantineReason::UnknownControl
        );
        assert_eq!(
            reason_of(parse_frame("not json")),
            QuarantineReason::InvalidJson
        );
        assert_eq!(
            reason_of(parse_frame(r#"{"id":"not an alert"}"#)),
            QuarantineReason::InvalidAlert
        );
        // The ack lane: each variant renders to its documented line and
        // reads back as itself.
        for (ack, line) in [
            (
                AckFrame::Flush {
                    window: 3,
                    alerts: 41,
                },
                r#"{"ack":"flush","window":3,"alerts":41}"#,
            ),
            (AckFrame::Sync, r#"{"ack":"sync"}"#),
            (AckFrame::Shutdown, r#"{"ack":"shutdown"}"#),
            (AckFrame::Stall { shard: 2 }, r#"{"ack":"stall","shard":2}"#),
        ] {
            assert_eq!(ack_line(&ack), line);
            assert_eq!(parse_ack_line(&format!("{line}\n")), Some(ack));
        }
        assert_eq!(parse_ack_line(FLUSH_FRAME), None);
        assert_eq!(parse_ack_line(r#"{"ack":"flush","window":3}"#), None);
    }

    #[test]
    fn chaos_frames_parse_with_targets() {
        assert_eq!(
            parse_frame(r#"{"ctrl":"panic","shard":2}"#),
            Ok(Frame::Chaos(ChaosCmd::Panic {
                shard: 2,
                on_close: false
            }))
        );
        assert_eq!(
            parse_frame(r#"{"ctrl":"panic","shard":0,"on_close":true}"#),
            Ok(Frame::Chaos(ChaosCmd::Panic {
                shard: 0,
                on_close: true
            }))
        );
        assert_eq!(
            parse_frame(r#"{"ctrl":"stall","shard":1}"#),
            Ok(Frame::Chaos(ChaosCmd::Stall { shard: 1 }))
        );
        assert_eq!(
            parse_frame(r#"{"ctrl":"resume","shard":1}"#),
            Ok(Frame::Chaos(ChaosCmd::Resume { shard: 1 }))
        );
        // Every ingress frame renders to a line that parses back as
        // itself; WAL-only kinds have no line.
        for frame in [
            Frame::Alert(Box::new(sample_alert())),
            Frame::Flush,
            Frame::Shutdown,
            Frame::Sync,
            Frame::Chaos(ChaosCmd::Panic {
                shard: 4,
                on_close: true,
            }),
            Frame::Chaos(ChaosCmd::Stall { shard: 0 }),
            Frame::Chaos(ChaosCmd::Resume { shard: 9 }),
        ] {
            let line = frame_line(&frame).expect("ingress frames have a line");
            assert_eq!(parse_frame(&line), Ok(frame));
        }
        assert_eq!(frame_line(&Frame::Boundary { window: 1 }), None);
        // Missing shard target: quarantined, not a parse panic.
        assert_eq!(
            reason_of(parse_frame(r#"{"ctrl":"panic"}"#)),
            QuarantineReason::UnknownControl
        );
    }

    #[test]
    fn ctrl_text_in_titles_does_not_divert_the_fast_path() {
        // Titles may contain the word ctrl (even quoted in the source
        // string — JSON escapes the quotes on the wire); the
        // single-parse fast path and the classifying slow path must
        // agree these are alerts.
        for title in ["ctrl", "the \"ctrl\" key", "ctrl-c ctrl-v"] {
            let alert = Alert::builder(AlertId(1), StrategyId(2))
                .title(title)
                .raised_at(SimTime::from_secs(5))
                .build();
            match parse_frame(&encode_alert(&alert)).unwrap() {
                Frame::Alert(back) => assert_eq!(*back, alert),
                other => panic!("expected alert frame, got {other:?}"),
            }
        }
        // A non-string ctrl value skips the fast path and still
        // classifies as an unknown control, exactly as before.
        assert_eq!(
            reason_of(parse_frame(r#"{"ctrl":123}"#)),
            QuarantineReason::UnknownControl
        );
    }

    #[test]
    fn the_alert_line_is_serdes_layout_and_scans_back() {
        let mut alert = Alert::builder(AlertId(12), StrategyId(34))
            .title("disk 95% full on /var")
            .severity(Severity::Major)
            .service("Block Storage")
            .microservice(56)
            .location(Location::new("region-x", "dc-1").with_instance("vm-7"))
            .raised_at(SimTime::from_secs(600))
            .processing_time(SimDuration::from_secs(90))
            .build();
        alert
            .clear(SimTime::from_secs(660), Clearance::Auto)
            .expect("cleared after the raise");
        let line = encode_alert(&alert);
        assert_eq!(
            line,
            concat!(
                r#"{"id":12,"strategy":34,"title":"disk 95% full on /var","severity":"major","#,
                r#""service_name":"Block Storage","microservice":56,"#,
                r#""location":{"region":"region-x","dc":"dc-1","instance":"vm-7"},"#,
                r#""raised_at":600,"state":{"cleared":{"at":660,"by":"auto"}},"#,
                r#""processing_time":90}"#,
            )
        );
        assert_eq!(line, serde_json::to_string(&alert).unwrap());
        assert_eq!(scan_alert(&line), Some(alert.clone()));
        // Escapes, whitespace and a reordered key all defer to the
        // classifying path, which still decodes the same alert.
        for variant in [
            line.replace("vm-7", r"vm\u002d7"),
            line.replace(r#""strategy":34"#, r#" "strategy" : 34"#),
            line.replacen(
                r#"{"id":12,"strategy":34,"#,
                r#"{"strategy":34,"id":12,"#,
                1,
            ),
        ] {
            assert_eq!(scan_alert(&variant), None, "{variant}");
            assert_eq!(
                parse_frame(&variant),
                Ok(Frame::Alert(Box::new(alert.clone())))
            );
        }
    }

    #[test]
    fn empty_strings_take_the_typed_path() {
        let blank = Alert::builder(AlertId(3), StrategyId(4))
            .title("")
            .service("")
            .location(Location::new("", "").with_instance(""))
            .raised_at(SimTime::from_secs(5))
            .build();
        // The builder's own empty title, service, region and dc.
        let unset = Alert::builder(AlertId(6), StrategyId(7)).build();
        for alert in [blank, unset] {
            let line = encode_alert(&alert);
            assert_eq!(line, serde_json::to_string(&alert).unwrap());
            assert_eq!(scan_alert(&line), Some(alert.clone()), "{line}");
            assert_eq!(parse_frame(&line), Ok(Frame::Alert(Box::new(alert))));
        }
    }

    #[test]
    fn the_classifying_path_keeps_the_deserializer_detail() {
        assert_eq!(
            parse_frame(r#"{"id":"not an alert"}"#),
            Err(FrameError::Malformed {
                reason: QuarantineReason::InvalidAlert,
                detail: r#"field "id": cannot parse "not an alert" as u64"#.to_owned(),
            })
        );
    }

    #[test]
    fn feed_into_reuses_scratch_and_matches_feed() {
        let alert = sample_alert();
        let wire = format!("{}\nnot json\n{}\n", encode_alert(&alert), FLUSH_FRAME);
        let mut baseline = FrameDecoder::new();
        let expect = baseline.feed(wire.as_bytes());

        let mut decoder = FrameDecoder::new();
        let mut scratch = vec![Ok(Frame::Sync)]; // stale content must be cleared
        decoder.feed_into(wire.as_bytes(), &mut scratch);
        assert_eq!(scratch, expect);
    }

    #[test]
    fn decoder_reassembles_frames_split_across_reads() {
        let alert = sample_alert();
        let wire = format!("{}\n{}\n", encode_alert(&alert), FLUSH_FRAME);
        let bytes = wire.as_bytes();
        // Split the stream at every possible position: the decoded
        // frames must be identical regardless of read boundaries.
        for cut in 0..=bytes.len() {
            let mut decoder = FrameDecoder::new();
            let mut frames: Vec<_> = decoder.feed(&bytes[..cut]);
            frames.extend(decoder.feed(&bytes[cut..]));
            assert!(decoder.finish().is_none(), "stream ended on a newline");
            assert_eq!(frames.len(), 2, "cut at {cut}");
            assert_eq!(frames[0], Ok(Frame::Alert(Box::new(alert.clone()))));
            assert_eq!(frames[1], Ok(Frame::Flush));
        }
    }

    #[test]
    fn decoder_quarantines_truncated_final_frame() {
        let mut decoder = FrameDecoder::new();
        let line = encode_alert(&sample_alert());
        let cut = &line.as_bytes()[..line.len() - 4]; // reset mid-frame
        assert!(decoder.feed(cut).is_empty());
        let tail = decoder.finish().expect("partial frame must surface");
        assert_eq!(reason_of(tail), QuarantineReason::InvalidJson);
    }

    #[test]
    fn decoder_quarantines_invalid_utf8() {
        let mut decoder = FrameDecoder::new();
        let frames = decoder.feed(b"{\"id\":\xFF\xFE}\n");
        assert_eq!(frames.len(), 1);
        assert_eq!(
            reason_of(frames.into_iter().next().unwrap()),
            QuarantineReason::InvalidUtf8
        );
    }

    #[test]
    fn decoder_sheds_oversized_lines_once() {
        let mut decoder = FrameDecoder::new();
        let chunk = vec![b'x'; MAX_FRAME_LEN / 2 + 1];
        assert!(decoder.feed(&chunk).is_empty());
        // Crossing the limit quarantines exactly once...
        let mid = decoder.feed(&chunk);
        assert_eq!(mid.len(), 1);
        assert_eq!(
            reason_of(mid.into_iter().next().unwrap()),
            QuarantineReason::Oversized
        );
        // ...further bytes of the same line are discarded silently...
        assert!(decoder.feed(&chunk).is_empty());
        // ...and the line's newline re-arms the decoder.
        let after = decoder.feed(b"\n{\"ctrl\":\"flush\"}\n");
        assert_eq!(after, vec![Ok(Frame::Flush)]);
    }

    #[test]
    fn decoder_skips_blank_lines() {
        let mut decoder = FrameDecoder::new();
        assert!(decoder.feed(b"\n\r\n  \n").is_empty());
        assert!(decoder.finish().is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use alertops_model::{Alert, AlertId, SimTime, StrategyId};
    use proptest::prelude::*;

    /// Characters serde's writer escapes (or that are easy to mangle),
    /// then plain ASCII and multi-byte UTF-8.
    const TRICKY: [char; 13] = [
        '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1b}', '\u{1f}', '/', '{', ',',
    ];
    const PLAIN: [char; 9] = ['a', 'Z', '0', ' ', '-', '\u{7f}', 'é', '漢', '😀'];

    /// Strings of up to 12 characters; when `plain`, none needs an
    /// escape on the wire.
    fn text(plain: bool, picks: &[u64]) -> String {
        let alphabet: Vec<char> = if plain {
            PLAIN.to_vec()
        } else {
            PLAIN.iter().chain(&TRICKY).copied().collect()
        };
        picks
            .iter()
            .map(|&i| alphabet[i as usize % alphabet.len()])
            .collect()
    }

    /// Integers at the edges as well as in between.
    fn number() -> impl Strategy<Value = u64> {
        (0u64..4, 0u64..1_000).prop_map(|(kind, n)| match kind {
            0 => n,
            1 => u64::MAX - n,
            2 => n * 1_000_000_007,
            _ => 0,
        })
    }

    /// An alert in any of the three state shapes, with `instance` and
    /// `processing_time` each present or absent, and strings drawn
    /// from [`text`].
    fn alert() -> impl Strategy<Value = Alert> {
        let strings = proptest::collection::vec(proptest::collection::vec(0u64..64, 0..12), 5);
        (
            (number(), number(), number(), number()),
            (any::<bool>(), strings),
            (0u64..4, 0u64..3, number()),
            (
                proptest::option::of(0u64..1),
                proptest::option::of(number()),
            ),
        )
            .prop_map(
                |((id, strategy, microservice, raised), (plain, strings), shape, extras)| {
                    let (severity, state, cleared_after) = shape;
                    let (instance, processing_time) = extras;
                    let [title, service, region, dc, vm] =
                        <[Vec<u64>; 5]>::try_from(strings).expect("five strings");
                    let mut location = Location::new(text(plain, &region), text(plain, &dc));
                    if instance.is_some() {
                        location = location.with_instance(text(plain, &vm));
                    }
                    let mut builder = Alert::builder(AlertId(id), StrategyId(strategy))
                        .title(text(plain, &title))
                        .severity(Severity::from_rank(severity as u8).expect("rank < 4"))
                        .service(text(plain, &service))
                        .microservice(microservice)
                        .location(location)
                        .raised_at(SimTime::from_secs(raised));
                    if let Some(time) = processing_time {
                        builder = builder.processing_time(SimDuration::from_secs(time));
                    }
                    let mut alert = builder.build();
                    let by = [Clearance::Manual, Clearance::Auto];
                    if let Some(by) = by.get(state as usize) {
                        let at = raised.saturating_add(cleared_after);
                        alert
                            .clear(SimTime::from_secs(at), *by)
                            .expect("cleared after raise");
                    }
                    alert
                },
            )
    }

    /// Splits a canonical alert line into its top-level `(key, value)`
    /// entries, each value rendered as JSON.
    fn entries(line: &str) -> Vec<(String, String)> {
        let value: serde_json::Value = serde_json::from_str(line).expect("canonical line");
        value
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect()
    }

    fn join(entries: &[(String, String)]) -> String {
        let body: Vec<String> = entries
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// One mutation of a canonical line, chosen by `kind`, placed by
    /// `at` and `pick`.
    fn mutate(line: &str, kind: u64, at: usize, pick: usize) -> String {
        const NUMBERS: [&str; 11] = [
            "-1",
            "-0",
            "1.5",
            "1e3",
            "1.0",
            "007",
            "00",
            "0",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
        ];
        const NUMERIC: [&str; 5] = [
            "id",
            "strategy",
            "microservice",
            "raised_at",
            "processing_time",
        ];
        let mut fields = entries(line);
        let n = fields.len();
        match kind {
            // Two keys swapped.
            0 => fields.swap(at % n, pick % n),
            // A key duplicated, with its own value or another's.
            1 => {
                let key = fields[at % n].0.clone();
                let value = fields[pick % n].1.clone();
                fields.insert(pick % (n + 1), (key, value));
            }
            // A key dropped.
            2 => {
                fields.remove(at % n);
            }
            // An unknown key.
            3 => fields.insert(at % (n + 1), ("extra".to_owned(), "1".to_owned())),
            // Whitespace anywhere.
            4 => {
                let mut line = line.to_owned();
                let mut cut = at % (line.len() + 1);
                while !line.is_char_boundary(cut) {
                    cut -= 1;
                }
                line.insert(cut, [' ', '\t', '\n', '\r'][pick % 4]);
                return line;
            }
            // A number out of the canonical form, or at its edge.
            5 => {
                let key = NUMERIC[at % NUMERIC.len()];
                let number = NUMBERS[pick % NUMBERS.len()];
                for (k, v) in &mut fields {
                    if k == key {
                        *v = number.to_owned();
                    }
                }
            }
            // The clearance's time, likewise.
            6 => {
                let number = NUMBERS[pick % NUMBERS.len()];
                let by = if at.is_multiple_of(2) {
                    "manual"
                } else {
                    "auto"
                };
                for (k, v) in &mut fields {
                    if k == "state" {
                        *v = format!(r#"{{"cleared":{{"at":{number},"by":"{by}"}}}}"#);
                    }
                }
            }
            // A clearance before the raise.
            7 => {
                for (k, v) in &mut fields {
                    match k.as_str() {
                        "raised_at" => *v = "100".to_owned(),
                        "state" => *v = r#"{"cleared":{"at":99,"by":"auto"}}"#.to_owned(),
                        _ => {}
                    }
                }
            }
            // Trailing bytes, or a line cut short.
            _ => {
                if pick.is_multiple_of(2) {
                    return format!("{line}{}", ["}", "x", ",", " 1"][at % 4]);
                }
                let mut cut = at % line.len();
                while !line.is_char_boundary(cut) {
                    cut -= 1;
                }
                return line[..cut].to_owned();
            }
        }
        join(&fields)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The typed writer is byte-equal to serde's, and the scanner
        /// takes every line without an escape, decoding it to exactly
        /// the written alert; a line with an escape decodes the same
        /// through the classifying path.
        #[test]
        fn the_writer_matches_serde_and_the_scanner_takes_every_plain_line(
            alert in alert(),
        ) {
            let line = encode_alert(&alert);
            prop_assert_eq!(&line, &serde_json::to_string(&alert).unwrap());
            if line.contains('\\') {
                prop_assert_eq!(scan_alert(&line), None);
            } else {
                prop_assert_eq!(scan_alert(&line), Some(alert.clone()), "{}", line);
            }
            prop_assert_eq!(parse_frame(&line), Ok(Frame::Alert(Box::new(alert))));
        }

        /// On a line outside the template the scanner either defers or
        /// agrees with serde: it never accepts a line serde rejects,
        /// and never decodes one differently.
        #[test]
        fn the_scanner_defers_or_agrees_with_serde_on_mutated_lines(
            alert in alert(),
            kind in 0u64..9,
            at in 0u64..1 << 16,
            pick in 0u64..1 << 16,
        ) {
            let line = mutate(&encode_alert(&alert), kind, at as usize, pick as usize);
            if let Some(scanned) = scan_alert(&line) {
                prop_assert_eq!(
                    Ok(scanned),
                    serde_json::from_str::<Alert>(&line).map_err(|e| e.to_string()),
                    "{}",
                    line
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Decoding arbitrary byte soup never panics, and the decoded
        /// sequence is independent of where the reads were split.
        #[test]
        fn decoder_never_panics_and_is_split_invariant(
            bytes in proptest::collection::vec(
                (0u64..256).prop_map(|b| b as u8),
                0..2048,
            ),
            cut in 0usize..2048,
        ) {
            let cut = cut.min(bytes.len());
            let mut split = FrameDecoder::new();
            let mut got = split.feed(&bytes[..cut]);
            got.extend(split.feed(&bytes[cut..]));
            let got_tail = split.finish();

            let mut whole = FrameDecoder::new();
            let expect = whole.feed(&bytes);
            let expect_tail = whole.finish();

            prop_assert_eq!(got, expect);
            prop_assert_eq!(got_tail, expect_tail);
        }

        /// Every valid frame round-trips through the decoder, however
        /// the wire bytes are split across reads.
        #[test]
        fn valid_frames_roundtrip_across_arbitrary_splits(
            specs in proptest::collection::vec(
                (0u64..1_000, 0u64..50, 0u64..100_000, "[ -~]{0,24}"),
                1..8,
            ),
            ctrl in 0u64..5,
            cuts in (0u64..1 << 20, 0u64..1 << 20),
        ) {
            let mut expected: Vec<Frame> = specs
                .iter()
                .map(|(id, strategy, at, title)| {
                    Frame::Alert(Box::new(
                        Alert::builder(AlertId(*id), StrategyId(*strategy))
                            .title(title.clone())
                            .raised_at(SimTime::from_secs(*at))
                            .build(),
                    ))
                })
                .collect();
            let mut wire: Vec<u8> = Vec::new();
            for frame in &expected {
                if let Frame::Alert(alert) = frame {
                    wire.extend_from_slice(encode_alert(alert).as_bytes());
                    wire.push(b'\n');
                }
            }
            let (ctrl_line, ctrl_frame) = match ctrl {
                0 => (FLUSH_FRAME, Frame::Flush),
                1 => (SYNC_FRAME, Frame::Sync),
                2 => (
                    r#"{"ctrl":"panic","shard":3,"on_close":true}"#,
                    Frame::Chaos(ChaosCmd::Panic { shard: 3, on_close: true }),
                ),
                3 => (
                    r#"{"ctrl":"stall","shard":1}"#,
                    Frame::Chaos(ChaosCmd::Stall { shard: 1 }),
                ),
                _ => (
                    r#"{"ctrl":"resume","shard":0}"#,
                    Frame::Chaos(ChaosCmd::Resume { shard: 0 }),
                ),
            };
            wire.extend_from_slice(ctrl_line.as_bytes());
            wire.push(b'\n');
            expected.push(ctrl_frame);

            let len = wire.len();
            let (a, b) = (cuts.0 as usize % (len + 1), cuts.1 as usize % (len + 1));
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let mut decoder = FrameDecoder::new();
            let mut got = decoder.feed(&wire[..lo]);
            got.extend(decoder.feed(&wire[lo..hi]));
            got.extend(decoder.feed(&wire[hi..]));
            prop_assert!(decoder.finish().is_none());
            let frames: Vec<Frame> = got
                .into_iter()
                .collect::<Result<_, _>>()
                .expect("all frames were valid");
            prop_assert_eq!(frames, expected);
        }
    }
}
