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

use std::fmt;

use alertops_model::Alert;
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
    // Hot path: alert frames vastly outnumber controls, and a line
    // without the byte sequence `"ctrl"` cannot be a control frame (an
    // embedded quote inside a JSON string would be escaped as `\"`),
    // so it parses straight to an `Alert` — one parse instead of the
    // generic-`Value`-then-`Alert` double parse. Any failure falls
    // through to the classifying slow path, which reproduces the exact
    // quarantine reasons (`invalid_json` vs `invalid_alert`).
    if !line.contains("\"ctrl\"") {
        if let Ok(alert) = serde_json::from_str::<Alert>(line) {
            return Ok(Frame::Alert(Box::new(alert)));
        }
    }
    let value: serde_json::Value = serde_json::from_str(line)
        .map_err(|e| FrameError::malformed(QuarantineReason::InvalidJson, e.to_string()))?;
    if value.get("ctrl").is_some() {
        return parse_control(&value);
    }
    serde_json::from_str::<Alert>(line)
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
    serde_json::to_string(alert).expect("alerts always serialize")
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
