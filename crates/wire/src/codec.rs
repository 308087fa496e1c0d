//! The streaming encoder/decoder: length+CRC framing around
//! [`frame`](crate::frame) payloads.
//!
//! One [`WireEncoder`] and one [`WireDecoder`] per stream (a TCP
//! connection, or one WAL segment): the pair share string-table state
//! implicitly — ids are assigned in encode order on one end and in
//! decode order on the other, so they agree by construction and the
//! table is never shipped.
//!
//! # Corruption semantics
//!
//! Every frame is covered by its own CRC-32, so truncation and bit
//! flips are detected, never silently decoded. Unlike NDJSON — where
//! a bad line ends at the next `\n` and the stream resyncs — a binary
//! stream has no resync point: once a length prefix is untrustworthy,
//! so is everything after it, and a bad payload may have already
//! desynchronized the string table. The decoder therefore reports the
//! first error and **poisons itself**: further input is discarded.
//! Callers quarantine the error and close the connection (ingress) or
//! stop trusting the segment (WAL replay).

use alertops_model::StrTable;

use crate::frame::{decode_payload, encode_payload, Frame};
use crate::varint;

/// Hard ceiling on one frame's payload length in bytes. A length
/// prefix above it is rejected before any buffering, so a hostile
/// producer cannot balloon daemon memory with one declared-huge frame.
/// The NDJSON decoder bounds its lines with this same constant.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Distinct strings a stream's table registers before falling back to
/// unregistered literals. Bounds decoder memory against adversarial
/// streams; matches the interner's default-table cap.
pub const WIRE_TABLE_CAP: usize = 1 << 16;

/// IEEE CRC-32 (reflected, polynomial `0xEDB8_8320`) — the ubiquitous
/// zlib/PNG variant, implemented here because the workspace is
/// std-only.
///
/// Slicing-by-8: eight bytes per step through `CRC_TABLES`, the tail
/// byte by byte through its first table. Same polynomial, same output
/// as the bit-at-a-time form (a property test holds the two together).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b`
/// through eight zero bits; `CRC_TABLES[s][b]` is that value advanced
/// by `s` more zero bytes, so one lookup per table folds eight input
/// bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[s - 1][b];
            t[s][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        s += 1;
    }
    t
}

/// Why a binary stream failed to decode. Any error is terminal for
/// its stream (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended mid-frame (connection reset, torn WAL tail).
    Truncated,
    /// A frame's payload failed its CRC — bit rot or a torn write.
    Crc {
        /// The CRC the frame header declared.
        expected: u32,
        /// The CRC of the payload as received.
        found: u32,
    },
    /// A frame declared a payload longer than [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared payload length.
        len: u64,
        /// The limit it exceeded.
        max: usize,
    },
    /// The payload passed its CRC but does not decode: bad tag, bad
    /// varint, bad string marker, unassigned back-reference, invalid
    /// UTF-8, or a layout mismatch.
    Malformed(String),
}

impl WireError {
    pub(crate) fn malformed(detail: impl Into<String>) -> Self {
        WireError::Malformed(detail.into())
    }

    /// Whether this error is the oversized-frame rejection (callers
    /// bucket it separately from corruption).
    #[must_use]
    pub fn is_oversized(&self) -> bool {
        matches!(self, WireError::Oversized { .. })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("stream ended mid-frame"),
            WireError::Crc { expected, found } => {
                write!(
                    f,
                    "payload CRC mismatch (header {expected:08x}, payload {found:08x})"
                )
            }
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "declared payload of {len} bytes exceeds the {max} byte limit"
                )
            }
            WireError::Malformed(detail) => write!(f, "malformed payload: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The encoding half of a stream: owns the string table assigning
/// back-reference ids and a reusable payload scratch buffer, so
/// steady-state encoding allocates nothing.
#[derive(Debug, Default)]
pub struct WireEncoder {
    table: StrTable,
    payload: Vec<u8>,
}

impl WireEncoder {
    /// A fresh encoder with an empty string table (capped at
    /// [`WIRE_TABLE_CAP`]).
    #[must_use]
    pub fn new() -> Self {
        Self {
            table: StrTable::with_capacity(WIRE_TABLE_CAP),
            payload: Vec::new(),
        }
    }

    /// Appends `frame`, fully framed (`len` varint, CRC, payload), to
    /// `out`. `out` is *not* cleared: a window's worth of frames can
    /// be batched into one write buffer.
    pub fn encode_into(&mut self, frame: &Frame, out: &mut Vec<u8>) {
        self.payload.clear();
        encode_payload(frame, &mut self.table, &mut self.payload);
        varint::encode(self.payload.len() as u64, out);
        out.extend_from_slice(&crc32(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Appends one alert frame to `out` without boxing the alert into
    /// a [`Frame`] — the WAL's per-append hot path borrows the alert
    /// it is journaling.
    pub fn encode_alert_into(&mut self, alert: &alertops_model::Alert, out: &mut Vec<u8>) {
        self.payload.clear();
        crate::frame::encode_alert_payload(alert, &mut self.table, &mut self.payload);
        varint::encode(self.payload.len() as u64, out);
        out.extend_from_slice(&crc32(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// [`encode_into`](Self::encode_into) into a fresh buffer.
    #[must_use]
    pub fn encode(&mut self, frame: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(frame, &mut out);
        out
    }

    /// Distinct strings the stream has registered so far.
    #[must_use]
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Takes back the strings registered since the table held `len`
    /// ([`table_len`](Self::table_len)), for frames encoded but never
    /// delivered: the next frame spells them out again instead of
    /// referring to ids its decoder never saw.
    pub fn truncate_table(&mut self, len: usize) {
        self.table.truncate(len);
    }
}

/// The decoding half of a stream.
///
/// Feed it whatever byte chunks the socket (or segment file) produces
/// — frames split across reads are carried over. The first error
/// poisons the decoder (see the module docs): the error is returned
/// once and all further input is discarded.
#[derive(Debug)]
pub struct WireDecoder {
    buf: Vec<u8>,
    table: StrTable,
    poisoned: bool,
}

impl Default for WireDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl WireDecoder {
    /// A fresh decoder with an empty string table; frames are bounded
    /// at [`MAX_FRAME_LEN`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            table: StrTable::with_capacity(WIRE_TABLE_CAP),
            poisoned: false,
        }
    }

    /// Whether a previous error ended this stream.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Consumes one read's worth of bytes, returning every frame
    /// completed by it — and, last, the terminal error if the stream
    /// just went bad.
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<Result<Frame, WireError>> {
        let mut out = Vec::new();
        self.feed_into(bytes, &mut out);
        out
    }

    /// [`feed`](Self::feed) into a caller-owned scratch vector (cleared
    /// first), so a read loop reuses one allocation for its whole
    /// connection. At most one `Err` is ever produced, always as the
    /// final item.
    pub fn feed_into(&mut self, bytes: &[u8], out: &mut Vec<Result<Frame, WireError>>) {
        out.clear();
        self.feed_with(bytes, |item| out.push(item));
    }

    /// [`feed`](Self::feed) handing each item to `sink` in stream
    /// order, so a caller can fold decoding into its own item type
    /// without an intermediate vector.
    pub fn feed_with(&mut self, bytes: &[u8], mut sink: impl FnMut(Result<Frame, WireError>)) {
        if self.poisoned {
            return;
        }
        self.buf.extend_from_slice(bytes);
        let mut pos = 0usize;
        loop {
            match self.next_frame(pos) {
                Ok(Some((frame, consumed))) => {
                    sink(Ok(frame));
                    pos += consumed;
                }
                Ok(None) => break,
                Err(e) => {
                    self.poisoned = true;
                    self.buf.clear();
                    sink(Err(e));
                    return;
                }
            }
        }
        self.buf.drain(..pos);
    }

    /// Flushes the end-of-stream state: `Some(Truncated)` if the
    /// stream ended mid-frame, `None` on a clean boundary (or after an
    /// already-reported error).
    pub fn finish(&mut self) -> Option<WireError> {
        if std::mem::take(&mut self.poisoned) {
            self.buf.clear();
            return None;
        }
        if self.buf.is_empty() {
            None
        } else {
            self.buf.clear();
            Some(WireError::Truncated)
        }
    }

    /// Tries to decode one frame at `pos`. `Ok(None)` means the buffer
    /// holds only a prefix — wait for more bytes.
    fn next_frame(&mut self, pos: usize) -> Result<Option<(Frame, usize)>, WireError> {
        let avail = &self.buf[pos..];
        if avail.is_empty() {
            return Ok(None);
        }
        let Some((len, len_bytes)) = varint::decode(avail) else {
            // A varint needs at most MAX_LEN bytes; more than that
            // without termination is corruption, not a short read.
            if avail.len() >= varint::MAX_LEN {
                return Err(WireError::malformed("bad frame length varint"));
            }
            return Ok(None);
        };
        if len > MAX_FRAME_LEN as u64 {
            return Err(WireError::Oversized {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        let len = len as usize;
        let total = len_bytes + 4 + len;
        if avail.len() < total {
            return Ok(None);
        }
        // `avail` holds `total` bytes, so this range is 4 bytes long.
        let expected = u32::from_le_bytes(
            avail[len_bytes..len_bytes + 4]
                .try_into()
                .expect("4 bytes checked"),
        );
        let payload = &avail[len_bytes + 4..total];
        let found = crc32(payload);
        if found != expected {
            return Err(WireError::Crc { expected, found });
        }
        let frame = decode_payload(payload, &mut self.table)?;
        Ok(Some((frame, total)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{AckFrame, ChaosCmd};
    use alertops_model::{
        Alert, AlertId, Clearance, Location, Severity, SimDuration, SimTime, StrategyId,
    };

    fn alert(id: u64) -> Alert {
        let mut alert = Alert::builder(AlertId(id), StrategyId(id % 7))
            .title("haproxy process number warning")
            .severity(Severity::from_rank((id % 4) as u8).unwrap())
            .service("Block Storage")
            .microservice(id % 13)
            .location(Location::new("region-x", "dc-1").with_instance(format!("vm-{}", id % 5)))
            .raised_at(SimTime::from_secs(id * 60))
            .build();
        if id.is_multiple_of(3) {
            alert
                .clear(SimTime::from_secs(id * 60 + 90), Clearance::Auto)
                .unwrap();
        }
        if id.is_multiple_of(4) {
            alert.record_processing_time(SimDuration::from_secs(id));
        }
        alert
    }

    fn sample_frames() -> Vec<Frame> {
        let mut frames: Vec<Frame> = (0..40)
            .map(|id| Frame::Alert(Box::new(alert(id))))
            .collect();
        frames.push(Frame::Boundary { window: 17 });
        frames.push(Frame::Chaos(ChaosCmd::Panic {
            shard: 2,
            on_close: true,
        }));
        frames.push(Frame::Chaos(ChaosCmd::Stall { shard: 1 }));
        frames.push(Frame::Chaos(ChaosCmd::Resume { shard: 1 }));
        frames.push(Frame::Flush);
        frames.push(Frame::Shutdown);
        frames.push(Frame::Sync);
        frames.push(Frame::Ack(AckFrame::Flush {
            window: 17,
            alerts: 40,
        }));
        frames.push(Frame::Ack(AckFrame::Sync));
        frames.push(Frame::Ack(AckFrame::Shutdown));
        frames.push(Frame::Ack(AckFrame::Stall { shard: 1 }));
        frames.push(Frame::QoaState(vec![1, 0, 0, 254, 255, 7]));
        frames.push(Frame::QoaState(Vec::new()));
        frames
    }

    fn encode_stream(frames: &[Frame]) -> Vec<u8> {
        let mut encoder = WireEncoder::new();
        let mut wire = Vec::new();
        for frame in frames {
            encoder.encode_into(frame, &mut wire);
        }
        wire
    }

    /// Frames a hand-built payload: `[len][crc32][payload]`.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        varint::encode(payload.len() as u64, &mut wire);
        wire.extend_from_slice(&crc32(payload).to_le_bytes());
        wire.extend_from_slice(payload);
        wire
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bit-at-a-time CRC-32 the table-driven form replaced.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = 0u32.wrapping_sub(crc & 1);
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest::proptest! {
        /// Lengths 0 to 4096, from every start offset within an 8-byte
        /// step, read the same CRC both ways.
        #[test]
        fn crc32_matches_the_bitwise_form(
            bytes in proptest::collection::vec(
                proptest::strategy::Strategy::prop_map(0u64..256, |b| b as u8),
                0..4096 + 8,
            ),
            start in 0usize..8,
        ) {
            let bytes = &bytes[start.min(bytes.len())..];
            let bytes = &bytes[..bytes.len().min(4096)];
            proptest::prop_assert_eq!(crc32(bytes), crc32_bitwise(bytes));
        }
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        let frames = sample_frames();
        let wire = encode_stream(&frames);
        let mut decoder = WireDecoder::new();
        let decoded: Vec<Frame> = decoder
            .feed(&wire)
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("stream decodes");
        assert_eq!(decoder.finish(), None);
        assert_eq!(decoded, frames);
    }

    #[test]
    fn repeated_strings_travel_as_backrefs() {
        let frames: Vec<Frame> = (0..100)
            .map(|id| Frame::Alert(Box::new(alert(id))))
            .collect();
        let wire = encode_stream(&frames);
        let one = {
            let mut encoder = WireEncoder::new();
            encoder.encode(&frames[0]).len()
        };
        // 100 alerts over a handful of distinct strings must cost far
        // less than 100 first-frames: everything after the literals is
        // ids and varints.
        assert!(
            wire.len() < one * 40,
            "stream {} bytes vs first frame {one} bytes",
            wire.len()
        );
        let mut encoder = WireEncoder::new();
        let mut wire2 = Vec::new();
        for frame in &frames {
            encoder.encode_into(frame, &mut wire2);
        }
        // Distinct strings: 1 title, 1 service, 1 region, 1 dc, 5 vms.
        assert_eq!(encoder.table_len(), 9);
    }

    #[test]
    fn decoding_is_split_invariant() {
        let frames = sample_frames();
        let wire = encode_stream(&frames);
        for cut in [0, 1, 2, 3, 5, 7, wire.len() / 3, wire.len() / 2, wire.len()] {
            let mut decoder = WireDecoder::new();
            let mut got = decoder.feed(&wire[..cut]);
            got.extend(decoder.feed(&wire[cut..]));
            assert_eq!(decoder.finish(), None, "cut at {cut}");
            let decoded: Vec<Frame> = got.into_iter().collect::<Result<_, _>>().unwrap();
            assert_eq!(decoded, frames, "cut at {cut}");
        }
    }

    #[test]
    fn byte_at_a_time_feeding_decodes_everything() {
        let frames = sample_frames();
        let wire = encode_stream(&frames);
        let mut decoder = WireDecoder::new();
        let mut decoded = Vec::new();
        for &byte in &wire {
            for item in decoder.feed(&[byte]) {
                decoded.push(item.expect("valid stream"));
            }
        }
        assert_eq!(decoder.finish(), None);
        assert_eq!(decoded, frames);
    }

    #[test]
    fn truncation_surfaces_from_finish() {
        let wire = encode_stream(&sample_frames());
        let mut decoder = WireDecoder::new();
        let cut = wire.len() - 3;
        let frames = decoder.feed(&wire[..cut]);
        assert!(frames.iter().all(Result::is_ok));
        assert_eq!(decoder.finish(), Some(WireError::Truncated));
        // finish() resets the truncation state; the decoder is reusable.
        assert_eq!(decoder.finish(), None);
    }

    #[test]
    fn a_flipped_bit_fails_the_crc_and_poisons_the_stream() {
        let frames = sample_frames();
        let wire = encode_stream(&frames);
        // Flip one bit in every byte position in turn: no position may
        // decode the full stream cleanly.
        let full_len = frames.len();
        for pos in (0..wire.len()).step_by(7) {
            let mut bad = wire.clone();
            bad[pos] ^= 0x10;
            let mut decoder = WireDecoder::new();
            let got = decoder.feed(&bad);
            let errors = got.iter().filter(|r| r.is_err()).count();
            let oks = got.len() - errors;
            let clean = errors == 0 && oks == full_len && decoder.finish().is_none();
            assert!(
                !clean || {
                    // The flip may land in a string literal and still
                    // decode (CRC catches payload flips — a flip in the
                    // *length* field changes framing and must error, a
                    // flip in the payload must fail its CRC). Verify the
                    // decoded frames differ instead.
                    let decoded: Vec<Frame> = got.into_iter().collect::<Result<_, _>>().unwrap();
                    decoded != frames
                },
                "flip at {pos} decoded the original stream cleanly"
            );
            if errors > 0 {
                assert!(decoder.is_poisoned() || decoder.finish().is_none());
            }
        }
    }

    #[test]
    fn error_position_is_terminal() {
        let frames = sample_frames();
        let mut wire = encode_stream(&frames);
        wire[0] = 0xff; // frame 0's length varint goes continuation-heavy
        wire[1] = 0xff;
        wire[2] = 0xff;
        let mut decoder = WireDecoder::new();
        let got = decoder.feed(&wire);
        assert!(got.last().unwrap().is_err());
        assert!(decoder.is_poisoned());
        // Later (perfectly valid) bytes are discarded.
        let more = encode_stream(&frames);
        assert!(decoder.feed(&more).is_empty());
        assert_eq!(decoder.finish(), None, "error was already reported");
    }

    #[test]
    fn oversized_declaration_is_rejected_without_buffering() {
        let mut decoder = WireDecoder::new();
        let mut wire = Vec::new();
        varint::encode(MAX_FRAME_LEN as u64 + 1, &mut wire); // declared length, no payload
        let got = decoder.feed(&wire);
        assert_eq!(got.len(), 1);
        match got.into_iter().next().unwrap() {
            Err(e) => assert!(e.is_oversized(), "got {e:?}"),
            Ok(f) => panic!("decoded {f:?} from a hostile length"),
        }
    }

    #[test]
    fn bad_backref_is_malformed() {
        // Hand-build a payload: alert tag with a back-reference to an
        // id nothing assigned.
        let mut payload = vec![crate::frame::TAG_ALERT];
        varint::encode(9, &mut payload); // id
        varint::encode(1, &mut payload); // strategy
        payload.push(0x01); // STR_BACKREF
        varint::encode(42, &mut payload); // unassigned id
        let mut decoder = WireDecoder::new();
        let got = decoder.feed(&framed(&payload));
        assert!(
            matches!(got.as_slice(), [Err(WireError::Malformed(_))]),
            "got {got:?}"
        );
        assert!(decoder.is_poisoned());
    }

    #[test]
    fn empty_strings_register_once_then_travel_as_back_references() {
        // Every string field empty, the instance present but empty.
        let blank = Alert::builder(AlertId(3), StrategyId(4))
            .title("")
            .service("")
            .location(Location::new("", "").with_instance(""))
            .raised_at(SimTime::from_secs(5))
            .build();
        // The builder's own empty title, service, region and dc.
        let unset = Alert::builder(AlertId(6), StrategyId(7)).build();
        let frames = vec![Frame::Alert(Box::new(blank)), Frame::Alert(Box::new(unset))];
        let mut encoder = WireEncoder::new();
        let mut wire = encoder.encode(&frames[0]);
        // `[len][crc32 LE][payload]`, the length one varint byte.
        #[rustfmt::skip]
        let payload = [
            crate::frame::TAG_ALERT, 3, 4,
            0x00, 0, // title: zero-length literal, registers id 0
            0,       // severity rank: warning
            0x01, 0, // service: back-reference to id 0
            0,       // microservice
            0x01, 0, // region
            0x01, 0, // dc
            1, 0x01, 0, // instance: present, back-reference
            5,       // raised_at
            0, 0,    // active, no processing time
        ];
        assert_eq!(wire[5..], payload);
        assert_eq!(encoder.table_len(), 1);
        let second = encoder.encode(&frames[1]);
        assert_eq!(second[5..10], [crate::frame::TAG_ALERT, 6, 7, 0x01, 0]);
        assert_eq!(encoder.table_len(), 1);
        wire.extend_from_slice(&second);
        let mut decoder = WireDecoder::new();
        let decoded: Vec<Frame> = decoder
            .feed(&wire)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(decoder.finish(), None);
        assert_eq!(decoded, frames);
    }

    #[test]
    fn the_retired_tag_is_malformed() {
        // Tag 4 stays unassigned: an old producer's frame is rejected,
        // never misread as a newer kind.
        let got = WireDecoder::new().feed(&framed(&[4, 0, 0]));
        assert!(
            matches!(got.as_slice(), [Err(WireError::Malformed(_))]),
            "got {got:?}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use alertops_model::{Alert, AlertId, Clearance, Location, Severity, SimTime, StrategyId};
    use proptest::prelude::*;

    #[allow(clippy::too_many_arguments)]
    fn build_alert(
        id: u64,
        strategy: u64,
        at: u64,
        title: &str,
        service: &str,
        location: Location,
        severity: u8,
        cleared_after: Option<u64>,
    ) -> Alert {
        let mut alert = Alert::builder(AlertId(id), StrategyId(strategy))
            .title(title)
            .severity(Severity::from_rank(severity % 4).unwrap())
            .service(service)
            .location(location)
            .raised_at(SimTime::from_secs(at))
            .build();
        if let Some(delta) = cleared_after {
            alert
                .clear(SimTime::from_secs(at + delta), Clearance::Manual)
                .unwrap();
        }
        alert
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary alert corpora round-trip identically, however the
        /// wire bytes are split across reads. Every string, the
        /// location's included, may be empty.
        #[test]
        fn seeded_corpora_roundtrip_across_splits(
            specs in proptest::collection::vec(
                (
                    0u64..10_000, 0u64..64, 0u64..1_000_000,
                    "[ -~]{0,24}", "[ -~]{0,12}",
                    ("[ -~]{0,8}", "[ -~]{0,8}", proptest::option::of("[ -~]{0,8}")),
                    0u8..8,
                    proptest::option::of(0u64..10_000),
                ),
                1..24,
            ),
            cut in 0usize..1 << 16,
        ) {
            let frames: Vec<Frame> = specs
                .iter()
                .map(|(id, strat, at, title, service, (region, dc, instance), sev, cleared)| {
                    let mut location = Location::new(region.as_str(), dc.as_str());
                    if let Some(instance) = instance {
                        location = location.with_instance(instance.as_str());
                    }
                    Frame::Alert(Box::new(build_alert(
                        *id, *strat, *at, title, service, location, *sev, *cleared,
                    )))
                })
                .collect();
            let mut encoder = WireEncoder::new();
            let mut wire = Vec::new();
            for frame in &frames {
                encoder.encode_into(frame, &mut wire);
            }
            let cut = cut % (wire.len() + 1);
            let mut decoder = WireDecoder::new();
            let mut got = decoder.feed(&wire[..cut]);
            got.extend(decoder.feed(&wire[cut..]));
            prop_assert_eq!(decoder.finish(), None);
            let decoded: Vec<Frame> = got.into_iter().collect::<Result<_, _>>().unwrap();
            prop_assert_eq!(decoded, frames);
        }

        /// Decoding arbitrary byte soup never panics, never fabricates
        /// more than one error, and is deterministic.
        #[test]
        fn byte_soup_never_panics(
            bytes in proptest::collection::vec((0u64..256).prop_map(|b| b as u8), 0..2048),
            cut in 0usize..2048,
        ) {
            let cut = cut.min(bytes.len());
            let mut split = WireDecoder::new();
            let mut got = split.feed(&bytes[..cut]);
            got.extend(split.feed(&bytes[cut..]));
            let got_tail = split.finish();

            let mut whole = WireDecoder::new();
            let expect = whole.feed(&bytes);
            let expect_tail = whole.finish();

            prop_assert_eq!(&got, &expect);
            prop_assert_eq!(got_tail, expect_tail);
            prop_assert!(got.iter().filter(|r| r.is_err()).count() <= 1);
        }

        /// Truncating a valid stream anywhere either reports Truncated
        /// from finish() or errors on the partial frame — it never
        /// decodes frames that were not fully sent, beyond the intact
        /// prefix.
        #[test]
        fn truncation_never_fabricates_frames(
            count in 1usize..12,
            cut in 0usize..1 << 14,
        ) {
            let frames: Vec<Frame> = (0..count as u64)
                .map(|id| Frame::Alert(Box::new(build_alert(
                    id, id % 5, id * 60, "title", "svc",
                    Location::new("region-p", format!("dc-{}", id % 3)), 0, None,
                ))))
                .collect();
            let mut encoder = WireEncoder::new();
            let mut wire = Vec::new();
            let mut boundaries = vec![0usize];
            for frame in &frames {
                encoder.encode_into(frame, &mut wire);
                boundaries.push(wire.len());
            }
            let cut = cut % (wire.len() + 1);
            let mut decoder = WireDecoder::new();
            let got = decoder.feed(&wire[..cut]);
            let tail = decoder.finish();
            let decoded: Vec<&Frame> =
                got.iter().filter_map(|r| r.as_ref().ok()).collect();
            prop_assert!(decoded.len() <= frames.len());
            for (got, want) in decoded.iter().zip(frames.iter()) {
                prop_assert_eq!(*got, want);
            }
            if let Some(boundary) = boundaries.iter().position(|&b| b == cut) {
                // A cut on a frame boundary is a clean prefix: exactly
                // the complete frames decode, nothing dangles.
                prop_assert_eq!(decoded.len(), boundary);
                prop_assert_eq!(tail, None);
            } else if got.iter().all(Result::is_ok) {
                prop_assert_eq!(tail, Some(WireError::Truncated));
            }
        }
    }
}
