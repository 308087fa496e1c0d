//! One frame vocabulary, two encodings.
//!
//! [`Frame`], [`AckFrame`] and [`ChaosCmd`] are the only frame and ack
//! types in the system: ingress traffic, WAL segment records and the
//! QoA checkpoint file are all `Frame`s. This crate also defines their
//! **binary** encoding ([`WireEncoder`] / [`WireDecoder`]), which the
//! log ([`wal`], kept by a daemon and by each cluster node alike) and
//! the checkpoint file always speak and ingress speaks with
//! `--wire binary`. The other encoding,
//! **NDJSON**, is ingress-only and lives in `alertops-ingestd`'s
//! `codec` module as a line ⇄ `Frame` adapter; past either decoder
//! nothing knows which one a connection used ([`WireFormat`] picks it
//! per daemon, NDJSON by default).
//!
//! The binary encoding exists to kill the two steady-state costs of
//! JSON re-serialization: the per-alert `String` round trip, and
//! re-shipping the same few thousand distinct title/service/location
//! strings once per alert.
//!
//! # Frame layout
//!
//! A stream is a sequence of frames. Each frame is:
//!
//! ```text
//! [len: varint]  [crc32: u32 LE]  [payload: len bytes]
//! ```
//!
//! where `len` is the payload length, `crc32` is the IEEE CRC-32 of
//! the payload ([`crc32`]), and the payload is a one-byte tag followed
//! by the tag's body:
//!
//! | tag | frame                                     |
//! |-----|-------------------------------------------|
//! | 1   | [`Frame::Alert`]                          |
//! | 2   | [`Frame::Boundary`] (WAL window seal)     |
//! | 3   | [`Frame::Chaos`] ([`ChaosCmd`] sub-tag)   |
//! | 4   | reserved: decodes as malformed            |
//! | 5   | [`Frame::Flush`]                          |
//! | 6   | [`Frame::Shutdown`]                       |
//! | 7   | [`Frame::Sync`]                           |
//! | 8   | [`Frame::Ack`] ([`AckFrame`] sub-tag)     |
//! | 9   | [`Frame::QoaState`] (opaque checkpoint)   |
//!
//! Integers are LEB128 varints ([`varint`]). Strings ride the
//! stream's string table: the first occurrence travels as a literal
//! and implicitly assigns the next dense id on both ends, later
//! occurrences travel as a varint back-reference — the table itself is
//! never shipped. A table registers at most [`WIRE_TABLE_CAP`] strings
//! of [`WIRE_TABLE_BYTE_CAP`] bytes in all; past either cap a string
//! travels as a literal that assigns no id. See
//! [`codec`] for the exact string marker bytes and the decoder's
//! corruption semantics (a bad frame poisons the stream: the length
//! prefix can no longer be trusted, so there is no resync).
//!
//! # Versioning
//!
//! This layout is **wire format v2** and the one WAL format. Every WAL
//! segment starts with the magic [`WAL_MAGIC`] (`AOWL`) followed by the
//! version byte [`WAL_VERSION`]; replay treats a segment with any other
//! start as torn.

pub mod codec;
pub mod frame;
mod table;
pub mod varint;
pub mod wal;

pub use codec::{crc32, WireDecoder, WireEncoder, WireError, MAX_FRAME_LEN};
pub use frame::{AckFrame, ChaosCmd, Frame};
pub use table::{WIRE_TABLE_BYTE_CAP, WIRE_TABLE_CAP};

/// Magic prefix of a binary (v2) WAL segment.
pub const WAL_MAGIC: [u8; 4] = *b"AOWL";

/// Wire/WAL format version this crate encodes.
pub const WAL_VERSION: u8 = 2;

/// The encodings an ingress connection can speak. NDJSON is the daemon
/// default; binary is opt-in (`--wire binary`) and what
/// `pipeline-bench`'s `steady-wire` workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireFormat {
    /// One JSON frame per line — human-readable.
    #[default]
    Ndjson,
    /// The length+CRC binary framing this crate implements.
    Binary,
}

impl WireFormat {
    /// The stable lowercase label (`ndjson` / `binary`) used by CLI
    /// flags and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WireFormat::Ndjson => "ndjson",
            WireFormat::Binary => "binary",
        }
    }
}

impl std::str::FromStr for WireFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ndjson" | "json" => Ok(WireFormat::Ndjson),
            "binary" | "bin" => Ok(WireFormat::Binary),
            other => Err(format!("unknown wire format {other:?} (ndjson|binary)")),
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_format_labels_roundtrip() {
        for format in [WireFormat::Ndjson, WireFormat::Binary] {
            assert_eq!(format.label().parse::<WireFormat>(), Ok(format));
            assert_eq!(format.to_string(), format.label());
        }
        assert_eq!("bin".parse::<WireFormat>(), Ok(WireFormat::Binary));
        assert!("carrier-pigeon".parse::<WireFormat>().is_err());
        assert_eq!(WireFormat::default(), WireFormat::Ndjson);
    }
}
