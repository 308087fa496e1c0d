//! WAL wire format **v1**: length+CRC-framed NDJSON lines.
//!
//! This is the segment layout the log spoke before the binary codec
//! (`alertops-wire`) existed — one record per line:
//!
//! ```text
//! <len:08x> <crc32:08x> <json>\n
//! ```
//!
//! where `len` is the byte length of `<json>` and `crc32` its IEEE
//! CRC-32. It lives on for two reasons: **replay compatibility**
//! (segments written by a pre-v2 incarnation must keep replaying
//! byte-identically — [`crate::wal::replay`] sniffs the format per
//! segment and routes v1 segments here) and **benchmarking** (a
//! [`crate::Wal`] opened with [`crate::WalFormat::V1Json`] appends in
//! this format, which is how `benches/codec.rs` measures the
//! journaling tax the binary format removes).
//!
//! This module is the only place on the WAL/handoff path allowed to
//! re-serialize records through `serde_json` — the determinism audit
//! enforces that boundary.

use alertops_wire::crc32;

use crate::wal::WalRecord;

/// Frames one record as its v1 wire line (without trailing newline).
pub(crate) fn frame(record: &WalRecord) -> String {
    let json = serde_json::to_string(record).expect("WAL records always serialize");
    format!("{:08x} {:08x} {json}", json.len(), crc32(json.as_bytes()))
}

/// Parses one v1 wire line back into a record. `None` means the line
/// is torn or corrupt (bad framing, length mismatch, CRC mismatch, or
/// invalid JSON).
pub(crate) fn unframe(line: &[u8]) -> Option<WalRecord> {
    // "llllllll cccccccc j..." — header is fixed-width ASCII.
    if line.len() < 18 || line[8] != b' ' || line[17] != b' ' {
        return None;
    }
    let header = std::str::from_utf8(&line[..17]).ok()?;
    let len = usize::from_str_radix(&header[..8], 16).ok()?;
    let crc = u32::from_str_radix(&header[9..17], 16).ok()?;
    let json = &line[18..];
    if json.len() != len || crc32(json) != crc {
        return None;
    }
    serde_json::from_str(std::str::from_utf8(json).ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{Alert, AlertId, SimTime, StrategyId};

    fn alert(id: u64) -> Alert {
        Alert::builder(AlertId(id), StrategyId(id % 5))
            .raised_at(SimTime::from_secs(id * 60))
            .build()
    }

    #[test]
    fn frames_roundtrip_and_reject_corruption() {
        let record = WalRecord::Alert(alert(7));
        let line = frame(&record);
        assert_eq!(unframe(line.as_bytes()), Some(record));
        // Flip one payload byte: CRC must catch it.
        let mut bad = line.clone().into_bytes();
        let last = bad.len() - 1;
        bad[last] ^= 0x20;
        assert_eq!(unframe(&bad), None);
        // Truncate: length must catch it.
        assert_eq!(unframe(&line.as_bytes()[..line.len() - 1]), None);
    }

    #[test]
    fn v1_lines_never_start_with_the_v2_magic() {
        let line = frame(&WalRecord::Boundary { window: 3 });
        assert!(!line.as_bytes().starts_with(&alertops_wire::WAL_MAGIC));
        assert!(line.as_bytes()[..8].iter().all(u8::is_ascii_hexdigit));
    }
}
