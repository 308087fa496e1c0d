//! WAL wire format **v1**, read-only: length+CRC-framed NDJSON lines.
//!
//! This is the segment layout the log spoke before the binary codec
//! (`alertops-wire`) existed — one record per line:
//!
//! ```text
//! <len:08x> <crc32:08x> <json>\n
//! ```
//!
//! where `len` is the byte length of `<json>` and `crc32` its IEEE
//! CRC-32. Nothing writes it any more; [`unframe`] lives on so that
//! segments left behind by a pre-v2 incarnation keep replaying
//! byte-identically — [`crate::wal::replay`] sniffs the format per
//! segment and routes v1 segments here, and the restart that replayed
//! them rewrites the log as v2.

use alertops_wire::crc32;

use crate::wal::WalRecord;

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

    /// Lines exactly as the last v1 writer framed them (captured before
    /// it was removed): the compatibility contract is these bytes, not
    /// whatever today's serializer would produce.
    const GOLDEN_ALERT: &str = concat!(
        "000000cb 2187d45f ",
        r#"{"alert":{"id":7,"strategy":2,"title":"","severity":"warning","service_name":"","#,
        r#""microservice":0,"location":{"region":"","dc":"","instance":null},"raised_at":420,"#,
        r#""state":"active","processing_time":null}}"#,
    );
    const GOLDEN_BOUNDARY: &str = r#"00000019 4ce0f72c {"boundary":{"window":3}}"#;

    #[test]
    fn golden_lines_unframe_and_reject_corruption() {
        let alert = Alert::builder(AlertId(7), StrategyId(2))
            .raised_at(SimTime::from_secs(420))
            .build();
        assert_eq!(
            unframe(GOLDEN_ALERT.as_bytes()),
            Some(WalRecord::Alert(alert))
        );
        assert_eq!(
            unframe(GOLDEN_BOUNDARY.as_bytes()),
            Some(WalRecord::Boundary { window: 3 })
        );
        // Flip one payload byte: CRC must catch it.
        let mut bad = GOLDEN_ALERT.as_bytes().to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x20;
        assert_eq!(unframe(&bad), None);
        // Truncate: length must catch it.
        let cut = &GOLDEN_ALERT.as_bytes()[..GOLDEN_ALERT.len() - 1];
        assert_eq!(unframe(cut), None);
    }

    #[test]
    fn v1_lines_never_start_with_the_v2_magic() {
        let line = GOLDEN_BOUNDARY.as_bytes();
        assert!(!line.starts_with(&alertops_wire::WAL_MAGIC));
        assert!(line[..8].iter().all(u8::is_ascii_hexdigit));
    }
}
