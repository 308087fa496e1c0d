//! The status socket: one document per connection, selected by an
//! optional request line.
//!
//! The protocol is versioned by a single request line ending in `\n`:
//!
//! ```text
//! $ printf 'status\n'  | nc 127.0.0.1 4502   # JSON status document
//! $ printf 'metrics\n' | nc 127.0.0.1 4502   # Prometheus exposition
//! $ printf 'healthz\n' | nc 127.0.0.1 4502   # "ok windows=N ingested=M" liveness line
//! ```
//!
//! Backward compatibility: clients that connect and read without
//! sending anything (the original protocol) still get the JSON status
//! document — the daemon waits briefly for a request line and falls
//! back to `status` on timeout, EOF, or a blank line. An unknown verb
//! is answered with a single `error: ...` line.

use serde::{Deserialize, Serialize};

use alertops_core::GovernanceSnapshot;

use crate::counters::CounterSnapshot;

/// A parsed status-socket request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatusRequest {
    /// Serve the JSON status document (also the legacy default for
    /// bare connections and blank lines).
    Status,
    /// Serve the Prometheus text exposition.
    Metrics,
    /// Serve the one-line liveness answer (`ok windows=N ingested=M`).
    /// Deliberately cheap: no JSON serialization, no snapshot clone —
    /// a load balancer probing every node of a cluster each second
    /// should cost two atomic loads, not a serialized governance
    /// document.
    Healthz,
    /// An unrecognized verb, answered with an error line.
    Unknown(String),
}

impl StatusRequest {
    /// Parses one request line (without its newline). Blank lines mean
    /// the legacy default. Verbs are case-insensitive.
    #[must_use]
    pub fn parse(line: &str) -> Self {
        let verb = line.trim();
        if verb.is_empty() || verb.eq_ignore_ascii_case("status") {
            StatusRequest::Status
        } else if verb.eq_ignore_ascii_case("metrics") {
            StatusRequest::Metrics
        } else if verb.eq_ignore_ascii_case("healthz") {
            StatusRequest::Healthz
        } else {
            StatusRequest::Unknown(verb.to_string())
        }
    }
}

/// The document served for a `status` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Ingestion counters at the time of the request.
    pub counters: CounterSnapshot,
    /// The most recently merged governance snapshot; `None` until the
    /// first window closes.
    pub snapshot: Option<GovernanceSnapshot>,
}

impl StatusReport {
    /// Serializes the report as the wire document.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("status reports always serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_without_snapshot() {
        let report = StatusReport {
            counters: CounterSnapshot {
                ingested: 10,
                delivered: 7,
                dropped: 1,
                backpressure_waits: 1,
                decode_errors: 2,
                quarantined_invalid_json: 1,
                quarantined_invalid_utf8: 0,
                quarantined_unknown_control: 0,
                quarantined_invalid_alert: 1,
                quarantined_oversized: 0,
                quarantined_corrupt_frame: 0,
                windows_closed: 3,
                degraded_windows: 1,
                shard_restarts: 1,
                last_window_micros: 450,
                queue_depths: vec![0, 4],
            },
            snapshot: None,
        };
        let back: StatusReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(report, back);
        assert!(back.snapshot.is_none());
    }

    #[test]
    fn request_parsing_defaults_to_status() {
        assert_eq!(StatusRequest::parse(""), StatusRequest::Status);
        assert_eq!(StatusRequest::parse("  \r"), StatusRequest::Status);
        assert_eq!(StatusRequest::parse("status"), StatusRequest::Status);
        assert_eq!(StatusRequest::parse("STATUS"), StatusRequest::Status);
        assert_eq!(StatusRequest::parse("metrics"), StatusRequest::Metrics);
        assert_eq!(StatusRequest::parse("Metrics\r"), StatusRequest::Metrics);
        assert_eq!(StatusRequest::parse("healthz"), StatusRequest::Healthz);
        assert_eq!(StatusRequest::parse("HEALTHZ\r"), StatusRequest::Healthz);
        assert_eq!(
            StatusRequest::parse("gimme"),
            StatusRequest::Unknown("gimme".into())
        );
    }
}
