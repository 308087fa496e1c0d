//! The write-ahead hook: durability as a trait, policy elsewhere.
//!
//! The daemon itself stays storage-free — its crash story is the
//! in-memory commit/rollback of [`crate::worker`]. Deployments
//! that need *durable* losslessness (a node restart with no live peer
//! holding state) hand [`crate::Ingestd::spawn_with_journal`] a
//! [`WindowJournal`]: the router calls [`WindowJournal::record`] for
//! every accepted alert **before** enqueueing it to a shard
//! (write-ahead: an alert is never in flight without being journaled),
//! and the coordinator calls [`WindowJournal::window_closed`] after
//! each merge (the durability point: everything recorded before it has
//! been folded into governance state, so the journal may seal the
//! window's records and prune beyond the rolling history).
//!
//! The workspace's one implementation is `alertops-cluster`'s
//! `WalJournal` over its write-ahead log (length+CRC-framed
//! `alertops-wire` binary segments). Journal calls happen on the hot
//! ingress path — implementations buffer or flush at their own
//! risk/latency trade-off, but must be cheap and must never panic.

use alertops_model::Alert;

/// Observer of the daemon's accept/close cycle for write-ahead
/// durability. See the module docs for the exact call points.
pub trait WindowJournal: Send + Sync + std::fmt::Debug {
    /// One alert was accepted for routing (counted as ingested).
    /// Called before the alert is enqueued anywhere.
    fn record(&self, alert: &Alert);

    /// The window with this coordinator sequence number closed: every
    /// alert recorded before this call is folded into the published
    /// snapshot (or accounted dropped/degraded).
    fn window_closed(&self, seq: u64);
}
