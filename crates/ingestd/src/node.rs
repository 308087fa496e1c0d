//! The node: a write-ahead log and a [`ShardPool`], one per daemon and
//! one per cluster range. How a node starts over its log, how a route
//! journals then queues (and sheds on a failed append), and how history
//! is re-ingested are decided here and nowhere else.

use std::io;
use std::path::Path;

use alertops_core::StreamingGovernor;
use alertops_model::Alert;
use alertops_wire::wal::Wal;

use crate::config::IngestdConfig;
use crate::pool::ShardPool;

/// A node: its log (`None` for a daemon without one) and its shards
/// (`None` once killed). Dropping it joins the workers; the log's files
/// stay on disk.
#[derive(Debug)]
pub struct Node {
    wal: Option<Wal>,
    pool: Option<ShardPool>,
}

/// What [`Node::restore_history`] counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restored {
    /// Failed appends (each shed its alert) and seals.
    pub write_errors: u64,
    /// The pool's `dropped` count after the sealed windows: overflow
    /// shedding of alerts already accounted at their original close.
    pub history_dropped: u64,
}

impl Node {
    /// Spawns the node's workers ([`ShardPool::spawn`]), then, given a
    /// log directory, wipes its segments and opens a fresh log there.
    /// The holder reads back every log it needs
    /// ([`alertops_wire::wal::replay`]) before it starts any node.
    ///
    /// # Errors
    ///
    /// Config validation ([`io::ErrorKind::InvalidInput`]), spawn and
    /// filesystem errors; a failed spawn leaves the log untouched.
    pub fn start(
        config: &IngestdConfig,
        dir: Option<&Path>,
        make_governor: &mut dyn FnMut(usize, usize) -> StreamingGovernor,
    ) -> io::Result<Self> {
        let pool = Some(ShardPool::spawn(config, make_governor)?);
        // One sealed window past the rolling history: replay needs the
        // previous window's scope too, so the last re-published window's
        // new/resolved findings come back byte-identical.
        let retain = config.streaming.history_windows.max(1) + 1;
        let fresh_log = |dir| Wal::wipe(dir).and_then(|()| Wal::open(dir, retain));
        let wal = dir.map(fresh_log).transpose()?;
        Ok(Self { wal, pool })
    }

    /// The node's log, if it keeps one.
    #[must_use]
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// The node's shards, while it is alive.
    #[must_use]
    pub fn pool(&self) -> Option<&ShardPool> {
        self.pool.as_ref()
    }

    /// Whether the node has shards.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.pool.is_some()
    }

    /// `kill -9`, in process: the workers stop and what they held is
    /// gone; the log stays.
    pub fn kill(&mut self) {
        self.pool = None;
    }

    /// Journals, then queues, one alert, so no queue ever holds an
    /// unjournaled alert. A dead node only journals it.
    ///
    /// # Errors
    ///
    /// A failed append sheds the alert (no shard sees it); the holder
    /// counts it `dropped` and a write error in its own ledger.
    pub fn route(&self, alert: Alert) -> io::Result<()> {
        if let Some(wal) = &self.wal {
            wal.append(&alert)?;
        }
        if let Some(pool) = &self.pool {
            pool.route(alert);
        }
        Ok(())
    }

    /// Re-ingests history into a fresh node: each sealed `(seq, window)`
    /// routes through [`route`](Self::route), closes on this node alone
    /// with its deltas dropped (it was published before) and seals the
    /// log at `seq`; then `tail` routes as the window in flight. A failed
    /// append or seal is counted and the re-ingest goes on.
    ///
    /// # Errors
    ///
    /// The node's workers are gone.
    pub fn restore_history(
        &self,
        windows: Vec<(u64, Vec<Alert>)>,
        tail: Vec<Alert>,
    ) -> io::Result<Restored> {
        let gone = || io::Error::other("shard workers died during WAL replay");
        let pool = self.pool.as_ref().ok_or_else(gone)?;
        let mut write_errors = 0;
        for (seq, alerts) in windows {
            for alert in alerts {
                write_errors += u64::from(self.route(alert).is_err());
            }
            // The window's documents were read at its original close.
            if pool.begin_close(seq, None).is_none() || pool.collect(seq, &mut Vec::new()).is_none()
            {
                return Err(gone());
            }
            let sealed = self.wal.as_ref().map_or(Ok(()), |wal| wal.boundary(seq));
            write_errors += u64::from(sealed.is_err());
        }
        let history_dropped = pool.counters().dropped.get();
        for alert in tail {
            write_errors += u64::from(self.route(alert).is_err());
        }
        Ok(Restored {
            write_errors,
            history_dropped,
        })
    }
}
