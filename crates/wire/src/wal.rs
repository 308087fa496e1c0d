//! The durable write-ahead log: length+CRC-framed binary segments.
//!
//! One log per cluster node or standalone daemon, one directory per
//! log, one segment file per window, one segment layout. A segment
//! starts with the magic header `AOWL` + version byte `0x02`
//! ([`WAL_MAGIC`], [`WAL_VERSION`]) and then speaks this crate's
//! frame codec: every record is a `[len varint][crc32][payload]` frame
//! (an alert, or the window boundary that seals the segment), with the
//! segment's own string table turning repeated
//! titles/services/locations into varint back-references. The table
//! resets at every rotation, so each segment is self-contained and
//! pruning stays a file unlink.
//!
//! [`replay`] reads exactly that layout. A non-empty segment without
//! the header is one torn record, and inside a segment any frame other
//! than an alert or a boundary ends trust in the rest of it.
//!
//! Durability model: every record reaches the OS in one `write` of its
//! own, with no user-space buffer in between, so a **process** crash
//! (`kill -9` included) loses nothing; the
//! `fsync` on window boundaries — of the sealed segment, then of the
//! log directory, so the segment's creation and the prune's unlinks
//! are durable too — is what bounds loss on a **power** failure to the
//! in-flight window. A write that fails is cut back off the segment,
//! so a failed append leaves neither a torn frame nor a leftover that
//! could land ahead of the next record: the log holds exactly the
//! appends that returned `Ok`. Replay stops trusting a segment at the
//! first framing/CRC failure and reports what it discarded — callers
//! account those alerts as dropped rather than resurrecting guesses.
//!
//! A log holds alerts and boundaries and nothing else. The online QoA
//! model belongs to the process's one merge point (a daemon's, a
//! cluster's) and lives in its own file beside the logs
//! ([`write_qoa_checkpoint`], [`read_qoa_checkpoint`]).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use alertops_model::Alert;

use crate::{Frame, WireDecoder, WireEncoder, WAL_MAGIC, WAL_VERSION};

/// The segment layout a [`Wal`] appends in — one variant, because v2
/// is the only format. Frozen-bench scaffolding: the enum,
/// [`Wal::open_with_format`] and `ClusterConfig::wal_format` survive
/// only because `crates/pipeline-bench` names them, and go with the
/// `EmergingMode`/`QoaMode` aliases when ROADMAP item 1(b) unfreezes
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WalFormat {
    /// `alertops-wire` binary frames behind the `AOWL` magic header.
    #[default]
    V2Binary,
}

/// Mutable writer state behind the [`Wal`]'s lock.
#[derive(Debug)]
struct WalState {
    /// The open segment, opened for appending.
    file: File,
    /// The open segment's length up to the end of its last whole
    /// record: where a failed write is cut back to.
    len: u64,
    /// Index of the open segment file.
    segment: u64,
    /// Records appended to the open segment so far.
    pending_records: u64,
    /// Sealed segments currently on disk.
    sealed: Vec<u64>,
    /// The open segment's frame encoder; its string table resets at
    /// every rotation, keeping segments self-contained.
    encoder: WireEncoder,
    /// Reusable frame buffer, so appends allocate nothing steady
    /// state.
    scratch: Vec<u8>,
}

impl WalState {
    /// Encodes one frame into the reusable scratch and writes it to the
    /// open segment in one `write_all`. A failed write is cut back off
    /// the segment and its new strings out of the encoder's table, so
    /// the segment ends on its last whole record and the next frame
    /// refers only to strings its reader has seen.
    fn write(&mut self, encode: impl FnOnce(&mut WireEncoder, &mut Vec<u8>)) -> io::Result<()> {
        self.scratch.clear();
        let table = self.encoder.table_len();
        encode(&mut self.encoder, &mut self.scratch);
        if let Err(e) = self.file.write_all(&self.scratch) {
            self.encoder.truncate_table(table);
            // Shrinking a file does not grow it, so this holds where
            // the write did not; the write's error is the one to report.
            let _ = self.file.set_len(self.len);
            return Err(e);
        }
        self.len += self.scratch.len() as u64;
        Ok(())
    }
}

/// Point-in-time depth of a log, for gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalDepth {
    /// Sealed window segments retained on disk.
    pub sealed_segments: u64,
    /// Records in the open (in-flight window) segment.
    pub pending_records: u64,
}

/// A cluster node's or a standalone daemon's write-ahead log. Appends
/// are serialized by an internal lock: the cluster calls from the one
/// thread that drives it, the daemon from whichever thread routes an
/// alert or runs a close.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    retain: usize,
    state: Mutex<WalState>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:010}.wal"))
}

/// Lists the segment indices present in `dir`, ascending.
fn segment_indices(dir: &Path) -> io::Result<Vec<u64>> {
    let mut indices = Vec::new();
    match fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let name = entry?.file_name();
                let name = name.to_string_lossy();
                if let Some(stem) = name
                    .strip_prefix("seg-")
                    .and_then(|s| s.strip_suffix(".wal"))
                {
                    if let Ok(index) = stem.parse::<u64>() {
                        indices.push(index);
                    }
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    indices.sort_unstable();
    Ok(indices)
}

/// The v2 segment header: the magic, then the version byte.
const HEADER: [u8; 5] = {
    let [a, o, w, l] = WAL_MAGIC;
    [a, o, w, l, WAL_VERSION]
};

/// Creates a fresh segment file and writes the v2 header in one write.
fn create_segment(dir: &Path, index: u64) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(segment_path(dir, index))?;
    file.write_all(&HEADER)?;
    Ok(file)
}

impl Wal {
    /// Opens (creating if needed, then `fsync`ing its parent) the log
    /// in `dir`, retaining at most `retain` sealed window segments.
    /// Existing segments are left in place and a fresh open segment is
    /// started after them. The restart protocol is: read back every log
    /// the restart needs ([`replay`]), then [`wipe`](Self::wipe) and
    /// open each and re-append what its replay handed back. One place
    /// runs the wipe and the open, `alertops_ingestd::Node::start`, for
    /// a daemon's restart and a cluster's spawn, rejoin and handoff.
    ///
    /// # Errors
    ///
    /// Filesystem errors pass through.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> io::Result<Self> {
        let dir = dir.into();
        if !dir.is_dir() {
            fs::create_dir_all(&dir)?;
            // The new directory's entry is durable once its parent is.
            let parent = dir
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            File::open(parent)?.sync_all()?;
        }
        let existing = segment_indices(&dir)?;
        let segment = existing.last().map_or(0, |last| last + 1);
        let file = create_segment(&dir, segment)?;
        Ok(Self {
            dir,
            retain,
            state: Mutex::new(WalState {
                file,
                len: HEADER.len() as u64,
                segment,
                pending_records: 0,
                sealed: existing,
                encoder: WireEncoder::new(),
                scratch: Vec::new(),
            }),
        })
    }

    /// [`open`](Self::open); the format argument has one value (see
    /// [`WalFormat`]).
    ///
    /// # Errors
    ///
    /// Filesystem errors pass through.
    pub fn open_with_format(
        dir: impl Into<PathBuf>,
        retain: usize,
        _format: WalFormat,
    ) -> io::Result<Self> {
        Self::open(dir, retain)
    }

    /// Removes every segment file in `dir` (the consume step of
    /// replay-and-rewrite).
    ///
    /// # Errors
    ///
    /// Filesystem errors pass through.
    pub fn wipe(dir: &Path) -> io::Result<()> {
        for index in segment_indices(dir)? {
            fs::remove_file(segment_path(dir, index))?;
        }
        Ok(())
    }

    /// The directory this log writes to.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one alert record, handing it to the OS in one write.
    ///
    /// # Errors
    ///
    /// Filesystem errors pass through. A failed append leaves nothing
    /// of the record in the log: it is unjournaled.
    pub fn append(&self, alert: &Alert) -> io::Result<()> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.write(|encoder, out| encoder.encode_alert_into(alert, out))?;
        state.pending_records += 1;
        Ok(())
    }

    /// Seals the in-flight window: appends the boundary record,
    /// `fsync`s, rotates to a fresh segment (resetting the
    /// string table), prunes sealed segments beyond the retained
    /// history, and `fsync`s the log directory. The window's records
    /// leave [`WalDepth::pending_records`] first: the caller closed the
    /// window, whether or not its seal reaches the disk.
    ///
    /// # Errors
    ///
    /// Filesystem errors pass through.
    pub fn boundary(&self, window: u64) -> io::Result<()> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.pending_records = 0;
        state.write(|encoder, out| encoder.encode_into(&Frame::Boundary { window }, out))?;
        state.file.sync_data()?;

        let sealed = state.segment;
        let next = sealed + 1;
        state.file = create_segment(&self.dir, next)?;
        state.len = HEADER.len() as u64;
        state.segment = next;
        state.encoder = WireEncoder::new();
        state.sealed.push(sealed);
        while state.sealed.len() > self.retain {
            let oldest = state.sealed.remove(0);
            fs::remove_file(segment_path(&self.dir, oldest))?;
        }
        // The segments' creations and the prune's unlinks are durable
        // once the directory is.
        File::open(&self.dir)?.sync_all()
    }

    /// Current depth, for the cluster's WAL gauges.
    #[must_use]
    pub fn depth(&self) -> WalDepth {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        WalDepth {
            sealed_segments: state.sealed.len() as u64,
            pending_records: state.pending_records,
        }
    }
}

/// What [`replay`] recovered from a log directory.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// The sealed windows in order: `(window sequence, alerts)`.
    pub windows: Vec<(u64, Vec<Alert>)>,
    /// Alerts journaled after the last boundary — the in-flight window
    /// at crash time.
    pub tail: Vec<Alert>,
    /// Records that failed framing/CRC/decode validation. Each one
    /// also discards the rest of its segment (everything after a torn
    /// record is untrustworthy).
    pub torn_records: u64,
    /// Boundary records whose window sequence was already sealed
    /// earlier in the log (a re-append bug or a replayed-then-crashed
    /// restart). Their alerts are merged into the first occurrence —
    /// counted, never dropped, never duplicated as windows.
    pub duplicate_boundaries: u64,
    /// Total alerts recovered (windows plus tail).
    pub recovered_alerts: u64,
}

/// The accumulating replay state, carried from segment to segment.
struct ReplayState {
    windows: Vec<(u64, Vec<Alert>)>,
    current: Vec<Alert>,
    torn_records: u64,
    duplicate_boundaries: u64,
}

impl ReplayState {
    fn seal(&mut self, window: u64) {
        let alerts = std::mem::take(&mut self.current);
        if let Some((_, existing)) = self.windows.iter_mut().find(|(w, _)| *w == window) {
            // A window seq sealed twice: keep one window, keep every
            // alert, count the anomaly.
            self.duplicate_boundaries += 1;
            existing.extend(alerts);
        } else {
            self.windows.push((window, alerts));
        }
    }

    /// Reads one segment file. An empty one is a crash between its
    /// creation and its header write, and holds nothing; any other
    /// without the header — a short header, an unknown version, a
    /// layout this reader does not speak — is one torn record.
    fn replay_segment(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let Some(frames) = bytes
            .strip_prefix(WAL_MAGIC.as_slice())
            .and_then(|rest| rest.strip_prefix(&[WAL_VERSION]))
        else {
            self.torn_records += 1;
            return;
        };
        let mut decoder = WireDecoder::new();
        for item in decoder.feed(frames) {
            match item {
                Ok(Frame::Alert(alert)) => self.current.push(*alert),
                Ok(Frame::Boundary { window }) => self.seal(window),
                // Any other frame kind has no business in a WAL
                // segment; treat it exactly like corruption.
                Ok(_) | Err(_) => {
                    self.torn_records += 1;
                    return;
                }
            }
        }
        // A partial frame at end of file is the torn tail of a crash
        // mid-write.
        if decoder.finish().is_some() {
            self.torn_records += 1;
        }
    }
}

/// Reads every segment in `dir` and reconstructs the journaled
/// windows. Tolerant by design: a missing directory is an empty log; a
/// torn or corrupt record ends trust in its segment (counted, the rest
/// of that segment skipped) but later segments are still read.
///
/// # Errors
///
/// Filesystem errors other than a missing directory pass through.
pub fn replay(dir: &Path) -> io::Result<WalReplay> {
    let mut state = ReplayState {
        windows: Vec::new(),
        current: Vec::new(),
        torn_records: 0,
        duplicate_boundaries: 0,
    };
    for index in segment_indices(dir)? {
        state.replay_segment(&fs::read(segment_path(dir, index))?);
    }
    let recovered_alerts = state
        .windows
        .iter()
        .map(|(_, w)| w.len() as u64)
        .sum::<u64>()
        + state.current.len() as u64;
    Ok(WalReplay {
        windows: state.windows,
        tail: state.current,
        torn_records: state.torn_records,
        duplicate_boundaries: state.duplicate_boundaries,
        recovered_alerts,
    })
}

/// The online QoA model's checkpoint inside its directory: one
/// `Frame::QoaState` frame, so the codec's length + CRC is the
/// integrity check.
const QOA_CHECKPOINT: &str = "qoa.ckpt";
const QOA_CHECKPOINT_TMP: &str = "qoa.ckpt.tmp";

/// Replaces `dir`'s QoA checkpoint file with `checkpoint` (a
/// serialized model) atomically: a reader finds the old checkpoint or
/// the new one, never a mix.
///
/// # Errors
///
/// Filesystem errors pass through.
pub fn write_qoa_checkpoint(dir: &Path, checkpoint: Vec<u8>) -> io::Result<()> {
    let frame = WireEncoder::new().encode(&Frame::QoaState(checkpoint));
    let tmp = dir.join(QOA_CHECKPOINT_TMP);
    let mut file = File::create(&tmp)?;
    file.write_all(&frame)?;
    file.sync_data()?;
    fs::rename(&tmp, dir.join(QOA_CHECKPOINT))?;
    // The rename is durable once its directory is.
    File::open(dir)?.sync_all()
}

/// Reads `dir`'s QoA checkpoint file back: `None` when there is no
/// file (a first start), `Some(None)` when it is anything but exactly
/// one intact `QoaState` frame — a torn or rotted one. Either way the
/// caller starts a fresh model and its next close replaces the file.
///
/// # Errors
///
/// Filesystem errors other than a missing file pass through.
pub fn read_qoa_checkpoint(dir: &Path) -> io::Result<Option<Option<Vec<u8>>>> {
    let bytes = match fs::read(dir.join(QOA_CHECKPOINT)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut decoder = WireDecoder::new();
    let mut frames = decoder.feed(&bytes);
    Ok(Some(
        match (frames.pop(), frames.is_empty(), decoder.finish()) {
            (Some(Ok(Frame::QoaState(checkpoint))), true, None) => Some(checkpoint),
            _ => None,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{AlertId, SimTime, StrategyId};

    fn alert(id: u64) -> Alert {
        Alert::builder(AlertId(id), StrategyId(id % 5))
            .title("haproxy process number warning")
            .service("Block Storage")
            .raised_at(SimTime::from_secs(id * 60))
            .build()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alertops-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_boundary_replay_roundtrips() {
        let dir = temp_dir("roundtrip");
        let wal = Wal::open(&dir, 8).unwrap();
        for id in 0..4 {
            wal.append(&alert(id)).unwrap();
        }
        wal.boundary(0).unwrap();
        for id in 4..6 {
            wal.append(&alert(id)).unwrap();
        }
        wal.boundary(1).unwrap();
        wal.append(&alert(6)).unwrap();
        assert_eq!(wal.depth().sealed_segments, 2);
        assert_eq!(wal.depth().pending_records, 1);

        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.windows.len(), 2);
        assert_eq!(replayed.windows[0].0, 0);
        assert_eq!(replayed.windows[0].1.len(), 4);
        assert_eq!(replayed.windows[1].0, 1);
        assert_eq!(replayed.windows[1].1, vec![alert(4), alert(5)]);
        assert_eq!(replayed.tail, vec![alert(6)]);
        assert_eq!(replayed.torn_records, 0);
        assert_eq!(replayed.recovered_alerts, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_segments_carry_the_magic_header() {
        let dir = temp_dir("magic");
        let wal = Wal::open(&dir, 8).unwrap();
        wal.append(&alert(1)).unwrap();
        drop(wal);
        let bytes = fs::read(segment_path(&dir, 0)).unwrap();
        assert_eq!(&bytes[..4], b"AOWL");
        assert_eq!(bytes[4], 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_qoa_record_in_an_old_segment_is_torn() {
        // The layout written before the model moved to the
        // coordinator's file: [alert, QoaState, boundary]. A node log
        // holds alerts and boundaries only, so the model frame ends
        // trust in the segment like any other stray frame kind.
        let dir = temp_dir("old-qoa");
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.push(WAL_VERSION);
        let mut encoder = WireEncoder::new();
        encoder.encode_alert_into(&alert(1), &mut bytes);
        encoder.encode_into(&Frame::QoaState(vec![9, 8, 7]), &mut bytes);
        encoder.encode_into(&Frame::Boundary { window: 4 }, &mut bytes);
        fs::write(segment_path(&dir, 0), bytes).unwrap();

        let replayed = replay(&dir).unwrap();
        assert!(replayed.windows.is_empty(), "the boundary is past the tear");
        assert_eq!(replayed.tail, vec![alert(1)]);
        assert_eq!(replayed.torn_records, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruning_keeps_the_rolling_history() {
        let dir = temp_dir("prune");
        let wal = Wal::open(&dir, 2).unwrap();
        for window in 0..5u64 {
            wal.append(&alert(window * 10)).unwrap();
            wal.boundary(window).unwrap();
        }
        assert_eq!(wal.depth().sealed_segments, 2);
        let replayed = replay(&dir).unwrap();
        let indices: Vec<u64> = replayed.windows.iter().map(|(w, _)| *w).collect();
        assert_eq!(indices, vec![3, 4], "only the retained windows remain");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_not_parsed() {
        let dir = temp_dir("torn");
        let wal = Wal::open(&dir, 8).unwrap();
        wal.append(&alert(1)).unwrap();
        wal.boundary(0).unwrap();
        wal.append(&alert(2)).unwrap();
        wal.append(&alert(3)).unwrap();
        drop(wal);
        // Simulate a crash mid-write: chop bytes off the open segment.
        let open = segment_path(&dir, 1);
        let len = fs::metadata(&open).unwrap().len();
        let file = OpenOptions::new().write(true).open(&open).unwrap();
        file.set_len(len - 9).unwrap();

        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.windows.len(), 1, "sealed window survives");
        assert_eq!(replayed.tail, vec![alert(2)], "intact tail record survives");
        assert_eq!(replayed.torn_records, 1, "the chopped record is counted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_future_version_is_quarantined_whole() {
        let dir = temp_dir("future");
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.push(WAL_VERSION + 1);
        bytes.extend_from_slice(b"whatever a future format writes");
        fs::write(segment_path(&dir, 0), bytes).unwrap();
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.torn_records, 1);
        assert_eq!(replayed.recovered_alerts, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Set in the child half of [`a_failed_write_leaves_no_torn_frame`]
    /// to the log directory it fills.
    const CAPPED_DIR: &str = "ALERTOPS_WAL_CAPPED_DIR";

    fn alert_with(id: u64, title: &str, service: &str) -> Alert {
        Alert::builder(AlertId(id), StrategyId(id % 5))
            .title(title)
            .service(service)
            .raised_at(SimTime::from_secs(id * 60))
            .build()
    }

    /// A failed write leaves the log as if it had never been tried: no
    /// torn frame, no leftover landing ahead of the next record, no
    /// back-reference to a string only the failed frame carried. The
    /// test re-runs itself as a child whose files are capped at 512
    /// bytes (`ulimit -f 1`, in 512-byte blocks) with `SIGXFSZ`
    /// ignored, so a write past the cap fails with `EFBIG` instead of
    /// killing the process.
    #[cfg(unix)]
    #[test]
    fn a_failed_write_leaves_no_torn_frame() {
        if let Some(dir) = std::env::var_os(CAPPED_DIR) {
            return fill_past_the_cap(Path::new(&dir));
        }
        let dir = temp_dir("capped");
        let out = std::process::Command::new("sh")
            .args(["-c", r#"trap '' XFSZ; ulimit -f 1; exec "$0" "$@""#])
            .arg(std::env::current_exe().expect("the test binary's path"))
            .args(["--exact", "wal::tests::a_failed_write_leaves_no_torn_frame"])
            .args(["--nocapture", "--test-threads=1"])
            .env(CAPPED_DIR, &dir)
            .output()
            .expect("sh runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "the capped child failed:\n{stdout}\n{stderr}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The child half: appends under the 512-byte cap until appends
    /// fail, then replays exactly the appends that returned `Ok`.
    fn fill_past_the_cap(dir: &Path) {
        let wal = Wal::open(dir, 8).unwrap();
        let mut journaled = Vec::new();
        let mut append = |alert: Alert| {
            let ok = wal.append(&alert).is_ok();
            if ok {
                journaled.push(alert);
            }
            ok
        };
        for id in 0..4 {
            assert!(append(alert_with(id, "disk full", "svc")));
        }
        // A ~470-byte frame crosses the cap part-way through its write,
        // registering two new strings on the way.
        assert!(!append(alert_with(4, &"x".repeat(450), "fresh")));
        // A short frame naming one of them fits in what is left.
        assert!(append(alert_with(5, "disk full", "fresh")));
        // Then short frames until one crosses the cap again.
        let mut id = 6;
        while append(alert_with(id, "disk full", "svc")) {
            id += 1;
            assert!(id < 100, "the cap never bit");
        }
        let replayed = replay(dir).unwrap();
        assert_eq!(replayed.torn_records, 0);
        assert!(replayed.windows.is_empty());
        assert_eq!(replayed.tail, journaled);
        assert!(fs::metadata(segment_path(dir, 0)).unwrap().len() <= 512);
    }

    #[test]
    fn reopen_continues_after_existing_segments() {
        let dir = temp_dir("reopen");
        {
            let wal = Wal::open(&dir, 8).unwrap();
            wal.append(&alert(1)).unwrap();
            wal.boundary(0).unwrap();
        }
        let wal = Wal::open(&dir, 8).unwrap();
        wal.append(&alert(2)).unwrap();
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.windows.len(), 1);
        assert_eq!(replayed.tail, vec![alert(2)]);
        drop(wal);
        Wal::wipe(&dir).unwrap();
        assert_eq!(replay(&dir).unwrap().recovered_alerts, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
