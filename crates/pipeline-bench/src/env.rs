//! The environment stamp printed with every run, the fixed CPU kernel
//! that records host drift, and the per-pid scratch directory.
//!
//! Nothing here rescales a result. `calib_*` and `steal_share` exist so
//! that a noisy run can be *explained*; the numbers stand as measured.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use crate::procfs;

/// Where and how the run happened.
#[derive(Debug, Clone)]
pub struct EnvStamp {
    /// CPU model string.
    pub cpu_model: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// `rustc -V` of the compiler that built the binary.
    pub rustc: &'static str,
    /// Cargo profile the binary was built with.
    pub profile: &'static str,
    /// Git revision of the working tree, or `unknown` outside a clone.
    pub git_rev: String,
    /// File-system type under the scratch directory.
    pub scratch_fs: String,
}

impl EnvStamp {
    /// Collects the stamp; `scratch` is the run's scratch directory.
    #[must_use]
    pub fn collect(scratch: &Path) -> Self {
        Self {
            cpu_model: procfs::cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: env!("PIPELINE_BENCH_RUSTC"),
            profile: env!("PIPELINE_BENCH_PROFILE"),
            git_rev: git_rev(),
            scratch_fs: procfs::fs_type_of(scratch),
        }
    }

    /// One line for run and selfcheck headers.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "env: cpu=\"{}\" nproc={} rustc=\"{}\" profile={} git={} scratch_fs={}",
            self.cpu_model, self.nproc, self.rustc, self.profile, self.git_rev, self.scratch_fs
        )
    }
}

/// The checked-out revision, read from `.git` without running git (the
/// benchmark starts no process it does not have to).
fn git_rev() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    if rev.len() >= 12 {
        rev[..12].to_owned()
    } else {
        "unknown".to_owned()
    }
}

/// Times a fixed CPU kernel — a dependent multiply-xorshift chain that
/// fits in registers, so it measures core speed and nothing else — and
/// returns milliseconds. The chain length is a constant: the work is
/// the same on every host and every commit.
#[must_use]
pub fn calibrate_ms() -> f64 {
    const STEPS: u64 = 40_000_000;
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for i in 0..STEPS {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Share of host CPU time stolen by the hypervisor between two
/// `/proc/stat` readings.
#[must_use]
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            #[allow(clippy::cast_precision_loss)]
            let share = (s1 - s0) as f64 / (t1 - t0) as f64;
            share
        }
        _ => 0.0,
    }
}

/// A scratch directory unique to this process, removed on drop — which
/// covers every exit path that unwinds or returns, a failed verify
/// included.
///
/// It lives on tmpfs when `/dev/shm` is writable, so that a WAL
/// `sync_data` costs a syscall and not a device flush: device fsync
/// latency is not ours to measure in a sandbox, and on ext4 it alone
/// moved `cluster-journal` by a factor of two between runs. Without a
/// writable `/dev/shm` it falls back to the build directory, next to
/// the running binary. The file system it landed on is stamped in every
/// run's output.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

/// The build directory: where the running binary lives, or `target/`
/// under the current directory when that is unknown. The scratch
/// fallback and the spans files of traced runs go here; git already
/// ignores it.
#[must_use]
pub fn build_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
}

impl Scratch {
    /// Creates `/dev/shm/pipeline-bench-<pid>-<n>` (`n` counts the
    /// scratch directories of this process), or the same name in
    /// [`build_dir`] when `/dev/shm` cannot be written.
    ///
    /// # Errors
    ///
    /// Filesystem errors of the fallback pass through.
    pub fn create() -> std::io::Result<Self> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("pipeline-bench-{}-{n}", std::process::id());
        let make = |base: &Path| {
            let path = base.join(&name);
            // A stale directory from a recycled pid would leak a
            // previous run's WAL into this one.
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).map(|()| Self { path })
        };
        make(Path::new("/dev/shm")).or_else(|_| make(&build_dir()))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_per_pid_and_removed_on_drop() {
        let scratch = Scratch::create().expect("scratch dir");
        let path = scratch.path().to_path_buf();
        let name = path
            .file_name()
            .expect("named")
            .to_string_lossy()
            .into_owned();
        assert!(name.starts_with(&format!("pipeline-bench-{}-", std::process::id())));
        fs::write(path.join("probe"), b"x").expect("writable");
        drop(scratch);
        assert!(!path.exists(), "scratch must be removed on drop");
    }

    #[test]
    fn steal_share_is_a_ratio_of_deltas() {
        assert_eq!(steal_share(Some((10, 100)), Some((20, 200))), 0.1);
        assert_eq!(steal_share(None, Some((1, 2))), 0.0);
        assert_eq!(steal_share(Some((1, 5)), Some((1, 5))), 0.0);
    }
}
