//! What the benchmark reads from `/proc`: CPU time of the process and
//! of the generator thread, peak RSS, syscall and context-switch
//! counts, host steal, and the file-system type of the scratch
//! directory. Everything returns `None`/zero where procfs is missing,
//! so the benchmark still runs (with those metrics blank) elsewhere.

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for `utime`/`stime`. `USER_HZ` is 100
/// on every Linux ABI; reading it properly needs `sysconf`, which std
/// does not expose.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in seconds from a `/proc/.../stat` line.
fn cpu_seconds_of(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces and parentheses;
    // fields are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // rest starts at field 3 (state); utime is field 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    #[allow(clippy::cast_precision_loss)]
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// CPU seconds (user + system) of the whole process, every thread
/// included, dead ones too.
#[must_use]
pub fn process_cpu_seconds() -> Option<f64> {
    cpu_seconds_of(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// CPU seconds (user + system) of the calling thread — the generator,
/// whose cost is subtracted from the process total.
#[must_use]
pub fn thread_cpu_seconds() -> Option<f64> {
    cpu_seconds_of(&fs::read_to_string("/proc/thread-self/stat").ok()?)
}

/// The value of a `Key:   <n> ...` line.
fn keyed_u64(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) in bytes.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    keyed_u64(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM").map(|kb| kb * 1024)
}

/// `write`-family syscalls issued by the process so far (`syscw`).
#[must_use]
pub fn write_syscalls() -> Option<u64> {
    keyed_u64(&fs::read_to_string("/proc/self/io").ok()?, "syscw")
}

/// Voluntary + involuntary context switches summed over the live
/// threads of the process.
#[must_use]
pub fn context_switches() -> Option<u64> {
    let mut total = 0;
    for task in fs::read_dir("/proc/self/task").ok()? {
        let status = fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        total += keyed_u64(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + keyed_u64(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Some(total)
}

/// Host CPU accounting from the first line of `/proc/stat`:
/// `(steal, total)` in ticks. The share of steal between two readings
/// says how much of the machine a neighbour took.
#[must_use]
pub fn host_steal_and_total() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// The CPU model string, for the environment stamp.
#[must_use]
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
#[must_use]
pub fn fs_type_of(path: &Path) -> String {
    let Ok(info) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mut best: Option<(usize, &str)> = None;
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <opts>"
        let mut halves = line.splitn(2, " - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let (Some(mount), Some(fs_type)) = (
            left.split_ascii_whitespace().nth(4),
            right.split_ascii_whitespace().next(),
        ) else {
            continue;
        };
        if path.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), fs_type));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, t)| t.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_a_hostile_command_name() {
        let line = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(cpu_seconds_of(line), Some(2.0));
        assert_eq!(cpu_seconds_of("garbage"), None);
    }

    #[test]
    fn keyed_lines_parse() {
        let text = "Name:\tx\nVmHWM:\t   2048 kB\nsyscw: 17\n";
        assert_eq!(keyed_u64(text, "VmHWM"), Some(2048));
        assert_eq!(keyed_u64(text, "syscw"), Some(17));
        assert_eq!(keyed_u64(text, "VmPeak"), None);
    }
}
