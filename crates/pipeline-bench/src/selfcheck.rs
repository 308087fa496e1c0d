//! `pipeline-bench selfcheck`: does the benchmark agree with itself?
//!
//! Two interleaved sets (A, B, A, B, …) of `N ≥ 5` untraced runs per
//! workload at one seed, plus one traced run per set. Each run is a
//! fresh process of this same binary, waited for before the next
//! starts. The check fails when
//!
//! * the two sets' medians of an end-to-end metric differ by more than
//!   the metric's bound,
//! * either set's `(q3 − q1) ÷ median` exceeds the metric's bound (the
//!   rule the acceptance driver applies to its ten-seed sets) — the
//!   four timing metrics ([`DEMOTED`]) are tabulated against the same
//!   two rules and marked, but do not fail the check,
//! * `output_digest` differs between any two runs, or
//! * a count (`proc.allocs_per_alert`, `proc.alloc_bytes_per_alert`,
//!   `proc.write_syscalls_per_kalert`) differs between the two traced
//!   runs by more than [`COUNT_TOLERANCE`]. They repeat to the last
//!   digit where no batch size depends on thread timing
//!   (`cluster-journal`); with two shards draining queues, or a socket
//!   read chunking the stream, a buffer now and then grows one step
//!   further and the sixth digit moves. `proc.ctx_switches_per_kalert`
//!   is printed beside them but not held: the scheduler, not the
//!   program, decides it.

use std::io;
use std::process::Command;

use serde_json::Value;

use crate::env::{EnvStamp, Scratch};
use crate::stats;
use crate::workloads::{Workload, WORKLOADS};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct Declared {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The gated end-to-end metrics, in report order.
pub const END_TO_END: [Declared; 2] = [
    Declared {
        name: "rss_peak_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
    Declared {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// The four timing metrics, with the bounds the issue gave them. On the
/// host this was built on they do not hold those bounds at any `N` the
/// time cap allows (see the README), so under the issue's fallback they
/// are declared per layer under the same names: an untraced run still
/// measures and prints them, a traced run carries them in its result
/// line, and the selfcheck tabulates them against these bounds without
/// failing on them.
pub const DEMOTED: [Declared; 4] = [
    Declared {
        name: "alerts_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
    },
    Declared {
        name: "publish_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.10,
    },
    Declared {
        name: "publish_p90_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.15,
    },
    Declared {
        name: "cpu_s_per_malert",
        unit: "s",
        higher_is_better: false,
        bound: 0.10,
    },
];

/// Relative difference two traced runs' counts may show.
pub const COUNT_TOLERANCE: f64 = 1e-3;

/// Per-layer counts that must repeat between traced runs.
const HELD_COUNTS: [&str; 3] = [
    "proc.allocs_per_alert",
    "proc.alloc_bytes_per_alert",
    "proc.write_syscalls_per_kalert",
];

/// What one child run printed.
#[derive(Debug)]
struct ChildRun {
    digest: String,
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, value)| value)
    }
}

/// Runs this binary once and parses its digest and result line.
fn child(workload: &Workload, seed: u64, seconds: u64, trace: bool) -> io::Result<ChildRun> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let bad = |what: &str| {
        io::Error::other(format!(
            "{} run {what}: {}",
            workload.name,
            String::from_utf8_lossy(&output.stderr)
        ))
    };
    if !output.status.success() {
        return Err(bad("exited non-zero"));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("output_digest: "))
        .ok_or_else(|| bad("printed no digest"))?
        .to_owned();
    let result: Value = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(|| bad("printed no result line"))?;
    // Every metric, gated or not, is printed as `  name value unit`.
    let metrics = stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.strip_prefix("  ")?.split_ascii_whitespace();
            Some((fields.next()?.to_owned(), fields.next()?.parse().ok()?))
        })
        .collect();
    Ok(ChildRun {
        digest,
        correct: result.get("correct").and_then(Value::as_bool) == Some(true),
        failed: result.get("failed").and_then(Value::as_u64).unwrap_or(1),
        metrics,
    })
}

/// `median [q1, q3]` of one cell.
fn cell(values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    format!("{:.4} [{:.4}, {:.4}]", stats::median(values), q1, q3)
}

/// Runs the selfcheck and prints its table. `Ok(true)` means every
/// cell agreed.
///
/// # Errors
///
/// A child that cannot be started, exits non-zero, or prints no result
/// is an error.
pub fn selfcheck(runs: usize, seed: u64, seconds: u64) -> io::Result<bool> {
    let runs = runs.max(5);
    // Stamp the file system the children's scratch will land on.
    println!("{}", EnvStamp::collect(Scratch::create()?.path()).line());
    for w in &WORKLOADS {
        println!(
            "workload {}: N={} T_ms={}",
            w.name,
            w.size(seconds, false).windows,
            w.period_ms
                .map_or_else(|| "closed-loop".to_owned(), |t| t.to_string()),
        );
    }
    println!("selfcheck: seed={seed} runs={runs} per set, sets A and B interleaved");

    let mut ok = true;
    let mut fail = |what: String| {
        println!("FAIL {what}");
        ok = false;
    };
    for workload in &WORKLOADS {
        let mut sets: [Vec<ChildRun>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..runs {
            for set in &mut sets {
                set.push(child(workload, seed, seconds, false)?);
            }
        }
        let traced = [
            child(workload, seed, seconds, true)?,
            child(workload, seed, seconds, true)?,
        ];

        println!("== {}", workload.name);
        let rows = DEMOTED
            .iter()
            .map(|d| (d, false))
            .chain(END_TO_END.iter().map(|d| (d, true)));
        for (declared, gated) in rows {
            let Declared {
                name, unit, bound, ..
            } = *declared;
            let values = |set: &[ChildRun]| -> Vec<f64> {
                set.iter().filter_map(|r| r.metric(name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let apart = if ma == 0.0 { 0.0 } else { (mb - ma).abs() / ma };
            let (spread_a, spread_b) = (stats::spread(&a), stats::spread(&b));
            let over = apart > bound || spread_a > bound || spread_b > bound;
            println!(
                "  {name:<18} A {}  B {}  apart {:.2}%  spread A {:.2}% B {:.2}%  (bound {:.0}%, {unit}){}",
                cell(&a),
                cell(&b),
                apart * 1e2,
                spread_a * 1e2,
                spread_b * 1e2,
                bound * 1e2,
                match (over, gated) {
                    (false, _) => "",
                    (true, true) => "  OVER",
                    (true, false) => "  over (per layer, not held)",
                },
            );
            if over && gated {
                fail(format!(
                    "{}/{name}: medians {ma:.4} and {mb:.4} are {:.2}% apart, sets spread {:.2}% and {:.2}%",
                    workload.name,
                    apart * 1e2,
                    spread_a * 1e2,
                    spread_b * 1e2,
                ));
            }
        }

        let all = || sets.iter().flatten().chain(&traced);
        let digest = &sets[0][0].digest;
        println!("  output_digest      {digest}");
        if all().any(|r| &r.digest != digest) {
            fail(format!("{}: output_digest did not repeat", workload.name));
        }
        if all().any(|r| !r.correct || r.failed != 0) {
            fail(format!(
                "{}: a run was incorrect or failed alerts",
                workload.name
            ));
        }
        for name in HELD_COUNTS
            .iter()
            .copied()
            .chain(["proc.ctx_switches_per_kalert"])
        {
            let [a, b] = [0, 1].map(|set| traced[set].metric(name).unwrap_or(0.0));
            println!("  {name:<32} A {a:.4}  B {b:.4}");
            if HELD_COUNTS.contains(&name) && (a - b).abs() > COUNT_TOLERANCE * a.max(b) {
                fail(format!("{}/{name}: did not repeat", workload.name));
            }
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_print_median_and_quartiles() {
        assert_eq!(cell(&[1.0, 2.0, 3.0, 4.0, 5.0]), "3.0000 [1.5000, 4.5000]");
    }

    #[test]
    fn set_up_has_the_widest_bound_and_only_it_passes_fifteen_percent() {
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is declared");
        assert!(setup.bound <= 0.25);
        for declared in END_TO_END.iter().chain(&DEMOTED) {
            assert!(declared.name == "setup_s" || declared.bound <= 0.15);
        }
    }
}
