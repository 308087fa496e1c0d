//! Shared plumbing for the figure-regeneration harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! DSN'22 paper and prints `paper → measured` rows;
//! `scripts/run_experiments.sh` runs them all and emits the dataset
//! recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a `paper → measured` comparison row.
pub fn compare(label: &str, paper: &str, measured: &str) {
    println!("  {label:<44} paper: {paper:<22} measured: {measured}");
}

/// Formats a fraction as a percentage string.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// A fixed-seed used across all harnesses so EXPERIMENTS.md is stable.
pub const HARNESS_SEED: u64 = 2022;
