//! How a run is printed: one line per metric by name and unit for
//! people, then the one-line JSON result the driver reads.

use std::fmt::Write as _;

use crate::run::{Metric, Outcome, RunArgs};

/// Renders a float with all its digits, as JSON (`NaN`/`inf` cannot
/// occur in a metric and would not be valid JSON; they print as 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The final stdout line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_line(outcome: &Outcome) -> String {
    let mut out = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, Metric { name, value, unit }) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            r#"{sep}"{name}": {{"value": {}, "unit": "{unit}"}}"#,
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// Prints the run for a reader — environment stamp, sizes, every metric
/// by name and unit, notes, digest — and then the result line, last.
pub fn print(args: &RunArgs, outcome: &Outcome) {
    println!("{}", outcome.stamp.line());
    println!(
        "run: workload={} seed={} N={} warmup={} T_ms={} trace={} toy={}",
        args.workload.name,
        args.seed,
        outcome.size.windows,
        outcome.size.warmup,
        args.workload
            .period_ms
            .map_or_else(|| "closed-loop".to_owned(), |t| t.to_string()),
        u8::from(args.trace),
        args.toy
    );
    for Metric { name, value, unit } in outcome.info.iter().chain(&outcome.metrics) {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!("output_digest: {:016x}", outcome.output_digest);
    println!("{}", result_line(outcome));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvStamp;
    use crate::workloads::RunSize;

    #[test]
    fn the_result_line_is_json_with_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            output_digest: 1,
            stamp: EnvStamp::collect(std::path::Path::new(".")),
            size: RunSize {
                warmup: 4,
                windows: 20,
                toy: true,
            },
            metrics: vec![
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
            info: vec![Metric::new("alerts_per_s", 9.5, "1/s")],
            notes: Vec::new(),
        };
        let line = result_line(&outcome);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
        let parsed: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(3.0), "3.0");
    }
}
