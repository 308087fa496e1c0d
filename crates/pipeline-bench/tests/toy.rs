//! Runs every workload in `--toy` mode through the real binary and
//! holds what it prints against `BENCHMARK.json`: the declared
//! workload, end-to-end and per-layer names must be exactly the names
//! emitted.

use std::process::Command;
use std::time::{Duration, Instant};

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(section: &Value) -> Vec<String> {
    section
        .as_array()
        .expect("a list")
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .expect("every entry has a name")
                .to_owned()
        })
        .collect()
}

/// One toy run: the metric names and units of its result line, and how
/// long it took.
fn toy(workload: &str, trace: bool) -> (Vec<(String, String)>, Duration) {
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_pipeline-bench"))
        .args(["--workload", workload, "--toy", "--seed", "11"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the binary runs");
    let took = started.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} toy run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result: Value =
        serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("a count")
            >= 1
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
            assert!(m
                .get("value")
                .and_then(Value::as_f64)
                .expect("a value")
                .is_finite());
            (name.clone(), unit.to_owned())
        })
        .collect();
    (metrics, took)
}

fn declared(section: &Value) -> Vec<(String, String)> {
    section
        .as_array()
        .expect("a list")
        .iter()
        .map(|entry| {
            let field = |key| {
                entry
                    .get(key)
                    .and_then(Value::as_str)
                    .expect("a string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn toy_runs_emit_exactly_the_declared_names() {
    let contract = benchmark_json();
    let workloads = names(contract.get("workloads").expect("workloads"));
    let known: Vec<&str> = pipeline_bench::workloads::WORKLOADS
        .iter()
        .map(|w| w.name)
        .collect();
    assert_eq!(workloads, known, "declared workloads are the workloads");
    assert_eq!(
        contract.get("paths").map(names_of_strings),
        Some(vec!["crates/pipeline-bench".to_owned()])
    );

    let end_to_end = declared(contract.get("end_to_end").expect("end_to_end"));
    let per_layer = declared(contract.get("per_layer").expect("per_layer"));
    // The timing metrics are declared per layer: they lead that list
    // under their own names.
    let demoted: Vec<(String, String)> = pipeline_bench::selfcheck::DEMOTED
        .iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned()))
        .collect();
    assert_eq!(per_layer[..demoted.len()], demoted[..]);
    for workload in &workloads {
        let (emitted, took) = toy(workload, false);
        assert_eq!(
            emitted, end_to_end,
            "{workload}: end-to-end names and units"
        );
        // Debug builds are several times slower; the two-second budget
        // is the release binary's.
        if !cfg!(debug_assertions) {
            assert!(
                took < Duration::from_secs(2),
                "{workload} toy took {took:?}"
            );
        }
        let (emitted, _) = toy(workload, true);
        assert_eq!(emitted, per_layer, "{workload}: per-layer names and units");
    }
}

fn names_of_strings(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|s| s.as_str().expect("a string").to_owned())
        .collect()
}

#[test]
fn declared_bounds_and_whys_match_the_code() {
    let contract = benchmark_json();
    for (entry, declared) in contract
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
        .iter()
        .zip(&pipeline_bench::selfcheck::END_TO_END)
    {
        assert_eq!(
            entry.get("name").and_then(Value::as_str),
            Some(declared.name)
        );
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            Some(declared.bound)
        );
        let better = if declared.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
    }
    for (entry, workload) in contract
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .zip(&pipeline_bench::workloads::WORKLOADS)
    {
        assert_eq!(entry.get("why").and_then(Value::as_str), Some(workload.why));
        assert!(
            workload.why.len() <= 200,
            "{} why is too long",
            workload.name
        );
    }
    assert_eq!(
        contract.get("run_seconds").and_then(Value::as_u64),
        Some(pipeline_bench::workloads::BASE_SECONDS)
    );
}

#[test]
fn a_bad_workload_name_exits_non_zero_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_pipeline-bench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("the binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
