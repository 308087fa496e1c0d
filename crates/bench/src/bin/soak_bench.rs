//! Regenerates `BENCH_soak.json`: the sustained soak/load run — a
//! statistical scenario streamed over real TCP (`alertops-wire`
//! binary frames, or NDJSON lines with `--wire ndjson`) into a live
//! `alertops-ingestd`, observed from the outside through the status
//! socket's Prometheus exposition, and gated on:
//!
//! * sustained throughput (≥ 1M alerts/hour wall-clock equivalent),
//! * peak RSS under the asserted ceiling,
//! * the conservation law (`ingested == delivered + dropped +
//!   quarantined`) over the whole run, and
//! * byte-identity of a sampled window prefix against in-process oracle
//!   re-runs at 1 and 4 shards.
//!
//! The JSON is written *before* the gates are asserted, so a violation
//! both fails this binary and leaves a greppable
//! `"outputs_identical": false` / `"ceiling_ok": false` in the report —
//! `scripts/ci.sh` checks for those independently.
//!
//! The default run is the CI-sized smoke soak (one simulated day,
//! seconds of wall time). Set `ALERTOPS_SOAK_FULL=1` for the full
//! three-day, 8000-strategy, multi-tenant soak.

use alertops_bench::{compare, header, HARNESS_SEED};
use alertops_load::{run_soak, SoakConfig};
use alertops_wire::WireFormat;

/// `--wire ndjson|binary` from argv, if given.
fn wire_override() -> Option<WireFormat> {
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--wire" {
            let value = argv.next().expect("--wire takes a value");
            return Some(value.parse().expect("--wire is ndjson|binary"));
        }
    }
    None
}

fn main() {
    let full = std::env::var("ALERTOPS_SOAK_FULL").is_ok_and(|v| v == "1");
    let mut config = if full {
        SoakConfig::full(HARNESS_SEED)
    } else {
        SoakConfig::smoke(HARNESS_SEED)
    };
    if let Some(wire) = wire_override() {
        config.wire = wire;
    }
    header(&format!(
        "soak: {} over TCP ({} wire) into a live {}-shard ingestd",
        config.scenario.name,
        config.wire.label(),
        config.shards
    ));

    let report = run_soak(&config).expect("soak completes");

    compare(
        "sustained rate (alerts/hour equivalent)",
        ">= 1M/h",
        &format!(
            "{:.2}M/h ({:.0}/s over {} alerts, {} wire)",
            report.alerts_per_hour_equiv / 1e6,
            report.alerts_per_sec,
            report.alerts_sent,
            report.wire
        ),
    );
    compare(
        "window close latency (p50/p99/p999)",
        "-",
        &format!(
            "{}µs / {}µs / {}µs over {} windows",
            report.close_p50_micros,
            report.close_p99_micros,
            report.close_p999_micros,
            report.windows
        ),
    );
    compare(
        "peak RSS vs ceiling",
        &format!("<= {}MiB", report.rss_ceiling_bytes / (1024 * 1024)),
        &format!("{}MiB", report.peak_rss_bytes / (1024 * 1024)),
    );
    compare(
        "conservation + oracle identity",
        "hold",
        &format!(
            "conserved={} identical={} (prefix {} windows at {:?} shards), dropped={}",
            report.conservation_ok,
            report.outputs_identical,
            report.oracle_prefix_windows,
            report.oracle_shard_counts,
            report.dropped
        ),
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_soak.json", format!("{json}\n")).expect("write BENCH_soak.json");
    println!("\nwrote BENCH_soak.json");

    report
        .check_gates(config.min_alerts_per_hour)
        .expect("soak gates hold");
}
