//! `pipeline-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--toy]`
//! and `pipeline-bench selfcheck [--runs N] [--seed N] [--seconds S]`.

use std::process::ExitCode;
use std::time::Instant;

use pipeline_bench::alloc::{self, CountingAlloc};
use pipeline_bench::run::{run, RunArgs};
use pipeline_bench::workloads::{by_name, BASE_SECONDS, WORKLOADS};
use pipeline_bench::{report, selfcheck};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  pipeline-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--toy]
  pipeline-bench selfcheck [--runs N] [--seed N] [--seconds S]";

/// The value after `flag`, parsed; `default` when the flag is absent.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(at) => args
            .get(at + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn real_main(args: &[String], started: Instant) -> Result<bool, String> {
    let seed = flag(args, "--seed", 2022u64)?;
    let seconds = flag(args, "--seconds", BASE_SECONDS)?;
    if args.first().is_some_and(|a| a == "selfcheck") {
        let runs = flag(args, "--runs", 5usize)?;
        return selfcheck::selfcheck(runs, seed, seconds).map_err(|e| e.to_string());
    }
    let name: String = flag(args, "--workload", String::new())?;
    let workload = by_name(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let run_args = RunArgs {
        workload,
        seed,
        started,
        seconds,
        trace: flag(args, "--trace", 0u8)? != 0,
        toy: args.iter().any(|a| a == "--toy"),
    };
    let outcome = run(&run_args).map_err(|e| format!("run failed: {e}"))?;
    report::print(&run_args, &outcome);
    Ok(true)
}

fn main() -> ExitCode {
    let started = Instant::now();
    // The main thread is the generator: its allocations are the load's.
    alloc::exclude_this_thread();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args, started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("pipeline-bench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
