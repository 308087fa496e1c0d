//! `pipeline-bench`: the benchmark every performance claim in this
//! repository answers to.
//!
//! Four fixed-work workloads drive the real socket → `GovernanceSnapshot`
//! path in process, through public APIs only. An untraced run measures
//! six end-to-end metrics; a traced run reports the per-layer ledger,
//! timed from outside by replaying the same windows through each
//! layer's public functions in isolation. See `README.md` in this
//! crate for the definitions, the workloads, and how to read a
//! selfcheck.

#![warn(missing_docs, missing_debug_implementations)]

pub mod alloc;
pub mod env;
pub mod layers;
pub mod loadgen;
pub mod procfs;
pub mod report;
pub mod run;
pub mod selfcheck;
pub mod spans;
pub mod stats;
pub mod sut;
pub mod verify;
pub mod workloads;
