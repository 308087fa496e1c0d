//! `alertops-obs`: the observability substrate of the workspace.
//!
//! The paper's whole argument is that alerting signals must be
//! *governed*; this crate makes the governing system itself observable.
//! It is deliberately tiny and `std`-only:
//!
//! - [`Counter`] / [`Gauge`] — relaxed-ordering atomics. One
//!   `fetch_add` on the hot path, nothing else.
//! - [`Histogram`] — a log-linear latency histogram (every power of two
//!   split into 8 linear sub-buckets, so quantile estimates carry a
//!   bounded ≤ 12.5% relative error). Recording is two relaxed
//!   `fetch_add`s; no locks, no allocation.
//! - [`Span`] — an RAII timer that records its elapsed microseconds
//!   into a histogram on drop.
//! - [`MetricsRegistry`] — names, help text, and label sets live here,
//!   behind a mutex that is touched only at registration and render
//!   time, never on the hot path. Handles are `Arc`s the instrumented
//!   code caches.
//! - [`render`](MetricsRegistry::render) — Prometheus text exposition
//!   (`# HELP` / `# TYPE`, cumulative `_bucket{le=...}` series), plus
//!   [`lint_exposition`] so CI can prove the output well-formed.
//!
//! Everything here is an *observer*: recording into a metric never
//! changes control flow, takes a lock on a data path, or perturbs the
//! deterministic outputs of the system it watches. The workspace's
//! chaos-determinism suite runs with metrics on and off and asserts
//! byte-identical governance snapshots either way.
//!
//! # Example
//!
//! ```
//! use alertops_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let ingested = registry.counter("demo_ingested_total", "Frames ingested.", &[]);
//! let latency = registry.histogram("demo_close_micros", "Window close latency.", &[]);
//! ingested.inc();
//! {
//!     let _span = latency.time(); // records on drop
//! }
//! let text = registry.render();
//! assert!(text.contains("# TYPE demo_ingested_total counter"));
//! assert!(text.contains("demo_ingested_total 1"));
//! assert!(alertops_obs::lint_exposition(&text).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod encode;
mod histogram;
mod metrics;
pub mod process;
mod registry;
mod span;

pub use encode::lint_exposition;
pub use histogram::{Histogram, HistogramSnapshot, HISTOGRAM_SUB_BUCKETS};
pub use metrics::{milli, Counter, Gauge};
pub use registry::MetricsRegistry;
pub use span::Span;
