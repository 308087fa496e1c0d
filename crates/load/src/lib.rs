//! `alertops-load`: reads a live daemon's metrics from the outside.
//!
//! One module, [`scrape`]: a Prometheus text-exposition parser that
//! reads the status socket's `metrics` document the way an external
//! monitoring stack would, including histogram quantiles that agree
//! exactly with the in-process
//! [`alertops_obs::HistogramSnapshot::quantile`]. `pipeline-bench`
//! reads the daemon's internal waits through it.

#![warn(missing_docs, missing_debug_implementations)]

pub mod scrape;

pub use scrape::Exposition;
