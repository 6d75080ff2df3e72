//! # cim-metrics — the workspace-wide metrics plane
//!
//! A dependency-free metrics layer beneath the CIM stack: a registry
//! ([`MetricsHub`]) of named counters, gauges and log-bucketed
//! [`Histogram`]s with canonical [`Labels`], a Prometheus
//! text-exposition writer ([`prometheus::render`]) with a matching
//! grammar checker ([`prometheus::check`]), and a deterministic JSON
//! snapshot writer ([`Snapshot::to_json`], reusing `cim_trace::json`,
//! whose `parse` reads snapshots back).
//!
//! ## Design rules
//!
//! 1. **Disabled metrics are free.** [`MetricsHub::disabled`] is a
//!    `None` handle; every publish site costs one branch. Simulation
//!    code takes a hub unconditionally and never `cfg`-gates.
//! 2. **Metrics never perturb the simulation.** Publishing only reads
//!    simulation state; integration tests assert `ExecutionReport` and
//!    `FarmReport` are bit-identical with metrics on and off.
//! 3. **Deterministic export.** Families and series are sorted, floats
//!    format stably, histograms bucket by a fixed global function —
//!    two runs of the same simulation produce byte-identical `.prom`
//!    and `.json` artifacts, which is what lets CI diff them.
//!
//! ```
//! use cim_metrics::{prometheus, Labels, MetricsHub};
//!
//! let hub = MetricsHub::recording();
//! hub.add_counter(
//!     "cim_xbar_cycles_total",
//!     "crossbar cycles by op class",
//!     &Labels::new().with("op_class", "magic"),
//!     1234.0,
//! );
//! hub.observe("cim_core_stage_cycles", "per-stage cycles",
//!             &Labels::new().with("stage", "precompute"), 258);
//! let text = prometheus::render(&hub.snapshot());
//! prometheus::check(&text).unwrap();
//! assert!(text.contains("cim_xbar_cycles_total{op_class=\"magic\"} 1234"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod labels;
pub mod prometheus;
mod registry;
mod snapshot;

pub use histogram::{bucket_bounds, bucket_index, Histogram, LINEAR_CUTOFF, SUBBUCKETS};
pub use labels::{escape_label_value, Labels};
pub use registry::{
    is_valid_metric_name, Counter, Gauge, HistogramHandle, MetricKind, MetricValue, MetricsHub,
};
pub use snapshot::{Family, Sample, Snapshot};
