//! `cim-obs` — request-correlated diagnostics for the CIM serving
//! fleet.
//!
//! The serving stack (`cim-serve` → `cim-sched` → `karatsuba-cim` →
//! `cim-crossbar`) is deterministic in the virtual cycle domain, which
//! makes its *observability* layer unusually strong: every diagnostic
//! artifact this crate produces — journal dumps, SLO verdicts,
//! attribution reports — is a pure function of the request trace and
//! serializes byte-identically across runs. That determinism is what
//! lets CI gate on diagnostics output instead of eyeballing it.
//!
//! Four pieces, one per module:
//!
//! 1. [`correlation`] — `RequestId`/`TenantId`/`BatchId`/`JobId`
//!    newtypes and helpers that build the ambient
//!    [`cim_trace::Tracer::set_tags`] tag sets, so one request can be
//!    followed from admission through batch formation, farm dispatch,
//!    and crossbar program execution.
//! 2. [`journal`] — the [`journal::FlightRecorder`]: a fixed-capacity,
//!    lock-cheap ring of structured [`journal::ObsEvent`]s (admission
//!    verdicts, sheds, batch formation, job dispatch/retire, verifier
//!    failures) with a deterministic JSON dump and automatic
//!    dump-trigger latching on incorrect results or shed bursts.
//! 3. [`slo`] — declarative [`slo::SloRule`]s (per-tenant p99 latency,
//!    shed ratio, correctness) evaluated over [`cim_metrics`]
//!    snapshots with short/long burn-rate windows producing
//!    `ok`/`warn`/`page` states, published as `cim_obs_*` gauges.
//! 4. [`attribution`] + [`wear`] — where the cycles, picojoules and
//!    cell writes went: per-stage breakdowns that sum *exactly* to the
//!    multiplier's [`karatsuba_cim::multiplier::ExecutionReport::energy`]
//!    totals, and per-tile crossbar wear heatmaps (top-K hottest rows,
//!    endurance percentiles).
//!
//! The crate deliberately sits *below* `cim-serve` in the dependency
//! graph: serve attaches a recorder and publishes into the shared
//! metrics hub, and the `obs_report` binary (in `cim-serve`, which
//! owns the load generator) assembles the full fleet report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod correlation;
pub mod journal;
pub mod metrics;
pub mod slo;
pub mod wear;

pub use attribution::{AttributionReport, Depth1Column, StageAttribution};
pub use correlation::{BatchId, JobId, RequestId, TenantId};
pub use journal::{FlightRecorder, ObsEvent, ObsEventKind, RecorderConfig};
pub use slo::{SloEngine, SloInputs, SloKind, SloRule, SloState, SloVerdict};
pub use wear::{RowWear, WearHeatmap, WearPercentiles};
