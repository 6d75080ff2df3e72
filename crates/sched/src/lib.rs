//! # cim-sched — a multi-tile, wear-leveling job scheduler for
//! crossbar multiplication farms
//!
//! The paper's pipeline (see `karatsuba-cim`) keeps three
//! multiplications in flight on one set of stage subarrays. A
//! deployment serving cryptographic workloads — TLS handshakes, MSM
//! batches, RSA signing — replicates that pipeline across a **farm of
//! tiles** and must decide which tile serves which job. That decision
//! is where ReRAM's finite endurance bites: a wear-oblivious
//! dispatcher hammers the same hot cells of the same tiles, and the
//! farm dies with most of its endurance budget unspent.
//!
//! This crate provides a cycle-accurate farm simulator:
//!
//! * [`job`] — jobs, weighted job mixes, reproducible arrival streams;
//! * [`profile`] — per-class cost profiles (analytic from the paper's
//!   closed forms, or measured on the real simulated multiplier);
//! * [`tile`] — one pipelined multiplier with local stage clocks,
//!   cumulative [`cim_crossbar::CycleStats`], and a rotation-slot
//!   wear ledger;
//! * [`policy`] — FIFO, least-loaded, and wear-leveling dispatch;
//! * [`scheduler`] — bounded admission plus tile selection;
//! * [`report`] — per-job, per-tile, and farm-level telemetry
//!   (makespan, utilization, p50/p99 latency via a mergeable
//!   log-bucketed histogram, energy breakdowns, projected lifetime);
//! * [`metrics`] — publication of a [`FarmReport`] into a
//!   [`cim_metrics::MetricsHub`] (latency histograms, queue/occupancy
//!   peaks, per-tile cycle and energy counters);
//! * [`batch`] — the single-pipeline batch API (moved here from
//!   `karatsuba_cim::batch`), now the one-tile degenerate farm.
//!
//! ## Example
//!
//! ```
//! use cim_sched::{FarmConfig, JobMix, Policy, Scheduler};
//!
//! // 2000-cycle mean inter-arrival gap of mixed crypto widths.
//! let jobs = JobMix::crypto_default(2000).generate(100, 7);
//! let mut farm = Scheduler::new(FarmConfig::new(4, Policy::WearLeveling));
//! let report = farm.run(&jobs).unwrap();
//! assert_eq!(report.jobs_done(), 100);
//! assert!(report.projected_lifetime_multiplications() > 1_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod job;
pub mod metrics;
pub mod policy;
pub mod profile;
pub mod report;
pub mod scheduler;
#[cfg(test)]
pub(crate) mod testutil;
pub mod tile;

pub use batch::{run_batch, BatchReport};
pub use job::{Algo, Job, JobClass, JobMix};
pub use policy::Policy;
pub use profile::{
    validate_width, JobProfile, ProfileSource, ProfileTable, StageWear, MAX_JOB_WIDTH,
};
pub use report::{FarmReport, JobRecord, TileReport};
pub use scheduler::{FarmConfig, Scheduler};
pub use tile::{Tile, TileJobTiming, DEFAULT_ROTATION_SLOTS};
