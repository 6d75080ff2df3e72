//! cim-serve: a multi-tenant serving layer over the CIM farm
//! simulator.
//!
//! The workspace below simulates ReRAM crossbar multiplier tiles
//! ([`cim_crossbar`]), schedules job streams across tile farms
//! ([`cim_sched`]) and runs cryptographic arithmetic on top
//! ([`cim_modmul`]). This crate asks the capacity-planning question
//! the paper's accelerator would face in production: *what does it
//! take to serve zkEVM-precompile-style requests — wide mults,
//! `modexp`, alt_bn128 point ops — from many tenants at once?*
//!
//! The pipeline, one module per stage:
//!
//! 1. [`protocol`] — a versioned, length-prefixed wire format for
//!    requests and responses (framing hostile-input safe: decoding
//!    never panics).
//! 2. [`admission`] — per-tenant token-bucket rate limiting and
//!    bounded queues with explicit shed responses, all in integer
//!    micro-tokens on the virtual cycle clock.
//! 3. [`batcher`] — width-bucketed batching: admitted requests
//!    accumulate per operand width class and flush by job count or
//!    staleness.
//! 4. [`fleet`] — shards flushed batches across farms, each a
//!    [`cim_sched::Scheduler`] with its own virtual clock; large
//!    batches take the scheduler's parallel path.
//! 5. [`exec`] — the arithmetic, every result computed twice through
//!    independent algorithms (karatsuba/schoolbook,
//!    Montgomery/Barrett, double-and-add/ladder) so a wrong answer
//!    becomes an error, not a response.
//! 6. [`engine`] — the deterministic core gluing 2–5 together, with
//!    `cim_serve_*` metrics ([`metrics`]) and trace spans.
//! 7. [`server`] — a no-async-runtime threaded reactor: one
//!    dispatcher thread owns the engine, a worker pool fans the
//!    arithmetic out, connections speak the wire format.
//! 8. [`loadgen`] — seeded, replayable load generation with
//!    client-side gold verification and a JSON report.
//!
//! Everything that affects a *decision* — admission, batch
//! composition, farm placement, latency — runs in the simulator's
//! virtual cycle domain and is a pure function of the request trace,
//! so a load run's served/shed/latency numbers are exactly
//! reproducible and regression-gated like any other benchmark in the
//! workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod engine;
pub mod exec;
pub mod fleet;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use admission::{Admission, TenantConfig};
pub use batcher::{width_class, BatchConfig, Batcher};
pub use engine::{Disposition, Engine, EngineConfig, EngineStats};
pub use exec::OpExecutor;
pub use fleet::{FarmFleet, FleetConfig, RequestCompletion};
pub use loadgen::{LoadReport, LoadgenConfig, MixWeights, Observers};
pub use protocol::{Op, OpKind, Request, Response, ResponsePayload, ShedReason};
pub use server::{CimServer, Connection, ServerConfig};
