//! # cim-trace — cycle-domain tracing for the CIM stack
//!
//! A lightweight, dependency-free span/event/counter layer that every
//! crate in the workspace instruments against, plus three exporters:
//!
//! * **Chrome Trace Event JSON** ([`chrome::to_chrome_json`]) —
//!   loadable in [Perfetto](https://ui.perfetto.dev) or
//!   `chrome://tracing`; one simulated cycle = 1 µs of trace time;
//! * **folded stacks** ([`folded::to_folded`]) — input for
//!   `flamegraph.pl`/inferno;
//! * **summary table** ([`summary::render_summary`]) — top-N hot spans
//!   with the self-vs-child cycle split.
//!
//! ## Design rules
//!
//! 1. **Timestamps are simulated cycles, never wall time.** A trace of
//!    a deterministic simulation is itself byte-deterministic, so
//!    traces diff cleanly in CI and golden files stay stable.
//! 2. **Disabled tracing is free.** The default [`Tracer`] is a `None`
//!    handle; every emission site costs one branch
//!    ([`Tracer::is_enabled`]). Building with the `compile-out`
//!    feature turns that branch into a compile-time constant so the
//!    optimizer strips instrumentation entirely.
//! 3. **Tracing must never perturb the simulation.** Instrumentation
//!    only observes; the executor/stage tests assert cycle and wear
//!    statistics are bit-identical with tracing on and off.
//!
//! ## Vocabulary
//!
//! A *process* ([`ProcessId`]) groups the tracks of one simulated
//! hardware unit (a multiplier, the pipeline model, a farm). A *track*
//! ([`TrackId`]) is one lane of spans and counters (a stage subarray,
//! a multiplier row, a queue). Spans nest per track by a stack
//! discipline; [`analysis::build_forest`] rebuilds the tree and
//! [`analysis::check_nesting`] asserts the invariants.
//!
//! ```
//! use cim_trace::{chrome, Tracer};
//!
//! let tracer = Tracer::recording();
//! let pid = tracer.process("multiplier n=64");
//! let stage1 = tracer.track(pid, "stage 1 (precompute)");
//! let span = tracer.span_at(stage1, "precompute", 0);
//! tracer.complete(stage1, "write chunks", 0, 8, cim_trace::Args::new());
//! span.end(258);
//! let trace = tracer.finish().unwrap();
//! let json = chrome::to_chrome_json(&trace);
//! chrome::validate_chrome_trace(&json).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod chrome;
pub mod folded;
pub mod json;
mod model;
mod sink;
pub mod summary;
mod tracer;

pub use model::{
    Args, Event, EventKind, Name, ProcessId, ProcessMeta, SpanId, Trace, TrackId, TrackMeta,
    MAX_ARGS,
};
pub use sink::{MemorySink, NullSink, TraceSink};
pub use tracer::{SpanGuard, Tracer};
