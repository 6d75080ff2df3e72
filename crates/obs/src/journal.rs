//! The flight recorder: a fixed-capacity ring journal of structured
//! serving events.
//!
//! Unlike the trace (which records *everything* and is sized for
//! offline analysis), the flight recorder keeps only the most recent
//! window of **decision events** — admission verdicts, sheds, batch
//! formation, job dispatch/retire, verifier failures — so that when
//! something goes wrong the operator gets the minutes *leading up to*
//! the incident, not a multi-gigabyte trace of the whole run.
//!
//! Design points:
//!
//! - **Lock-cheap, never torn.** Events are small `Copy` values; one
//!   short critical section per [`FlightRecorder::record`] assigns the
//!   monotonic sequence number and writes the slot, so a dumped
//!   journal can never contain a half-written event and sequence
//!   numbers are strictly increasing in ring order.
//! - **Oldest-first overwrite.** At capacity the oldest event is
//!   dropped and counted; the dump always holds the newest
//!   `capacity` events in sequence order.
//! - **Deterministic dump.** [`FlightRecorder::dump_json`] serializes
//!   with [`cim_trace::json::JsonWriter`]; cycle stamps are virtual
//!   cycles, so identical runs dump identical bytes.
//! - **Auto-dump triggers.** An incorrect result
//!   ([`FlightRecorder::note_incorrect`]) or a shed burst (more than
//!   [`RecorderConfig::shed_burst_threshold`] sheds within
//!   [`RecorderConfig::shed_burst_window`] cycles) latches a trigger
//!   reason the host checks to dump the journal to disk unprompted.
//! - **Free when disabled.** [`FlightRecorder::disabled`] carries no
//!   allocation and every call on it is a branch on `None`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use cim_trace::json::JsonWriter;

/// Sizing and trigger thresholds for a [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Ring capacity in events; the journal retains the newest
    /// `capacity` events.
    pub capacity: usize,
    /// Number of sheds within [`RecorderConfig::shed_burst_window`]
    /// that latches the `shed_burst` trigger.
    pub shed_burst_threshold: usize,
    /// Width of the shed-burst detection window in virtual cycles.
    pub shed_burst_window: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: 4096,
            shed_burst_threshold: 32,
            shed_burst_window: 1_000_000,
        }
    }
}

/// One structured journal event: what happened ([`ObsEventKind`]), at
/// which virtual cycle, with a recorder-assigned sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotonic per-recorder sequence number (dense from 0).
    pub seq: u64,
    /// Virtual cycle stamp supplied by the caller.
    pub cycle: u64,
    /// Structured payload.
    pub kind: ObsEventKind,
}

impl ObsEvent {
    /// Serializes the event into `w` as one object:
    /// `{"seq":..,"cycle":..,"kind":..,<variant fields>}`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.open_object()
            .field_uint("seq", self.seq)
            .field_uint("cycle", self.cycle)
            .field_str("kind", self.kind.name());
        match self.kind {
            ObsEventKind::Admit {
                request,
                tenant,
                op,
            } => {
                w.field_uint("request", request)
                    .field_uint("tenant", u64::from(tenant))
                    .field_str("op", op);
            }
            ObsEventKind::Shed {
                request,
                tenant,
                reason,
            } => {
                w.field_uint("request", request)
                    .field_uint("tenant", u64::from(tenant))
                    .field_str("reason", reason);
            }
            ObsEventKind::Error { request, tenant } => {
                w.field_uint("request", request)
                    .field_uint("tenant", u64::from(tenant));
            }
            ObsEventKind::BatchFormed {
                batch,
                width,
                requests,
                jobs,
            } => {
                w.field_uint("batch", batch)
                    .field_uint("width_bits", u64::from(width))
                    .field_uint("requests", u64::from(requests))
                    .field_uint("jobs", u64::from(jobs));
            }
            ObsEventKind::JobDispatch {
                request,
                tenant,
                batch,
                farm,
                job_lo,
                job_hi,
            } => {
                w.field_uint("request", request)
                    .field_uint("tenant", u64::from(tenant))
                    .field_uint("batch", batch)
                    .field_uint("farm", u64::from(farm))
                    .field_uint("job_lo", u64::from(job_lo))
                    .field_uint("job_hi", u64::from(job_hi));
            }
            ObsEventKind::JobRetire {
                request,
                tenant,
                farm,
                tile,
                service_cycles,
            } => {
                w.field_uint("request", request)
                    .field_uint("tenant", u64::from(tenant))
                    .field_uint("farm", u64::from(farm))
                    .field_uint("tile", u64::from(tile))
                    .field_uint("service_cycles", service_cycles);
            }
            ObsEventKind::VerifyFail { request, tenant } => {
                w.field_uint("request", request)
                    .field_uint("tenant", u64::from(tenant));
            }
            ObsEventKind::FaultFallback { component } => {
                w.field_str("component", component);
            }
            ObsEventKind::SloTransition { rule, state } => {
                w.field_uint("rule", u64::from(rule))
                    .field_uint("state", u64::from(state));
            }
            ObsEventKind::Drift {
                signal,
                direction,
                deviation_x1000,
            } => {
                w.field_str("signal", signal)
                    .field_str("direction", direction)
                    .field_uint("deviation_x1000", deviation_x1000);
            }
        }
        w.close_object();
    }
}

/// The structured payloads the flight recorder understands.
///
/// All variants are `Copy` (static strings, integers) so recording is
/// allocation-free and events cannot tear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEventKind {
    /// A request passed admission control and was queued for batching.
    Admit {
        /// Engine-assigned submission sequence number.
        request: u64,
        /// Tenant index.
        tenant: u16,
        /// Operation label (`mul`, `modexp`, ...).
        op: &'static str,
    },
    /// Admission control shed a request.
    Shed {
        /// Client-supplied request id (shed requests never get a
        /// submission sequence number).
        request: u64,
        /// Tenant index.
        tenant: u16,
        /// Shed reason label (`rate_limited`, `queue_full`, ...).
        reason: &'static str,
    },
    /// A request failed validation or execution.
    Error {
        /// Client-supplied request id.
        request: u64,
        /// Tenant index.
        tenant: u16,
    },
    /// The batcher flushed a width class into a batch.
    BatchFormed {
        /// Batch sequence number.
        batch: u64,
        /// Operand width class in bits.
        width: u32,
        /// Requests in the batch.
        requests: u32,
        /// Total farm jobs the batch expands into.
        jobs: u32,
    },
    /// One request's farm jobs were dispatched onto a farm.
    JobDispatch {
        /// Submission sequence number.
        request: u64,
        /// Tenant index.
        tenant: u16,
        /// Batch the request rode in.
        batch: u64,
        /// Farm index chosen by the fleet.
        farm: u16,
        /// First farm-job index (inclusive) within the batch.
        job_lo: u32,
        /// Last farm-job index (exclusive) within the batch.
        job_hi: u32,
    },
    /// One request's farm jobs all retired; the crossbar programs ran.
    JobRetire {
        /// Submission sequence number.
        request: u64,
        /// Tenant index.
        tenant: u16,
        /// Farm that executed the jobs.
        farm: u16,
        /// Tile that retired the request's final job — the crossbar
        /// whose program produced the result.
        tile: u16,
        /// Request service time in virtual cycles.
        service_cycles: u64,
    },
    /// The gold-model verifier rejected a produced result.
    VerifyFail {
        /// Submission sequence number.
        request: u64,
        /// Tenant index.
        tenant: u16,
    },
    /// A component fell back onto a redundancy path.
    FaultFallback {
        /// Component label.
        component: &'static str,
    },
    /// An SLO rule changed burn-rate state.
    SloTransition {
        /// Rule index in the engine's rule list.
        rule: u16,
        /// Encoded state: 0 = ok, 1 = warn, 2 = page.
        state: u8,
    },
    /// A pulse drift detector flagged a change point on a telemetry
    /// series.
    Drift {
        /// Signal label (`throughput`, `shed_ratio`, `p99_latency`).
        signal: &'static str,
        /// Shift direction label (`up` / `down`).
        direction: &'static str,
        /// Absolute deviation in robust scale units, ×1000.
        deviation_x1000: u64,
    },
}

impl ObsEventKind {
    /// Stable lower-case name of the variant, used as the JSON `kind`.
    pub fn name(&self) -> &'static str {
        match self {
            ObsEventKind::Admit { .. } => "admit",
            ObsEventKind::Shed { .. } => "shed",
            ObsEventKind::Error { .. } => "error",
            ObsEventKind::BatchFormed { .. } => "batch_formed",
            ObsEventKind::JobDispatch { .. } => "job_dispatch",
            ObsEventKind::JobRetire { .. } => "job_retire",
            ObsEventKind::VerifyFail { .. } => "verify_fail",
            ObsEventKind::FaultFallback { .. } => "fault_fallback",
            ObsEventKind::SloTransition { .. } => "slo_transition",
            ObsEventKind::Drift { .. } => "drift",
        }
    }

    /// The submission sequence number the event is about, if any.
    pub fn request(&self) -> Option<u64> {
        match *self {
            ObsEventKind::Admit { request, .. }
            | ObsEventKind::Shed { request, .. }
            | ObsEventKind::Error { request, .. }
            | ObsEventKind::JobDispatch { request, .. }
            | ObsEventKind::JobRetire { request, .. }
            | ObsEventKind::VerifyFail { request, .. } => Some(request),
            _ => None,
        }
    }
}

/// Trigger reason latched when the journal should be dumped
/// automatically.
pub const TRIGGER_INCORRECT_RESULT: &str = "incorrect_result";
/// Trigger reason for a burst of sheds inside the detection window.
pub const TRIGGER_SHED_BURST: &str = "shed_burst";

#[derive(Debug)]
struct State {
    config: RecorderConfig,
    ring: Vec<ObsEvent>,
    head: usize,
    next_seq: u64,
    dropped: u64,
    recent_sheds: VecDeque<u64>,
    trigger: Option<&'static str>,
}

impl State {
    fn push(&mut self, cycle: u64, kind: ObsEventKind) {
        let event = ObsEvent {
            seq: self.next_seq,
            cycle,
            kind,
        };
        self.next_seq += 1;
        if self.ring.len() < self.config.capacity {
            self.ring.push(event);
        } else {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % self.config.capacity;
            self.dropped += 1;
        }
        if let ObsEventKind::Shed { .. } = kind {
            self.recent_sheds.push_back(cycle);
            let horizon = cycle.saturating_sub(self.config.shed_burst_window);
            while self.recent_sheds.front().is_some_and(|&c| c < horizon) {
                self.recent_sheds.pop_front();
            }
            if self.recent_sheds.len() >= self.config.shed_burst_threshold && self.trigger.is_none()
            {
                self.trigger = Some(TRIGGER_SHED_BURST);
            }
        }
    }

    fn events(&self) -> Vec<ObsEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }
}

/// The fleet's flight recorder. Cheaply cloneable (an `Arc`); clones
/// share the same ring. `Send + Sync`, so the threaded server's
/// dispatcher and workers can record into one journal.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Mutex<State>>>,
}

impl FlightRecorder {
    /// A recorder with the given sizing. Allocates the full ring up
    /// front so recording never reallocates.
    pub fn new(config: RecorderConfig) -> Self {
        let capacity = config.capacity.max(1);
        FlightRecorder {
            inner: Some(Arc::new(Mutex::new(State {
                config: RecorderConfig { capacity, ..config },
                ring: Vec::with_capacity(capacity),
                head: 0,
                next_seq: 0,
                dropped: 0,
                recent_sheds: VecDeque::new(),
                trigger: None,
            }))),
        }
    }

    /// A no-op recorder: every call is a branch on `None`.
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// Whether this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, State>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Records one event at `cycle`. The sequence number is assigned
    /// and the slot written inside one critical section, so concurrent
    /// writers interleave whole events, never fields.
    pub fn record(&self, cycle: u64, kind: ObsEventKind) {
        if let Some(mut s) = self.lock() {
            s.push(cycle, kind);
        }
    }

    /// Latches the `incorrect_result` trigger and journals the
    /// verifier failure.
    pub fn note_incorrect(&self, cycle: u64, request: u64, tenant: u16) {
        if let Some(mut s) = self.lock() {
            s.push(cycle, ObsEventKind::VerifyFail { request, tenant });
            s.trigger = Some(TRIGGER_INCORRECT_RESULT);
        }
    }

    /// The latched auto-dump trigger reason, if any. `incorrect_result`
    /// outranks `shed_burst` (a later incorrect result overwrites an
    /// earlier shed-burst latch, never the reverse).
    pub fn trigger(&self) -> Option<&'static str> {
        self.lock().and_then(|s| s.trigger)
    }

    /// Numeric encoding of the latched trigger for gauges:
    /// 0 = none, 1 = shed_burst, 2 = incorrect_result.
    pub fn trigger_state(&self) -> u8 {
        match self.trigger() {
            None => 0,
            Some(TRIGGER_SHED_BURST) => 1,
            Some(_) => 2,
        }
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.lock().map_or(0, |s| s.next_seq)
    }

    /// Events overwritten by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.lock().map_or(0, |s| s.dropped)
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.lock().map_or_else(Vec::new, |s| s.events())
    }

    /// Retained events about submission sequence number `request`,
    /// oldest first — the request's correlated story through the
    /// pipeline.
    pub fn request_story(&self, request: u64) -> Vec<ObsEvent> {
        self.events()
            .into_iter()
            .filter(|e| e.kind.request() == Some(request))
            .collect()
    }

    /// Serializes the journal into `w` as one object:
    /// `{"capacity":..,"recorded":..,"dropped":..,"trigger":..,
    ///   "events":[{"seq":..,"cycle":..,"kind":..,<fields>}..]}`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        let (capacity, recorded, dropped, trigger, events) = match self.lock() {
            Some(s) => (
                s.config.capacity as u64,
                s.next_seq,
                s.dropped,
                s.trigger,
                s.events(),
            ),
            None => (0, 0, 0, None, Vec::new()),
        };
        w.open_object()
            .field_uint("capacity", capacity)
            .field_uint("recorded", recorded)
            .field_uint("dropped", dropped)
            .field_str("trigger", trigger.unwrap_or("none"))
            .key("events")
            .open_array();
        for e in &events {
            e.write_json(w);
        }
        w.close_array().close_object();
    }

    /// The journal as a deterministic JSON document.
    pub fn dump_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes [`FlightRecorder::dump_json`] to `path`.
    pub fn dump_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.dump_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(capacity: usize) -> FlightRecorder {
        FlightRecorder::new(RecorderConfig {
            capacity,
            ..RecorderConfig::default()
        })
    }

    #[test]
    fn ring_drops_oldest_first() {
        let r = tiny(3);
        for i in 0..5u64 {
            r.record(
                i * 10,
                ObsEventKind::Admit {
                    request: i,
                    tenant: 0,
                    op: "mul",
                },
            );
        }
        let events = r.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "newest capacity events retained in seq order"
        );
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn shed_burst_latches_trigger() {
        let r = FlightRecorder::new(RecorderConfig {
            capacity: 16,
            shed_burst_threshold: 3,
            shed_burst_window: 100,
        });
        for i in 0..2u64 {
            r.record(
                i,
                ObsEventKind::Shed {
                    request: i,
                    tenant: 0,
                    reason: "rate_limited",
                },
            );
        }
        assert_eq!(r.trigger(), None);
        // Third shed lands outside the window of the first two: they
        // age out, no trigger.
        r.record(
            500,
            ObsEventKind::Shed {
                request: 2,
                tenant: 0,
                reason: "rate_limited",
            },
        );
        assert_eq!(r.trigger(), None);
        for i in 3..5u64 {
            r.record(
                500 + i,
                ObsEventKind::Shed {
                    request: i,
                    tenant: 0,
                    reason: "rate_limited",
                },
            );
        }
        assert_eq!(r.trigger(), Some(TRIGGER_SHED_BURST));
    }

    #[test]
    fn incorrect_result_outranks_shed_burst() {
        let r = FlightRecorder::new(RecorderConfig {
            capacity: 8,
            shed_burst_threshold: 1,
            shed_burst_window: 10,
        });
        r.record(
            0,
            ObsEventKind::Shed {
                request: 0,
                tenant: 0,
                reason: "rate_limited",
            },
        );
        assert_eq!(r.trigger(), Some(TRIGGER_SHED_BURST));
        r.note_incorrect(5, 9, 1);
        assert_eq!(r.trigger(), Some(TRIGGER_INCORRECT_RESULT));
        let events = r.events();
        assert_eq!(events.last().unwrap().kind.name(), "verify_fail");
    }

    #[test]
    fn request_story_filters_by_request() {
        let r = tiny(16);
        r.record(
            0,
            ObsEventKind::Admit {
                request: 7,
                tenant: 1,
                op: "mul",
            },
        );
        r.record(
            1,
            ObsEventKind::BatchFormed {
                batch: 0,
                width: 256,
                requests: 2,
                jobs: 2,
            },
        );
        r.record(
            2,
            ObsEventKind::JobDispatch {
                request: 7,
                tenant: 1,
                batch: 0,
                farm: 0,
                job_lo: 0,
                job_hi: 1,
            },
        );
        r.record(
            3,
            ObsEventKind::JobRetire {
                request: 7,
                tenant: 1,
                farm: 0,
                tile: 2,
                service_cycles: 99,
            },
        );
        r.record(
            4,
            ObsEventKind::Admit {
                request: 8,
                tenant: 0,
                op: "mul",
            },
        );
        let story = r.request_story(7);
        assert_eq!(story.len(), 3);
        assert_eq!(
            story.iter().map(|e| e.kind.name()).collect::<Vec<_>>(),
            vec!["admit", "job_dispatch", "job_retire"]
        );
    }

    #[test]
    fn dump_is_deterministic_valid_json() {
        let build = || {
            let r = tiny(4);
            for i in 0..6u64 {
                r.record(
                    i,
                    ObsEventKind::Admit {
                        request: i,
                        tenant: (i % 2) as u16,
                        op: "modexp",
                    },
                );
            }
            r.dump_json()
        };
        let a = build();
        assert_eq!(a, build());
        cim_trace::json::check(&a).expect("journal dump must be valid JSON");
        assert!(a.contains("\"recorded\":6"));
        assert!(a.contains("\"dropped\":2"));
        assert!(a.contains("\"trigger\":\"none\""));
    }

    #[test]
    fn disabled_recorder_is_free_and_empty() {
        let r = FlightRecorder::disabled();
        r.record(
            0,
            ObsEventKind::FaultFallback {
                component: "verifier",
            },
        );
        r.note_incorrect(0, 0, 0);
        assert!(!r.is_enabled());
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.trigger(), None);
        assert!(r.events().is_empty());
        cim_trace::json::check(&r.dump_json()).unwrap();
    }

    #[test]
    fn clones_share_one_ring() {
        let a = tiny(8);
        let b = a.clone();
        a.record(
            0,
            ObsEventKind::Admit {
                request: 0,
                tenant: 0,
                op: "mul",
            },
        );
        b.record(
            1,
            ObsEventKind::Admit {
                request: 1,
                tenant: 0,
                op: "mul",
            },
        );
        assert_eq!(a.recorded(), 2);
        assert_eq!(b.events().len(), 2);
    }
}
