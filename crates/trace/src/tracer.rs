//! The [`Tracer`] handle and the RAII [`SpanGuard`].

use crate::model::{
    Args, Event, EventKind, Name, ProcessId, ProcessMeta, SpanId, Trace, TrackId, TrackMeta,
};
use crate::sink::{MemorySink, TraceSink};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

#[derive(Debug)]
struct Inner {
    sink: RefCell<Box<dyn TraceSink>>,
    processes: RefCell<Vec<ProcessMeta>>,
    tracks: RefCell<Vec<TrackMeta>>,
    next_span: Cell<u64>,
    /// Highest cycle stamp seen — the fallback close cycle for a
    /// [`SpanGuard`] dropped without an explicit `end`.
    high_water: Cell<u64>,
    /// Ambient correlation tags (request/tenant/job ids) folded into
    /// every argument-bearing event emitted while set. `Args` is
    /// `Copy`, so this costs one fixed-size load per emission.
    tags: Cell<Args>,
}

/// A cheap, cloneable handle through which the whole stack emits
/// spans, instants and counters, keyed on **simulated cycles**.
///
/// A disabled tracer (the default) carries no allocation at all;
/// every emission path first checks [`Tracer::is_enabled`], so the
/// disabled case costs one branch. With the `compile-out` feature that
/// branch is a compile-time constant and the instrumentation vanishes
/// entirely.
///
/// ```
/// use cim_trace::Tracer;
///
/// let tracer = Tracer::recording();
/// let pid = tracer.process("multiplier");
/// let track = tracer.track(pid, "stage 1");
/// let span = tracer.span_at(track, "precompute", 0);
/// tracer.counter(track, "queue_depth", 5, 2.0);
/// span.end(100);
/// let trace = tracer.finish().expect("recording tracer yields a trace");
/// assert_eq!(trace.events.len(), 3); // begin + counter + end
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<Inner>>,
}

impl Tracer {
    /// Whether tracing support is compiled in at all (`false` when the
    /// crate is built with the `compile-out` feature).
    pub const fn compiled_in() -> bool {
        cfg!(not(feature = "compile-out"))
    }

    /// The zero-cost disabled tracer.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer buffering everything in a [`MemorySink`]; retrieve the
    /// result with [`Tracer::finish`].
    pub fn recording() -> Self {
        Tracer::with_sink(Box::new(MemorySink::new()))
    }

    /// A tracer emitting into a caller-provided sink.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Tracer {
            inner: Some(Rc::new(Inner {
                sink: RefCell::new(sink),
                processes: RefCell::new(Vec::new()),
                tracks: RefCell::new(Vec::new()),
                next_span: Cell::new(0),
                high_water: Cell::new(0),
                tags: Cell::new(Args::new()),
            })),
        }
    }

    /// Whether emissions will be recorded. Instrumentation sites
    /// should guard any non-trivial event construction on this.
    pub fn is_enabled(&self) -> bool {
        if !Self::compiled_in() {
            return false;
        }
        match &self.inner {
            Some(inner) => inner.sink.borrow().enabled(),
            None => false,
        }
    }

    /// Registers (or finds) the process group `name`.
    pub fn process(&self, name: &str) -> ProcessId {
        let Some(inner) = &self.inner else {
            return ProcessId(0);
        };
        let mut processes = inner.processes.borrow_mut();
        if let Some(p) = processes.iter().find(|p| p.name == name) {
            return p.id;
        }
        let id = ProcessId(processes.len() as u32);
        processes.push(ProcessMeta {
            id,
            name: name.to_string(),
        });
        id
    }

    /// Registers (or finds) track `name` under `process`.
    pub fn track(&self, process: ProcessId, name: &str) -> TrackId {
        let Some(inner) = &self.inner else {
            return TrackId(0);
        };
        let mut tracks = inner.tracks.borrow_mut();
        if let Some(t) = tracks
            .iter()
            .find(|t| t.process == process && t.name == name)
        {
            return t.id;
        }
        let id = TrackId(tracks.len() as u32);
        tracks.push(TrackMeta {
            id,
            process,
            name: name.to_string(),
        });
        id
    }

    /// Opens a span at `start_cycle`; close it with [`SpanGuard::end`]
    /// (or let the guard drop, which closes at the trace's high-water
    /// cycle).
    pub fn span_at(&self, track: TrackId, name: impl Into<Name>, start_cycle: u64) -> SpanGuard {
        self.span_args(track, name, start_cycle, Args::new())
    }

    /// [`Tracer::span_at`] with arguments attached.
    pub fn span_args(
        &self,
        track: TrackId,
        name: impl Into<Name>,
        start_cycle: u64,
        args: Args,
    ) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard {
                tracer: Tracer::disabled(),
                track,
                id: None,
            };
        }
        let inner = self.inner.as_ref().expect("enabled tracer has inner");
        let id = SpanId(inner.next_span.get());
        inner.next_span.set(id.0 + 1);
        self.emit(Event {
            track,
            cycle: start_cycle,
            kind: EventKind::Begin {
                id,
                name: name.into(),
                args,
            },
        });
        SpanGuard {
            tracer: self.clone(),
            track,
            id: Some(id),
        }
    }

    /// Emits a closed span in one event — the allocation-free leaf-op
    /// path.
    pub fn complete(
        &self,
        track: TrackId,
        name: impl Into<Name>,
        start_cycle: u64,
        dur: u64,
        args: Args,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.emit(Event {
            track,
            cycle: start_cycle,
            kind: EventKind::Complete {
                name: name.into(),
                dur,
                args,
            },
        });
    }

    /// Emits a zero-duration marker.
    pub fn instant(&self, track: TrackId, name: impl Into<Name>, cycle: u64, args: Args) {
        if !self.is_enabled() {
            return;
        }
        self.emit(Event {
            track,
            cycle,
            kind: EventKind::Instant {
                name: name.into(),
                args,
            },
        });
    }

    /// Emits a counter sample.
    pub fn counter(&self, track: TrackId, name: impl Into<Name>, cycle: u64, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.emit(Event {
            track,
            cycle,
            kind: EventKind::Counter {
                name: name.into(),
                value,
            },
        });
    }

    /// Drains the sink and returns the collected [`Trace`]; `None` for
    /// a disabled tracer. Clones of this tracer stay usable (their
    /// later events land in a fresh buffer).
    pub fn finish(&self) -> Option<Trace> {
        let inner = self.inner.as_ref()?;
        Some(Trace {
            processes: inner.processes.borrow().clone(),
            tracks: inner.tracks.borrow().clone(),
            events: inner.sink.borrow_mut().take_events(),
        })
    }

    /// Replaces the ambient correlation tags. Every argument-bearing
    /// event (`Begin`/`Complete`/`Instant`) emitted while tags are set
    /// has them appended — without shadowing the event's own arguments
    /// — so a whole call tree is correlated to a request without
    /// threading ids through every signature. No-op when disabled.
    pub fn set_tags(&self, tags: Args) {
        if let Some(inner) = &self.inner {
            inner.tags.set(tags);
        }
    }

    /// Clears the ambient correlation tags.
    pub fn clear_tags(&self) {
        self.set_tags(Args::new());
    }

    /// The current ambient correlation tags (empty when disabled).
    pub fn tags(&self) -> Args {
        self.inner.as_ref().map_or_else(Args::new, |i| i.tags.get())
    }

    /// Runs `f` with the ambient tags set to `tags`, restoring the
    /// previous tags afterwards (panic-safe restoration is not needed:
    /// the tracer is per-thread and a panic tears the whole trace
    /// down).
    pub fn with_tags<R>(&self, tags: Args, f: impl FnOnce() -> R) -> R {
        let prev = self.tags();
        self.set_tags(tags);
        let out = f();
        self.set_tags(prev);
        out
    }

    fn emit(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        let mut event = event;
        let tags = inner.tags.get();
        if !tags.is_empty() {
            match &mut event.kind {
                EventKind::Begin { args, .. }
                | EventKind::Complete { args, .. }
                | EventKind::Instant { args, .. } => *args = args.merged(tags),
                EventKind::End { .. } | EventKind::Counter { .. } => {}
            }
        }
        let end = match &event.kind {
            EventKind::Complete { dur, .. } => event.cycle + dur,
            _ => event.cycle,
        };
        if end > inner.high_water.get() {
            inner.high_water.set(end);
        }
        inner.sink.borrow_mut().record(event);
    }

    fn high_water(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.high_water.get())
    }
}

/// RAII handle of an open span. Close it at a known cycle with
/// [`SpanGuard::end`]; a guard dropped without `end` closes at the
/// tracer's high-water cycle (best effort, keeps traces well-formed on
/// early exits).
#[derive(Debug)]
#[must_use = "a span guard closes its span when dropped; bind it"]
pub struct SpanGuard {
    tracer: Tracer,
    track: TrackId,
    id: Option<SpanId>,
}

impl SpanGuard {
    /// Closes the span at `cycle`.
    pub fn end(mut self, cycle: u64) {
        self.close(cycle);
    }

    fn close(&mut self, cycle: u64) {
        if let Some(id) = self.id.take() {
            self.tracer.emit(Event {
                track: self.track,
                cycle,
                kind: EventKind::End { id },
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let fallback = self.tracer.high_water();
        self.close(fallback);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_emits_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let pid = t.process("p");
        let track = t.track(pid, "t");
        let span = t.span_at(track, "s", 0);
        t.counter(track, "c", 1, 1.0);
        t.instant(track, "i", 2, Args::new());
        span.end(3);
        assert!(t.finish().is_none());
    }

    #[test]
    fn null_sink_tracer_reports_disabled() {
        let t = Tracer::with_sink(Box::new(crate::NullSink));
        assert!(!t.is_enabled());
        assert_eq!(t.finish().unwrap().events.len(), 0);
    }

    #[test]
    fn registries_deduplicate() {
        let t = Tracer::recording();
        let p1 = t.process("multiplier");
        let p2 = t.process("multiplier");
        assert_eq!(p1, p2);
        let a = t.track(p1, "stage 1");
        let b = t.track(p1, "stage 1");
        let c = t.track(p1, "stage 2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        let trace = t.finish().unwrap();
        assert_eq!(trace.processes.len(), 1);
        assert_eq!(trace.tracks.len(), 2);
    }

    #[test]
    fn span_guard_pairs_begin_and_end() {
        let t = Tracer::recording();
        let track = t.track(t.process("p"), "t");
        t.span_at(track, "outer", 0).end(10);
        let trace = t.finish().unwrap();
        assert_eq!(trace.events.len(), 2);
        match (&trace.events[0].kind, &trace.events[1].kind) {
            (EventKind::Begin { id: open, .. }, EventKind::End { id: close }) => {
                assert_eq!(open, close);
            }
            other => panic!("unexpected events: {other:?}"),
        }
        assert_eq!(trace.events[1].cycle, 10);
    }

    #[test]
    fn dropped_guard_closes_at_high_water() {
        let t = Tracer::recording();
        let track = t.track(t.process("p"), "t");
        {
            let _span = t.span_at(track, "s", 0);
            t.complete(track, "op", 5, 7, Args::new()); // high water = 12
        }
        let trace = t.finish().unwrap();
        let end = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::End { .. }))
            .expect("span closed on drop");
        assert_eq!(end.cycle, 12);
    }

    #[test]
    fn ambient_tags_fold_into_events() {
        let t = Tracer::recording();
        let track = t.track(t.process("p"), "t");
        t.instant(track, "before", 0, Args::new());
        t.with_tags(Args::new().with("request", 7).with("tenant", 1), || {
            t.complete(track, "op", 1, 2, Args::new().with("width", 256));
            t.counter(track, "depth", 1, 3.0); // counters carry no args
        });
        t.instant(track, "after", 5, Args::new());
        let trace = t.finish().unwrap();
        match &trace.events[0].kind {
            EventKind::Instant { args, .. } => assert!(args.is_empty()),
            other => panic!("unexpected: {other:?}"),
        }
        match &trace.events[1].kind {
            EventKind::Complete { args, .. } => {
                assert_eq!(args.get("width"), Some(256));
                assert_eq!(args.get("request"), Some(7));
                assert_eq!(args.get("tenant"), Some(1));
            }
            other => panic!("unexpected: {other:?}"),
        }
        match &trace.events[3].kind {
            EventKind::Instant { args, .. } => {
                assert!(args.is_empty(), "tags restored after scope");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn tags_are_noops_on_disabled_tracer() {
        let t = Tracer::disabled();
        t.set_tags(Args::new().with("request", 1));
        assert!(t.tags().is_empty());
        assert_eq!(t.with_tags(Args::new().with("x", 2), || 42), 42);
        t.clear_tags();
        assert!(t.finish().is_none());
    }

    #[test]
    fn shared_clones_feed_one_buffer() {
        let t = Tracer::recording();
        let track = t.track(t.process("p"), "t");
        let clone = t.clone();
        clone.counter(track, "c", 1, 0.5);
        t.counter(track, "c", 2, 1.5);
        assert_eq!(t.finish().unwrap().events.len(), 2);
    }
}
