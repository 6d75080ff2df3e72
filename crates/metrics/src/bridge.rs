//! The trace → metrics bridge.
//!
//! [`MetricsSink`] is a [`TraceSink`] decorator: it forwards every
//! event to an inner sink unchanged (so Chrome/folded export keeps
//! working) and additionally folds span completions into per-name
//! duration histograms, `cim_trace_span_cycles{span="…"}`. Plug it
//! into a tracer with
//! `Tracer::with_sink(Box::new(MetricsSink::new(inner, hub)))` and
//! every traced run feeds the metrics plane for free.

use crate::histogram::Histogram;
use crate::labels::Labels;
use crate::registry::MetricsHub;
use cim_trace::{Event, EventKind, TraceSink};
use std::collections::BTreeMap;

/// Family name the bridge publishes span durations under.
pub const SPAN_CYCLES_METRIC: &str = "cim_trace_span_cycles";
const SPAN_CYCLES_HELP: &str = "span duration in simulated cycles, by span name";

/// A [`TraceSink`] decorator feeding span durations into a
/// [`MetricsHub`].
#[derive(Debug)]
pub struct MetricsSink {
    inner: Box<dyn TraceSink>,
    hub: MetricsHub,
    /// Open spans: span id → (name, begin cycle).
    open: BTreeMap<u64, (String, u64)>,
    /// Locally aggregated durations per span name; flushed to the hub
    /// on every observation (handles are cached per name).
    handles: BTreeMap<String, crate::registry::HistogramHandle>,
}

impl MetricsSink {
    /// Wraps `inner`, publishing span durations into `hub`.
    pub fn new(inner: Box<dyn TraceSink>, hub: MetricsHub) -> Self {
        MetricsSink {
            inner,
            hub,
            open: BTreeMap::new(),
            handles: BTreeMap::new(),
        }
    }

    fn observe(&mut self, name: &str, dur: u64) {
        if !self.hub.is_enabled() {
            return;
        }
        let handle = self.handles.entry(name.to_string()).or_insert_with(|| {
            self.hub.histogram(
                SPAN_CYCLES_METRIC,
                SPAN_CYCLES_HELP,
                &Labels::new().with("span", name),
            )
        });
        handle.observe(dur);
    }
}

impl TraceSink for MetricsSink {
    fn record(&mut self, event: Event) {
        match &event.kind {
            EventKind::Begin { id, name, .. } => {
                self.open
                    .insert(id.0, (name.as_str().to_string(), event.cycle));
            }
            EventKind::End { id } => {
                if let Some((name, begin)) = self.open.remove(&id.0) {
                    self.observe(&name, event.cycle.saturating_sub(begin));
                }
            }
            EventKind::Complete { name, dur, .. } => {
                let name = name.as_str().to_string();
                self.observe(&name, *dur);
            }
            EventKind::Instant { .. } | EventKind::Counter { .. } => {}
        }
        self.inner.record(event);
    }

    fn enabled(&self) -> bool {
        self.inner.enabled() || self.hub.is_enabled()
    }

    fn take_events(&mut self) -> Vec<Event> {
        self.inner.take_events()
    }
}

/// A [`MetricsHub`]-backed histogram of one value stream, usable
/// without a tracer — convenience for code that already has a local
/// [`Histogram`] and wants to publish it under a name.
pub fn publish_histogram(hub: &MetricsHub, name: &str, help: &str, labels: &Labels, h: &Histogram) {
    hub.merge_histogram(name, help, labels, h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_trace::{Args, MemorySink, Tracer};

    #[test]
    fn complete_events_feed_span_histograms() {
        let hub = MetricsHub::recording();
        let tracer = Tracer::with_sink(Box::new(MetricsSink::new(
            Box::new(MemorySink::new()),
            hub.clone(),
        )));
        let track = tracer.track(tracer.process("p"), "t");
        tracer.complete(track, "magic op", 0, 9, Args::new());
        tracer.complete(track, "magic op", 10, 11, Args::new());
        tracer.complete(track, "write", 0, 2, Args::new());
        let snap = hub.snapshot();
        let h = snap
            .histogram_with(SPAN_CYCLES_METRIC, &Labels::new().with("span", "magic op"))
            .expect("span family present");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 20);
        assert_eq!(
            snap.histogram_with(SPAN_CYCLES_METRIC, &Labels::new().with("span", "write"))
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn begin_end_pairs_measure_durations() {
        let hub = MetricsHub::recording();
        let tracer = Tracer::with_sink(Box::new(MetricsSink::new(
            Box::new(MemorySink::new()),
            hub.clone(),
        )));
        let track = tracer.track(tracer.process("p"), "t");
        let span = tracer.span_at(track, "stage", 5);
        span.end(105);
        let snap = hub.snapshot();
        let h = snap
            .histogram_with(SPAN_CYCLES_METRIC, &Labels::new().with("span", "stage"))
            .unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn inner_sink_still_receives_everything() {
        let hub = MetricsHub::recording();
        let tracer = Tracer::with_sink(Box::new(MetricsSink::new(
            Box::new(MemorySink::new()),
            hub.clone(),
        )));
        let track = tracer.track(tracer.process("p"), "t");
        tracer.complete(track, "op", 0, 3, Args::new());
        tracer.instant(track, "mark", 1, Args::new());
        let trace = tracer.finish().unwrap();
        assert_eq!(trace.events.len(), 2, "bridge must not swallow events");
    }

    #[test]
    fn disabled_hub_bridge_forwards_only() {
        let sink = MetricsSink::new(Box::new(MemorySink::new()), MetricsHub::disabled());
        let tracer = Tracer::with_sink(Box::new(sink));
        assert!(tracer.is_enabled(), "inner MemorySink keeps tracing on");
        let track = tracer.track(tracer.process("p"), "t");
        tracer.complete(track, "op", 0, 3, Args::new());
        assert_eq!(tracer.finish().unwrap().events.len(), 1);
    }

    #[test]
    fn publish_histogram_merges_local_aggregates() {
        let hub = MetricsHub::recording();
        let mut local = Histogram::new();
        local.record(4);
        local.record(8);
        publish_histogram(&hub, "cim_local", "local", &Labels::new(), &local);
        assert_eq!(hub.snapshot().histogram("cim_local").unwrap().count(), 2);
    }
}
