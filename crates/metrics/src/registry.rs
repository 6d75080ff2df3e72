//! The metrics registry: a process-wide hub of named counters, gauges
//! and histograms.
//!
//! Mirrors the `cim_trace::Tracer` handle pattern: a [`MetricsHub`] is
//! a cheap-to-clone handle whose disabled form is a `None` — every
//! instrumentation site costs one branch when metrics are off, and the
//! simulation code never needs `cfg` gates. Registration
//! ([`MetricsHub::counter`] etc.) is the slow path and returns a typed
//! handle bound to one `(name, labels)` time series; updates through
//! the handle are a mutex lock plus an indexed add.
//!
//! ## Naming scheme
//!
//! Families follow Prometheus conventions, `cim_<layer>_<what>_<unit>`:
//! `cim_xbar_cycles_total{op_class}`, `cim_core_stage_cycles{stage,
//! width_bits}`, `cim_sched_job_latency_cycles{policy}`, … — see
//! DESIGN.md §2.11 for the full catalogue.

use crate::histogram::Histogram;
use crate::labels::Labels;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The three metric families the registry supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing sum.
    Counter,
    /// A value that can move both ways (depth, utilization).
    Gauge,
    /// A log-bucketed distribution ([`Histogram`]).
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// The current value of one time series.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Scalar counter or gauge value.
    Number(f64),
    /// Histogram state.
    Histogram(Histogram),
}

#[derive(Debug)]
struct FamilyMeta {
    kind: MetricKind,
    help: String,
}

#[derive(Debug)]
struct Slot {
    name: String,
    labels: Labels,
    value: MetricValue,
}

#[derive(Debug, Default)]
pub(crate) struct State {
    families: BTreeMap<String, FamilyMeta>,
    slots: Vec<Slot>,
    index: BTreeMap<(String, Labels), usize>,
}

impl State {
    fn register(&mut self, name: &str, help: &str, labels: &Labels, kind: MetricKind) -> usize {
        assert!(
            is_valid_metric_name(name),
            "invalid metric name {name:?} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        );
        match self.families.get(name) {
            Some(meta) => assert!(
                meta.kind == kind,
                "metric family {name:?} re-registered as {kind:?}, was {:?}",
                meta.kind
            ),
            None => {
                self.families.insert(
                    name.to_string(),
                    FamilyMeta {
                        kind,
                        help: help.to_string(),
                    },
                );
            }
        }
        let key = (name.to_string(), labels.clone());
        if let Some(&i) = self.index.get(&key) {
            return i;
        }
        let i = self.slots.len();
        self.slots.push(Slot {
            name: name.to_string(),
            labels: labels.clone(),
            value: match kind {
                MetricKind::Histogram => MetricValue::Histogram(Histogram::new()),
                _ => MetricValue::Number(0.0),
            },
        });
        self.index.insert(key, i);
        i
    }
}

/// Whether `name` matches the Prometheus metric-name grammar.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

type Shared = Arc<Mutex<State>>;

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.lock().unwrap_or_else(|e| e.into_inner())
}

/// Cheap-to-clone handle to a metrics registry; the disabled handle
/// makes every operation a single-branch no-op.
///
/// ```
/// use cim_metrics::{Labels, MetricsHub};
///
/// let hub = MetricsHub::recording();
/// let ops = hub.counter(
///     "cim_demo_ops_total",
///     "operations executed",
///     &Labels::new().with("op_class", "write"),
/// );
/// ops.inc();
/// ops.add(4.0);
/// assert_eq!(hub.snapshot().number("cim_demo_ops_total"), Some(5.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Option<Shared>,
}

impl MetricsHub {
    /// The disabled hub: all registrations return no-op handles.
    pub fn disabled() -> Self {
        MetricsHub { inner: None }
    }

    /// A live hub that records everything published through it.
    pub fn recording() -> Self {
        MetricsHub {
            inner: Some(Arc::new(Mutex::new(State::default()))),
        }
    }

    /// Whether this handle records anything. Instrumentation sites may
    /// branch on this to skip building labels.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn slot(
        &self,
        name: &str,
        help: &str,
        labels: &Labels,
        kind: MetricKind,
    ) -> Option<(Shared, usize)> {
        let shared = self.inner.as_ref()?;
        let i = lock(shared).register(name, help, labels, kind);
        Some((Arc::clone(shared), i))
    }

    /// Registers (or re-attaches to) a counter time series.
    pub fn counter(&self, name: &str, help: &str, labels: &Labels) -> Counter {
        Counter {
            slot: self.slot(name, help, labels, MetricKind::Counter),
        }
    }

    /// Registers (or re-attaches to) a gauge time series.
    pub fn gauge(&self, name: &str, help: &str, labels: &Labels) -> Gauge {
        Gauge {
            slot: self.slot(name, help, labels, MetricKind::Gauge),
        }
    }

    /// Registers (or re-attaches to) a histogram time series.
    pub fn histogram(&self, name: &str, help: &str, labels: &Labels) -> HistogramHandle {
        HistogramHandle {
            slot: self.slot(name, help, labels, MetricKind::Histogram),
        }
    }

    /// One-shot convenience: add `v` to a counter series.
    pub fn add_counter(&self, name: &str, help: &str, labels: &Labels, v: f64) {
        self.counter(name, help, labels).add(v);
    }

    /// One-shot convenience: set a gauge series to `v`.
    pub fn set_gauge(&self, name: &str, help: &str, labels: &Labels, v: f64) {
        self.gauge(name, help, labels).set(v);
    }

    /// One-shot convenience: record `v` into a histogram series.
    pub fn observe(&self, name: &str, help: &str, labels: &Labels, v: u64) {
        self.histogram(name, help, labels).observe(v);
    }

    /// One-shot convenience: fold a whole [`Histogram`] into a series.
    pub fn merge_histogram(&self, name: &str, help: &str, labels: &Labels, h: &Histogram) {
        self.histogram(name, help, labels).merge(h);
    }

    /// A point-in-time copy of every registered series, sorted by
    /// family name then label set — the input to the Prometheus and
    /// JSON exporters. Empty when the hub is disabled.
    pub fn snapshot(&self) -> crate::snapshot::Snapshot {
        let Some(shared) = self.inner.as_ref() else {
            return crate::snapshot::Snapshot::default();
        };
        let state = lock(shared);
        let mut families: BTreeMap<&str, crate::snapshot::Family> = BTreeMap::new();
        for (name, meta) in &state.families {
            families.insert(
                name,
                crate::snapshot::Family {
                    name: name.clone(),
                    kind: meta.kind,
                    help: meta.help.clone(),
                    samples: Vec::new(),
                },
            );
        }
        for slot in &state.slots {
            families
                .get_mut(slot.name.as_str())
                .expect("slot without family")
                .samples
                .push(crate::snapshot::Sample {
                    labels: slot.labels.clone(),
                    value: slot.value.clone(),
                });
        }
        let mut out: Vec<crate::snapshot::Family> = families.into_values().collect();
        for f in &mut out {
            f.samples.sort_by(|a, b| a.labels.cmp(&b.labels));
        }
        crate::snapshot::Snapshot { families: out }
    }
}

macro_rules! with_slot {
    ($self:ident, $slot:ident, $body:expr) => {
        if let Some((shared, i)) = $self.slot.as_ref() {
            let mut state = lock(shared);
            let $slot = &mut state.slots[*i].value;
            $body
        }
    };
}

/// Handle to one counter time series; no-op when the hub is disabled.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    slot: Option<(Shared, usize)>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Adds `v` (negative increments are a caller bug; debug-asserted).
    pub fn add(&self, v: f64) {
        debug_assert!(v >= 0.0, "counter increments must be non-negative");
        with_slot!(self, value, {
            if let MetricValue::Number(n) = value {
                *n += v;
            }
        });
    }
}

/// Handle to one gauge time series; no-op when the hub is disabled.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    slot: Option<(Shared, usize)>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        with_slot!(self, value, {
            if let MetricValue::Number(n) = value {
                *n = v;
            }
        });
    }

    /// Moves the gauge by `delta` (either sign).
    pub fn add(&self, delta: f64) {
        with_slot!(self, value, {
            if let MetricValue::Number(n) = value {
                *n += delta;
            }
        });
    }

    /// Raises the gauge to `v` if `v` is larger — peak tracking.
    pub fn set_max(&self, v: f64) {
        with_slot!(self, value, {
            if let MetricValue::Number(n) = value {
                if v > *n {
                    *n = v;
                }
            }
        });
    }
}

/// Handle to one histogram time series; no-op when the hub is
/// disabled.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle {
    slot: Option<(Shared, usize)>,
}

impl HistogramHandle {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        with_slot!(self, value, {
            if let MetricValue::Histogram(h) = value {
                h.record(v);
            }
        });
    }

    /// Folds a pre-aggregated [`Histogram`] into the series — the
    /// multi-tile aggregation path.
    pub fn merge(&self, other: &Histogram) {
        with_slot!(self, value, {
            if let MetricValue::Histogram(h) = value {
                h.merge(other);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_is_a_noop() {
        let hub = MetricsHub::disabled();
        assert!(!hub.is_enabled());
        let c = hub.counter("cim_x_total", "x", &Labels::new());
        c.inc();
        hub.observe("cim_h", "h", &Labels::new(), 5);
        assert!(hub.snapshot().families.is_empty());
        assert!(MetricsHub::default().snapshot().families.is_empty());
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let hub = MetricsHub::recording();
        let w = hub.counter(
            "cim_ops_total",
            "ops",
            &Labels::new().with("op_class", "write"),
        );
        let r = hub.counter(
            "cim_ops_total",
            "ops",
            &Labels::new().with("op_class", "read"),
        );
        w.add(3.0);
        r.inc();
        // Re-attaching by the same (name, labels) hits the same slot.
        hub.add_counter(
            "cim_ops_total",
            "ops",
            &Labels::new().with("op_class", "write"),
            2.0,
        );
        let snap = hub.snapshot();
        assert_eq!(snap.families.len(), 1);
        assert_eq!(snap.families[0].samples.len(), 2);
        assert_eq!(
            snap.number_with("cim_ops_total", &Labels::new().with("op_class", "write")),
            Some(5.0)
        );
        assert_eq!(
            snap.number_with("cim_ops_total", &Labels::new().with("op_class", "read")),
            Some(1.0)
        );
    }

    #[test]
    fn gauges_set_add_and_track_peaks() {
        let hub = MetricsHub::recording();
        let g = hub.gauge("cim_depth", "queue depth", &Labels::new());
        g.set(4.0);
        g.add(-1.0);
        assert_eq!(hub.snapshot().number("cim_depth"), Some(3.0));
        let p = hub.gauge("cim_depth_peak", "peak depth", &Labels::new());
        p.set_max(2.0);
        p.set_max(7.0);
        p.set_max(5.0);
        assert_eq!(hub.snapshot().number("cim_depth_peak"), Some(7.0));
    }

    #[test]
    fn histograms_observe_and_merge() {
        let hub = MetricsHub::recording();
        let h = hub.histogram("cim_lat", "latency", &Labels::new());
        h.observe(10);
        h.observe(20);
        let mut pre = Histogram::new();
        pre.record(30);
        h.merge(&pre);
        let snap = hub.snapshot();
        let got = snap.histogram("cim_lat").unwrap();
        assert_eq!(got.count(), 3);
        assert_eq!(got.max(), 30);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let hub = MetricsHub::recording();
        hub.counter("cim_x", "x", &Labels::new());
        hub.gauge("cim_x", "x", &Labels::new());
    }

    #[test]
    fn metric_name_grammar() {
        assert!(is_valid_metric_name("cim_xbar_cycles_total"));
        assert!(is_valid_metric_name("_a:b_9"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("9abc"));
        assert!(!is_valid_metric_name("has-dash"));
        assert!(!is_valid_metric_name("has space"));
    }

    #[test]
    fn clones_share_state() {
        let hub = MetricsHub::recording();
        let other = hub.clone();
        other.add_counter("cim_n", "n", &Labels::new(), 2.0);
        assert_eq!(hub.snapshot().number("cim_n"), Some(2.0));
        assert!(hub.is_enabled());
    }
}
