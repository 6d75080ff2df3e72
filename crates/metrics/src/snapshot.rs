//! Point-in-time snapshots of a registry and their JSON serialization.
//!
//! A [`Snapshot`] is a plain, fully-owned copy of every family and
//! series, sorted by family name and then label set, so two snapshots
//! of identical registry state serialize byte-identically — the
//! property the bench regression gate relies on.

use crate::histogram::Histogram;
use crate::labels::Labels;
use crate::registry::{MetricKind, MetricValue};
use cim_trace::json::JsonWriter;

/// One exported time series: a label set and its current value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The series' label set.
    pub labels: Labels,
    /// The series' value at snapshot time.
    pub value: MetricValue,
}

/// One metric family: name, kind, help text, and all its series.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Family name (Prometheus grammar).
    pub name: String,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Help text (first registration wins).
    pub help: String,
    /// Series sorted by label set.
    pub samples: Vec<Sample>,
}

/// A sorted, fully-owned copy of a registry's state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Families sorted by name.
    pub families: Vec<Family>,
}

impl Snapshot {
    /// The family named `name`, if present.
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// The scalar value of the single-series family `name`.
    /// `None` if absent, a histogram, or multi-series.
    pub fn number(&self, name: &str) -> Option<f64> {
        let f = self.family(name)?;
        match f.samples.as_slice() {
            [Sample {
                value: MetricValue::Number(v),
                ..
            }] => Some(*v),
            _ => None,
        }
    }

    /// The scalar value of series `(name, labels)`.
    pub fn number_with(&self, name: &str, labels: &Labels) -> Option<f64> {
        self.family(name)?
            .samples
            .iter()
            .find_map(|s| match (&s.value, &s.labels == labels) {
                (MetricValue::Number(v), true) => Some(*v),
                _ => None,
            })
    }

    /// The histogram of the single-series family `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        let f = self.family(name)?;
        match f.samples.as_slice() {
            [Sample {
                value: MetricValue::Histogram(h),
                ..
            }] => Some(h),
            _ => None,
        }
    }

    /// The histogram of series `(name, labels)`.
    pub fn histogram_with(&self, name: &str, labels: &Labels) -> Option<&Histogram> {
        self.family(name)?
            .samples
            .iter()
            .find_map(|s| match (&s.value, &s.labels == labels) {
                (MetricValue::Histogram(h), true) => Some(h),
                _ => None,
            })
    }

    /// Serializes the snapshot as deterministic JSON:
    ///
    /// ```json
    /// {"families":[{"name":...,"kind":...,"help":...,
    ///   "samples":[{"labels":{...},"value":1.5} |
    ///              {"labels":{...},"histogram":{"count":...,"sum":...,
    ///               "min":...,"max":...,"p50":...,"p90":...,"p99":...,
    ///               "buckets":[[le,count],...]}}]}]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object().key("families").open_array();
        for f in &self.families {
            w.open_object()
                .field_str("name", &f.name)
                .field_str("kind", f.kind.as_str())
                .field_str("help", &f.help)
                .key("samples")
                .open_array();
            for s in &f.samples {
                w.open_object().key("labels").open_object();
                for (k, v) in s.labels.iter() {
                    w.field_str(k, v);
                }
                w.close_object();
                match &s.value {
                    MetricValue::Number(v) => {
                        w.field_float("value", *v);
                    }
                    MetricValue::Histogram(h) => {
                        w.key("histogram").open_object();
                        w.field_uint("count", h.count())
                            .field_uint("sum", h.sum())
                            .field_uint("min", h.min())
                            .field_uint("max", h.max())
                            .field_uint("p50", h.p50())
                            .field_uint("p90", h.p90())
                            .field_uint("p99", h.p99())
                            .key("buckets")
                            .open_array();
                        for (le, count) in h.buckets() {
                            w.open_array().uint(le).uint(count).close_array();
                        }
                        w.close_array().close_object();
                    }
                }
                w.close_object();
            }
            w.close_array().close_object();
        }
        w.close_array().close_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsHub;

    fn demo_hub() -> MetricsHub {
        let hub = MetricsHub::recording();
        hub.add_counter(
            "cim_ops_total",
            "ops executed",
            &Labels::new().with("op_class", "write"),
            7.0,
        );
        hub.set_gauge("cim_util", "utilization", &Labels::new(), 0.5);
        hub.observe("cim_lat", "latency cycles", &Labels::new(), 100);
        hub.observe("cim_lat", "latency cycles", &Labels::new(), 3);
        hub
    }

    #[test]
    fn accessors_find_series() {
        let snap = demo_hub().snapshot();
        assert_eq!(
            snap.number_with("cim_ops_total", &Labels::new().with("op_class", "write")),
            Some(7.0)
        );
        assert_eq!(snap.number("cim_util"), Some(0.5));
        assert_eq!(snap.histogram("cim_lat").unwrap().count(), 2);
        assert!(snap.number("cim_lat").is_none());
        assert!(snap.histogram("cim_util").is_none());
        assert!(snap.family("absent").is_none());
        assert!(snap.histogram_with("cim_lat", &Labels::new()).is_some());
    }

    #[test]
    fn json_is_valid_and_deterministic() {
        let a = demo_hub().snapshot().to_json();
        let b = demo_hub().snapshot().to_json();
        assert_eq!(a, b, "identical state must serialize identically");
        cim_trace::json::check(&a).expect("snapshot JSON must be well-formed");
        assert!(a.contains("\"cim_ops_total\""));
        assert!(a.contains("\"histogram\""));
        assert!(a.contains("\"p99\""));
    }

    #[test]
    fn round_trips_the_metrics_snapshot() {
        let hub = MetricsHub::recording();
        hub.add_counter("cim_x_total", "x", &Labels::new().with("k", "v\n"), 2.5);
        hub.observe("cim_h", "h", &Labels::new(), 40);
        let json = hub.snapshot().to_json();
        let v = cim_trace::json::parse(&json).unwrap();
        let fams = v.get("families").unwrap().as_array().unwrap();
        assert_eq!(fams.len(), 2);
        assert_eq!(fams[1].get("name").unwrap().as_str(), Some("cim_x_total"));
        let sample = &fams[1].get("samples").unwrap().as_array().unwrap()[0];
        assert_eq!(sample.get("value").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            sample.get("labels").unwrap().get("k").unwrap().as_str(),
            Some("v\n")
        );
    }

    #[test]
    fn empty_snapshot_serializes() {
        let s = Snapshot::default().to_json();
        assert_eq!(s, r#"{"families":[]}"#);
        cim_trace::json::check(&s).unwrap();
    }
}
