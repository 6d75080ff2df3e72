//! The timeline store: periodic scrapes of metric snapshots into
//! per-series ring buffers.
//!
//! [`TimelineStore::scrape`] walks a [`cim_metrics::Snapshot`] at a
//! virtual-cycle observation point and appends one point per tracked
//! series. Number metrics become one series; histograms fan out into
//! derived sub-series (`count`, `sum`, `min`, `max`, `p50`, `p99`), so
//! a latency histogram's tail is a first-class series the drift
//! detector can watch.
//!
//! **Determinism.** Snapshots are deterministic functions of the
//! virtual-cycle simulation, scrape points are chosen on the virtual
//! clock, and series are keyed by `(family, labels, field)` in a
//! `BTreeMap` — so [`TimelineStore::to_json`] and
//! [`TimelineStore::render_prom`] are byte-identical across identical
//! runs. No wall-clock value ever enters the store.

use std::collections::BTreeMap;

use cim_metrics::{Labels, MetricValue, Snapshot};
use cim_trace::json::JsonWriter;

use crate::series::Series;

/// Derived fields a histogram expands into.
const HISTOGRAM_FIELDS: [&str; 6] = ["count", "sum", "min", "max", "p50", "p99"];

/// Identity of one timeline series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric family name.
    pub family: String,
    /// The sample's label set.
    pub labels: Labels,
    /// `value` for plain numbers, or a derived histogram field.
    pub field: &'static str,
}

/// Timeline sizing and family selection.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Ring capacity per series, in points.
    pub capacity: usize,
    /// Family filters: exact names, or prefixes written with a
    /// trailing `*` (e.g. `cim_serve_*`). Empty tracks every family.
    pub families: Vec<String>,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            capacity: 256,
            families: vec![
                "cim_serve_*".to_string(),
                "cim_sched_*".to_string(),
                "cim_obs_*".to_string(),
                "cim_pulse_*".to_string(),
            ],
        }
    }
}

impl TimelineConfig {
    /// Whether `family` passes the filter list.
    pub fn tracks(&self, family: &str) -> bool {
        if self.families.is_empty() {
            return true;
        }
        self.families.iter().any(|f| match f.strip_suffix('*') {
            Some(prefix) => family.starts_with(prefix),
            None => family == f,
        })
    }
}

/// The timeline store. See the module docs.
#[derive(Debug, Clone)]
pub struct TimelineStore {
    config: TimelineConfig,
    series: BTreeMap<SeriesKey, Series>,
    scrapes: u64,
    last_cycle: u64,
}

impl TimelineStore {
    /// An empty store with the given config.
    pub fn new(config: TimelineConfig) -> Self {
        TimelineStore {
            config,
            series: BTreeMap::new(),
            scrapes: 0,
            last_cycle: 0,
        }
    }

    /// Scrapes completed so far.
    pub fn scrapes(&self) -> u64 {
        self.scrapes
    }

    /// Virtual cycle of the newest scrape.
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total points currently retained across all series.
    pub fn point_count(&self) -> u64 {
        self.series.values().map(|s| s.len() as u64).sum()
    }

    /// The series for `key`, if it has been scraped at least once.
    pub fn series(&self, key: &SeriesKey) -> Option<&Series> {
        self.series.get(key)
    }

    /// All series in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&SeriesKey, &Series)> {
        self.series.iter()
    }

    /// Appends one point to one series directly — the hook producers
    /// use for derived signals (window throughput, shed ratio) that do
    /// not live in the metrics registry.
    pub fn record(&mut self, cycle: u64, family: &str, labels: &Labels, value: f64) {
        self.record_field(cycle, family, labels, "value", value);
    }

    fn record_field(
        &mut self,
        cycle: u64,
        family: &str,
        labels: &Labels,
        field: &'static str,
        value: f64,
    ) {
        let key = SeriesKey {
            family: family.to_string(),
            labels: labels.clone(),
            field,
        };
        let capacity = self.config.capacity;
        self.series
            .entry(key)
            .or_insert_with(|| Series::new(capacity))
            .push(cycle, value);
    }

    /// Scrapes one snapshot at virtual cycle `cycle`: every sample in
    /// every tracked family appends one point (numbers) or one point
    /// per derived field (histograms).
    pub fn scrape(&mut self, cycle: u64, snapshot: &Snapshot) {
        self.scrapes += 1;
        self.last_cycle = self.last_cycle.max(cycle);
        for family in &snapshot.families {
            if !self.config.tracks(&family.name) {
                continue;
            }
            for sample in &family.samples {
                match &sample.value {
                    MetricValue::Number(v) => {
                        self.record_field(cycle, &family.name, &sample.labels, "value", *v);
                    }
                    MetricValue::Histogram(h) => {
                        if h.count() == 0 {
                            continue;
                        }
                        for (field, v) in [
                            ("count", h.count() as f64),
                            ("sum", h.sum() as f64),
                            ("min", h.min() as f64),
                            ("max", h.max() as f64),
                            ("p50", h.p50() as f64),
                            ("p99", h.p99() as f64),
                        ] {
                            debug_assert!(HISTOGRAM_FIELDS.contains(&field));
                            self.record_field(cycle, &family.name, &sample.labels, field, v);
                        }
                    }
                }
            }
        }
    }

    /// Serializes the whole timeline into `w`:
    /// `{"schema":"cim-pulse-timeline/1","scrapes":..,"last_cycle":..,
    ///   "series":[{"family":..,"labels":{..},"field":..,"pushed":..,
    ///              "dropped":..,"points":[[cycle,value],..]},..]}`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.open_object()
            .field_str("schema", "cim-pulse-timeline/1")
            .field_uint("scrapes", self.scrapes)
            .field_uint("last_cycle", self.last_cycle)
            .key("series")
            .open_array();
        for (key, series) in &self.series {
            w.open_object()
                .field_str("family", &key.family)
                .key("labels")
                .open_object();
            for (k, v) in key.labels.iter() {
                w.field_str(k, v);
            }
            w.close_object()
                .field_str("field", key.field)
                .field_uint("pushed", series.pushed())
                .field_uint("dropped", series.dropped())
                .key("points");
            series.write_points_json(w);
            w.close_object();
        }
        w.close_array().close_object();
    }

    /// The timeline as one deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Prometheus-style exposition of the full history: one line per
    /// point, with the virtual cycle in the timestamp position. Series
    /// names append the derived field (`_p99` etc.) for histograms.
    pub fn render_prom(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<String> = None;
        for (key, series) in &self.series {
            let name = if key.field == "value" {
                key.family.clone()
            } else {
                format!("{}_{}", key.family, key.field)
            };
            if last_name.as_deref() != Some(&name) {
                out.push_str(&format!("# TYPE {name} untyped\n"));
                last_name = Some(name.clone());
            }
            let labels = if key.labels.is_empty() {
                String::new()
            } else {
                let inner: Vec<String> = key
                    .labels
                    .iter()
                    .map(|(k, v)| {
                        format!("{k}=\"{}\"", cim_metrics::escape_label_value(v))
                    })
                    .collect();
                format!("{{{}}}", inner.join(","))
            };
            for p in series.points() {
                out.push_str(&format!(
                    "{name}{labels} {} {}\n",
                    cim_trace::json::number(p.value),
                    p.cycle
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_metrics::MetricsHub;

    fn hub() -> MetricsHub {
        let hub = MetricsHub::recording();
        hub.add_counter(
            "cim_serve_requests_total",
            "",
            &Labels::new().with("tenant", "t0"),
            5.0,
        );
        hub.observe(
            "cim_serve_latency_cycles",
            "",
            &Labels::new().with("tenant", "t0"),
            1234,
        );
        hub.add_counter("unrelated_total", "", &Labels::new(), 1.0);
        hub
    }

    #[test]
    fn scrape_tracks_filtered_families_and_expands_histograms() {
        let mut store = TimelineStore::new(TimelineConfig::default());
        store.scrape(100, &hub().snapshot());
        // 1 number series + 6 derived histogram fields; `unrelated_total`
        // is filtered out.
        assert_eq!(store.series_count(), 7);
        assert_eq!(store.scrapes(), 1);
        assert_eq!(store.point_count(), 7);
        let key = SeriesKey {
            family: "cim_serve_latency_cycles".to_string(),
            labels: Labels::new().with("tenant", "t0"),
            field: "p99",
        };
        assert_eq!(store.series(&key).unwrap().last().unwrap().cycle, 100);
    }

    #[test]
    fn empty_filter_tracks_everything() {
        let config = TimelineConfig { families: Vec::new(), ..TimelineConfig::default() };
        assert!(config.tracks("anything_at_all"));
        let mut store = TimelineStore::new(config);
        store.scrape(1, &hub().snapshot());
        assert_eq!(store.series_count(), 8);
    }

    #[test]
    fn default_filter_leaves_core_families_out() {
        let config = TimelineConfig::default();
        assert!(config.tracks("cim_serve_requests_total"));
        // Core families stay opt-in: the timeline is a fleet view, not
        // a per-multiplication firehose.
        assert!(!config.tracks("cim_core_stage_cycles"));
        let mut store = TimelineStore::new(config);
        let hub = MetricsHub::recording();
        hub.set_gauge("cim_core_area_cells", "", &Labels::new(), 42.0);
        store.scrape(5, &hub.snapshot());
        assert_eq!(store.series_count(), 0);
    }

    #[test]
    fn exact_filter_requires_exact_match() {
        let config = TimelineConfig {
            families: vec!["cim_serve_requests_total".to_string()],
            ..TimelineConfig::default()
        };
        assert!(config.tracks("cim_serve_requests_total"));
        assert!(!config.tracks("cim_serve_requests_total_more"));
    }

    #[test]
    fn json_and_prom_are_deterministic() {
        let build = || {
            let mut store = TimelineStore::new(TimelineConfig::default());
            store.scrape(10, &hub().snapshot());
            store.record(20, "cim_pulse_throughput_per_mcc", &Labels::new(), 42.5);
            store.scrape(30, &hub().snapshot());
            (store.to_json(), store.render_prom())
        };
        let (json_a, prom_a) = build();
        let (json_b, prom_b) = build();
        assert_eq!(json_a, json_b);
        assert_eq!(prom_a, prom_b);
        cim_trace::json::check(&json_a).unwrap();
        assert!(json_a.contains("\"schema\":\"cim-pulse-timeline/1\""));
        assert!(prom_a.contains("cim_serve_latency_cycles_p99{tenant=\"t0\"} 1234 10"));
        assert!(prom_a.contains("cim_pulse_throughput_per_mcc 42.5 20"));
    }
}
