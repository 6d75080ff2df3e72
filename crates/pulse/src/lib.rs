//! cim-pulse: virtual-time telemetry history and trend analysis.
//!
//! Every earlier observability layer in this workspace answers "what
//! is true now" — a metrics snapshot, a journal dump, an attribution
//! report. This crate answers "what is *changing*": it scrapes
//! [`cim_metrics::Snapshot`]s at virtual-cycle observation points into
//! ring-buffer series ([`TimelineStore`]), fits wear trends against
//! the cell write budget ([`EnduranceForecaster`]), and watches serve
//! signals for change points ([`DriftDetector`]), journaling alerts
//! into the cim-obs flight recorder.
//!
//! The load-bearing property is **virtual-time determinism**: scrape
//! points are chosen on the simulation's virtual clock (a request
//! cadence over arrival cycles, never wall time), every scraped value
//! is a deterministic function of the request trace, and every
//! container is ordered — so two identical runs produce byte-identical
//! timeline JSON, forecasts, and alert sequences. History becomes a
//! CI-checkable artifact, exactly like the point-in-time snapshots
//! before it.
//!
//! [`PulseHub`] composes the three engines behind one `observe` call;
//! the serve layer's `loadgen::run` drives it when the hub is among
//! the run's `Observers`.

pub mod drift;
pub mod forecast;
pub mod rollup;
pub mod series;
pub mod store;

pub use drift::{DriftAlert, DriftConfig, DriftDetector, DriftDirection};
pub use forecast::{EnduranceForecaster, TileForecast, WRITE_BUDGET};
pub use rollup::{Rollup, WindowStats};
pub use series::{Series, SeriesPoint};
pub use store::{SeriesKey, TimelineConfig, TimelineStore};

use cim_metrics::{Labels, MetricsHub, Snapshot};
use cim_obs::journal::{FlightRecorder, ObsEventKind};
use cim_trace::json::JsonWriter;

/// Drift-alert counter family, one series per signal. Matches
/// [`cim_obs::slo::DRIFT_ALERTS_FAMILY`] so `fleet.drift_alerts`
/// SLO rules can read it without obs depending on pulse.
pub const DRIFT_ALERTS_FAMILY: &str = cim_obs::slo::DRIFT_ALERTS_FAMILY;
/// Scrapes folded into the timeline so far.
pub const SCRAPES_FAMILY: &str = "cim_pulse_scrapes_total";
/// Distinct timeline series.
pub const TIMELINE_SERIES_FAMILY: &str = "cim_pulse_timeline_series";
/// Points retained across all timeline series.
pub const TIMELINE_POINTS_FAMILY: &str = "cim_pulse_timeline_points";
/// Latest cumulative worst-cell writes per tile.
pub const WEAR_WRITES_FAMILY: &str = "cim_pulse_wear_writes";
/// Fitted wear rate per tile, in writes per 10⁶ cycles.
pub const WEAR_SLOPE_FAMILY: &str = "cim_pulse_wear_slope_per_mcc";
/// Forecast virtual cycles until the write budget, per tile.
pub const WEAR_CYCLES_REMAINING_FAMILY: &str = "cim_pulse_wear_cycles_remaining";

/// Synthetic timeline families for the derived serve signals.
const THROUGHPUT_FAMILY: &str = "cim_pulse_throughput_per_mcc";
const SHED_RATIO_FAMILY: &str = "cim_pulse_shed_ratio";
const P99_FAMILY: &str = "cim_pulse_p99_latency_cycles";

/// Signal labels, in the order the hub's detectors run.
pub const SIGNALS: [&str; 3] = ["throughput", "shed_ratio", "p99_latency"];

/// Sizing for a [`PulseHub`].
#[derive(Debug, Clone)]
pub struct PulseConfig {
    /// Timeline store sizing and family filters.
    pub timeline: TimelineConfig,
    /// Shared drift-detector sizing (one detector per signal).
    pub drift: DriftConfig,
    /// Points retained per wear series.
    pub wear_capacity: usize,
    /// Write budget forecasts are measured against.
    pub wear_budget: u64,
}

impl Default for PulseConfig {
    fn default() -> Self {
        PulseConfig {
            timeline: TimelineConfig::default(),
            drift: DriftConfig::default(),
            wear_capacity: 256,
            wear_budget: WRITE_BUDGET,
        }
    }
}

/// One serve-layer observation: cumulative counters plus the current
/// per-tile wear, all read from state the engine already computed (the
/// hub never influences a serving decision).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeObservation<'a> {
    /// Virtual cycle of the observation point.
    pub cycle: u64,
    /// Requests submitted so far.
    pub submitted: u64,
    /// Requests served so far.
    pub served: u64,
    /// Requests shed so far.
    pub shed: u64,
    /// Current overall p99 latency in cycles (0 until measurable).
    pub p99_latency_cycles: u64,
    /// Cumulative `(farm, tile, worst_cell_writes)` triples.
    pub tile_wear: &'a [(u32, u32, u64)],
    /// Whether this is the drain observation (taken at `drained_at`,
    /// after arrivals stop). Drain points still feed the timeline and
    /// the wear series, but not the drift detectors: the drain tail's
    /// serving rate is an artifact of the run ending, not a
    /// steady-state signal, and would read as a throughput cliff.
    pub drain: bool,
}

/// The pulse hub: timeline + forecaster + drift detectors behind one
/// `observe` call.
#[derive(Debug)]
pub struct PulseHub {
    timeline: TimelineStore,
    forecaster: EnduranceForecaster,
    detectors: [DriftDetector; 3],
    last: Option<(u64, u64, u64, u64)>,
    observations: u64,
}

impl PulseHub {
    /// A hub with the given sizing.
    pub fn new(config: PulseConfig) -> Self {
        PulseHub {
            timeline: TimelineStore::new(config.timeline.clone()),
            forecaster: EnduranceForecaster::new(config.wear_capacity, config.wear_budget),
            detectors: [
                DriftDetector::new(SIGNALS[0], config.drift),
                DriftDetector::new(SIGNALS[1], config.drift),
                DriftDetector::new(SIGNALS[2], config.drift),
            ],
            last: None,
            observations: 0,
        }
    }

    /// The timeline store.
    pub fn timeline(&self) -> &TimelineStore {
        &self.timeline
    }

    /// The endurance forecaster.
    pub fn forecaster(&self) -> &EnduranceForecaster {
        &self.forecaster
    }

    /// The drift detectors, in [`SIGNALS`] order.
    pub fn detectors(&self) -> &[DriftDetector] {
        &self.detectors
    }

    /// Observations folded in so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Total drift alerts across all signals.
    pub fn alerts_total(&self) -> u64 {
        self.detectors.iter().map(|d| d.alerts().len() as u64).sum()
    }

    /// Folds in one observation point: scrapes `snapshot` into the
    /// timeline, extends the wear series, derives the window signals
    /// (throughput per 10⁶ cycles, shed ratio, p99), runs the drift
    /// detectors, and journals any alert into `recorder` (pass
    /// [`FlightRecorder::disabled`] to skip journaling).
    pub fn observe(
        &mut self,
        obs: &ServeObservation<'_>,
        snapshot: &Snapshot,
        recorder: &FlightRecorder,
    ) {
        self.observations += 1;
        self.timeline.scrape(obs.cycle, snapshot);
        self.forecaster.record(obs.cycle, obs.tile_wear);

        let no_labels = Labels::new();
        let mut signals: [Option<f64>; 3] = [None, None, None];
        if let Some((last_cycle, last_submitted, last_served, last_shed)) = self.last {
            let dc = obs.cycle.saturating_sub(last_cycle);
            if dc > 0 {
                let throughput =
                    obs.served.saturating_sub(last_served) as f64 * 1e6 / dc as f64;
                self.timeline
                    .record(obs.cycle, THROUGHPUT_FAMILY, &no_labels, throughput);
                signals[0] = Some(throughput);
            }
            let d_submitted = obs.submitted.saturating_sub(last_submitted);
            if d_submitted > 0 {
                let ratio = obs.shed.saturating_sub(last_shed) as f64 / d_submitted as f64;
                self.timeline
                    .record(obs.cycle, SHED_RATIO_FAMILY, &no_labels, ratio);
                signals[1] = Some(ratio);
            }
        }
        self.timeline.record(
            obs.cycle,
            P99_FAMILY,
            &no_labels,
            obs.p99_latency_cycles as f64,
        );
        signals[2] = Some(obs.p99_latency_cycles as f64);
        self.last = Some((obs.cycle, obs.submitted, obs.served, obs.shed));

        if obs.drain {
            return;
        }
        for (detector, value) in self.detectors.iter_mut().zip(signals) {
            let Some(value) = value else { continue };
            if let Some(alert) = detector.observe(obs.cycle, value) {
                recorder.record(
                    obs.cycle,
                    ObsEventKind::Drift {
                        signal: detector.signal(),
                        direction: alert.direction.name(),
                        deviation_x1000: alert.deviation_x1000(),
                    },
                );
            }
        }
    }

    /// Publishes the hub's own `cim_pulse_*` gauges: scrape volume,
    /// per-signal alert counts (the family `fleet.drift_alerts` SLO
    /// rules read), and per-tile wear forecasts.
    pub fn publish_metrics(&self, hub: &MetricsHub) {
        let no_labels = Labels::new();
        hub.set_gauge(
            SCRAPES_FAMILY,
            "snapshots scraped into the pulse timeline",
            &no_labels,
            self.timeline.scrapes() as f64,
        );
        hub.set_gauge(
            TIMELINE_SERIES_FAMILY,
            "distinct pulse timeline series",
            &no_labels,
            self.timeline.series_count() as f64,
        );
        hub.set_gauge(
            TIMELINE_POINTS_FAMILY,
            "points retained across pulse timeline series",
            &no_labels,
            self.timeline.point_count() as f64,
        );
        for d in &self.detectors {
            hub.set_gauge(
                DRIFT_ALERTS_FAMILY,
                "drift alerts raised per signal",
                &Labels::new().with("signal", d.signal()),
                d.alerts().len() as f64,
            );
        }
        for f in self.forecaster.forecasts() {
            let labels = Labels::new()
                .with("farm", f.farm)
                .with("tile", f.tile);
            hub.set_gauge(
                WEAR_WRITES_FAMILY,
                "latest cumulative worst-cell writes per tile",
                &labels,
                f.current_writes as f64,
            );
            hub.set_gauge(
                WEAR_SLOPE_FAMILY,
                "fitted wear rate in writes per 1e6 cycles",
                &labels,
                f.writes_per_mcc(),
            );
            if let Some(c) = f.cycles_remaining {
                hub.set_gauge(
                    WEAR_CYCLES_REMAINING_FAMILY,
                    "forecast virtual cycles until the cell write budget",
                    &labels,
                    c as f64,
                );
            }
        }
    }

    /// Serializes the hub's full state — timeline, forecasts, drift
    /// alerts — as one deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object()
            .field_str("schema", "cim-pulse/1")
            .field_uint("observations", self.observations)
            .field_uint("drift_alerts", self.alerts_total())
            .key("timeline");
        self.timeline.write_json(&mut w);
        w.key("forecasts");
        self.forecaster.write_json(&mut w);
        w.key("drift").open_array();
        for d in &self.detectors {
            w.open_object()
                .field_str("signal", d.signal())
                .field_uint("observations", d.observations())
                .key("alerts")
                .open_array();
            for a in d.alerts() {
                w.open_object()
                    .field_uint("cycle", a.cycle)
                    .field_str("direction", a.direction.name())
                    .field_uint("deviation_x1000", a.deviation_x1000())
                    .field_float("measured", a.measured)
                    .field_float("baseline", a.baseline);
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
    use cim_obs::journal::RecorderConfig;

    fn observation(cycle: u64, served: u64, wear: &[(u32, u32, u64)]) -> ServeObservation<'_> {
        ServeObservation {
            cycle,
            submitted: served + 10,
            served,
            shed: served / 10,
            p99_latency_cycles: 5_000,
            tile_wear: wear,
            drain: false,
        }
    }

    fn feed(hub: &mut PulseHub, recorder: &FlightRecorder, steps: u64, cliff_at: Option<u64>) {
        let metrics = MetricsHub::recording();
        metrics.add_counter("cim_serve_requests_total", "", &Labels::new(), 1.0);
        let snapshot = metrics.snapshot();
        let mut served = 0u64;
        for i in 0..steps {
            // Steady 100 served per 1000 cycles, then a cliff to 2.
            served += match cliff_at {
                Some(at) if i >= at => 2,
                _ => 100,
            };
            let wear = [(0u32, 0u32, 10 * (i + 1)), (0, 1, 5 * (i + 1))];
            hub.observe(&observation((i + 1) * 1000, served, &wear), &snapshot, recorder);
        }
    }

    #[test]
    fn steady_run_has_no_alerts_and_exact_totals() {
        let mut hub = PulseHub::new(PulseConfig::default());
        let recorder = FlightRecorder::new(RecorderConfig::default());
        feed(&mut hub, &recorder, 20, None);
        assert_eq!(hub.alerts_total(), 0);
        assert_eq!(hub.observations(), 20);
        let totals = hub.forecaster().current_totals();
        assert_eq!(totals[&(0, 0)], 200);
        assert_eq!(totals[&(0, 1)], 100);
        assert!(recorder.events().iter().all(|e| e.kind.name() != "drift"));
    }

    #[test]
    fn throughput_cliff_is_flagged_and_journaled() {
        let mut hub = PulseHub::new(PulseConfig::default());
        let recorder = FlightRecorder::new(RecorderConfig::default());
        feed(&mut hub, &recorder, 30, Some(20));
        assert!(hub.alerts_total() > 0, "cliff must raise an alert");
        let drift_events: Vec<_> = recorder
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, ObsEventKind::Drift { .. }))
            .collect();
        assert!(!drift_events.is_empty(), "alert must be journaled");
        assert!(matches!(
            drift_events[0].kind,
            ObsEventKind::Drift { signal: "throughput", direction: "down", .. }
        ));
    }

    #[test]
    fn json_and_gauges_are_deterministic() {
        let run = || {
            let mut hub = PulseHub::new(PulseConfig::default());
            let recorder = FlightRecorder::new(RecorderConfig::default());
            feed(&mut hub, &recorder, 25, Some(15));
            let metrics = MetricsHub::recording();
            hub.publish_metrics(&metrics);
            (hub.to_json(), metrics.snapshot().to_json(), recorder.dump_json())
        };
        let (ja, ga, ra) = run();
        let (jb, gb, rb) = run();
        assert_eq!(ja, jb, "pulse JSON must be byte-identical");
        assert_eq!(ga, gb);
        assert_eq!(ra, rb);
        cim_trace::json::check(&ja).unwrap();
        assert!(ja.contains("\"schema\":\"cim-pulse/1\""));
        assert!(ga.contains(DRIFT_ALERTS_FAMILY));
        assert!(ga.contains(WEAR_WRITES_FAMILY));
    }

    #[test]
    fn published_families_feed_the_slo_drift_rule() {
        use cim_obs::slo::{SloEngine, SloInputs, SloRule, SloState};

        let mut hub = PulseHub::new(PulseConfig::default());
        let recorder = FlightRecorder::disabled();
        feed(&mut hub, &recorder, 30, Some(20));
        assert!(hub.alerts_total() > 0);
        let metrics = MetricsHub::recording();
        hub.publish_metrics(&metrics);
        let mut slo = SloEngine::new(vec![SloRule::parse("fleet.drift_alerts <= 0").unwrap()]);
        slo.observe(0, &metrics.snapshot(), &SloInputs::default(), &recorder);
        assert_eq!(slo.verdicts()[0].state, SloState::Page);
        assert_eq!(slo.verdicts()[0].measured, hub.alerts_total() as f64);
    }
}
