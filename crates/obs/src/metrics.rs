//! The `cim_obs_*` metric families.
//!
//! | family | kind | labels |
//! |---|---|---|
//! | `cim_obs_slo_state` | gauge | `rule`, `tenant`, `objective` |
//! | `cim_obs_slo_burn_rate` | gauge | `rule`, `tenant`, `window` |
//! | `cim_obs_journal_events_total` | gauge | — |
//! | `cim_obs_journal_dropped_total` | gauge | — |
//! | `cim_obs_journal_trigger_state` | gauge | — |
//!
//! States encode as 0 = ok, 1 = warn, 2 = page, so a dashboard can
//! alert on `max(cim_obs_slo_state) >= 2` without string matching.

use cim_metrics::{Labels, MetricsHub};

use crate::journal::FlightRecorder;
use crate::slo::SloVerdict;

/// Per-rule burn-rate state gauge (0 ok / 1 warn / 2 page).
pub const SLO_STATE: &str = "cim_obs_slo_state";
/// Per-rule, per-window burn-rate gauge.
pub const SLO_BURN_RATE: &str = "cim_obs_slo_burn_rate";
/// Events ever recorded by the flight recorder.
pub const JOURNAL_EVENTS_TOTAL: &str = "cim_obs_journal_events_total";
/// Events overwritten by the flight recorder's ring.
pub const JOURNAL_DROPPED_TOTAL: &str = "cim_obs_journal_dropped_total";
/// Latched auto-dump trigger (0 none / 1 shed_burst / 2 incorrect).
pub const JOURNAL_TRIGGER_STATE: &str = "cim_obs_journal_trigger_state";

/// Publishes every verdict's state and burn rates.
pub fn publish_slo(hub: &MetricsHub, verdicts: &[SloVerdict]) {
    for v in verdicts {
        let rule_labels = Labels::new()
            .with("rule", &v.rule)
            .with("tenant", &v.tenant)
            .with("objective", v.objective);
        hub.set_gauge(
            SLO_STATE,
            "SLO burn-rate state (0 ok / 1 warn / 2 page)",
            &rule_labels,
            f64::from(v.state.code()),
        );
        for (window, burn) in [("short", v.short_burn), ("long", v.long_burn)] {
            hub.set_gauge(
                SLO_BURN_RATE,
                "SLO burn rate (measured / threshold) per window",
                &Labels::new()
                    .with("rule", &v.rule)
                    .with("tenant", &v.tenant)
                    .with("window", window),
                burn,
            );
        }
    }
}

/// Publishes the flight recorder's volume counters.
pub fn publish_journal(hub: &MetricsHub, recorder: &FlightRecorder) {
    hub.set_gauge(
        JOURNAL_EVENTS_TOTAL,
        "events ever recorded by the flight recorder",
        &Labels::new(),
        recorder.recorded() as f64,
    );
    hub.set_gauge(
        JOURNAL_DROPPED_TOTAL,
        "events overwritten by the flight recorder ring",
        &Labels::new(),
        recorder.dropped() as f64,
    );
    hub.set_gauge(
        JOURNAL_TRIGGER_STATE,
        "latched auto-dump trigger (0 none / 1 shed_burst / 2 incorrect_result)",
        &Labels::new(),
        f64::from(recorder.trigger_state()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{ObsEventKind, RecorderConfig};
    use crate::slo::{SloEngine, SloInputs, SloRule};

    #[test]
    fn families_render_and_are_picked_up() {
        let hub = MetricsHub::recording();
        let mut engine = SloEngine::new(vec![SloRule::parse("t0.shed_ratio <= 0.5").unwrap()]);
        engine.observe(
            0,
            &cim_metrics::Snapshot::default(),
            &SloInputs::default(),
            &FlightRecorder::disabled(),
        );
        engine.publish_metrics(&hub);
        let recorder = FlightRecorder::new(RecorderConfig {
            capacity: 2,
            ..RecorderConfig::default()
        });
        for i in 0..3 {
            recorder.record(i, ObsEventKind::FaultFallback { component: "x" });
        }
        publish_journal(&hub, &recorder);
        let snap = hub.snapshot();
        assert_eq!(snap.number(JOURNAL_EVENTS_TOTAL), Some(3.0));
        assert_eq!(snap.number(JOURNAL_DROPPED_TOTAL), Some(1.0));
        assert_eq!(snap.number(JOURNAL_TRIGGER_STATE), Some(0.0));
        recorder.note_incorrect(3, 7, 0);
        publish_journal(&hub, &recorder);
        let snap = hub.snapshot();
        assert_eq!(snap.number(JOURNAL_TRIGGER_STATE), Some(2.0));
        assert!(snap.family(SLO_STATE).is_some());
        assert!(snap.family(SLO_BURN_RATE).is_some());
        let text = cim_metrics::prometheus::render(&snap);
        cim_metrics::prometheus::check(&text).expect("exposition must parse");
    }
}
