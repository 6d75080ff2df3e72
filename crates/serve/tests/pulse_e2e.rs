//! End-to-end acceptance tests for the pulse telemetry layer:
//! byte-determinism of the timeline, decision-identity with the
//! unobserved run, exact wear cross-checks, and drift detection on an
//! injected throughput cliff.

use cim_metrics::MetricsHub;
use cim_obs::journal::{FlightRecorder, ObsEventKind, RecorderConfig};
use cim_obs::slo::{SloEngine, SloRule};
use cim_pulse::{DriftConfig, PulseConfig, PulseHub, ServeObservation};
use cim_serve::batcher::BatchConfig;
use cim_serve::engine::Engine;
use cim_serve::exec::OpExecutor;
use cim_serve::fleet::FleetConfig;
use cim_serve::loadgen::{generate_trace, run, LoadgenConfig, Observers};

fn small() -> LoadgenConfig {
    LoadgenConfig {
        requests: 400,
        tenants: 2,
        rate: 200,
        mean_gap: 3_000,
        exp_bits: 6,
        scalar_bits: 6,
        fleet: FleetConfig { farms: 2, tiles_per_farm: 2, ..FleetConfig::default() },
        batch: BatchConfig { max_jobs: 64, max_wait_cycles: 500_000 },
        ..LoadgenConfig::default()
    }
}

fn rules() -> Vec<SloRule> {
    vec![
        SloRule::parse("tenant0.p99_latency_cycles <= 50000000").unwrap(),
        SloRule::parse("fleet.correctness").unwrap(),
        SloRule::parse("fleet.drift_alerts <= 0").unwrap(),
    ]
}

fn pulsed_run() -> (cim_serve::loadgen::LoadReport, PulseHub, String, String) {
    let hub = MetricsHub::recording();
    let recorder = FlightRecorder::new(RecorderConfig::default());
    let mut slo = SloEngine::new(rules());
    let mut pulse = PulseHub::new(PulseConfig::default());
    let observers =
        Observers { recorder: &recorder, slo: &mut slo, pulse: Some(&mut pulse) };
    let report = run(&small(), &hub, Some(observers));
    let timeline_json = pulse.timeline().to_json();
    let journal = recorder.dump_json();
    (report, pulse, timeline_json, journal)
}

#[test]
fn two_identical_runs_produce_byte_identical_timeline_json() {
    let (_, pulse_a, timeline_a, journal_a) = pulsed_run();
    let (_, pulse_b, timeline_b, journal_b) = pulsed_run();
    assert_eq!(timeline_a, timeline_b, "timeline JSON must be byte-identical");
    assert_eq!(pulse_a.to_json(), pulse_b.to_json(), "full pulse JSON too");
    assert_eq!(journal_a, journal_b, "journal too");
    cim_trace::json::check(&timeline_a).unwrap();
    assert!(pulse_a.timeline().scrapes() >= 9, "8 cadence scrapes + final");
    assert!(pulse_a.timeline().series_count() > 0);
}

#[test]
fn pulsed_run_is_decision_identical_to_plain_run() {
    let plain = run(&small(), &MetricsHub::disabled(), None);
    let (report, pulse, _, _) = pulsed_run();
    assert_eq!(plain.served, report.served);
    assert_eq!(plain.shed, report.shed);
    assert_eq!(plain.errors, report.errors);
    assert_eq!(plain.stats, report.stats, "observation cannot move a cycle");
    assert_eq!(report.incorrect, 0);
    assert!(pulse.observations() > 0);
}

#[test]
fn wear_forecast_totals_match_engine_stats_exactly() {
    let (report, pulse, _, _) = pulsed_run();
    let totals = pulse.forecaster().current_totals();
    assert_eq!(totals.len(), report.stats.tile_wear.len());
    let mut expected_sum = 0u64;
    for t in &report.stats.tile_wear {
        assert_eq!(
            totals[&(t.farm, t.tile)],
            t.max_cell_writes,
            "farm {} tile {} wear must match exactly",
            t.farm,
            t.tile
        );
        expected_sum += t.max_cell_writes;
    }
    assert!(expected_sum > 0, "the run must wear the tiles");
    assert_eq!(pulse.forecaster().total_writes(), expected_sum);
    // Wear grows monotonically, so the fitted slope is positive and
    // every tile gets a finite lifetime estimate.
    for f in pulse.forecaster().forecasts() {
        assert!(f.samples >= 2, "every tile sampled repeatedly");
        assert!(f.slope_num > 0, "wear trend must be positive");
        assert!(f.cycles_remaining.is_some());
    }
}

#[test]
fn healthy_run_raises_no_drift_alerts_and_no_page() {
    let hub = MetricsHub::recording();
    let recorder = FlightRecorder::new(RecorderConfig::default());
    let mut slo = SloEngine::new(rules());
    let mut pulse = PulseHub::new(PulseConfig::default());
    let observers =
        Observers { recorder: &recorder, slo: &mut slo, pulse: Some(&mut pulse) };
    run(&small(), &hub, Some(observers));
    assert_eq!(pulse.alerts_total(), 0, "steady trace must not alert");
    assert!(!slo.any_page(), "drift rule must not page on a healthy run");
    let snap = hub.snapshot();
    assert_eq!(snap.number(cim_pulse::SCRAPES_FAMILY), Some(pulse.timeline().scrapes() as f64));
    assert!(snap.family(cim_pulse::DRIFT_ALERTS_FAMILY).is_some());
    assert!(snap.family(cim_pulse::WEAR_WRITES_FAMILY).is_some());
    assert_eq!(snap.number(cim_obs::metrics::JOURNAL_TRIGGER_STATE), Some(0.0));
}

/// Replays a loadgen trace with a throughput cliff injected half-way
/// (arrival gaps stretched 50x, so the served-per-cycle rate
/// collapses) and checks the drift detector flags and journals it.
#[test]
fn injected_throughput_cliff_is_flagged_and_journaled() {
    let config = small();
    let mut trace = generate_trace(&config);
    let half = trace.len() / 2;
    let pivot = trace[half].arrival_cycle;
    for r in trace.iter_mut().skip(half) {
        r.arrival_cycle = pivot + (r.arrival_cycle - pivot) * 50;
    }

    let hub = MetricsHub::recording();
    let recorder = FlightRecorder::new(RecorderConfig::default());
    // A sensitive detector: short windows, fire fast.
    let mut pulse = PulseHub::new(PulseConfig {
        drift: DriftConfig {
            reference: 4,
            recent: 1,
            threshold: 4.0,
            cooldown: 2,
            ..DriftConfig::default()
        },
        ..PulseConfig::default()
    });

    let mut engine = Engine::new(config.engine_config());
    engine.attach_metrics(&hub);
    engine.attach_recorder(&recorder);
    let exec = OpExecutor::new();
    let observe_every = (trace.len() / 24).max(1);
    for (i, request) in trace.into_iter().enumerate() {
        let cycle = request.arrival_cycle;
        engine.serve(request, &exec).expect("validated trace");
        if (i + 1) % observe_every == 0 {
            let stats = engine.stats();
            let wear: Vec<(u32, u32, u64)> = stats
                .tile_wear
                .iter()
                .map(|t| (t.farm, t.tile, t.max_cell_writes))
                .collect();
            pulse.observe(
                &ServeObservation {
                    cycle,
                    submitted: stats.submitted,
                    served: stats.served,
                    shed: stats.shed,
                    p99_latency_cycles: 0,
                    tile_wear: &wear,
                    drain: false,
                },
                &hub.snapshot(),
                &recorder,
            );
        }
    }

    assert!(pulse.alerts_total() > 0, "cliff must raise a drift alert");
    let throughput_down = recorder.events().into_iter().any(|e| {
        matches!(
            e.kind,
            ObsEventKind::Drift { signal: "throughput", direction: "down", .. }
        )
    });
    assert!(throughput_down, "downward throughput drift must be journaled");
}
