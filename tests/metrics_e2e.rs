//! End-to-end metrics pipeline: one [`MetricsHub`] fed by all three
//! layers — crossbar executors (via the core multiplier's stage
//! re-publication), the core multiplier, and a 4-tile farm scheduler —
//! must render a grammar-valid Prometheus exposition containing cycle,
//! energy, queue-depth, and latency-histogram families from every
//! layer; the whole pipeline must be deterministic and must never
//! change a simulation result.

use cim_bigint::rng::UintRng;
use cim_crossbar::EnergyParams;
use cim_metrics::{prometheus, MetricsHub};
use cim_sched::{FarmConfig, FarmReport, JobMix, Policy, Scheduler};
use karatsuba_cim::multiplier::{KaratsubaCimMultiplier, MultiplyOutcome};

/// Runs the fixed workload: one verified 64-bit multiplication on the
/// simulated crossbars, then a 4-tile wear-leveling farm serving 48
/// mixed-width jobs.
fn run_workload(hub: &MetricsHub) -> (MultiplyOutcome, FarmReport) {
    let mut mult = KaratsubaCimMultiplier::new(64).expect("64 is a paper width");
    mult.attach_metrics(hub, EnergyParams::default());
    let mut rng = UintRng::seeded(7);
    let a = rng.uniform(64);
    let b = rng.uniform(64);
    let outcome = mult.multiply(&a, &b).expect("verified product");

    let jobs = JobMix::crypto_default(300).generate(48, 5);
    let mut sched = Scheduler::new(FarmConfig::new(4, Policy::WearLeveling).with_queue_depth(8));
    sched.attach_metrics(hub);
    let report = sched.run(&jobs).expect("analytic profiles");
    (outcome, report)
}

#[test]
fn prometheus_exposition_covers_all_three_layers() {
    let hub = MetricsHub::recording();
    let (_, farm) = run_workload(&hub);
    assert_eq!(farm.tiles, 4);

    let text = prometheus::render(&hub.snapshot());
    let stats = prometheus::check(&text).expect("exposition must satisfy the text-format grammar");
    assert!(stats.families >= 10, "only {} families", stats.families);
    assert!(stats.histogram_series >= 3, "histograms from core and sched");

    for family in [
        // crossbar layer (stage executors re-published by the core)
        "cim_xbar_cycles_total",
        "cim_xbar_energy_pj_total",
        // core layer
        "cim_core_stage_cycles",
        "cim_core_total_latency_cycles",
        "cim_core_energy_pj_total",
        // scheduler layer
        "cim_sched_job_latency_cycles",
        "cim_sched_queue_depth_peak",
        "cim_sched_tile_cycles_total",
        "cim_sched_tile_energy_pj_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "missing family {family}"
        );
    }
    // The latency histogram renders cumulative buckets with the
    // terminal +Inf bucket and the _sum/_count pair.
    assert!(text.contains("cim_sched_job_latency_cycles_bucket"));
    assert!(text.contains("le=\"+Inf\""));
    assert!(text.contains("cim_sched_job_latency_cycles_count"));
    // All four tiles report cycle counters.
    for tile in 0..4 {
        assert!(
            text.contains(&format!("tile=\"{tile}\"")),
            "tile {tile} missing from exposition"
        );
    }
}

#[test]
fn metrics_pipeline_is_deterministic() {
    // The whole snapshot, every family included, must repeat exactly.
    let once = || {
        let hub = MetricsHub::recording();
        run_workload(&hub);
        let snap = hub.snapshot();
        (prometheus::render(&snap), snap.to_json())
    };
    let (prom_a, json_a) = once();
    let (prom_b, json_b) = once();
    assert_eq!(prom_a, prom_b, "exposition must be bit-identical across runs");
    assert_eq!(json_a, json_b, "JSON snapshot must be bit-identical across runs");
    // The JSON snapshot is well-formed and machine-readable.
    cim_trace::json::check(&json_a).expect("snapshot JSON parses");
    cim_metrics::jsonval::JsonValue::parse(&json_a).expect("snapshot JSON parses structurally");
}

#[test]
fn metrics_never_change_simulation_results() {
    let plain_mult = {
        let mult = KaratsubaCimMultiplier::new(64).unwrap();
        let mut rng = UintRng::seeded(7);
        let (a, b) = (rng.uniform(64), rng.uniform(64));
        mult.multiply(&a, &b).unwrap()
    };
    let plain_farm = {
        let jobs = JobMix::crypto_default(300).generate(48, 5);
        Scheduler::new(FarmConfig::new(4, Policy::WearLeveling).with_queue_depth(8))
            .run(&jobs)
            .unwrap()
    };

    let hub = MetricsHub::recording();
    let (metered_mult, metered_farm) = run_workload(&hub);
    assert_eq!(
        plain_mult.report, metered_mult.report,
        "metrics must not change the ExecutionReport"
    );
    assert_eq!(plain_mult.product, metered_mult.product);
    assert_eq!(
        plain_farm, metered_farm,
        "metrics must not change the FarmReport"
    );
    assert!(!hub.snapshot().families.is_empty());

    // A disabled hub records nothing and changes nothing either.
    let disabled = MetricsHub::disabled();
    let (off_mult, off_farm) = run_workload(&disabled);
    assert_eq!(plain_mult.report, off_mult.report);
    assert_eq!(plain_farm, off_farm);
    assert!(disabled.snapshot().families.is_empty());
}
