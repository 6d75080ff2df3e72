//! obs_report — one-shot fleet diagnostics over a replayable load run.
//!
//! ```text
//! obs_report [--requests N] [--tenants N] [--farms N] [--tiles N]
//!            [--seed N] [--rate R] [--mean-gap CYCLES] [--workers N]
//!            [--width BITS] [--top-k K] [--capacity EVENTS]
//!            [--slo RULE]... [--smoke] [--json PATH]
//! ```
//!
//! Runs the deterministic load generator with a flight recorder and an
//! SLO engine attached, then renders the four diagnostics the fleet
//! operator reads after (or instead of) an incident:
//!
//! 1. **Exemplar trace** — the slowest fully-journaled request,
//!    correlated end to end: admission → batch formation → farm job
//!    dispatch → crossbar program retire (farm, tile, job range).
//! 2. **Attribution** — per-stage cycle/energy split of a
//!    representative multiplication at `--width`, asserted to sum
//!    bit-exactly to the totals the core publishes into the metrics
//!    registry, with the depth-1 ablation column alongside.
//! 3. **Wear** — the top-K hottest crossbar rows of a mult-stage array
//!    replaying the run's write pattern, plus per-tile endurance
//!    percentiles across the fleet.
//! 4. **SLO verdicts** — per-tenant burn-rate states over the run.
//!
//! The run is sync (`--workers 0`) by default, so the JSON artifact is
//! byte-identical across invocations with the same flags. `--json`
//! writes the artifact; the text dashboard always prints.
//!
//! Exit codes: 0 healthy, 1 incorrect results/internal error, 2 usage
//! errors, 3 an SLO rule ended in the `page` state (the journal dump
//! path is printed).

use cim_bigint::rng::UintRng;
use cim_crossbar::{Crossbar, EnergyParams};
use cim_logic::multpim::RowMultiplier;
use cim_metrics::{Labels, MetricsHub};
use cim_obs::journal::{FlightRecorder, ObsEvent, ObsEventKind, RecorderConfig};
use cim_obs::slo::{SloEngine, SloRule};
use cim_obs::{AttributionReport, Depth1Column, WearHeatmap, WearPercentiles};
use cim_serve::loadgen::{run, LoadgenConfig, Observers};
use cim_trace::json::JsonWriter;
use karatsuba_cim::depth1::KaratsubaDepth1Multiplier;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut config = LoadgenConfig::default();
    let mut width: usize = 256;
    let mut top_k: usize = 8;
    let mut capacity: usize = 1 << 16;
    let mut json_path: Option<String> = None;
    let mut dump_path = String::from("obs-report-flight-dump.json");
    let mut slo_specs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> Result<u64, String> {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{arg_name} needs a numeric value", arg_name = arg))
        };
        match arg.as_str() {
            "--requests" => match num(&mut args) {
                Ok(v) => config.requests = v,
                Err(e) => return usage(&e),
            },
            "--tenants" => match num(&mut args) {
                Ok(v) => config.tenants = (v as usize).max(1),
                Err(e) => return usage(&e),
            },
            "--farms" => match num(&mut args) {
                Ok(v) => config.fleet.farms = (v as usize).max(1),
                Err(e) => return usage(&e),
            },
            "--tiles" => match num(&mut args) {
                Ok(v) => config.fleet.tiles_per_farm = (v as usize).max(1),
                Err(e) => return usage(&e),
            },
            "--seed" => match num(&mut args) {
                Ok(v) => config.seed = v,
                Err(e) => return usage(&e),
            },
            "--rate" => match num(&mut args) {
                Ok(v) => config.rate = v.max(1),
                Err(e) => return usage(&e),
            },
            "--mean-gap" => match num(&mut args) {
                Ok(v) => config.mean_gap = v.max(1),
                Err(e) => return usage(&e),
            },
            "--workers" => match num(&mut args) {
                Ok(v) => config.workers = v as usize,
                Err(e) => return usage(&e),
            },
            "--width" => match num(&mut args) {
                Ok(v) if v >= 8 && v % 4 == 0 => width = v as usize,
                Ok(v) => return usage(&format!("--width {v} must be ≥ 8, multiple of 4")),
                Err(e) => return usage(&e),
            },
            "--top-k" => match num(&mut args) {
                Ok(v) => top_k = (v as usize).max(1),
                Err(e) => return usage(&e),
            },
            "--capacity" => match num(&mut args) {
                Ok(v) => capacity = (v as usize).max(1),
                Err(e) => return usage(&e),
            },
            "--smoke" => {
                config.requests = 3_000;
                config.tenants = 2;
                config.fleet.farms = 4;
                config.rate = 300;
                config.mean_gap = 1_500;
                config.exp_bits = 8;
                config.scalar_bits = 8;
            }
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => return usage("--json needs a path"),
            },
            "--dump" => match args.next() {
                Some(p) => dump_path = p,
                None => return usage("--dump needs a path"),
            },
            "--slo" => match args.next() {
                Some(rule) => slo_specs.push(rule),
                None => return usage("--slo needs a rule"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    // Default rules per tenant: correctness (hard), a generous p99
    // bound, and a shed-ratio ceiling — so every tenant gets a verdict
    // for each objective class without paging on a healthy run.
    let mut rules = Vec::new();
    for i in 0..config.tenants {
        for spec in [
            format!("tenant{i}.correctness"),
            format!("tenant{i}.p99_latency_cycles <= 1000000000"),
            format!("tenant{i}.shed_ratio <= 0.95"),
        ] {
            rules.push(SloRule::parse(&spec).expect("builtin rule parses"));
        }
    }
    for spec in &slo_specs {
        match SloRule::parse(spec) {
            Ok(rule) => rules.push(rule),
            Err(e) => return usage(&format!("bad --slo rule: {e}")),
        }
    }
    let mut slo = SloEngine::new(rules);
    let recorder = FlightRecorder::new(RecorderConfig {
        capacity,
        ..RecorderConfig::default()
    });

    let hub = MetricsHub::recording();
    let observers = Observers {
        recorder: &recorder,
        slo: &mut slo,
        pulse: None,
    };
    let report = run(&config, &hub, Some(observers));
    if report.incorrect > 0 {
        eprintln!(
            "obs_report: FAIL — {} incorrect responses",
            report.incorrect
        );
        return ExitCode::from(1);
    }

    // (1) Exemplar: the slowest request whose whole story survived the
    // ring — admit and retire both retained.
    let events = recorder.events();
    let exemplar = slowest_journaled_request(&events);

    // (2) Attribution of one representative multiply at --width, with
    // the core's metric publication on the same hub so the report can
    // prove the stage rows sum to exactly what the registry holds.
    let params = EnergyParams::default();
    let mut mult = match KaratsubaCimMultiplier::new(width) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("obs_report: multiplier: {e}");
            return ExitCode::from(1);
        }
    };
    let attr_hub = MetricsHub::recording();
    mult.attach_metrics(&attr_hub, params);
    let mut rng = UintRng::seeded(config.seed);
    let (a, b) = (rng.uniform(width), rng.uniform(width));
    let outcome = match mult.multiply(&a, &b) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("obs_report: multiply: {e}");
            return ExitCode::from(1);
        }
    };
    let depth1 = KaratsubaDepth1Multiplier::new(width)
        .ok()
        .and_then(|d| d.multiply(&a, &b).ok())
        .map(|o| Depth1Column {
            stage_cycles: o.stage_cycles,
            area_cells: o.area_cells,
        });
    let mut attribution = AttributionReport::from_execution(width, &outcome.report, &params);
    if let Some(d) = depth1 {
        attribution = attribution.with_depth1(d);
    }
    let metrics_match = attribution_matches_registry(&attribution, &attr_hub, width);

    // (3) Wear: replay the run's write pattern onto one persistent
    // mult-stage array (9 leaf rows × 12·w cells) — each replayed
    // multiplication wears the same physical rows a tile's stage-2
    // array accumulates over its life.
    let replays = report.served.clamp(1, 16);
    let (heatmap, lifetime) = match wear_replay(width, config.seed, replays, top_k) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("obs_report: wear replay: {e}");
            return ExitCode::from(1);
        }
    };
    let tile_max: Vec<u64> = report
        .stats
        .tile_wear
        .iter()
        .map(|t| t.max_cell_writes)
        .collect();
    let percentiles = WearPercentiles::from_values(&tile_max);

    // Assemble the deterministic artifact (no wall times).
    let json = render_json(RenderInput {
        config: &config,
        report: &report,
        recorder: &recorder,
        exemplar: exemplar.as_ref(),
        events: &events,
        attribution: &attribution,
        metrics_match,
        heatmap: &heatmap,
        lifetime,
        replays,
        percentiles: &percentiles,
        slo: &slo,
    });
    if let Err(e) = cim_trace::json::check(&json) {
        eprintln!("obs_report: internal error — invalid JSON artifact: {e}");
        return ExitCode::from(1);
    }
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("obs_report: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }

    render_dashboard(
        &config,
        &report,
        &recorder,
        exemplar.as_ref(),
        &events,
        &attribution,
        metrics_match,
        &heatmap,
        &percentiles,
        &slo,
    );
    if let Some(path) = &json_path {
        println!("report written to {path}");
    }

    if !attribution.sums_exactly() || !metrics_match {
        eprintln!("obs_report: FAIL — attribution does not sum to the published totals");
        return ExitCode::from(1);
    }
    if slo.any_page() {
        match recorder.dump_to(std::path::Path::new(&dump_path)) {
            Ok(()) => {
                eprintln!("obs_report: SLO PAGE — flight-recorder journal dumped to {dump_path}")
            }
            Err(e) => eprintln!("obs_report: SLO PAGE — cannot write journal to {dump_path}: {e}"),
        }
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

/// The slowest request with both an `admit` and a `job_retire` event
/// retained in the ring: `(seq, tenant, latency, admit cycle)`.
struct Exemplar {
    seq: u64,
    tenant: u16,
    latency: u64,
    batch: Option<u64>,
}

fn slowest_journaled_request(events: &[ObsEvent]) -> Option<Exemplar> {
    use std::collections::HashMap;
    let mut admits: HashMap<u64, (u64, u16)> = HashMap::new();
    let mut batches: HashMap<u64, u64> = HashMap::new();
    let mut best: Option<Exemplar> = None;
    for e in events {
        match e.kind {
            ObsEventKind::Admit {
                request, tenant, ..
            } => {
                admits.insert(request, (e.cycle, tenant));
            }
            ObsEventKind::JobDispatch { request, batch, .. } => {
                batches.insert(request, batch);
            }
            ObsEventKind::JobRetire {
                request, tenant, ..
            } => {
                if let Some(&(admit_cycle, _)) = admits.get(&request) {
                    let latency = e.cycle.saturating_sub(admit_cycle);
                    if best.as_ref().is_none_or(|b| latency > b.latency) {
                        best = Some(Exemplar {
                            seq: request,
                            tenant,
                            latency,
                            batch: batches.get(&request).copied(),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    best
}

/// Replays `replays` multiplications of the run's operand stream onto
/// one persistent mult-stage crossbar (9 leaf rows, `12·w` columns
/// each) and heatmaps the accumulated wear.
fn wear_replay(
    width: usize,
    seed: u64,
    replays: u64,
    top_k: usize,
) -> Result<(WearHeatmap, u64), String> {
    const LEAVES: usize = 9;
    let w = width / 4 + 2;
    let row = RowMultiplier::new(w);
    let mut array = Crossbar::new(LEAVES, row.required_cols()).map_err(|e| e.to_string())?;
    let mut rng = UintRng::seeded(seed ^ 0x5EED_0B5E);
    for _ in 0..replays {
        for r in 0..LEAVES {
            let a = rng.uniform(w);
            let b = rng.uniform(w);
            row.run_in(&mut array, r, 0, &a, &b)
                .map_err(|e| e.to_string())?;
        }
    }
    let heatmap = WearHeatmap::from_crossbar(&array, top_k);
    let lifetime = heatmap.lifetime_operations(replays);
    Ok((heatmap, lifetime))
}

/// Whether the attribution's stage-row sum equals, bit for bit, the
/// per-component energy counters the core published into `hub`.
fn attribution_matches_registry(
    attribution: &AttributionReport,
    hub: &MetricsHub,
    width: usize,
) -> bool {
    let snapshot = hub.snapshot();
    let labels = |component: &str| {
        Labels::new()
            .with("width_bits", width)
            .with("component", component)
    };
    let sum = attribution.stages_sum();
    sum.components().into_iter().all(|(component, pj)| {
        snapshot
            .number_with("cim_core_energy_pj_total", &labels(component))
            .is_some_and(|published| published == pj)
    })
}

struct RenderInput<'a> {
    config: &'a LoadgenConfig,
    report: &'a cim_serve::loadgen::LoadReport,
    recorder: &'a FlightRecorder,
    exemplar: Option<&'a Exemplar>,
    events: &'a [ObsEvent],
    attribution: &'a AttributionReport,
    metrics_match: bool,
    heatmap: &'a WearHeatmap,
    lifetime: u64,
    replays: u64,
    percentiles: &'a WearPercentiles,
    slo: &'a SloEngine,
}

fn render_json(input: RenderInput<'_>) -> String {
    let mut w = JsonWriter::new();
    w.open_object();

    w.key("run").open_object();
    w.field_uint("requests", input.config.requests)
        .field_uint("tenants", input.config.tenants as u64)
        .field_uint("farms", input.config.fleet.farms as u64)
        .field_uint("tiles_per_farm", input.config.fleet.tiles_per_farm as u64)
        .field_uint("seed", input.config.seed)
        .field_str(
            "mode",
            if input.report.threaded {
                "threaded"
            } else {
                "sync"
            },
        )
        .field_uint("served", input.report.served)
        .field_uint("shed", input.report.shed)
        .field_uint("errors", input.report.errors)
        .field_uint("incorrect", input.report.incorrect)
        .field_uint("drained_at_cycles", input.report.stats.drained_at);
    w.close_object();

    w.key("journal").open_object();
    w.field_uint("recorded", input.recorder.recorded())
        .field_uint("dropped", input.recorder.dropped())
        .field_str("trigger", input.recorder.trigger().unwrap_or("none"))
        .field_uint("trigger_state", u64::from(input.recorder.trigger_state()));
    w.close_object();

    w.key("exemplar");
    match input.exemplar {
        Some(e) => {
            w.open_object()
                .field_uint("request", e.seq)
                .field_uint("tenant", u64::from(e.tenant))
                .field_uint("latency_cycles", e.latency);
            if let Some(batch) = e.batch {
                w.field_uint("batch", batch);
            }
            w.key("story").open_array();
            for ev in input.events {
                let about_request = ev.kind.request() == Some(e.seq);
                let about_batch = matches!(
                    ev.kind,
                    ObsEventKind::BatchFormed { batch, .. } if Some(batch) == e.batch
                );
                if about_request || about_batch {
                    ev.write_json(&mut w);
                }
            }
            w.close_array().close_object();
        }
        None => {
            w.open_object()
                .field_str("note", "no fully journaled request")
                .close_object();
        }
    }

    w.key("attribution");
    input.attribution.write_json(&mut w);
    w.key("attribution_matches_metrics")
        .bool(input.metrics_match);
    w.key("attribution_sums_exactly")
        .bool(input.attribution.sums_exactly());

    w.key("wear").open_object();
    w.key("mult_stage_heatmap");
    input.heatmap.write_json(&mut w);
    w.field_uint("replayed_operations", input.replays);
    if input.lifetime != u64::MAX {
        w.field_uint("lifetime_operations", input.lifetime);
    }
    w.key("per_tile").open_array();
    for t in &input.report.stats.tile_wear {
        w.open_object()
            .field_uint("farm", u64::from(t.farm))
            .field_uint("tile", u64::from(t.tile))
            .field_uint("jobs", t.jobs)
            .field_uint("max_cell_writes", t.max_cell_writes)
            .field_uint("busy_cycles", t.busy_cycles)
            .close_object();
    }
    w.close_array();
    w.key("tile_percentiles");
    input.percentiles.write_json(&mut w);
    w.close_object();

    w.key("slo");
    input.slo.write_json(&mut w);

    w.close_object();
    w.finish()
}

#[allow(clippy::too_many_arguments)]
fn render_dashboard(
    config: &LoadgenConfig,
    report: &cim_serve::loadgen::LoadReport,
    recorder: &FlightRecorder,
    exemplar: Option<&Exemplar>,
    events: &[ObsEvent],
    attribution: &AttributionReport,
    metrics_match: bool,
    heatmap: &WearHeatmap,
    percentiles: &WearPercentiles,
    slo: &SloEngine,
) {
    println!("== obs_report ==");
    println!(
        "run: {} requests, {} tenants, {} farms x {} tiles, seed {}, {}",
        report.submitted,
        config.tenants,
        config.fleet.farms,
        config.fleet.tiles_per_farm,
        config.seed,
        if report.threaded { "threaded" } else { "sync" },
    );
    println!(
        "     served {}  shed {}  errors {}  incorrect {}  drained at {} cycles",
        report.served, report.shed, report.errors, report.incorrect, report.stats.drained_at
    );
    println!(
        "journal: {} events ({} overwritten), trigger {}",
        recorder.recorded(),
        recorder.dropped(),
        recorder.trigger().unwrap_or("none")
    );

    println!("-- exemplar slow request --");
    match exemplar {
        Some(e) => {
            println!(
                "request seq {} (tenant {}), end-to-end {} cycles",
                e.seq, e.tenant, e.latency
            );
            for ev in events {
                let about_request = ev.kind.request() == Some(e.seq);
                let about_batch = matches!(
                    ev.kind,
                    ObsEventKind::BatchFormed { batch, .. } if Some(batch) == e.batch
                );
                if about_request || about_batch {
                    println!("  cycle {:>12}  {}", ev.cycle, describe(ev));
                }
            }
        }
        None => println!("(no fully journaled request in the retained window)"),
    }

    println!(
        "-- attribution ({}-bit multiply) --",
        attribution.width_bits
    );
    for s in &attribution.stages {
        println!(
            "  {:<12} {:>8} cc  {:>10} writes  {:>14.2} pJ",
            s.stage,
            s.cycles,
            s.writes,
            s.energy.total_pj()
        );
    }
    println!(
        "  {:<12} {:>8} cc  {:>10} writes  {:>14.2} pJ  (stages sum {} to registry)",
        "total",
        attribution.total_latency_cycles,
        attribution.total_writes(),
        attribution.total_energy.total_pj(),
        if attribution.sums_exactly() && metrics_match {
            "exactly"
        } else {
            "INEXACTLY"
        },
    );
    if let Some(d) = attribution.depth1 {
        println!(
            "  depth-1 ablation: stages {:?} cc, {} cells",
            d.stage_cycles, d.area_cells
        );
    }

    println!("-- wear --");
    println!(
        "mult-stage array {}x{}: max cell {} writes, total {}",
        heatmap.rows, heatmap.cols, heatmap.max_writes, heatmap.total_writes
    );
    for r in &heatmap.top_rows {
        println!(
            "  row {:>3}: total {:>8} writes (hottest cell {})",
            r.row, r.total_writes, r.max_writes
        );
    }
    println!(
        "per-tile max-cell-writes percentiles: p50 {} p90 {} p99 {} max {}",
        percentiles.p50, percentiles.p90, percentiles.p99, percentiles.max
    );

    println!("-- slo --");
    for v in slo.verdicts() {
        println!(
            "  {:<44} {:<4} (measured {:.3}, burn {:.2}/{:.2})",
            v.rule,
            v.state.name(),
            v.measured,
            v.short_burn,
            v.long_burn
        );
    }
}

fn describe(e: &ObsEvent) -> String {
    match e.kind {
        ObsEventKind::Admit {
            request,
            tenant,
            op,
        } => {
            format!("admit    request {request} tenant {tenant} op {op}")
        }
        ObsEventKind::Shed {
            request,
            tenant,
            reason,
        } => {
            format!("shed     request {request} tenant {tenant} ({reason})")
        }
        ObsEventKind::Error { request, tenant } => {
            format!("error    request {request} tenant {tenant}")
        }
        ObsEventKind::BatchFormed {
            batch,
            width,
            requests,
            jobs,
        } => {
            format!("batch    #{batch} width {width} ({requests} requests, {jobs} jobs)")
        }
        ObsEventKind::JobDispatch {
            batch,
            farm,
            job_lo,
            job_hi,
            ..
        } => {
            format!("dispatch batch #{batch} -> farm {farm} jobs [{job_lo}, {job_hi})")
        }
        ObsEventKind::JobRetire {
            farm,
            tile,
            service_cycles,
            ..
        } => {
            format!("retire   farm {farm} tile {tile} after {service_cycles} cc")
        }
        ObsEventKind::VerifyFail { request, tenant } => {
            format!("VERIFY FAIL request {request} tenant {tenant}")
        }
        ObsEventKind::FaultFallback { component } => format!("fault fallback in {component}"),
        ObsEventKind::SloTransition { rule, state } => {
            format!("slo rule {rule} -> state {state}")
        }
        ObsEventKind::Drift {
            signal,
            direction,
            deviation_x1000,
        } => {
            format!(
                "drift    {signal} {direction} ({:.1} scale units)",
                deviation_x1000 as f64 / 1000.0
            )
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("obs_report: {err}");
    eprintln!(
        "usage: obs_report [--requests N] [--tenants N] [--farms N] [--tiles N] \
         [--seed N] [--rate R] [--mean-gap CYCLES] [--workers N] [--width BITS] \
         [--top-k K] [--capacity EVENTS] [--slo RULE]... [--smoke] [--json PATH] \
         [--dump PATH]"
    );
    ExitCode::from(2)
}
