//! Replayable load generator for the cim-serve fleet.
//!
//! ```text
//! loadgen [--requests N] [--tenants N] [--farms N] [--tiles N]
//!         [--seed N] [--mean-gap CYCLES] [--rate R] [--burst B]
//!         [--queue-depth D] [--exp-bits N] [--scalar-bits N]
//!         [--max-batch-jobs N] [--max-wait CYCLES]
//!         [--threaded] [--workers N] [--smoke]
//!         [--json PATH] [--prom PATH]
//!         [--slo RULE]... [--dump PATH]
//! ```
//!
//! Generates a deterministic zkEVM-precompile-style request trace,
//! serves it through the engine (or the threaded server with
//! `--threaded`), verifies every `Ok` response against an independent
//! gold path, and prints a human summary. `--json` writes the full
//! report; `--prom` writes the Prometheus exposition of the
//! `cim_serve_*` (and `cim_obs_*`) families. `--smoke` is the CI
//! preset: a small run that still covers all four operations, both
//! tenants shedding and the threaded path.
//!
//! Every run carries a flight recorder and an SLO engine. The default
//! rule set is `tenant<i>.correctness` for each tenant — it can only
//! page if the gold verifier rejects a result. `--slo` (repeatable)
//! adds rules like `tenant0.p99_latency_cycles <= 40000000` or
//! `tenant1.shed_ratio <= 0.5`. If any rule ends the run in the
//! `page` state, the flight-recorder journal is dumped to the `--dump`
//! path (default `loadgen-flight-dump.json`), the path is printed,
//! and the exit code is 3.
//!
//! Exit codes: 0 all responses correct and no SLO page, 1 any
//! incorrect response or internal error, 2 usage errors, 3 an SLO
//! rule ended in the `page` state.

use cim_metrics::{prometheus, MetricsHub};
use cim_obs::journal::{FlightRecorder, RecorderConfig};
use cim_obs::slo::{SloEngine, SloRule};
use cim_serve::loadgen::{run, LoadgenConfig, Observers};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut config = LoadgenConfig::default();
    let mut json_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut slo_specs: Vec<String> = Vec::new();
    let mut dump_path = String::from("loadgen-flight-dump.json");
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
            "--mean-gap" => match num(&mut args) {
                Ok(v) => config.mean_gap = v.max(1),
                Err(e) => return usage(&e),
            },
            "--rate" => match num(&mut args) {
                Ok(v) => config.rate = v.max(1),
                Err(e) => return usage(&e),
            },
            "--burst" => match num(&mut args) {
                Ok(v) => config.burst = v,
                Err(e) => return usage(&e),
            },
            "--queue-depth" => match num(&mut args) {
                Ok(v) => config.queue_depth = v as usize,
                Err(e) => return usage(&e),
            },
            "--exp-bits" => match num(&mut args) {
                Ok(v) => config.exp_bits = (v as usize).max(1),
                Err(e) => return usage(&e),
            },
            "--scalar-bits" => match num(&mut args) {
                Ok(v) => config.scalar_bits = (v as usize).max(1),
                Err(e) => return usage(&e),
            },
            "--max-batch-jobs" => match num(&mut args) {
                Ok(v) => config.batch.max_jobs = v.max(1),
                Err(e) => return usage(&e),
            },
            "--max-wait" => match num(&mut args) {
                Ok(v) => config.batch.max_wait_cycles = v,
                Err(e) => return usage(&e),
            },
            "--workers" => match num(&mut args) {
                Ok(v) => config.workers = v as usize,
                Err(e) => return usage(&e),
            },
            "--threaded" => {
                if config.workers == 0 {
                    config.workers = 4;
                }
            }
            "--smoke" => {
                config.requests = 5_000;
                config.tenants = 2;
                config.rate = 300;
                config.mean_gap = 1_500;
                config.exp_bits = 8;
                config.scalar_bits = 8;
                if config.workers == 0 {
                    config.workers = 2;
                }
            }
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => return usage("--json needs a path"),
            },
            "--prom" => match args.next() {
                Some(p) => prom_path = Some(p),
                None => return usage("--prom needs a path"),
            },
            "--slo" => match args.next() {
                Some(rule) => slo_specs.push(rule),
                None => return usage("--slo needs a rule, e.g. 'tenant0.shed_ratio <= 0.5'"),
            },
            "--dump" => match args.next() {
                Some(p) => dump_path = p,
                None => return usage("--dump needs a path"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    // Default rules: correctness per tenant — pages only on a gold
    // mismatch, so the smoke preset cannot flake on latency noise.
    let mut rules = Vec::new();
    for i in 0..config.tenants {
        rules.push(
            SloRule::parse(&format!("tenant{i}.correctness")).expect("builtin rule parses"),
        );
    }
    for spec in &slo_specs {
        match SloRule::parse(spec) {
            Ok(rule) => rules.push(rule),
            Err(e) => return usage(&format!("bad --slo rule: {e}")),
        }
    }
    let mut slo = SloEngine::new(rules);
    let recorder = FlightRecorder::new(RecorderConfig::default());

    let hub = MetricsHub::recording();
    let observers = Observers { recorder: &recorder, slo: &mut slo, pulse: None };
    let report = run(&config, &hub, Some(observers));

    println!(
        "loadgen: {} requests ({} tenants, {} farms x {} tiles, seed {}, {})",
        report.submitted,
        config.tenants,
        config.fleet.farms,
        config.fleet.tiles_per_farm,
        config.seed,
        if report.threaded { "threaded" } else { "sync" },
    );
    println!(
        "  served {}  shed {}  errors {}  verified {}  incorrect {}",
        report.served, report.shed, report.errors, report.verified, report.incorrect
    );
    for (op, n) in &report.by_op {
        println!("  {op:<8} {n}");
    }
    for t in &report.stats.tenants {
        println!(
            "  {}: served {}  shed {}+{}  p50 {}  p95 {}  p99 {} cycles",
            t.name,
            t.served,
            t.shed_rate_limited,
            t.shed_queue_full,
            t.p50_latency_cycles,
            t.p95_latency_cycles,
            t.p99_latency_cycles
        );
    }
    for f in &report.stats.farms {
        println!(
            "  farm {}: {} batches  {} jobs  clock {}  utilization {:.3}",
            f.farm, f.batches, f.jobs, f.clock, f.utilization
        );
    }
    println!(
        "  drained at {} cycles, throughput {:.2} served/Mcycle, wall {} ms",
        report.stats.drained_at, report.stats.throughput_per_mcc, report.wall_ms
    );
    for v in slo.verdicts() {
        println!(
            "  slo {}: {} (measured {:.3}, short burn {:.2}, long burn {:.2})",
            v.rule,
            v.state.name(),
            v.measured,
            v.short_burn,
            v.long_burn
        );
    }
    println!(
        "  journal: {} events recorded, {} overwritten{}",
        recorder.recorded(),
        recorder.dropped(),
        match recorder.trigger() {
            Some(t) => format!(", trigger latched: {t}"),
            None => String::new(),
        }
    );

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("loadgen: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        println!("  report written to {path}");
    }
    if let Some(path) = &prom_path {
        let text = prometheus::render(&hub.snapshot());
        if let Err(e) = prometheus::check(&text) {
            eprintln!("loadgen: invalid exposition: {e}");
            return ExitCode::from(1);
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("loadgen: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        println!("  metrics written to {path}");
    }

    if report.incorrect > 0 {
        eprintln!("loadgen: FAIL — {} incorrect responses", report.incorrect);
        return ExitCode::from(1);
    }
    if report.served + report.shed + report.errors != report.submitted {
        eprintln!("loadgen: FAIL — responses do not account for every request");
        return ExitCode::from(1);
    }
    if slo.any_page() {
        match recorder.dump_to(std::path::Path::new(&dump_path)) {
            Ok(()) => eprintln!(
                "loadgen: SLO PAGE — flight-recorder journal dumped to {dump_path}"
            ),
            Err(e) => eprintln!(
                "loadgen: SLO PAGE — cannot write journal to {dump_path}: {e}"
            ),
        }
        for v in slo.verdicts().iter().filter(|v| v.state.name() == "page") {
            eprintln!("  paging rule: {}", v.rule);
        }
        return ExitCode::from(3);
    }
    println!("loadgen: PASS — every served response verified against gold");
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("loadgen: {err}");
    eprintln!(
        "usage: loadgen [--requests N] [--tenants N] [--farms N] [--tiles N] \
         [--seed N] [--mean-gap CYCLES] [--rate R] [--burst B] [--queue-depth D] \
         [--exp-bits N] [--scalar-bits N] [--max-batch-jobs N] [--max-wait CYCLES] \
         [--threaded] [--workers N] [--smoke] [--json PATH] [--prom PATH] \
         [--slo RULE]... [--dump PATH]"
    );
    ExitCode::from(2)
}
