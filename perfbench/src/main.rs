//! The repository's benchmark: one command, four workloads.
//!
//! ```text
//! cim-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run measures one workload in this process with one caller
//! thread, checks every output, and prints one metric per line
//! followed by a JSON summary as the last line of standard output.
//! `--trace 0` reports the end-to-end metrics ([`END_TO_END`]);
//! `--trace 1` times the same public calls one layer at a time and
//! reports the per-layer metrics ([`PER_LAYER`]). Metrics named
//! `sim_*` (and the per-layer counts) are virtual-cycle quantities of
//! the modelled ReRAM design: exact, repeating bit for bit. Everything
//! measured in ms or s is host time: how fast the simulator runs.
//!
//! Host times are reported at a reference speed, scaled by a fixed
//! kernel timed alongside the ops (see [`timing`]). `setup_s` is the
//! median over [`SETUP_PROBES`] fresh processes plus the measuring
//! one, since set-up includes compiling programs into a process-wide
//! cache that only a new process sees cold.
//!
//! The workloads, the layers they load and bypass, and which layer
//! metric should move which end-to-end metric are listed in
//! `README.md` beside this package.

mod compile;
mod host;
mod mult;
mod serve;
mod timing;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// End-to-end metrics of an untraced run, with units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("goodput_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_per_result", "cycles"),
    ("sim_max_cell_writes", "writes"),
    ("sim_p99_latency_cycles", "cycles"),
    ("sim_served_ratio", "ratio"),
];

/// Per-layer metrics of a traced run, with units. A workload that
/// bypasses a layer reports 0 for that layer's metrics.
/// `host.op_ms_p90` is the untraced ops' 90th percentile: reported
/// here rather than gated end to end, because its run-to-run spread
/// on a shared host exceeds any bound the benchmark may set.
const PER_LAYER: [(&str, &str); 36] = [
    ("precompute.ms_per_op", "ms"),
    ("multiply.ms_per_op", "ms"),
    ("postcompute.ms_per_op", "ms"),
    ("bigint.gold_ms_per_op", "ms"),
    ("core.unattributed_ms_per_op", "ms"),
    ("precompute.cycles", "cycles"),
    ("multiply.cycles", "cycles"),
    ("postcompute.cycles", "cycles"),
    ("crossbar.writes_per_result", "writes"),
    ("core.energy_pj_per_result", "pJ"),
    ("core.host_ns_per_sim_cycle", "ns/cycle"),
    ("progcache.timed_misses", "count"),
    ("logic.build_ms_per_op", "ms"),
    ("mir.dead_write_elim_ms_per_op", "ms"),
    ("mir.parallel_pack_ms_per_op", "ms"),
    ("mir.place_ms_per_op", "ms"),
    ("check.verify_ms_per_op", "ms"),
    ("mir.dependence_preds_ms_per_op", "ms"),
    ("mir.ops_in", "ops"),
    ("mir.ops_out", "ops"),
    ("mir.cycles_in", "cycles"),
    ("mir.cycles_out", "cycles"),
    ("serve.submit_ms_per_req", "ms"),
    ("serve.resolve_ms_per_req", "ms"),
    ("serve.client_verify_ms_per_req", "ms"),
    ("serve.batches", "count"),
    ("serve.requests_per_batch", "requests"),
    ("serve.farm_jobs", "count"),
    ("serve.shed_rate_limited", "count"),
    ("serve.shed_queue_full", "count"),
    ("host.op_ms_p90", "ms"),
    ("host.offcpu_pct", "%"),
    ("host.threads_max", "threads"),
    ("host.speed_factor", "ratio"),
    ("trace.attributed_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// Fresh processes that repeat a workload's set-up for `setup_s`.
const SETUP_PROBES: usize = 6;

/// Fewest timed ops a run makes, however long they take, so that
/// `op_ms_p90` has at least ten samples above it.
pub const MIN_OPS: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Solo2048,
    Batch64x384,
    Compile2048,
    ServeZkevm,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Solo2048,
        Workload::Batch64x384,
        Workload::Compile2048,
        Workload::ServeZkevm,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Solo2048 => "solo_2048",
            Workload::Batch64x384 => "batch64_384",
            Workload::Compile2048 => "compile_2048",
            Workload::ServeZkevm => "serve_zkevm",
        }
    }

    /// Builds what the workload needs and makes its first, cold call;
    /// returns the seconds that took.
    fn setup(self, seed: u64) -> Result<f64, String> {
        match self {
            Workload::Solo2048 => mult::Bench::setup(mult::SOLO, seed).map(|b| b.setup_s),
            Workload::Batch64x384 => mult::Bench::setup(mult::BATCH, seed).map(|b| b.setup_s),
            Workload::Compile2048 => compile::Bench::setup(seed).map(|b| b.setup_s),
            Workload::ServeZkevm => Ok(serve::Bench::setup(seed).setup_s),
        }
    }

    fn run(self, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
        match self {
            Workload::Solo2048 => mult::Bench::setup(mult::SOLO, seed)?.run(seconds, traced),
            Workload::Batch64x384 => mult::Bench::setup(mult::BATCH, seed)?.run(seconds, traced),
            Workload::Compile2048 => compile::Bench::setup(seed)?.run(seconds, traced),
            Workload::ServeZkevm => serve::Bench::setup(seed).run(seconds, traced),
        }
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops (or requests) attempted in the timed region.
    pub attempted: u64,
    /// Ops that errored or failed their output check.
    pub failed: u64,
    /// Every failed check, described.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the latency percentiles.
    pub samples: usize,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Records the latency percentiles of `ops` at the reference speed.
    pub fn set_latencies(&mut self, ops: &mut timing::OpTimes, scale: &timing::Scale) {
        let (p50, p90) = scale.percentiles(ops);
        self.set("op_ms_p50", p50);
        self.set("host.op_ms_p90", p90);
        self.samples = ops.len();
    }
}

/// Nearest-rank quantile of sorted, non-empty `values`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

const USAGE: &str =
    "usage: cim-perfbench --workload <solo_2048|batch64_384|compile_2048|serve_zkevm> \
--seed <n> --seconds <s> --trace <0|1> [--setup-probe]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_probe,
    })
}

/// Runs the set-up of `args.workload` in [`SETUP_PROBES`] fresh
/// processes, one after another, and returns their times.
fn probe_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    args.workload.name(),
                    "--seed",
                    &args.seed.to_string(),
                ])
                .arg("--setup-probe")
                .output()
                .map_err(|e| format!("set-up probe did not start: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .trim()
                .strip_prefix("setup_s=")
                .and_then(|s| s.parse().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up probe failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    )
                })
        })
        .collect()
}

fn measure(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        let sampler = host::ThreadSampler::start();
        let mut out = args.workload.run(args.seed, args.seconds, true)?;
        let threads = sampler.finish();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        out.set("host.threads_max", threads as f64);
        out.check(threads <= nproc, || {
            format!("{threads} threads ran on a host with {nproc} CPUs")
        });
        for (name, _) in PER_LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
        return Ok(out);
    }
    let mut setups = probe_setups(args)?;
    let mut out = args.workload.run(args.seed, args.seconds, false)?;
    setups.push(out.metrics["setup_s"]);
    setups.sort_by(f64::total_cmp);
    out.set("setup_s", quantile(&setups, 0.5));
    out.set("peak_rss_mb", host::peak_rss_mb());
    Ok(out)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(out: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                out.metrics[name]
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.errors.is_empty() && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match args.workload.setup(args.seed) {
            Ok(s) => {
                println!("setup_s={s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{}: set-up failed: {e}", args.workload.name());
                ExitCode::FAILURE
            }
        };
    }
    let mut out = match measure(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in out.metrics.keys() {
        let known = END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| n == name);
        assert!(known, "metric {name} is in neither table");
    }
    for (name, unit) in table {
        let Some(&value) = out.metrics.get(name) else {
            panic!("{} did not report {name}", args.workload.name());
        };
        if !value.is_finite() {
            out.errors.push(format!("{name} is not a finite number"));
            out.metrics.insert(name, -1.0);
        }
        let samples = if name.starts_with("op_ms_") || *name == "host.op_ms_p90" {
            format!("  (n={})", out.samples)
        } else {
            String::new()
        };
        println!(
            "{:<13} {name:<32} {value:>16.6} {unit}{samples}",
            args.workload.name()
        );
    }
    if !args.trace {
        let name = args.workload.name();
        let p90 = out.metrics["host.op_ms_p90"];
        let factor = out.metrics["host.speed_factor"];
        println!("{name:<13} op_ms_p90 {p90:.6} ms, not gated (host.op_ms_p90 with --trace 1)");
        println!("{name:<13} host times are at the reference speed; the median scale from raw time was {factor:.4}");
    }
    for e in &out.errors {
        eprintln!("{}: check failed: {e}", args.workload.name());
    }
    println!("{}", result_json(&out, table));
    if out.errors.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
