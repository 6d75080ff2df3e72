//! Records the fixed benchmark workload matrix as a deterministic
//! JSON snapshot (see `cim_bench::snapshot`), optionally alongside the
//! Prometheus text exposition of the metrics every layer published
//! during the run.
//!
//! ```text
//! bench_snapshot [--quick] [--tag NAME] [--out FILE] [--prom FILE]
//! ```
//!
//! * `--quick` — restrict the multiplication widths to the quick
//!   subset (shared workloads still produce identical values);
//! * `--tag NAME` — free-form tag stored in the snapshot;
//! * `--out FILE` — write the snapshot JSON here (default: stdout);
//! * `--prom FILE` — also write the Prometheus exposition (validated
//!   against the text-format grammar before writing).
//!
//! Exit codes: 0 on success, 2 on usage or I/O errors.

use cim_bench::snapshot::BenchSnapshot;
use cim_metrics::{prometheus, MetricsHub};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut tag = String::new();
    let mut out: Option<String> = None;
    let mut prom: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--quick" => quick = true,
            "--tag" => match value("--tag") {
                Ok(v) => tag = v,
                Err(e) => return usage(&e),
            },
            "--out" => match value("--out") {
                Ok(v) => out = Some(v),
                Err(e) => return usage(&e),
            },
            "--prom" => match value("--prom") {
                Ok(v) => prom = Some(v),
                Err(e) => return usage(&e),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    let hub = MetricsHub::recording();
    let snapshot = BenchSnapshot::collect(quick, &tag, &hub);
    let json = snapshot.to_json();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("bench_snapshot: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!(
                "bench_snapshot: wrote {path} ({} workloads)",
                snapshot.workloads.len()
            );
        }
        None => println!("{json}"),
    }

    if let Some(path) = &prom {
        let text = prometheus::render(&hub.snapshot());
        if let Err(e) = prometheus::check(&text) {
            eprintln!("bench_snapshot: internal error, invalid exposition: {e}");
            return ExitCode::from(2);
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("bench_snapshot: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("bench_snapshot: wrote {path} ({} bytes)", text.len());
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("bench_snapshot: {err}");
    eprintln!("usage: bench_snapshot [--quick] [--tag NAME] [--out FILE] [--prom FILE]");
    ExitCode::from(2)
}
