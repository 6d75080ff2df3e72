//! The benchmark regression gate: diffs two snapshots written by
//! `bench_snapshot` and exits nonzero when the current one regresses.
//!
//! ```text
//! bench_check BASELINE CURRENT [--subset[=PATTERNS]] [--improved]
//! bench_check --trajectory SNAPSHOT... [--out PATH]
//! ```
//!
//! Every metric must match *exactly* (the snapshot is deterministic).
//! Retired host timings a baseline still carries (`wall_ms`,
//! `wall_speedup_x`, …; see `cim_bench::snapshot::RETIRED_METRICS`)
//! are not gated; host speed is the `perfbench` benchmark's job.
//! `--subset`
//! lets the current snapshot cover only part of the baseline's
//! workloads — the mode CI uses to gate a `--quick` run against the
//! committed full snapshot.
//! `--subset=PATTERNS` (comma-separated exact names or trailing-`*`
//! prefix globs, e.g. `--subset='mul_*,batch64_*'`) keeps workloads
//! matching any pattern *required* while everything else stays
//! skippable, so CI can demand a workload family without enumerating
//! its members.
//!
//! `--improved` relaxes exact equality in one direction only, for
//! *cost* metrics (cycles, writes, energy, latency percentiles): the
//! current snapshot may beat the baseline — fewer cycles passes,
//! labeled `improved` — but any increase still regresses. This is the
//! cross-snapshot mode (gate `BENCH_PR<N>.json` against
//! `BENCH_PR<N-1>.json` after an optimization lands); same-commit
//! gates stay byte-exact without it.
//!
//! In `--trajectory` mode the paths are an ordered lineage of
//! committed snapshots (oldest first). The lineage invariants are
//! verified — a workload or metric, once recorded, must appear in
//! every later snapshot — the exact-metric deltas and the multiply
//! matrix's per-stage cycle split are printed, and `--out PATH`
//! writes the `BENCH_TRAJECTORY.json` artifact (omit `--out` to only
//! verify).
//!
//! Exit codes: 0 pass, 1 regression/violation, 2 usage/parse errors.

use cim_bench::snapshot::{diff, BenchSnapshot, DiffOptions};
use cim_bench::trajectory::{build, path_label};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut paths = Vec::new();
    let mut opts = DiffOptions::default();
    let mut trajectory = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trajectory" => trajectory = true,
            "--out" => {
                let Some(path) = args.next() else {
                    return usage("--out needs a path");
                };
                out = Some(path);
            }
            "--subset" => opts.allow_subset = true,
            "--improved" => opts.allow_improvement = true,
            _ if arg.starts_with("--subset=") => {
                opts.allow_subset = true;
                opts.subset_patterns.extend(
                    arg["--subset=".len()..]
                        .split(',')
                        .filter(|p| !p.is_empty())
                        .map(str::to_string),
                );
            }
            other if other.starts_with("--") => {
                return usage(&format!("unknown argument {other}"));
            }
            path => paths.push(path.to_string()),
        }
    }
    let load = |path: &str| -> Result<BenchSnapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchSnapshot::parse(&text).map_err(|e| format!("{path}: {e}"))
    };

    if trajectory {
        return check_trajectory(&paths, out.as_deref(), &load);
    }
    if out.is_some() {
        return usage("--out only applies to --trajectory mode");
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return usage("expected exactly BASELINE and CURRENT paths");
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    };

    let d = diff(&baseline, &current, &opts);
    for line in &d.lines {
        println!("{line}");
    }
    if d.passed() {
        println!(
            "bench_check: PASS ({} checks, baseline {})",
            d.lines.len(),
            baseline_path
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "bench_check: FAIL ({} regressions of {} checks)",
            d.regressions.len(),
            d.lines.len()
        );
        ExitCode::from(1)
    }
}

fn check_trajectory(
    paths: &[String],
    out: Option<&str>,
    load: &dyn Fn(&str) -> Result<BenchSnapshot, String>,
) -> ExitCode {
    if paths.len() < 2 {
        return usage("--trajectory expects two or more snapshot paths in lineage order");
    }
    let mut snapshots = Vec::new();
    for path in paths {
        match load(path) {
            Ok(s) => snapshots.push((path_label(path), s)),
            Err(e) => {
                eprintln!("bench_check: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let t = build(&snapshots);
    print!("{}", t.render());
    if let Some(out_path) = out {
        if let Err(e) = std::fs::write(out_path, t.to_json()) {
            eprintln!("bench_check: cannot write {out_path}: {e}");
            return ExitCode::from(2);
        }
        println!("bench_check: wrote {out_path}");
    }
    if t.lineage_ok() {
        println!("bench_check: TRAJECTORY PASS ({} snapshots)", t.snapshots.len());
        ExitCode::SUCCESS
    } else {
        println!(
            "bench_check: TRAJECTORY FAIL ({} lineage violations)",
            t.violations.len()
        );
        ExitCode::from(1)
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("bench_check: {err}");
    eprintln!(
        "usage: bench_check BASELINE CURRENT [--subset[=PATTERNS]] [--improved]\n\
         \u{20}      bench_check --trajectory SNAPSHOT... [--out PATH]"
    );
    ExitCode::from(2)
}
