//! Wall-clock + virtual-cycle profile of one simulated multiply, stage
//! by stage — a development aid for finding the hot stage of the
//! simulator, and the source of the per-pass cycle-delta report the CI
//! `mir` job uploads.
//!
//! ```text
//! stage_profile [WIDTH] [--opt-level N|ON] [--json PATH]
//! ```
//!
//! The text profile (wall-clock times, nondeterministic) prints to
//! stdout. `--json PATH` additionally writes a **deterministic**
//! artifact: per-stage virtual-cycle counts at every optimization
//! level from `O0` to the requested `--opt-level` (default: max), so
//! each pass's contribution is the delta between adjacent columns —
//! `O1−O0` is dead-write elimination, `O2−O1` partition co-issue
//! packing, `O3−O2` crossbar-constrained placement. No wall times,
//! process statistics, or map orderings leak into the JSON.

use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_mir::OptLevel;
use cim_trace::json::JsonWriter;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::PrecomputeStage;
use std::process::ExitCode;
use std::time::Instant;

const STAGES: [&str; 3] = ["precompute", "multiply", "postcompute"];

fn main() -> ExitCode {
    let mut n = 2048usize;
    let mut max_opt = OptLevel::MAX;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--opt-level" => match args.next().as_deref().and_then(OptLevel::parse) {
                Some(opt) => max_opt = opt,
                None => return usage("--opt-level needs 0..=3 or O0..=O3"),
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => return usage("--json needs a path"),
            },
            other => match other.parse::<usize>() {
                Ok(v) if v >= 8 && v % 4 == 0 => n = v,
                _ => return usage(&format!("bad argument {other}")),
            },
        }
    }

    let mut rng = UintRng::seeded(7);
    let a = rng.uniform(n);
    let b = rng.uniform(n);
    let m = KaratsubaCimMultiplier::with_opt_level(n, max_opt).expect("width");

    let t = Instant::now();
    let cold = m.multiply(&a, &b).expect("multiply");
    println!("n={n} {max_opt}: cold multiply {:?}", t.elapsed());

    let pre = PrecomputeStage::with_opt_level(n, max_opt).expect("stage");
    let t = Instant::now();
    let out = pre.run(&a, &b).expect("pre.run");
    println!("  precompute stage {:?}", t.elapsed());

    let post = PostcomputeStage::with_opt_level(n, max_opt).expect("stage");
    let prods: [Uint; 9] = std::array::from_fn(|i| {
        cim_bigint::mul::schoolbook::mul(&out.a_leaves[i], &out.b_leaves[i])
    });
    let t = Instant::now();
    let _ = post.run(&prods).expect("post.run");
    println!("  postcompute stage {:?}", t.elapsed());

    for _ in 0..3 {
        let t = Instant::now();
        let r = m.multiply(&a, &b).expect("multiply");
        println!(
            "n={n}: warm multiply {:?} cycles={}",
            t.elapsed(),
            r.report.total_latency
        );
    }
    // Per-pass virtual-cycle deltas: run the ladder O0..=max_opt once
    // each (cycle counts are exact and deterministic).
    let levels: Vec<OptLevel> = OptLevel::ALL
        .into_iter()
        .filter(|o| o.index() <= max_opt.index())
        .collect();
    let mut table: Vec<(OptLevel, [u64; 3], u64)> = Vec::new();
    for &opt in &levels {
        let mult = KaratsubaCimMultiplier::with_opt_level(n, opt).expect("width");
        let r = mult.multiply(&a, &b).expect("multiply");
        assert_eq!(r.product, cold.product, "opt level changed the product");
        table.push((opt, r.report.stage_cycles, r.report.total_latency));
    }
    println!("-- virtual cycles by opt level --");
    for (opt, stages, total) in &table {
        let base = table[0].2;
        println!(
            "  {opt}: pre {:>6}  mult {:>6}  post {:>6}  total {:>7}  ({:+.1}% vs O0)",
            stages[0],
            stages[1],
            stages[2],
            total,
            100.0 * (*total as f64 - base as f64) / base as f64
        );
    }

    if let Some(path) = &json_path {
        let json = render_json(n, max_opt, &table);
        if let Err(e) = cim_trace::json::check(&json) {
            eprintln!("stage_profile: internal error — invalid JSON: {e}");
            return ExitCode::from(1);
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("stage_profile: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        println!("cycle-delta report written to {path}");
    }
    ExitCode::SUCCESS
}

fn render_json(n: usize, max_opt: OptLevel, table: &[(OptLevel, [u64; 3], u64)]) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    w.field_uint("width_bits", n as u64);
    w.field_str("max_opt_level", &max_opt.to_string());
    w.key("levels").open_array();
    let (_, base_stages, base_total) = table[0];
    for (i, (opt, stages, total)) in table.iter().enumerate() {
        w.open_object().field_str("opt_level", &opt.to_string());
        w.key("stage_cycles").open_object();
        for (s, name) in STAGES.iter().enumerate() {
            w.field_uint(name, stages[s]);
        }
        w.close_object();
        w.field_uint("total_cycles", *total);
        // Delta attributable to this level's pass (vs previous level)
        // and cumulative saving vs the paper-exact O0 program.
        let prev = if i == 0 { table[0].2 } else { table[i - 1].2 };
        w.key("pass_delta_cycles").int(*total as i64 - prev as i64);
        w.key("saved_vs_o0").open_object();
        for (s, name) in STAGES.iter().enumerate() {
            w.key(name).int(base_stages[s] as i64 - stages[s] as i64);
        }
        w.key("total").int(base_total as i64 - *total as i64);
        w.close_object();
        w.close_object();
    }
    w.close_array();
    w.close_object();
    w.finish()
}

fn usage(err: &str) -> ExitCode {
    eprintln!("stage_profile: {err}");
    eprintln!("usage: stage_profile [WIDTH] [--opt-level N|ON] [--json PATH]");
    ExitCode::from(2)
}
