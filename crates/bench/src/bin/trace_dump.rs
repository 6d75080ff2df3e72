//! Dumps a Chrome/Perfetto trace of the CIM stack end to end:
//!
//! 1. one fully **measured** pipelined 2048-bit Karatsuba multiply —
//!    every micro-op of stages 1 and 3 plus the nine parallel row
//!    multipliers of stage 2, nested under named stage/pass spans;
//! 2. the Fig. 5 **pipeline schedule** for eight back-to-back
//!    2048-bit jobs, with a jobs-in-flight gauge;
//! 3. a small **farm**: four wear-leveling tiles serving 32 mixed
//!    jobs, with the scheduler lifecycle and queue-depth counter.
//!
//! ```text
//! cargo run --release -p cim-bench --bin trace_dump [prefix] [--check]
//! ```
//!
//! Writes `<prefix>.trace.json` (load it at <https://ui.perfetto.dev>
//! or `chrome://tracing`) and `<prefix>.folded` (pipe through
//! `flamegraph.pl`/inferno), then prints the hot-span summary. With
//! `--check` nothing is written: the trace is built twice, both
//! exports must validate against the Chrome Trace Event schema and be
//! byte-identical — the CI determinism gate.

use cim_bigint::rng::UintRng;
use cim_sched::{Algo, FarmConfig, JobMix, Policy, Scheduler};
use cim_trace::{chrome, folded, summary, Tracer};
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use karatsuba_cim::pipeline::PipelineSchedule;

const WIDTH: usize = 2048;
const PIPELINE_JOBS: usize = 8;
const FARM_TILES: usize = 4;
const FARM_JOBS: usize = 32;

/// Builds the full reference trace; deterministic by construction
/// (seeded operands, simulated cycles only).
fn build_trace() -> cim_trace::Trace {
    let tracer = Tracer::recording();

    // 1. Measured 2048-bit multiply, all three stages instrumented.
    let mut rng = UintRng::seeded(42);
    let a = rng.uniform(WIDTH);
    let b = rng.uniform(WIDTH);
    let mult = KaratsubaCimMultiplier::new(WIDTH).expect("supported width");
    mult.multiply_traced(&a, &b, &tracer)
        .expect("2048-bit multiply succeeds");

    // 2. The analytic pipeline occupancy chart (paper Fig. 5).
    PipelineSchedule::for_design(WIDTH, PIPELINE_JOBS).trace_into(
        &tracer,
        &format!("pipeline ({WIDTH}-bit, {PIPELINE_JOBS} jobs)"),
    );

    // 3. A small farm with the scheduler lifecycle.
    let jobs = JobMix::uniform(256, Algo::Karatsuba, 1500).generate(FARM_JOBS, 42);
    Scheduler::new(FarmConfig::new(FARM_TILES, Policy::WearLeveling))
        .run_traced(&jobs, &tracer)
        .expect("analytic profiles cannot fail");

    tracer.finish().expect("recording tracer yields a trace")
}

fn main() {
    let mut prefix = "cim_stack".to_string();
    let mut check = false;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            prefix = arg;
        }
    }

    let trace = build_trace();
    let json = chrome::to_chrome_json(&trace);
    let stacks = folded::to_folded(&trace).expect("well-nested trace");

    let report = chrome::validate_chrome_trace(&json).expect("schema-valid export");
    if check {
        let again = build_trace();
        assert_eq!(
            json,
            chrome::to_chrome_json(&again),
            "Chrome export must be byte-identical across runs"
        );
        assert_eq!(
            stacks,
            folded::to_folded(&again).expect("well-nested trace"),
            "folded export must be byte-identical across runs"
        );
        println!(
            "trace_dump --check ok: {} events ({} complete spans, {} span pairs, \
             {} counters, {} instants), deterministic across runs",
            report.events,
            report.complete_spans,
            report.span_pairs,
            report.counters,
            report.instants
        );
        return;
    }

    let json_path = format!("{prefix}.trace.json");
    let folded_path = format!("{prefix}.folded");
    std::fs::write(&json_path, &json).expect("write trace JSON");
    std::fs::write(&folded_path, &stacks).expect("write folded stacks");

    println!(
        "wrote {json_path} ({} events; load at https://ui.perfetto.dev)",
        report.events
    );
    println!("wrote {folded_path} (pipe through flamegraph.pl / inferno)");
    println!();
    print!(
        "{}",
        summary::render_summary(&trace, 20).expect("well-nested trace")
    );
}
