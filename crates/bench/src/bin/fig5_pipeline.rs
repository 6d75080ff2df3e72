//! Reproduces **Fig. 5**: the three-stage pipelined architecture —
//! precomputation (P), multiplication (M) and postcomputation (C)
//! subarrays operating on three multiplications simultaneously —
//! as an occupancy chart plus the latency/throughput split.
//!
//! ```text
//! cargo run -p cim-bench --bin fig5_pipeline [n] [jobs]
//! ```

use cim_bench::TextTable;
use karatsuba_cim::cost::DesignPoint;
use karatsuba_cim::pipeline::PipelineSchedule;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let jobs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);

    let d = DesignPoint::new(n);
    println!("FIG. 5 — THREE-STAGE PIPELINE (n = {n} bits, {jobs} multiplications)\n");
    println!("stage subarrays (Karatsuba Multiplication Controller in between):");
    println!(
        "  P  precomputation : {:>6} cc   {:>6} cells",
        d.precompute_latency, d.precompute_area
    );
    println!(
        "  M  multiplication : {:>6} cc   {:>6} cells",
        d.multiply_latency, d.multiply_area
    );
    println!(
        "  C  postcomputation: {:>6} cc   {:>6} cells",
        d.postcompute_latency, d.postcompute_area
    );
    println!(
        "  handoff per stage : {:>6} cc (18 operand writes + 9 product reads)\n",
        karatsuba_cim::cost::HANDOFF_CYCLES
    );

    let schedule = PipelineSchedule::for_design(n, jobs);
    println!(
        "occupancy over time (each char ≈ {} cc):\n",
        d.initiation_interval() / 40
    );
    print!("{}", schedule.render(d.initiation_interval() / 40));

    let mut table = TextTable::new(&["metric", "value"]);
    table.row(&[
        "single-multiplication latency (cc)",
        &schedule.single_latency().to_string(),
    ]);
    table.row(&[
        "initiation interval (cc)",
        &schedule.initiation_interval().to_string(),
    ]);
    table.row(&[
        "pipelined throughput (mult/Mcc)",
        &format!("{:.0}", schedule.throughput_per_mcc()),
    ]);
    table.row(&[
        "speedup vs unpipelined",
        &format!(
            "{:.2}x",
            schedule.single_latency() as f64 / schedule.initiation_interval() as f64
        ),
    ]);
    println!("\n{}", table.render());
    println!("balancing note (paper Sec. IV-A): the precompute stage is the");
    println!("cheapest and gets the smallest subarray; the multiply and");
    println!("postcompute stages spend area to keep their latencies close.");
}
