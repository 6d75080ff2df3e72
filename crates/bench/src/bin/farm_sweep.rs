//! Sweeps the crossbar **farm scheduler** over tile count × policy ×
//! job mix and prints one table per mix: makespan, throughput, tail
//! latency, wear, and projected farm lifetime per configuration.
//!
//! The headline comparison is wear-leveling vs FIFO: at equal
//! (±5 %) makespan the rotating dispatch multiplies the projected
//! farm lifetime by up to the per-tile rotation-slot count.
//!
//! ```text
//! cargo run --release -p cim-bench --bin farm_sweep [jobs] [seed] [--json]
//! ```
//!
//! With `--json` the sweep emits one machine-readable JSON document
//! (an array of [`FarmReport::to_json`] objects per job mix, with
//! p50–p99 latency percentiles) instead of the text tables.

use cim_bench::{group_digits, table_number, TextTable};
use cim_sched::{Algo, FarmConfig, FarmReport, JobMix, Policy, Scheduler};

const TILE_COUNTS: [usize; 4] = [4, 8, 16, 64];

fn run(tiles: usize, policy: Policy, jobs: &[cim_sched::Job]) -> FarmReport {
    Scheduler::new(FarmConfig::new(tiles, policy))
        .run(jobs)
        .expect("analytic profiles cannot fail")
}

fn sweep(mix_name: &str, mix: &JobMix, count: usize, seed: u64) {
    println!("job mix: {mix_name}, {count} jobs");
    for class in mix.classes() {
        println!(
            "  {:>5}-bit {:<10} weight {}",
            class.width,
            class.algo.label(),
            class.weight
        );
    }
    let jobs = mix.generate(count, seed);

    let mut table = TextTable::new(&[
        "Tiles",
        "Policy",
        "Makespan (cc)",
        "Thrpt (M/Mcc)",
        "p50 lat",
        "p99 lat",
        "Util",
        "Wr/mult",
        "Lifetime (mults)",
    ]);
    for tiles in TILE_COUNTS {
        let fifo_makespan = run(tiles, Policy::Fifo, &jobs).makespan_cycles;
        for policy in Policy::all() {
            let r = run(tiles, policy, &jobs);
            let makespan_cell = if policy == Policy::Fifo || fifo_makespan == 0 {
                group_digits(r.makespan_cycles)
            } else {
                let spread =
                    (r.makespan_cycles as f64 - fifo_makespan as f64).abs() / fifo_makespan as f64;
                format!(
                    "{} ({:+.1}%)",
                    group_digits(r.makespan_cycles),
                    spread * 100.0
                )
            };
            let lifetime = r.projected_lifetime_multiplications();
            let lifetime_cell = if lifetime == u64::MAX {
                "inf".to_string()
            } else {
                group_digits(lifetime)
            };
            table.row(&[
                tiles.to_string(),
                policy.label().to_string(),
                makespan_cell,
                table_number(r.throughput_per_mcc()),
                group_digits(r.p50_latency()),
                group_digits(r.p99_latency()),
                format!("{:.0}%", r.mean_utilization() * 100.0),
                table_number(r.writes_per_multiplication()),
                lifetime_cell,
            ]);
        }
    }
    println!("{}", table.render());
}

/// One mix's sweep as a JSON object embedding the per-configuration
/// [`FarmReport::to_json`] documents.
fn sweep_json(mix_name: &str, mix: &JobMix, count: usize, seed: u64) -> String {
    let jobs = mix.generate(count, seed);
    let reports: Vec<String> = TILE_COUNTS
        .iter()
        .flat_map(|&tiles| Policy::all().map(|policy| run(tiles, policy, &jobs).to_json()))
        .collect();
    format!(
        "{{\"mix\":{},\"jobs\":{},\"seed\":{},\"reports\":[{}]}}",
        cim_trace::json::escape(mix_name),
        count,
        seed,
        reports.join(",")
    )
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut json = false;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else {
            positional.push(arg);
        }
    }
    let mut args = positional.into_iter();
    let count: usize = args
        .next()
        .map(|a| a.parse().expect("jobs must be a number"))
        .unwrap_or(2000);
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be a number"))
        .unwrap_or(42);

    let mixes: [(&str, JobMix, usize); 3] = [
        (
            "crypto-mix (open arrivals)",
            JobMix::crypto_default(400),
            count,
        ),
        (
            "uniform 256-bit karatsuba (closed batch)",
            JobMix::uniform(256, Algo::Karatsuba, 0),
            count,
        ),
        (
            "uniform 2048-bit karatsuba (closed batch)",
            JobMix::uniform(2048, Algo::Karatsuba, 0),
            count / 4,
        ),
    ];

    if json {
        let sweeps: Vec<String> = mixes
            .iter()
            .map(|(name, mix, n)| sweep_json(name, mix, *n, seed))
            .collect();
        let doc = format!("{{\"sweeps\":[{}]}}", sweeps.join(","));
        cim_trace::json::check(&doc).expect("emitted JSON must be well-formed");
        println!("{doc}");
        return;
    }

    println!("FARM SWEEP — tile count x policy x job mix");
    println!("(lifetime = multiplications until the farm's hottest cell hits");
    println!(" the 1e10-write ReRAM endurance limit, at this run's wear rate)\n");

    for (name, mix, n) in &mixes {
        sweep(name, mix, *n, seed);
    }

    println!("reading: at >=16 tiles, wear-level matches FIFO makespan (±5%)");
    println!("while multiplying projected lifetime by the rotation factor;");
    println!("least-loaded evens utilization under mixed widths.");
}
