//! Reproduces **Table I**: comparison of area and throughput to
//! related works at n ∈ {64, 128, 256, 384}.
//!
//! By default the "Our" rows come from the analytic cost model (which
//! reproduces the paper exactly); pass `--simulate` to additionally
//! run the full cycle-accurate simulator at every size and print the
//! measured rows next to the model.
//!
//! ```text
//! cargo run -p cim-bench --bin table1 [--simulate]
//! ```

use cim_baselines::{models, MultiplierModel, OurKaratsuba, TABLE1_SIZES};
use cim_bench::{group_digits, table_number, TextTable};
use cim_bigint::rng::UintRng;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;

fn main() {
    let simulate = std::env::args().any(|a| a == "--simulate");

    println!("TABLE I — COMPARISON OF AREA AND THROUGHPUT TO RELATED WORKS");
    println!("(factors in parentheses are relative to Our design, as in the paper)\n");

    let ours = OurKaratsuba;
    let mut table = TextTable::new(&[
        "Work",
        "n",
        "Thrpt (M/Mcc)",
        "Area (cells)",
        "ATP",
        "Max.Writes",
    ]);

    for model in models() {
        for &n in &TABLE1_SIZES {
            let tput = model.throughput_per_mcc(n);
            let area = model.area_cells(n);
            let atp = model.atp(n);
            let ours_tput = ours.throughput_per_mcc(n);
            let ours_atp = ours.atp(n);
            let tput_cell = if model.key() == ours.key() {
                format!("{} (1x)", table_number(tput))
            } else {
                format!("{} ({:.2}x)", table_number(tput), ours_tput / tput)
            };
            let atp_cell = if model.key() == ours.key() {
                format!("{} (1x)", table_number(atp))
            } else {
                let factor = atp / ours_atp;
                if factor < 10.0 {
                    format!("{} ({factor:.1}x)", table_number(atp))
                } else {
                    format!("{} ({factor:.0}x)", table_number(atp))
                }
            };
            let writes = model.max_writes(n).map_or("n.r.".to_string(), group_digits);
            table.row(&[
                model.name().to_string(),
                n.to_string(),
                tput_cell,
                group_digits(area),
                atp_cell,
                writes,
            ]);
        }
    }
    println!("{}", table.render());

    println!("Headline claims (Sec. V / abstract):");
    let imaging = cim_baselines::Imaging;
    let tput_gain = ours.throughput_per_mcc(384) / imaging.throughput_per_mcc(384);
    let atp_gain = imaging.atp(384) / ours.atp(384);
    println!("  vs [7] at n=384: {tput_gain:.0}x throughput (paper: 916x), {atp_gain:.0}x ATP (paper: 281x)");
    let multpim = cim_baselines::MultPim;
    let row_ratio =
        multpim.max_row_length(384).unwrap() as f64 / ours.max_row_length(384).unwrap() as f64;
    let write_ratio =
        multpim.max_writes(384).unwrap() as f64 / ours.max_writes(384).unwrap() as f64;
    println!("  vs [9] at n=384: {row_ratio:.1}x shorter rows (paper: 4x), {write_ratio:.1}x fewer writes (paper: up to 7.8x)");
    let wallace_area =
        cim_baselines::WallaceMajority.area_cells(384) as f64 / ours.area_cells(384) as f64;
    println!("  vs [8] at n=384: {wallace_area:.0}x smaller area (paper: 47x)\n");

    if simulate {
        println!(
            "Cycle-accurate simulation of Our design (functional verification + measured stats):"
        );
        let mut sim = TextTable::new(&[
            "n",
            "pre (cc)",
            "mult (cc)",
            "post (cc)",
            "total (cc)",
            "area",
            "max writes (raw)",
            "verified",
        ]);
        let mut rng = UintRng::seeded(2025);
        for &n in &TABLE1_SIZES {
            let mult = KaratsubaCimMultiplier::new(n).expect("multiplier");
            let a = rng.exact_bits(n);
            let b = rng.exact_bits(n);
            let out = mult.multiply(&a, &b).expect("simulation");
            let max_writes = out
                .report
                .endurance
                .iter()
                .map(|e| e.max_writes)
                .max()
                .unwrap_or(0);
            sim.row(&[
                n.to_string(),
                out.report.stage_cycles[0].to_string(),
                out.report.stage_cycles[1].to_string(),
                out.report.stage_cycles[2].to_string(),
                out.report.total_latency.to_string(),
                group_digits(out.report.area_cells),
                max_writes.to_string(),
                "yes".to_string(),
            ]);
        }
        println!("{}", sim.render());
        println!("(model max-writes are wear-leveled steady-state values; raw single-run");
        println!(" measurements above are unleveled — see EXPERIMENTS.md)");
    }
}
