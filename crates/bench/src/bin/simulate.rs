//! End-to-end simulated multiplication report: runs one `n`-bit
//! multiplication through all three stages on cycle-accurate
//! crossbars and prints per-stage cycles, areas and endurance.
//!
//! ```text
//! cargo run -p cim-bench --bin simulate [n] [seed]
//! ```

use cim_bench::{group_digits, TextTable};
use cim_bigint::rng::UintRng;
use karatsuba_cim::cost::DesignPoint;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);

    let mut rng = UintRng::seeded(seed);
    let a = rng.exact_bits(n);
    let b = rng.exact_bits(n);

    println!("SIMULATED {n}-BIT KARATSUBA CIM MULTIPLICATION (seed {seed})\n");
    println!("a = 0x{a:x}");
    println!("b = 0x{b:x}\n");

    let mult = KaratsubaCimMultiplier::new(n).expect("multiplier");
    let out = mult.multiply(&a, &b).expect("simulation");
    println!("c = a·b = 0x{:x}", out.product);
    println!("verified against the software gold model ✓\n");

    let d = DesignPoint::new(n);
    let model = [
        d.precompute_latency,
        d.multiply_latency,
        d.postcompute_latency,
    ];
    let stage_names = ["precompute", "multiply", "postcompute"];
    let mut t = TextTable::new(&[
        "stage",
        "measured cc",
        "model cc",
        "area (cells)",
        "max writes",
        "wear balance",
    ]);
    let areas = [d.precompute_area, d.multiply_area, d.postcompute_area];
    for i in 0..3 {
        let e = &out.report.endurance[i];
        t.row(&[
            stage_names[i].to_string(),
            out.report.stage_cycles[i].to_string(),
            model[i].to_string(),
            group_digits(areas[i]),
            e.max_writes.to_string(),
            format!("{:.2}", e.balance()),
        ]);
    }
    println!("{}", t.render());

    println!("totals:");
    println!(
        "  latency (incl. 3×27 cc handoff): {} cc",
        out.report.total_latency
    );
    println!("  area: {} cells", group_digits(out.report.area_cells));
    println!(
        "  pipelined throughput (model): {:.0} mult/Mcc",
        d.throughput_per_mcc()
    );
    println!("  ATP (model): {:.1} cells/(mult/Mcc)", d.atp());
    let worst = out
        .report
        .endurance
        .iter()
        .map(|e| e.max_writes)
        .max()
        .unwrap_or(0);
    let lifetime = cim_crossbar::CELL_ENDURANCE_WRITES / worst.max(1);
    println!(
        "  endurance: worst cell {} writes/mult → ~{} multiplications per array lifetime",
        worst,
        group_digits(lifetime)
    );
}
