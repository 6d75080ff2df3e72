//! Extension experiment: per-multiplication **energy** breakdown of
//! the Karatsuba CIM design (the paper evaluates throughput / area /
//! endurance; energy is the metric its introduction motivates — "a
//! significant amount of energy is lost on data movements").
//!
//! Prints the in-memory energy per multiplication and contrasts it
//! with the off-chip data-movement energy a von-Neumann accelerator
//! pays for the same operands.
//!
//! ```text
//! cargo run --release -p cim-bench --bin energy_table
//! ```

use cim_bench::TextTable;
use cim_bigint::rng::UintRng;
use cim_crossbar::{EnergyParams, EnergyReport};
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use karatsuba_cim::PAPER_SIZES;

fn main() {
    let params = EnergyParams::default();
    println!(
        "ENERGY PER MULTIPLICATION (extension; parameters: write {} pJ,",
        params.write_pj
    );
    println!(
        "read {} pJ, MAGIC {} pJ/cell, off-chip {} pJ/bit)\n",
        params.read_pj, params.magic_pj, params.offchip_pj_per_bit
    );

    let mut table = TextTable::new(&[
        "n",
        "write (pJ)",
        "read (pJ)",
        "MAGIC (pJ)",
        "ctrl (pJ)",
        "total (nJ)",
        "vN movement (nJ)",
    ]);
    let mut rng = UintRng::seeded(123);
    for &n in &PAPER_SIZES {
        let mult = KaratsubaCimMultiplier::new(n).expect("multiplier");
        let a = rng.exact_bits(n);
        let b = rng.exact_bits(n);
        let out = mult.multiply(&a, &b).expect("simulate");
        let e = out.report.energy(n, &params);
        // A von-Neumann system moves 2 operands in and a 2n-bit result
        // out over the memory bus: 4n bits.
        let movement = EnergyReport::offchip_movement_pj(4 * n, &params);
        table.row(&[
            n.to_string(),
            format!("{:.0}", e.write_pj),
            format!("{:.0}", e.read_pj),
            format!("{:.0}", e.magic_pj),
            format!("{:.0}", e.controller_pj),
            format!("{:.2}", e.total_pj() / 1000.0),
            format!("{:.2}", movement / 1000.0),
        ]);
    }
    println!("{}", table.render());
    println!("notes:");
    println!("  * 'vN movement' is ONLY the DDR-class transfer of operands and");
    println!("    result for one multiplication; a von-Neumann multiplier also");
    println!("    re-fetches intermediates throughout the schoolbook schedule —");
    println!("    O(n/64)² word transfers vs our single in/out transfer.");
    println!("  * in-memory MAGIC energy here is an upper bound (every cell of");
    println!("    a row assumed active each MAGIC cycle); write energy uses the");
    println!("    exact per-cell write counts from the simulator.");
    println!("  * absolute pJ values are parameterizable (EnergyParams).");
}
