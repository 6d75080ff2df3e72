//! Modular exponentiation with windowing — the RSA/pairing-exponent
//! workload. Shows the area-for-cycles trade the paper's CIM fabric
//! makes natural: the 2^w-entry table of powers is just more memory
//! rows next to the multiplier.
//!
//! ```text
//! cargo run --release --example modexp_window
//! ```

use cim_bigint::rng::UintRng;
use cim_modmul::montgomery::MontgomeryContext;
use cim_modmul::{fields, ModularReducer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p = fields::bls12_381_base();
    let ctx = MontgomeryContext::new(p.clone())?;
    let mut rng = UintRng::seeded(4242);
    let base = rng.below(&p);
    let exp = rng.exact_bits(256); // a 256-bit exponent (pairing final-exp class)

    println!("modular exponentiation over BLS12-381 base field");
    println!("exponent: {} bits\n", exp.bit_len());

    // Functional check: every window width gives the same result.
    let reference = ctx.pow_mod(&base, &exp);
    for w in [2u32, 4, 6] {
        assert_eq!(ctx.pow_mod_window(&base, &exp, w), reference);
    }
    println!("windowed results verified against binary square-and-multiply ✓\n");

    // CIM cost sweep: cycles per exponentiation vs window width.
    println!(
        "{:>7} {:>14} {:>16} {:>18}",
        "window", "table entries", "modmuls (est.)", "CIM cycles (est.)"
    );
    let mut best = (1u32, f64::MAX);
    for w in 1..=8u32 {
        let cost = ctx.pow_window_cost(exp.bit_len(), w);
        let per = ctx.cim_cost();
        let modmuls = cost.cycles / per.cycles.max(1);
        println!(
            "{:>7} {:>14} {:>16} {:>18.3e}",
            w,
            1u64 << w,
            modmuls,
            cost.cycles as f64
        );
        if (cost.cycles as f64) < best.1 {
            best = (w, cost.cycles as f64);
        }
    }
    println!(
        "\noptimal window: w = {} (≈{:.2e} cycles/exponentiation)",
        best.0, best.1
    );
    println!(
        "table storage: {} field elements × 384 bits — ordinary memory rows,",
        1u64 << best.0
    );
    println!("cheap in a CIM fabric where memory IS the compute substrate.");
    Ok(())
}
