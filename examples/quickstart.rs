//! Quickstart: multiply two 256-bit integers entirely inside a
//! simulated ReRAM crossbar using the paper's three-stage pipelined
//! Karatsuba multiplier.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cim_bigint::Uint;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two 256-bit operands (any hex/decimal string or limb vector works).
    let a = Uint::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")?;
    let b = Uint::from_hex("2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824")?;

    // Build the 256-bit multiplier: a precomputation array (30×66
    // cells), nine single-row multipliers (9×792 cells) and a
    // postcomputation array (20×384 cells).
    let multiplier = KaratsubaCimMultiplier::new(256)?;

    // Runs all three stages cycle-accurately and verifies the result
    // against the software gold model.
    let outcome = multiplier.multiply(&a, &b)?;

    println!("a   = 0x{a:x}");
    println!("b   = 0x{b:x}");
    println!("a·b = 0x{:x}", outcome.product);
    assert_eq!(outcome.product, &a * &b);

    let r = &outcome.report;
    println!();
    println!(
        "stage cycles: precompute {} / multiply {} / postcompute {}",
        r.stage_cycles[0], r.stage_cycles[1], r.stage_cycles[2]
    );
    println!("total latency: {} clock cycles", r.total_latency);
    println!("total area:    {} memristor cells", r.area_cells);

    // The pipelined design overlaps three multiplications; throughput
    // comes from the analytic design point (reproduces paper Table I).
    let d = multiplier.design_point();
    println!(
        "pipelined throughput: {:.0} multiplications per 10^6 cycles",
        d.throughput_per_mcc()
    );
    println!("area-time product:    {:.1}", d.atp());
    Ok(())
}
