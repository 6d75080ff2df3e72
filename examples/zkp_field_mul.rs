//! ZKP workload: BLS12-381 base-field multiplications — the 384-bit
//! operand class the paper's introduction motivates (pairing-based
//! zkSNARKs, multi-scalar multiplication inner loops).
//!
//! Demonstrates Montgomery modular multiplication where every large
//! integer product runs on the simulated CIM Karatsuba multiplier,
//! and projects the throughput of an MSM-style batch.
//!
//! ```text
//! cargo run --release --example zkp_field_mul
//! ```

use cim_bigint::rng::UintRng;
use cim_modmul::montgomery::MontgomeryContext;
use cim_modmul::{fields, ModularReducer};
use karatsuba_cim::cost::DesignPoint;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use karatsuba_cim::pipeline::PipelineSchedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p = fields::bls12_381_base();
    println!("BLS12-381 base field ({} bits):", p.bit_len());
    println!("p = 0x{p:x}\n");

    let ctx = MontgomeryContext::new(p.clone())?;
    let mut rng = UintRng::seeded(2025);
    let a = rng.below(&p);
    let b = rng.below(&p);

    // --- Functional path: one field multiplication where the three
    // Montgomery products run on the simulated 384-bit CIM hardware.
    let hw = KaratsubaCimMultiplier::new(384)?;
    let am = ctx.to_mont(&a);
    let bm = ctx.to_mont(&b);

    // t = am·bm on the crossbar (the REDC products use the same unit;
    // we run the headline product in full simulation here).
    let product = hw.multiply(&am, &bm)?;
    let cm = ctx.redc(&product.product);
    let c = ctx.from_mont(&cm);
    assert_eq!(c, (&a * &b).rem(&p));
    println!("field product verified: a·b mod p = 0x{c:x}\n");

    println!(
        "one 384-bit product on the CIM pipeline: {} cc, {} cells",
        product.report.total_latency, product.report.area_cells
    );

    // --- Cost projection: a Montgomery field-mul is 3 large products
    // + 1 conditional subtraction (paper Sec. IV-F).
    let cost = ctx.cim_cost();
    println!(
        "montgomery field-mul on CIM: {} multiplier passes + {} adds = {} cc\n",
        cost.multiplications, cost.additions, cost.cycles
    );

    // --- MSM-style batch: the pipeline keeps 3 products in flight.
    let d = DesignPoint::new(384);
    let window_products = 10_000usize; // products in one MSM bucket pass
    let schedule = PipelineSchedule::for_design(384, 64);
    let cc_per_product = schedule.initiation_interval();
    let total_cc = cc_per_product as u128 * window_products as u128 * 3; // 3 products per field mul
    println!("MSM-style batch projection ({window_products} field muls):");
    println!("  initiation interval: {cc_per_product} cc/product (pipelined)");
    println!(
        "  total: {total_cc} cc  ({:.1} field-muls per Mcc)",
        1.0e6 / (3.0 * cc_per_product as f64)
    );
    println!(
        "  vs a scaled schoolbook CIM multiplier [7]: {:.0}x faster",
        d.throughput_per_mcc()
            / cim_baselines::MultiplierModel::throughput_per_mcc(&cim_baselines::Imaging, 384)
    );
    Ok(())
}
