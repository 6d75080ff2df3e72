//! Multi-scalar multiplication (MSM) — the dominant kernel of zkSNARK
//! proving (the paper cites PipeZK [2] and MSM engines [3], [18]).
//! Computes a small MSM on the real BLS12-381 G1 curve with Jacobian
//! arithmetic, counts the field multiplications, and projects the
//! full-size workload onto the paper's CIM hardware.
//!
//! ```text
//! cargo run --release --example zkp_msm
//! ```

use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_modmul::ec::{Curve, Point};
use karatsuba_cim::cost::DesignPoint;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let curve = Curve::bls12_381_g1()?;
    println!(
        "curve: BLS12-381 G1, y² = x³ + 4 over a {}-bit field\n",
        curve.modulus().bit_len()
    );

    // A small but real MSM: Σ k_i·P_i with 8 points.
    let base = curve.find_point();
    let mut rng = UintRng::seeded(1337);
    let points: Vec<Point> = (1..=8u64)
        .map(|i| curve.scalar_mul(&Uint::from_u64(i * 7 + 1), &base))
        .collect();
    let scalars: Vec<Uint> = (0..8).map(|_| rng.uniform(64)).collect();

    curve.take_ops(); // reset counters
    let mut acc = Point::infinity();
    for (k, p) in scalars.iter().zip(&points) {
        acc = curve.add(&acc, &curve.scalar_mul(k, p));
    }
    let ops = curve.take_ops();

    // Verify against the linearity of scalar multiplication:
    // Σ k_i·(m_i·B) = (Σ k_i·m_i)·B.
    let mut exponent = Uint::zero();
    for (i, k) in scalars.iter().enumerate() {
        exponent = exponent.add(&(k * &Uint::from_u64((i as u64 + 1) * 7 + 1)));
    }
    let expect = curve.scalar_mul(&exponent, &base);
    assert!(curve.points_equal(&acc, &expect));
    println!("8-point MSM with 64-bit scalars verified ✓");
    println!(
        "field operations used: {} muls, {} adds",
        ops.field_muls, ops.field_adds
    );

    // Project onto the CIM hardware at the paper's 384-bit point.
    let cost = ops.cim_cost(384);
    println!(
        "on the Karatsuba CIM pipeline: {} multiplier passes ≈ {:.2e} cycles\n",
        cost.multiplications, cost.cycles as f64
    );

    // Scale to a proving-sized MSM (the paper's intro: circuits of
    // size 2^26 with 384-bit points → 8.8 GB of data).
    let d = DesignPoint::new(384);
    let msm_size: u64 = 1 << 20;
    // Pippenger windows: ~(size · 255 / log2(size)) group adds, each
    // ~16 field muls, each 3 pipelined multiplier passes.
    let window = (msm_size as f64).log2();
    let group_adds = msm_size as f64 * 255.0 / window;
    let field_muls = group_adds * 16.0;
    let cim_cycles = field_muls * 3.0 * d.initiation_interval() as f64;
    println!("projection for a 2^20-point, 255-bit-scalar MSM (Pippenger):");
    println!("  ≈ {group_adds:.2e} group additions → {field_muls:.2e} field muls");
    println!("  ≈ {cim_cycles:.2e} CIM cycles (pipelined, single multiplier unit)");
    println!(
        "  ≈ {:.0} multiplier units to match a 10 ms proving budget at 1 GHz",
        cim_cycles / 1.0e7
    );
    println!(
        "\n(the paper's point: each unit is only {} memristors — the",
        d.area_cells()
    );
    println!(" area-time economics of Karatsuba make such replication viable)");
    Ok(())
}
