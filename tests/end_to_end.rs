//! Cross-crate integration: the simulated hardware stack (crossbar →
//! MAGIC logic → Karatsuba pipeline) against the software substrate
//! (bigint algorithms), and the cryptographic layer on top of both.

use cim_bigint::mul::{karatsuba, schoolbook, toom};
use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_modmul::barrett::BarrettContext;
use cim_modmul::montgomery::MontgomeryContext;
use cim_modmul::{fields, ModularReducer};
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;

#[test]
fn simulated_hardware_agrees_with_every_software_algorithm() {
    let mut rng = UintRng::seeded(1001);
    for n in [16usize, 64, 128] {
        let hw = KaratsubaCimMultiplier::new(n).expect("multiplier");
        for _ in 0..2 {
            let a = rng.uniform(n);
            let b = rng.uniform(n);
            let hw_product = hw.multiply(&a, &b).expect("simulate").product;
            assert_eq!(hw_product, schoolbook::mul(&a, &b), "schoolbook n={n}");
            assert_eq!(hw_product, karatsuba::mul(&a, &b), "karatsuba n={n}");
            assert_eq!(hw_product, toom::mul3(&a, &b), "toom n={n}");
        }
    }
}

#[test]
fn montgomery_field_mul_on_simulated_hardware() {
    // A full BN254 field multiplication where the Montgomery product
    // runs on the simulated 256-bit crossbar pipeline.
    let p = fields::bn254_base();
    let ctx = MontgomeryContext::new(p.clone()).expect("odd prime");
    let hw = KaratsubaCimMultiplier::new(256).expect("multiplier");
    let mut rng = UintRng::seeded(1002);
    let a = rng.below(&p);
    let b = rng.below(&p);

    let am = ctx.to_mont(&a);
    let bm = ctx.to_mont(&b);
    let t = hw.multiply(&am, &bm).expect("simulate").product;
    let c = ctx.from_mont(&ctx.redc(&t));
    assert_eq!(c, (&a * &b).rem(&p));
}

#[test]
fn barrett_reduction_of_simulated_product() {
    let p = fields::goldilocks();
    let ctx = BarrettContext::new(p.clone()).expect("modulus");
    let hw = KaratsubaCimMultiplier::new(64).expect("multiplier");
    let mut rng = UintRng::seeded(1003);
    let a = rng.below(&p);
    let b = rng.below(&p);
    let t = hw.multiply(&a, &b).expect("simulate").product;
    assert_eq!(ctx.reduce(&t), (&a * &b).rem(&p));
}

#[test]
fn modular_exponentiation_spot_check_on_hardware_products() {
    // 3^5 mod p via repeated simulated multiplications.
    let p = fields::goldilocks();
    let hw = KaratsubaCimMultiplier::new(64).expect("multiplier");
    let ctx = BarrettContext::new(p.clone()).expect("modulus");
    let mut acc = Uint::from_u64(3);
    for _ in 0..4 {
        let t = hw
            .multiply(&acc, &Uint::from_u64(3))
            .expect("simulate")
            .product;
        acc = ctx.reduce(&t);
    }
    assert_eq!(acc, Uint::from_u64(243));
}

#[test]
fn stage_latencies_compose_into_design_point() {
    for n in [64usize, 256] {
        let hw = KaratsubaCimMultiplier::new(n).expect("multiplier");
        let a = Uint::pow2(n).sub(&Uint::one());
        let out = hw.multiply(&a, &a).expect("simulate");
        let d = hw.design_point();
        assert_eq!(out.report.stage_cycles[0], d.precompute_latency, "n={n}");
        assert_eq!(out.report.stage_cycles[1], d.multiply_latency, "n={n}");
        // Postcompute measured within 5% of the paper's closed form.
        let delta = (out.report.stage_cycles[2] as f64 - d.postcompute_latency as f64).abs()
            / d.postcompute_latency as f64;
        assert!(delta < 0.05, "n={n}: post delta {delta}");
    }
}

#[test]
fn umbrella_crate_reexports_work() {
    // The root cim-suite crate re-exports every public crate.
    let a = cim_suite::bigint::Uint::from_u64(6);
    let b = cim_suite::bigint::Uint::from_u64(7);
    let hw = cim_suite::karatsuba::multiplier::KaratsubaCimMultiplier::new(16).expect("mult");
    assert_eq!(
        hw.multiply(&a, &b).expect("simulate").product,
        Uint::from_u64(42)
    );
}
