//! Stages compile their programs once, when they are built.
//!
//! The compile counter behind `progcache::stats` is process-wide, so
//! this test is the only one in its binary: every count below is exact.

use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_mir::OptLevel;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use karatsuba_cim::multiply::MultiplyStage;
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::PrecomputeStage;
use karatsuba_cim::progcache;

fn compiles() -> u64 {
    progcache::stats().1
}

#[test]
fn stages_compile_at_construction_and_square_compiles_once() {
    let n = 384;
    let opt = OptLevel::O3;
    let start = compiles();
    let mult = KaratsubaCimMultiplier::with_opt_level(n, opt).unwrap();
    // The ten-addition precompute suffix and the postcompute adder's
    // `Add` and `Sub` bodies.
    assert_eq!(
        compiles() - start,
        3,
        "construction compiles three programs"
    );
    let pre = PrecomputeStage::with_opt_level(n, opt).unwrap();
    let mid = MultiplyStage::with_opt_level(n, opt).unwrap();
    let post = PostcomputeStage::with_opt_level(n, opt).unwrap();
    let built = compiles();

    let mut rng = UintRng::seeded(23);
    let (a, b) = (rng.exact_bits(n), rng.exact_bits(n));
    let solo = mult.multiply(&a, &b).unwrap();
    assert_eq!(solo.product, &a * &b);
    let pairs: Vec<(Uint, Uint)> = (0..64).map(|_| (rng.uniform(n), rng.uniform(n))).collect();
    let batch = mult.multiply_batch(&pairs).unwrap();
    assert_eq!(batch.stage_cycles, solo.report.stage_cycles);
    assert_eq!(
        [pre.latency(), mid.latency(), post.latency()],
        solo.report.stage_cycles
    );
    let copy = mult.clone();
    assert_eq!(copy.multiply(&a, &b).unwrap(), solo);
    assert_eq!(
        compiles(),
        built,
        "multiply, batch, latency and clone compile nothing"
    );

    let first = mult.square(&a).unwrap();
    assert_eq!(first.product, &a * &a);
    assert_eq!(
        compiles(),
        built + 1,
        "the first square compiles its suffix"
    );
    assert_eq!(mult.square(&a).unwrap(), first);
    assert_eq!(compiles(), built + 1, "a second square compiles nothing");
}
