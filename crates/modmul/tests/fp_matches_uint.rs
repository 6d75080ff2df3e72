//! The fixed-width Montgomery field against `Uint` arithmetic.
//!
//! Every `FpContext` operation, taken out of Montgomery form, must
//! equal the same operation done on `Uint` values and reduced by
//! division: `(a·b) mod p`, `(a + b) mod p`, `(a + p − b) mod p`,
//! `(p − a) mod p`, and an inverse `i` with `(a·i) mod p = 1`. The
//! operands are the edge values 0, 1, p − 1 and R mod p plus random
//! residues. Besides the toy, BN254, BLS12-381 and Curve25519 fields,
//! Goldilocks (one limb) and NIST P-384 (all 384 bits) put `p` at the
//! top of its limbs, where `a + b`, `x + p` in the inverse's halving
//! step and the CIOS sum carry out of the top limb.

use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_modmul::fields;
use cim_modmul::fp::FpContext;

/// NIST P-384: `2^384 − 2^128 − 2^96 + 2^32 − 1`.
fn p384() -> Uint {
    Uint::pow2(384)
        .sub(&Uint::pow2(128))
        .sub(&Uint::pow2(96))
        .add(&Uint::pow2(32))
        .sub(&Uint::one())
}

fn moduli() -> Vec<(&'static str, Uint)> {
    vec![
        ("toy 103", Uint::from_u64(103)),
        ("bn254", fields::bn254_base()),
        ("bls12-381", fields::bls12_381_base()),
        ("curve25519", fields::curve25519()),
        ("goldilocks", fields::goldilocks()),
        ("p-384", p384()),
    ]
}

/// Edge values and random residues of `p`.
fn operands(p: &Uint, seed: u64) -> Vec<Uint> {
    let limbs = p.limbs().len();
    let r_mod_p = Uint::pow2(64 * limbs).rem(p);
    let mut out = vec![Uint::zero(), Uint::one(), p.sub(&Uint::one()), r_mod_p];
    let mut rng = UintRng::seeded(seed);
    out.extend((0..12).map(|_| rng.below(p)));
    // Values just under p put every limb near its top.
    out.push(p.sub(&Uint::from_u64(2)));
    out.push(p.shr(1));
    out
}

#[test]
fn conversions_round_trip_and_reduce() {
    for (name, p) in moduli() {
        let f = FpContext::new(p.clone()).unwrap();
        for a in operands(&p, 1) {
            assert_eq!(f.to_uint(&f.from_uint(&a)), a, "{name}: {a}");
        }
        // Inputs at or above p reduce first.
        for a in [p.clone(), p.add(&Uint::from_u64(5)), (&p * &p).add(&p)] {
            assert_eq!(f.to_uint(&f.from_uint(&a)), a.rem(&p), "{name}: {a}");
        }
        assert_eq!(f.to_uint(&f.one()), Uint::one(), "{name}");
        assert!(f.from_uint(&p).is_zero(), "{name}");
    }
}

#[test]
fn ring_operations_match_uint() {
    for (name, p) in moduli() {
        let f = FpContext::new(p.clone()).unwrap();
        let vals = operands(&p, 2);
        for a in &vals {
            let fa = f.from_uint(a);
            assert_eq!(f.to_uint(&f.neg(&fa)), p.sub(a).rem(&p), "{name}: −{a}");
            for b in &vals {
                let fb = f.from_uint(b);
                let ctx = format!("{name}: {a}, {b}");
                assert_eq!(f.to_uint(&f.mul(&fa, &fb)), (a * b).rem(&p), "{ctx} ·");
                assert_eq!(f.to_uint(&f.add(&fa, &fb)), a.add(b).rem(&p), "{ctx} +");
                assert_eq!(
                    f.to_uint(&f.sub(&fa, &fb)),
                    a.add(&p).sub(b).rem(&p),
                    "{ctx} −"
                );
            }
            assert_eq!(f.to_uint(&f.square(&fa)), (a * a).rem(&p), "{name}: {a}²");
        }
    }
}

#[test]
fn inverse_matches_uint() {
    for (name, p) in moduli() {
        let f = FpContext::new(p.clone()).unwrap();
        for a in operands(&p, 3) {
            let inv = f.inv(&f.from_uint(&a));
            if a.is_zero() {
                assert_eq!(inv, None, "{name}");
                continue;
            }
            let inv = f.to_uint(&inv.expect("prime modulus"));
            assert!(inv < p, "{name}: {a}");
            assert_eq!((&a * &inv).rem(&p), Uint::one(), "{name}: {a}⁻¹ = {inv}");
        }
    }
}

#[test]
fn pow_matches_fermat() {
    for (name, p) in moduli() {
        let f = FpContext::new(p.clone()).unwrap();
        let pm1 = p.sub(&Uint::one());
        for a in operands(&p, 4).into_iter().filter(|a| !a.is_zero()) {
            let fa = f.from_uint(&a);
            // a^(p−1) = 1 and a^(p−2) = a⁻¹ for prime p.
            assert_eq!(f.pow(&fa, &pm1), f.one(), "{name}: {a}");
            assert_eq!(
                Some(f.pow(&fa, &pm1.sub(&Uint::one()))),
                f.inv(&fa),
                "{name}: {a}"
            );
        }
        assert_eq!(
            f.pow(&f.from_uint(&Uint::from_u64(7)), &Uint::zero()),
            f.one()
        );
    }
}
