//! Property-based tests for the big-integer substrate.
//!
//! These establish the algebraic invariants the rest of the repository
//! (simulator verification, modular arithmetic) relies on.

use cim_bigint::mul::{karatsuba, karatsuba_unrolled, schoolbook, toom};
use cim_bigint::{Int, Uint};
use proptest::prelude::*;

/// Strategy: a `Uint` of up to `max_limbs` random limbs.
fn uint(max_limbs: usize) -> impl Strategy<Value = Uint> {
    prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(Uint::from_limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutative(a in uint(8), b in uint(8)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in uint(6), b in uint(6), c in uint(6)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_sub_roundtrip(a in uint(8), b in uint(8)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn checked_sub_none_iff_less(a in uint(6), b in uint(6)) {
        prop_assert_eq!(a.checked_sub(&b).is_none(), a < b);
    }

    #[test]
    fn mul_commutative(a in uint(6), b in uint(6)) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in uint(5), b in uint(5), c in uint(5)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn all_multiplication_algorithms_agree(a in uint(12), b in uint(12)) {
        let expect = schoolbook::mul(&a, &b);
        prop_assert_eq!(karatsuba::mul(&a, &b), expect.clone());
        prop_assert_eq!(toom::mul3(&a, &b), expect.clone());
        prop_assert_eq!(karatsuba_unrolled::mul(&a, &b, 1), expect.clone());
        prop_assert_eq!(karatsuba_unrolled::mul(&a, &b, 2), expect.clone());
        prop_assert_eq!(karatsuba_unrolled::mul(&a, &b, 3), expect);
    }

    #[test]
    fn div_rem_reconstructs(a in uint(10), b in uint(5)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_consistency(a in uint(6), k in 0usize..300) {
        prop_assert_eq!(a.shl(k).shr(k), a.clone());
        prop_assert_eq!(a.shl(k), &a * &Uint::pow2(k));
    }

    #[test]
    fn hex_roundtrip(a in uint(8)) {
        prop_assert_eq!(Uint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in uint(6)) {
        prop_assert_eq!(Uint::from_decimal(&a.to_decimal()).unwrap(), a);
    }

    #[test]
    fn le_bytes_roundtrip(a in uint(8)) {
        prop_assert_eq!(Uint::from_le_bytes(&a.to_le_bytes()), a);
    }

    #[test]
    fn bits_roundtrip(a in uint(4)) {
        let width = a.bit_len().max(1);
        prop_assert_eq!(Uint::from_bits(&a.to_bits(width)), a);
    }

    #[test]
    fn split_join_roundtrip(a in uint(8), log_chunks in 0u32..4) {
        let count = 1usize << log_chunks;
        let chunk_bits = a.bit_len().div_ceil(count).max(1);
        let chunks = a.split_chunks(chunk_bits, count);
        prop_assert_eq!(Uint::join_chunks(&chunks, chunk_bits), a);
    }

    #[test]
    fn low_bits_is_mod_pow2(a in uint(6), k in 0usize..300) {
        prop_assert_eq!(a.low_bits(k), a.rem(&Uint::pow2(k)));
    }

    #[test]
    fn int_ring_axioms(x in -1000i64..1000, y in -1000i64..1000, z in -1000i64..1000) {
        let (a, b, c) = (Int::from_i64(x), Int::from_i64(y), Int::from_i64(z));
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!((a.clone() + b.clone()) + c.clone(), a.clone() + (b.clone() + c.clone()));
        prop_assert_eq!(a.clone() * (b.clone() + c.clone()),
                        (a.clone() * b.clone()) + (a.clone() * c));
        prop_assert_eq!(&a - &b, &a + &(-&b));
    }

    #[test]
    fn int_uint_consistency(x in any::<u64>(), y in any::<u64>()) {
        let (a, b) = (Uint::from_u64(x), Uint::from_u64(y));
        let diff = Int::from(&a) - Int::from(&b);
        if x >= y {
            prop_assert_eq!(diff.to_uint().unwrap(), a.sub(&b));
        } else {
            prop_assert!(diff.is_negative());
            prop_assert_eq!(diff.magnitude(), &b.sub(&a));
        }
    }

    #[test]
    fn bit_len_bounds_value(a in uint(6)) {
        prop_assume!(!a.is_zero());
        let n = a.bit_len();
        prop_assert!(a < Uint::pow2(n));
        prop_assert!(a >= Uint::pow2(n - 1));
    }

    #[test]
    fn ordering_total_and_consistent_with_sub(a in uint(6), b in uint(6)) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(b.checked_sub(&a).is_some()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }
}
