//! Multiplication algorithms explored by the paper (Sec. III).
//!
//! * [`schoolbook`] — the O(n²) baseline used by most prior CIM work.
//! * [`karatsuba`] — recursive Karatsuba (O(n^1.585)), paper Sec. III-C1.
//! * [`karatsuba_unrolled`] — depth-L *unrolled* Karatsuba mirroring the
//!   hardware dataflow of the paper's Fig. 3 (Sec. III-C2).
//! * [`toom`] — Toom-3 with exact interpolation, paper Sec. III-B.
//!
//! All algorithms are verified against each other by unit and property
//! tests; [`auto`] dispatches by operand size and backs `Uint`'s `*`.

pub mod karatsuba;
pub mod karatsuba_unrolled;
pub mod schoolbook;
pub mod toom;

use crate::uint::Uint;

/// Limb count below which schoolbook beats Karatsuba on typical hosts.
pub const KARATSUBA_THRESHOLD_LIMBS: usize = 16;

/// Multiplies two integers picking the algorithm by operand size.
///
/// This is the implementation behind `&Uint * &Uint`.
///
/// ```
/// use cim_bigint::{mul, Uint};
/// let a = Uint::pow2(300);
/// assert_eq!(mul::auto(&a, &a), Uint::pow2(600));
/// ```
pub fn auto(a: &Uint, b: &Uint) -> Uint {
    if a.limbs().len().min(b.limbs().len()) < KARATSUBA_THRESHOLD_LIMBS {
        schoolbook::mul(a, b)
    } else {
        karatsuba::mul(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::UintRng;

    /// All four algorithms must agree on random operands of many sizes.
    #[test]
    fn algorithms_agree() {
        let mut rng = UintRng::seeded(7);
        for bits in [1usize, 13, 64, 65, 127, 128, 256, 384, 513, 1024, 2048] {
            let a = rng.uniform(bits);
            let b = rng.uniform(bits);
            let expect = schoolbook::mul(&a, &b);
            assert_eq!(karatsuba::mul(&a, &b), expect, "karatsuba {bits}");
            assert_eq!(toom::mul3(&a, &b), expect, "toom3 {bits}");
            for depth in 1..=3 {
                assert_eq!(
                    karatsuba_unrolled::mul(&a, &b, depth),
                    expect,
                    "unrolled depth {depth} at {bits} bits"
                );
            }
            assert_eq!(auto(&a, &b), expect, "auto {bits}");
        }
    }

    #[test]
    fn zero_and_one_edge_cases() {
        let x = Uint::from_hex("deadbeefdeadbeefdeadbeef").unwrap();
        for f in [schoolbook::mul, karatsuba::mul, toom::mul3, auto] {
            assert_eq!(f(&x, &Uint::zero()), Uint::zero());
            assert_eq!(f(&Uint::zero(), &x), Uint::zero());
            assert_eq!(f(&x, &Uint::one()), x);
            assert_eq!(f(&Uint::one(), &x), x);
        }
    }
}
