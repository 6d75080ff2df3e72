//! Toom-Cook multiplication (paper Sec. III-B).
//!
//! Toom-k splits each operand into `k` chunks interpreted as polynomial
//! coefficients, evaluates both polynomials at `2k − 1` points,
//! multiplies point-wise and interpolates the product polynomial.
//!
//! The paper rejects generic Toom-k for CIM because interpolation
//! requires a quadratically growing number of constant multiplications
//! — `(2k−1)²` Vandermonde entries: 25, 49 and 81 for k = 3, 4, 5 —
//! and because exact interpolation needs divisions by non-powers of two
//! (here: by 2 and by 3), which are awkward to realize in NOR-only
//! in-memory logic. This module provides a full, exact Toom-3
//! implementation so the exploration can be reproduced in software.

use super::schoolbook;
use crate::int::Int;
use crate::uint::Uint;

/// Number of entries of the `(2k−1) × (2k−1)` Vandermonde interpolation
/// matrix for Toom-k — the paper's "25, 49, and 81 multiplications for
/// k = 3, 4, and 5".
///
/// ```
/// use cim_bigint::mul::toom::interpolation_multiplications;
/// assert_eq!(interpolation_multiplications(3), 25);
/// assert_eq!(interpolation_multiplications(4), 49);
/// assert_eq!(interpolation_multiplications(5), 81);
/// ```
pub fn interpolation_multiplications(k: usize) -> usize {
    let points = 2 * k - 1;
    points * points
}

/// Number of point-wise multiplications Toom-k performs: `2k − 1`.
pub fn pointwise_multiplications(k: usize) -> usize {
    2 * k - 1
}

/// Multiplies two integers with Toom-3 (evaluation points
/// 0, 1, −1, 2, ∞; exact Bodrato-style interpolation).
///
/// ```
/// use cim_bigint::{mul::toom, Uint};
/// let a = Uint::pow2(300).sub(&Uint::one());
/// let b = Uint::pow2(299).add(&Uint::from_u64(1));
/// assert_eq!(toom::mul3(&a, &b), cim_bigint::mul::schoolbook::mul(&a, &b));
/// ```
pub fn mul3(a: &Uint, b: &Uint) -> Uint {
    if a.is_zero() || b.is_zero() {
        return Uint::zero();
    }
    let n = a.bit_len().max(b.bit_len());
    if n <= 64 {
        return schoolbook::mul(a, b);
    }
    let m = n.div_ceil(3);

    let eval = |x: &Uint| -> [Int; 5] {
        let chunks = x.split_chunks(m, 3);
        let c0 = Int::from(&chunks[0]);
        let c1 = Int::from(&chunks[1]);
        let c2 = Int::from(&chunks[2]);
        [
            c0.clone(),                         // p(0)
            c0.add(&c1).add(&c2),               // p(1)
            c0.sub(&c1).add(&c2),               // p(−1)
            c0.add(&c1.shl(1)).add(&c2.shl(2)), // p(2)
            c2,                                 // p(∞)
        ]
    };

    let pa = eval(a);
    let pb = eval(b);
    let v: Vec<Int> = pa.iter().zip(&pb).map(|(x, y)| x.mul(y)).collect();
    let (v0, v1, vm1, v2, vinf) = (&v[0], &v[1], &v[2], &v[3], &v[4]);

    // Exact interpolation (divisions by 2 and 3 are exact).
    let w3 = v2.sub(vm1).div_exact_limb(3); // c1 + c2 + 3c3 + 5c4
    let w1 = v1.sub(vm1).div_exact_limb(2); // c1 + c3
    let w2 = vm1.sub(v0); //                   −c1 + c2 − c3 + c4
    let t = w3.sub(&w2).div_exact_limb(2).sub(&vinf.shl(1)); // c1 + 2c3
    let c3 = t.sub(&w1);
    let c1 = w1.sub(&c3);
    let c2 = w2.add(&c1).add(&c3).sub(vinf);
    let c0 = v0;
    let c4 = vinf;

    let coeffs = [c0, &c1, &c2, &c3, c4];
    let mut acc = Int::zero();
    for (i, c) in coeffs.iter().enumerate() {
        acc = acc.add(&c.shl(i * m));
    }
    acc.expect_uint("Toom-3 product must be non-negative")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::UintRng;

    #[test]
    fn matches_schoolbook_on_random_inputs() {
        let mut rng = UintRng::seeded(99);
        for bits in [65usize, 96, 192, 384, 768, 1536, 3000] {
            let a = rng.uniform(bits);
            let b = rng.uniform(bits);
            assert_eq!(mul3(&a, &b), schoolbook::mul(&a, &b), "bits = {bits}");
        }
    }

    #[test]
    fn unbalanced_operands() {
        let mut rng = UintRng::seeded(100);
        let a = rng.uniform(1000);
        let b = rng.uniform(100);
        assert_eq!(mul3(&a, &b), schoolbook::mul(&a, &b));
    }

    #[test]
    fn all_ones_pattern() {
        // Exercises every interpolation division with maximal carries.
        let a = Uint::pow2(768).sub(&Uint::one());
        assert_eq!(mul3(&a, &a), schoolbook::mul(&a, &a));
    }

    #[test]
    fn sparse_pattern() {
        let a = Uint::pow2(500).add(&Uint::one());
        let b = Uint::pow2(499).add(&Uint::pow2(250));
        assert_eq!(mul3(&a, &b), schoolbook::mul(&a, &b));
    }

    #[test]
    fn paper_interpolation_counts() {
        assert_eq!(interpolation_multiplications(3), 25);
        assert_eq!(interpolation_multiplications(4), 49);
        assert_eq!(interpolation_multiplications(5), 81);
        assert_eq!(pointwise_multiplications(2), 3); // Karatsuba = Toom-2
        assert_eq!(pointwise_multiplications(3), 5);
    }

    #[test]
    fn small_operands_fall_back() {
        assert_eq!(
            mul3(&Uint::from_u64(6), &Uint::from_u64(7)),
            Uint::from_u64(42)
        );
    }
}
