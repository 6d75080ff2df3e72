//! Schoolbook (long) multiplication — the O(n²) baseline (paper Sec. III-A).
//!
//! Every limb of one operand is multiplied with every limb of the other
//! and the partial products are accumulated. This is the method used by
//! the prior CIM multipliers the paper compares against (\[6\], \[7\], \[8\]).

use crate::uint::Uint;

/// Multiplies two integers with the schoolbook method.
///
/// Complexity: `O(n·m)` limb multiplications for `n`- and `m`-limb
/// operands.
///
/// ```
/// use cim_bigint::{mul::schoolbook, Uint};
/// let a = Uint::from_u64(u64::MAX);
/// let sq = schoolbook::mul(&a, &a);
/// assert_eq!(sq, Uint::from_u128((u64::MAX as u128) * (u64::MAX as u128)));
/// ```
pub fn mul(a: &Uint, b: &Uint) -> Uint {
    if a.is_zero() || b.is_zero() {
        return Uint::zero();
    }
    let mut out = vec![0u64; a.limbs().len() + b.limbs().len()];
    mul_limbs(a.limbs(), b.limbs(), &mut out);
    Uint::from_limbs(out)
}

/// Schoolbook product of little-endian limb slices into `out`, which
/// must hold `a.len() + b.len()` limbs (overwritten): [`mul`] without
/// the `Uint` wrapping, for callers that keep many products in one
/// flat buffer.
///
/// # Panics
///
/// Panics if `out` is not `a.len() + b.len()` limbs long.
pub fn mul_limbs(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(
        out.len(),
        a.len() + b.len(),
        "product needs a.len() + b.len() limbs"
    );
    out.fill(0);
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + x as u128 * y as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
}

/// Number of 1-bit AND operations a bit-serial schoolbook multiplier
/// performs for `n`-bit operands: `n²` (paper Sec. III-A — "quadratic
/// growth of AND operations").
pub fn bit_and_ops(n: usize) -> u64 {
    (n as u64) * (n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_limb_products() {
        for (x, y) in [(0u64, 5), (1, 1), (u64::MAX, u64::MAX), (12345, 67890)] {
            assert_eq!(
                mul(&Uint::from_u64(x), &Uint::from_u64(y)),
                Uint::from_u128(x as u128 * y as u128)
            );
        }
    }

    #[test]
    fn known_multi_limb_product() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let a = Uint::pow2(128).sub(&Uint::one());
        let expect = Uint::pow2(256).sub(&Uint::pow2(129)).add(&Uint::one());
        assert_eq!(mul(&a, &a), expect);
    }

    #[test]
    fn asymmetric_operands() {
        let a = Uint::from_hex("ffffffffffffffffffffffffffffffffffffffff").unwrap();
        let b = Uint::from_u64(3);
        assert_eq!(mul(&a, &b), mul(&b, &a));
        assert_eq!(
            mul(&a, &b),
            a.shl(1).add(&a) // 3a = 2a + a
        );
    }

    #[test]
    fn bit_and_op_counts_quadratic() {
        assert_eq!(bit_and_ops(8), 64);
        assert_eq!(bit_and_ops(384), 147_456);
    }
}
