//! Reduction by a sparse modulus \[31\] (paper Sec. IV-F).
//!
//! For pseudo-Mersenne moduli `m = 2^k − t` with small `t`, reduction
//! needs **no multiplications at all** (beyond tiny `·t` shift-adds):
//! fold `x = x_hi·2^k + x_lo ≡ x_hi·t + x_lo (mod m)` until the value
//! fits — a chain of additions that maps directly onto the paper's
//! Kogge-Stone adder, which is why the paper singles this class out.

use crate::{CimCost, ModularReducer};
use cim_bigint::Uint;
use std::error::Error;
use std::fmt;

/// Error constructing a sparse-modulus context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// `t` must satisfy `0 < t < 2^(k−1)` so folding converges.
    FoldDivergent,
    /// `k` must be positive.
    ZeroWidth,
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::FoldDivergent => {
                write!(
                    f,
                    "sparse modulus needs 0 < t < 2^(k−1) for folding to converge"
                )
            }
            SparseError::ZeroWidth => write!(f, "sparse modulus width k must be positive"),
        }
    }
}

impl Error for SparseError {}

/// A pseudo-Mersenne modulus `m = 2^k − t`.
///
/// ```
/// use cim_bigint::Uint;
/// use cim_modmul::{sparse::SparseModulus, ModularReducer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Curve25519's p = 2^255 − 19.
/// let ctx = SparseModulus::new(255, Uint::from_u64(19))?;
/// let x = Uint::pow2(255); // ≡ 19 (mod p)
/// assert_eq!(ctx.reduce(&x), Uint::from_u64(19));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseModulus {
    k: usize,
    t: Uint,
    m: Uint,
}

impl SparseModulus {
    /// Creates the context for `m = 2^k − t`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] when `k = 0` or `t` is zero / too large
    /// for the folding loop to converge.
    pub fn new(k: usize, t: Uint) -> Result<Self, SparseError> {
        if k == 0 {
            return Err(SparseError::ZeroWidth);
        }
        if t.is_zero() || t.bit_len() >= k {
            return Err(SparseError::FoldDivergent);
        }
        let m = Uint::pow2(k).sub(&t);
        Ok(SparseModulus { k, t, m })
    }

    /// The Goldilocks prime `2^64 − 2^32 + 1` (t = 2^32 − 1).
    ///
    /// # Panics
    ///
    /// Never panics; parameters are statically valid.
    pub fn goldilocks() -> Self {
        SparseModulus::new(64, Uint::pow2(32).sub(&Uint::one())).expect("valid")
    }

    /// Curve25519's prime `2^255 − 19`.
    ///
    /// # Panics
    ///
    /// Never panics; parameters are statically valid.
    pub fn curve25519() -> Self {
        SparseModulus::new(255, Uint::from_u64(19)).expect("valid")
    }

    /// Number of fold iterations needed for an input `< m²` — each
    /// iteration is one shift-multiply-by-`t` (itself shift-adds for
    /// sparse `t`) and one addition.
    pub fn folds_for_square_input(&self) -> u64 {
        // Each fold shrinks bit length from 2k towards k by roughly
        // (k − bits(t)) bits; for crypto-sized t two folds + final
        // conditional subtractions suffice.
        let shrink = self.k - self.t.bit_len();
        (self.k as u64).div_ceil(shrink.max(1) as u64) + 1
    }

    /// Number of non-zero signed digits (non-adjacent form) of `t` —
    /// the cost of one `·t` as a shift-add chain. A "sparse" modulus
    /// is precisely one where this is small: 2 for Goldilocks'
    /// `t = 2^32 − 1`, 3 for Curve25519's `t = 19`.
    pub fn naf_terms(&self) -> u64 {
        let mut v = self.t.clone();
        let mut terms = 0u64;
        while !v.is_zero() {
            if v.bit(0) {
                terms += 1;
                // digit ±1: choose the sign that zeroes the next bit.
                let low2 = v.low_bits(2);
                if low2 == Uint::from_u64(3) {
                    v = v.add(&Uint::one()); // digit −1
                } else {
                    v = v.sub(&Uint::one()); // digit +1
                }
            }
            v = v.shr(1);
        }
        terms
    }
}

impl ModularReducer for SparseModulus {
    fn modulus(&self) -> &Uint {
        &self.m
    }

    fn mul_mod(&self, a: &Uint, b: &Uint) -> Uint {
        self.reduce(&(a * b))
    }

    fn reduce(&self, x: &Uint) -> Uint {
        let mut v = x.clone();
        // Fold: v = hi·2^k + lo ≡ hi·t + lo.
        while v.bit_len() > self.k {
            let hi = v.shr(self.k);
            let lo = v.low_bits(self.k);
            v = (&hi * &self.t).add(&lo);
        }
        while v >= self.m {
            v = v.sub(&self.m);
        }
        v
    }

    /// Sparse reduction costs **zero** full multiplications — the
    /// `·t` products are shift-add chains on the adder. We charge one
    /// full multiplier pass for the initial `a·b` product and the
    /// folds + corrections as additions.
    fn cim_cost(&self) -> CimCost {
        // Per fold: one shifted add/sub per signed digit of t plus the
        // fold addition itself; plus 2 conditional subtractions.
        let adds = self.folds_for_square_input() * (self.naf_terms() + 1) + 2;
        CimCost::compose(self.k, 1, adds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::UintRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(SparseModulus::new(0, Uint::one()).is_err());
        assert!(SparseModulus::new(8, Uint::zero()).is_err());
        assert!(SparseModulus::new(8, Uint::from_u64(200)).is_err());
    }

    #[test]
    fn goldilocks_matches_naive() {
        let ctx = SparseModulus::goldilocks();
        let p = ctx.modulus().clone();
        assert_eq!(p, Uint::from_u64(0xFFFF_FFFF_0000_0001));
        let mut rng = UintRng::seeded(31);
        for _ in 0..50 {
            let a = rng.below(&p);
            let b = rng.below(&p);
            assert_eq!(ctx.mul_mod(&a, &b), (&a * &b).rem(&p));
        }
    }

    #[test]
    fn curve25519_matches_naive() {
        let ctx = SparseModulus::curve25519();
        let p = ctx.modulus().clone();
        let mut rng = UintRng::seeded(32);
        for _ in 0..20 {
            let a = rng.below(&p);
            let b = rng.below(&p);
            assert_eq!(ctx.mul_mod(&a, &b), (&a * &b).rem(&p));
        }
    }

    #[test]
    fn reduce_extremes() {
        let ctx = SparseModulus::curve25519();
        let p = ctx.modulus().clone();
        assert_eq!(ctx.reduce(&Uint::zero()), Uint::zero());
        assert_eq!(ctx.reduce(&p), Uint::zero());
        let max = (&p * &p).sub(&Uint::one());
        assert_eq!(ctx.reduce(&max), max.rem(&p));
    }

    #[test]
    fn naf_term_counts() {
        assert_eq!(SparseModulus::goldilocks().naf_terms(), 2); // 2^32 − 1
        assert_eq!(SparseModulus::curve25519().naf_terms(), 3); // 19 = 16+4−1
        assert_eq!(SparseModulus::new(16, Uint::one()).unwrap().naf_terms(), 1);
    }

    #[test]
    fn sparse_needs_no_extra_multiplications() {
        let cost = SparseModulus::goldilocks().cim_cost();
        assert_eq!(cost.multiplications, 1, "only the a·b product itself");
        assert!(cost.additions >= 3);
        // Montgomery at the same width needs 3 multiplier passes.
        let mont = crate::montgomery::MontgomeryContext::new(
            SparseModulus::goldilocks().modulus().clone(),
        )
        .unwrap();
        assert!(cost.cycles < crate::ModularReducer::cim_cost(&mont).cycles);
    }

    #[test]
    fn agrees_with_barrett() {
        let ctx = SparseModulus::goldilocks();
        let barrett = crate::barrett::BarrettContext::new(ctx.modulus().clone()).unwrap();
        let mut rng = UintRng::seeded(33);
        for _ in 0..20 {
            let a = rng.below(ctx.modulus());
            let b = rng.below(ctx.modulus());
            assert_eq!(ctx.mul_mod(&a, &b), barrett.mul_mod(&a, &b));
        }
    }
}
