//! Montgomery modular multiplication \[29\] (paper Sec. IV-F).
//!
//! Values are kept in Montgomery form `aR mod m` with `R = 2^k`,
//! `k = ⌈bits(m)/64⌉·64`. One Montgomery multiplication is a full
//! product plus REDC, which itself is two more large multiplications —
//! all three run on the paper's Karatsuba multiplier; the final
//! conditional subtraction runs on the Kogge-Stone adder.

use crate::{CimCost, ModularReducer};
use cim_bigint::Uint;
use std::error::Error;
use std::fmt;

/// Error constructing a Montgomery context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MontgomeryError {
    /// Montgomery reduction requires an odd modulus.
    EvenModulus,
    /// The modulus must be at least 3.
    ModulusTooSmall,
}

impl fmt::Display for MontgomeryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MontgomeryError::EvenModulus => write!(f, "montgomery modulus must be odd"),
            MontgomeryError::ModulusTooSmall => write!(f, "montgomery modulus must be ≥ 3"),
        }
    }
}

impl Error for MontgomeryError {}

/// Precomputed Montgomery context for a fixed odd modulus.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontgomeryContext {
    m: Uint,
    /// R = 2^k.
    k: usize,
    /// m′ = −m⁻¹ mod R.
    m_prime: Uint,
    /// R² mod m (to convert into Montgomery form).
    r2: Uint,
}

impl MontgomeryContext {
    /// Builds the context: computes `m′ = −m⁻¹ mod 2^k` by Newton
    /// iteration and `R² mod m` by division.
    ///
    /// # Errors
    ///
    /// Returns [`MontgomeryError::EvenModulus`] for even `m` and
    /// [`MontgomeryError::ModulusTooSmall`] for `m < 3`.
    pub fn new(m: Uint) -> Result<Self, MontgomeryError> {
        if m < Uint::from_u64(3) {
            return Err(MontgomeryError::ModulusTooSmall);
        }
        if !m.bit(0) {
            return Err(MontgomeryError::EvenModulus);
        }
        let k = m.bit_len().div_ceil(64) * 64;
        let inv = inverse_mod_pow2(&m, k);
        // m′ = −inv mod 2^k = 2^k − inv  (inv ≠ 0 since m odd).
        let m_prime = Uint::pow2(k).sub(&inv);
        let r2 = Uint::pow2(2 * k).rem(&m);
        Ok(MontgomeryContext { m, k, m_prime, r2 })
    }

    /// The Montgomery radix exponent `k` (R = 2^k).
    pub fn radix_bits(&self) -> usize {
        self.k
    }

    /// The modulus.
    pub fn modulus(&self) -> &Uint {
        &self.m
    }

    /// The precomputed `m′ = −m⁻¹ mod R` (needed by hardware REDC
    /// implementations).
    pub fn m_prime(&self) -> &Uint {
        &self.m_prime
    }

    /// Converts into Montgomery form: `aR mod m`.
    pub fn to_mont(&self, a: &Uint) -> Uint {
        self.redc(&(a * &self.r2))
    }

    /// Converts out of Montgomery form: `a·R⁻¹ mod m`.
    pub fn from_mont(&self, a: &Uint) -> Uint {
        self.redc(a)
    }

    /// Montgomery reduction: `REDC(t) = t·R⁻¹ mod m` for `t < m·R`.
    ///
    /// The two internal `·m′ mod R` and `·m` products are the large
    /// multiplications the paper's hardware provides.
    pub fn redc(&self, t: &Uint) -> Uint {
        let r_mask = self.k;
        let u = (&t.low_bits(r_mask) * &self.m_prime).low_bits(r_mask);
        let s = (t + &(&u * &self.m)).shr(self.k);
        if s >= self.m {
            s.sub(&self.m)
        } else {
            s
        }
    }

    /// Multiplies two values **in Montgomery form**.
    pub fn mont_mul(&self, a: &Uint, b: &Uint) -> Uint {
        self.redc(&(a * b))
    }
}

impl ModularReducer for MontgomeryContext {
    fn modulus(&self) -> &Uint {
        &self.m
    }

    /// `(a·b) mod m` on plain (non-Montgomery) inputs: converts in,
    /// multiplies, converts out. For repeated multiplications use
    /// [`MontgomeryContext::mont_mul`] on Montgomery-form values.
    fn mul_mod(&self, a: &Uint, b: &Uint) -> Uint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    fn reduce(&self, x: &Uint) -> Uint {
        x.rem(&self.m)
    }

    /// Square-and-multiply in Montgomery form: one conversion in and
    /// one out, each step a single [`MontgomeryContext::mont_mul`].
    fn pow_mod(&self, base: &Uint, exp: &Uint) -> Uint {
        let result = crate::square_and_multiply(
            self.to_mont(&Uint::one()),
            self.to_mont(&base.rem(&self.m)),
            exp,
            |a, b| self.mont_mul(a, b),
        );
        self.from_mont(&result)
    }

    /// Fixed-window exponentiation in Montgomery form, table included.
    fn pow_mod_window(&self, base: &Uint, exp: &Uint, window: u32) -> Uint {
        let result = crate::fixed_window(
            self.to_mont(&Uint::one()),
            self.to_mont(&base.rem(&self.m)),
            exp,
            window,
            |a, b| self.mont_mul(a, b),
        );
        self.from_mont(&result)
    }

    /// Steady-state cost of one Montgomery multiplication (inputs
    /// already in Montgomery form): 1 full product + 2 REDC products
    /// + 1 conditional subtraction.
    fn cim_cost(&self) -> CimCost {
        CimCost::compose(self.m.bit_len(), 3, 1)
    }
}

/// `m⁻¹ mod 2^k` for odd `m`, by Newton–Hensel lifting:
/// `inv ← inv·(2 − m·inv)` doubles the valid bit count per step.
fn inverse_mod_pow2(m: &Uint, k: usize) -> Uint {
    let two = Uint::from_u64(2);
    let mut inv = Uint::one(); // valid mod 2^1
    let mut bits = 1;
    while bits < k {
        bits = (bits * 2).min(k);
        let prod = (m * &inv).low_bits(bits);
        // inv·(2 − m·inv) mod 2^bits, avoiding negatives:
        // (2 − p) mod 2^bits = (2^bits + 2 − p) mod 2^bits.
        let t = Uint::pow2(bits).add(&two).sub(&prod).low_bits(bits);
        inv = (&inv * &t).low_bits(bits);
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::UintRng;

    #[test]
    fn rejects_bad_moduli() {
        assert_eq!(
            MontgomeryContext::new(Uint::from_u64(100)).unwrap_err(),
            MontgomeryError::EvenModulus
        );
        assert_eq!(
            MontgomeryContext::new(Uint::one()).unwrap_err(),
            MontgomeryError::ModulusTooSmall
        );
    }

    #[test]
    fn inverse_mod_pow2_is_inverse() {
        let m = Uint::from_decimal("1000003").unwrap();
        for k in [8usize, 64, 128, 200] {
            let inv = inverse_mod_pow2(&m, k);
            assert_eq!((&m * &inv).low_bits(k), Uint::one(), "k = {k}");
        }
    }

    #[test]
    fn roundtrip_through_montgomery_form() {
        let p = crate::fields::bls12_381_base();
        let ctx = MontgomeryContext::new(p.clone()).unwrap();
        let mut rng = UintRng::seeded(41);
        for _ in 0..10 {
            let a = rng.below(&p);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), a);
        }
    }

    #[test]
    fn mul_mod_matches_naive() {
        let p = crate::fields::curve25519();
        let ctx = MontgomeryContext::new(p.clone()).unwrap();
        let mut rng = UintRng::seeded(42);
        for _ in 0..20 {
            let a = rng.below(&p);
            let b = rng.below(&p);
            assert_eq!(ctx.mul_mod(&a, &b), (&a * &b).rem(&p));
        }
    }

    #[test]
    fn mont_mul_in_form() {
        let p = Uint::from_u64(0xFFFF_FFFF_0000_0001); // Goldilocks
        let ctx = MontgomeryContext::new(p.clone()).unwrap();
        let a = Uint::from_u64(0x1234_5678_9ABC_DEF0);
        let b = Uint::from_u64(0x0FED_CBA9_8765_4321);
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        let cm = ctx.mont_mul(&am, &bm);
        assert_eq!(ctx.from_mont(&cm), (&a * &b).rem(&p));
    }

    #[test]
    fn redc_edge_values() {
        let p = Uint::from_u64(101);
        let ctx = MontgomeryContext::new(p.clone()).unwrap();
        assert!(ctx.redc(&Uint::zero()).is_zero());
        // REDC(m·R − 1) must still be < m.
        let t = (&p * &Uint::pow2(ctx.radix_bits())).sub(&Uint::one());
        assert!(ctx.redc(&t) < p);
    }

    #[test]
    fn cost_reports_three_multiplications() {
        let ctx = MontgomeryContext::new(crate::fields::bls12_381_base()).unwrap();
        let cost = ctx.cim_cost();
        assert_eq!(cost.multiplications, 3);
        assert_eq!(cost.n, 384); // 381 rounded up to a multiple of 4
    }
}
