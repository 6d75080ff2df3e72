//! # cim-modmul — modular multiplication on the Karatsuba CIM multiplier
//!
//! The paper's Sec. IV-F argues the design covers the building blocks
//! of modular multiplication in cryptography: Montgomery \[29\] and
//! Barrett \[30\] reduction are built from integer multiplications
//! (readily supported by the Karatsuba multiplier), and sparse-modulus
//! reduction \[31\] from additions (supported by the Kogge-Stone adder).
//! This crate implements all three, functionally exact over
//! [`cim_bigint::Uint`], each with a CIM cost estimate composed from
//! the paper's stage cost model.
//!
//! * [`montgomery`] — Montgomery form and REDC;
//! * [`barrett`] — Barrett reduction with precomputed µ;
//! * [`sparse`] — reduction by pseudo-Mersenne / Solinas moduli
//!   (`2^k − t`);
//! * [`fp`] — a fixed-width (≤ 384-bit) Montgomery field on `u64`
//!   limbs, the host arithmetic under [`ec`]'s curves;
//! * [`fields`] — cryptographic moduli the paper motivates (BLS12-381,
//!   BN254, Curve25519, Goldilocks).
//!
//! ## Example: a BLS12-381 field multiplication
//!
//! ```
//! use cim_modmul::{fields, montgomery::MontgomeryContext, ModularReducer};
//! use cim_bigint::Uint;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = fields::bls12_381_base();
//! let ctx = MontgomeryContext::new(p.clone())?;
//! let a = Uint::from_decimal("123456789123456789")?;
//! let b = Uint::from_decimal("987654321987654321")?;
//! assert_eq!(ctx.mul_mod(&a, &b), (&a * &b).rem(&p));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrett;
pub mod ec;
pub mod fields;
pub mod fp;
pub mod montgomery;
pub mod sparse;

use cim_bigint::Uint;
use karatsuba_cim::cost::DesignPoint;

/// Estimated cost of one modular multiplication on the paper's CIM
/// hardware: how many full multiplier passes and standalone
/// Kogge-Stone additions the method needs, and the resulting cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CimCost {
    /// Operand width the hardware is provisioned for (multiple of 4).
    pub n: usize,
    /// Full `n`-bit multiplier invocations.
    pub multiplications: u64,
    /// Standalone wide additions/subtractions.
    pub additions: u64,
    /// Total latency estimate in clock cycles.
    pub cycles: u64,
}

impl CimCost {
    /// Composes a cost from multiplier/adder invocation counts using
    /// the paper's latency formulas at width `n` (rounded up to a
    /// multiple of 4).
    pub fn compose(n: usize, multiplications: u64, additions: u64) -> CimCost {
        let n4 = n.div_ceil(4) * 4;
        let d = DesignPoint::new(n4.max(8));
        let adder = cim_logic::kogge_stone::KoggeStoneAdder::new(2 * n4.max(8));
        CimCost {
            n: n4,
            multiplications,
            additions,
            cycles: multiplications * d.latency() + additions * adder.latency(),
        }
    }
}

/// A modular-multiplication method over a fixed modulus.
pub trait ModularReducer {
    /// The modulus.
    fn modulus(&self) -> &Uint;

    /// `(a · b) mod m`. Both inputs must already be `< m`.
    fn mul_mod(&self, a: &Uint, b: &Uint) -> Uint;

    /// Reduces a value `< m²` to `< m`.
    fn reduce(&self, x: &Uint) -> Uint;

    /// Estimated CIM cost of one `mul_mod`.
    fn cim_cost(&self) -> CimCost;

    /// `base^exp mod m` by square-and-multiply (for workloads such as
    /// modular exponentiation in the examples and benches).
    fn pow_mod(&self, base: &Uint, exp: &Uint) -> Uint {
        let m = self.modulus();
        square_and_multiply(Uint::one().rem(m), base.rem(m), exp, |a, b| {
            self.mul_mod(a, b)
        })
    }

    /// `base^exp mod m` by fixed-window (2^w-ary) exponentiation:
    /// trades `2^w` precomputed powers for `~bits/w` multiplications
    /// instead of `~bits/2` — the standard trick for RSA/pairing
    /// exponents, and on CIM a direct area-for-cycles knob (the table
    /// of powers lives in ordinary memory rows next to the multiplier).
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0 or greater than 16.
    fn pow_mod_window(&self, base: &Uint, exp: &Uint, window: u32) -> Uint {
        let m = self.modulus();
        fixed_window(Uint::one().rem(m), base.rem(m), exp, window, |a, b| {
            self.mul_mod(a, b)
        })
    }

    /// CIM cost of `pow_mod_window` for a `bits`-bit exponent:
    /// squarings + expected window multiplications + table build.
    fn pow_window_cost(&self, exp_bits: usize, window: u32) -> CimCost {
        let w = window as u64;
        let squarings = exp_bits as u64;
        let windows = (exp_bits as u64).div_ceil(w);
        let table = (1u64 << w) - 2;
        let per = self.cim_cost();
        let modmuls = squarings + windows + table;
        CimCost {
            n: per.n,
            multiplications: modmuls * per.multiplications,
            additions: modmuls * per.additions,
            cycles: modmuls * per.cycles,
        }
    }
}

/// `base^exp` by left-to-right square-and-multiply under `mul`, with
/// `one` its identity: the [`ModularReducer::pow_mod`] loop, shared by
/// every representation that exponentiates in its own form.
pub(crate) fn square_and_multiply<T>(one: T, base: T, exp: &Uint, mul: impl Fn(&T, &T) -> T) -> T {
    let mut result = one;
    for i in (0..exp.bit_len()).rev() {
        result = mul(&result, &result);
        if exp.bit(i) {
            result = mul(&result, &base);
        }
    }
    result
}

/// `base^exp` by fixed `window`-bit digits under `mul`, with `one` its
/// identity: the [`ModularReducer::pow_mod_window`] loop.
///
/// # Panics
///
/// Panics if `window` is 0 or greater than 16.
pub(crate) fn fixed_window(
    one: Uint,
    base: Uint,
    exp: &Uint,
    window: u32,
    mul: impl Fn(&Uint, &Uint) -> Uint,
) -> Uint {
    assert!((1..=16).contains(&window), "window must be in 1..=16");
    if exp.is_zero() {
        return one;
    }
    // Precompute base^0 … base^(2^w − 1).
    let table_len = 1usize << window;
    let mut table = Vec::with_capacity(table_len);
    table.push(one.clone());
    for i in 1..table_len {
        table.push(mul(&table[i - 1], &base));
    }
    // Consume the exponent in w-bit digits, MSB first.
    let bits = exp.bit_len();
    let digits = bits.div_ceil(window as usize);
    let mut result = one;
    for d in (0..digits).rev() {
        for _ in 0..window {
            result = mul(&result, &result);
        }
        let mut digit = 0usize;
        for b in 0..window as usize {
            let idx = d * window as usize + b;
            if idx < bits && exp.bit(idx) {
                digit |= 1 << b;
            }
        }
        if digit != 0 {
            result = mul(&result, &table[digit]);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrett::BarrettContext;
    use crate::montgomery::MontgomeryContext;

    #[test]
    fn cim_cost_composition() {
        let c = CimCost::compose(384, 3, 2);
        assert_eq!(c.n, 384);
        assert_eq!(c.multiplications, 3);
        let d = DesignPoint::new(384);
        assert!(c.cycles > 3 * d.latency());
    }

    #[test]
    fn pow_mod_small_fermat() {
        // 2^(p-1) ≡ 1 mod p for prime p = 101.
        let p = Uint::from_u64(101);
        let ctx = BarrettContext::new(p.clone()).unwrap();
        let r = ctx.pow_mod(&Uint::from_u64(2), &Uint::from_u64(100));
        assert_eq!(r, Uint::one());
    }

    #[test]
    fn windowed_exponentiation_matches_binary() {
        let p = crate::fields::goldilocks();
        let ctx = BarrettContext::new(p.clone()).unwrap();
        let base = Uint::from_u64(0xDEAD_BEEF_1337);
        for exp in [0u64, 1, 2, 65537, 0xFFFF_FFFF_FFFF] {
            let e = Uint::from_u64(exp);
            let plain = ctx.pow_mod(&base, &e);
            for w in [1u32, 2, 4, 5, 8] {
                assert_eq!(ctx.pow_mod_window(&base, &e, w), plain, "exp {exp} w {w}");
            }
        }
    }

    #[test]
    fn window_reduces_multiplication_count() {
        let ctx = BarrettContext::new(crate::fields::bls12_381_base()).unwrap();
        let binary = ctx.pow_window_cost(256, 1);
        let windowed = ctx.pow_window_cost(256, 4);
        assert!(
            windowed.cycles < binary.cycles,
            "4-bit windows must beat binary: {} vs {}",
            windowed.cycles,
            binary.cycles
        );
    }

    #[test]
    #[should_panic(expected = "window must be")]
    fn rejects_zero_window() {
        let ctx = BarrettContext::new(Uint::from_u64(97)).unwrap();
        let _ = ctx.pow_mod_window(&Uint::from_u64(3), &Uint::from_u64(5), 0);
    }

    #[test]
    fn montgomery_window_matches_barrett() {
        for p in [crate::fields::bn254_base(), crate::fields::goldilocks()] {
            let barrett = BarrettContext::new(p.clone()).unwrap();
            let mont = MontgomeryContext::new(p.clone()).unwrap();
            let base = Uint::from_u64(0xDEAD_BEEF_1337);
            for exp in [0u64, 1, 2, 65537, u64::MAX] {
                let e = Uint::from_u64(exp);
                let plain = barrett.pow_mod(&base, &e);
                for w in [1u32, 3, 4, 8] {
                    assert_eq!(mont.pow_mod_window(&base, &e, w), plain, "exp {exp} w {w}");
                }
            }
        }
    }

    #[test]
    fn pow_mod_matches_across_methods() {
        let p = Uint::from_decimal("340282366920938463463374607431768211297").unwrap(); // 2^128-159 (prime)
        let barrett = BarrettContext::new(p.clone()).unwrap();
        let mont = MontgomeryContext::new(p.clone()).unwrap();
        let base = Uint::from_u64(0xDEADBEEF);
        let exp = Uint::from_u64(65537);
        assert_eq!(barrett.pow_mod(&base, &exp), mont.pow_mod(&base, &exp));
    }
}
