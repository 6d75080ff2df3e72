//! Greatest common divisor and modular inverse (extended Euclid).
//!
//! Needed by the cryptographic layer for Montgomery constant
//! validation and as an alternative to Fermat inversion for non-prime
//! moduli.

use crate::int::Int;
use crate::uint::Uint;

impl Uint {
    /// Greatest common divisor (Euclid).
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// assert_eq!(Uint::from_u64(48).gcd(&Uint::from_u64(36)), Uint::from_u64(12));
    /// assert_eq!(Uint::from_u64(7).gcd(&Uint::zero()), Uint::from_u64(7));
    /// ```
    pub fn gcd(&self, other: &Uint) -> Uint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: `self⁻¹ mod m`, or `None` if
    /// `gcd(self, m) ≠ 1`.
    ///
    /// Uses the extended Euclidean algorithm, so it works for any
    /// modulus (Fermat inversion requires a prime).
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// let inv = Uint::from_u64(3).mod_inverse(&Uint::from_u64(10)).expect("coprime");
    /// assert_eq!(inv, Uint::from_u64(7)); // 3·7 = 21 ≡ 1 (mod 10)
    /// assert!(Uint::from_u64(4).mod_inverse(&Uint::from_u64(10)).is_none());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or one.
    pub fn mod_inverse(&self, m: &Uint) -> Option<Uint> {
        assert!(*m > Uint::one(), "modulus must be at least 2");
        let a = self.rem(m);
        if a.is_zero() {
            return None;
        }
        // Extended Euclid on (m, a): track x with a·x ≡ r (mod m).
        let mut r0 = Int::from(m);
        let mut r1 = Int::from(&a);
        let mut t0 = Int::zero();
        let mut t1 = Int::from(Uint::one());
        while !r1.is_zero() {
            let q = r0.magnitude().div_floor(r1.magnitude());
            let q = Int::from(q);
            let r2 = r0.sub(&q.mul(&r1));
            let t2 = t0.sub(&q.mul(&t1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0.magnitude() != &Uint::one() {
            return None; // not coprime
        }
        // Normalize t0 into [0, m).
        let inv = if t0.is_negative() {
            m.sub(&t0.magnitude().rem(m))
        } else {
            t0.magnitude().rem(m)
        };
        Some(inv.rem(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::UintRng;

    #[test]
    fn gcd_basics() {
        assert_eq!(Uint::from_u64(0).gcd(&Uint::from_u64(0)), Uint::zero());
        assert_eq!(Uint::from_u64(17).gcd(&Uint::from_u64(13)), Uint::one());
        assert_eq!(
            Uint::from_u64(2 * 3 * 5 * 7).gcd(&Uint::from_u64(3 * 7 * 11)),
            Uint::from_u64(21)
        );
    }

    #[test]
    fn gcd_is_commutative_and_divides() {
        let mut rng = UintRng::seeded(19);
        for _ in 0..20 {
            let a = rng.uniform(96);
            let b = rng.uniform(96);
            let g = a.gcd(&b);
            assert_eq!(g, b.gcd(&a));
            if !g.is_zero() {
                assert!(a.rem(&g).is_zero());
                assert!(b.rem(&g).is_zero());
            }
        }
    }

    #[test]
    fn mod_inverse_verifies() {
        let mut rng = UintRng::seeded(20);
        let m = Uint::from_decimal("1000000007").unwrap(); // prime
        for _ in 0..20 {
            let a = rng.below(&m);
            if a.is_zero() {
                continue;
            }
            let inv = a.mod_inverse(&m).expect("prime modulus");
            assert_eq!((&a * &inv).rem(&m), Uint::one());
        }
    }

    #[test]
    fn mod_inverse_large_crypto_modulus() {
        let m = Uint::from_hex("73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001")
            .unwrap(); // BLS12-381 scalar field
        let a = Uint::from_u64(0xDEAD_BEEF_1234_5678);
        let inv = a.mod_inverse(&m).expect("prime");
        assert_eq!((&a * &inv).rem(&m), Uint::one());
    }

    #[test]
    fn non_coprime_has_no_inverse() {
        assert!(Uint::from_u64(6).mod_inverse(&Uint::from_u64(9)).is_none());
        assert!(Uint::zero().mod_inverse(&Uint::from_u64(9)).is_none());
    }

    #[test]
    fn inverse_agrees_with_hensel_lifting() {
        // mod_inverse must agree with the Newton inverse used by the
        // Montgomery context for power-of-two moduli.
        let m = Uint::pow2(64);
        let a = Uint::from_u64(0x1234_5679); // odd
        let inv = a.mod_inverse(&m).expect("odd vs 2^k");
        assert_eq!((&a * &inv).low_bits(64), Uint::one());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_tiny_modulus() {
        let _ = Uint::from_u64(3).mod_inverse(&Uint::one());
    }
}
