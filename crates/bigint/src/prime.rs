//! Primality testing (Miller–Rabin) and modular exponentiation.
//!
//! Tests use the primality test to validate the cryptographic constants.

use crate::rng::UintRng;
use crate::uint::Uint;

impl Uint {
    /// `self^exp mod m` by square-and-multiply.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn pow_mod(&self, exp: &Uint, m: &Uint) -> Uint {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m.is_one() {
            return Uint::zero();
        }
        let mut result = Uint::one();
        let mut base = self.rem(m);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = (&result * &base).rem(m);
            }
            if i + 1 < exp.bit_len() {
                base = (&base * &base).rem(m);
            }
        }
        result
    }

    /// Miller–Rabin probable-prime test.
    ///
    /// For values below 2^64 the test uses the deterministic base set
    /// {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} (proven complete);
    /// above that, `rounds` random bases drawn from a fixed seed, so
    /// results are reproducible. Composites are rejected with
    /// probability ≥ 1 − 4^(−rounds).
    pub fn is_probable_prime(&self, rounds: u32) -> bool {
        // Small cases and trial division by the first primes.
        const SMALL: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        if self < &Uint::from_u64(2) {
            return false;
        }
        for &p in &SMALL {
            let pu = Uint::from_u64(p);
            if self == &pu {
                return true;
            }
            if self.rem(&pu).is_zero() {
                return false;
            }
        }
        // self − 1 = d · 2^s with d odd.
        let n_minus_1 = self.sub(&Uint::one());
        let mut d = n_minus_1.clone();
        let mut s = 0u32;
        while !d.bit(0) {
            d = d.shr(1);
            s += 1;
        }

        let witness = |a: &Uint| -> bool {
            // true = composite witness found
            let mut x = a.pow_mod(&d, self);
            if x.is_one() || x == n_minus_1 {
                return false;
            }
            for _ in 1..s {
                x = (&x * &x).rem(self);
                if x == n_minus_1 {
                    return false;
                }
            }
            true
        };

        if self.bit_len() <= 64 {
            return SMALL
                .iter()
                .all(|&a| !witness(&Uint::from_u64(a)));
        }
        let mut rng = UintRng::seeded(0x4D52_5052_494D_4553); // reproducible
        for _ in 0..rounds {
            let a = rng
                .below(&self.sub(&Uint::from_u64(3)))
                .add(&Uint::from_u64(2)); // a ∈ [2, n−2]
            if witness(&a) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow_mod_basics() {
        let m = Uint::from_u64(1000);
        assert_eq!(
            Uint::from_u64(2).pow_mod(&Uint::from_u64(10), &m),
            Uint::from_u64(24)
        );
        assert_eq!(Uint::from_u64(5).pow_mod(&Uint::zero(), &m), Uint::one());
        assert_eq!(Uint::from_u64(5).pow_mod(&Uint::one(), &Uint::one()), Uint::zero());
    }

    #[test]
    fn small_primes_and_composites() {
        let primes = [2u64, 3, 5, 7, 97, 101, 65537, 1_000_000_007];
        for p in primes {
            assert!(Uint::from_u64(p).is_probable_prime(16), "{p}");
        }
        let composites = [0u64, 1, 4, 100, 561, 1105, 65535, 1_000_000_006];
        for c in composites {
            assert!(!Uint::from_u64(c).is_probable_prime(16), "{c}");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Strong pseudoprime traps for weak tests.
        for c in [561u64, 41041, 825265, 321197185] {
            assert!(!Uint::from_u64(c).is_probable_prime(16), "{c}");
        }
    }

    #[test]
    fn known_crypto_primes() {
        assert!(Uint::from_u64(0xFFFF_FFFF_0000_0001).is_probable_prime(16)); // Goldilocks
        let p25519 = Uint::pow2(255).sub(&Uint::from_u64(19));
        assert!(p25519.is_probable_prime(16));
        let mersenne_127 = Uint::pow2(127).sub(&Uint::one());
        assert!(mersenne_127.is_probable_prime(16));
        // 2^128 − 1 is famously composite.
        assert!(!Uint::pow2(128).sub(&Uint::one()).is_probable_prime(16));
    }

    #[test]
    fn fermat_number_f5_is_composite() {
        // F5 = 2^32 + 1 = 641 × 6700417 (Euler).
        assert!(!Uint::pow2(32).add(&Uint::one()).is_probable_prime(16));
    }
}
