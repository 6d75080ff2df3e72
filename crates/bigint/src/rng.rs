//! Deterministic random operand generation.
//!
//! The paper evaluates on operand widths relevant to ZKP and FHE (64 to
//! 384 bits). This module provides a seeded generator so every
//! experiment in the repository is reproducible bit-for-bit.

use crate::uint::Uint;
use crate::LIMB_BITS;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Seeded generator of random [`Uint`] operands.
///
/// ```
/// use cim_bigint::rng::UintRng;
///
/// let mut a = UintRng::seeded(1);
/// let mut b = UintRng::seeded(1);
/// assert_eq!(a.uniform(256), b.uniform(256)); // deterministic
/// ```
#[derive(Debug)]
pub struct UintRng {
    rng: StdRng,
}

impl UintRng {
    /// Creates a generator with a fixed seed (reproducible).
    pub fn seeded(seed: u64) -> Self {
        UintRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A uniformly random integer in `[0, 2^bits)`.
    pub fn uniform(&mut self, bits: usize) -> Uint {
        if bits == 0 {
            return Uint::zero();
        }
        let limbs = bits.div_ceil(LIMB_BITS);
        let mut v: Vec<u64> = (0..limbs).map(|_| self.rng.next_u64()).collect();
        let top_bits = bits % LIMB_BITS;
        if top_bits != 0 {
            let last = v.last_mut().expect("at least one limb");
            *last &= (1u64 << top_bits) - 1;
        }
        Uint::from_limbs(v)
    }

    /// A random integer of *exactly* `bits` bits (MSB forced to 1).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn exact_bits(&mut self, bits: usize) -> Uint {
        assert!(bits > 0, "cannot generate a 0-bit non-zero integer");
        let u = self.uniform(bits);
        u.low_bits(bits.saturating_sub(1))
            .add(&Uint::pow2(bits - 1))
    }

    /// A random integer below `bound` (rejection sampling).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: &Uint) -> Uint {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bit_len();
        loop {
            let candidate = self.uniform(bits);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// A random `u64` (for auxiliary choices in tests and workloads).
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A random `usize` in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_range(lo..hi)
    }
}

/// Cryptographically shaped corner-case operands for a given width:
/// zero, one, all-ones, MSB-only, alternating bits. Used across the
/// test suites to stress carry chains and endurance paths.
pub fn corner_cases(bits: usize) -> Vec<Uint> {
    let all_ones = Uint::pow2(bits).sub(&Uint::one());
    let alternating = {
        let mut v = Uint::zero();
        let mut i = 0;
        while i < bits {
            v = v.add(&Uint::pow2(i));
            i += 2;
        }
        v
    };
    vec![
        Uint::zero(),
        Uint::one(),
        all_ones,
        Uint::pow2(bits - 1),
        alternating,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_width() {
        let mut rng = UintRng::seeded(2);
        for bits in [1usize, 63, 64, 65, 384] {
            for _ in 0..20 {
                assert!(rng.uniform(bits).bit_len() <= bits);
            }
        }
    }

    #[test]
    fn exact_bits_sets_msb() {
        let mut rng = UintRng::seeded(3);
        for bits in [1usize, 8, 64, 384] {
            for _ in 0..10 {
                assert_eq!(rng.exact_bits(bits).bit_len(), bits);
            }
        }
    }

    #[test]
    fn below_is_below() {
        let mut rng = UintRng::seeded(4);
        let bound = Uint::from_u64(1000);
        for _ in 0..100 {
            assert!(rng.below(&bound) < bound);
        }
    }

    #[test]
    fn determinism() {
        let mut a = UintRng::seeded(77);
        let mut b = UintRng::seeded(77);
        for _ in 0..5 {
            assert_eq!(a.uniform(200), b.uniform(200));
        }
    }

    #[test]
    fn corner_cases_have_expected_shapes() {
        let cases = corner_cases(8);
        assert_eq!(cases.len(), 5);
        assert_eq!(cases[2], Uint::from_u64(255));
        assert_eq!(cases[3], Uint::from_u64(128));
        assert_eq!(cases[4], Uint::from_u64(0b0101_0101));
    }
}
