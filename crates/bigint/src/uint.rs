//! The [`Uint`] type: representation, normalization and structural
//! queries (bit length, bit access, chunk splitting).

use crate::{Limb, LIMB_BITS};

/// An arbitrary-precision unsigned integer.
///
/// Internally a little-endian vector of [`Limb`]s (base 2^64 digits)
/// with the invariant that the most significant limb is non-zero;
/// zero is represented by an empty vector.
///
/// `Uint` implements the usual arithmetic operators (by reference and
/// by value), comparison, hashing and hex/decimal formatting.
///
/// # Example
///
/// ```
/// use cim_bigint::Uint;
///
/// let a = Uint::from_u64(7);
/// let b = Uint::from_u64(6);
/// assert_eq!(&a * &b, Uint::from_u64(42));
/// assert!(a > b);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Uint {
    pub(crate) limbs: Vec<Limb>,
}

impl Uint {
    /// The value 0.
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// assert!(Uint::zero().is_zero());
    /// ```
    pub fn zero() -> Self {
        Uint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Uint { limbs: vec![1] }
    }

    /// Creates a `Uint` from a single `u64`.
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// assert_eq!(Uint::from_u64(0), Uint::zero());
    /// ```
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Uint { limbs: vec![v] }
        }
    }

    /// Creates a `Uint` from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut u = Uint {
            limbs: vec![lo, hi],
        };
        u.normalize();
        u
    }

    /// Creates a `Uint` from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(limbs: Vec<Limb>) -> Self {
        let mut u = Uint { limbs };
        u.normalize();
        u
    }

    /// `2^k`.
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// assert_eq!(Uint::pow2(10), Uint::from_u64(1024));
    /// ```
    pub fn pow2(k: usize) -> Self {
        let mut limbs = vec![0; k / LIMB_BITS + 1];
        limbs[k / LIMB_BITS] = 1 << (k % LIMB_BITS);
        Uint { limbs }
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Borrowed view of the little-endian limbs. Empty slice means zero.
    pub fn limbs(&self) -> &[Limb] {
        &self.limbs
    }

    /// Number of significant bits; 0 for the value zero.
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// assert_eq!(Uint::from_u64(255).bit_len(), 8);
    /// assert_eq!(Uint::zero().bit_len(), 0);
    /// ```
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * LIMB_BITS - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (little-endian, bit 0 is the LSB).
    ///
    /// Bits beyond [`Uint::bit_len`] read as `false`.
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / LIMB_BITS;
        match self.limbs.get(limb) {
            None => false,
            Some(&l) => (l >> (i % LIMB_BITS)) & 1 == 1,
        }
    }

    /// The low `k` bits as a new `Uint` (i.e. `self mod 2^k`).
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// assert_eq!(Uint::from_u64(0b1011_0110).low_bits(4), Uint::from_u64(0b0110));
    /// ```
    pub fn low_bits(&self, k: usize) -> Uint {
        let full = k / LIMB_BITS;
        let rem = k % LIMB_BITS;
        if full >= self.limbs.len() {
            return self.clone();
        }
        let mut limbs: Vec<Limb> = self.limbs[..full].to_vec();
        if rem > 0 {
            limbs.push(self.limbs[full] & ((1u64 << rem) - 1));
        }
        Uint::from_limbs(limbs)
    }

    /// Splits the integer into `count` chunks of `chunk_bits` bits each,
    /// least-significant chunk first, zero-padding at the top.
    ///
    /// This is the operand decomposition used by (unrolled) Karatsuba
    /// (paper Fig. 3): a 256-bit operand at depth L=2 splits into four
    /// 64-bit chunks.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `count * chunk_bits` bits.
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// let x = Uint::from_u64(0xAABB_CCDD);
    /// let chunks = x.split_chunks(8, 4);
    /// assert_eq!(chunks[0], Uint::from_u64(0xDD));
    /// assert_eq!(chunks[3], Uint::from_u64(0xAA));
    /// ```
    pub fn split_chunks(&self, chunk_bits: usize, count: usize) -> Vec<Uint> {
        assert!(
            self.bit_len() <= chunk_bits * count,
            "value of {} bits does not fit in {} chunks of {} bits",
            self.bit_len(),
            count,
            chunk_bits
        );
        (0..count)
            .map(|i| (self >> (i * chunk_bits)).low_bits(chunk_bits))
            .collect()
    }

    /// Reassembles chunks produced by [`Uint::split_chunks`]:
    /// `sum_i chunks[i] << (i * chunk_bits)`.
    ///
    /// Unlike splitting, chunks may be wider than `chunk_bits`
    /// (partial products overlap); overlaps are added, not or-ed.
    pub fn join_chunks(chunks: &[Uint], chunk_bits: usize) -> Uint {
        let mut acc = Uint::zero();
        for (i, c) in chunks.iter().enumerate() {
            acc = &acc + &(c << (i * chunk_bits));
        }
        acc
    }

    /// Removes high-order zero limbs to restore the representation invariant.
    pub(crate) fn normalize(&mut self) {
        while let Some(&0) = self.limbs.last() {
            self.limbs.pop();
        }
    }

    /// The bits of the value, LSB first, padded with `false` to `width`.
    ///
    /// Used to load operands into simulated crossbar rows.
    ///
    /// # Panics
    ///
    /// Panics if the value needs more than `width` bits.
    pub fn to_bits(&self, width: usize) -> Vec<bool> {
        assert!(
            self.bit_len() <= width,
            "value of {} bits does not fit in width {}",
            self.bit_len(),
            width
        );
        let mut bits = Vec::with_capacity(width);
        for k in 0..width.div_ceil(LIMB_BITS) {
            let limb = self.limbs.get(k).copied().unwrap_or(0);
            let take = (width - k * LIMB_BITS).min(LIMB_BITS);
            bits.extend((0..take).map(|b| (limb >> b) & 1 == 1));
        }
        bits
    }

    /// Builds a `Uint` from bits, LSB first.
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// assert_eq!(Uint::from_bits(&[false, true, true]), Uint::from_u64(6));
    /// ```
    pub fn from_bits(bits: &[bool]) -> Uint {
        Uint::from_limbs(
            bits.chunks(LIMB_BITS)
                .map(|chunk| chunk.iter().rev().fold(0, |acc, &b| (acc << 1) | b as Limb))
                .collect(),
        )
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_empty_and_default() {
        assert!(Uint::zero().limbs().is_empty());
        assert_eq!(Uint::default(), Uint::zero());
        assert_eq!(Uint::from_u64(0), Uint::zero());
    }

    #[test]
    fn from_u128_roundtrip() {
        let v = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210u128;
        assert_eq!(Uint::from_u128(v).to_u128(), Some(v));
    }

    #[test]
    fn bit_len_edges() {
        assert_eq!(Uint::zero().bit_len(), 0);
        assert_eq!(Uint::one().bit_len(), 1);
        assert_eq!(Uint::pow2(64).bit_len(), 65);
        assert_eq!(Uint::pow2(127).bit_len(), 128);
    }

    #[test]
    fn bit_access() {
        let x = Uint::from_u64(0b1010);
        assert!(!x.bit(0));
        assert!(x.bit(1));
        assert!(!x.bit(2));
        assert!(x.bit(3));
        assert!(!x.bit(999));
    }

    #[test]
    fn low_bits_truncates() {
        let x = Uint::from_u128(u128::MAX);
        assert_eq!(x.low_bits(64), Uint::from_u64(u64::MAX));
        assert_eq!(x.low_bits(1), Uint::one());
        assert_eq!(x.low_bits(200), x);
        assert_eq!(x.low_bits(0), Uint::zero());
    }

    #[test]
    fn split_and_join_roundtrip() {
        let x = Uint::from_u128(0x1122_3344_5566_7788_99AA_BBCC_DDEE_FF00);
        let chunks = x.split_chunks(32, 4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(Uint::join_chunks(&chunks, 32), x);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn split_chunks_overflow_panics() {
        Uint::from_u64(u64::MAX).split_chunks(8, 4);
    }

    #[test]
    fn join_handles_overlapping_chunks() {
        // 0xFF << 0 + 0xFF << 4 = 0x10EF
        let chunks = vec![Uint::from_u64(0xFF), Uint::from_u64(0xFF)];
        assert_eq!(
            Uint::join_chunks(&chunks, 4),
            Uint::from_u64(0xFF + (0xFF << 4))
        );
    }

    #[test]
    fn bits_roundtrip() {
        let x = Uint::from_u64(0xDEAD_BEEF);
        let bits = x.to_bits(48);
        assert_eq!(bits.len(), 48);
        assert_eq!(Uint::from_bits(&bits), x);
        // Limb edges, and the 3073-bit postcompute adder row: all-ones
        // and a patterned value per width, each bit checked in place.
        for width in [0, 1, 63, 64, 65, 3073] {
            let ones = Uint::pow2(width).sub(&Uint::one());
            let pattern = Uint::from_limbs(
                (0..width.div_ceil(LIMB_BITS))
                    .map(|k| 0x9E37_79B9_7F4A_7C15u64.rotate_left(k as u32))
                    .collect(),
            )
            .low_bits(width);
            for v in [Uint::zero(), ones, pattern] {
                let bits = v.to_bits(width);
                assert_eq!(bits.len(), width);
                assert!(
                    bits.iter().enumerate().all(|(i, &b)| b == v.bit(i)),
                    "width {width}"
                );
                assert_eq!(Uint::from_bits(&bits), v, "width {width}");
            }
        }
        assert_eq!(
            Uint::from_bits(&[false; 130]),
            Uint::zero(),
            "normalizes high zeros"
        );
    }

    #[test]
    #[should_panic(expected = "value of 65 bits does not fit in width 64")]
    fn to_bits_rejects_values_wider_than_width() {
        Uint::pow2(64).to_bits(64);
    }

    #[test]
    fn pow2_values() {
        assert_eq!(Uint::pow2(0), Uint::one());
        assert_eq!(Uint::pow2(63).to_u64(), Some(1 << 63));
        assert_eq!(Uint::pow2(64).to_u128(), Some(1u128 << 64));
    }
}
