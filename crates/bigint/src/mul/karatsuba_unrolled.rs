//! Unrolled Karatsuba multiplication (paper Sec. III-C2, Fig. 3).
//!
//! Instead of recursing, the operand is decomposed into `2^L` chunks up
//! front and **all** precomputation additions of all levels are merged
//! into a single stage. The key trick that makes this work is a
//! *redundant chunk representation*: the level-1 middle operand
//! `a_m = a_h + a_l` is never carry-propagated into a dense integer —
//! its chunks are the element-wise sums of the low- and high-half
//! chunks (e.g. `a_m = [a_0+a_2, a_1+a_3]` for L = 2), each up to
//! `L − 1` bits wider than a base chunk. This is exactly why the paper's
//! precomputation stage only needs additions between `n/2^L` and
//! `n/2^L + L − 1` bits wide, and why the hardware can reuse one
//! fixed-width Kogge-Stone adder array for all of them.
//!
//! The three phases mirror the paper's three pipeline stages:
//!
//! 1. **precomputation** ([`decompose`]) — chunk additions only;
//! 2. **multiplication** — `3^L` independent small products;
//! 3. **postcomputation** ([`recombine`]) — Karatsuba recombination
//!    `c = (c_h‖c_l) + (c_m − c_h − c_l)·2^(w/2)` applied level by level.

use super::schoolbook;
use crate::uint::Uint;

/// One multiplication operand in redundant chunk form.
///
/// The represented value is `Σ chunks[i] · 2^(i·chunk_bits)`; individual
/// chunks may be wider than `chunk_bits` (carry-save redundancy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkOperand {
    /// Chunks, least significant first. Length is a power of two.
    pub chunks: Vec<Uint>,
    /// Nominal chunk width in bits (the positional weight step).
    pub chunk_bits: usize,
}

impl ChunkOperand {
    /// Decomposes a dense integer into `2^depth` chunks.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not fit into `2^depth · chunk_bits` bits.
    pub fn from_uint(x: &Uint, depth: u32, chunk_bits: usize) -> Self {
        let count = 1usize << depth;
        ChunkOperand {
            chunks: x.split_chunks(chunk_bits, count),
            chunk_bits,
        }
    }

    /// The dense integer value represented by this operand.
    pub fn value(&self) -> Uint {
        Uint::join_chunks(&self.chunks, self.chunk_bits)
    }
}

/// The full precomputation result for one operand: the `3^depth` leaf
/// operands that feed the multiplication stage, in the canonical
/// (low-subtree, high-subtree, mid-subtree) depth-first order used
/// throughout this repository, plus the number of chunk additions
/// performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// The `3^depth` multiplication operands (single chunks).
    pub leaves: Vec<Uint>,
    /// Chunk additions performed (the paper's precomputation adds:
    /// 5 per operand at L = 2, 19 at L = 3).
    pub additions: usize,
}

/// Runs the merged precomputation stage on one operand.
///
/// ```
/// use cim_bigint::mul::karatsuba_unrolled::{decompose, ChunkOperand};
/// use cim_bigint::Uint;
///
/// let a = Uint::from_u64(0xAABB_CCDD);
/// let d = decompose(&ChunkOperand::from_uint(&a, 2, 8));
/// assert_eq!(d.leaves.len(), 9);
/// assert_eq!(d.additions, 5); // paper: 10 additions for both operands
/// ```
pub fn decompose(operand: &ChunkOperand) -> Decomposition {
    let mut leaves = Vec::new();
    let mut additions = 0usize;
    decompose_rec(&operand.chunks, &mut leaves, &mut additions);
    Decomposition { leaves, additions }
}

fn decompose_rec(chunks: &[Uint], leaves: &mut Vec<Uint>, additions: &mut usize) {
    if chunks.len() == 1 {
        leaves.push(chunks[0].clone());
        return;
    }
    debug_assert!(chunks.len().is_power_of_two());
    let half = chunks.len() / 2;
    let low = &chunks[..half];
    let high = &chunks[half..];
    // Element-wise chunk additions form the middle operand without
    // carry propagation across chunk boundaries.
    let mid: Vec<Uint> = low.iter().zip(high).map(|(l, h)| l.add(h)).collect();
    *additions += half;
    decompose_rec(low, leaves, additions);
    decompose_rec(high, leaves, additions);
    decompose_rec(&mid, leaves, additions);
}

/// Result of [`recombine`]: the product plus postcomputation statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recombination {
    /// The final product.
    pub product: Uint,
    /// Additions performed during recombination.
    pub additions: usize,
    /// Subtractions performed during recombination.
    pub subtractions: usize,
}

/// Runs the postcomputation stage: combines the `3^depth` partial
/// products (in [`decompose`]'s leaf order) into the final product.
///
/// `chunk_bits` must match the value used for decomposition.
///
/// # Panics
///
/// Panics if `products.len()` is not a power of three.
pub fn recombine(products: &[Uint], chunk_bits: usize) -> Recombination {
    let mut depth = 0u32;
    while 3usize.pow(depth) < products.len() {
        depth += 1;
    }
    assert_eq!(
        3usize.pow(depth),
        products.len(),
        "product count {} is not a power of three",
        products.len()
    );
    let mut adds = 0;
    let mut subs = 0;
    let product = recombine_rec(products, depth, chunk_bits, &mut adds, &mut subs);
    Recombination {
        product,
        additions: adds,
        subtractions: subs,
    }
}

fn recombine_rec(
    products: &[Uint],
    depth: u32,
    chunk_bits: usize,
    adds: &mut usize,
    subs: &mut usize,
) -> Uint {
    if depth == 0 {
        return products[0].clone();
    }
    let third = products.len() / 3;
    let half_bits = chunk_bits << (depth - 1);
    let c_l = recombine_rec(&products[..third], depth - 1, chunk_bits, adds, subs);
    let c_h = recombine_rec(
        &products[third..2 * third],
        depth - 1,
        chunk_bits,
        adds,
        subs,
    );
    let c_m = recombine_rec(&products[2 * third..], depth - 1, chunk_bits, adds, subs);
    // c = c_l + (c_m − c_h − c_l)·2^half + c_h·2^(2·half)
    let mid = c_m.sub(&c_h).sub(&c_l);
    *subs += 2;
    *adds += 2;
    c_l.add(&mid.shl(half_bits)).add(&c_h.shl(2 * half_bits))
}

/// Multiplies two integers with depth-`L` unrolled Karatsuba.
///
/// `depth = 0` degenerates to schoolbook. Chunk width is
/// `⌈max(bitlen)/2^L⌉` as in the hardware (operand width `n` split into
/// `2^L` chunks).
///
/// ```
/// use cim_bigint::{mul::karatsuba_unrolled, Uint};
/// let a = Uint::pow2(255).sub(&Uint::one());
/// let b = Uint::pow2(254).add(&Uint::from_u64(99));
/// let expect = cim_bigint::mul::schoolbook::mul(&a, &b);
/// assert_eq!(karatsuba_unrolled::mul(&a, &b, 2), expect);
/// ```
pub fn mul(a: &Uint, b: &Uint, depth: u32) -> Uint {
    if a.is_zero() || b.is_zero() {
        return Uint::zero();
    }
    if depth == 0 {
        return schoolbook::mul(a, b);
    }
    let n = a.bit_len().max(b.bit_len());
    let chunk_bits = n.div_ceil(1usize << depth).max(1);
    let da = decompose(&ChunkOperand::from_uint(a, depth, chunk_bits));
    let db = decompose(&ChunkOperand::from_uint(b, depth, chunk_bits));
    let products: Vec<Uint> = da
        .leaves
        .iter()
        .zip(&db.leaves)
        .map(|(x, y)| schoolbook::mul(x, y))
        .collect();
    recombine(&products, chunk_bits).product
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::UintRng;

    #[test]
    fn chunk_operand_roundtrip() {
        let x = Uint::from_hex("0123456789abcdef0123456789abcdef").unwrap();
        let op = ChunkOperand::from_uint(&x, 2, 32);
        assert_eq!(op.chunks.len(), 4);
        assert_eq!(op.value(), x);
    }

    #[test]
    fn decompose_leaf_count_is_3_pow_l() {
        let x = Uint::pow2(255).sub(&Uint::one());
        for depth in 1..=4u32 {
            let op = ChunkOperand::from_uint(&x, depth, 256 >> depth);
            let d = decompose(&op);
            assert_eq!(d.leaves.len(), 3usize.pow(depth));
        }
    }

    #[test]
    fn paper_addition_counts_per_operand() {
        // Paper Sec. III-C2: 10, 38 additions TOTAL (both operands) for
        // L = 2, 3 → 5, 19 per operand.
        let x = Uint::pow2(255).sub(&Uint::one());
        for (depth, expect) in [(1u32, 1usize), (2, 5), (3, 19)] {
            let op = ChunkOperand::from_uint(&x, depth, 256 >> depth);
            assert_eq!(decompose(&op).additions, expect, "depth {depth}");
        }
    }

    #[test]
    fn mid_chunks_gain_at_most_depth_minus_one_bits() {
        // Paper: precomputation operands lie between n/2^L and
        // n/2^L + L − 1 bits; multiplication operands gain one more bit.
        let mut rng = UintRng::seeded(11);
        for depth in [2u32, 3] {
            let n = 256usize;
            let chunk = n >> depth;
            let x = rng.uniform(n);
            let d = decompose(&ChunkOperand::from_uint(&x, depth, chunk));
            let max_leaf = d.leaves.iter().map(Uint::bit_len).max().unwrap();
            assert!(
                max_leaf <= chunk + depth as usize,
                "depth {depth}: leaf of {max_leaf} bits exceeds {} bits",
                chunk + depth as usize
            );
        }
    }

    #[test]
    fn matches_schoolbook_for_depths_1_to_4() {
        let mut rng = UintRng::seeded(5);
        for bits in [64usize, 128, 256, 384, 777] {
            let a = rng.uniform(bits);
            let b = rng.uniform(bits);
            let expect = schoolbook::mul(&a, &b);
            for depth in 1..=4 {
                assert_eq!(mul(&a, &b, depth), expect, "{bits} bits depth {depth}");
            }
        }
    }

    #[test]
    fn recombine_rejects_non_power_of_three() {
        let products = vec![Uint::one(); 5];
        let result = std::panic::catch_unwind(|| recombine(&products, 8));
        assert!(result.is_err());
    }

    #[test]
    fn postcomputation_op_counts() {
        // Each of the (3^L − 1)/2 internal nodes costs 2 subs + 2 adds.
        let x = Uint::pow2(127).sub(&Uint::one());
        let op = ChunkOperand::from_uint(&x, 2, 32);
        let d = decompose(&op);
        let products: Vec<Uint> = d.leaves.iter().map(|l| schoolbook::mul(l, l)).collect();
        let r = recombine(&products, 32);
        assert_eq!(r.additions, 8); // 4 internal nodes × 2
        assert_eq!(r.subtractions, 8);
        assert_eq!(r.product, schoolbook::mul(&x, &x));
    }

    #[test]
    fn depth_zero_is_schoolbook() {
        let a = Uint::from_u64(123);
        let b = Uint::from_u64(456);
        assert_eq!(mul(&a, &b, 0), Uint::from_u64(123 * 456));
    }

    #[test]
    fn tiny_operands() {
        assert_eq!(
            mul(&Uint::from_u64(3), &Uint::from_u64(5), 2),
            Uint::from_u64(15)
        );
        assert_eq!(mul(&Uint::one(), &Uint::one(), 3), Uint::one());
    }
}
