//! Operand decomposition for the L = 2 unrolled Karatsuba tree
//! (paper Fig. 3) and the canonical naming used by the pipeline
//! stages and Fig. 7.
//!
//! An `n`-bit operand `a` splits into four `n/4`-bit chunks
//! `a_3‖a_2‖a_1‖a_0`. The precomputation stage derives five sums, and
//! the nine multiplication operands (in this repository's canonical
//! *leaf order*) are:
//!
//! | index | operand  | value           | width (bits) |
//! |-------|----------|-----------------|--------------|
//! | 0     | `a_0`    | chunk 0         | n/4          |
//! | 1     | `a_1`    | chunk 1         | n/4          |
//! | 2     | `a_10`   | `a_1 + a_0`     | n/4+1        |
//! | 3     | `a_2`    | chunk 2         | n/4          |
//! | 4     | `a_3`    | chunk 3         | n/4          |
//! | 5     | `a_32`   | `a_3 + a_2`     | n/4+1        |
//! | 6     | `a_20`   | `a_2 + a_0`     | n/4+1        |
//! | 7     | `a_31`   | `a_3 + a_1`     | n/4+1        |
//! | 8     | `a_3210` | `a_20 + a_31`   | n/4+2        |
//!
//! The nine partial products (element-wise `a_i · b_i`) carry the
//! Fig. 7 names `c_ll, c_lh, c_lm, c_hl, c_hh, c_hm, c_ml, c_mh, c_mm`.

use cim_bigint::mul::karatsuba_unrolled::{decompose, recombine, ChunkOperand};
use cim_bigint::Uint;

/// Number of multiplication operands per side at L = 2.
pub const LEAVES: usize = 9;

/// Human-readable names of the nine leaf operands of side `a`
/// (replace `a` by `b` for the other side).
pub const LEAF_NAMES: [&str; LEAVES] = [
    "a_0", "a_1", "a_10", "a_2", "a_3", "a_32", "a_20", "a_31", "a_3210",
];

/// Fig. 7 names of the nine partial products, in leaf order.
pub const PRODUCT_NAMES: [&str; LEAVES] = [
    "c_ll", "c_lh", "c_lm", "c_hl", "c_hh", "c_hm", "c_ml", "c_mh", "c_mm",
];

/// The decomposition of one `n`-bit operand for the L = 2 pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandDecomposition {
    /// The four base chunks `a_0 … a_3` (each `n/4` bits).
    pub chunks: [Uint; 4],
    /// The nine leaf operands in canonical order (see module docs).
    pub leaves: [Uint; LEAVES],
    /// Nominal chunk width in bits (`n/4`).
    pub chunk_bits: usize,
}

/// Decomposes an operand for an `n`-bit multiplication.
///
/// # Panics
///
/// Panics if `n` is not a positive multiple of 4 or the value does not
/// fit in `n` bits.
///
/// ```
/// use cim_bigint::Uint;
/// use karatsuba_cim::chunks::decompose_operand;
///
/// let a = Uint::from_u64(0xAABB_CCDD);
/// let d = decompose_operand(&a, 32);
/// assert_eq!(d.chunks[3], Uint::from_u64(0xAA));
/// assert_eq!(d.leaves[8], // a_3210 = (a_2+a_0) + (a_3+a_1)
///            Uint::from_u64(0xAA + 0xBB + 0xCC + 0xDD));
/// ```
pub fn decompose_operand(a: &Uint, n: usize) -> OperandDecomposition {
    assert!(
        n > 0 && n.is_multiple_of(4),
        "operand width must be a multiple of 4"
    );
    let chunk_bits = n / 4;
    let op = ChunkOperand::from_uint(a, 2, chunk_bits);
    let d = decompose(&op);
    debug_assert_eq!(d.leaves.len(), LEAVES);
    let chunks: [Uint; 4] = [
        op.chunks[0].clone(),
        op.chunks[1].clone(),
        op.chunks[2].clone(),
        op.chunks[3].clone(),
    ];
    let leaves: [Uint; LEAVES] = d.leaves.try_into().expect("nine leaves at depth 2");
    OperandDecomposition {
        chunks,
        leaves,
        chunk_bits,
    }
}

/// Combines the nine partial products (leaf order) into the final
/// `2n`-bit product — the mathematical specification the
/// postcomputation stage implements in-memory.
///
/// # Panics
///
/// Panics if `products` ordering is inconsistent (negative
/// intermediate), which cannot happen for products of a valid
/// decomposition.
pub fn combine_products(products: &[Uint; LEAVES], chunk_bits: usize) -> Uint {
    recombine(products.as_slice(), chunk_bits).product
}

/// The widths (in bits) of the nine leaf operands for an `n`-bit
/// multiplication — the multiplication stage provisions the widest
/// (`n/4 + 2`).
pub fn leaf_widths(n: usize) -> [usize; LEAVES] {
    let q = n / 4;
    [q, q, q + 1, q, q, q + 1, q + 1, q + 1, q + 2]
}

/// Nine rows of a bit-sliced batch in leaf order — the leaf operands
/// or the partial products of up to 64 multiplications — as lane
/// words: bit `l` of `rows[i][j]` is bit `j` of lane `l`'s `i`-th
/// value. The batch stages hand these to each other as they are.
pub type LeafRows = [Vec<u64>; LEAVES];

/// Per-lane leaf sets as [`LeafRows`] of `width` columns each.
///
/// # Panics
///
/// Panics if a value does not fit in `width` bits or more than 64 sets
/// are given.
pub(crate) fn leaf_rows(sets: &[[Uint; LEAVES]], width: usize) -> LeafRows {
    std::array::from_fn(|i| cim_logic::uint_lanes(sets.iter().map(|set| &set[i]), width))
}

/// The leaf sets of the first `lanes` lanes of `rows`, the inverse of
/// [`leaf_rows`].
pub(crate) fn leaf_sets(rows: &LeafRows, lanes: usize) -> Vec<[Uint; LEAVES]> {
    let mut by_row = rows
        .each_ref()
        .map(|row| cim_logic::lane_uints(row, lanes).into_iter());
    (0..lanes)
        .map(|_| {
            by_row
                .each_mut()
                .map(|values| values.next().expect("one value per lane"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::UintRng;

    #[test]
    fn leaves_have_documented_values() {
        let mut rng = UintRng::seeded(1);
        let a = rng.uniform(64);
        let d = decompose_operand(&a, 64);
        let c = &d.chunks;
        assert_eq!(d.leaves[0], c[0]);
        assert_eq!(d.leaves[1], c[1]);
        assert_eq!(d.leaves[2], c[1].add(&c[0]));
        assert_eq!(d.leaves[3], c[2]);
        assert_eq!(d.leaves[4], c[3]);
        assert_eq!(d.leaves[5], c[3].add(&c[2]));
        assert_eq!(d.leaves[6], c[2].add(&c[0]));
        assert_eq!(d.leaves[7], c[3].add(&c[1]));
        assert_eq!(d.leaves[8], c[2].add(&c[0]).add(&c[3]).add(&c[1]));
    }

    #[test]
    fn leaf_widths_bound_actual_leaves() {
        let mut rng = UintRng::seeded(2);
        for n in [64usize, 128, 256, 384] {
            let a = Uint::pow2(n).sub(&Uint::one()); // worst case all-ones
            let d = decompose_operand(&a, n);
            let widths = leaf_widths(n);
            for (i, leaf) in d.leaves.iter().enumerate() {
                assert!(
                    leaf.bit_len() <= widths[i],
                    "n={n} leaf {i} ({}) has {} bits > {}",
                    LEAF_NAMES[i],
                    leaf.bit_len(),
                    widths[i]
                );
            }
            let _ = rng.uniform(1);
        }
    }

    #[test]
    fn product_combination_is_multiplication() {
        let mut rng = UintRng::seeded(3);
        for n in [16usize, 64, 128, 384] {
            let a = rng.uniform(n);
            let b = rng.uniform(n);
            let da = decompose_operand(&a, n);
            let db = decompose_operand(&b, n);
            let products: [Uint; LEAVES] = std::array::from_fn(|i| &da.leaves[i] * &db.leaves[i]);
            assert_eq!(combine_products(&products, n / 4), &a * &b, "n = {n}");
        }
    }

    #[test]
    fn names_align_with_leaf_order() {
        assert_eq!(LEAF_NAMES[2], "a_10");
        assert_eq!(PRODUCT_NAMES[2], "c_lm");
        assert_eq!(LEAF_NAMES[8], "a_3210");
        assert_eq!(PRODUCT_NAMES[8], "c_mm");
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn rejects_bad_width() {
        decompose_operand(&Uint::one(), 30);
    }
}
