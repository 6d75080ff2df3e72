//! Lane words for the bit-sliced backend's controller paths.
//!
//! The sliced backend stores one `u64` per cell where bit `l` is lane
//! `l`'s value. A batch controller that keeps its values in that
//! layout — one *lane word* per column — moves a whole batch with word
//! copies: the batch multiplier stages carry every intermediate row
//! this way, so a shift is a column offset ([`place_cols`]) and a
//! truncation a slice. Per-lane values (little-endian `u64` limbs
//! where bit `j` is column `j`) exist only at a batch's edges, where
//! [`transpose_lanes`] and [`lane_limbs_flat`] convert with 64×64
//! bit-matrix transposes, `O(cols · log 64)` word operations instead
//! of `lanes × cols` bit moves.

/// In-place 64×64 bit-matrix transpose: afterwards, bit `i` of
/// `m[b]` equals what bit `b` of `m[i]` was (Hacker's Delight 7-3,
/// widened to 64 bits).
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = (m[k] >> j ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Transposes per-lane limb slices into per-column lane words: bit `l`
/// of `out[j]` is bit `j` of `per_lane[l]` (reading missing limbs and
/// missing lanes as zero). `out` has exactly `cols` words — lane bits
/// at column `cols` and beyond are truncated, like `Uint::to_bits`.
///
/// # Panics
///
/// Panics if more than 64 lanes are given.
pub fn transpose_lanes(per_lane: &[&[u64]], cols: usize) -> Vec<u64> {
    assert!(per_lane.len() <= 64, "at most 64 lanes per word");
    to_cols(per_lane.len(), cols, |l, bi| {
        per_lane[l].get(bi).copied().unwrap_or(0)
    })
}

/// [`transpose_lanes`] from one flat buffer of per-lane limbs, lane
/// `l`'s at `flat[l * stride..][..stride]` (the layout
/// [`lane_limbs_flat`] leaves): `flat.len() / stride` lanes, limbs
/// past `stride` read as zero.
///
/// # Panics
///
/// Panics if `stride` is zero or the buffer holds more than 64 lanes.
pub fn transpose_lanes_flat(flat: &[u64], stride: usize, cols: usize) -> Vec<u64> {
    let lanes = flat.len() / stride;
    assert!(lanes <= 64, "at most 64 lanes per word");
    to_cols(lanes, cols, |l, bi| {
        if bi < stride {
            flat[l * stride + bi]
        } else {
            0
        }
    })
}

/// `cols` lane words from `lanes` lanes, `limb(l, bi)` giving limb `bi`
/// of lane `l`: one 64×64 transpose per 64-column block.
fn to_cols(lanes: usize, cols: usize, limb: impl Fn(usize, usize) -> u64) -> Vec<u64> {
    let mut out = vec![0u64; cols];
    let mut buf = [0u64; 64];
    for (bi, chunk) in out.chunks_mut(64).enumerate() {
        buf.fill(0);
        for (l, slot) in buf[..lanes].iter_mut().enumerate() {
            *slot = limb(l, bi);
        }
        transpose64(&mut buf);
        chunk.copy_from_slice(&buf[..chunk.len()]);
    }
    out
}

/// The inverse of [`transpose_lanes`] into one flat buffer: `out`
/// becomes 64 lanes of `stride = col_words.len().div_ceil(64)` limbs,
/// lane `l`'s at `out[l * stride..][..stride]` with bit `j` equal to
/// bit `l` of `col_words[j]`. Returns `stride`.
pub fn lane_limbs_flat(col_words: &[u64], out: &mut Vec<u64>) -> usize {
    let stride = col_words.len().div_ceil(64);
    out.clear();
    out.resize(64 * stride, 0);
    let mut buf = [0u64; 64];
    for (bi, chunk) in col_words.chunks(64).enumerate() {
        buf.fill(0);
        buf[..chunk.len()].copy_from_slice(chunk);
        transpose64(&mut buf);
        for (l, &limb) in buf.iter().enumerate() {
            out[l * stride + bi] = limb;
        }
    }
    stride
}

/// ORs the lane words `src` into `dst` from column `at` on: the
/// lane-word form of `dst + src · 2^at` for values in disjoint columns
/// (every column of `dst` the span covers must still be zero, checked
/// in debug builds). Columns of `src` past the end of `dst` are
/// dropped.
///
/// # Panics
///
/// Panics if a dropped column of `src` holds a set bit.
pub fn place_cols(dst: &mut [u64], at: usize, src: &[u64]) {
    let len = dst.len();
    let keep = src.len().min(len.saturating_sub(at));
    assert!(
        src[keep..].iter().all(|&w| w == 0),
        "lane words overflow {len} columns at offset {at}"
    );
    let span = &mut dst[at.min(len)..][..keep];
    debug_assert!(
        span.iter().all(|&w| w == 0),
        "placed column spans overlap at offset {at}"
    );
    for (d, &s) in span.iter_mut().zip(src) {
        *d |= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `lanes` lanes' limbs of `col_words`, one vector each.
    fn lane_limbs(col_words: &[u64], lanes: usize) -> Vec<Vec<u64>> {
        let mut flat = Vec::new();
        let stride = lane_limbs_flat(col_words, &mut flat);
        flat.chunks(stride.max(1))
            .take(lanes)
            .map(<[u64]>::to_vec)
            .collect()
    }

    #[test]
    fn transpose64_moves_single_bits() {
        let mut m = [0u64; 64];
        m[3] = 1 << 5;
        m[60] = 1 << 0;
        transpose64(&mut m);
        assert_eq!(m[5], 1 << 3);
        assert_eq!(m[0], 1 << 60);
        assert_eq!(m.iter().map(|w| w.count_ones()).sum::<u32>(), 2);
    }

    #[test]
    fn transpose64_is_an_involution() {
        let mut m: [u64; 64] =
            std::array::from_fn(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xabcd);
        let orig = m;
        transpose64(&mut m);
        transpose64(&mut m);
        assert_eq!(m, orig);
    }

    #[test]
    fn lanes_round_trip_through_columns() {
        // 3 lanes, 130 columns (one full block + a ragged tail).
        let lanes: Vec<Vec<u64>> = vec![
            vec![0xdead_beef_0123_4567, 0x89ab_cdef_fedc_ba98, 0x3],
            vec![0x1111_2222_3333_4444, 0, 0x1],
            vec![u64::MAX, u64::MAX, 0x3],
        ];
        let refs: Vec<&[u64]> = lanes.iter().map(|v| v.as_slice()).collect();
        let cols = transpose_lanes(&refs, 130);
        assert_eq!(cols.len(), 130);
        for (l, limbs) in lanes.iter().enumerate() {
            for (j, word) in cols.iter().enumerate() {
                let expect = (limbs[j / 64] >> (j % 64)) & 1;
                assert_eq!(word >> l & 1, expect, "lane {l} col {j}");
            }
        }
        let back = lane_limbs(&cols, 3);
        let flat: Vec<u64> = back.concat();
        assert_eq!(
            transpose_lanes_flat(&flat, 3, 130),
            cols,
            "flat buffers round-trip"
        );
        for (l, limbs) in lanes.iter().enumerate() {
            // Bits at column 130 and beyond are truncated by the
            // forward transpose; mask them off the expectation.
            let mut expect = limbs.clone();
            expect[2] &= (1 << 2) - 1;
            assert_eq!(back[l], expect, "lane {l}");
        }
    }

    #[test]
    fn placement_is_shifted_addition_of_disjoint_spans() {
        let lanes: [&[u64]; 2] = [&[0b1011], &[0b0110]];
        let hi: [&[u64]; 2] = [&[0b01], &[0b11]];
        let mut dst = vec![0u64; 8];
        place_cols(&mut dst, 0, &transpose_lanes(&lanes, 4));
        place_cols(&mut dst, 5, &transpose_lanes(&hi, 2));
        // Zero columns past the end are dropped silently.
        place_cols(&mut dst, 7, &[0b11, 0, 0]);
        let back = lane_limbs(&dst, 2);
        assert_eq!(back[0], vec![0b1011 | 0b01 << 5 | 1 << 7]);
        assert_eq!(back[1], vec![0b0110 | 0b11 << 5 | 1 << 7]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn placement_refuses_to_drop_set_bits() {
        place_cols(&mut [0u64; 4], 3, &[1, 1]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlap")]
    fn placement_refuses_overlapping_spans() {
        let mut dst = vec![0u64; 4];
        place_cols(&mut dst, 0, &[0, 0, 1]);
        place_cols(&mut dst, 2, &[0]);
    }

    #[test]
    fn truncation_and_zero_fill_match_bitwise_semantics() {
        // A lane with fewer limbs than the span reads as zero-padded;
        // columns past `cols` never leak into the output.
        let lane0: &[u64] = &[0b1011];
        let cols = transpose_lanes(&[lane0], 3);
        assert_eq!(cols, vec![1, 1, 0]); // bit 3 of the lane truncated
        let back = lane_limbs(&cols, 2);
        assert_eq!(back[0], vec![0b011]);
        assert_eq!(back[1], vec![0]);
    }
}
