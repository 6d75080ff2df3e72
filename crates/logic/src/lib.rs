//! # cim-logic — MAGIC NOR logic synthesis on resistive crossbars
//!
//! Builds computational blocks out of MAGIC NOR/NOT micro-ops on a
//! [`cim_crossbar::Crossbar`]:
//!
//! * [`gates`] — SIMD row-level gate emulation (NOT/OR/AND/XOR/XNOR and
//!   a full adder), demonstrating NOR's functional completeness
//!   (paper Sec. II-B) with exact cycle costs;
//! * [`kogge_stone`] — the paper's Kogge-Stone carry-lookahead adder
//!   and subtractor (Sec. IV-B): `8 + 11·⌈log2 n⌉ + 9` clock cycles,
//!   `n+1` columns, exactly 12 scratch rows, with optional
//!   wear-leveling;
//! * [`ripple`] — a NOR-based ripple-carry adder, the ablation baseline
//!   that shows why the paper picks Kogge-Stone (O(n) vs O(log n));
//! * [`multpim`] — the single-row serial multiplier adopted from
//!   MultPIM \[9\] for the paper's multiplication stage (Sec. IV-D),
//!   with the paper's area optimization (12·w cells per row).
//!
//! ## Example: adding two 64-bit integers fully in-memory
//!
//! ```
//! use cim_bigint::Uint;
//! use cim_logic::kogge_stone::KoggeStoneAdder;
//!
//! # fn main() -> Result<(), cim_crossbar::CrossbarError> {
//! let adder = KoggeStoneAdder::new(64);
//! let a = Uint::from_u64(u64::MAX);
//! let b = Uint::from_u64(1);
//! let (sum, stats) = adder.add(&a, &b)?;
//! assert_eq!(sum, Uint::pow2(64));
//! assert_eq!(stats.cycles, adder.latency()); // 8 + 11·6 + 9 = 83 cc
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gates;
pub mod kogge_stone;
pub mod multpim;
pub mod ripple;
pub mod tmr;

use cim_bigint::Uint;
use cim_crossbar::{Crossbar, CrossbarError, MicroOp};

/// A row write of `v` into `width` columns of `row` from `col_offset`
/// (bit 0 at `col_offset`), with `v`'s limbs as the payload words: the
/// operand staging of every stage that loads a row from the host.
///
/// # Panics
///
/// Panics if `v` does not fit in `width` bits.
pub fn write_row_uint(row: usize, col_offset: usize, v: &Uint, width: usize) -> MicroOp {
    assert!(
        v.bit_len() <= width,
        "value of {} bits does not fit in width {}",
        v.bit_len(),
        width
    );
    MicroOp::write_row_words(row, col_offset, v.limbs(), width)
}

/// Senses `cols` of `row` as an unsigned integer (bit 0 = column
/// `cols.start`) with one word-wide read: the readback of every stage
/// that hands a row back to the host.
///
/// # Errors
///
/// Returns an error if the coordinates are out of range.
pub fn read_row_uint(
    array: &Crossbar,
    row: usize,
    cols: std::ops::Range<usize>,
) -> Result<Uint, CrossbarError> {
    let mut words = Vec::new();
    array.read_row_words(row, cols, &mut words)?;
    Ok(Uint::from_limbs(words))
}

/// Senses `cols` of `row` of a bit-sliced array as lane words of its
/// first `lanes` lanes (bits of higher lanes cleared): the readback of
/// every batch stage row.
///
/// # Errors
///
/// Returns an error if the coordinates are out of range.
///
/// # Panics
///
/// Panics if `lanes` is not in `1..=64`.
pub fn read_row_lanes(
    array: &Crossbar,
    row: usize,
    cols: std::ops::Range<usize>,
    lanes: usize,
) -> Result<Vec<u64>, CrossbarError> {
    assert!((1..=64).contains(&lanes), "batch must hold 1..=64 lanes");
    let active = u64::MAX >> (64 - lanes);
    let mut words = Vec::new();
    array.read_row_lane_words(row, cols, &mut words)?;
    words.iter_mut().for_each(|w| *w &= active);
    Ok(words)
}

/// The lane words of a batch of values over `width` columns: bit `l`
/// of word `j` is bit `j` of the `l`-th value, the layout a
/// [`MicroOp::WriteRowLanes`] payload and every batch stage row use.
///
/// # Panics
///
/// Panics if a value does not fit in `width` bits or more than 64
/// values are given.
pub fn uint_lanes<'a>(values: impl IntoIterator<Item = &'a Uint>, width: usize) -> Vec<u64> {
    let refs: Vec<&[u64]> = values
        .into_iter()
        .map(|v| {
            assert!(
                v.bit_len() <= width,
                "value of {} bits does not fit in width {}",
                v.bit_len(),
                width
            );
            v.limbs()
        })
        .collect();
    cim_crossbar::lanes::transpose_lanes(&refs, width)
}

/// The lane words of both operand sides of a batch of pairs over
/// `width` columns each ([`uint_lanes`] of the `a`s and of the `b`s).
///
/// # Panics
///
/// Panics if an operand does not fit in `width` bits or more than 64
/// pairs are given.
pub fn pair_lanes(pairs: &[(Uint, Uint)], width: usize) -> (Vec<u64>, Vec<u64>) {
    (
        uint_lanes(pairs.iter().map(|(a, _)| a), width),
        uint_lanes(pairs.iter().map(|(_, b)| b), width),
    )
}

/// The values of the first `lanes` lanes of a batch row's lane words,
/// the inverse of [`uint_lanes`].
///
/// # Panics
///
/// Panics if more than 64 lanes are requested.
pub fn lane_uints(words: &[u64], lanes: usize) -> Vec<Uint> {
    assert!(lanes <= 64, "at most 64 lanes per word");
    let mut flat = Vec::new();
    let stride = cim_crossbar::lanes::lane_limbs_flat(words, &mut flat);
    (0..lanes)
        .map(|l| Uint::from_limbs(flat[l * stride..][..stride].to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_crossbar::BackendKind;

    #[test]
    fn write_row_uint_matches_the_bit_payload() {
        let v = Uint::from_limbs(vec![0x9E37_79B9_7F4A_7C15; 3]).low_bits(150);
        for width in [150, 151, 200] {
            assert_eq!(
                write_row_uint(3, 7, &v, width),
                MicroOp::write_row_at(3, 7, &v.to_bits(width))
            );
        }
    }

    #[test]
    #[should_panic(expected = "value of 150 bits does not fit in width 149")]
    fn write_row_uint_rejects_values_wider_than_width() {
        let v = Uint::pow2(149);
        write_row_uint(0, 0, &v, 149);
    }

    #[test]
    fn lane_words_round_trip_through_a_sliced_row() {
        let values: Vec<Uint> = (0..37u64)
            .map(|l| {
                Uint::from_limbs(vec![0x9E37_79B9_7F4A_7C15 ^ l, l]).low_bits(70 + l as usize % 3)
            })
            .collect();
        let words = uint_lanes(&values, 72);
        assert_eq!(words.len(), 72);
        assert!(
            words.iter().all(|w| w >> 37 == 0),
            "inactive lanes stay clear"
        );
        assert_eq!(lane_uints(&words, 37), values);

        // Set every lane's cells, then store the 37 lanes' values: the
        // higher lanes keep their ones.
        let mut array = Crossbar::new_sliced(1, 80, 37).unwrap();
        array
            .init_region(&cim_crossbar::Region::new(0..1, 0..80))
            .unwrap();
        array
            .store_row_lane_words(0, 4, &words, (1 << 37) - 1)
            .unwrap();
        let read = read_row_lanes(&array, 0, 4..76, 37).unwrap();
        assert_eq!(read, words, "higher lanes' set bits are cleared on read");
    }

    #[test]
    #[should_panic(expected = "value of 9 bits does not fit in width 8")]
    fn uint_lanes_rejects_values_wider_than_width() {
        uint_lanes(&[Uint::one(), Uint::pow2(8)], 8);
    }

    #[test]
    fn read_row_uint_round_trips_unaligned_spans() {
        let cols = 3200;
        for kind in [
            BackendKind::Packed,
            BackendKind::Scalar,
            BackendKind::Sliced,
        ] {
            let mut array = Crossbar::with_backend(2, cols, kind).unwrap();
            array.write_row(1, 0, &[true; 3200]).unwrap();
            let spans = [
                (0, 0),
                (0, 1),
                (1, 63),
                (63, 64),
                (64, 65),
                (37, 3073),
                (127, 3073),
            ];
            for (start, width) in spans {
                let v = Uint::from_limbs(vec![0x9E37_79B9_7F4A_7C15; 49]).low_bits(width);
                array.write_row(0, start, &v.to_bits(width)).unwrap();
                let got = read_row_uint(&array, 0, start..start + width).unwrap();
                assert_eq!(got, v, "{kind:?} at {start}, width {width}");
                let ones = read_row_uint(&array, 1, start..start + width).unwrap();
                assert_eq!(ones, Uint::pow2(width).sub(&Uint::one()), "{kind:?} ones");
            }
        }
    }
}
