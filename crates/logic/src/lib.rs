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

pub mod condsub;
pub mod gates;
pub mod kogge_stone;
pub mod magic_schoolbook;
pub mod multpim;
pub mod program;
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
