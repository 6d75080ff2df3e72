//! Property-based tests for the crossbar simulator.

use cim_crossbar::{BackendKind, Crossbar, Executor, Fault, MicroOp, Region};
use proptest::prelude::*;

/// A splitmix64 step: the next value of the stream seeded by `state`.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs one periphery shift on a packed and a scalar array holding the
/// same random rows (and, if `faults`, the same random stuck-at
/// cells), then compares every row's sensed bits and every cell's raw
/// value, wear and fault.
fn shift_matches_scalar(
    cols: usize,
    span: std::ops::Range<usize>,
    (src, dst): (usize, usize),
    offset: isize,
    fill: bool,
    faults: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    const ROWS: usize = 3;
    let mut state = seed;
    let mut arrays = [BackendKind::Packed, BackendKind::Scalar]
        .map(|kind| Crossbar::with_backend(ROWS, cols, kind).unwrap());
    for row in 0..ROWS {
        let bits: Vec<bool> = (0..cols).map(|_| mix(&mut state) & 1 == 1).collect();
        for array in &mut arrays {
            array.write_row(row, 0, &bits).unwrap();
        }
    }
    if faults {
        for _ in 0..1 + cols / 8 {
            let (row, col) = (mix(&mut state) as usize % ROWS, mix(&mut state) as usize % cols);
            let fault = if mix(&mut state) & 1 == 1 {
                Fault::StuckAt1
            } else {
                Fault::StuckAt0
            };
            for array in &mut arrays {
                array.inject_fault(row, col, Some(fault)).unwrap();
            }
        }
    }
    for array in &mut arrays {
        array.shift_row_to(src, dst, span.clone(), offset, fill).unwrap();
    }
    let [packed, scalar] = &arrays;
    let case = format!("cols {cols} span {span:?} {src}->{dst} by {offset} fill {fill} faults {faults}");
    for row in 0..ROWS {
        prop_assert_eq!(
            packed.read_row_bits(row, 0..cols).unwrap(),
            scalar.read_row_bits(row, 0..cols).unwrap(),
            "{}: sensed row {}", case, row
        );
        for col in 0..cols {
            prop_assert_eq!(
                packed.cell(row, col).unwrap(),
                scalar.cell(row, col).unwrap(),
                "{}: cell ({}, {})", case, row, col
            );
        }
    }
    Ok(())
}

/// Every distance in `[-len-1, len+1]` over spans with an unaligned
/// head and tail, a word-aligned span and the full row.
#[test]
fn packed_shift_matches_scalar_at_every_distance() {
    let cols = 130;
    for span in [0..cols, 3..67, 64..128] {
        let len = span.len() as isize;
        for offset in -len - 1..=len + 1 {
            for (fill, faults) in [(false, false), (true, false), (false, true), (true, true)] {
                for rows in [(0, 1), (2, 2)] {
                    let seed = offset as u64 ^ (span.start as u64) << 32;
                    shift_matches_scalar(cols, span.clone(), rows, offset, fill, faults, seed)
                        .unwrap();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Row write followed by read returns the written bits.
    #[test]
    fn write_read_roundtrip(bits in prop::collection::vec(any::<bool>(), 1..64)) {
        let mut x = Crossbar::new(2, bits.len()).unwrap();
        x.write_row(0, 0, &bits).unwrap();
        prop_assert_eq!(x.read_row_bits(0, 0..bits.len()).unwrap(), bits);
    }

    /// MAGIC NOR across rows equals the boolean NOR per column.
    #[test]
    fn nor_rows_matches_boolean_nor(
        a in prop::collection::vec(any::<bool>(), 1..64),
        seed in any::<u64>(),
    ) {
        let w = a.len();
        let b: Vec<bool> = (0..w).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let mut x = Crossbar::new(3, w).unwrap();
        let mut e = Executor::new(&mut x);
        e.run(&[
            MicroOp::write_row(0, &a),
            MicroOp::write_row(1, &b),
            MicroOp::init_rows(&[2], 0..w),
            MicroOp::nor_rows(&[0, 1], 2, 0..w),
        ]).unwrap();
        let expect: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| !(x | y)).collect();
        prop_assert_eq!(e.array().read_row_bits(2, 0..w).unwrap(), expect);
    }

    /// Double NOT is the identity.
    #[test]
    fn double_not_identity(a in prop::collection::vec(any::<bool>(), 1..64)) {
        let w = a.len();
        let mut x = Crossbar::new(3, w).unwrap();
        let mut e = Executor::new(&mut x);
        e.run(&[
            MicroOp::write_row(0, &a),
            MicroOp::init_rows(&[1, 2], 0..w),
            MicroOp::not_row(0, 1, 0..w),
            MicroOp::not_row(1, 2, 0..w),
        ]).unwrap();
        prop_assert_eq!(e.array().read_row_bits(2, 0..w).unwrap(), a);
    }

    /// Shifting left then right by the same amount only loses bits that
    /// fell off the top.
    #[test]
    fn shift_left_right(
        a in prop::collection::vec(any::<bool>(), 1..64),
        k in 0usize..16,
    ) {
        let w = a.len();
        prop_assume!(k < w);
        let mut x = Crossbar::new(1, w).unwrap();
        x.write_row(0, 0, &a).unwrap();
        x.shift_row(0, 0..w, k as isize).unwrap();
        x.shift_row(0, 0..w, -(k as isize)).unwrap();
        let got = x.read_row_bits(0, 0..w).unwrap();
        for i in 0..w - k {
            prop_assert_eq!(got[i], a[i], "bit {} must survive", i);
        }
        for (i, &g) in got.iter().enumerate().skip(w - k) {
            prop_assert!(!g, "bit {} must be zero-filled", i);
        }
    }

    /// The packed one-pass shift equals the scalar backend's sense,
    /// shift and write on random spans — empty, word-aligned,
    /// unaligned and the full row — at every distance in
    /// `[-len-1, len+1]`, in place or between rows, with either fill,
    /// on fault-free and stuck-at arrays: sensed rows, raw cells and
    /// per-cell wear all match.
    #[test]
    fn packed_shift_matches_scalar(
        cols in 1usize..200,
        kind in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut below = |n: usize| mix(&mut state) as usize % n;
        let span = match kind {
            0 => {
                let at = below(cols + 1);
                at..at
            }
            1 => {
                let words = cols.div_ceil(64);
                let start = 64 * below(words);
                start..(start + 64 * (1 + below(words))).min(cols)
            }
            2 => {
                let (a, b) = (below(cols + 1), below(cols + 1));
                a.min(b)..a.max(b)
            }
            _ => 0..cols,
        };
        let len = span.len() as isize;
        let offset = below(2 * span.len() + 3) as isize - len - 1;
        let (src, dst) = (below(3), below(3));
        let fill = below(2) == 1;
        for faults in [false, true] {
            shift_matches_scalar(cols, span.clone(), (src, dst), offset, fill, faults, seed)?;
            shift_matches_scalar(cols, span.clone(), (src, src), offset, fill, faults, seed)?;
        }
    }

    /// Cycle count equals the sum of per-op costs and is order-independent.
    #[test]
    fn cycle_count_is_sum_of_costs(n_ops in 1usize..20) {
        let mut x = Crossbar::new(4, 8).unwrap();
        let mut e = Executor::new(&mut x);
        let mut expect = 0u64;
        for i in 0..n_ops {
            let op = match i % 3 {
                0 => MicroOp::write_row(i % 4, &[true; 8]),
                1 => MicroOp::shift(i % 4, 0..8, 1),
                _ => MicroOp::read_row(i % 4, 0..8),
            };
            expect += op.cycles();
            e.step(&op).unwrap();
        }
        prop_assert_eq!(e.stats().cycles, expect);
    }

    /// Wear conservation: total writes equals the number of cell-write
    /// events issued.
    #[test]
    fn wear_total_matches_events(rows in 1usize..6, writes in 1usize..20) {
        let mut x = Crossbar::new(rows, 4).unwrap();
        for i in 0..writes {
            x.write_row(i % rows, 0, &[true, false, true, false]).unwrap();
        }
        let report = cim_crossbar::EnduranceReport::from_array(&x);
        prop_assert_eq!(report.total_writes, writes as u64 * 4);
    }

    /// Partitioned NOR equals per-partition boolean NOR for arbitrary
    /// partition geometry and row contents.
    #[test]
    fn partitioned_nor_matches_spec(
        parts in 1usize..6,
        part_width in 3usize..8,
        seed in any::<u64>(),
    ) {
        let w = parts * part_width;
        let bits: Vec<bool> = (0..w).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let mut x = Crossbar::new(1, w).unwrap();
        x.write_row(0, 0, &bits).unwrap();
        // Init every partition's output cell (offset part_width−1).
        for p in 0..parts {
            let col = p * part_width + part_width - 1;
            x.init_region(&Region::new(0..1, col..col + 1)).unwrap();
        }
        x.nor_cols_partitioned(0..1, 0..w, part_width, &[0, 1], part_width - 1, true)
            .unwrap();
        for p in 0..parts {
            let base = p * part_width;
            let expect = !(bits[base] | bits[base + 1]);
            prop_assert_eq!(
                x.read_cell(0, base + part_width - 1).unwrap(),
                expect,
                "partition {}", p
            );
        }
    }

    /// Reset region forces all covered cells to zero regardless of state.
    #[test]
    fn reset_region_zeroes(bits in prop::collection::vec(any::<bool>(), 8..32)) {
        let w = bits.len();
        let mut x = Crossbar::new(2, w).unwrap();
        x.write_row(0, 0, &bits).unwrap();
        x.reset_region(&Region::new(0..2, 0..w)).unwrap();
        prop_assert_eq!(x.read_row_bits(0, 0..w).unwrap(), vec![false; w]);
    }
}
