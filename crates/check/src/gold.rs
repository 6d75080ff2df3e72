//! A fast bit-matrix gold-model interpreter for MAGIC programs.
//!
//! [`GoldMatrix`] executes a micro-op program over a plain boolean
//! matrix with *ideal* gate semantics: a NOR output is simply
//! `!(any input)`, with no device model, wear accounting, fault
//! injection or init policing in the loop. On a statically-verified
//! program (every MAGIC output pre-set to 1) the ideal result equals
//! the physical pull-down result the cycle-accurate
//! [`Executor`](cim_crossbar::Executor) computes, which is what makes
//! this model usable as the reference side of a differential test:
//! two independent implementations of the same ISA, one optimized for
//! fidelity and one for simplicity.

use cim_crossbar::MicroOp;

/// An idealized crossbar: one `bool` per cell, no device state.
///
/// All methods panic on out-of-bounds access instead of returning
/// errors — run [`verify`](crate::verify) first; the gold model is
/// only meaningful for programs that already passed static checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldMatrix {
    rows: usize,
    cols: usize,
    bits: Vec<bool>,
    cycles: u64,
}

impl GoldMatrix {
    /// Creates an all-zero matrix of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "gold matrix must be non-empty");
        GoldMatrix {
            rows,
            cols,
            bits: vec![false; rows * cols],
            cycles: 0,
        }
    }

    /// Word lines.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit lines.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cycles accumulated so far (same per-op costs as the executor).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Value of one cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    pub fn cell(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "cell out of bounds");
        self.bits[row * self.cols + col]
    }

    fn set(&mut self, row: usize, col: usize, v: bool) {
        self.bits[row * self.cols + col] = v;
    }

    /// A row span as a bit vector.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of bounds.
    pub fn row_bits(&self, row: usize, cols: std::ops::Range<usize>) -> Vec<bool> {
        cols.map(|c| self.cell(row, c)).collect()
    }

    /// Applies one op with ideal semantics. Returns the sensed bits
    /// for a [`MicroOp::ReadRow`], `None` for every other op.
    ///
    /// # Panics
    ///
    /// Panics if the op addresses cells outside the matrix or has
    /// inconsistent partition geometry — verify the program first.
    pub fn apply(&mut self, op: &MicroOp) -> Option<Vec<bool>> {
        // A co-issue bundle applies every inner op but charges only
        // the bundle maximum — mirror the executor by charging the
        // bundle here and the inner ops nothing.
        if let MicroOp::Parallel(inner) = op {
            self.cycles += op.cycles();
            let rewind = self.cycles;
            for o in inner {
                self.apply(o);
                self.cycles = rewind;
            }
            return None;
        }
        self.cycles += op.cycles();
        match op {
            MicroOp::WriteRow {
                row,
                col_offset,
                bits,
            } => {
                for (i, b) in bits.iter().enumerate() {
                    self.set(*row, col_offset + i, b);
                }
                None
            }
            // The gold matrix models a single instance, i.e. lane 0 of
            // a batch: a lane-staged write applies the lane-0 bits.
            MicroOp::WriteRowLanes {
                row,
                col_offset,
                lane_words,
            } => {
                for (i, &w) in lane_words.iter().enumerate() {
                    self.set(*row, col_offset + i, w & 1 == 1);
                }
                None
            }
            MicroOp::ReadRow { row, cols } => Some(self.row_bits(*row, cols.clone())),
            MicroOp::InitRows { rows, cols } => {
                for &r in rows {
                    for c in cols.clone() {
                        self.set(r, c, true);
                    }
                }
                None
            }
            MicroOp::ResetRegion(region) => {
                for r in region.rows.clone() {
                    for c in region.cols.clone() {
                        self.set(r, c, false);
                    }
                }
                None
            }
            MicroOp::ResetRows { rows, cols } => {
                for &r in rows {
                    for c in cols.clone() {
                        self.set(r, c, false);
                    }
                }
                None
            }
            MicroOp::NorRows { inputs, out, cols } => {
                for c in cols.clone() {
                    let any = inputs.iter().any(|&r| self.cell(r, c));
                    self.set(*out, c, !any);
                }
                None
            }
            MicroOp::NorCols {
                in_cols,
                out_col,
                rows,
            } => {
                for r in rows.clone() {
                    let any = in_cols.iter().any(|&c| self.cell(r, c));
                    self.set(r, *out_col, !any);
                }
                None
            }
            MicroOp::NorColsPartitioned {
                rows,
                cols,
                part_width,
                in_offsets,
                out_offset,
            } => {
                assert!(
                    *part_width > 0 && cols.len() % part_width == 0,
                    "inconsistent partition geometry — verify the program first"
                );
                for r in rows.clone() {
                    for base in (cols.start..cols.end).step_by(*part_width) {
                        let any = in_offsets.iter().any(|&off| self.cell(r, base + off));
                        self.set(r, base + out_offset, !any);
                    }
                }
                None
            }
            MicroOp::Shift {
                src,
                dst,
                cols,
                offset,
                fill,
            } => {
                // Same window semantics as `Crossbar::shift_row_to`:
                // bits leaving the span are lost, vacated positions
                // take the fill bit.
                let bits = self.row_bits(*src, cols.clone());
                let w = bits.len();
                let mut shifted = vec![*fill; w];
                for (i, &b) in bits.iter().enumerate() {
                    let j = i as isize + offset;
                    if (0..w as isize).contains(&j) {
                        shifted[j as usize] = b;
                    }
                }
                for (i, &b) in shifted.iter().enumerate() {
                    self.set(*dst, cols.start + i, b);
                }
                None
            }
            MicroOp::Parallel(_) => unreachable!("bundles are intercepted above"),
        }
    }

    /// Runs a whole program, returning every [`MicroOp::ReadRow`]
    /// result in program order.
    ///
    /// # Panics
    ///
    /// Panics as [`GoldMatrix::apply`] does on unverified programs.
    pub fn run(&mut self, program: &[MicroOp]) -> Vec<Vec<bool>> {
        program.iter().filter_map(|op| self.apply(op)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_nor_is_not_any() {
        let mut m = GoldMatrix::new(3, 4);
        m.apply(&MicroOp::write_row(0, &[true, false, true, false]));
        m.apply(&MicroOp::write_row(1, &[true, true, false, false]));
        m.apply(&MicroOp::init_rows(&[2], 0..4));
        m.apply(&MicroOp::nor_rows(&[0, 1], 2, 0..4));
        assert_eq!(m.row_bits(2, 0..4), vec![false, false, false, true]);
    }

    #[test]
    fn read_row_returns_sensed_bits() {
        let mut m = GoldMatrix::new(1, 3);
        m.apply(&MicroOp::write_row(0, &[true, false, true]));
        let reads = m.run(&[MicroOp::read_row(0, 1..3)]);
        assert_eq!(reads, vec![vec![false, true]]);
    }

    #[test]
    fn shift_matches_window_semantics() {
        let mut m = GoldMatrix::new(2, 6);
        m.apply(&MicroOp::write_row(0, &[true, true, false, false, true, true]));
        // Shift window 1..5 by +2 into row 1 with fill=true.
        m.apply(&MicroOp::shift_to(0, 1, 1..5, 2, true));
        // Window was [t,f,f,t]; shifted +2 → [fill,fill,t,f].
        assert_eq!(m.row_bits(1, 1..5), vec![true, true, true, false]);
        // Outside the window row 1 is untouched.
        assert!(!m.cell(1, 0));
        assert!(!m.cell(1, 5));
        assert_eq!(m.cycles(), 3); // write(1) + shift(2)
    }

    #[test]
    fn partitioned_nor_applies_per_partition() {
        let mut m = GoldMatrix::new(1, 6);
        m.apply(&MicroOp::write_row(0, &[true, false, true, false, false, true]));
        m.apply(&MicroOp::nor_cols_partitioned(0..1, 0..6, 3, &[0, 1], 2));
        // Partition 0: NOR(t,f)=f at col 2; partition 1: NOR(f,f)=t at col 5.
        assert!(!m.cell(0, 2));
        assert!(m.cell(0, 5));
    }

    #[test]
    fn bundle_applies_all_inner_ops_at_max_cost() {
        let mut m = GoldMatrix::new(4, 3);
        m.apply(&MicroOp::write_row(0, &[true, false, true]));
        m.apply(&MicroOp::parallel(vec![
            MicroOp::init_rows(&[1], 0..3),
            MicroOp::init_rows(&[2], 0..3),
        ]));
        m.apply(&MicroOp::parallel(vec![
            MicroOp::not_row(0, 1, 0..3),
            MicroOp::nor_rows(&[0], 2, 0..3),
        ]));
        assert_eq!(m.row_bits(1, 0..3), vec![false, true, false]);
        assert_eq!(m.row_bits(2, 0..3), vec![false, true, false]);
        assert_eq!(m.cycles(), 3, "write + two 1-cycle bundles");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_access_panics() {
        let mut m = GoldMatrix::new(2, 2);
        m.apply(&MicroOp::write_row(5, &[true]));
    }
}
