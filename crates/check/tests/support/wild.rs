//! Arbitrary micro-op programs for oracle tests: rows and columns up to
//! two past the array, empty and reversed spans, repeated rows, broken
//! partition geometry and co-issue bundles of any of these. Most such
//! programs are rejected by the verifier; the analyses must still treat
//! them exactly as their per-cell references do.

use cim_crossbar::{MicroOp, Region};
use std::ops::Range;

/// A splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x2545_f491_4f6c_dd1d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Draws wild ops for a `rows × cols` array.
pub struct Wild {
    rows: usize,
    cols: usize,
    rng: Rng,
}

impl Wild {
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        Wild {
            rows,
            cols,
            rng: Rng::new(seed),
        }
    }

    fn row(&mut self) -> usize {
        self.rng.below(self.rows + 2)
    }

    fn col(&mut self) -> usize {
        self.rng.below(self.cols + 2)
    }

    /// Mostly in-array, non-empty spans; sometimes empty, reversed or
    /// past the array.
    fn span(&mut self, len: usize) -> Range<usize> {
        if self.rng.below(6) == 0 {
            return self.rng.below(len + 2)..self.rng.below(len + 2);
        }
        let start = self.rng.below(len);
        start..start + 1 + self.rng.below(len - start)
    }

    fn rows_list(&mut self) -> Vec<usize> {
        (0..1 + self.rng.below(3)).map(|_| self.row()).collect()
    }

    /// A program of `len` wild ops.
    pub fn program(&mut self, len: usize) -> Vec<MicroOp> {
        (0..len).map(|_| self.op(true)).collect()
    }

    /// One wild op; bundles only when `bundles` is set, and a bundle
    /// nests another only rarely.
    pub fn op(&mut self, bundles: bool) -> MicroOp {
        let (rows, cols) = (self.rows, self.cols);
        match self.rng.below(if bundles { 12 } else { 11 }) {
            0 => {
                let len = self.rng.below(cols + 1);
                let bits: Vec<bool> = (0..len).map(|_| self.rng.below(2) == 1).collect();
                MicroOp::write_row_at(self.row(), self.col(), &bits)
            }
            1 => {
                let len = self.rng.below(cols + 1);
                let words: Vec<u64> = (0..len)
                    .map(|_| match self.rng.below(3) {
                        0 => u64::MAX,
                        _ => self.rng.next_u64(),
                    })
                    .collect();
                MicroOp::write_row_lanes(self.row(), self.col(), &words)
            }
            2 => MicroOp::read_row(self.row(), self.span(cols)),
            3 => MicroOp::init_rows(&self.rows_list(), self.span(cols)),
            4 => MicroOp::reset_rows(&self.rows_list(), self.span(cols)),
            5 => MicroOp::ResetRegion(Region::new(self.span(rows), self.span(cols))),
            6 | 7 => MicroOp::nor_rows(&self.rows_list(), self.row(), self.span(cols)),
            8 => {
                let in_cols: Vec<usize> = (0..1 + self.rng.below(3)).map(|_| self.col()).collect();
                MicroOp::nor_cols(&in_cols, self.col(), self.span(rows))
            }
            9 => {
                let part_width = self.rng.below(4);
                let parts = 1 + self.rng.below(3);
                let start = self.col();
                let end = start + part_width * parts + usize::from(self.rng.below(5) == 0);
                let in_offsets: Vec<usize> = (0..1 + self.rng.below(2))
                    .map(|_| self.rng.below(part_width + 1))
                    .collect();
                let out_offset = self.rng.below(part_width + 1);
                MicroOp::nor_cols_partitioned(
                    self.span(rows),
                    start..end,
                    part_width,
                    &in_offsets,
                    out_offset,
                )
            }
            10 => {
                let offset = self.rng.below(5) as isize - 2;
                let fill = self.rng.below(2) == 1;
                MicroOp::shift_to(self.row(), self.row(), self.span(cols), offset, fill)
            }
            _ => {
                let nested = self.rng.below(8) == 0;
                let inner = (0..self.rng.below(4)).map(|_| self.op(nested)).collect();
                MicroOp::Parallel(inner)
            }
        }
    }
}
