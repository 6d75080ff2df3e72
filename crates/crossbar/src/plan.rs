//! Row-kernel plans: a compiled program lowered once into the value
//! kernels a fault-free packed or sliced array runs, plus the wear the
//! program leaves, summed per row.
//!
//! An adder body spends most of its ops on init waves and the MAGIC
//! NORs they prepare. Replayed op by op, each wave is a row fill, each
//! NOR a strict-init scan plus a read-modify-write, and each op one
//! wear entry. The plan builder proves, from the ops alone, which of
//! that work a fault-free array does not need:
//!
//! * a pending wave of 1s on exactly a NOR's output span becomes part
//!   of one [`Kernel::Store`] `out = !(a | b)`: the wave initialized
//!   every output cell, so strict init holds and the pull-down from 1
//!   is a plain store;
//! * a wave that a later wave or shift overwrites before anything
//!   reads the row is dropped from the values (its wear stays);
//! * any other wave is flushed as a [`Kernel::Fill`] before the first
//!   op that reads or partly overwrites its row.
//!
//! The wear of every op is value independent, so the plan carries it
//! as one footprint: per row, disjoint in-order `(cols, pulses)` runs
//! whose per-cell sums equal what the ops add one by one.
//!
//! A program the builder cannot prove this way has no plan: a NOR
//! whose output is not exactly a pending wave of 1s, one with more
//! than two inputs or an input equal to its output, an empty span or
//! row range, and any `ReadRow`, `WriteRow*` or column-oriented NOR.

use crate::geometry::ColRange;
use crate::isa::MicroOp;
use std::ops::Range;

/// One value kernel of a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Sets (`value`) or clears `row` over `cols`.
    Fill {
        row: usize,
        cols: ColRange,
        value: bool,
    },
    /// `out = !(a | b)` over `cols`; `b == a` for a NOT.
    Store {
        out: usize,
        a: usize,
        b: usize,
        cols: ColRange,
    },
    /// The value effect of a periphery shift.
    Shift {
        src: usize,
        dst: usize,
        cols: ColRange,
        offset: isize,
        fill: bool,
    },
}

/// The value halves of a backend's row ops and its wear add: what a
/// [`Plan`] runs on. Callers guarantee a fault-free array holding
/// every row and column the plan touches.
pub(crate) trait RowKernels {
    /// The value effect of a set/reset wave on `rows`.
    fn fill_values(&mut self, rows: Range<usize>, cols: ColRange, value: bool);
    /// `out = !(a | b)` over `cols` (`out` differs from `a` and `b`).
    fn store_nor(&mut self, out: usize, a: usize, b: usize, cols: ColRange);
    /// The value effect of a periphery shift.
    fn shift_values(&mut self, src: usize, dst: usize, cols: ColRange, offset: isize, fill: bool);
    /// Adds `pulses` writes to every cell of `row` in `cols`.
    fn add_wear(&mut self, row: usize, cols: ColRange, pulses: u64);
}

/// A program lowered into value kernels and a wear footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Plan {
    kernels: Box<[Kernel]>,
    /// `(row, cols, pulses)`, rows ascending, each row's runs disjoint
    /// and in column order.
    wear: Box<[(usize, ColRange, u64)]>,
    /// One past the highest row the program touches.
    rows: usize,
    /// One past the highest column the program touches.
    cols: usize,
}

impl Plan {
    /// Lowers `ops`, or `None` when the builder cannot prove the
    /// lowering exact (see the module docs).
    pub(crate) fn build(ops: &[MicroOp]) -> Option<Plan> {
        let mut builder = Builder::default();
        for op in ops {
            match op {
                MicroOp::Parallel(inner) => {
                    // Inner ops are pairwise independent: applying them
                    // in order is exact.
                    for op in inner {
                        builder.op(op)?;
                    }
                }
                _ => builder.op(op)?,
            }
        }
        Some(builder.finish())
    }

    /// Whether an array of `rows × cols` holds every cell the plan
    /// touches.
    pub(crate) fn fits(&self, rows: usize, cols: usize) -> bool {
        self.rows <= rows && self.cols <= cols
    }

    /// Runs the kernels in order, then adds the footprint.
    pub(crate) fn apply(&self, array: &mut impl RowKernels) {
        for kernel in &self.kernels {
            match *kernel {
                Kernel::Fill {
                    row,
                    ref cols,
                    value,
                } => array.fill_values(row..row + 1, cols.clone(), value),
                Kernel::Store {
                    out,
                    a,
                    b,
                    ref cols,
                } => array.store_nor(out, a, b, cols.clone()),
                Kernel::Shift {
                    src,
                    dst,
                    ref cols,
                    offset,
                    fill,
                } => array.shift_values(src, dst, cols.clone(), offset, fill),
            }
        }
        for (row, cols, pulses) in &self.wear {
            array.add_wear(*row, cols.clone(), *pulses);
        }
    }
}

/// The lowering state: the kernels emitted so far, at most one
/// pending (not yet emitted) wave per row, and one wear entry per op.
#[derive(Default)]
struct Builder {
    kernels: Vec<Kernel>,
    pending: Vec<Option<(ColRange, bool)>>,
    wear: Vec<(usize, ColRange)>,
    cols: usize,
}

impl Builder {
    /// Lowers one non-bundle op; `None` declines the program.
    fn op(&mut self, op: &MicroOp) -> Option<()> {
        match op {
            MicroOp::InitRows { rows, cols } => {
                rows.iter().try_for_each(|&r| self.wave(r, cols, true))
            }
            MicroOp::ResetRows { rows, cols } => {
                rows.iter().try_for_each(|&r| self.wave(r, cols, false))
            }
            // `run` bounds-checks even an empty row range.
            MicroOp::ResetRegion(region) if region.rows.is_empty() => None,
            MicroOp::ResetRegion(region) => region
                .rows
                .clone()
                .try_for_each(|r| self.wave(r, &region.cols, false)),
            MicroOp::NorRows { inputs, out, cols } => {
                let (a, b) = match inputs[..] {
                    [a] => (a, a),
                    [a, b] => (a, b),
                    _ => return None,
                };
                if a == *out || b == *out {
                    return None;
                }
                self.read(a, cols)?;
                self.read(b, cols)?;
                if self.slot(*out).take() != Some((cols.clone(), true)) {
                    return None;
                }
                self.wrote(*out, cols);
                self.kernels.push(Kernel::Store {
                    out: *out,
                    a,
                    b,
                    cols: cols.clone(),
                });
                Some(())
            }
            MicroOp::Shift {
                src,
                dst,
                cols,
                offset,
                fill,
            } => {
                self.read(*src, cols)?;
                self.overwrite(*dst, cols);
                self.wrote(*dst, cols);
                self.kernels.push(Kernel::Shift {
                    src: *src,
                    dst: *dst,
                    cols: cols.clone(),
                    offset: *offset,
                    fill: *fill,
                });
                Some(())
            }
            _ => None,
        }
    }

    /// A set (`value`) or reset wave on `row`: it becomes the row's
    /// pending wave.
    fn wave(&mut self, row: usize, cols: &ColRange, value: bool) -> Option<()> {
        if cols.is_empty() {
            return None;
        }
        self.overwrite(row, cols);
        self.wrote(row, cols);
        *self.slot(row) = Some((cols.clone(), value));
        Some(())
    }

    /// `row` is read over `cols`: its pending wave must be in place.
    fn read(&mut self, row: usize, cols: &ColRange) -> Option<()> {
        if cols.is_empty() {
            return None;
        }
        self.cols = self.cols.max(cols.end);
        self.flush(row);
        Some(())
    }

    /// `row` is about to be written over `cols`: a pending wave inside
    /// `cols` is dead, any other is flushed first.
    fn overwrite(&mut self, row: usize, cols: &ColRange) {
        match self.slot(row) {
            Some((wave, _)) if cols.start <= wave.start && wave.end <= cols.end => {
                *self.slot(row) = None;
            }
            _ => self.flush(row),
        }
    }

    /// Emits `row`'s pending wave, if any, as a fill.
    fn flush(&mut self, row: usize) {
        if let Some((cols, value)) = self.slot(row).take() {
            self.kernels.push(Kernel::Fill { row, cols, value });
        }
    }

    /// One write pulse on every cell of `row` in `cols`.
    fn wrote(&mut self, row: usize, cols: &ColRange) {
        self.cols = self.cols.max(cols.end);
        self.wear.push((row, cols.clone()));
    }

    fn slot(&mut self, row: usize) -> &mut Option<(ColRange, bool)> {
        if row >= self.pending.len() {
            self.pending.resize(row + 1, None);
        }
        &mut self.pending[row]
    }

    /// Flushes the waves still pending and sums the wear per row.
    fn finish(mut self) -> Plan {
        for row in 0..self.pending.len() {
            self.flush(row);
        }
        let rows = self.pending.len();
        self.wear.sort_by_key(|(row, _)| *row);
        let mut wear: Vec<(usize, ColRange, u64)> = Vec::new();
        let mut edges: Vec<(usize, i64)> = Vec::new();
        for group in self.wear.chunk_by(|x, y| x.0 == y.0) {
            let row = group[0].0;
            edges.clear();
            for (_, cols) in group {
                edges.push((cols.start, 1));
                edges.push((cols.end, -1));
            }
            edges.sort_unstable();
            let (mut level, mut from) = (0i64, 0usize);
            for &(col, step) in &edges {
                if col > from && level > 0 {
                    match wear.last_mut() {
                        // Adjacent runs of one level merge.
                        Some((r, run, p)) if *r == row && run.end == from && *p == level as u64 => {
                            run.end = col;
                        }
                        _ => wear.push((row, from..col, level as u64)),
                    }
                }
                level += step;
                from = col;
            }
        }
        Plan {
            kernels: self.kernels.into(),
            wear: wear.into(),
            rows,
            cols: self.cols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_fuse_drop_or_flush_and_wear_sums_per_row() {
        let plan = Plan::build(&[
            MicroOp::init_rows(&[2, 3, 4], 0..8),
            // Row 2's wave spans the NOR exactly: one store.
            MicroOp::nor_rows(&[0, 1], 2, 0..8),
            // Row 3's wave is overwritten unread: dropped.
            MicroOp::shift_to(2, 3, 0..8, 1, false),
            MicroOp::init_rows(&[5], 0..8),
            // Row 4's wave is read: flushed first.
            MicroOp::not_row(4, 5, 0..8),
            // Still pending at the end: flushed there.
            MicroOp::reset_rows(&[2], 2..6),
        ])
        .expect("planned");
        let store = |out, a, b| Kernel::Store {
            out,
            a,
            b,
            cols: 0..8,
        };
        let fill = |row, cols, value| Kernel::Fill { row, cols, value };
        let shift = Kernel::Shift {
            src: 2,
            dst: 3,
            cols: 0..8,
            offset: 1,
            fill: false,
        };
        assert_eq!(
            *plan.kernels,
            [
                store(2, 0, 1),
                shift,
                fill(4, 0..8, true),
                store(5, 4, 4),
                fill(2, 2..6, false)
            ]
        );
        assert_eq!(
            *plan.wear,
            [
                (2, 0..2, 2),
                (2, 2..6, 3),
                (2, 6..8, 2),
                (3, 0..8, 2),
                (4, 0..8, 1),
                (5, 0..8, 2)
            ]
        );
        assert_eq!((plan.rows, plan.cols), (6, 8));
        assert!(plan.fits(6, 8) && !plan.fits(5, 8) && !plan.fits(6, 7));
    }

    #[test]
    fn unprovable_programs_decline() {
        let init = MicroOp::init_rows(&[2], 0..8);
        let declined = [
            vec![init.clone(), MicroOp::read_row(2, 0..8)],
            vec![MicroOp::write_row(0, &[true; 8]), init.clone()],
            vec![init.clone(), MicroOp::nor_rows(&[0, 1, 3], 2, 0..8)],
            vec![init.clone(), MicroOp::nor_rows(&[0, 2], 2, 0..8)],
            // A wave of another span, a reset wave, no wave.
            vec![init.clone(), MicroOp::nor_rows(&[0, 1], 2, 0..7)],
            vec![
                MicroOp::reset_rows(&[2], 0..8),
                MicroOp::nor_rows(&[0], 2, 0..8),
            ],
            vec![MicroOp::nor_rows(&[0], 2, 0..8)],
            vec![MicroOp::init_rows(&[2], 3..3)],
            vec![MicroOp::reset_region(9..9, 0..8)],
            vec![MicroOp::nor_cols(&[0], 1, 0..2)],
        ];
        for ops in declined {
            assert_eq!(Plan::build(&ops), None, "{ops:?}");
        }
    }
}
