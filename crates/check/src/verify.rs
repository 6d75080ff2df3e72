//! The static rule checker: walks a micro-op program over an abstract
//! per-cell state lattice and collects every rule violation.
//!
//! The abstraction has three states per cell:
//!
//! * **Uninit** — nothing in the program (or the declared preloads)
//!   has given the cell a value; sensing it is a latent bug even
//!   though the simulator would read a physical 0;
//! * **One** — the cell is known to hold logic 1 (set wave, or a
//!   constant `true` row-write): the only legal MAGIC output state;
//! * **Defined** — the cell holds a data-dependent value.
//!
//! Every [`MicroOp`] has an exact transfer function on this lattice
//! because the ISA's control parameters (rows, spans, write payloads)
//! are compile-time constants of the program — only cell *values* are
//! data-dependent, and the lattice never needs them.
//!
//! The lattice is stored as two bit planes, one `u64` word per 64
//! cells of a row: `init` (the cell is not Uninit) and `one` (the cell
//! is One, a subset of `init`). A read-before-init check is then a
//! search for the first clear bit of `init` over a span, the MAGIC
//! output check the same search over `one`, and every write a masked
//! word store into both planes.

use crate::pressure::WritePressure;
use cim_crossbar::{Axis, MicroOp, Region, WordSpan};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Violations collected before verification gives up on a program.
/// Keeps pathological inputs (e.g. fuzzer-mutated programs that are
/// wrong in every op) from producing unbounded reports.
pub const MAX_VIOLATIONS: usize = 64;

/// Array geometry and entry assumptions for a verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyConfig {
    rows: usize,
    cols: usize,
    preloaded: Vec<Region>,
}

impl VerifyConfig {
    /// A config for a `rows × cols` array with nothing preloaded.
    pub fn new(rows: usize, cols: usize) -> Self {
        VerifyConfig {
            rows,
            cols,
            preloaded: Vec::new(),
        }
    }

    /// Declares a region as holding defined data when the program
    /// starts (operands loaded by a surrounding stage).
    pub fn with_preloaded(mut self, region: Region) -> Self {
        self.preloaded.push(region);
        self
    }

    /// Convenience: declares each listed row as preloaded over `cols`.
    pub fn with_preloaded_rows(mut self, rows: &[usize], cols: std::ops::Range<usize>) -> Self {
        for &r in rows {
            self.preloaded.push(Region::new(r..r + 1, cols.clone()));
        }
        self
    }

    /// Word lines of the verified array.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit lines of the verified array.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// One statically-detected program bug. `op` is the index of the
/// offending [`MicroOp`] within the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An op addresses a row outside the array.
    RowOutOfRange {
        /// Program index of the op.
        op: usize,
        /// Highest row the op touches.
        row: usize,
        /// Rows available.
        rows: usize,
    },
    /// An op addresses a column outside the array.
    ColOutOfRange {
        /// Program index of the op.
        op: usize,
        /// Highest column the op touches.
        col: usize,
        /// Columns available.
        cols: usize,
    },
    /// A cell is sensed before anything defined its value.
    ReadBeforeInit {
        /// Program index of the op.
        op: usize,
        /// Row of the uninitialized cell.
        row: usize,
        /// Column of the uninitialized cell.
        col: usize,
    },
    /// A MAGIC output cell is not known to be logic 1 when driven.
    OutputNotInitialized {
        /// Program index of the op.
        op: usize,
        /// Row of the output cell.
        row: usize,
        /// Column of the output cell.
        col: usize,
    },
    /// A MAGIC op lists the same line as both input and output.
    InOutOverlap {
        /// Program index of the op.
        op: usize,
        /// Orientation of the conflicting line.
        axis: Axis,
        /// Conflicting index (partition offset for partitioned ops).
        index: usize,
    },
    /// Partitioned-NOR geometry is inconsistent (zero / non-dividing
    /// partition width, or an offset outside the partition).
    PartitionConflict {
        /// Program index of the op.
        op: usize,
        /// Human-readable description of the conflict.
        detail: String,
    },
    /// A co-issue bundle breaks the issue rules: empty, nested, a
    /// serial-periphery op inside, or two inner ops whose cells
    /// collide (write/write or write/read).
    BundleConflict {
        /// Program index of the bundle op.
        op: usize,
        /// Human-readable description of the conflict.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::RowOutOfRange { op, row, rows } => {
                write!(f, "op {op}: row {row} out of range for {rows}-row array")
            }
            Violation::ColOutOfRange { op, col, cols } => {
                write!(
                    f,
                    "op {op}: column {col} out of range for {cols}-column array"
                )
            }
            Violation::ReadBeforeInit { op, row, col } => {
                write!(
                    f,
                    "op {op}: cell ({row}, {col}) is read before initialization"
                )
            }
            Violation::OutputNotInitialized { op, row, col } => write!(
                f,
                "op {op}: MAGIC output cell ({row}, {col}) is not initialized to logic 1"
            ),
            Violation::InOutOverlap { op, axis, index } => {
                write!(f, "op {op}: MAGIC {axis} {index} is both input and output")
            }
            Violation::PartitionConflict { op, detail } => {
                write!(f, "op {op}: partition conflict: {detail}")
            }
            Violation::BundleConflict { op, detail } => {
                write!(f, "op {op}: bundle conflict: {detail}")
            }
        }
    }
}

/// The verdict of a failed verification: every violation found (up to
/// [`MAX_VIOLATIONS`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Violations in program order.
    pub violations: Vec<Violation>,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} static violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl Error for VerifyError {}

/// Result of a successful verification.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Ops in the verified program.
    pub ops: usize,
    /// Total clock cycles the program will charge.
    pub cycles: u64,
    /// Per-cell write pressure accumulated by the program.
    pub pressure: WritePressure,
}

/// The per-cell lattice the verifier (and the well-formed-program
/// generator) steps over a program, as two bit planes of `wpr` words
/// per row (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct AbstractState {
    rows: usize,
    cols: usize,
    wpr: usize,
    /// Set where the cell is not Uninit.
    init: Vec<u64>,
    /// Set where the cell is One.
    one: Vec<u64>,
}

impl AbstractState {
    pub(crate) fn from_config(config: &VerifyConfig) -> Self {
        let wpr = config.cols.div_ceil(64);
        let mut state = AbstractState {
            rows: config.rows,
            cols: config.cols,
            wpr,
            init: vec![0; config.rows * wpr],
            one: vec![0; config.rows * wpr],
        };
        for region in &config.preloaded {
            let cols = region.cols.start..region.cols.end.min(state.cols);
            if let Some(span) = WordSpan::new(&cols) {
                for r in region.rows.start..region.rows.end.min(state.rows) {
                    state.store(r, span, false);
                }
            }
        }
        state
    }

    /// The word indices of row `r` in either plane.
    fn words(&self, r: usize) -> std::ops::Range<usize> {
        r * self.wpr..(r + 1) * self.wpr
    }

    /// First Uninit cell of `row` over `cols`.
    fn first_uninit(&self, row: usize, cols: &Range<usize>) -> Option<usize> {
        WordSpan::new(cols)?.first_clear(&self.init[self.words(row)])
    }

    /// First cell of `row` over `cols` that is not One.
    fn first_not_one(&self, row: usize, cols: &Range<usize>) -> Option<usize> {
        WordSpan::new(cols)?.first_clear(&self.one[self.words(row)])
    }

    /// Makes every cell of `span` in `row` One (`one`) or Defined.
    fn store(&mut self, row: usize, span: WordSpan, one: bool) {
        let words = self.words(row);
        span.fill(&mut self.init[words.clone()], true);
        span.fill(&mut self.one[words], one);
    }

    /// Writes the `len` cells of `row` from `col_offset` on, making
    /// each Defined, or One where bit `j` of the little-endian `ones`
    /// words is set (bits past `len` are ignored), and records the
    /// wear.
    fn write_ones(
        &mut self,
        row: usize,
        col_offset: usize,
        ones: &[u64],
        len: usize,
        pressure: &mut Option<&mut WritePressure>,
    ) {
        let cols = col_offset..col_offset + len;
        self.write_span(row, &cols, false, pressure);
        let Some(span) = WordSpan::new(&cols) else {
            return;
        };
        let lo = col_offset % 64;
        let words = self.words(row);
        span.rewrite(&mut self.one[words], |ws| {
            let mut prev = 0;
            for (k, w) in ws.iter_mut().enumerate() {
                let cur = ones.get(k).copied().unwrap_or(0);
                *w = if lo == 0 {
                    cur
                } else {
                    (cur << lo) | (prev >> (64 - lo))
                };
                prev = cur;
            }
        });
    }

    /// Drives every cell of `row` over `cols` to One (`one`) or
    /// Defined and records the wear.
    fn write_span(
        &mut self,
        row: usize,
        cols: &Range<usize>,
        one: bool,
        pressure: &mut Option<&mut WritePressure>,
    ) {
        if let Some(span) = WordSpan::new(cols) {
            self.store(row, span, one);
        }
        if let Some(p) = pressure {
            p.record_span(row, cols);
        }
    }

    /// Applies `op` (program index `index`), appending any violations.
    /// An op that is out of bounds or geometrically broken is skipped
    /// entirely (the executor rejects it before touching a cell); all
    /// other ops apply their full transfer function even when they
    /// violate init rules, mirroring lenient execution.
    pub(crate) fn apply(
        &mut self,
        index: usize,
        op: &MicroOp,
        violations: &mut Vec<Violation>,
        mut pressure: Option<&mut WritePressure>,
    ) {
        // Co-issue bundles: re-derive the issue rules here instead of
        // calling the executor's `MicroOp::bundle_conflict`, so the
        // verifier stays an independent implementation of the ISA
        // contract (the differential-testing philosophy of this crate).
        // A legal bundle then applies its inner ops in order — exact,
        // because legality requires pairwise independence.
        if let MicroOp::Parallel(inner) = op {
            if inner.is_empty() {
                violations.push(Violation::BundleConflict {
                    op: index,
                    detail: "bundle is empty".to_string(),
                });
                return;
            }
            for (i, o) in inner.iter().enumerate() {
                if matches!(o, MicroOp::Parallel(_)) {
                    violations.push(Violation::BundleConflict {
                        op: index,
                        detail: format!("inner op {i} is a nested bundle"),
                    });
                    return;
                }
                if !o.can_co_issue() {
                    violations.push(Violation::BundleConflict {
                        op: index,
                        detail: format!("inner op {i} occupies the serial periphery"),
                    });
                    return;
                }
            }
            let fps: Vec<_> = inner.iter().map(MicroOp::footprint).collect();
            for (i, a) in fps.iter().enumerate() {
                for (j, b) in fps.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    // A write colliding with another op's read *or*
                    // write breaks same-cycle determinism; shared
                    // reads are fine (one driven line, many gates).
                    let collides = a.writes.iter().any(|w| {
                        b.writes
                            .iter()
                            .chain(b.reads.iter())
                            .any(|r| w.intersects(r))
                    });
                    if collides {
                        violations.push(Violation::BundleConflict {
                            op: index,
                            detail: format!("inner ops {i} and {j} collide"),
                        });
                        return;
                    }
                }
            }
            for inner_op in inner {
                self.apply(index, inner_op, violations, pressure.as_deref_mut());
            }
            return;
        }

        // Partition geometry first: the footprint of a broken
        // partitioned op is only conservative.
        if let MicroOp::NorColsPartitioned {
            cols,
            part_width,
            in_offsets,
            out_offset,
            ..
        } = op
        {
            let pw = *part_width;
            if pw == 0 || cols.len() % pw != 0 {
                violations.push(Violation::PartitionConflict {
                    op: index,
                    detail: format!(
                        "span of {} columns is not a multiple of partition width {pw}",
                        cols.len()
                    ),
                });
                return;
            }
            if let Some(&off) = in_offsets
                .iter()
                .chain(std::iter::once(out_offset))
                .find(|&&off| off >= pw)
            {
                violations.push(Violation::PartitionConflict {
                    op: index,
                    detail: format!("offset {off} outside partition width {pw}"),
                });
                return;
            }
        }

        // Bounds, from the op's metadata footprint.
        let fp = op.footprint();
        if fp.row_bound() > self.rows {
            violations.push(Violation::RowOutOfRange {
                op: index,
                row: fp.row_bound() - 1,
                rows: self.rows,
            });
            return;
        }
        if fp.col_bound() > self.cols {
            violations.push(Violation::ColOutOfRange {
                op: index,
                col: fp.col_bound() - 1,
                cols: self.cols,
            });
            return;
        }

        // MAGIC in/out overlap: the gate would destroy its own input.
        let overlap = match op {
            MicroOp::NorRows { inputs, out, .. } if inputs.contains(out) => Some((Axis::Row, *out)),
            MicroOp::NorCols {
                in_cols, out_col, ..
            } if in_cols.contains(out_col) => Some((Axis::Col, *out_col)),
            MicroOp::NorColsPartitioned {
                in_offsets,
                out_offset,
                ..
            } if in_offsets.contains(out_offset) => Some((Axis::Col, *out_offset)),
            _ => None,
        };
        if let Some((axis, idx)) = overlap {
            violations.push(Violation::InOutOverlap {
                op: index,
                axis,
                index: idx,
            });
            return;
        }

        // Read-before-init over every sensed cell (one report per op,
        // the first uninitialized cell in region, row, column order).
        let first_uninit = fp.reads.iter().find_map(|region| {
            region
                .rows
                .clone()
                .find_map(|r| Some((r, self.first_uninit(r, &region.cols)?)))
        });
        if let Some((row, col)) = first_uninit {
            violations.push(Violation::ReadBeforeInit {
                op: index,
                row,
                col,
            });
        }

        // MAGIC output-init rule plus the transfer function: each span
        // of output cells is checked, then driven.
        let mut init_reported = false;
        let mut magic_out =
            |state: &mut Self,
             row: usize,
             cols: &Range<usize>,
             pressure: &mut Option<&mut WritePressure>| {
                if !init_reported {
                    if let Some(col) = state.first_not_one(row, cols) {
                        violations.push(Violation::OutputNotInitialized {
                            op: index,
                            row,
                            col,
                        });
                        init_reported = true;
                    }
                }
                state.write_span(row, cols, false, pressure);
            };
        match op {
            MicroOp::WriteRow {
                row,
                col_offset,
                bits,
            } => {
                // Payload bits are program constants, so the lattice
                // stays exact: a written 1 is a legal MAGIC output.
                self.write_ones(*row, *col_offset, bits.words(), bits.len(), &mut pressure);
            }
            MicroOp::WriteRowLanes {
                row,
                col_offset,
                lane_words,
            } => {
                // Lane words differ per lane; a cell is known-One for
                // the MAGIC init rule only when *every* lane writes 1
                // (sound for any active lane count), else just data.
                let mut ones = vec![0u64; lane_words.len().div_ceil(64)];
                for (j, &w) in lane_words.iter().enumerate() {
                    ones[j / 64] |= u64::from(w == u64::MAX) << (j % 64);
                }
                self.write_ones(*row, *col_offset, &ones, lane_words.len(), &mut pressure);
            }
            MicroOp::ReadRow { .. } => {} // read-only; handled above
            MicroOp::InitRows { rows, cols } => {
                for &r in rows {
                    self.write_span(r, cols, true, &mut pressure);
                }
            }
            MicroOp::ResetRegion(region) => {
                for r in region.rows.clone() {
                    self.write_span(r, &region.cols, false, &mut pressure);
                }
            }
            MicroOp::ResetRows { rows, cols } => {
                for &r in rows {
                    self.write_span(r, cols, false, &mut pressure);
                }
            }
            MicroOp::NorRows { out, cols, .. } => {
                magic_out(self, *out, cols, &mut pressure);
            }
            MicroOp::NorCols { out_col, rows, .. } => {
                for r in rows.clone() {
                    magic_out(self, r, &(*out_col..out_col + 1), &mut pressure);
                }
            }
            MicroOp::NorColsPartitioned {
                rows,
                cols,
                part_width,
                out_offset,
                ..
            } => {
                for r in rows.clone() {
                    for base in (cols.start..cols.end).step_by(*part_width) {
                        let col = base + out_offset..base + out_offset + 1;
                        magic_out(self, r, &col, &mut pressure);
                    }
                }
            }
            MicroOp::Shift { dst, cols, .. } => {
                // The source window was checked as a read; every cell
                // of the destination window becomes data (vacated
                // positions take the constant fill, still Defined).
                self.write_span(*dst, cols, false, &mut pressure);
            }
            MicroOp::Parallel(_) => unreachable!("bundles are intercepted at the top of apply"),
        }
    }
}

/// Statically verifies `program` against `config` without executing
/// it.
///
/// The rules checked, in order per op:
///
/// 1. partitioned-NOR geometry is consistent (partition conflicts);
/// 2. every touched row/column is inside the array;
/// 3. no MAGIC op lists a line as both input and output;
/// 4. no cell is sensed while still uninitialized;
/// 5. every MAGIC output cell is known to hold logic 1 when driven.
///
/// On success the report carries the program's exact cycle count and
/// the per-cell write pressure (for endurance-hotspot analysis).
///
/// # Errors
///
/// Returns every violation found (capped at [`MAX_VIOLATIONS`]), in
/// program order.
pub fn verify(program: &[MicroOp], config: &VerifyConfig) -> Result<VerifyReport, VerifyError> {
    let mut state = AbstractState::from_config(config);
    let mut pressure = WritePressure::new(config.rows, config.cols);
    let mut violations = Vec::new();
    let mut cycles = 0u64;
    for (index, op) in program.iter().enumerate() {
        if violations.len() >= MAX_VIOLATIONS {
            break;
        }
        state.apply(index, op, &mut violations, Some(&mut pressure));
        cycles += op.cycles();
    }
    if violations.is_empty() {
        pressure.finish();
        Ok(VerifyReport {
            ops: program.len(),
            cycles,
            pressure,
        })
    } else {
        Err(VerifyError { violations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rows: usize, cols: usize) -> VerifyConfig {
        VerifyConfig::new(rows, cols)
    }

    #[test]
    fn minimal_legal_nor_program_passes() {
        let program = vec![
            MicroOp::write_row(0, &[true, false, true]),
            MicroOp::write_row(1, &[false, false, true]),
            MicroOp::init_rows(&[2], 0..3),
            MicroOp::nor_rows(&[0, 1], 2, 0..3),
            MicroOp::read_row(2, 0..3),
        ];
        let report = verify(&program, &cfg(3, 3)).expect("legal program");
        assert_eq!(report.ops, 5);
        assert_eq!(report.cycles, 5);
        assert_eq!(report.pressure.writes_at(2, 0), 2); // init + drive
    }

    #[test]
    fn detects_read_before_init() {
        let program = vec![MicroOp::read_row(1, 0..2)];
        let err = verify(&program, &cfg(2, 2)).unwrap_err();
        assert_eq!(
            err.violations,
            vec![Violation::ReadBeforeInit {
                op: 0,
                row: 1,
                col: 0
            }]
        );
    }

    #[test]
    fn detects_uninitialized_nor_input() {
        let program = vec![
            MicroOp::init_rows(&[2], 0..2),
            MicroOp::nor_rows(&[0], 2, 0..2), // row 0 never written
        ];
        let err = verify(&program, &cfg(3, 2)).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::ReadBeforeInit {
                op: 1,
                row: 0,
                col: 0
            }
        ));
    }

    #[test]
    fn detects_uninitialized_shift_source() {
        let program = vec![MicroOp::shift(0, 0..4, 1)];
        let err = verify(&program, &cfg(1, 4)).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::ReadBeforeInit { op: 0, .. }
        ));
    }

    #[test]
    fn detects_missing_output_init() {
        let program = vec![
            MicroOp::write_row(0, &[true, true]),
            MicroOp::nor_rows(&[0], 1, 0..2), // out row never set to 1
        ];
        let err = verify(&program, &cfg(2, 2)).unwrap_err();
        assert_eq!(
            err.violations,
            vec![Violation::OutputNotInitialized {
                op: 1,
                row: 1,
                col: 0
            }]
        );
    }

    #[test]
    fn reset_cell_is_not_a_legal_magic_output() {
        let program = vec![
            MicroOp::write_row(0, &[true, true]),
            MicroOp::init_rows(&[1], 0..2),
            MicroOp::reset_rows(&[1], 0..2), // knocks the init back down
            MicroOp::nor_rows(&[0], 1, 0..2),
        ];
        let err = verify(&program, &cfg(2, 2)).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::OutputNotInitialized { op: 3, .. }
        ));
    }

    #[test]
    fn a_driven_output_cannot_be_reused_without_reinit() {
        let program = vec![
            MicroOp::write_row(0, &[false; 2]),
            MicroOp::init_rows(&[1], 0..2),
            MicroOp::nor_rows(&[0], 1, 0..2),
            MicroOp::nor_rows(&[0], 1, 0..2), // second drive: out is stale
        ];
        let err = verify(&program, &cfg(2, 2)).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::OutputNotInitialized { op: 3, .. }
        ));
    }

    #[test]
    fn detects_in_out_overlap_on_both_axes() {
        let program = vec![
            MicroOp::init_rows(&[0, 1], 0..4),
            MicroOp::nor_rows(&[0, 1], 1, 0..4),
        ];
        let err = verify(&program, &cfg(2, 4)).unwrap_err();
        assert_eq!(
            err.violations,
            vec![Violation::InOutOverlap {
                op: 1,
                axis: Axis::Row,
                index: 1
            }]
        );

        let program = vec![
            MicroOp::init_rows(&[0], 0..4),
            MicroOp::nor_cols(&[0, 2], 2, 0..1),
        ];
        let err = verify(&program, &cfg(1, 4)).unwrap_err();
        assert_eq!(
            err.violations,
            vec![Violation::InOutOverlap {
                op: 1,
                axis: Axis::Col,
                index: 2
            }]
        );
    }

    #[test]
    fn detects_out_of_range_rows_and_cols() {
        let err = verify(&[MicroOp::write_row(9, &[true])], &cfg(2, 2)).unwrap_err();
        assert_eq!(
            err.violations,
            vec![Violation::RowOutOfRange {
                op: 0,
                row: 9,
                rows: 2
            }]
        );
        let err = verify(&[MicroOp::write_row(0, &[true; 5])], &cfg(2, 2)).unwrap_err();
        assert_eq!(
            err.violations,
            vec![Violation::ColOutOfRange {
                op: 0,
                col: 4,
                cols: 2
            }]
        );
    }

    #[test]
    fn detects_partition_conflicts() {
        // Span not a multiple of the partition width.
        let program = vec![MicroOp::nor_cols_partitioned(0..1, 0..8, 3, &[0], 1)];
        let err = verify(&program, &cfg(1, 8)).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::PartitionConflict { op: 0, .. }
        ));
        // Offset outside the partition.
        let program = vec![MicroOp::nor_cols_partitioned(0..1, 0..8, 4, &[5], 1)];
        let err = verify(&program, &cfg(1, 8)).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::PartitionConflict { .. }
        ));
        // In/out overlap inside the partition is the overlap rule.
        let program = vec![MicroOp::nor_cols_partitioned(0..1, 0..8, 4, &[1], 1)];
        let err = verify(&program, &cfg(1, 8)).unwrap_err();
        assert_eq!(
            err.violations,
            vec![Violation::InOutOverlap {
                op: 0,
                axis: Axis::Col,
                index: 1
            }]
        );
    }

    #[test]
    fn legal_partitioned_nor_passes() {
        let program = vec![
            MicroOp::write_row(0, &[true; 8]),
            MicroOp::reset_rows(&[0], 2..3),
            MicroOp::reset_rows(&[0], 6..7),
            MicroOp::init_rows(&[0], 2..3),
            MicroOp::init_rows(&[0], 6..7),
            MicroOp::nor_cols_partitioned(0..1, 0..8, 4, &[0, 1], 2),
        ];
        verify(&program, &cfg(1, 8)).expect("legal partitioned program");
    }

    #[test]
    fn preloaded_regions_count_as_defined() {
        let program = vec![
            MicroOp::init_rows(&[2], 0..4),
            MicroOp::nor_rows(&[0, 1], 2, 0..4),
        ];
        // Without preloads: rows 0 and 1 are uninitialized inputs.
        assert!(verify(&program, &cfg(3, 4)).is_err());
        // With the operand rows declared preloaded it passes.
        let config = cfg(3, 4).with_preloaded_rows(&[0, 1], 0..4);
        verify(&program, &config).expect("preloaded operands");
    }

    #[test]
    fn legal_bundle_passes_and_costs_the_max() {
        let program = vec![
            MicroOp::write_row(0, &[true, false, true]),
            MicroOp::write_row(1, &[false, false, true]),
            MicroOp::parallel(vec![
                MicroOp::init_rows(&[2], 0..3),
                MicroOp::init_rows(&[3], 0..3),
            ]),
            MicroOp::parallel(vec![
                MicroOp::nor_rows(&[0, 1], 2, 0..3),
                MicroOp::not_row(0, 3, 0..3),
            ]),
            MicroOp::read_row(2, 0..3),
        ];
        let report = verify(&program, &cfg(4, 3)).expect("legal bundled program");
        assert_eq!(report.ops, 5);
        assert_eq!(report.cycles, 5, "each bundle charges one cycle");
        // Wear is per inner op: both init waves recorded.
        assert_eq!(report.pressure.writes_at(2, 0), 2);
        assert_eq!(report.pressure.writes_at(3, 0), 2);
    }

    #[test]
    fn detects_bundle_conflicts() {
        // Two waves driving the same cells.
        let program = vec![MicroOp::parallel(vec![
            MicroOp::init_rows(&[2], 0..3),
            MicroOp::reset_rows(&[2], 0..3),
        ])];
        let err = verify(&program, &cfg(4, 3)).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::BundleConflict { op: 0, .. }
        ));
        // A NOR reading what a co-issued wave writes.
        let program = vec![
            MicroOp::write_row(0, &[true; 3]),
            MicroOp::init_rows(&[1], 0..3),
            MicroOp::parallel(vec![
                MicroOp::nor_rows(&[0], 1, 0..3),
                MicroOp::reset_rows(&[0], 0..3),
            ]),
        ];
        let err = verify(&program, &cfg(4, 3)).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::BundleConflict { op: 2, .. }
        ));
        // Serial periphery inside a bundle.
        let program = vec![MicroOp::parallel(vec![
            MicroOp::init_rows(&[1], 0..3),
            MicroOp::write_row(0, &[true; 3]),
        ])];
        let err = verify(&program, &cfg(4, 3)).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::BundleConflict { .. }
        ));
        assert!(err.to_string().contains("bundle conflict"));
    }

    #[test]
    fn bundle_inner_ops_still_face_the_lattice_rules() {
        // The bundle is legal per the issue rules, but one inner NOR
        // drives an output that was never initialized to 1.
        let program = vec![
            MicroOp::write_row(0, &[true, false]),
            MicroOp::init_rows(&[1], 0..2),
            MicroOp::parallel(vec![
                MicroOp::nor_rows(&[0], 1, 0..2),
                MicroOp::not_row(0, 2, 0..2), // row 2 never initialized
            ]),
        ];
        let err = verify(&program, &cfg(3, 2)).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::OutputNotInitialized { op: 2, row: 2, .. }
        ));
    }

    #[test]
    fn violations_are_capped() {
        let program: Vec<MicroOp> = (0..200).map(|_| MicroOp::read_row(0, 0..1)).collect();
        let err = verify(&program, &cfg(1, 1)).unwrap_err();
        assert_eq!(err.violations.len(), MAX_VIOLATIONS);
    }

    #[test]
    fn report_cycles_count_shifts_twice() {
        let program = vec![
            MicroOp::write_row(0, &[true, false]),
            MicroOp::shift(0, 0..2, 1),
        ];
        let report = verify(&program, &cfg(1, 2)).unwrap();
        assert_eq!(report.cycles, 3);
    }

    #[test]
    fn error_display_lists_violations() {
        let err = verify(&[MicroOp::read_row(0, 0..1)], &cfg(1, 1)).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("1 static violation"));
        assert!(text.contains("read before initialization"));
    }
}
