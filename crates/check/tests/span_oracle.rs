//! `verify` against a per-cell reference lattice.
//!
//! The verifier applies row-wave ops to whole column spans and keeps
//! write pressure in difference form. The reference below steps every
//! cell one at a time, as the verifier's rules read; on every program
//! both must return the same `Ok` report (cycles and every cell's
//! writes) or the same `Err` violation list.

#[path = "support/wild.rs"]
mod wild;

use cim_check::{verify, ProgramGen, VerifyConfig, Violation, MAX_VIOLATIONS};
use cim_crossbar::{Axis, MicroOp, Region};
use wild::{Rng, Wild};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Uninit,
    One,
    Defined,
}

/// The per-cell reference: lattice state plus per-cell write counts.
struct Reference {
    rows: usize,
    cols: usize,
    cells: Vec<Cell>,
    writes: Vec<u64>,
}

impl Reference {
    fn new(rows: usize, cols: usize, preloaded: &[Region]) -> Self {
        let mut state = Reference {
            rows,
            cols,
            cells: vec![Cell::Uninit; rows * cols],
            writes: vec![0; rows * cols],
        };
        for region in preloaded {
            for r in region.rows.clone() {
                for c in region.cols.clone() {
                    if r < rows && c < cols {
                        state.cells[r * cols + c] = Cell::Defined;
                    }
                }
            }
        }
        state
    }

    fn get(&self, r: usize, c: usize) -> Cell {
        self.cells[r * self.cols + c]
    }

    fn write(&mut self, r: usize, c: usize, s: Cell) {
        self.cells[r * self.cols + c] = s;
        self.writes[r * self.cols + c] += 1;
    }

    fn apply(&mut self, index: usize, op: &MicroOp, violations: &mut Vec<Violation>) {
        let bundle = |detail: String| Violation::BundleConflict { op: index, detail };
        if let MicroOp::Parallel(inner) = op {
            if inner.is_empty() {
                violations.push(bundle("bundle is empty".to_string()));
                return;
            }
            for (i, o) in inner.iter().enumerate() {
                if matches!(o, MicroOp::Parallel(_)) {
                    violations.push(bundle(format!("inner op {i} is a nested bundle")));
                    return;
                }
                if !o.can_co_issue() {
                    violations.push(bundle(format!(
                        "inner op {i} occupies the serial periphery"
                    )));
                    return;
                }
            }
            let fps: Vec<_> = inner.iter().map(MicroOp::footprint).collect();
            for (i, a) in fps.iter().enumerate() {
                for (j, b) in fps.iter().enumerate() {
                    let collides = i != j
                        && a.writes
                            .iter()
                            .any(|w| b.writes.iter().chain(&b.reads).any(|r| w.intersects(r)));
                    if collides {
                        violations.push(bundle(format!("inner ops {i} and {j} collide")));
                        return;
                    }
                }
            }
            for inner_op in inner {
                self.apply(index, inner_op, violations);
            }
            return;
        }
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
            if let Some(&off) = in_offsets.iter().chain([out_offset]).find(|&&o| o >= pw) {
                violations.push(Violation::PartitionConflict {
                    op: index,
                    detail: format!("offset {off} outside partition width {pw}"),
                });
                return;
            }
        }
        let fp = op.footprint();
        if fp.row_bound() > self.rows {
            let (row, rows) = (fp.row_bound() - 1, self.rows);
            violations.push(Violation::RowOutOfRange {
                op: index,
                row,
                rows,
            });
            return;
        }
        if fp.col_bound() > self.cols {
            let (col, cols) = (fp.col_bound() - 1, self.cols);
            violations.push(Violation::ColOutOfRange {
                op: index,
                col,
                cols,
            });
            return;
        }
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
        let mut read_reported = false;
        for region in &fp.reads {
            for r in region.rows.clone() {
                for c in region.cols.clone() {
                    if !read_reported && self.get(r, c) == Cell::Uninit {
                        violations.push(Violation::ReadBeforeInit {
                            op: index,
                            row: r,
                            col: c,
                        });
                        read_reported = true;
                    }
                }
            }
        }
        let mut init_reported = false;
        let mut magic_out = |state: &mut Self, r: usize, c: usize| {
            if !init_reported && state.get(r, c) != Cell::One {
                violations.push(Violation::OutputNotInitialized {
                    op: index,
                    row: r,
                    col: c,
                });
                init_reported = true;
            }
            state.write(r, c, Cell::Defined);
        };
        match op {
            MicroOp::WriteRow {
                row,
                col_offset,
                bits,
            } => {
                for (i, b) in bits.iter().enumerate() {
                    self.write(
                        *row,
                        col_offset + i,
                        if b { Cell::One } else { Cell::Defined },
                    );
                }
            }
            MicroOp::WriteRowLanes {
                row,
                col_offset,
                lane_words,
            } => {
                for (i, &w) in lane_words.iter().enumerate() {
                    let s = if w == u64::MAX {
                        Cell::One
                    } else {
                        Cell::Defined
                    };
                    self.write(*row, col_offset + i, s);
                }
            }
            MicroOp::ReadRow { .. } => {}
            MicroOp::InitRows { rows, cols } => {
                for &r in rows {
                    for c in cols.clone() {
                        self.write(r, c, Cell::One);
                    }
                }
            }
            MicroOp::ResetRegion(region) => {
                for r in region.rows.clone() {
                    for c in region.cols.clone() {
                        self.write(r, c, Cell::Defined);
                    }
                }
            }
            MicroOp::ResetRows { rows, cols } => {
                for &r in rows {
                    for c in cols.clone() {
                        self.write(r, c, Cell::Defined);
                    }
                }
            }
            MicroOp::NorRows { out, cols, .. } => {
                for c in cols.clone() {
                    magic_out(self, *out, c);
                }
            }
            MicroOp::NorCols { out_col, rows, .. } => {
                for r in rows.clone() {
                    magic_out(self, r, *out_col);
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
                        magic_out(self, r, base + out_offset);
                    }
                }
            }
            MicroOp::Shift { dst, cols, .. } => {
                for c in cols.clone() {
                    self.write(*dst, c, Cell::Defined);
                }
            }
            MicroOp::Parallel(_) => unreachable!("bundles return above"),
        }
    }
}

/// The reference verdict: `(cycles, per-cell writes)` or the
/// violation list.
fn reference_verify(
    program: &[MicroOp],
    rows: usize,
    cols: usize,
    preloaded: &[Region],
) -> Result<(u64, Vec<u64>), Vec<Violation>> {
    let mut state = Reference::new(rows, cols, preloaded);
    let mut violations = Vec::new();
    let mut cycles = 0;
    for (index, op) in program.iter().enumerate() {
        if violations.len() >= MAX_VIOLATIONS {
            break;
        }
        state.apply(index, op, &mut violations);
        cycles += op.cycles();
    }
    if violations.is_empty() {
        Ok((cycles, state.writes))
    } else {
        Err(violations)
    }
}

/// Asserts `verify` and the reference agree; returns whether the
/// program verified.
fn assert_agrees(program: &[MicroOp], rows: usize, cols: usize, preloaded: &[Region]) -> bool {
    let config = preloaded
        .iter()
        .fold(VerifyConfig::new(rows, cols), |c, r| {
            c.with_preloaded(r.clone())
        });
    match (
        verify(program, &config),
        reference_verify(program, rows, cols, preloaded),
    ) {
        (Ok(report), Ok((cycles, writes))) => {
            assert_eq!(report.ops, program.len());
            assert_eq!(report.cycles, cycles, "cycles of {program:?}");
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(
                        report.pressure.writes_at(r, c),
                        writes[r * cols + c],
                        "writes at ({r}, {c}) of {program:?}"
                    );
                }
            }
            true
        }
        (Err(err), Err(violations)) => {
            assert_eq!(err.violations, violations, "violations of {program:?}");
            false
        }
        (got, want) => panic!("verify gave {got:?}, the reference {want:?}, on {program:?}"),
    }
}

#[test]
fn generated_programs_and_their_mutants_agree() {
    let mut rejected = 0;
    for seed in 0..200u64 {
        let mut rng = Rng::new(seed);
        let (rows, cols) = (1 + rng.below(6), 1 + rng.below(70));
        let program = ProgramGen::new(rows, cols, seed).generate(20 + rng.below(40));
        assert!(assert_agrees(&program, rows, cols, &[]), "seed {seed}");
        // Drop an op, shrink the array, splice in wild ops.
        let mut dropped = program.clone();
        dropped.remove(rng.below(program.len()));
        rejected += usize::from(!assert_agrees(&dropped, rows, cols, &[]));
        let (small_rows, small_cols) = (rows.max(2) - 1, cols.max(2) - 1);
        assert_agrees(&program, small_rows, small_cols, &[]);
        let mut wild = Wild::new(rows, cols, seed);
        let mut spliced = program.clone();
        for _ in 0..3 {
            let at = rng.below(spliced.len() + 1);
            spliced.insert(at, wild.op(true));
        }
        rejected += usize::from(!assert_agrees(&spliced, rows, cols, &[]));
    }
    assert!(
        rejected > 100,
        "mutants should mostly be rejected: {rejected}"
    );
}

#[test]
fn wild_programs_agree() {
    for seed in 0..300u64 {
        let mut rng = Rng::new(seed);
        let (rows, cols) = (1 + rng.below(5), 1 + rng.below(12));
        let preloaded = [
            Region::new(0..rng.below(rows + 3), 0..rng.below(cols + 3)),
            Region::new(rng.below(rows + 2)..rows + 2, rng.below(cols)..cols + 2),
        ];
        let program = Wild::new(rows, cols, seed).program(1 + rng.below(40));
        assert_agrees(&program, rows, cols, &preloaded);
        assert_agrees(&program, rows, cols, &[]);
    }
}

#[test]
fn kogge_stone_lowerings_agree() {
    use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};
    use cim_mir::{OptLevel, TileLimits};
    for width in [1usize, 7, 63, 64, 65, 200] {
        let adder = KoggeStoneAdder::new(width);
        let (rows, cols) = (adder.required_rows(), adder.required_cols());
        let layout = adder.layout();
        let operands = layout.col_base..layout.col_base + width + 1;
        let preloaded = [
            Region::new(layout.x_row..layout.x_row + 1, operands.clone()),
            Region::new(layout.y_row..layout.y_row + 1, operands),
        ];
        for op in [AddOp::Add, AddOp::Sub] {
            let source = adder.mir_program(op);
            for opt in OptLevel::ALL {
                let lowered = source.lower(opt, &TileLimits::for_array(rows, cols));
                assert!(assert_agrees(&lowered, rows, cols, &preloaded));
                // Without its operands the program reads uninitialized cells.
                assert!(!assert_agrees(&lowered, rows, cols, &[]));
            }
        }
    }
}

#[test]
#[allow(clippy::reversed_empty_ranges)] // reversed spans are among the cases
fn hand_built_edge_cases_agree() {
    let full = [Region::new(0..4, 0..6)];
    let cases: Vec<Vec<MicroOp>> = vec![
        // Zero-width and reversed spans touch nothing.
        vec![
            MicroOp::read_row(0, 3..3),
            MicroOp::init_rows(&[1, 2], 2..2),
            MicroOp::reset_rows(&[0], 5..1),
            MicroOp::nor_rows(&[0], 1, 4..4),
            MicroOp::write_row_at(2, 6, &[]),
            MicroOp::shift_to(0, 3, 2..2, 1, true),
        ],
        // Spans reaching the last column skip the difference form's −1.
        vec![
            MicroOp::init_rows(&[3, 3], 0..6),
            MicroOp::nor_rows(&[0, 1], 3, 2..6),
            MicroOp::reset_rows(&[3], 5..6),
            MicroOp::init_rows(&[3], 0..6),
            MicroOp::nor_rows(&[0], 3, 0..6),
            MicroOp::ResetRegion(Region::new(1..4, 3..6)),
        ],
        // Legal and colliding bundles.
        vec![
            MicroOp::parallel(vec![
                MicroOp::init_rows(&[2], 0..6),
                MicroOp::init_rows(&[3], 0..3),
            ]),
            MicroOp::parallel(vec![
                MicroOp::nor_rows(&[0, 1], 2, 0..6),
                MicroOp::not_row(0, 3, 0..3),
            ]),
            MicroOp::parallel(vec![
                MicroOp::init_rows(&[1], 0..3),
                MicroOp::reset_rows(&[1], 2..4),
            ]),
        ],
        vec![MicroOp::Parallel(vec![])],
        vec![MicroOp::parallel(vec![MicroOp::parallel(vec![
            MicroOp::init_rows(&[0], 0..1),
        ])])],
        // Column NORs and partitioned NORs, legal and broken.
        vec![
            MicroOp::init_rows(&[0, 1, 2, 3], 2..3),
            MicroOp::nor_cols(&[0, 1], 2, 0..4),
            MicroOp::nor_cols(&[0], 2, 1..3),
            MicroOp::init_rows(&[0, 1], 2..3),
            MicroOp::init_rows(&[0, 1], 5..6),
            MicroOp::nor_cols_partitioned(0..2, 0..6, 3, &[0, 1], 2),
            MicroOp::nor_cols_partitioned(2..4, 0..6, 3, &[0], 2),
            MicroOp::nor_cols_partitioned(0..1, 0..6, 4, &[0], 1),
            MicroOp::nor_cols_partitioned(0..1, 0..6, 3, &[3], 1),
            MicroOp::nor_cols_partitioned(0..1, 0..6, 0, &[0], 1),
            MicroOp::nor_cols_partitioned(0..1, 0..6, 3, &[1], 1),
        ],
        // Past the geometry on each axis.
        vec![
            MicroOp::read_row(4, 0..1),
            MicroOp::init_rows(&[0], 0..7),
            MicroOp::ResetRegion(Region::new(2..9, 0..1)),
            MicroOp::nor_cols(&[6], 0, 0..1),
            MicroOp::write_row_lanes(1, 5, &[u64::MAX, 1]),
            MicroOp::nor_rows(&[2], 2, 0..6),
        ],
        // Lane writes: only all-ones words make a legal MAGIC output.
        vec![
            MicroOp::write_row_lanes(2, 0, &[u64::MAX, u64::MAX, 7, u64::MAX]),
            MicroOp::nor_rows(&[0], 2, 0..2),
            MicroOp::nor_rows(&[0], 2, 2..4),
        ],
    ];
    for program in &cases {
        for preloaded in [&full[..], &[]] {
            assert_agrees(program, 4, 6, preloaded);
        }
    }
    // More violations than the cap.
    let many: Vec<MicroOp> = (0..100).map(|i| MicroOp::read_row(i % 3, 0..2)).collect();
    assert!(!assert_agrees(&many, 3, 2, &[]));
}
