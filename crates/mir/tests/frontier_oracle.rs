//! The row-span analyses against per-cell and pairwise references.
//!
//! * [`dead_write_mask`] keeps its `needed` set as row words, tested,
//!   set and cleared through `cim_crossbar::WordSpan`; the reference
//!   keeps one flag per cell. Arrays run to 200 columns, so spans cross
//!   several word boundaries.
//! * [`dependence_preds`] returns a last-writer/readers frontier; the
//!   reference compares every pair of ops. The frontier must be a
//!   subset of the pairwise hazards with the same transitive closure.
//! * [`parallel_pack`] must emit exactly what the same scheduler emits
//!   when fed the pairwise hazard set.

#[path = "../../check/tests/support/wild.rs"]
mod wild;

use cim_check::ProgramGen;
use cim_crossbar::{MicroOp, OpFootprint, Region};
use cim_mir::{dead_write_mask, dependence_preds, parallel_pack, MirProgram, TileLimits};
use wild::{Rng, Wild};

fn effective_reads(op: &MicroOp, fp: &OpFootprint) -> Vec<Region> {
    let mut reads = fp.reads.clone();
    if op.is_magic() {
        reads.extend(fp.writes.iter().cloned());
    }
    reads
}

fn reference_dead_write_mask(prog: &MirProgram) -> Vec<bool> {
    let (rows, cols) = prog.geometry();
    let mut needed = vec![false; rows * cols];
    let mark = |needed: &mut [bool], region: &Region, value: bool| {
        for r in region.rows.clone() {
            for c in region.cols.clone() {
                if r < rows && c < cols {
                    needed[r * cols + c] = value;
                }
            }
        }
    };
    for region in prog.live_out() {
        mark(&mut needed, region, true);
    }
    let mut keep = vec![true; prog.len()];
    for (i, op) in prog.ops().iter().enumerate().rev() {
        let fp = op.footprint();
        let removable = !matches!(op, MicroOp::ReadRow { .. } | MicroOp::Parallel(_));
        let any_needed = fp.writes.iter().any(|w| {
            w.rows.clone().any(|r| {
                w.cols
                    .clone()
                    .any(|c| r < rows && c < cols && needed[r * cols + c])
            })
        });
        if removable && !fp.writes.is_empty() && !any_needed {
            keep[i] = false;
            continue;
        }
        for w in &fp.writes {
            mark(&mut needed, w, false);
        }
        for u in effective_reads(op, &fp) {
            mark(&mut needed, &u, true);
        }
    }
    keep
}

fn intersect(a: &[Region], b: &[Region]) -> bool {
    a.iter().any(|ra| b.iter().any(|rb| ra.intersects(rb)))
}

/// Every `i < j` with a RAW, WAR or WAW hazard against `j`.
fn pairwise_preds(ops: &[MicroOp]) -> Vec<Vec<usize>> {
    let fps: Vec<OpFootprint> = ops.iter().map(MicroOp::footprint).collect();
    let reads: Vec<Vec<Region>> = ops
        .iter()
        .zip(&fps)
        .map(|(op, fp)| effective_reads(op, fp))
        .collect();
    (0..ops.len())
        .map(|j| {
            (0..j)
                .filter(|&i| {
                    intersect(&fps[i].writes, &reads[j])
                        || intersect(&fps[i].writes, &fps[j].writes)
                        || intersect(&reads[i], &fps[j].writes)
                })
                .collect()
        })
        .collect()
}

/// `reach[j]` holds every op with a path to `j`.
fn closure(deps: &[Vec<usize>]) -> Vec<Vec<bool>> {
    let mut reach: Vec<Vec<bool>> = Vec::with_capacity(deps.len());
    for preds in deps {
        let mut row = vec![false; deps.len()];
        for &p in preds {
            row[p] = true;
            for (i, &r) in reach[p].iter().enumerate() {
                row[i] |= r;
            }
        }
        reach.push(row);
    }
    reach
}

/// `parallel_pack`'s earliest-slot scheduler over given predecessors.
fn reference_pack(ops: &[MicroOp], limits: &TileLimits, deps: &[Vec<usize>]) -> Vec<MicroOp> {
    let mut slots: Vec<Vec<MicroOp>> = Vec::new();
    let mut slot_of = vec![0usize; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        let earliest = deps[i].iter().map(|&p| slot_of[p] + 1).max().unwrap_or(0);
        let mut chosen = None;
        if op.can_co_issue() {
            for (s, slot) in slots.iter().enumerate().skip(earliest) {
                if slot.len() < limits.partitions && slot.iter().all(MicroOp::can_co_issue) {
                    let mut candidate = slot.clone();
                    candidate.push(op.clone());
                    if MicroOp::bundle_conflict(&candidate).is_none() {
                        chosen = Some(s);
                        break;
                    }
                }
            }
        }
        let s = chosen.unwrap_or_else(|| {
            slots.push(Vec::new());
            slots.len() - 1
        });
        slots[s].push(op.clone());
        slot_of[i] = s;
    }
    slots
        .into_iter()
        .map(|mut slot| match slot.len() {
            1 => slot.pop().expect("one op"),
            _ => MicroOp::Parallel(slot),
        })
        .collect()
}

/// Checks all three analyses on one program.
fn assert_agrees(prog: &MirProgram) {
    let ops = prog.ops();
    assert_eq!(
        dead_write_mask(prog),
        reference_dead_write_mask(prog),
        "mask of {ops:?}"
    );
    let deps = dependence_preds(ops);
    let pairwise = pairwise_preds(ops);
    for (j, preds) in deps.iter().enumerate() {
        assert!(
            preds.windows(2).all(|w| w[0] < w[1]),
            "deps[{j}] not ascending"
        );
        assert!(
            preds.iter().all(|p| pairwise[j].contains(p)),
            "deps[{j}] = {preds:?} names an op without a hazard: {ops:?}"
        );
    }
    assert!(
        closure(&deps) == closure(&pairwise),
        "closures differ on {ops:?}"
    );
    let (rows, cols) = prog.geometry();
    for partitions in [1, 2, TileLimits::DEFAULT_PARTITIONS] {
        let limits = TileLimits {
            rows,
            cols,
            partitions,
        };
        assert_eq!(
            parallel_pack(prog, &limits),
            reference_pack(ops, &limits, &pairwise),
            "schedule of {ops:?} at {partitions} partitions"
        );
    }
}

/// Live-out regions inside, across and past the array, some empty,
/// some starting and ending on and beside word boundaries.
fn live_out(rng: &mut Rng, rows: usize, cols: usize) -> Vec<Region> {
    const EDGES: [usize; 4] = [63, 64, 65, 128];
    (0..rng.below(4))
        .map(|_| {
            let r = rng.below(rows + 2);
            let rows = r..r + rng.below(3);
            if rng.below(3) == 0 {
                let first = rng.below(EDGES.len());
                let last = first + rng.below(EDGES.len() - first);
                return Region::new(rows, EDGES[first]..EDGES[last]);
            }
            let c = rng.below(cols + 2);
            Region::new(rows, c..c + rng.below(cols + 2))
        })
        .collect()
}

#[test]
fn generated_programs_agree() {
    for seed in 0..120u64 {
        let mut rng = Rng::new(seed);
        let (rows, cols) = (1 + rng.below(6), 1 + rng.below(200));
        let program = ProgramGen::new(rows, cols, seed).generate(10 + rng.below(50));
        // A prefix drops the final sensing reads, leaving dead writes.
        let prefix = program[..rng.below(program.len() + 1)].to_vec();
        for ops in [program, prefix] {
            let live = live_out(&mut rng, rows, cols);
            let prog = MirProgram::from_ops(rows, cols, ops.clone(), live.clone());
            assert_agrees(&prog);
            // The same ops on a smaller array: regions run past it.
            let (small_rows, small_cols) = (rows.max(2) - 1, cols.max(2) - 1);
            assert_agrees(&MirProgram::from_ops(small_rows, small_cols, ops, live));
            // Packed output feeds back in with co-issue bundles.
            let limits = TileLimits::for_array(rows, cols);
            let packed = parallel_pack(&prog, &limits);
            assert_agrees(&MirProgram::from_ops(
                rows,
                cols,
                packed,
                prog.live_out().to_vec(),
            ));
        }
    }
}

#[test]
fn wild_programs_agree() {
    for seed in 0..300u64 {
        let mut rng = Rng::new(seed);
        let (rows, cols) = (1 + rng.below(5), 1 + rng.below(140));
        let ops = Wild::new(rows, cols, seed).program(1 + rng.below(40));
        let live = live_out(&mut rng, rows, cols);
        assert_agrees(&MirProgram::from_ops(rows, cols, ops, live));
    }
}

#[test]
fn kogge_stone_programs_agree() {
    use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};
    for width in [1usize, 7, 63, 64, 65, 200] {
        let adder = KoggeStoneAdder::new(width);
        for op in [AddOp::Add, AddOp::Sub] {
            assert_agrees(&adder.mir_program(op));
        }
    }
}

#[test]
#[allow(clippy::reversed_empty_ranges)] // reversed spans are among the cases
fn hand_built_edge_cases_agree() {
    let programs: Vec<Vec<MicroOp>> = vec![
        // Zero-width and reversed spans touch nothing.
        vec![
            MicroOp::init_rows(&[1], 0..4),
            MicroOp::read_row(1, 2..2),
            MicroOp::reset_rows(&[1], 3..1),
            MicroOp::init_rows(&[1], 4..4),
            MicroOp::not_row(0, 1, 0..4),
            MicroOp::ResetRegion(Region::new(2..2, 0..4)),
            MicroOp::write_row_at(1, 2, &[]),
        ],
        // Column NORs and partitioned NORs over row ranges.
        vec![
            MicroOp::init_rows(&[0, 1, 2], 3..4),
            MicroOp::nor_cols(&[0, 1], 3, 0..3),
            MicroOp::init_rows(&[0, 1], 2..3),
            MicroOp::nor_cols_partitioned(0..2, 0..4, 2, &[1], 0),
            MicroOp::nor_cols_partitioned(1..3, 0..4, 2, &[0], 1),
            MicroOp::nor_cols_partitioned(0..1, 0..4, 3, &[0], 1),
            MicroOp::read_row(2, 0..4),
        ],
        // Bundles, and ops past the array on both axes.
        vec![
            MicroOp::parallel(vec![
                MicroOp::init_rows(&[2], 0..4),
                MicroOp::init_rows(&[3], 0..4),
            ]),
            MicroOp::parallel(vec![
                MicroOp::nor_rows(&[0, 1], 2, 0..4),
                MicroOp::not_row(0, 3, 0..4),
            ]),
            MicroOp::init_rows(&[7], 0..9),
            MicroOp::nor_rows(&[3], 7, 2..9),
            MicroOp::ResetRegion(Region::new(1..9, 3..70)),
            MicroOp::read_row(7, 0..2),
        ],
    ];
    for ops in programs {
        for live in [
            vec![],
            vec![Region::new(0..4, 0..4)],
            vec![Region::new(2..9, 1..99)],
        ] {
            assert_agrees(&MirProgram::from_ops(4, 4, ops.clone(), live));
        }
    }
    // Word boundaries on a 193-column array (193 % 64 == 1): writes
    // across column 64 and spans ending on the last column, alone in
    // its word, partly overwritten before they are read.
    let mut lanes = vec![u64::MAX; 9];
    lanes[2] = 7;
    let wide = vec![
        MicroOp::write_row_at(1, 60, &[true; 70]),
        MicroOp::write_row_lanes(2, 60, &lanes),
        MicroOp::init_rows(&[2], 63..67),
        MicroOp::nor_rows(&[0], 1, 64..130),
        MicroOp::init_rows(&[3], 100..193),
        MicroOp::reset_rows(&[3], 192..193),
        MicroOp::nor_rows(&[1], 3, 128..193),
        MicroOp::read_row(1, 62..66),
        MicroOp::ResetRegion(Region::new(2..4, 64..129)),
        MicroOp::read_row(3, 191..193),
    ];
    for live in [
        vec![],
        vec![Region::new(0..4, 63..65)],
        vec![Region::new(1..4, 128..193)],
        vec![Region::new(0..4, 192..193)],
    ] {
        assert_agrees(&MirProgram::from_ops(4, 193, wide.clone(), live));
    }
}
