//! Pins the compile set of a 2048-bit multiplier: the `Add` and `Sub`
//! Kogge-Stone adder programs at the precompute width (513 bits) and
//! the postcompute width (3072 bits), lowered at every level above
//! `O0`. A pass rewrite that changes any lowering's shape fails here.

use cim_check::{verify, VerifyConfig};
use cim_crossbar::MicroOp;
use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};
use cim_mir::{program_cycles, program_writes, OptLevel, TileLimits};

/// Shape of one lowering: ops, cycles, co-issue bundles, cell writes
/// and the verifier's peak per-cell writes.
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    ops: usize,
    cycles: u64,
    bundles: usize,
    writes: u64,
    max_writes: u64,
}

fn shape(width: usize, op: AddOp, opt: OptLevel) -> Shape {
    let adder = KoggeStoneAdder::new(width);
    let (rows, cols) = (adder.required_rows(), adder.required_cols());
    let layout = adder.layout();
    let config = VerifyConfig::new(rows, cols).with_preloaded_rows(
        &[layout.x_row, layout.y_row],
        layout.col_base..layout.col_base + width + 1,
    );
    let lowered = adder
        .mir_program(op)
        .lower(opt, &TileLimits::for_array(rows, cols));
    let report = verify(&lowered, &config).expect("lowering verifies");
    Shape {
        ops: lowered.len(),
        cycles: program_cycles(&lowered),
        bundles: lowered
            .iter()
            .filter(|o| matches!(o, MicroOp::Parallel(_)))
            .count(),
        writes: program_writes(&lowered),
        max_writes: report.pressure.max_writes(),
    }
}

#[test]
fn o3_compile_set_totals() {
    let shapes: Vec<Shape> = [513, 3072]
        .into_iter()
        .flat_map(|w| [AddOp::Add, AddOp::Sub].map(|op| shape(w, op, OptLevel::O3)))
        .collect();
    assert_eq!(shapes.iter().map(|s| s.ops).sum::<usize>(), 300);
    assert_eq!(shapes.iter().map(|s| s.cycles).sum::<u64>(), 388);
    assert_eq!(shapes.iter().map(|s| s.max_writes).max(), Some(29));
}

#[test]
fn lowerings_keep_their_shape() {
    let s = |ops, cycles, bundles, writes, max_writes| Shape {
        ops,
        cycles,
        bundles,
        writes,
        max_writes,
    };
    let cases = [
        (513, AddOp::Add, OptLevel::O1, s(102, 122, 0, 91492, 25)),
        (513, AddOp::Add, OptLevel::O2, s(69, 89, 31, 91492, 25)),
        (513, AddOp::Add, OptLevel::O3, s(69, 89, 31, 91492, 25)),
        (513, AddOp::Sub, OptLevel::O1, s(102, 122, 0, 91492, 25)),
        (513, AddOp::Sub, OptLevel::O2, s(69, 89, 33, 91492, 25)),
        (513, AddOp::Sub, OptLevel::O3, s(69, 89, 33, 91492, 25)),
        (3072, AddOp::Add, OptLevel::O1, s(120, 144, 0, 633038, 29)),
        (3072, AddOp::Add, OptLevel::O2, s(81, 105, 37, 633038, 29)),
        (3072, AddOp::Add, OptLevel::O3, s(81, 105, 37, 633038, 29)),
        (3072, AddOp::Sub, OptLevel::O1, s(120, 144, 0, 633038, 29)),
        (3072, AddOp::Sub, OptLevel::O2, s(81, 105, 39, 633038, 29)),
        (3072, AddOp::Sub, OptLevel::O3, s(81, 105, 39, 633038, 29)),
    ];
    for (width, op, opt, expected) in cases {
        assert_eq!(
            shape(width, op, opt),
            expected,
            "{width}-bit {op:?} at {opt}"
        );
    }
}
