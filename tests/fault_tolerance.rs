//! Failure-injection integration tests: stuck-at faults, strict-init
//! policing, and error propagation through the public APIs.

use cim_bigint::Uint;
use cim_crossbar::{Crossbar, CrossbarError, ExecConfig, Executor, Fault};
use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};

/// A stuck-at fault in the carry path must corrupt a carry-heavy
/// addition — and the simulator must report it (not crash, not hang).
#[test]
fn stuck_fault_corrupts_carry_chain() {
    let width = 8;
    let adder = KoggeStoneAdder::new(width);
    // all-ones + 1: every carry matters.
    let a = Uint::from_u64(255);
    let b = Uint::from_u64(1);

    let mut corrupted = 0;
    for col in 0..width {
        let mut array = Crossbar::new(adder.required_rows(), adder.required_cols()).unwrap();
        array.write_row(0, 0, &a.to_bits(width + 1)).unwrap();
        array.write_row(1, 0, &b.to_bits(width + 1)).unwrap();
        // Fault in the generate row of bank A (scratch role 1 → row 4).
        array.inject_fault(4, col, Some(Fault::StuckAt0)).unwrap();
        let mut exec = Executor::with_config(&mut array, ExecConfig { strict_init: false });
        exec.run(&adder.program(AddOp::Add)).unwrap();
        let bits = exec.array().read_row_bits(2, 0..width + 1).unwrap();
        if Uint::from_bits(&bits) != Uint::from_u64(256) {
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "at least one generate-row fault must matter");
}

/// Strict-init mode turns the same fault into a diagnosable error
/// instead of silent corruption.
#[test]
fn strict_mode_flags_stuck_at_zero_output() {
    let adder = KoggeStoneAdder::new(4);
    let mut array = Crossbar::new(adder.required_rows(), adder.required_cols()).unwrap();
    array
        .write_row(0, 0, &Uint::from_u64(5).to_bits(5))
        .unwrap();
    array
        .write_row(1, 0, &Uint::from_u64(3).to_bits(5))
        .unwrap();
    array.inject_fault(4, 0, Some(Fault::StuckAt0)).unwrap();
    let mut exec = Executor::new(&mut array); // strict by default
    let err = exec.run(&adder.program(AddOp::Add)).unwrap_err();
    assert!(matches!(err, CrossbarError::OutputNotInitialized { .. }));
}

/// Out-of-range micro-ops surface as typed errors through every layer.
#[test]
fn geometry_errors_propagate() {
    let mut array = Crossbar::new(2, 2).unwrap();
    let mut exec = Executor::new(&mut array);
    let err = exec
        .step(&cim_crossbar::MicroOp::write_row(7, &[true]))
        .unwrap_err();
    assert!(matches!(
        err,
        CrossbarError::RowOutOfRange { row: 7, rows: 2 }
    ));
    let err = exec
        .step(&cim_crossbar::MicroOp::nor_rows(&[0], 0, 0..1))
        .unwrap_err();
    assert!(matches!(
        err,
        CrossbarError::MagicInOutOverlap {
            axis: cim_crossbar::Axis::Row,
            index: 0
        }
    ));
}

/// A fault-free run after clearing an injected fault is clean again
/// (fault injection must not permanently damage simulator state).
#[test]
fn clearing_faults_restores_correctness() {
    let adder = KoggeStoneAdder::new(6);
    let a = Uint::from_u64(42);
    let b = Uint::from_u64(21);
    let mut array = Crossbar::new(adder.required_rows(), adder.required_cols()).unwrap();
    array.inject_fault(5, 2, Some(Fault::StuckAt1)).unwrap();
    array.inject_fault(5, 2, None).unwrap(); // heal
    array.write_row(0, 0, &a.to_bits(7)).unwrap();
    array.write_row(1, 0, &b.to_bits(7)).unwrap();
    let mut exec = Executor::new(&mut array);
    exec.run(&adder.program(AddOp::Add)).unwrap();
    let bits = exec.array().read_row_bits(2, 0..7).unwrap();
    assert_eq!(Uint::from_bits(&bits), Uint::from_u64(63));
}

/// Exhaustive single-fault matrix over one full TMR lane: a stuck-at
/// fault of either polarity at EVERY cell of lane 0 (operands, sum
/// and all 12 scratch rows, every column) must be outvoted by the two
/// clean lanes. The carry-heavy operands 255 + 1 make every carry
/// position observable, so this sweeps the whole single-fault space
/// of a lane rather than sampling it.
#[test]
fn every_single_lane_fault_is_outvoted() {
    use cim_logic::tmr::TmrAdder;

    let width = 8;
    let adder = TmrAdder::new(width);
    let a = Uint::from_u64(255);
    let b = Uint::from_u64(1);
    let lane_rows = 15; // 3 operand/result + 12 scratch rows per lane
    let mut cases = 0;
    for row in 0..lane_rows {
        for col in 0..width + 1 {
            for fault in [Fault::StuckAt0, Fault::StuckAt1] {
                let (sum, _) = adder
                    .add(&a, &b, &[(row, col, fault)])
                    .unwrap_or_else(|e| panic!("({row}, {col}, {fault:?}): {e}"));
                assert_eq!(
                    sum,
                    Uint::from_u64(256),
                    "single fault ({row}, {col}, {fault:?}) must be outvoted"
                );
                cases += 1;
            }
        }
    }
    assert_eq!(cases, lane_rows * (width + 1) * 2, "full matrix covered");
}

/// Endurance accounting survives fault injection: faulty cells still
/// accumulate wear.
#[test]
fn faulty_cells_still_wear() {
    let mut array = Crossbar::new(1, 1).unwrap();
    array.inject_fault(0, 0, Some(Fault::StuckAt0)).unwrap();
    for _ in 0..5 {
        array.write_row(0, 0, &[true]).unwrap();
    }
    assert_eq!(array.cell(0, 0).unwrap().writes(), 5);
    assert!(!array.read_cell(0, 0).unwrap());
}
