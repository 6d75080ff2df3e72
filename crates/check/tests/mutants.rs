//! Mutant rejection: seed a real, known-good program with one bug per
//! verifier rule and check the verifier names exactly that rule. This
//! is the evidence that each rule actually fires on realistic
//! programs, not just on hand-built minimal cases.

use cim_check::{verify, VerifyConfig, Violation};
use cim_crossbar::MicroOp;
use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};

/// A verified Kogge–Stone add program plus its config (operand rows
/// preloaded, as the surrounding stage would do).
fn baseline(width: usize) -> (Vec<MicroOp>, VerifyConfig) {
    let adder = KoggeStoneAdder::new(width);
    let program = adder.program(AddOp::Add);
    let span = 0..width + 1;
    let config = VerifyConfig::new(adder.required_rows(), adder.required_cols())
        .with_preloaded_rows(&[0, 1], span);
    (program, config)
}

#[test]
fn baseline_program_verifies_clean() {
    let (program, config) = baseline(8);
    verify(&program, &config).expect("unmutated KS program must pass");
}

/// Rule: MAGIC outputs must be initialized. Deleting the first init
/// wave leaves every scratch row stale.
#[test]
fn dropping_the_init_wave_is_caught() {
    let (mut program, config) = baseline(8);
    let init_at = program
        .iter()
        .position(|op| matches!(op, MicroOp::InitRows { .. }))
        .expect("KS program starts with an init wave");
    program.remove(init_at);
    let err = verify(&program, &config).unwrap_err();
    assert!(
        err.violations
            .iter()
            .any(|v| matches!(v, Violation::OutputNotInitialized { .. })),
        "expected OutputNotInitialized, got:\n{err}"
    );
}

/// Rule: no uninitialized reads. Verifying without declaring the
/// operand rows preloaded means the very first NOR senses garbage.
#[test]
fn missing_operand_preload_is_caught() {
    let adder = KoggeStoneAdder::new(8);
    let program = adder.program(AddOp::Add);
    let config = VerifyConfig::new(adder.required_rows(), adder.required_cols());
    let err = verify(&program, &config).unwrap_err();
    assert!(
        err.violations
            .iter()
            .any(|v| matches!(v, Violation::ReadBeforeInit { .. })),
        "expected ReadBeforeInit, got:\n{err}"
    );
}

/// Rule: MAGIC in/out lines must be distinct. Rewriting one NOR's
/// output to alias its first input is the classic copy-paste bug.
#[test]
fn aliased_nor_output_is_caught() {
    let (mut program, config) = baseline(8);
    let nor_at = program
        .iter()
        .position(|op| matches!(op, MicroOp::NorRows { .. }))
        .expect("KS program contains row NORs");
    if let MicroOp::NorRows { inputs, out, .. } = &mut program[nor_at] {
        *out = inputs[0];
    }
    let err = verify(&program, &config).unwrap_err();
    assert!(
        err.violations
            .iter()
            .any(|v| matches!(v, Violation::InOutOverlap { .. })),
        "expected InOutOverlap, got:\n{err}"
    );
}

/// Rule: rows must stay inside the array. Shifting one NOR's output
/// row past the last word line models an off-by-N layout bug.
#[test]
fn out_of_bounds_row_is_caught() {
    let (mut program, config) = baseline(8);
    let rows = config.rows();
    let nor_at = program
        .iter()
        .position(|op| matches!(op, MicroOp::NorRows { .. }))
        .unwrap();
    if let MicroOp::NorRows { out, .. } = &mut program[nor_at] {
        *out += rows;
    }
    let err = verify(&program, &config).unwrap_err();
    assert!(
        err.violations
            .iter()
            .any(|v| matches!(v, Violation::RowOutOfRange { .. })),
        "expected RowOutOfRange, got:\n{err}"
    );
}

/// Rule: columns must stay inside the array. Widening the final read
/// past the carry column models a width-accounting bug.
#[test]
fn out_of_bounds_column_is_caught() {
    let (mut program, config) = baseline(8);
    let cols = config.cols();
    program.push(MicroOp::read_row(2, 0..cols + 3));
    let err = verify(&program, &config).unwrap_err();
    assert!(
        err.violations
            .iter()
            .any(|v| matches!(v, Violation::ColOutOfRange { .. })),
        "expected ColOutOfRange, got:\n{err}"
    );
}

/// Rule: partitioned-NOR geometry must be consistent. A span that is
/// not a multiple of the partition width is rejected before any state
/// is modeled.
#[test]
fn inconsistent_partition_geometry_is_caught() {
    let (mut program, config) = baseline(8);
    let cols = config.cols();
    program.push(MicroOp::nor_cols_partitioned(
        0..1,
        0..cols,
        cols + 1,
        &[0],
        1,
    ));
    let err = verify(&program, &config).unwrap_err();
    assert!(
        err.violations
            .iter()
            .any(|v| matches!(v, Violation::PartitionConflict { .. })),
        "expected PartitionConflict, got:\n{err}"
    );
}

/// Violations carry the offending op index, so a mutant report points
/// at the exact op that was corrupted.
#[test]
fn violations_locate_the_mutated_op() {
    let (mut program, config) = baseline(4);
    let nor_at = program
        .iter()
        .position(|op| matches!(op, MicroOp::NorRows { .. }))
        .unwrap();
    if let MicroOp::NorRows { inputs, out, .. } = &mut program[nor_at] {
        *out = inputs[0];
    }
    let err = verify(&program, &config).unwrap_err();
    let located = err.violations.iter().any(|v| match v {
        Violation::InOutOverlap { op, .. } => *op == nor_at,
        _ => false,
    });
    assert!(located, "violation must carry op index {nor_at}:\n{err}");
}
