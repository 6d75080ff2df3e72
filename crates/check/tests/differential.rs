//! Differential fuzzing: random verified programs executed on the
//! cycle-accurate [`Executor`] — once per crossbar backend (bit-packed
//! and per-cell scalar) — and the ideal [`GoldMatrix`] must agree on
//! every trace-visible effect — sensed reads, final cell state, cycle
//! counts — and the executors' measured wear must equal the verifier's
//! statically-predicted write pressure, cell for cell.

use cim_check::{verify, GoldMatrix, ProgramGen, VerifyConfig};
use cim_crossbar::{BackendKind, Crossbar, Executor, MicroOp};
use cim_trace::{EventKind, Tracer};
use proptest::prelude::*;

/// Sensed reads, cycle count, and traced op count of one executor run
/// of `program` on an array with the given backend.
fn run_exec(array: &mut Crossbar, program: &[MicroOp], seed: u64) -> (Vec<Vec<bool>>, u64, usize) {
    let kind = array.backend_kind();
    let tracer = Tracer::recording();
    let track = tracer.track(tracer.process("xbar"), "ops");
    let mut exec = Executor::new(array);
    exec.attach_tracer(&tracer, track);
    let mut reads: Vec<Vec<bool>> = Vec::new();
    for op in program {
        exec.step(op).unwrap_or_else(|e| {
            panic!("seed {seed}: {kind:?} executor rejected verified op {op:?}: {e}")
        });
        if matches!(op, MicroOp::ReadRow { .. }) {
            reads.push(exec.read_buffer().to_vec());
        }
    }
    let cycles = exec.stats().cycles;
    let trace_len = tracer
        .finish()
        .expect("recording tracer")
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Complete { .. }))
        .count();
    (reads, cycles, trace_len)
}

/// Runs one seeded differential case; panics (via assert) on any
/// divergence. Returns (ops, cycles) for meta-assertions.
fn run_case(rows: usize, cols: usize, min_len: usize, seed: u64) -> (usize, u64) {
    let mut gen = ProgramGen::new(rows, cols, seed);
    let program = gen.generate(min_len);

    // The generator's programs must pass the static verifier.
    let config = VerifyConfig::new(rows, cols);
    let report = verify(&program, &config)
        .unwrap_or_else(|err| panic!("seed {seed}: generated program failed verify:\n{err}"));

    // Side A: cycle-accurate executor on BOTH backends, strict init,
    // with trace.
    let mut packed = Crossbar::with_backend(rows, cols, BackendKind::Packed).unwrap();
    let mut scalar = Crossbar::with_backend(rows, cols, BackendKind::Scalar).unwrap();
    let (exec_reads, exec_cycles, trace_len) = run_exec(&mut packed, &program, seed);
    let (scalar_reads, scalar_cycles, _) = run_exec(&mut scalar, &program, seed);
    assert_eq!(
        trace_len,
        program.len(),
        "seed {seed}: trace must record every op"
    );

    // Side B: ideal gold interpreter.
    let mut gold = GoldMatrix::new(rows, cols);
    let gold_reads = gold.run(&program);

    // Trace-visible effects agree.
    assert_eq!(exec_reads, gold_reads, "seed {seed}: sensed reads diverged");
    assert_eq!(
        scalar_reads, exec_reads,
        "seed {seed}: backends' sensed reads diverged"
    );
    // Final state agrees cell-for-cell.
    for r in 0..rows {
        let exec_row = packed.read_row_bits(r, 0..cols).unwrap();
        let gold_row = gold.row_bits(r, 0..cols);
        assert_eq!(
            exec_row, gold_row,
            "seed {seed}: final state of row {r} diverged"
        );
    }
    assert_eq!(
        packed, scalar,
        "seed {seed}: backends' final array state diverged"
    );
    // Cycle accounting agrees across all implementations.
    assert_eq!(
        exec_cycles,
        gold.cycles(),
        "seed {seed}: cycle counts diverged"
    );
    assert_eq!(
        exec_cycles, report.cycles,
        "seed {seed}: verifier cycle estimate diverged"
    );
    assert_eq!(
        exec_cycles, scalar_cycles,
        "seed {seed}: backend cycle counts diverged"
    );
    // Statically-predicted wear equals measured wear on both backends,
    // cell for cell.
    for r in 0..rows {
        for c in 0..cols {
            let predicted = report.pressure.writes_at(r, c);
            assert_eq!(
                packed.cell(r, c).unwrap().writes(),
                predicted,
                "seed {seed}: packed wear prediction diverged at ({r}, {c})"
            );
            assert_eq!(
                scalar.cell(r, c).unwrap().writes(),
                predicted,
                "seed {seed}: scalar wear prediction diverged at ({r}, {c})"
            );
        }
    }
    (program.len(), exec_cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// ≥256 random programs (geometry and seed both fuzzed) agree
    /// between executor and gold model.
    #[test]
    fn executor_matches_gold_model(
        rows in 2usize..=8,
        cols in 2usize..=12,
        min_len in 4usize..=48,
        seed in any::<u64>(),
    ) {
        let (ops, cycles) = run_case(rows, cols, min_len, seed);
        prop_assert!(ops >= min_len);
        prop_assert!(cycles >= ops as u64, "every op costs at least one cycle");
    }
}

/// A pinned regression case so failures in the proptest harness can
/// be bisected against a stable program.
#[test]
fn pinned_seed_is_stable() {
    let (ops, cycles) = run_case(4, 8, 32, 0xdead_beef);
    assert!(ops >= 32);
    assert!(cycles >= ops as u64);
}

/// Degenerate geometries (single row / single column) still agree.
#[test]
fn degenerate_geometries_agree() {
    for seed in 0..16 {
        run_case(1, 4, 12, seed);
        run_case(4, 1, 12, seed);
        run_case(2, 2, 8, seed);
    }
}
