//! `Executor::run_compiled` against `Executor::run`.
//!
//! A `CompiledProgram` checks its bundles, accumulates its cycle
//! statistics and lowers its ops into a row-kernel plan once, when it
//! is built; `run_compiled` then runs the plan on fault-free packed
//! and sliced arrays and `run` everywhere else. Here every program the
//! stages run — the postcompute adder bodies (add and subtract), the
//! precompute addition pieces of a multiply and of a square, at every
//! optimization level, and the depth-1 multiplier's stage-1 additions
//! and stage-3 bodies — must be planned, and runs both ways on scalar,
//! packed and sliced (3 and 64 lanes) arrays holding a random value in
//! every cell, fault-free and with random stuck-at cells. Both ways
//! must leave the same result, statistics, read buffer and cells (raw
//! value, per-cell wear and fault, in every lane). Hand-made programs
//! cover a strict-init failure inside a bundle and after it, illegal
//! bundles, and traced executors, which must emit the same events as
//! `run`.

use cim_crossbar::{
    Cell, CompiledProgram, Crossbar, CrossbarError, CycleStats, Executor, Fault, MicroOp,
};
use cim_logic::kogge_stone::AddOp;
use cim_mir::OptLevel;
use cim_trace::{EventKind, Tracer};
use karatsuba_cim::depth1::KaratsubaDepth1Multiplier;
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::{PrecomputeStage, ROWS as PRE_ROWS};

/// A splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

#[derive(Debug, Clone, Copy)]
enum Backend {
    Scalar,
    Packed,
    /// A sliced array with this many lanes.
    Sliced(usize),
}

const BACKENDS: [Backend; 3] = [Backend::Scalar, Backend::Packed, Backend::Sliced(3)];

/// A `rows × cols` array of `backend` with random bits in rows
/// `0..data_rows` (per lane on a sliced array) and, if `faults`,
/// random stuck-at cells anywhere — including scratch rows, so that
/// some runs fail strict init. Equal arguments build equal arrays.
fn array(
    backend: Backend,
    rows: usize,
    cols: usize,
    data_rows: usize,
    faults: bool,
    seed: u64,
) -> Crossbar {
    let mut rng = Rng(seed);
    let mut array = match backend {
        Backend::Scalar => Crossbar::new_scalar(rows, cols),
        Backend::Packed => Crossbar::with_backend(rows, cols, cim_crossbar::BackendKind::Packed),
        Backend::Sliced(lanes) => Crossbar::new_sliced(rows, cols, lanes),
    }
    .unwrap();
    for row in 0..data_rows {
        match backend {
            Backend::Sliced(_) => {
                let words: Vec<u64> = (0..cols).map(|_| rng.next_u64()).collect();
                array.write_row_lanes(row, 0, &words).unwrap();
            }
            _ => {
                let bits: Vec<bool> = (0..cols).map(|_| rng.below(2) == 1).collect();
                array.write_row(row, 0, &bits).unwrap();
            }
        }
    }
    if faults {
        for _ in 0..1 + rows * cols / 256 {
            let (row, col) = (rng.below(rows), rng.below(cols));
            let fault = [Fault::StuckAt0, Fault::StuckAt1][rng.below(2)];
            array.inject_fault(row, col, Some(fault)).unwrap();
        }
    }
    array
}

/// Everything a run leaves observable.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<(), CrossbarError>,
    stats: CycleStats,
    reads: Vec<bool>,
    /// Every cell of every lane, lane-major.
    cells: Vec<Cell>,
}

/// Runs `programs` in order on `array` — with `run_compiled` if
/// `compiled`, else with `run` on their ops — stopping at the first
/// error.
fn outcome(mut array: Crossbar, programs: &[CompiledProgram], compiled: bool) -> Outcome {
    let mut exec = Executor::new(&mut array);
    let result = programs.iter().try_for_each(|p| {
        if compiled {
            exec.run_compiled(p)
        } else {
            exec.run(p.ops())
        }
    });
    let (stats, reads) = (*exec.stats(), exec.read_buffer().to_vec());
    drop(exec);
    let (rows, cols) = (array.rows(), array.cols());
    let cells = (0..array.lanes())
        .flat_map(|lane| (0..rows).flat_map(move |r| (0..cols).map(move |c| (lane, r, c))))
        .map(|(lane, r, c)| array.lane_cell(lane, r, c).unwrap())
        .collect();
    Outcome {
        result,
        stats,
        reads,
        cells,
    }
}

/// Asserts that `programs`, all planned, leave the same outcome both
/// ways on each of `backends`, fault-free and faulted, from a random
/// value in every cell; returns how many faulted runs failed.
fn assert_equivalent(
    what: &str,
    programs: &[CompiledProgram],
    backends: &[Backend],
    (rows, cols): (usize, usize),
    seed: u64,
) -> usize {
    assert!(
        programs.iter().all(CompiledProgram::planned),
        "{what}: a stage program is not planned"
    );
    let mut failures = 0;
    for &backend in backends {
        for faults in [false, true] {
            let build = || array(backend, rows, cols, rows, faults, seed);
            let run = outcome(build(), programs, false);
            let compiled = outcome(build(), programs, true);
            if !faults {
                assert_eq!(run.result, Ok(()), "{what} on {backend:?}");
            }
            failures += usize::from(run.result.is_err());
            assert!(
                run == compiled,
                "{what} on {backend:?}, faults {faults}: run_compiled differs from run"
            );
        }
    }
    failures
}

/// One past the highest row and column `programs` touch.
fn bounds(programs: &[CompiledProgram]) -> (usize, usize) {
    let footprints = programs
        .iter()
        .flat_map(|p| p.ops().iter().map(MicroOp::footprint));
    footprints.fold((0, 0), |(rows, cols), f| {
        (rows.max(f.row_bound()), cols.max(f.col_bound()))
    })
}

#[test]
fn stage_programs_replay_exactly_as_run() {
    let mut failures = 0;
    for n in [64usize, 256] {
        // Every lane of a full sliced word, at the narrow width only:
        // the comparison visits every cell of every lane.
        let backends: &[Backend] = if n == 64 {
            &[BACKENDS[0], BACKENDS[1], BACKENDS[2], Backend::Sliced(64)]
        } else {
            &BACKENDS
        };
        for opt in OptLevel::ALL {
            let post = PostcomputeStage::with_opt_level(n, opt).unwrap();
            let cols = post.adder_width() + 1;
            for op in [AddOp::Add, AddOp::Sub] {
                let body = post.adder_program(op);
                let what = format!("postcompute {op:?} body, n = {n}, {opt:?}");
                let body = std::slice::from_ref(body);
                failures += assert_equivalent(&what, body, backends, (20, cols), n as u64);
            }
            let pre = PrecomputeStage::with_opt_level(n, opt).unwrap();
            for square in [false, true] {
                let additions = pre.addition_programs(square);
                let what = format!("precompute additions (square {square}), n = {n}, {opt:?}");
                let shape = (PRE_ROWS, pre.cols());
                failures += assert_equivalent(&what, &additions, backends, shape, !n as u64);
            }
        }
        let depth1 = KaratsubaDepth1Multiplier::new(n).unwrap();
        let stage1 = depth1.addition_programs();
        let what = format!("depth-1 stage 1, n = {n}");
        failures += assert_equivalent(&what, stage1, backends, bounds(stage1), 3 * n as u64);
        for op in [AddOp::Add, AddOp::Sub] {
            let body = std::slice::from_ref(depth1.adder_program(op));
            let what = format!("depth-1 stage 3 {op:?} body, n = {n}");
            failures += assert_equivalent(&what, body, backends, bounds(body), 5 * n as u64);
        }
    }
    // The faulted runs must exercise the error path too.
    assert!(failures > 0, "no faulted run failed strict init");
}

/// Two operand rows, then an init bundle and a NOR; `last` follows.
fn program_ending_with(last: MicroOp) -> Vec<MicroOp> {
    vec![
        MicroOp::write_row(0, &[true, false, true, false]),
        MicroOp::write_row(1, &[false, false, true, true]),
        MicroOp::read_row(1, 0..4),
        MicroOp::parallel(vec![
            MicroOp::init_rows(&[2], 0..4),
            MicroOp::init_rows(&[3], 0..4),
        ]),
        MicroOp::nor_rows(&[0, 1], 2, 0..4),
        last,
        MicroOp::read_row(2, 0..4),
    ]
}

#[test]
fn strict_init_failure_charges_what_run_charges() {
    // Row 4 is never initialized: the NOR into it fails strict init,
    // once as the second op of a bundle (after the first applied) and
    // once as a serial op. Such a program has no plan, so
    // `run_compiled` is `run`, error and partial charges included.
    let failing = [
        MicroOp::parallel(vec![
            MicroOp::not_row(0, 3, 0..4),
            MicroOp::nor_rows(&[0, 1], 4, 0..4),
        ]),
        MicroOp::nor_rows(&[0, 1], 4, 0..4),
    ];
    for last in failing {
        let program = [CompiledProgram::new(program_ending_with(last)).unwrap()];
        assert!(!program[0].planned());
        for backend in BACKENDS {
            let run = outcome(array(backend, 5, 4, 0, false, 1), &program, false);
            let compiled = outcome(array(backend, 5, 4, 0, false, 1), &program, true);
            assert!(
                matches!(run.result, Err(CrossbarError::OutputNotInitialized { .. })),
                "{backend:?}: {:?}",
                run.result
            );
            assert_ne!(run.stats, *program[0].stats(), "the failed run is partial");
            assert_eq!(run, compiled, "{backend:?}");
        }
    }
}

#[test]
fn illegal_bundles_are_refused_with_the_error_run_returns() {
    let conflicting = MicroOp::parallel(vec![
        MicroOp::init_rows(&[2], 0..4),
        MicroOp::reset_rows(&[2], 0..4),
    ]);
    let nested = MicroOp::parallel(vec![MicroOp::parallel(vec![MicroOp::init_rows(
        &[2],
        0..4,
    )])]);
    for bundle in [conflicting, nested] {
        let program = program_ending_with(bundle);
        let refused = CompiledProgram::new(program.clone()).unwrap_err();
        let mut x = Crossbar::new(5, 4).unwrap();
        let run = Executor::new(&mut x).run(&program).unwrap_err();
        assert!(matches!(refused, CrossbarError::InvalidBundle { .. }));
        assert_eq!(refused, run);
    }
}

/// Runs `program` on a fresh packed array with a recording tracer
/// attached; returns the tracer's events and the statistics.
fn observed(
    program: &CompiledProgram,
    rows: usize,
    cols: usize,
    compiled: bool,
) -> (cim_trace::Trace, CycleStats) {
    let mut x = array(Backend::Packed, rows, cols, rows, false, 7);
    let tracer = Tracer::recording();
    let track = tracer.track(tracer.process("xbar"), "ops");
    let mut exec = Executor::new(&mut x);
    exec.attach_tracer_at(&tracer, track, 5);
    if compiled {
        exec.run_compiled(program).unwrap();
    } else {
        exec.run(program.ops()).unwrap();
    }
    let stats = *exec.stats();
    drop(exec);
    (tracer.finish().unwrap(), stats)
}

#[test]
fn observed_runs_emit_what_run_emits() {
    let post = PostcomputeStage::with_opt_level(64, OptLevel::MAX).unwrap();
    let body = post.adder_program(AddOp::Sub);
    let cols = post.adder_width() + 1;
    let run = observed(body, 20, cols, false);
    let compiled = observed(body, 20, cols, true);
    let spans = run
        .0
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Complete { .. }))
        .count();
    assert_eq!(spans as u64, body.stats().ops, "one span per executed gate");
    assert_eq!(run.1, *body.stats());
    assert!(
        run == compiled,
        "a traced run_compiled must observe what run does"
    );
}
