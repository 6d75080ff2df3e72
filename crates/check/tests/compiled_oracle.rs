//! `Executor::run_compiled` against `Executor::run`.
//!
//! A `CompiledProgram` checks its bundles and accumulates its cycle
//! statistics once, when it is built; `run_compiled` then replays only
//! the ops' effects. Here every program the stages replay — the
//! postcompute adder bodies (add and subtract) and the precompute
//! addition pieces of a multiply and of a square, at every
//! optimization level — runs both ways on scalar, packed and sliced
//! arrays, fault-free and with random stuck-at cells. Both ways must
//! leave the same result, statistics, read buffer and cells (raw
//! value, per-cell wear and fault, in every lane). Hand-made programs
//! cover a strict-init failure inside a bundle and after it, illegal
//! bundles, and observed executors (trace recording, a tracer and a
//! meter), which must emit the same events and counters as `run`.

use cim_crossbar::{
    Cell, CompiledProgram, Crossbar, CrossbarError, CycleStats, ExecConfig, Executor, Fault,
    MeterSpec, MicroOp, TraceEntry,
};
use cim_logic::kogge_stone::AddOp;
use cim_metrics::{Labels, MetricsHub};
use cim_mir::OptLevel;
use cim_trace::Tracer;
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::{PrecomputeStage, ROWS as PRE_ROWS};

/// Lanes of the sliced arrays.
const LANES: usize = 3;

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
    Sliced,
}

const BACKENDS: [Backend; 3] = [Backend::Scalar, Backend::Packed, Backend::Sliced];

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
        Backend::Sliced => Crossbar::new_sliced(rows, cols, LANES),
    }
    .unwrap();
    for row in 0..data_rows {
        match backend {
            Backend::Sliced => {
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

/// Asserts that `programs` leave the same outcome both ways on every
/// backend, fault-free and faulted; returns how many faulted runs
/// failed.
fn assert_equivalent(
    what: &str,
    programs: &[CompiledProgram],
    rows: usize,
    cols: usize,
    data_rows: usize,
    seed: u64,
) -> usize {
    let mut failures = 0;
    for backend in BACKENDS {
        for faults in [false, true] {
            let build = || array(backend, rows, cols, data_rows, faults, seed);
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

#[test]
fn stage_programs_replay_exactly_as_run() {
    let mut failures = 0;
    for n in [64usize, 256] {
        for opt in OptLevel::ALL {
            let post = PostcomputeStage::with_opt_level(n, opt).unwrap();
            for op in [AddOp::Add, AddOp::Sub] {
                let body = post.adder_program(op);
                let what = format!("postcompute {op:?} body, n = {n}, {opt:?}");
                let cols = post.adder_width() + 1;
                failures +=
                    assert_equivalent(&what, std::slice::from_ref(body), 20, cols, 8, n as u64);
            }
            let pre = PrecomputeStage::with_opt_level(n, opt).unwrap();
            for square in [false, true] {
                let additions = pre.addition_programs(square);
                let what = format!("precompute additions (square {square}), n = {n}, {opt:?}");
                failures +=
                    assert_equivalent(&what, &additions, PRE_ROWS, pre.cols(), 8, !n as u64);
            }
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
    // once as a serial op.
    let failing = [
        MicroOp::parallel(vec![
            MicroOp::not_row(0, 3, 0..4),
            MicroOp::nor_rows(&[0, 1], 4, 0..4),
        ]),
        MicroOp::nor_rows(&[0, 1], 4, 0..4),
    ];
    for last in failing {
        let program = [CompiledProgram::new(program_ending_with(last)).unwrap()];
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

/// The tracer's events, the meter's counters, the recorded trace
/// entries and the statistics of one observed run.
type Observed = (
    cim_trace::Trace,
    cim_metrics::Snapshot,
    Vec<TraceEntry>,
    CycleStats,
);

/// Runs `program` on a fresh packed array with trace recording, a
/// tracer and a meter attached.
fn observed(program: &CompiledProgram, rows: usize, cols: usize, compiled: bool) -> Observed {
    let mut x = array(Backend::Packed, rows, cols, 8, false, 7);
    let tracer = Tracer::recording();
    let track = tracer.track(tracer.process("xbar"), "ops");
    let hub = MetricsHub::recording();
    let config = ExecConfig {
        strict_init: true,
        record_trace: true,
    };
    let mut exec = Executor::with_config(&mut x, config);
    exec.attach_tracer_at(&tracer, track, 5);
    exec.attach_meter(&MeterSpec::new(&hub, Labels::new().with("tile", 0)));
    if compiled {
        exec.run_compiled(program).unwrap();
    } else {
        exec.run(program.ops()).unwrap();
    }
    let (entries, stats) = (exec.trace().to_vec(), *exec.stats());
    drop(exec);
    (tracer.finish().unwrap(), hub.snapshot(), entries, stats)
}

#[test]
fn observed_runs_emit_what_run_emits() {
    let post = PostcomputeStage::with_opt_level(64, OptLevel::MAX).unwrap();
    let body = post.adder_program(AddOp::Sub);
    let cols = post.adder_width() + 1;
    let run = observed(body, 20, cols, false);
    let compiled = observed(body, 20, cols, true);
    assert!(!run.0.events.is_empty() && !run.2.is_empty());
    assert_eq!(run.3, *body.stats());
    assert!(
        run == compiled,
        "an observed run_compiled must observe what run does"
    );
}
