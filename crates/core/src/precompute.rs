//! Stage 1 — precomputation (paper Sec. IV-C).
//!
//! Performs the 10 chunk additions of the L = 2 unrolled Karatsuba
//! tree on a single shared `n/4+1`-bit Kogge-Stone adder. The stage
//! array is `(8 + 10 + 12) × (n/4 + 2)`:
//!
//! * rows 0–7: the eight input chunks `a_0…a_3`, `b_0…b_3`;
//! * rows 8–17: the ten addition results;
//! * rows 18–29: the adder's 12-row scratch region.
//!
//! Latency (exact, verified by tests):
//!
//! ```text
//! 8 + 10·(17 + 11·⌈log2(n/4+1)⌉) + 1   clock cycles
//! ```
//!
//! (8 input-row writes, 10 sequential additions, 1 reset wave.)

use crate::chunks::{decompose_operand, LeafRows, LEAVES};
use cim_bigint::Uint;
use cim_crossbar::{
    CompiledProgram, Crossbar, CrossbarError, CycleStats, EnduranceReport, Executor, MicroOp,
    Region,
};
use cim_logic::kogge_stone::{AddOp, AdderLayout, KoggeStoneAdder, SCRATCH_ROWS};
use cim_logic::read_row_uint;
use cim_mir::{MirProgram, OptLevel, TileLimits};
use cim_trace::{Tracer, TrackId};
use std::sync::{Arc, OnceLock};

/// Output of one precomputation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecomputeOutput {
    /// The nine `a`-side multiplication operands (leaf order).
    pub a_leaves: [Uint; LEAVES],
    /// The nine `b`-side multiplication operands (leaf order).
    pub b_leaves: [Uint; LEAVES],
    /// Exact cycle statistics of the stage.
    pub stats: CycleStats,
    /// Endurance report of the stage array after the run.
    pub endurance: EnduranceReport,
}

/// Output of one bit-sliced batch precomputation run: the leaves of
/// every lane, one shared cycle count (the batch runs the *same*
/// micro-op program a single instance runs). `L` holds one side's
/// leaves: per lane as `Uint`s from [`PrecomputeStage::run_batch`], as
/// [`LeafRows`] lane words from [`PrecomputeStage::run_batch_lanes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPrecomputeOutput<L = Vec<[Uint; LEAVES]>> {
    /// The `a`-side leaf operands.
    pub a_leaves: L,
    /// The `b`-side leaf operands.
    pub b_leaves: L,
    /// Cycle statistics — identical to a solo run.
    pub stats: CycleStats,
    /// Per-lane endurance reports of the stage array.
    pub endurance: Vec<EnduranceReport>,
}

/// The precomputation stage for `n`-bit multiplications.
///
/// ```
/// use cim_bigint::Uint;
/// use karatsuba_cim::precompute::PrecomputeStage;
///
/// # fn main() -> Result<(), cim_crossbar::CrossbarError> {
/// let stage = PrecomputeStage::new(64)?;
/// let out = stage.run(&Uint::from_u64(123), &Uint::from_u64(456))?;
/// assert_eq!(out.stats.cycles, stage.latency());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PrecomputeStage {
    n: usize,
    opt: OptLevel,
    /// The ten tree additions of a multiply, compiled at construction.
    suffix: SuffixProgram,
    /// The five `a`-side additions of a square, compiled on first use
    /// so a stage that never squares never compiles them.
    square_suffix: OnceLock<Result<SuffixProgram, CrossbarError>>,
}

/// A compiled addition suffix: one program per addition, in execution
/// order, so the runners attribute trace spans per addition even when
/// optimization leaves the additions with different lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SuffixProgram {
    /// The per-addition programs, pieces of one op buffer.
    additions: Arc<[CompiledProgram]>,
}

impl SuffixProgram {
    /// Compiles the concatenated per-addition programs `ops`, where
    /// `ends[i]` is one past the last op of addition `i`.
    fn new(ops: Vec<MicroOp>, ends: &[usize]) -> Result<Self, CrossbarError> {
        let additions = crate::progcache::compile_split(ops, ends)?;
        Ok(SuffixProgram {
            additions: additions.into(),
        })
    }

    /// The additions' ops, concatenated.
    fn ops(&self) -> impl Iterator<Item = &MicroOp> {
        self.additions.iter().flat_map(|p| p.ops().iter())
    }

    /// Cycles of the whole suffix.
    fn cycles(&self) -> u64 {
        self.additions.iter().map(|p| p.stats().cycles).sum()
    }
}

// Row map.
const INPUT_BASE: usize = 0; // a0 a1 a2 a3 b0 b1 b2 b3
const RESULT_BASE: usize = 8; // a10 a32 a20 a31 a3210 b10 b32 b20 b31 b3210
const SCRATCH_BASE: usize = 18;
/// Total rows: 8 inputs + 10 results + 12 scratch.
pub const ROWS: usize = 8 + 10 + SCRATCH_ROWS;

/// The ten additions: (x row, y row, result row), in execution order.
/// Rows 10–11 (a20/a31) must precede row 12 (a3210); same for b.
const ADDITIONS: [(usize, usize, usize); 10] = [
    (1, 0, 8),    // a10 = a1 + a0
    (3, 2, 9),    // a32 = a3 + a2
    (2, 0, 10),   // a20 = a2 + a0
    (3, 1, 11),   // a31 = a3 + a1
    (10, 11, 12), // a3210 = a20 + a31
    (5, 4, 13),   // b10
    (7, 6, 14),   // b32
    (6, 4, 15),   // b20
    (7, 5, 16),   // b31
    (15, 16, 17), // b3210
];

/// Leaf order → stage row holding that operand (a side; b side = +? see
/// [`PrecomputeStage::leaf_rows`]).
const A_LEAF_ROWS: [usize; LEAVES] = [0, 1, 8, 2, 3, 9, 10, 11, 12];
const B_LEAF_ROWS: [usize; LEAVES] = [4, 5, 13, 6, 7, 14, 15, 16, 17];

/// Span names of [`ADDITIONS`], in execution order.
const ADDITION_NAMES: [&str; 10] = [
    "add a10",
    "add a32",
    "add a20",
    "add a31",
    "add a3210",
    "add b10",
    "add b32",
    "add b20",
    "add b31",
    "add b3210",
];

impl PrecomputeStage {
    /// Creates the stage for `n`-bit multiplications.
    ///
    /// # Errors
    ///
    /// As [`PrecomputeStage::with_opt_level`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn new(n: usize) -> Result<Self, CrossbarError> {
        Self::with_opt_level(n, OptLevel::O0)
    }

    /// Creates the stage with its addition suffix lowered at `opt`
    /// through the `cim-mir` pass pipeline: above `O0`, dead writes
    /// are eliminated *across* addition boundaries (the inter-addition
    /// scratch resets fall to the next addition's init wave) and, at
    /// `O2`+, each addition is re-packed into co-issue bundles. The
    /// stage compiles the ten additions of a multiply here; the five
    /// of a square compile on the first squaring call.
    ///
    /// # Errors
    ///
    /// [`CrossbarError::InvalidBundle`] if the compiled suffix holds an
    /// illegal co-issue bundle.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn with_opt_level(n: usize, opt: OptLevel) -> Result<Self, CrossbarError> {
        assert!(
            n > 0 && n.is_multiple_of(4),
            "operand width must be a multiple of 4"
        );
        Ok(PrecomputeStage {
            n,
            opt,
            suffix: addition_suffix(n, opt, ADDITIONS.len())?,
            square_suffix: OnceLock::new(),
        })
    }

    /// The optimization level this stage lowers its programs at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt
    }

    /// Adder operand width: `n/4 + 1` bits.
    pub fn adder_width(&self) -> usize {
        self.n / 4 + 1
    }

    /// Columns of the stage array: `n/4 + 2`.
    pub fn cols(&self) -> usize {
        self.n / 4 + 2
    }

    /// Stage area in cells: `30 × (n/4 + 2)` (paper: 1,980 for n=256).
    pub fn area_cells(&self) -> u64 {
        (ROWS * self.cols()) as u64
    }

    /// Latency: 8 chunk writes, the compiled addition suffix's cycles
    /// and 1 reset wave. At `O0` this is the paper's
    /// `8 + 10·(17 + 11·⌈log2(n/4+1)⌉) + 1`.
    pub fn latency(&self) -> u64 {
        8 + self.suffix.cycles() + 1
    }

    /// Rows of the stage array holding the 18 leaf operands after a
    /// run, `(a_rows, b_rows)` in leaf order — the multiplication
    /// stage's handoff reads these.
    pub fn leaf_rows(&self) -> ([usize; LEAVES], [usize; LEAVES]) {
        (A_LEAF_ROWS, B_LEAF_ROWS)
    }

    /// Latency of the squaring variant (`a = b`): only the five
    /// `a`-side additions run — `8 + 5·(17 + 11·⌈log2(n/4+1)⌉) + 1`
    /// at `O0`.
    ///
    /// # Panics
    ///
    /// Panics if the square suffix fails to compile (see
    /// [`PrecomputeStage::with_opt_level`]).
    pub fn square_latency(&self) -> u64 {
        8 + self.compiled_square_suffix().cycles() + 1
    }

    /// The compiled programs the stage runs for its tree additions, in
    /// execution order, after the chunk writes: the ten of a multiply
    /// or, with `square`, the five `a`-side additions
    /// [`PrecomputeStage::run_square`] runs.
    ///
    /// # Panics
    ///
    /// Panics as [`PrecomputeStage::square_latency`] does, with
    /// `square`.
    pub fn addition_programs(&self, square: bool) -> Arc<[CompiledProgram]> {
        let suffix = if square {
            self.compiled_square_suffix()
        } else {
            &self.suffix
        };
        Arc::clone(&suffix.additions)
    }

    /// The five additions of a square, compiled on the first call.
    fn square_suffix(&self) -> Result<&SuffixProgram, CrossbarError> {
        self.square_suffix
            .get_or_init(|| addition_suffix(self.n, self.opt, 5))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// [`PrecomputeStage::square_suffix`] for the infallible accessors.
    fn compiled_square_suffix(&self) -> &SuffixProgram {
        self.square_suffix()
            .unwrap_or_else(|e| panic!("precompute square suffix: {e}"))
    }

    /// The operand-dependent program prefix: one packed write per
    /// chunk row. Always rebuilt — it embeds data bits.
    fn chunk_writes(&self, chunks: &[&Uint]) -> Vec<MicroOp> {
        let cols = self.cols();
        chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| cim_logic::write_row_uint(INPUT_BASE + i, 0, chunk, cols))
            .collect()
    }

    /// The batch counterpart of [`PrecomputeStage::chunk_writes`]: the
    /// chunk rows are column slices of the operands' lane words,
    /// zero-padded to the row, so the whole batch loads in the same 8
    /// cycles.
    fn chunk_writes_lanes(&self, a: &[u64], b: &[u64]) -> Vec<MicroOp> {
        let (q, cols) = (self.n / 4, self.cols());
        a.chunks(q)
            .chain(b.chunks(q))
            .enumerate()
            .map(|(i, chunk)| {
                let mut lane_words = vec![0u64; cols];
                lane_words[..q].copy_from_slice(chunk);
                MicroOp::WriteRowLanes {
                    row: INPUT_BASE + i,
                    col_offset: 0,
                    lane_words,
                }
            })
            .collect()
    }

    /// Runs the stage for up to 64 multiplications at once on a
    /// bit-sliced array: lane `l` computes the leaf operands of
    /// `pairs[l]`. This is [`PrecomputeStage::run_batch_lanes`] with
    /// the operands transposed in and the leaves transposed out.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty, holds more than 64 entries, or an
    /// operand does not fit in `n` bits.
    pub fn run_batch(
        &self,
        pairs: &[(Uint, Uint)],
    ) -> Result<BatchPrecomputeOutput, CrossbarError> {
        let lanes = pairs.len();
        assert!((1..=64).contains(&lanes), "batch must hold 1..=64 lanes");
        let (a, b) = cim_logic::pair_lanes(pairs, self.n);
        let out = self.run_batch_lanes(&a, &b, lanes)?;
        let a_leaves = crate::chunks::leaf_sets(&out.a_leaves, lanes);
        let b_leaves = crate::chunks::leaf_sets(&out.b_leaves, lanes);
        #[cfg(debug_assertions)]
        for (lane, (a, b)) in pairs.iter().enumerate() {
            assert_eq!(
                a_leaves[lane],
                decompose_operand(a, self.n).leaves,
                "lane {lane}"
            );
            assert_eq!(
                b_leaves[lane],
                decompose_operand(b, self.n).leaves,
                "lane {lane}"
            );
        }
        Ok(BatchPrecomputeOutput {
            a_leaves,
            b_leaves,
            stats: out.stats,
            endurance: out.endurance,
        })
    }

    /// [`PrecomputeStage::run_batch`] on operands in lane words (`n`
    /// words each, bit `l` of word `j` = bit `j` of lane `l`'s operand)
    /// for the first `lanes` lanes. The micro-op program is the solo
    /// program with the eight chunk writes staged lane-wise, so the
    /// cycle count equals [`PrecomputeStage::latency`] regardless of
    /// the lane count. The 18 leaf rows come back as read, `n/4 + 2`
    /// lane words each — the row multipliers' operand width.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64` or an operand is not `n`
    /// words long.
    pub fn run_batch_lanes(
        &self,
        a: &[u64],
        b: &[u64],
        lanes: usize,
    ) -> Result<BatchPrecomputeOutput<LeafRows>, CrossbarError> {
        let cols = self.cols();
        assert!((1..=64).contains(&lanes), "batch must hold 1..=64 lanes");
        assert!(
            a.len() == self.n && b.len() == self.n,
            "operands must be {} lane words, got {} and {}",
            self.n,
            a.len(),
            b.len()
        );
        let mut array = Crossbar::new_sliced(ROWS, cols, lanes)?;
        let mut exec = Executor::new(&mut array);
        // The chunk writes and the compiled suffix run back to back.
        let writes = self.chunk_writes_lanes(a, b);
        let suffix = self.verified(&writes, &self.suffix, "PrecomputeStage::batch_program");
        exec.run(&writes)?;
        for addition in suffix.additions.iter() {
            exec.run_compiled(addition)?;
        }

        // One word-level read per leaf row hands it on as it is.
        let mut a_leaves = LeafRows::default();
        let mut b_leaves = LeafRows::default();
        for i in 0..LEAVES {
            a_leaves[i] = cim_logic::read_row_lanes(exec.array(), A_LEAF_ROWS[i], 0..cols, lanes)?;
            b_leaves[i] = cim_logic::read_row_lanes(exec.array(), B_LEAF_ROWS[i], 0..cols, lanes)?;
        }

        exec.step(&MicroOp::reset_region(0..RESULT_BASE + 10, 0..cols))?;
        let stats = *exec.stats();
        let endurance = EnduranceReport::per_lane(&array);
        Ok(BatchPrecomputeOutput {
            a_leaves,
            b_leaves,
            stats,
            endurance,
        })
    }

    /// Returns `suffix` after checking (debug/test builds) that
    /// `writes` followed by it is a verified program — the op sequence
    /// the stage runners execute.
    fn verified<'a>(
        &self,
        writes: &[MicroOp],
        suffix: &'a SuffixProgram,
        what: &str,
    ) -> &'a SuffixProgram {
        if cfg!(debug_assertions) {
            let mut prog = writes.to_vec();
            prog.extend(suffix.ops().cloned());
            cim_check::debug_assert_verified(
                &prog,
                &cim_check::VerifyConfig::new(ROWS, self.cols()),
                what,
            );
        }
        suffix
    }

    /// Composes the chunk writes and the given additions into one
    /// program and statically verifies it (debug/test builds). The
    /// composed program needs no preload declarations: the chunk
    /// writes define every operand the additions consume.
    fn compose_program(&self, chunks: &[&Uint], suffix: &SuffixProgram) -> Vec<MicroOp> {
        let mut prog = self.chunk_writes(chunks);
        let suffix = self.verified(&prog, suffix, "PrecomputeStage::program");
        prog.extend(suffix.ops().cloned());
        prog
    }

    /// The full stage as one verified micro-op program: 8 chunk writes
    /// followed by the 10 tree additions. The closing reset wave is a
    /// separate step because the leaf handoff reads precede it.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `n` bits, or (debug/test
    /// builds) if the composed program fails static verification.
    pub fn program(&self, a: &Uint, b: &Uint) -> Vec<MicroOp> {
        let da = decompose_operand(a, self.n);
        let db = decompose_operand(b, self.n);
        let chunks: Vec<&Uint> = da.chunks.iter().chain(db.chunks.iter()).collect();
        self.compose_program(&chunks, &self.suffix)
    }

    /// The squaring variant of [`PrecomputeStage::program`]: both
    /// operand banks hold `a`'s chunks and only the five `a`-side
    /// additions run.
    ///
    /// # Panics
    ///
    /// Panics as [`PrecomputeStage::program`] and
    /// [`PrecomputeStage::square_latency`] do.
    pub fn square_program(&self, a: &Uint) -> Vec<MicroOp> {
        let da = decompose_operand(a, self.n);
        let chunks: Vec<&Uint> = da.chunks.iter().chain(da.chunks.iter()).collect();
        self.compose_program(&chunks, self.compiled_square_suffix())
    }

    /// Runs the stage for a squaring: the `b`-side sums equal the
    /// `a`-side sums, so only five additions execute and the controller
    /// mirrors the results — the stage runs in
    /// [`PrecomputeStage::square_latency`] cycles.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution, and from compiling
    /// the square suffix on the first call.
    ///
    /// # Panics
    ///
    /// Panics if the operand does not fit in `n` bits.
    pub fn run_square(&self, a: &Uint) -> Result<PrecomputeOutput, CrossbarError> {
        let cols = self.cols();
        let da = decompose_operand(a, self.n);
        let mut array = Crossbar::new(ROWS, cols)?;
        let mut exec = Executor::new(&mut array);
        // The same four chunks go into BOTH operand banks (the paper's
        // write circuit can drive two word lines with the same word,
        // so this still charges 8 write cycles — kept identical to the
        // general case for a conservative count), then the five a-side
        // additions — together one verified program.
        let chunks: Vec<&Uint> = da.chunks.iter().chain(da.chunks.iter()).collect();
        let writes = self.chunk_writes(&chunks);
        let suffix = self.verified(&writes, self.square_suffix()?, "PrecomputeStage::program");
        exec.run(&writes)?;
        for addition in suffix.additions.iter() {
            exec.run_compiled(addition)?;
        }
        let read_leaf = |exec: &Executor<'_>, row: usize| -> Result<Uint, CrossbarError> {
            read_row_uint(exec.array(), row, 0..cols)
        };
        let mut a_leaves: [Uint; LEAVES] = Default::default();
        for i in 0..LEAVES {
            a_leaves[i] = read_leaf(&exec, A_LEAF_ROWS[i])?;
        }
        exec.step(&MicroOp::reset_region(0..RESULT_BASE + 10, 0..cols))?;
        let stats = *exec.stats();
        let endurance = EnduranceReport::from_array(&array);
        debug_assert_eq!(a_leaves, da.leaves);
        Ok(PrecomputeOutput {
            b_leaves: a_leaves.clone(),
            a_leaves,
            stats,
            endurance,
        })
    }

    /// Runs the stage on a fresh array.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `n` bits.
    pub fn run(&self, a: &Uint, b: &Uint) -> Result<PrecomputeOutput, CrossbarError> {
        self.run_traced(a, b, &Tracer::disabled(), TrackId(0), 0)
    }

    /// [`PrecomputeStage::run`] with tracing: the stage is wrapped in a
    /// `precompute` span on `track` starting at `start_cycle`, with the
    /// 8 chunk writes and each of the 10 tree additions as child spans;
    /// the executor's per-op events nest under them.
    ///
    /// The micro-op sequence is identical to the untraced path, so
    /// cycle statistics, wear counts, and results do not change.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `n` bits.
    pub fn run_traced(
        &self,
        a: &Uint,
        b: &Uint,
        tracer: &Tracer,
        track: TrackId,
        start_cycle: u64,
    ) -> Result<PrecomputeOutput, CrossbarError> {
        let n = self.n;
        let cols = self.cols();
        let da = decompose_operand(a, n);
        let db = decompose_operand(b, n);

        let mut array = Crossbar::new(ROWS, cols)?;
        let mut exec = Executor::new(&mut array);
        exec.attach_tracer_at(tracer, track, start_cycle);
        let stage = tracer.span_at(track, "precompute", start_cycle);

        // (i)+(ii) The 8 chunk writes and the ten tree additions —
        // 8 + 10·adder cc. The operand writes are rebuilt per call;
        // the addition suffix is the stage's own, one compiled
        // program per addition, so each addition's op events
        // nest under its own span. The op sequence is identical to
        // [`PrecomputeStage::program`] (checked in debug/test builds
        // by the same static verification).
        let chunks: Vec<&Uint> = da.chunks.iter().chain(db.chunks.iter()).collect();
        let writes_prog = self.chunk_writes(&chunks);
        let suffix = self.verified(&writes_prog, &self.suffix, "PrecomputeStage::program");
        let writes = tracer.span_at(track, "write chunks", start_cycle);
        exec.run(&writes_prog)?;
        writes.end(start_cycle + exec.stats().cycles);
        for (addition, name) in suffix.additions.iter().zip(ADDITION_NAMES) {
            let span = tracer.span_at(track, name, start_cycle + exec.stats().cycles);
            exec.run_compiled(addition)?;
            span.end(start_cycle + exec.stats().cycles);
        }

        // Read the 18 leaves (handoff — charged at the pipeline level).
        let read_leaf = |exec: &Executor<'_>, row: usize| -> Result<Uint, CrossbarError> {
            read_row_uint(exec.array(), row, 0..cols)
        };
        let mut a_leaves: [Uint; LEAVES] = Default::default();
        let mut b_leaves: [Uint; LEAVES] = Default::default();
        for i in 0..LEAVES {
            a_leaves[i] = read_leaf(&exec, A_LEAF_ROWS[i])?;
            b_leaves[i] = read_leaf(&exec, B_LEAF_ROWS[i])?;
        }

        // (iii) Reset the input/result region for the next
        // multiplication — 1 cc.
        exec.step(&MicroOp::reset_region(0..RESULT_BASE + 10, 0..cols))?;
        stage.end(start_cycle + exec.stats().cycles);

        let stats = *exec.stats();
        let endurance = EnduranceReport::from_array(&array);
        // Sanity: the stage must agree with the software decomposition.
        debug_assert_eq!(a_leaves, da.leaves);
        debug_assert_eq!(b_leaves, db.leaves);
        Ok(PrecomputeOutput {
            a_leaves,
            b_leaves,
            stats,
            endurance,
        })
    }
}

/// The layout of the addition with result row `sum` on the shared
/// `width`-bit adder.
fn adder_for(width: usize, x: usize, y: usize, sum: usize) -> KoggeStoneAdder {
    let scratch: [usize; SCRATCH_ROWS] = std::array::from_fn(|i| SCRATCH_BASE + i);
    KoggeStoneAdder::with_layout(
        width,
        AdderLayout {
            x_row: x,
            y_row: y,
            sum_row: sum,
            scratch,
            col_base: 0,
        },
    )
}

/// Compiles the operand-independent addition suffix covering the
/// first `additions` entries of [`ADDITIONS`] for `n`-bit operands at
/// `opt`.
///
/// Above `O0` the suffix is optimized as a *whole* (cross-stage
/// program fusion): dead-write elimination runs over the
/// concatenation with the result and scratch rows as live-out, so
/// each addition's trailing scratch reset — overwritten unread by
/// the next addition's init wave — is eliminated for all but the
/// last addition, along with the per-adder dead ops. At `O2`+ each
/// addition is then re-packed into co-issue bundles individually
/// (bundles never straddle addition boundaries, preserving
/// per-addition trace attribution).
fn addition_suffix(
    n: usize,
    opt: OptLevel,
    additions: usize,
) -> Result<SuffixProgram, CrossbarError> {
    let (width, cols) = (n / 4 + 1, n / 4 + 2);
    let parts: Vec<_> = ADDITIONS[..additions]
        .iter()
        .map(|&(x, y, sum)| adder_for(width, x, y, sum).program(AddOp::Add))
        .collect();
    if opt == OptLevel::O0 {
        let mut ops = Vec::new();
        let mut ends = Vec::with_capacity(additions);
        for part in parts {
            ops.extend(part);
            ends.push(ops.len());
        }
        return SuffixProgram::new(ops, &ends);
    }
    // Tag every op with its addition, fuse, and eliminate dead
    // writes across the whole suffix. Live-out: the ten result
    // rows plus the scratch region (which the stage contract
    // requires reset — keeping exactly the final reset alive).
    let mut tags = Vec::new();
    let mut fused = Vec::new();
    for (i, part) in parts.into_iter().enumerate() {
        tags.extend(std::iter::repeat_n(i, part.len()));
        fused.extend(part);
    }
    let mut live_out = vec![Region::new(RESULT_BASE..RESULT_BASE + 10, 0..cols)];
    live_out.push(Region::new(
        SCRATCH_BASE..SCRATCH_BASE + SCRATCH_ROWS,
        0..cols,
    ));
    let whole = MirProgram::from_ops(ROWS, cols, fused, live_out);
    let keep = cim_mir::dead_write_mask(&whole);
    let limits = TileLimits::for_array(ROWS, cols);
    let mut ops: Vec<MicroOp> = Vec::new();
    let mut ends = Vec::with_capacity(additions);
    for i in 0..additions {
        let kept: Vec<MicroOp> = (0..whole.len())
            .filter(|&j| keep[j] && tags[j] == i)
            .map(|j| whole.ops()[j].clone())
            .collect();
        if opt >= OptLevel::O2 {
            let frag = MirProgram::from_ops(ROWS, cols, kept, Vec::new());
            ops.extend(cim_mir::parallel_pack(&frag, &limits));
        } else {
            ops.extend(kept);
        }
        ends.push(ops.len());
    }
    SuffixProgram::new(ops, &ends)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::UintRng;

    #[test]
    fn leaves_match_software_decomposition() {
        let mut rng = UintRng::seeded(9);
        for n in [16usize, 64, 128] {
            let stage = PrecomputeStage::new(n).unwrap();
            let a = rng.uniform(n);
            let b = rng.uniform(n);
            let out = stage.run(&a, &b).unwrap();
            let da = decompose_operand(&a, n);
            let db = decompose_operand(&b, n);
            assert_eq!(out.a_leaves, da.leaves, "n = {n}");
            assert_eq!(out.b_leaves, db.leaves, "n = {n}");
        }
    }

    #[test]
    fn measured_cycles_equal_paper_formula() {
        for n in [16usize, 64, 128, 256, 384] {
            let stage = PrecomputeStage::new(n).unwrap();
            let a = Uint::pow2(n).sub(&Uint::one());
            let out = stage.run(&a, &a).unwrap();
            assert_eq!(out.stats.cycles, stage.latency(), "n = {n}");
            // Cross-check against the closed form.
            let q = n / 4;
            let levels = (usize::BITS - (q + 1 - 1).leading_zeros()) as u64;
            assert_eq!(stage.latency(), 8 + 10 * (17 + 11 * levels) + 1, "n = {n}");
        }
    }

    #[test]
    fn batch_leaves_match_solo_runs_at_solo_cycle_cost() {
        let mut rng = UintRng::seeded(41);
        for (n, lanes) in [(16usize, 5usize), (64, 64)] {
            let stage = PrecomputeStage::new(n).unwrap();
            let pairs: Vec<(Uint, Uint)> = (0..lanes)
                .map(|_| (rng.uniform(n), rng.uniform(n)))
                .collect();
            let batch = stage.run_batch(&pairs).unwrap();
            assert_eq!(batch.stats.cycles, stage.latency(), "n = {n}");
            assert_eq!(batch.endurance.len(), lanes);
            for (lane, (a, b)) in pairs.iter().enumerate() {
                let solo = stage.run(a, b).unwrap();
                assert_eq!(batch.a_leaves[lane], solo.a_leaves, "lane {lane}, n = {n}");
                assert_eq!(batch.b_leaves[lane], solo.b_leaves, "lane {lane}, n = {n}");
                assert_eq!(batch.stats, solo.stats, "lane {lane}, n = {n}");
                // The stage program is lane-oblivious after the chunk
                // writes, so per-lane wear equals the solo array's.
                assert_eq!(
                    batch.endurance[lane], solo.endurance,
                    "lane {lane}, n = {n}"
                );
            }
        }
    }

    /// The chunk writes stage each chunk row as the lane-wise
    /// transpose of that chunk of every lane, and the leaf rows the
    /// stage hands on are the transposed leaves — exactly the payloads
    /// the row multipliers' `load_batch_program` builds from them.
    #[test]
    fn staged_lane_payloads_are_the_transposed_uint_operands() {
        use cim_crossbar::lanes::transpose_lanes;
        use cim_logic::multpim::RowMultiplier;
        let mut rng = UintRng::seeded(59);
        for (n, lanes) in [(16usize, 1usize), (64, 37), (384, 64)] {
            let stage = PrecomputeStage::new(n).unwrap();
            let cols = stage.cols();
            let ones = Uint::pow2(n).sub(&Uint::one());
            let pairs: Vec<(Uint, Uint)> = (0..lanes)
                .map(|lane| match lane % 3 {
                    0 => (ones.clone(), Uint::pow2(n - 1)),
                    1 => (rng.uniform(n), Uint::zero()),
                    _ => (rng.uniform(n), rng.uniform(n)),
                })
                .collect();
            let (a, b) = cim_logic::pair_lanes(&pairs, n);
            let da: Vec<_> = pairs.iter().map(|(a, _)| decompose_operand(a, n)).collect();
            let db: Vec<_> = pairs.iter().map(|(_, b)| decompose_operand(b, n)).collect();

            let writes = stage.chunk_writes_lanes(&a, &b);
            assert_eq!(writes.len(), 8);
            for (i, write) in writes.iter().enumerate() {
                let side = if i < 4 { &da } else { &db };
                let refs: Vec<&[u64]> = side.iter().map(|d| d.chunks[i % 4].limbs()).collect();
                let expected =
                    MicroOp::write_row_lanes(INPUT_BASE + i, 0, &transpose_lanes(&refs, cols));
                assert_eq!(*write, expected, "n = {n}, chunk row {i}");
            }

            let out = stage.run_batch_lanes(&a, &b, lanes).unwrap();
            let mult = RowMultiplier::new(n / 4 + 2);
            for i in 0..LEAVES {
                let a_refs: Vec<&[u64]> = da.iter().map(|d| d.leaves[i].limbs()).collect();
                let b_refs: Vec<&[u64]> = db.iter().map(|d| d.leaves[i].limbs()).collect();
                assert_eq!(
                    out.a_leaves[i],
                    transpose_lanes(&a_refs, cols),
                    "n = {n}, leaf {i}"
                );
                assert_eq!(
                    out.b_leaves[i],
                    transpose_lanes(&b_refs, cols),
                    "n = {n}, leaf {i}"
                );
                let leaf_pairs: Vec<(Uint, Uint)> = da
                    .iter()
                    .zip(&db)
                    .map(|(x, y)| (x.leaves[i].clone(), y.leaves[i].clone()))
                    .collect();
                assert_eq!(
                    mult.load_lanes_program(i, 0, &out.a_leaves[i], &out.b_leaves[i]),
                    mult.load_batch_program(i, 0, &leaf_pairs),
                    "n = {n}, leaf {i}"
                );
            }
        }
    }

    #[test]
    fn area_matches_paper_example() {
        // n = 256: 30 × 66 = 1,980 memristors (paper Sec. IV-C).
        assert_eq!(PrecomputeStage::new(256).unwrap().area_cells(), 1980);
    }

    #[test]
    fn array_is_clean_after_run() {
        let stage = PrecomputeStage::new(32).unwrap();
        // The result region reset is part of the program; verify by
        // running twice — a dirty array would corrupt MAGIC init checks.
        let a = Uint::from_u64(0xDEADBEEF);
        let out1 = stage.run(&a, &a).unwrap();
        let out2 = stage.run(&a, &a).unwrap();
        assert_eq!(out1.a_leaves, out2.a_leaves);
    }

    #[test]
    fn zero_operands() {
        let stage = PrecomputeStage::new(16).unwrap();
        let out = stage.run(&Uint::zero(), &Uint::zero()).unwrap();
        for leaf in &out.a_leaves {
            assert!(leaf.is_zero());
        }
    }
}
