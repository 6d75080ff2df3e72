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

use crate::chunks::{decompose_operand, LEAVES};
use crate::progcache::SuffixProgram;
use cim_bigint::Uint;
use cim_crossbar::{CompiledProgram, Crossbar, CrossbarError, CycleStats, EnduranceReport, Executor, MicroOp, Region};
use cim_logic::kogge_stone::{AddOp, AdderLayout, KoggeStoneAdder, SCRATCH_ROWS};
use cim_logic::read_row_uint;
use cim_mir::{MirProgram, OptLevel, TileLimits};
use cim_trace::{TrackId, Tracer};
use std::sync::Arc;

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

/// Output of one bit-sliced batch precomputation run: one leaf set
/// per lane, one shared cycle count (the batch runs the *same*
/// micro-op program a single instance runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPrecomputeOutput {
    /// Per-lane `a`-side leaf operands.
    pub a_leaves: Vec<[Uint; LEAVES]>,
    /// Per-lane `b`-side leaf operands.
    pub b_leaves: Vec<[Uint; LEAVES]>,
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
    (1, 0, 8),   // a10 = a1 + a0
    (3, 2, 9),   // a32 = a3 + a2
    (2, 0, 10),  // a20 = a2 + a0
    (3, 1, 11),  // a31 = a3 + a1
    (10, 11, 12), // a3210 = a20 + a31
    (5, 4, 13),  // b10
    (7, 6, 14),  // b32
    (6, 4, 15),  // b20
    (7, 5, 16),  // b31
    (15, 16, 17), // b3210
];

/// Leaf order → stage row holding that operand (a side; b side = +? see
/// [`PrecomputeStage::leaf_rows`]).
const A_LEAF_ROWS: [usize; LEAVES] = [0, 1, 8, 2, 3, 9, 10, 11, 12];
const B_LEAF_ROWS: [usize; LEAVES] = [4, 5, 13, 6, 7, 14, 15, 16, 17];

/// Span names of [`ADDITIONS`], in execution order.
const ADDITION_NAMES: [&str; 10] = [
    "add a10", "add a32", "add a20", "add a31", "add a3210", "add b10", "add b32", "add b20",
    "add b31", "add b3210",
];

impl PrecomputeStage {
    /// Creates the stage for `n`-bit multiplications.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for interface stability with
    /// the other stages.
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
    /// optimized suffix is verifier-gated and cached per
    /// `(width, count, opt)`.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for interface stability.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn with_opt_level(n: usize, opt: OptLevel) -> Result<Self, CrossbarError> {
        assert!(n > 0 && n.is_multiple_of(4), "operand width must be a multiple of 4");
        Ok(PrecomputeStage { n, opt })
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
        8 + self.addition_suffix(ADDITIONS.len()).cycles() + 1
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
    pub fn square_latency(&self) -> u64 {
        8 + self.addition_suffix(5).cycles() + 1
    }

    /// The compiled programs the stage runs for its tree additions, in
    /// execution order, after the chunk writes: the ten of a multiply
    /// or, with `square`, the five `a`-side additions
    /// [`PrecomputeStage::run_square`] runs.
    pub fn addition_programs(&self, square: bool) -> Arc<[CompiledProgram]> {
        let additions = if square { 5 } else { ADDITIONS.len() };
        self.addition_suffix(additions).additions
    }

    /// The layout of the addition with result row `sum` on the stage's
    /// shared adder.
    fn adder_for(&self, x: usize, y: usize, sum: usize) -> KoggeStoneAdder {
        let scratch: [usize; SCRATCH_ROWS] = std::array::from_fn(|i| SCRATCH_BASE + i);
        KoggeStoneAdder::with_layout(
            self.adder_width(),
            AdderLayout {
                x_row: x,
                y_row: y,
                sum_row: sum,
                scratch,
                col_base: 0,
            },
        )
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

    /// The batch counterpart of [`PrecomputeStage::chunk_writes`]:
    /// each input row's write carries one lane word per column, so the
    /// whole batch loads in the same 8 cycles.
    fn chunk_writes_batch(&self, chunk_rows: &[Vec<&Uint>]) -> Vec<MicroOp> {
        let cols = self.cols();
        chunk_rows
            .iter()
            .enumerate()
            .map(|(i, lanes)| {
                let refs: Vec<&[u64]> = lanes
                    .iter()
                    .inspect(|chunk| {
                        assert!(
                            chunk.bit_len() <= cols,
                            "chunk of {} bits does not fit in {} columns",
                            chunk.bit_len(),
                            cols
                        );
                    })
                    .map(|chunk| chunk.limbs())
                    .collect();
                let words = cim_crossbar::lanes::transpose_lanes(&refs, cols);
                MicroOp::write_row_lanes(INPUT_BASE + i, 0, &words)
            })
            .collect()
    }

    /// Runs the stage for up to 64 multiplications at once on a
    /// bit-sliced array: lane `l` computes the leaf operands of
    /// `pairs[l]`. The micro-op program is the solo program with the
    /// eight chunk writes staged lane-wise, so the cycle count equals
    /// [`PrecomputeStage::latency`] regardless of the lane count.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty, holds more than 64 entries, or an
    /// operand does not fit in `n` bits.
    pub fn run_batch(&self, pairs: &[(Uint, Uint)]) -> Result<BatchPrecomputeOutput, CrossbarError> {
        let cols = self.cols();
        assert!(
            !pairs.is_empty() && pairs.len() <= 64,
            "batch must hold 1..=64 lanes"
        );
        let chunk_bits = self.n / 4;
        let split: Vec<(Vec<Uint>, Vec<Uint>)> = pairs
            .iter()
            .map(|(a, b)| (a.split_chunks(chunk_bits, 4), b.split_chunks(chunk_bits, 4)))
            .collect();
        // Row-major chunk staging: row i holds chunk i of every lane.
        let chunk_rows: Vec<Vec<&Uint>> = (0..8)
            .map(|i| {
                split
                    .iter()
                    .map(|(ca, cb)| if i < 4 { &ca[i] } else { &cb[i - 4] })
                    .collect()
            })
            .collect();

        let mut array = Crossbar::new_sliced(ROWS, cols, pairs.len())?;
        let mut exec = Executor::new(&mut array);
        // The chunk writes and the cached suffix run back to back.
        let writes = self.chunk_writes_batch(&chunk_rows);
        let suffix = self.verified_suffix(&writes, ADDITIONS.len(), "PrecomputeStage::batch_program");
        exec.run(&writes)?;
        for addition in suffix.additions.iter() {
            exec.run_compiled(addition)?;
        }

        // One word-level read per leaf row; `lane_limbs` fans the
        // column words back out into per-lane values.
        let read_leaf_row = |exec: &Executor<'_>, row: usize| -> Result<Vec<Uint>, CrossbarError> {
            let mut row_cols = Vec::new();
            exec.array().read_row_lane_words(row, 0..cols, &mut row_cols)?;
            Ok(cim_crossbar::lanes::lane_limbs(&row_cols, pairs.len())
                .into_iter()
                .map(Uint::from_limbs)
                .collect())
        };
        let mut a_rows: [Vec<Uint>; LEAVES] = Default::default();
        let mut b_rows: [Vec<Uint>; LEAVES] = Default::default();
        for i in 0..LEAVES {
            a_rows[i] = read_leaf_row(&exec, A_LEAF_ROWS[i])?;
            b_rows[i] = read_leaf_row(&exec, B_LEAF_ROWS[i])?;
        }
        let mut a_leaves = Vec::with_capacity(pairs.len());
        let mut b_leaves = Vec::with_capacity(pairs.len());
        for lane in 0..pairs.len() {
            let a_set: [Uint; LEAVES] = std::array::from_fn(|i| a_rows[i][lane].clone());
            let b_set: [Uint; LEAVES] = std::array::from_fn(|i| b_rows[i][lane].clone());
            #[cfg(debug_assertions)]
            {
                let (a, b) = &pairs[lane];
                assert_eq!(a_set, decompose_operand(a, self.n).leaves, "lane {lane}");
                assert_eq!(b_set, decompose_operand(b, self.n).leaves, "lane {lane}");
            }
            a_leaves.push(a_set);
            b_leaves.push(b_set);
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

    /// The operand-independent addition suffix covering the first
    /// `additions` entries of [`ADDITIONS`], compiled once per
    /// `(adder width, count, opt)` and shared via [`crate::progcache`].
    /// The row map and layouts are constants, so the key captures
    /// everything the suffix depends on.
    ///
    /// Above `O0` the suffix is optimized as a *whole* (cross-stage
    /// program fusion): dead-write elimination runs over the
    /// concatenation with the result and scratch rows as live-out, so
    /// each addition's trailing scratch reset — overwritten unread by
    /// the next addition's init wave — is eliminated for all but the
    /// last addition, along with the per-adder dead ops. At `O2`+ each
    /// addition is then re-packed into co-issue bundles individually
    /// (bundles never straddle addition boundaries, preserving
    /// per-addition trace attribution). The returned bounds locate
    /// each addition's ops in the fused program.
    fn addition_suffix(&self, additions: usize) -> SuffixProgram {
        let opt = self.opt;
        let cols = self.cols();
        crate::progcache::precompute_suffix(self.adder_width(), additions, opt, || {
            let parts: Vec<_> = ADDITIONS[..additions]
                .iter()
                .map(|&(x, y, sum)| {
                    crate::progcache::adder_program(&self.adder_for(x, y, sum), AddOp::Add)
                })
                .collect();
            if opt == OptLevel::O0 {
                let mut ops = Vec::new();
                let mut ends = Vec::with_capacity(additions);
                for part in &parts {
                    ops.extend_from_slice(part);
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
            for (i, part) in parts.iter().enumerate() {
                tags.extend(std::iter::repeat_n(i, part.len()));
                fused.extend_from_slice(part);
            }
            let mut live_out = vec![Region::new(
                RESULT_BASE..RESULT_BASE + 10,
                0..cols,
            )];
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
        })
    }

    /// The suffix of the first `additions` additions, after checking
    /// (debug/test builds) that `writes` followed by it is a verified
    /// program — the op sequence the stage runners execute.
    fn verified_suffix(&self, writes: &[MicroOp], additions: usize, what: &str) -> SuffixProgram {
        let suffix = self.addition_suffix(additions);
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
    fn compose_program(&self, chunks: &[&Uint], additions: usize) -> Vec<MicroOp> {
        let mut prog = self.chunk_writes(chunks);
        let suffix = self.verified_suffix(&prog, additions, "PrecomputeStage::program");
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
        self.compose_program(&chunks, ADDITIONS.len())
    }

    /// The squaring variant of [`PrecomputeStage::program`]: both
    /// operand banks hold `a`'s chunks and only the five `a`-side
    /// additions run.
    ///
    /// # Panics
    ///
    /// Panics as [`PrecomputeStage::program`] does.
    pub fn square_program(&self, a: &Uint) -> Vec<MicroOp> {
        let da = decompose_operand(a, self.n);
        let chunks: Vec<&Uint> = da.chunks.iter().chain(da.chunks.iter()).collect();
        self.compose_program(&chunks, 5)
    }

    /// Runs the stage for a squaring: the `b`-side sums equal the
    /// `a`-side sums, so only five additions execute and the controller
    /// mirrors the results — the stage runs in
    /// [`PrecomputeStage::square_latency`] cycles.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
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
        let suffix = self.verified_suffix(&writes, 5, "PrecomputeStage::program");
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
        // the addition suffix comes from the program cache as one
        // compiled program per addition, so each addition's op events
        // nest under its own span. The op sequence is identical to
        // [`PrecomputeStage::program`] (checked in debug/test builds
        // by the same static verification).
        let chunks: Vec<&Uint> = da.chunks.iter().chain(db.chunks.iter()).collect();
        let writes_prog = self.chunk_writes(&chunks);
        let suffix = self.verified_suffix(&writes_prog, ADDITIONS.len(), "PrecomputeStage::program");
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
            let pairs: Vec<(Uint, Uint)> =
                (0..lanes).map(|_| (rng.uniform(n), rng.uniform(n))).collect();
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
