//! Random well-formed MAGIC program generation for differential
//! fuzzing.
//!
//! [`ProgramGen`] emits programs that pass [`verify`](crate::verify)
//! by construction: each candidate op is drawn in-bounds with distinct
//! input/output lines, then *probed* against a clone of the verifier's
//! abstract state. A candidate that would read an uninitialized cell
//! or drive a stale MAGIC output is **repaired** — the generator first
//! emits the initializing op the rule demands (a set wave over the
//! output, or a data write over the missing input) — so the stream
//! exercises realistic init/compute/reset interleavings rather than
//! degenerate always-legal shapes.
//!
//! Generation is fully deterministic in the seed (a splitmix64
//! stream), so every fuzz failure is replayable from its seed alone.

use crate::verify::{AbstractState, VerifyConfig, Violation};
use cim_crossbar::MicroOp;

/// One generated bit-sliced batch: a width bucket plus per-lane
/// operand bit patterns (little-endian, `width` bits each).
///
/// Lanes are *ragged*: each draws its own effective width inside the
/// bucket, with the high bits zero — exactly the shape a batch
/// scheduler produces when it packs differently-sized requests into
/// one width class. Some lanes are adversarial by construction
/// (all-ones at full bucket width, all-zeros) so downstream harnesses
/// exercise maximal carry chains and degenerate operands without
/// hand-building them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneBatch {
    /// The width bucket in bits (every lane's operands are stored at
    /// this width; ragged lanes zero-pad the top).
    pub width: usize,
    /// Per-lane `(a, b)` operand bits, `1..=64` lanes.
    pub lanes: Vec<(Vec<bool>, Vec<bool>)>,
}

/// Deterministic generator of [`LaneBatch`]es for lane-triangulation
/// fuzzing: random lane counts in `1..=64`, ragged operand widths
/// within a bucket, and a sprinkling of adversarial lanes.
///
/// Like [`ProgramGen`], generation is fully deterministic in the seed
/// (splitmix64), so every fuzz failure replays from its seed alone.
#[derive(Debug, Clone)]
pub struct BatchGen {
    rng: u64,
}

impl BatchGen {
    /// Creates a generator seeded deterministically.
    pub fn new(seed: u64) -> Self {
        BatchGen {
            rng: seed ^ 0x6c62_272e_07bb_0142,
        }
    }

    /// splitmix64 step.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// One operand: random bits over a ragged effective width, or an
    /// adversarial extreme (all-ones at the full bucket width, or
    /// all-zeros) roughly one lane in four.
    fn operand(&mut self, width: usize) -> Vec<bool> {
        match self.below(8) {
            0 => vec![true; width],
            1 => vec![false; width],
            _ => {
                let effective = 1 + self.below(width);
                (0..width)
                    .map(|i| i < effective && self.next_u64() & 1 == 1)
                    .collect()
            }
        }
    }

    /// Generates the next batch: a lane count drawn from `1..=64` and
    /// per-lane operands in a `1..=max_width`-bit bucket.
    ///
    /// # Panics
    ///
    /// Panics if `max_width == 0`.
    pub fn next_batch(&mut self, max_width: usize) -> LaneBatch {
        assert!(max_width > 0, "width bucket must be non-empty");
        let width = 1 + self.below(max_width);
        let lane_count = 1 + self.below(64);
        let lanes = (0..lane_count)
            .map(|_| (self.operand(width), self.operand(width)))
            .collect();
        LaneBatch { width, lanes }
    }

    /// Generates a batch of exactly `lanes` lanes of `width`-bit
    /// operands, each a corner case — zero, all-ones, a single set bit,
    /// or random with the top bit set (full width) — or, one operand in
    /// three, random bits over a ragged width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `lanes` is not in `1..=64`.
    pub fn corner_batch(&mut self, width: usize, lanes: usize) -> LaneBatch {
        assert!(width > 0, "width bucket must be non-empty");
        assert!((1..=64).contains(&lanes), "batch must hold 1..=64 lanes");
        let lanes = (0..lanes)
            .map(|_| (self.corner_operand(width), self.corner_operand(width)))
            .collect();
        LaneBatch { width, lanes }
    }

    fn corner_operand(&mut self, width: usize) -> Vec<bool> {
        match self.below(6) {
            0 => vec![false; width],
            1 => vec![true; width],
            2 => {
                let bit = self.below(width);
                (0..width).map(|i| i == bit).collect()
            }
            3 => (0..width)
                .map(|i| i + 1 == width || self.next_u64() & 1 == 1)
                .collect(),
            _ => self.operand(width),
        }
    }
}

/// Deterministic generator of verified micro-op programs.
#[derive(Debug, Clone)]
pub struct ProgramGen {
    rows: usize,
    cols: usize,
    rng: u64,
    state: AbstractState,
}

impl ProgramGen {
    /// Creates a generator for a `rows × cols` array, seeded
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        assert!(rows > 0 && cols > 0, "array must be non-empty");
        ProgramGen {
            rows,
            cols,
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
            state: AbstractState::from_config(&VerifyConfig::new(rows, cols)),
        }
    }

    /// splitmix64 step.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn random_bits(&mut self, len: usize) -> Vec<bool> {
        (0..len).map(|_| self.next_u64() & 1 == 1).collect()
    }

    /// A random non-empty column span.
    fn span(&mut self) -> std::ops::Range<usize> {
        let start = self.below(self.cols);
        let len = 1 + self.below(self.cols - start);
        start..start + len
    }

    /// Up to `max` distinct rows excluding `not` (at least one).
    fn distinct_rows(&mut self, max: usize, not: usize) -> Vec<usize> {
        let mut rows = Vec::new();
        let want = 1 + self.below(max);
        for _ in 0..want * 4 {
            if rows.len() == want {
                break;
            }
            let r = self.below(self.rows);
            if r != not && !rows.contains(&r) {
                rows.push(r);
            }
        }
        if rows.is_empty() {
            rows.push((not + 1) % self.rows);
        }
        rows
    }

    /// Draws a random in-bounds candidate op. Candidates never violate
    /// bounds, overlap or partition rules by construction; only the
    /// state-dependent init rules can fire, and those are repairable.
    fn candidate(&mut self) -> MicroOp {
        match self.below(16) {
            0..=2 => {
                let row = self.below(self.rows);
                let span = self.span();
                let bits = self.random_bits(span.len());
                MicroOp::write_row_at(row, span.start, &bits)
            }
            3 => {
                let rows = self.distinct_rows(3.min(self.rows), self.rows);
                MicroOp::init_rows(&rows, self.span())
            }
            4 => {
                let rows = self.distinct_rows(3.min(self.rows), self.rows);
                MicroOp::reset_rows(&rows, self.span())
            }
            5..=8 if self.rows >= 2 => {
                let out = self.below(self.rows);
                let inputs = self.distinct_rows(3.min(self.rows - 1), out);
                MicroOp::nor_rows(&inputs, out, self.span())
            }
            9..=10 if self.cols >= 2 => {
                let out_col = self.below(self.cols);
                let mut in_cols = Vec::new();
                let want = 1 + self.below(3.min(self.cols - 1));
                for _ in 0..want * 4 {
                    if in_cols.len() == want {
                        break;
                    }
                    let c = self.below(self.cols);
                    if c != out_col && !in_cols.contains(&c) {
                        in_cols.push(c);
                    }
                }
                if in_cols.is_empty() {
                    in_cols.push((out_col + 1) % self.cols);
                }
                let start = self.below(self.rows);
                let end = start + 1 + self.below(self.rows - start);
                MicroOp::nor_cols(&in_cols, out_col, start..end)
            }
            11 if self.cols >= 2 => self.partitioned_candidate(),
            12..=13 => {
                let src = self.below(self.rows);
                let dst = self.below(self.rows);
                let span = self.span();
                let max_off = span.len().min(3) as isize;
                let offset = self.below(2 * max_off as usize + 1) as isize - max_off;
                let fill = self.next_u64() & 1 == 1;
                MicroOp::shift_to(src, dst, span, offset, fill)
            }
            _ => MicroOp::read_row(self.below(self.rows), self.span()),
        }
    }

    /// A partitioned NOR with consistent geometry and distinct
    /// offsets. Falls back to a plain write when the array is too
    /// narrow for two partitions of width ≥ 2.
    fn partitioned_candidate(&mut self) -> MicroOp {
        // Pick a partition width that leaves room for ≥ 1 input and a
        // distinct output, and a span that is a multiple of it.
        let pw = 2 + self.below(3.min(self.cols / 2).max(1));
        let parts = self.cols / pw;
        if parts == 0 {
            let row = self.below(self.rows);
            let bits = self.random_bits(self.cols);
            return MicroOp::write_row(row, &bits);
        }
        let used = 1 + self.below(parts);
        let start = self.below(self.cols - used * pw + 1);
        let out_offset = self.below(pw);
        let mut in_offsets = Vec::new();
        let want = 1 + self.below(pw - 1);
        for _ in 0..want * 4 {
            if in_offsets.len() == want {
                break;
            }
            let off = self.below(pw);
            if off != out_offset && !in_offsets.contains(&off) {
                in_offsets.push(off);
            }
        }
        if in_offsets.is_empty() {
            in_offsets.push((out_offset + 1) % pw);
        }
        let row_start = self.below(self.rows);
        let row_end = row_start + 1 + self.below(self.rows - row_start);
        MicroOp::nor_cols_partitioned(
            row_start..row_end,
            start..start + used * pw,
            pw,
            &in_offsets,
            out_offset,
        )
    }

    /// Ops that make `candidate` legal given the violations a probe
    /// reported: inits for stale MAGIC outputs, data writes for
    /// uninitialized reads. Returned in the order they must execute.
    fn repairs(&mut self, candidate: &MicroOp, violations: &[Violation]) -> Vec<MicroOp> {
        let mut fixes = Vec::new();
        let needs_out_init = violations
            .iter()
            .any(|v| matches!(v, Violation::OutputNotInitialized { .. }));
        let needs_read_init = violations
            .iter()
            .any(|v| matches!(v, Violation::ReadBeforeInit { .. }));
        let fp = candidate.footprint();
        if needs_read_init {
            // Define every read region with random data. WriteRow is
            // row-oriented, so emit one per region row.
            for region in &fp.reads {
                for r in region.rows.clone() {
                    let bits = self.random_bits(region.cols.len());
                    fixes.push(MicroOp::write_row_at(r, region.cols.start, &bits));
                }
            }
        }
        if needs_out_init {
            // A set wave over every written region: exactly the init
            // discipline MAGIC demands.
            for region in &fp.writes {
                let rows: Vec<usize> = region.rows.clone().collect();
                fixes.push(MicroOp::init_rows(&rows, region.cols.clone()));
            }
        }
        fixes
    }

    /// Generates the next op(s) of the stream: the candidate plus any
    /// repair prefix. Always returns at least one op.
    fn next_ops(&mut self) -> Vec<MicroOp> {
        for _ in 0..8 {
            let candidate = self.candidate();
            let mut probe = self.state.clone();
            let mut violations = Vec::new();
            probe.apply(0, &candidate, &mut violations, None);
            if violations.is_empty() {
                self.state = probe;
                return vec![candidate];
            }
            let repairable = violations.iter().all(|v| {
                matches!(
                    v,
                    Violation::OutputNotInitialized { .. } | Violation::ReadBeforeInit { .. }
                )
            });
            if !repairable {
                continue; // bounds/partition trouble: redraw
            }
            let mut ops = self.repairs(&candidate, &violations);
            ops.push(candidate);
            // Re-probe the repaired sequence; commit only if clean.
            let mut probe = self.state.clone();
            let mut violations = Vec::new();
            for op in &ops {
                probe.apply(0, op, &mut violations, None);
            }
            if violations.is_empty() {
                self.state = probe;
                return ops;
            }
        }
        // Fallback: an unconditional data write is always legal.
        let row = self.below(self.rows);
        let bits = self.random_bits(self.cols);
        let op = MicroOp::write_row(row, &bits);
        let mut violations = Vec::new();
        self.state.apply(0, &op, &mut violations, None);
        debug_assert!(violations.is_empty());
        vec![op]
    }

    /// Generates a verified program of at least `min_len` ops (repairs
    /// may push it slightly past).
    pub fn generate(&mut self, min_len: usize) -> Vec<MicroOp> {
        let mut program = Vec::with_capacity(min_len + 8);
        while program.len() < min_len {
            program.extend(self.next_ops());
        }
        // Every program ends by sensing each row once, so differential
        // comparisons always observe trace-visible effects.
        for row in 0..self.rows {
            let op = MicroOp::read_row(row, 0..self.cols);
            let mut probe = self.state.clone();
            let mut violations = Vec::new();
            probe.apply(0, &op, &mut violations, None);
            if violations.is_empty() {
                self.state = probe;
                program.push(op);
            } else {
                // Row has uninitialized cells: define it, then sense.
                let bits = self.random_bits(self.cols);
                let write = MicroOp::write_row(row, &bits);
                self.state.apply(0, &write, &mut violations, None);
                self.state.apply(0, &op, &mut violations, None);
                program.push(write);
                program.push(op);
            }
        }
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify, VerifyConfig};

    #[test]
    fn generated_programs_always_verify() {
        for seed in 0..50 {
            let mut gen = ProgramGen::new(4, 6, seed);
            let program = gen.generate(30);
            assert!(program.len() >= 30);
            let config = VerifyConfig::new(4, 6);
            if let Err(err) = verify(&program, &config) {
                panic!("seed {seed} generated an invalid program:\n{err}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = ProgramGen::new(5, 7, 42).generate(40);
        let b = ProgramGen::new(5, 7, 42).generate(40);
        assert_eq!(a, b);
        let c = ProgramGen::new(5, 7, 43).generate(40);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn tiny_arrays_still_generate() {
        for seed in 0..10 {
            let mut gen = ProgramGen::new(1, 2, seed);
            let program = gen.generate(10);
            verify(&program, &VerifyConfig::new(1, 2)).expect("1×2 program");
            let mut gen = ProgramGen::new(2, 1, seed);
            let program = gen.generate(10);
            verify(&program, &VerifyConfig::new(2, 1)).expect("2×1 program");
        }
    }

    #[test]
    fn batches_are_deterministic_and_well_formed() {
        let mut a = BatchGen::new(99);
        let mut b = BatchGen::new(99);
        for _ in 0..50 {
            let batch = a.next_batch(24);
            assert_eq!(batch, b.next_batch(24));
            assert!(batch.width >= 1 && batch.width <= 24);
            assert!(!batch.lanes.is_empty() && batch.lanes.len() <= 64);
            for (x, y) in &batch.lanes {
                assert_eq!(x.len(), batch.width);
                assert_eq!(y.len(), batch.width);
            }
        }
        assert_ne!(
            BatchGen::new(1).next_batch(24),
            BatchGen::new(2).next_batch(24),
            "different seeds should diverge"
        );
    }

    #[test]
    fn batches_cover_lane_counts_and_adversarial_shapes() {
        let mut gen = BatchGen::new(5);
        let mut saw_full = false;
        let mut saw_single = false;
        let mut saw_all_ones = false;
        let mut saw_all_zeros = false;
        for _ in 0..400 {
            let batch = gen.next_batch(16);
            saw_full |= batch.lanes.len() == 64;
            saw_single |= batch.lanes.len() == 1;
            for (a, b) in &batch.lanes {
                for op in [a, b] {
                    saw_all_ones |= op.iter().all(|&bit| bit);
                    saw_all_zeros |= op.iter().all(|&bit| !bit);
                }
            }
        }
        assert!(saw_full, "never generated a full 64-lane batch");
        assert!(saw_single, "never generated a single-lane batch");
        assert!(saw_all_ones, "never generated an all-ones operand");
        assert!(saw_all_zeros, "never generated an all-zeros operand");
    }

    #[test]
    fn programs_use_a_mix_of_op_kinds() {
        let mut gen = ProgramGen::new(6, 8, 7);
        let program = gen.generate(200);
        let magic = program.iter().filter(|op| op.is_magic()).count();
        let reads = program
            .iter()
            .filter(|op| matches!(op, MicroOp::ReadRow { .. }))
            .count();
        let shifts = program
            .iter()
            .filter(|op| matches!(op, MicroOp::Shift { .. }))
            .count();
        assert!(magic > 0, "no MAGIC ops generated");
        assert!(reads > 0, "no reads generated");
        assert!(shifts > 0, "no shifts generated");
    }
}
