//! The paper's in-memory Kogge-Stone adder (Sec. IV-B, Fig. 6).
//!
//! An `n`-bit addition runs in exactly
//!
//! ```text
//! 8 + 11·⌈log2 n⌉ + 9   clock cycles
//! ```
//!
//! on an `n+1`-column region with **exactly 12 scratch rows**,
//! independent of `n` — both properties match the paper. The three
//! phases are:
//!
//! 1. **propagate/generate** (8 cc): `p = x⊕y`, `g = x∧y` and their
//!    complements via MAGIC NOR/NOT (blue region of Fig. 6);
//! 2. **prefix graph** (11 cc per level, `⌈log2 n⌉` levels): each level
//!    shifts `g` and `¬p` by `2^k` columns through the periphery
//!    (2 × 2 cc — MAGIC cannot cross bit lines) and evaluates the
//!    Kogge-Stone node `G' = G ∨ (P ∧ G_shifted)`, `P' = P ∧ P_shifted`
//!    with 7 NOR/NOT/init operations, ping-ponging between two register
//!    banks so the same 12 rows serve every level;
//! 3. **sum** (9 cc): carries are the prefix `G` shifted up by one;
//!    `s = p ⊕ c` via 1 shift + 5 NOR/NOT + a final reset wave.
//!
//! **Subtraction** reuses the identical schedule (same latency — the
//! paper's postcomputation charges additions and subtractions equally)
//! through the ones'-complement identity `x − y = ¬(¬x + y) mod 2^w`:
//! phase 1 computes p/g of `(¬x, y)` at no extra cost, and the sum
//! phase emits XNOR instead of XOR, which is also 5 operations.
//!
//! The scratch region is written ~2 writes/cell/level; [`AdderUnit`]
//! adds the paper's wear-leveling (swap scratch and operand regions
//! every addition) to spread that wear evenly.

use cim_bigint::Uint;
use cim_crossbar::{
    Crossbar, CrossbarError, CycleStats, EnduranceReport, Executor, MicroOp, Region,
};
use cim_mir::{MirBuilder, MirProgram, OptLevel, TileLimits};

/// Number of scratch rows the adder needs — constant in `n` (paper:
/// "amounts to 12 rows for storing intermediate results").
pub const SCRATCH_ROWS: usize = 12;

// Scratch row roles (offsets within the 12-row scratch region).
const P0: usize = 0; // original propagate (needed again by the sum phase)
const A_G: usize = 1; // bank A: generate
const A_NG: usize = 2; //         ¬generate
const A_NP: usize = 3; //         ¬propagate
const B_G: usize = 4; // bank B
const B_NG: usize = 5;
const B_NP: usize = 6;
const GS: usize = 7; // shifted generate (also the carry row in the sum phase)
const NPS: usize = 8; // shifted ¬propagate
const T: usize = 9; // temporaries
const U: usize = 10;
const V: usize = 11;

/// Whether a program computes `x + y` or `x − y (mod 2^w)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddOp {
    /// Addition; the `n+1`-bit result includes the carry-out.
    Add,
    /// Subtraction modulo `2^width` (callers in the Karatsuba
    /// postcomputation guarantee non-negative results).
    Sub,
}

/// Placement of an adder inside a larger crossbar.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdderLayout {
    /// Row holding operand `x`.
    pub x_row: usize,
    /// Row holding operand `y`.
    pub y_row: usize,
    /// Row receiving the sum.
    pub sum_row: usize,
    /// The 12 scratch rows (need not be contiguous — wear-leveling
    /// rotates roles across physical rows).
    pub scratch: [usize; SCRATCH_ROWS],
    /// First column of the `width + 1` columns used.
    pub col_base: usize,
}

impl AdderLayout {
    /// The standalone default: operands in rows 0–1, sum in row 2,
    /// scratch in rows 3–14, starting at column 0.
    pub fn standalone() -> Self {
        AdderLayout {
            x_row: 0,
            y_row: 1,
            sum_row: 2,
            scratch: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14],
            col_base: 0,
        }
    }

    /// The same layout with every row index mapped through `f`
    /// (used by wear-leveling rotation).
    pub fn map_rows(&self, f: impl Fn(usize) -> usize) -> Self {
        let mut scratch = [0; SCRATCH_ROWS];
        for (i, s) in scratch.iter_mut().enumerate() {
            *s = f(self.scratch[i]);
        }
        AdderLayout {
            x_row: f(self.x_row),
            y_row: f(self.y_row),
            sum_row: f(self.sum_row),
            scratch,
            col_base: self.col_base,
        }
    }
}

/// The paper's Kogge-Stone in-memory adder/subtractor.
///
/// See the [module documentation](self) for the cycle breakdown and
/// the [crate example](crate) for usage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KoggeStoneAdder {
    width: usize,
    layout: AdderLayout,
}

/// `⌈log2 n⌉` (0 for n = 1).
pub(crate) fn ceil_log2(n: usize) -> u32 {
    assert!(n > 0);
    usize::BITS - (n - 1).leading_zeros()
}

impl KoggeStoneAdder {
    /// Creates an `width`-bit adder with the standalone layout.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        Self::with_layout(width, AdderLayout::standalone())
    }

    /// Creates an adder embedded at an explicit layout (used by the
    /// Karatsuba pre-/postcomputation stages).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_layout(width: usize, layout: AdderLayout) -> Self {
        assert!(width > 0, "adder width must be positive");
        KoggeStoneAdder { width, layout }
    }

    /// Operand width `n` in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The layout this adder is placed at.
    pub fn layout(&self) -> &AdderLayout {
        &self.layout
    }

    /// Number of prefix-graph levels: `⌈log2 n⌉`.
    pub fn levels(&self) -> u32 {
        ceil_log2(self.width)
    }

    /// Analytic latency in clock cycles: `8 + 11·⌈log2 n⌉ + 9`.
    /// The executed program takes exactly this many cycles
    /// (verified by tests).
    pub fn latency(&self) -> u64 {
        8 + 11 * self.levels() as u64 + 9
    }

    /// Rows required: one past the highest row index the layout uses.
    pub fn required_rows(&self) -> usize {
        let scratch_max = self.layout.scratch.iter().copied().max().expect("12 rows");
        [
            self.layout.x_row,
            self.layout.y_row,
            self.layout.sum_row,
            scratch_max,
        ]
        .into_iter()
        .max()
        .expect("non-empty")
            + 1
    }

    /// Columns required: `width + 1` (paper: "n+1 columns").
    pub fn required_cols(&self) -> usize {
        self.layout.col_base + self.width + 1
    }

    fn cols(&self) -> std::ops::Range<usize> {
        self.layout.col_base..self.layout.col_base + self.width + 1
    }

    fn s(&self, role: usize) -> usize {
        self.layout.scratch[role]
    }

    /// Emits the full micro-op program for `op`, assuming the operands
    /// are already stored in `x_row`/`y_row` (width+1 columns, top bit
    /// zero). The program leaves the result in `sum_row` and the
    /// scratch region reset to zero.
    ///
    /// In debug and test builds the emitted program is statically
    /// verified (`cim-check`) against the adder's declared geometry,
    /// with the operand rows treated as preloaded.
    pub fn program(&self, op: AddOp) -> Vec<MicroOp> {
        let prog = self.build_program(op);
        cim_check::debug_assert_verified(
            &prog,
            &cim_check::VerifyConfig::new(self.required_rows(), self.required_cols())
                .with_preloaded_rows(&[self.layout.x_row, self.layout.y_row], self.cols()),
            "KoggeStoneAdder::program",
        );
        prog
    }

    /// The adder program in mid-level IR form: the legacy instruction
    /// stream plus the stage contract as live-out regions — the sum
    /// row carries the result, and the scratch rows must end reset
    /// (which is what keeps the final reset wave alive through
    /// dead-write elimination).
    pub fn mir_program(&self, op: AddOp) -> MirProgram {
        let cols = self.cols();
        let mut b = MirBuilder::new(self.required_rows(), self.required_cols());
        b.extend(&self.build_program(op));
        b.live_out(Region::new(
            self.layout.sum_row..self.layout.sum_row + 1,
            cols.clone(),
        ));
        for &s in &self.layout.scratch {
            b.live_out(Region::new(s..s + 1, cols.clone()));
        }
        b.build()
    }

    /// Emits the program lowered at an optimization level. `O0` is
    /// byte-identical to [`KoggeStoneAdder::program`]; higher levels
    /// run the `cim-mir` pass pipeline (dead-write elimination,
    /// co-issue re-packing, placement validation) and are gated on the
    /// `cim-check` verifier.
    pub fn program_opt(&self, op: AddOp, opt: OptLevel) -> Vec<MicroOp> {
        if opt == OptLevel::O0 {
            return self.program(op);
        }
        let limits = TileLimits::for_array(self.required_rows(), self.required_cols());
        let config = cim_check::VerifyConfig::new(self.required_rows(), self.required_cols())
            .with_preloaded_rows(&[self.layout.x_row, self.layout.y_row], self.cols());
        cim_mir::verified_lower(
            &self.mir_program(op),
            opt,
            &limits,
            &config,
            "KoggeStoneAdder::program_opt",
        )
    }

    /// Latency of the program lowered at `opt`. `O0` is the paper
    /// formula; higher levels report the optimized program's measured
    /// cycle count (addition and subtraction schedules cost the same).
    pub fn latency_at(&self, opt: OptLevel) -> u64 {
        if opt == OptLevel::O0 {
            self.latency()
        } else {
            self.program_opt(AddOp::Add, opt)
                .iter()
                .map(MicroOp::cycles)
                .sum()
        }
    }

    /// Latency with co-issue re-packing (the O2 pipeline).
    pub fn packed_latency(&self) -> u64 {
        self.latency_at(OptLevel::O2)
    }

    fn build_program(&self, op: AddOp) -> Vec<MicroOp> {
        let cols = self.cols();
        let x = self.layout.x_row;
        let y = self.layout.y_row;
        let sum = self.layout.sum_row;
        let scratch: Vec<usize> = (0..SCRATCH_ROWS).map(|r| self.s(r)).collect();
        let mut prog = Vec::new();

        // ---- Phase 1: propagate/generate (8 cc) ----
        prog.push(MicroOp::init_rows(&scratch, cols.clone()));
        match op {
            AddOp::Add => {
                // p = x⊕y, g = x∧y
                prog.push(MicroOp::nor_rows(&[x, y], self.s(T), cols.clone())); // ¬x∧¬y
                prog.push(MicroOp::not_row(x, self.s(U), cols.clone())); // ¬x
                prog.push(MicroOp::not_row(y, self.s(V), cols.clone())); // ¬y
                prog.push(MicroOp::nor_rows(
                    &[self.s(U), self.s(V)],
                    self.s(A_G),
                    cols.clone(),
                )); // g = x∧y
            }
            AddOp::Sub => {
                // x − y = ¬(¬x + y): p = ¬x⊕y, g = ¬x∧y
                prog.push(MicroOp::not_row(x, self.s(U), cols.clone())); // ¬x
                prog.push(MicroOp::nor_rows(&[self.s(U), y], self.s(T), cols.clone())); // x∧¬y
                prog.push(MicroOp::not_row(y, self.s(V), cols.clone())); // ¬y
                prog.push(MicroOp::nor_rows(
                    &[x, self.s(V)],
                    self.s(A_G),
                    cols.clone(),
                ));
                // g = ¬x∧y
            }
        }
        prog.push(MicroOp::not_row(self.s(A_G), self.s(A_NG), cols.clone()));
        prog.push(MicroOp::nor_rows(
            &[self.s(T), self.s(A_G)],
            self.s(P0),
            cols.clone(),
        )); // p  (for Sub: NOR(x∧¬y, ¬x∧y) = ¬(x⊕y) = ¬x⊕y ✓)
        prog.push(MicroOp::not_row(self.s(P0), self.s(A_NP), cols.clone()));

        // ---- Phase 2: prefix graph (11 cc per level) ----
        let mut bank_a_current = true;
        for k in 0..self.levels() {
            let d = 1isize << k;
            let (xg, _xng, xnp, yg, yng, ynp) = if bank_a_current {
                (A_G, A_NG, A_NP, B_G, B_NG, B_NP)
            } else {
                (B_G, B_NG, B_NP, A_G, A_NG, A_NP)
            };
            prog.push(MicroOp::shift_to(
                self.s(xg),
                self.s(GS),
                cols.clone(),
                d,
                false,
            ));
            prog.push(MicroOp::shift_to(
                self.s(xnp),
                self.s(NPS),
                cols.clone(),
                d,
                false,
            ));
            prog.push(MicroOp::init_rows(
                &[
                    self.s(T),
                    self.s(U),
                    self.s(yg),
                    self.s(yng),
                    self.s(ynp),
                    self.s(V),
                ],
                cols.clone(),
            ));
            prog.push(MicroOp::not_row(self.s(GS), self.s(T), cols.clone())); // ¬G_s
            prog.push(MicroOp::nor_rows(
                &[self.s(xnp), self.s(T)],
                self.s(U),
                cols.clone(),
            )); // P ∧ G_s
            prog.push(MicroOp::nor_rows(
                &[self.s(xg), self.s(U)],
                self.s(yng),
                cols.clone(),
            )); // ¬G'
            prog.push(MicroOp::not_row(self.s(yng), self.s(yg), cols.clone())); // G'
            prog.push(MicroOp::nor_rows(
                &[self.s(xnp), self.s(NPS)],
                self.s(V),
                cols.clone(),
            )); // P'
            prog.push(MicroOp::not_row(self.s(V), self.s(ynp), cols.clone())); // ¬P'
            bank_a_current = !bank_a_current;
        }
        let final_g = if bank_a_current { A_G } else { B_G };
        let idle_g = if bank_a_current { B_G } else { A_G };

        // ---- Phase 3: sum (9 cc) ----
        // Carries: c = G_final shifted up by one (c_0 = 0).
        prog.push(MicroOp::shift_to(
            self.s(final_g),
            self.s(GS),
            cols.clone(),
            1,
            false,
        ));
        prog.push(MicroOp::init_rows(
            &[self.s(T), self.s(U), self.s(V), self.s(idle_g), sum],
            cols.clone(),
        ));
        prog.push(MicroOp::not_row(self.s(GS), self.s(T), cols.clone())); // ¬c
        prog.push(MicroOp::not_row(self.s(P0), self.s(U), cols.clone())); // ¬p
        match op {
            AddOp::Add => {
                // s = p⊕c = NOR(NOR(p,c), p∧c)
                prog.push(MicroOp::nor_rows(
                    &[self.s(P0), self.s(GS)],
                    self.s(V),
                    cols.clone(),
                ));
                prog.push(MicroOp::nor_rows(
                    &[self.s(U), self.s(T)],
                    self.s(idle_g),
                    cols.clone(),
                ));
            }
            AddOp::Sub => {
                // s = ¬(p⊕c) = NOR(¬p∧c, p∧¬c)
                prog.push(MicroOp::nor_rows(
                    &[self.s(P0), self.s(T)],
                    self.s(V),
                    cols.clone(),
                ));
                prog.push(MicroOp::nor_rows(
                    &[self.s(U), self.s(GS)],
                    self.s(idle_g),
                    cols.clone(),
                ));
            }
        }
        prog.push(MicroOp::nor_rows(
            &[self.s(V), self.s(idle_g)],
            sum,
            cols.clone(),
        ));
        prog.push(MicroOp::reset_rows(&self.layout.scratch, cols));
        prog
    }

    /// Convenience: builds a standalone crossbar, loads the operands,
    /// runs the program and returns `(x + y, stats)`.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `width` bits.
    pub fn add(&self, x: &Uint, y: &Uint) -> Result<(Uint, CycleStats), CrossbarError> {
        self.run(AddOp::Add, x, y)
    }

    /// Convenience: `(x − y) mod 2^width`, plus stats.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `width` bits.
    pub fn sub(&self, x: &Uint, y: &Uint) -> Result<(Uint, CycleStats), CrossbarError> {
        self.run(AddOp::Sub, x, y)
    }

    fn run(&self, op: AddOp, x: &Uint, y: &Uint) -> Result<(Uint, CycleStats), CrossbarError> {
        let mut array = Crossbar::new(self.required_rows(), self.required_cols())?;
        let mut exec = Executor::new(&mut array);
        // Operand loading is not part of the adder latency (the paper
        // charges it to the surrounding stage), so load outside stats.
        exec.array_mut().write_row(
            self.layout.x_row,
            self.layout.col_base,
            &x.to_bits(self.width + 1),
        )?;
        exec.array_mut().write_row(
            self.layout.y_row,
            self.layout.col_base,
            &y.to_bits(self.width + 1),
        )?;
        exec.run(&self.program(op))?;
        let full = crate::read_row_uint(exec.array(), self.layout.sum_row, self.cols())?;
        let result = match op {
            AddOp::Add => full,
            AddOp::Sub => full.low_bits(self.width),
        };
        Ok((result, *exec.stats()))
    }
}

/// A persistent adder unit with the paper's **wear-leveling**
/// (Sec. IV-B): the scratch region and the operand/result region are
/// constantly exchanged — here implemented as a rotation of all row
/// roles across the 15 physical rows, one step per operation — which
/// evens the per-cell wear at no cycle cost and only a small
/// controller overhead.
#[derive(Debug)]
pub struct AdderUnit {
    width: usize,
    array: Crossbar,
    wear_leveling: bool,
    rotation: usize,
    operations: u64,
    cycles: u64,
}

/// Physical rows of an [`AdderUnit`]: 3 operand/result + 12 scratch.
const UNIT_ROWS: usize = 3 + SCRATCH_ROWS;

impl AdderUnit {
    /// Creates a unit for `width`-bit additions.
    ///
    /// # Errors
    ///
    /// Returns an error if the backing crossbar cannot be built.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize, wear_leveling: bool) -> Result<Self, CrossbarError> {
        assert!(width > 0, "adder width must be positive");
        let array = Crossbar::new(UNIT_ROWS, width + 1)?;
        Ok(AdderUnit {
            width,
            array,
            wear_leveling,
            rotation: 0,
            operations: 0,
            cycles: 0,
        })
    }

    fn layout(&self) -> AdderLayout {
        let rot = self.rotation;
        AdderLayout::standalone().map_rows(|r| (r + rot) % UNIT_ROWS)
    }

    /// Performs one addition, applying wear-leveling if enabled.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in the unit width.
    pub fn add(&mut self, x: &Uint, y: &Uint) -> Result<Uint, CrossbarError> {
        let layout = self.layout();
        let adder = KoggeStoneAdder::with_layout(self.width, layout.clone());
        let cols = 0..self.width + 1;
        self.array
            .write_row(layout.x_row, 0, &x.to_bits(self.width + 1))?;
        self.array
            .write_row(layout.y_row, 0, &y.to_bits(self.width + 1))?;
        let program = adder.program(AddOp::Add);
        let mut exec = Executor::new(&mut self.array);
        exec.run(&program)?;
        self.cycles += exec.stats().cycles;
        let sum = crate::read_row_uint(&self.array, layout.sum_row, cols)?;
        // Clear the operand/result rows so the next (possibly rotated)
        // round starts from a clean array; this reset rides the same
        // wave the program already pays for, so no extra cycles.
        for r in [layout.x_row, layout.y_row, layout.sum_row] {
            self.array
                .reset_region(&cim_crossbar::Region::new(r..r + 1, 0..self.width + 1))?;
        }
        self.operations += 1;
        if self.wear_leveling {
            self.rotation = (self.rotation + 1) % UNIT_ROWS;
        }
        Ok(sum)
    }

    /// Operations performed so far.
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// Total cycles spent in adder programs.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Endurance report over the unit's array.
    pub fn endurance(&self) -> EnduranceReport {
        EnduranceReport::from_array(&self.array)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::{corner_cases, UintRng};

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    fn four_bit_exhaustive_add() {
        let adder = KoggeStoneAdder::new(4);
        for a in 0u64..16 {
            for b in 0u64..16 {
                let (sum, stats) = adder
                    .add(&Uint::from_u64(a), &Uint::from_u64(b))
                    .expect("add");
                assert_eq!(sum, Uint::from_u64(a + b), "{a} + {b}");
                assert_eq!(stats.cycles, adder.latency());
            }
        }
    }

    #[test]
    fn four_bit_exhaustive_sub() {
        let adder = KoggeStoneAdder::new(4);
        for a in 0u64..16 {
            for b in 0u64..16 {
                let (diff, stats) = adder
                    .sub(&Uint::from_u64(a), &Uint::from_u64(b))
                    .expect("sub");
                let expect = (16 + a - b) % 16; // mod 2^4
                assert_eq!(diff, Uint::from_u64(expect), "{a} - {b}");
                assert_eq!(stats.cycles, adder.latency());
            }
        }
    }

    #[test]
    fn one_bit_adder_has_zero_levels() {
        let adder = KoggeStoneAdder::new(1);
        assert_eq!(adder.levels(), 0);
        assert_eq!(adder.latency(), 17);
        for a in 0u64..2 {
            for b in 0u64..2 {
                let (sum, stats) = adder.add(&Uint::from_u64(a), &Uint::from_u64(b)).unwrap();
                assert_eq!(sum, Uint::from_u64(a + b));
                assert_eq!(stats.cycles, 17);
            }
        }
    }

    #[test]
    fn paper_latency_formula() {
        // Fig. 6 example: 4-bit adder = 8 + 11·2 + 9 = 39 cc.
        assert_eq!(KoggeStoneAdder::new(4).latency(), 39);
        // 64-bit: 8 + 11·6 + 9 = 83 cc.
        assert_eq!(KoggeStoneAdder::new(64).latency(), 83);
        // Precompute addition width for n=256 Karatsuba: 65-bit → 7 levels.
        assert_eq!(KoggeStoneAdder::new(65).latency(), 8 + 77 + 9);
    }

    #[test]
    fn executed_cycles_match_formula_for_many_widths() {
        let mut rng = UintRng::seeded(21);
        for width in [1usize, 2, 3, 5, 8, 16, 17, 33, 64, 65, 97, 128] {
            let adder = KoggeStoneAdder::new(width);
            let a = rng.uniform(width);
            let b = rng.uniform(width);
            let (sum, stats) = adder.add(&a, &b).expect("add");
            assert_eq!(sum, a.add(&b), "width {width}");
            assert_eq!(stats.cycles, adder.latency(), "width {width}");
        }
    }

    #[test]
    fn random_additions_wide() {
        let mut rng = UintRng::seeded(31);
        let adder = KoggeStoneAdder::new(384);
        for _ in 0..10 {
            let a = rng.uniform(384);
            let b = rng.uniform(384);
            let (sum, _) = adder.add(&a, &b).expect("add");
            assert_eq!(sum, a.add(&b));
        }
    }

    #[test]
    fn random_subtractions_wide() {
        let mut rng = UintRng::seeded(32);
        let adder = KoggeStoneAdder::new(96);
        for _ in 0..20 {
            let mut a = rng.uniform(96);
            let mut b = rng.uniform(96);
            if a < b {
                std::mem::swap(&mut a, &mut b);
            }
            let (diff, _) = adder.sub(&a, &b).expect("sub");
            assert_eq!(diff, a.sub(&b));
        }
    }

    #[test]
    fn corner_case_operands() {
        let width = 32;
        let adder = KoggeStoneAdder::new(width);
        for a in corner_cases(width) {
            for b in corner_cases(width) {
                let (sum, _) = adder.add(&a, &b).expect("add");
                assert_eq!(sum, a.add(&b), "a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn carry_out_is_captured() {
        // all-ones + 1 ripples the carry through every position.
        let width = 48;
        let adder = KoggeStoneAdder::new(width);
        let a = Uint::pow2(width).sub(&Uint::one());
        let (sum, _) = adder.add(&a, &Uint::one()).expect("add");
        assert_eq!(sum, Uint::pow2(width));
    }

    #[test]
    fn embedded_layout_with_column_offset() {
        // Place the adder away from the array origin: rows 5.., col 10.
        let width = 12;
        let layout = AdderLayout {
            x_row: 5,
            y_row: 6,
            sum_row: 7,
            scratch: std::array::from_fn(|i| 8 + i),
            col_base: 10,
        };
        let adder = KoggeStoneAdder::with_layout(width, layout);
        let mut array = Crossbar::new(adder.required_rows(), adder.required_cols() + 4).unwrap();
        // Poison the columns outside the adder's window to prove
        // isolation.
        for r in 0..adder.required_rows() {
            array.write_row(r, 0, &[true; 10]).unwrap();
        }
        let a = Uint::from_u64(0xABC);
        let b = Uint::from_u64(0x123);
        array.write_row(5, 10, &a.to_bits(width + 1)).unwrap();
        array.write_row(6, 10, &b.to_bits(width + 1)).unwrap();
        let mut exec = Executor::new(&mut array);
        exec.run(&adder.program(AddOp::Add)).unwrap();
        let bits = exec.array().read_row_bits(7, 10..10 + width + 1).unwrap();
        assert_eq!(Uint::from_bits(&bits), a.add(&b));
        // The poisoned columns are untouched.
        for r in 0..15 {
            assert_eq!(
                exec.array().read_row_bits(r + 5, 0..10).unwrap(),
                vec![true; 10],
                "row {} outside window must be untouched",
                r + 5
            );
        }
    }

    #[test]
    fn two_adders_side_by_side_in_one_array() {
        // Two independent adders sharing rows but in disjoint column
        // windows — the batching pattern stage 3 relies on.
        let width = 8;
        let mk = |col_base: usize| {
            KoggeStoneAdder::with_layout(
                width,
                AdderLayout {
                    x_row: 0,
                    y_row: 1,
                    sum_row: 2,
                    scratch: std::array::from_fn(|i| 3 + i),
                    col_base,
                },
            )
        };
        let left = mk(0);
        let right = mk(width + 1);
        let mut array = Crossbar::new(15, 2 * (width + 1)).unwrap();
        array
            .write_row(0, 0, &Uint::from_u64(200).to_bits(9))
            .unwrap();
        array
            .write_row(1, 0, &Uint::from_u64(55).to_bits(9))
            .unwrap();
        array
            .write_row(0, width + 1, &Uint::from_u64(123).to_bits(9))
            .unwrap();
        array
            .write_row(1, width + 1, &Uint::from_u64(45).to_bits(9))
            .unwrap();
        let mut exec = Executor::new(&mut array);
        exec.run(&left.program(AddOp::Add)).unwrap();
        exec.run(&right.program(AddOp::Add)).unwrap();
        let l = Uint::from_bits(&exec.array().read_row_bits(2, 0..9).unwrap());
        let r = Uint::from_bits(&exec.array().read_row_bits(2, 9..18).unwrap());
        assert_eq!(l, Uint::from_u64(255));
        assert_eq!(r, Uint::from_u64(168));
    }

    #[test]
    fn scratch_region_is_reset_after_program() {
        let adder = KoggeStoneAdder::new(8);
        let mut array = Crossbar::new(adder.required_rows(), adder.required_cols()).unwrap();
        array
            .write_row(0, 0, &Uint::from_u64(200).to_bits(9))
            .unwrap();
        array
            .write_row(1, 0, &Uint::from_u64(55).to_bits(9))
            .unwrap();
        let mut exec = Executor::new(&mut array);
        exec.run(&adder.program(AddOp::Add)).unwrap();
        for r in 3..15 {
            assert_eq!(
                exec.array().read_row_bits(r, 0..9).unwrap(),
                vec![false; 9],
                "scratch row {r} must be clean"
            );
        }
    }

    #[test]
    fn scratch_wear_is_about_two_writes_per_level() {
        // Paper: 2·⌈log2 n⌉ writes per scratch cell per addition (±
        // the constant phase-1/phase-3 traffic on the temp rows).
        let width = 64;
        let adder = KoggeStoneAdder::new(width);
        let mut array = Crossbar::new(adder.required_rows(), adder.required_cols()).unwrap();
        array.write_row(0, 0, &[true; 65]).unwrap();
        array.write_row(1, 0, &[true; 65]).unwrap();
        array.reset_wear();
        let mut exec = Executor::new(&mut array);
        exec.run(&adder.program(AddOp::Add)).unwrap();
        let report = EnduranceReport::from_array(&array);
        let levels = 6u64;
        assert!(
            report.max_writes <= 3 * levels,
            "max writes {} should stay O(levels)",
            report.max_writes
        );
        assert!(report.max_writes >= 2 * levels - 2);
    }

    #[test]
    fn program_opt_at_o0_is_byte_identical() {
        for width in [1usize, 4, 33, 64, 129] {
            let adder = KoggeStoneAdder::new(width);
            for op in [AddOp::Add, AddOp::Sub] {
                assert_eq!(adder.program_opt(op, OptLevel::O0), adder.program(op));
            }
        }
    }

    #[test]
    fn optimized_programs_compute_the_same_sums() {
        let mut rng = UintRng::seeded(77);
        for width in [4usize, 17, 64, 65] {
            let adder = KoggeStoneAdder::new(width);
            for opt in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
                let a = rng.uniform(width);
                let b = rng.uniform(width);
                let mut array =
                    Crossbar::new(adder.required_rows(), adder.required_cols()).unwrap();
                array.write_row(0, 0, &a.to_bits(width + 1)).unwrap();
                array.write_row(1, 0, &b.to_bits(width + 1)).unwrap();
                let mut exec = Executor::new(&mut array);
                exec.run(&adder.program_opt(AddOp::Add, opt)).unwrap();
                let bits = exec.array().read_row_bits(2, 0..width + 1).unwrap();
                assert_eq!(Uint::from_bits(&bits), a.add(&b), "width {width} {opt}");
                // Scratch contract survives optimization.
                for r in 3..15 {
                    assert_eq!(
                        exec.array().read_row_bits(r, 0..width + 1).unwrap(),
                        vec![false; width + 1],
                        "scratch row {r} at {opt}"
                    );
                }
            }
        }
    }

    #[test]
    fn optimized_subtraction_matches() {
        let adder = KoggeStoneAdder::new(4);
        for opt in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            for a in 0u64..16 {
                for b in 0u64..=a {
                    let mut array =
                        Crossbar::new(adder.required_rows(), adder.required_cols()).unwrap();
                    array
                        .write_row(0, 0, &Uint::from_u64(a).to_bits(5))
                        .unwrap();
                    array
                        .write_row(1, 0, &Uint::from_u64(b).to_bits(5))
                        .unwrap();
                    let mut exec = Executor::new(&mut array);
                    exec.run(&adder.program_opt(AddOp::Sub, opt)).unwrap();
                    let bits = exec.array().read_row_bits(2, 0..4).unwrap();
                    assert_eq!(
                        Uint::from_bits(&bits),
                        Uint::from_u64(a - b),
                        "{a}-{b} {opt}"
                    );
                }
            }
        }
    }

    #[test]
    fn opt_latency_is_monotone_and_packing_beats_the_paper() {
        for width in [4usize, 64, 513] {
            let adder = KoggeStoneAdder::new(width);
            let o0 = adder.latency_at(OptLevel::O0);
            let o1 = adder.latency_at(OptLevel::O1);
            let o2 = adder.latency_at(OptLevel::O2);
            let o3 = adder.latency_at(OptLevel::O3);
            assert_eq!(o0, adder.latency());
            assert!(o1 < o0, "dead-write elim must save cycles at width {width}");
            assert!(o2 < o1, "packing must save further cycles at width {width}");
            assert_eq!(o3, o2, "placement is identity on compact layouts");
            assert_eq!(adder.packed_latency(), o2);
        }
    }

    #[test]
    fn wear_leveling_halves_peak_wear() {
        let mut plain = AdderUnit::new(16, false).unwrap();
        let mut leveled = AdderUnit::new(16, true).unwrap();
        let mut rng = UintRng::seeded(8);
        for _ in 0..40 {
            let a = rng.uniform(16);
            let b = rng.uniform(16);
            assert_eq!(plain.add(&a, &b).unwrap(), a.add(&b));
            assert_eq!(leveled.add(&a, &b).unwrap(), a.add(&b));
        }
        let p = plain.endurance();
        let l = leveled.endurance();
        assert!(
            (l.max_writes as f64) < 0.7 * p.max_writes as f64,
            "wear-leveling should cut peak wear substantially: {} vs {}",
            l.max_writes,
            p.max_writes
        );
        assert!(l.balance() > p.balance(), "wear should be more even");
        assert_eq!(plain.cycles(), leveled.cycles(), "no performance cost");
    }
}
