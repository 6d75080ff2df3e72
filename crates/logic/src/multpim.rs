//! Single-row serial multiplier, adopted from MultPIM \[9\] for the
//! paper's multiplication stage (Sec. IV-D).
//!
//! Each multiplication lives entirely in **one memory row**, so `k`
//! independent multiplications run in `k` rows simultaneously — exactly
//! how the paper parallelizes the 9 partial products of the unrolled
//! Karatsuba tree. The paper further optimizes the original MultPIM row
//! from ~14·w to **12·w cells** for `w`-bit operands by sharing memory
//! between input and output operands; we use that optimized layout.
//!
//! Latency of one `w`-bit multiplication (all rows in parallel):
//!
//! ```text
//! w · (⌈log2 w⌉ + 14) + 3   clock cycles
//! ```
//!
//! (`w` shift-add iterations, each performing a partition-parallel
//! carry-lookahead addition in `⌈log2 w⌉ + 14` cycles, plus 3 cycles of
//! finalization.)
//!
//! ### Fidelity note
//!
//! The original MultPIM NOR-level microcode is not published in enough
//! detail to reconstruct cycle-exactly, and the paper itself uses it as
//! a black box with the latency formula above. This implementation
//! keeps the row's *state* exact — operands, product, carry and
//! scratch cells hold the values and per-cell wear of `w` cell-serial
//! shift-add iterations — while cycles are charged by the formula (see
//! DESIGN.md §1/§4). On a fault-free row the shift-add is evaluated in
//! closed form: the iterations' writes are recorded as wear only (one
//! window record per region of the row), and the final values
//! (the product `a·b` and the last active iteration's carries) are
//! stored once. A row with a stuck-at fault runs the cell-serial
//! reference loop instead, so pinned reads feed back into the sums.
//!
//! ### Batches
//!
//! On a bit-sliced array one row holds up to 64 multiplications, one
//! per lane, at the cycle cost of one:
//! [`RowMultiplier::load_lanes_program`] and
//! [`RowMultiplier::run_lanes_in`] take both operands as lane words
//! (one word per column, bit `l` for lane `l`) and return the product
//! region the same way. [`crate::pair_lanes`] and [`crate::lane_uints`]
//! transpose per-lane integers in and out; the multiplier stage keeps
//! its batches in lane words from end to end.

use cim_bigint::Uint;
use cim_crossbar::{BackendKind, Crossbar, CrossbarError, Executor, MicroOp, Region, WearWindow};
use std::sync::Arc;

/// Cells per row required for one `w`-bit in-row multiplier
/// (paper: `12·(n/4+2)` for the stage's `w = n/4+2`-bit operands).
pub const CELLS_PER_BIT: usize = 12;

/// Row-internal layout offsets (in multiples of `w`).
const A_OFF: usize = 0; // operand a: [0, w)
const B_OFF: usize = 1; // operand b: [w, 2w)
const P_OFF: usize = 2; // product accumulator: [2w, 4w) (shared with output)
const C_OFF: usize = 4; // carry staging: [4w, 5w)
const S_OFF: usize = 5; // partition scratch: [5w, 12w)

/// Statistics of one in-row multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMultStats {
    /// Clock cycles (analytic, per the MultPIM formula).
    pub cycles: u64,
    /// Shift-add iterations executed (= operand width).
    pub iterations: usize,
}

/// A `w`-bit multiplier occupying a single crossbar row of `12·w`
/// cells.
///
/// ```
/// use cim_bigint::Uint;
/// use cim_logic::multpim::RowMultiplier;
///
/// # fn main() -> Result<(), cim_crossbar::CrossbarError> {
/// let mult = RowMultiplier::new(16);
/// let (product, stats) = mult.multiply(&Uint::from_u64(60000), &Uint::from_u64(60001))?;
/// assert_eq!(product, Uint::from_u128(60000 * 60001));
/// assert_eq!(stats.cycles, mult.latency());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMultiplier {
    width: usize,
    opt: cim_mir::OptLevel,
}

impl RowMultiplier {
    /// Creates a `width`-bit in-row multiplier with the paper-exact
    /// (O0) iteration schedule.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        Self::with_opt_level(width, cim_mir::OptLevel::O0)
    }

    /// Creates a multiplier whose iterations are scheduled at `opt`:
    /// at O2+ the per-iteration micro-step DAG (`cim-mir::rowmul`) is
    /// re-packed into co-issue bundles, shrinking the per-iteration
    /// depth from `⌈log₂w⌉ + 14` to `⌈log₂w⌉ + 9`. Functional state
    /// and wear are unchanged — the iteration performs the same gate
    /// set either way; only the issue schedule (and thus latency)
    /// differs.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_opt_level(width: usize, opt: cim_mir::OptLevel) -> Self {
        assert!(width > 0, "multiplier width must be positive");
        RowMultiplier { width, opt }
    }

    /// Operand width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The optimization level the iteration schedule uses.
    pub fn opt_level(&self) -> cim_mir::OptLevel {
        self.opt
    }

    /// Row length in cells: `12·w` (the paper's optimized layout;
    /// the original MultPIM needs ~14·w, e.g. 5,369 cells for 384-bit).
    pub fn required_cols(&self) -> usize {
        CELLS_PER_BIT * self.width
    }

    /// Analytic latency at this multiplier's opt level:
    /// `w·(⌈log2 w⌉ + 14) + 3` cc at O0/O1, `w·depth + 3` with the
    /// re-packed iteration depth at O2+.
    pub fn latency(&self) -> u64 {
        self.latency_at(self.opt)
    }

    /// Latency the iteration schedule would have at `opt`.
    pub fn latency_at(&self, opt: cim_mir::OptLevel) -> u64 {
        cim_mir::rowmul::latency(self.width, opt, cim_mir::TileLimits::DEFAULT_PARTITIONS)
    }

    /// The operand-loading prologue as a verified micro-op program:
    /// both operands written into the row plus a reset wave over the
    /// shared product region. Statically checked (`cim-check`) in
    /// debug and test builds.
    ///
    /// # Panics
    ///
    /// Panics if an operand exceeds `width` bits.
    pub fn load_program(&self, row: usize, col_base: usize, a: &Uint, b: &Uint) -> Vec<MicroOp> {
        let w = self.width;
        let at = |off: usize| col_base + off * w;
        let prog = vec![
            crate::write_row_uint(row, at(A_OFF), a, w),
            crate::write_row_uint(row, at(B_OFF), b, w),
            MicroOp::reset_region(row..row + 1, at(P_OFF)..at(P_OFF) + 2 * w),
        ];
        cim_check::debug_assert_verified(
            &prog,
            &cim_check::VerifyConfig::new(row + 1, col_base + self.required_cols()),
            "RowMultiplier::load_program",
        );
        prog
    }

    /// Runs the multiplication inside row `row` of `array`, columns
    /// `col_base..col_base + 12·w`. Operands are loaded via
    /// [`RowMultiplier::load_program`], the shift-add leaves the
    /// accumulator, carry and scratch cells with the values and wear
    /// of the `w` cell-serial iterations (computed in closed form on a
    /// fault-free region, iterated cell by cell otherwise), and the
    /// `2w`-bit product is read back from the shared product region.
    /// On a sliced array the prologue broadcasts the operands, so
    /// every lane computes the same product.
    ///
    /// # Errors
    ///
    /// Returns an error if the region does not fit in the array.
    ///
    /// # Panics
    ///
    /// Panics if an operand exceeds `width` bits.
    pub fn run_in(
        &self,
        array: &mut Crossbar,
        row: usize,
        col_base: usize,
        a: &Uint,
        b: &Uint,
    ) -> Result<(Uint, RowMultStats), CrossbarError> {
        let w = self.width;
        let at = |off: usize| col_base + off * w;

        // Load operands and clear the accumulator via the verified
        // prologue program (cycles are charged by the formula, so the
        // temporary executor's stats are discarded).
        let mut loader = Executor::new(&mut *array);
        loader.run(&self.load_program(row, col_base, a, b))?;
        self.shift_add(array, row, col_base, array.lanes())?;

        Ok((
            crate::read_row_uint(array, row, at(P_OFF)..at(P_OFF) + 2 * w)?,
            RowMultStats {
                cycles: self.latency(),
                iterations: w,
            },
        ))
    }

    /// The batch operand-loading prologue on operands in lane words
    /// (`width` words each, bit `l` of word `j` = bit `j` of lane `l`'s
    /// operand): both rows are written as they are, plus the reset wave
    /// over the shared product region — the same three micro-ops that
    /// load one instance load up to 64, with identical cycle cost,
    /// trace shape and per-cell wear.
    ///
    /// # Panics
    ///
    /// Panics if an operand is not `width` words long.
    pub fn load_lanes_program(
        &self,
        row: usize,
        col_base: usize,
        a: &[u64],
        b: &[u64],
    ) -> Vec<MicroOp> {
        let w = self.width;
        let at = |off: usize| col_base + off * w;
        assert!(
            a.len() == w && b.len() == w,
            "operands must be {w} lane words, got {} and {}",
            a.len(),
            b.len()
        );
        let prog = vec![
            MicroOp::write_row_lanes(row, at(A_OFF), a),
            MicroOp::write_row_lanes(row, at(B_OFF), b),
            MicroOp::reset_region(row..row + 1, at(P_OFF)..at(P_OFF) + 2 * w),
        ];
        cim_check::debug_assert_verified(
            &prog,
            &cim_check::VerifyConfig::new(row + 1, col_base + self.required_cols()),
            "RowMultiplier::load_lanes_program",
        );
        prog
    }

    /// Runs up to 64 independent multiplications in row `row` of a
    /// bit-sliced array on operands in lane words (`width` words each,
    /// bit `l` of word `j` = bit `j` of lane `l`'s operand; see
    /// [`crate::pair_lanes`]) for the first `lanes` lanes. One loading
    /// prologue and one shift-add pass execute every lane in the same
    /// `O(w)` bulk operations a single instance takes, so the analytic
    /// latency (and the trace shape) is identical to
    /// [`RowMultiplier::run_in`]; throughput scales with the lane
    /// count. Per lane, the final cell values and per-cell wear are
    /// bit-identical to a solo run with the same operands. Returns the
    /// `2·width`-column product region as lane words, bits of lanes at
    /// `lanes` and above cleared.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::LaneOutOfRange`] if `lanes` exceeds the
    /// array's lanes, and propagates geometry errors.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or an operand is not `width` words
    /// long.
    pub fn run_lanes_in(
        &self,
        array: &mut Crossbar,
        row: usize,
        col_base: usize,
        a: &[u64],
        b: &[u64],
        lanes: usize,
    ) -> Result<(Vec<u64>, RowMultStats), CrossbarError> {
        let w = self.width;
        let at = |off: usize| col_base + off * w;
        check_lanes(array, lanes)?;
        assert!(lanes > 0, "batch must hold 1..=64 lanes");
        let mut loader = Executor::new(&mut *array);
        loader.run(&self.load_lanes_program(row, col_base, a, b))?;
        self.shift_add(array, row, col_base, lanes)?;
        Ok((
            crate::read_row_lanes(array, row, at(P_OFF)..at(P_OFF) + 2 * w, lanes)?,
            RowMultStats {
                cycles: self.latency(),
                iterations: w,
            },
        ))
    }

    /// The shift-add pass over the first `lanes` lanes of a loaded
    /// row. The closed form computes values in the controller, which
    /// is only valid while no cell in the row region can pin a read;
    /// with a fault in any of those lanes it falls back to the
    /// reference loop, whose live reads feed pinned bits back through
    /// the sums (identical final state and wear on a fault-free
    /// region).
    fn shift_add(
        &self,
        array: &mut Crossbar,
        row: usize,
        col_base: usize,
        lanes: usize,
    ) -> Result<(), CrossbarError> {
        let region = col_base..col_base + self.required_cols();
        if array.row_region_fault_free(row, region)? {
            self.shift_add_closed_form(array, row, col_base, lanes)
        } else {
            self.shift_add_reference(array, row, col_base, lanes)
        }
    }

    /// Reference shift-add: iteration `i` adds `(a·b_i) << i` into the
    /// accumulator cell by cell, in every lane whose multiplier bit
    /// `b_i` is set (masked lane writes; the scalar and packed
    /// backends have the one lane), so accumulator, carry and scratch
    /// cells see realistic traffic. This is the behavioural gold the
    /// closed form must match write for write; it also handles faulty
    /// cells. Within an iteration it never reads a cell it has already
    /// written (A/B are read-only, `P[i+j]` is read and written at
    /// step `j`, C is write-only), so pinned lane bits feed back into
    /// later iterations lane by lane.
    fn shift_add_reference(
        &self,
        array: &mut Crossbar,
        row: usize,
        col_base: usize,
        lanes: usize,
    ) -> Result<(), CrossbarError> {
        let w = self.width;
        let at = |off: usize| col_base + off * w;
        let active = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        for i in 0..w {
            let m = array.read_cell_lanes(row, at(B_OFF) + i)? & active;
            // Partition-parallel p/g staging writes (scratch region is
            // reused every iteration — this is what bounds MultPIM's
            // per-cell wear at O(w)).
            let scratch_cols = at(S_OFF)..at(S_OFF) + w;
            array.reset_region(&Region::new(row..row + 1, scratch_cols))?;
            if m == 0 {
                continue;
            }
            let mut carry = 0u64;
            for j in 0..=w {
                let p_col = at(P_OFF) + i + j;
                let a = if j < w {
                    array.read_cell_lanes(row, at(A_OFF) + j)?
                } else {
                    0
                };
                let p = array.read_cell_lanes(row, p_col)?;
                let t = a ^ p;
                let sum = t ^ carry;
                carry = (a & p) | (t & carry);
                // Carry staging cell then accumulator write-back.
                array.write_row_lanes_masked(row, at(C_OFF) + j % w, &[carry], m)?;
                array.write_row_lanes_masked(row, p_col, &[sum], m)?;
            }
        }
        Ok(())
    }

    /// Closed-form shift-add, observationally identical to
    /// [`RowMultiplier::shift_add_reference`] on a fault-free region.
    /// Each of the reference's writes is split into its two halves
    /// (see [`Crossbar::wear_region`]):
    ///
    /// * **Wear**, pulse for pulse: the scratch reset pulses every
    ///   iteration (the reference resets before testing `b_i`), so the
    ///   scratch region takes one reset plus `w − 1` extra pulses. Each
    ///   iteration `i` whose multiplier bit is set writes the product
    ///   window `[i, i + w + 1)`, every carry cell once and `C[0]` a
    ///   second time (at `j = 0` and again at `j = w`). Those writes
    ///   depend only on the lanes' multiplier bits, so they go down as
    ///   three window records over the `b` row's lane words
    ///   ([`Crossbar::wear_row_windows`]): the P windows (stride 1,
    ///   `w + 1` columns), `C[1..w)` (stride 0) and `C[0]` (stride 0,
    ///   two pulses), whose hulls are disjoint. The crossbar folds each
    ///   lane's endurance from them in closed form. The sliced backend
    ///   takes the lane words of the `b` row masked to the batch's
    ///   lanes, the scalar and packed backends the row's bits as lane 0.
    /// * **Values**, stored once per lane: a cell's final value is the
    ///   last write it took, so the product region takes `a·b` and the
    ///   carry-staging cells take the ripple carries of the lane's last
    ///   active iteration `i_last`. That iteration adds `a` into the
    ///   window of the accumulator at `i_last`, and its sum is the
    ///   window of the final product, `s = (a·b) >> i_last`; so the
    ///   window held `s − a`, and bit `k` of `s ^ a ^ (s − a)` is the
    ///   carry *into* bit `k`. Lanes whose multiplier is zero never
    ///   write: their `C` cells keep their prior values and their
    ///   product region the prologue's reset zeros (= their product).
    ///
    /// Reads carry no wear or cycle cost, so reading the operands once
    /// instead of per iteration is unobservable. Operands and values
    /// move as flat per-lane limb buffers (lane `l`'s limbs at
    /// `[l · stride, (l + 1) · stride)`): on the sliced backend one
    /// 64×64 transpose per 64 columns in and out of each region, on
    /// the scalar and packed backends the row's own words as lane 0.
    fn shift_add_closed_form(
        &self,
        array: &mut Crossbar,
        row: usize,
        col_base: usize,
        lanes: usize,
    ) -> Result<(), CrossbarError> {
        use cim_crossbar::lanes::{lane_limbs_flat, transpose_lanes_flat};
        let w = self.width;
        let at = |off: usize| col_base + off * w;
        let sliced = array.backend_kind() == BackendKind::Sliced;
        let nw = w.div_ceil(64);
        // Operands as flat per-lane limbs, and the `b` row as the lane
        // words of the batch's lanes (the multiplier bit per offset).
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let b_cols: Arc<[u64]> = if sliced {
            let mut cols = Vec::new();
            array.read_row_lane_words(row, at(A_OFF)..at(A_OFF) + w, &mut cols)?;
            lane_limbs_flat(&cols, &mut a);
            array.read_row_lane_words(row, at(B_OFF)..at(B_OFF) + w, &mut cols)?;
            lane_limbs_flat(&cols, &mut b);
            let active = u64::MAX >> (64 - lanes);
            cols.iter().map(|m| m & active).collect()
        } else {
            array.read_row_words(row, at(A_OFF)..at(A_OFF) + w, &mut a)?;
            array.read_row_words(row, at(B_OFF)..at(B_OFF) + w, &mut b)?;
            (0..w).map(|i| b[i / 64] >> (i % 64) & 1).collect()
        };
        let b_of = |l: usize| &b[l * nw..][..nw];

        let scratch = Region::new(row..row + 1, at(S_OFF)..at(S_OFF) + w);
        array.reset_region(&scratch)?;
        array.wear_region(&scratch, w as u64 - 1)?;
        let window = |col, len, stride, pulses| WearWindow {
            col,
            len,
            stride,
            pulses,
        };
        let written = b_cols.iter().fold(0, |any, &m| any | m);
        array.wear_row_windows(
            row,
            b_cols,
            &[
                window(at(P_OFF), w + 1, 1, 1),
                window(at(C_OFF) + 1, w - 1, 0, 1),
                window(at(C_OFF), 1, 0, 2),
            ],
        )?;

        // Per written lane: the product (2·nw limbs) and the C cells'
        // values (nw limbs), from the carries into each bit of the last
        // active iteration's `w + 2`-bit sum, `s ^ a ^ (s − a)`.
        let mut product = vec![0u64; lanes * 2 * nw];
        let mut carry = vec![0u64; lanes * nw];
        let mut carry_in = vec![0u64; (w + 2).div_ceil(64)];
        for l in (0..lanes).filter(|&l| written >> l & 1 == 1) {
            let (a, b) = (&a[l * nw..][..nw], b_of(l));
            let p = &mut product[l * 2 * nw..][..2 * nw];
            cim_bigint::mul::schoolbook::mul_limbs(a, b, p);
            let top = b.iter().rposition(|&word| word != 0).expect("written lane");
            let i_last = top * 64 + 63 - b[top].leading_zeros() as usize;
            let (base, sh) = (i_last / 64, i_last % 64);
            let mut borrow = false;
            for (k, slot) in carry_in.iter_mut().enumerate() {
                // Word `k` of the window `s = product >> i_last`.
                let lo = p.get(base + k).map_or(0, |&x| x >> sh);
                let hi = match sh {
                    0 => 0,
                    _ => p.get(base + k + 1).map_or(0, |&x| x << (64 - sh)),
                };
                let (s, x) = (lo | hi, a.get(k).copied().unwrap_or(0));
                let (d, b1) = s.overflowing_sub(x);
                let (y, b2) = d.overflowing_sub(u64::from(borrow));
                borrow = b1 || b2;
                *slot = s ^ x ^ y;
            }
            // Reference C layout: C[k] ← carry out of bit k for
            // k = 1..w, with j = w wrapping its carry onto C[0]; the
            // stores take w columns, so bits past w are never read.
            let wrap = carry_in[(w + 1) / 64] >> ((w + 1) % 64) & 1;
            for (k, slot) in carry[l * nw..][..nw].iter_mut().enumerate() {
                *slot = carry_in[k] >> 1 | carry_in.get(k + 1).map_or(0, |&x| x << 63);
            }
            carry[l * nw] = carry[l * nw] & !1 | wrap;
        }
        if sliced {
            let p_cols = transpose_lanes_flat(&product, 2 * nw, 2 * w);
            array.store_row_lane_words(row, at(P_OFF), &p_cols, written)?;
            let c_cols = transpose_lanes_flat(&carry, nw, w);
            array.store_row_lane_words(row, at(C_OFF), &c_cols, written)
        } else if written == 1 {
            array.store_row_words(row, at(P_OFF), &product, 2 * w)?;
            array.store_row_words(row, at(C_OFF), &carry, w)
        } else {
            Ok(())
        }
    }

    /// Convenience: standalone multiplication on a fresh 1-row array.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand exceeds `width` bits.
    pub fn multiply(&self, a: &Uint, b: &Uint) -> Result<(Uint, RowMultStats), CrossbarError> {
        let mut array = Crossbar::new(1, self.required_cols())?;
        self.run_in(&mut array, 0, 0, a, b)
    }
}

/// Refuses a batch of more lanes than `array` carries.
fn check_lanes(array: &Crossbar, lanes: usize) -> Result<(), CrossbarError> {
    if lanes > array.lanes() {
        Err(CrossbarError::LaneOutOfRange {
            lane: lanes - 1,
            lanes: array.lanes(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::{corner_cases, UintRng};

    /// Runs `pairs` as one batch in row 0 of `array`, lane `l` taking
    /// `pairs[l]`: the operands transposed into lane words, the products
    /// transposed back per lane.
    fn run_pairs(
        m: &RowMultiplier,
        array: &mut Crossbar,
        pairs: &[(Uint, Uint)],
    ) -> Result<(Vec<Uint>, RowMultStats), CrossbarError> {
        let (a, b) = crate::pair_lanes(pairs, m.width());
        let (products, stats) = m.run_lanes_in(array, 0, 0, &a, &b, pairs.len())?;
        Ok((crate::lane_uints(&products, pairs.len()), stats))
    }

    #[test]
    fn exhaustive_4_bit() {
        let m = RowMultiplier::new(4);
        for a in 0u64..16 {
            for b in 0u64..16 {
                let (p, _) = m.multiply(&Uint::from_u64(a), &Uint::from_u64(b)).unwrap();
                assert_eq!(p, Uint::from_u64(a * b), "{a}·{b}");
            }
        }
    }

    #[test]
    fn random_wide_products() {
        let mut rng = UintRng::seeded(77);
        for w in [8usize, 17, 32, 66, 98] {
            let m = RowMultiplier::new(w);
            let a = rng.uniform(w);
            let b = rng.uniform(w);
            let (p, stats) = m.multiply(&a, &b).unwrap();
            assert_eq!(p, cim_bigint::mul::schoolbook::mul(&a, &b), "w = {w}");
            assert_eq!(stats.cycles, m.latency());
        }
    }

    #[test]
    fn corner_operands() {
        let m = RowMultiplier::new(16);
        for a in corner_cases(16) {
            for b in corner_cases(16) {
                let (p, _) = m.multiply(&a, &b).unwrap();
                assert_eq!(p, cim_bigint::mul::schoolbook::mul(&a, &b));
            }
        }
    }

    #[test]
    fn latency_formula_examples() {
        // Paper stage 2 for n=256: w = 66 → 66·(7+14)+3 = 1389 cc.
        assert_eq!(RowMultiplier::new(66).latency(), 1389);
        // n=64: w = 18 → 18·(5+14)+3 = 345 cc.
        assert_eq!(RowMultiplier::new(18).latency(), 345);
    }

    #[test]
    fn opt_level_shrinks_iteration_depth_without_touching_state() {
        use cim_mir::OptLevel;
        let base = RowMultiplier::new(66);
        let opt = RowMultiplier::with_opt_level(66, OptLevel::O3);
        // Packed iterations: 66·(7+9)+3 = 1059 vs the paper's 1389.
        assert_eq!(opt.latency(), 1059);
        assert_eq!(base.latency_at(OptLevel::O3), opt.latency());
        assert_eq!(opt.latency_at(OptLevel::O0), base.latency());
        assert!(opt.latency() < base.latency());
        // Same gates, same state and wear — only the schedule differs.
        let a = Uint::from_u64(0x1234_5678);
        let b = Uint::from_u64(0x9abc_def0);
        let m0 = RowMultiplier::new(33);
        let m3 = RowMultiplier::with_opt_level(33, OptLevel::O3);
        let mut x0 = Crossbar::new(1, m0.required_cols()).unwrap();
        let mut x3 = Crossbar::new(1, m3.required_cols()).unwrap();
        let (p0, s0) = m0.run_in(&mut x0, 0, 0, &a, &b).unwrap();
        let (p3, s3) = m3.run_in(&mut x3, 0, 0, &a, &b).unwrap();
        assert_eq!(p0, p3);
        assert_eq!(x0, x3);
        assert_eq!(s0.iterations, s3.iterations);
        assert!(s3.cycles < s0.cycles);
    }

    #[test]
    fn area_is_12_cells_per_bit() {
        assert_eq!(RowMultiplier::new(66).required_cols(), 792);
        // vs the original MultPIM's ~14·n: 5,369 cells for n=384.
        assert!(RowMultiplier::new(384).required_cols() < 5369);
    }

    #[test]
    fn per_cell_writes_scale_linearly_with_width() {
        let m = RowMultiplier::new(16);
        let ones = Uint::from_u64(0xFFFF);
        let mut row = Crossbar::new(1, m.required_cols()).unwrap();
        m.run_in(&mut row, 0, 0, &ones, &ones).unwrap();
        let report = cim_crossbar::EnduranceReport::from_array(&row);
        // Worst case: every iteration active; accumulator cells sit in
        // up to w sliding windows and the carry cells are reused every
        // iteration → O(w) per-cell writes, matching MultPIM's 4n scaling.
        assert!(report.max_writes <= 4 * 16 + 8, "max {}", report.max_writes);
        assert!(report.max_writes >= 16, "max {}", report.max_writes);
    }

    /// Operand pairs that stress the closed form's edges at width `w`:
    /// random, `b = 0` (no iteration writes), `b = 1` (only the
    /// first), `b = 2^(w−1)` (only the last, at the top of the
    /// product region), all-ones (every iteration, longest carry
    /// chains), `b = 2^w − 1` and `a = 2^w − 1` against a random
    /// operand, and `a = 0`.
    fn edge_pairs(rng: &mut UintRng, w: usize) -> Vec<(Uint, Uint)> {
        let ones = Uint::pow2(w).sub(&Uint::one());
        vec![
            (rng.uniform(w), rng.uniform(w)),
            (rng.uniform(w), Uint::zero()),
            (rng.uniform(w), Uint::one()),
            (rng.uniform(w), Uint::pow2(w - 1)),
            (ones.clone(), ones.clone()),
            (rng.uniform(w), ones.clone()),
            (ones, rng.uniform(w)),
            (Uint::zero(), rng.uniform(w)),
        ]
    }

    /// Asserts that every cell of row 0 holds the same value and wear
    /// in both arrays (lane 0 on the sliced backend).
    fn assert_same_cells(x: &Crossbar, y: &Crossbar, cols: usize, what: &str) {
        for c in 0..cols {
            assert_eq!(
                x.cell(0, c).unwrap(),
                y.cell(0, c).unwrap(),
                "cell {c}, {what}"
            );
        }
    }

    /// Multiplies `first` and then `(a, b)` in row 0 of a fresh
    /// one-row array of `kind` (one lane when sliced), running each
    /// shift-add with the closed form or the reference loop. The first
    /// multiply leaves stale carry and scratch values behind, which a
    /// zero multiplier must keep.
    fn twice(
        m: &RowMultiplier,
        kind: cim_crossbar::BackendKind,
        first: &(Uint, Uint),
        (a, b): (&Uint, &Uint),
        closed_form: bool,
    ) -> Crossbar {
        let cols = m.required_cols();
        let mut x = match kind {
            cim_crossbar::BackendKind::Sliced => Crossbar::new_sliced(1, cols, 1).unwrap(),
            _ => Crossbar::with_backend(1, cols, kind).unwrap(),
        };
        for (a, b) in [(&first.0, &first.1), (a, b)] {
            Executor::new(&mut x)
                .run(&m.load_program(0, 0, a, b))
                .unwrap();
            if closed_form {
                m.shift_add_closed_form(&mut x, 0, 0, 1).unwrap();
            } else {
                m.shift_add_reference(&mut x, 0, 0, 1).unwrap();
            }
        }
        x
    }

    /// The closed-form shift-add must leave exactly the state and wear
    /// the cell-serial reference loop leaves on the scalar backend (the
    /// per-cell gold) — on every backend, at the stage widths of 384-
    /// and 2048-bit multiplies, on edge operands, in a row that held an
    /// earlier product. The reference loop itself is compared across
    /// backends up to `w = 98`: on the sliced backend each of its
    /// masked writes adds a wear entry that every per-cell query scans,
    /// which makes it too slow to check at 514.
    #[test]
    fn packed_shift_add_matches_reference_state_and_wear() {
        use cim_crossbar::BackendKind;
        let mut rng = UintRng::seeded(991);
        for w in [1usize, 4, 8, 17, 63, 64, 65, 70, 98, 514] {
            let m = RowMultiplier::new(w);
            let cols = m.required_cols();
            let first = (rng.uniform(w), rng.uniform(w));
            for (a, b) in edge_pairs(&mut rng, w) {
                let gold = twice(&m, BackendKind::Scalar, &first, (&a, &b), false);
                for kind in [
                    BackendKind::Scalar,
                    BackendKind::Packed,
                    BackendKind::Sliced,
                ] {
                    let what = format!("w = {w}, b bits = {}, {kind:?}", b.bit_len());
                    let fast = twice(&m, kind, &first, (&a, &b), true);
                    assert_same_cells(&fast, &gold, cols, &what);
                    if w <= 98 {
                        let slow = twice(&m, kind, &first, (&a, &b), false);
                        assert_same_cells(&slow, &gold, cols, &format!("reference, {what}"));
                    }
                }
            }
        }
    }

    #[test]
    fn faulty_region_falls_back_to_reference() {
        use cim_crossbar::Fault;
        let m = RowMultiplier::new(8);
        let mut array = Crossbar::new(1, m.required_cols()).unwrap();
        // Pin an accumulator cell to 1: the product must reflect the
        // pinned read feeding back through the shift-add.
        array
            .inject_fault(0, 2 * 8 + 3, Some(Fault::StuckAt1))
            .unwrap();
        let (p, _) = m
            .run_in(&mut array, 0, 0, &Uint::from_u64(0), &Uint::from_u64(0))
            .unwrap();
        assert_eq!(p, Uint::from_u64(8), "stuck-at-1 bit 3 shows in 0·0");
    }

    /// Runs `pairs` as one batch and each pair solo (on the scalar and
    /// packed backends), and asserts that every lane leaves exactly
    /// the per-cell values and wear of its solo run, with the same
    /// product and stats — the lane-isolation contract the whole
    /// batching layer rests on. Each run follows a first multiply in
    /// the same row (lane `l` takes lane `len − 1 − l`'s operands), so
    /// the carry cells hold stale values that a lane with a zero
    /// multiplier must keep.
    fn assert_batch_matches_solo(m: &RowMultiplier, pairs: &[(Uint, Uint)]) {
        use cim_crossbar::BackendKind;
        let w = m.width();
        let cols = m.required_cols();
        let first: Vec<(Uint, Uint)> = pairs.iter().rev().cloned().collect();
        let mut batch = Crossbar::new_sliced(1, cols, pairs.len()).unwrap();
        run_pairs(m, &mut batch, &first).unwrap();
        let (products, stats) = run_pairs(m, &mut batch, pairs).unwrap();
        assert_eq!(stats.cycles, m.latency());
        for (lane, (a, b)) in pairs.iter().enumerate() {
            for kind in [BackendKind::Scalar, BackendKind::Packed] {
                let mut solo = Crossbar::with_backend(1, cols, kind).unwrap();
                m.run_in(&mut solo, 0, 0, &first[lane].0, &first[lane].1)
                    .unwrap();
                let (p, solo_stats) = m.run_in(&mut solo, 0, 0, a, b).unwrap();
                assert_eq!(products[lane], p, "lane {lane}, w = {w}, {kind:?}");
                assert_eq!(stats, solo_stats);
                for c in 0..cols {
                    assert_eq!(
                        batch.lane_cell(lane, 0, c).unwrap(),
                        solo.cell(0, c).unwrap(),
                        "cell {c}, lane {lane}, w = {w}, {kind:?}"
                    );
                }
            }
            assert_eq!(
                products[lane],
                cim_bigint::mul::schoolbook::mul(a, b),
                "lane {lane}, w = {w}"
            );
        }
    }

    #[test]
    fn batch_lanes_match_solo_state_wear_and_products() {
        let mut rng = UintRng::seeded(4242);
        for (w, lanes) in [(4usize, 3usize), (8, 64), (17, 7), (33, 12)] {
            let m = RowMultiplier::new(w);
            let pairs: Vec<(Uint, Uint)> = (0..lanes)
                .map(|_| (rng.uniform(w), rng.uniform(w)))
                .collect();
            assert_batch_matches_solo(&m, &pairs);
        }
    }

    /// One multi-lane row holding every edge pair (a zero-`b` lane
    /// among them) at the word-edge and stage widths: lanes share
    /// window entries and group by popcount in the carry entries, yet
    /// each must leave its solo run's values and wear.
    #[test]
    fn batch_edge_lanes_match_solo_at_word_and_stage_widths() {
        let mut rng = UintRng::seeded(4244);
        for w in [4usize, 63, 64, 65, 98, 514] {
            let m = RowMultiplier::new(w);
            let mut pairs = edge_pairs(&mut rng, w);
            pairs.push((rng.uniform(w), rng.uniform(w)));
            assert_batch_matches_solo(&m, &pairs);
        }
    }

    /// All 64 lanes at multi-limb widths with a ragged tail (98 and
    /// 129 bits: two and three limbs per lane): the closed form keeps
    /// every lane's operands, product and carries in flat buffers with
    /// a per-lane stride, so a stride slip shows as a lane taking its
    /// neighbour's values. Lanes with `b = 0`, `b = 1` and an all-ones
    /// `b` sit among random ones, at both ends of the lane word too.
    #[test]
    fn batch_all_64_lanes_match_solo_at_multi_limb_widths() {
        let mut rng = UintRng::seeded(4245);
        for w in [98usize, 129] {
            let m = RowMultiplier::new(w);
            let ones = Uint::pow2(w).sub(&Uint::one());
            let mut pairs: Vec<(Uint, Uint)> =
                (0..64).map(|_| (rng.uniform(w), rng.uniform(w))).collect();
            pairs[0].1 = Uint::zero();
            pairs[1].1 = Uint::one();
            pairs[2].1 = ones.clone();
            pairs[31].1 = Uint::zero();
            pairs[32] = (ones.clone(), ones.clone());
            pairs[62].1 = Uint::one();
            pairs[63].1 = ones;
            assert_batch_matches_solo(&m, &pairs);
        }
    }

    /// Lanes whose multiplier is zero never write, so the batch's
    /// `written` lane mask is partial: the value stores must skip
    /// those lanes while the others take their products and carries.
    #[test]
    fn batch_with_idle_lanes_matches_solo() {
        let mut rng = UintRng::seeded(4243);
        for w in [17usize, 98] {
            let m = RowMultiplier::new(w);
            let mut pairs = edge_pairs(&mut rng, w);
            pairs.push((rng.uniform(w), Uint::zero()));
            pairs.push((rng.uniform(w), rng.uniform(w)));
            assert_batch_matches_solo(&m, &pairs);
            // Only the top lane active, and no lane active at all.
            let mut top = vec![(rng.uniform(w), Uint::zero()); 5];
            top.push((rng.uniform(w), rng.uniform(w)));
            assert_batch_matches_solo(&m, &top);
            assert_batch_matches_solo(&m, &vec![(rng.uniform(w), Uint::zero()); 3]);
        }
    }

    /// A lane-local stuck-at fault must feed back into that lane's
    /// product only, through the live-read fallback path.
    #[test]
    fn batch_lane_fault_feeds_back_into_that_lane_only() {
        use cim_crossbar::Fault;
        let m = RowMultiplier::new(8);
        let mut array = Crossbar::new_sliced(1, m.required_cols(), 3).unwrap();
        // Pin accumulator bit 3 of lane 1 to 1.
        array
            .inject_fault_lane(1, 0, 2 * 8 + 3, Some(Fault::StuckAt1))
            .unwrap();
        let zero = Uint::from_u64(0);
        let pairs = vec![
            (Uint::from_u64(5), Uint::from_u64(7)),
            (zero.clone(), zero.clone()),
            (zero.clone(), zero),
        ];
        let (products, _) = run_pairs(&m, &mut array, &pairs).unwrap();
        assert_eq!(products[0], Uint::from_u64(35), "healthy lane unaffected");
        assert_eq!(
            products[1],
            Uint::from_u64(8),
            "stuck-at-1 bit 3 shows in 0·0"
        );
        assert_eq!(products[2], Uint::from_u64(0), "healthy lane unaffected");
    }

    #[test]
    fn batch_rejects_more_pairs_than_lanes() {
        let m = RowMultiplier::new(4);
        let mut array = Crossbar::new_sliced(1, m.required_cols(), 2).unwrap();
        let one = Uint::from_u64(1);
        let pairs = vec![(one.clone(), one.clone()); 3];
        assert!(run_pairs(&m, &mut array, &pairs).is_err());
    }

    #[test]
    fn multiple_rows_host_independent_multiplications() {
        // Two multipliers in two rows of one array (how the paper's
        // stage 2 runs 9 in parallel).
        let m = RowMultiplier::new(8);
        let mut array = Crossbar::new(2, m.required_cols()).unwrap();
        let (p0, _) = m
            .run_in(&mut array, 0, 0, &Uint::from_u64(200), &Uint::from_u64(100))
            .unwrap();
        let (p1, _) = m
            .run_in(&mut array, 1, 0, &Uint::from_u64(255), &Uint::from_u64(255))
            .unwrap();
        assert_eq!(p0, Uint::from_u64(20000));
        assert_eq!(p1, Uint::from_u64(255 * 255));
    }
}
