//! In-memory conditional subtraction — the final step of every
//! modular reduction (paper Sec. IV-F: Montgomery/Barrett end with
//! `if s ≥ m { s − m }`).
//!
//! Running the subtractor one bit wider than the modulus makes the
//! *top bit of its sum row* a borrow indicator: `s − m mod 2^(w+1)`
//! wraps (top bit set) exactly when `s < m` — so the comparison comes
//! for free, no separate comparator circuit needed. The controller
//! then reads that single bit (1 cc) and copies the winning row to the
//! result row through the periphery (2 cc):
//!
//! ```text
//! latency = KoggeStone(w+1) + 1 (flag read) + 2 (row copy) cc
//! ```

use crate::kogge_stone::{AddOp, AdderLayout, KoggeStoneAdder, SCRATCH_ROWS};
use cim_bigint::Uint;
use cim_crossbar::{Crossbar, CrossbarError, CycleStats, Executor, MicroOp};

/// Result of one in-memory conditional subtraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondSubOutput {
    /// `s mod m` (i.e. `s − m` if `s ≥ m`, else `s`).
    pub result: Uint,
    /// Whether the subtraction was taken (`s ≥ m`).
    pub subtracted: bool,
    /// Exact cycle statistics.
    pub stats: CycleStats,
}

/// In-memory `s mod m` reducer for `s < 2m`, `m < 2^width`.
///
/// ```
/// use cim_bigint::Uint;
/// use cim_logic::condsub::ConditionalSubtractor;
///
/// # fn main() -> Result<(), cim_crossbar::CrossbarError> {
/// let cs = ConditionalSubtractor::new(8);
/// let m = Uint::from_u64(201);
/// let out = cs.reduce(&Uint::from_u64(350), &m)?; // 350 − 201
/// assert_eq!(out.result, Uint::from_u64(149));
/// assert!(out.subtracted);
/// let out = cs.reduce(&Uint::from_u64(150), &m)?; // unchanged
/// assert_eq!(out.result, Uint::from_u64(150));
/// assert!(!out.subtracted);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConditionalSubtractor {
    /// Modulus width in bits; `s` may be one bit wider.
    width: usize,
}

// Row map: s, m, diff (adder sum), result, then adder scratch.
const S_ROW: usize = 0;
const M_ROW: usize = 1;
const DIFF_ROW: usize = 2;
const RESULT_ROW: usize = 3;
const SCRATCH_BASE: usize = 4;

impl ConditionalSubtractor {
    /// Creates a reducer for moduli up to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        ConditionalSubtractor { width }
    }

    /// The internal subtractor operates one bit wider than the
    /// modulus so `s < 2m` fits.
    fn sub_width(&self) -> usize {
        self.width + 1
    }

    /// Rows required: 4 data rows + 12 adder scratch rows.
    pub fn required_rows(&self) -> usize {
        4 + SCRATCH_ROWS
    }

    /// Columns required: `width + 2`.
    pub fn required_cols(&self) -> usize {
        self.sub_width() + 1
    }

    /// Analytic latency: subtractor + flag read + conditional row copy.
    pub fn latency(&self) -> u64 {
        KoggeStoneAdder::new(self.sub_width()).latency() + 1 + 2
    }

    /// Reduces `s` modulo `m` fully in memory (single pass).
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if `m` does not fit in `width` bits or `s ≥ 2m`
    /// (for larger `s`, chain [`ConditionalSubtractor::sub_if_geq`]).
    pub fn reduce(&self, s: &Uint, m: &Uint) -> Result<CondSubOutput, CrossbarError> {
        assert!(s < &m.shl(1), "input must be below 2m");
        self.sub_if_geq(s, m)
    }

    /// One in-memory pass of `if s ≥ m { s − m } else { s }` for any
    /// `s` and `m` that fit in `width` bits — chain passes to reduce
    /// from larger ranges (e.g. Barrett's `r < 3m` needs two).
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `m` does not fit in `width` bits.
    pub fn sub_if_geq(&self, s: &Uint, m: &Uint) -> Result<CondSubOutput, CrossbarError> {
        assert!(
            m.bit_len() <= self.width,
            "modulus of {} bits exceeds width {}",
            m.bit_len(),
            self.width
        );
        assert!(
            s.bit_len() <= self.sub_width(),
            "input of {} bits exceeds capacity {}",
            s.bit_len(),
            self.sub_width()
        );
        let w = self.sub_width();
        let cols = self.required_cols();

        let mut array = Crossbar::new(self.required_rows(), cols)?;
        array.write_row(S_ROW, 0, &s.to_bits(cols))?;
        array.write_row(M_ROW, 0, &m.to_bits(cols))?;

        let adder = KoggeStoneAdder::with_layout(
            w,
            AdderLayout {
                x_row: S_ROW,
                y_row: M_ROW,
                sum_row: DIFF_ROW,
                scratch: std::array::from_fn(|i| SCRATCH_BASE + i),
                col_base: 0,
            },
        );
        let mut exec = Executor::new(&mut array);
        exec.run(&adder.program(AddOp::Sub))?;

        // The diff row's top bit (column w) is the borrow indicator:
        // s − m computed modulo 2^(w+1) wraps (top bit 1) exactly when
        // s < m. So "subtract taken" = top bit clear.
        exec.step(&MicroOp::read_row(DIFF_ROW, w..w + 1))?;
        let subtracted = !exec.read_buffer()[0];

        // Controller copies the winning row into the result row
        // through the periphery (one 2-cc move).
        let src = if subtracted { DIFF_ROW } else { S_ROW };
        exec.step(&MicroOp::shift_to(src, RESULT_ROW, 0..w, 0, false))?;

        let result = crate::read_row_uint(exec.array(), RESULT_ROW, 0..w)?.low_bits(self.width);
        Ok(CondSubOutput {
            result,
            subtracted,
            stats: *exec.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::UintRng;

    #[test]
    fn exhaustive_small_modulus() {
        let cs = ConditionalSubtractor::new(6);
        let m = Uint::from_u64(37);
        for s in 0u64..74 {
            let out = cs.reduce(&Uint::from_u64(s), &m).unwrap();
            assert_eq!(out.result, Uint::from_u64(s % 37), "s = {s}");
            assert_eq!(out.subtracted, s >= 37, "s = {s}");
        }
    }

    #[test]
    fn boundary_s_equals_m() {
        let cs = ConditionalSubtractor::new(8);
        let m = Uint::from_u64(200);
        let out = cs.reduce(&m, &m).unwrap();
        assert_eq!(out.result, Uint::zero());
        assert!(out.subtracted, "s = m must subtract (s ≥ m)");
    }

    #[test]
    fn cycles_match_latency() {
        let cs = ConditionalSubtractor::new(64);
        let m = Uint::from_u64(u64::MAX - 58); // odd large modulus
        let mut rng = UintRng::seeded(61);
        for _ in 0..5 {
            let s = rng.below(&m.shl(1));
            let out = cs.reduce(&s, &m).unwrap();
            assert_eq!(out.result, s.rem(&m));
            assert_eq!(out.stats.cycles, cs.latency());
        }
    }

    #[test]
    fn wide_crypto_modulus() {
        let cs = ConditionalSubtractor::new(255);
        let m = Uint::pow2(255).sub(&Uint::from_u64(19)); // curve25519 p
        let mut rng = UintRng::seeded(62);
        for _ in 0..5 {
            let s = rng.below(&m.shl(1));
            let out = cs.reduce(&s, &m).unwrap();
            assert_eq!(out.result, s.rem(&m));
        }
    }

    #[test]
    #[should_panic(expected = "below 2m")]
    fn rejects_out_of_range_input() {
        let cs = ConditionalSubtractor::new(8);
        let m = Uint::from_u64(100);
        let _ = cs.reduce(&Uint::from_u64(250), &m);
    }
}
