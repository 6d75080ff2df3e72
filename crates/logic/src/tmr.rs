//! Triple modular redundancy (TMR) with in-memory majority voting —
//! a reliability extension on top of the paper's fault model.
//!
//! ReRAM cells wear out (Sec. II-A); a worn cell becomes stuck and
//! silently corrupts MAGIC results (see `examples/fault_injection`).
//! TMR runs the same computation in three independent row sets and
//! votes: `maj(a,b,c) = (a∧b) ∨ (a∧c) ∨ (b∧c)`, built from 4 NOR
//! operations plus the init wave, SIMD across all bit lines. Any
//! single stuck cell — in *any* of the three compute lanes — is
//! outvoted.

use crate::kogge_stone::{AddOp, AdderLayout, KoggeStoneAdder, SCRATCH_ROWS};
use cim_bigint::Uint;
use cim_crossbar::{Crossbar, CrossbarError, CycleStats, ExecConfig, Executor, Fault, MicroOp};

/// Emits `out = maj(a, b, c)` over `cols` — 5 cc (init + 4 NOR).
/// Uses three scratch rows.
///
/// Identity: `NOR(NOR(a,b), NOR(a,c), NOR(b,c))
/// = ¬((¬a∧¬b) ∨ (¬a∧¬c) ∨ (¬b∧¬c)) = ¬maj(¬a,¬b,¬c) = maj(a,b,c)`.
pub fn majority(
    a: usize,
    b: usize,
    c: usize,
    out: usize,
    scratch: [usize; 3],
    cols: std::ops::Range<usize>,
) -> Vec<MicroOp> {
    let [s0, s1, s2] = scratch;
    let prog = vec![
        MicroOp::init_rows(&[out, s0, s1, s2], cols.clone()),
        MicroOp::nor_rows(&[a, b], s0, cols.clone()),
        MicroOp::nor_rows(&[a, c], s1, cols.clone()),
        MicroOp::nor_rows(&[b, c], s2, cols.clone()),
        MicroOp::nor_rows(&[s0, s1, s2], out, cols.clone()),
    ];
    let rows = [a, b, c, out, s0, s1, s2].into_iter().max().unwrap_or(0) + 1;
    cim_check::debug_assert_verified(
        &prog,
        &cim_check::VerifyConfig::new(rows, cols.end).with_preloaded_rows(&[a, b, c], cols),
        "tmr::majority",
    );
    prog
}

/// A TMR-protected Kogge-Stone adder: three independent adder lanes
/// plus a voting stage.
///
/// ```
/// use cim_bigint::Uint;
/// use cim_logic::tmr::TmrAdder;
///
/// # fn main() -> Result<(), cim_crossbar::CrossbarError> {
/// let adder = TmrAdder::new(8);
/// let (sum, _) = adder.add(&Uint::from_u64(200), &Uint::from_u64(55), &[])?;
/// assert_eq!(sum, Uint::from_u64(255));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmrAdder {
    width: usize,
}

/// Rows per lane: x, y, sum + 12 scratch.
const LANE_ROWS: usize = 3 + SCRATCH_ROWS;

impl TmrAdder {
    /// Creates a TMR adder for `width`-bit operands.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "adder width must be positive");
        TmrAdder { width }
    }

    /// Rows: three lanes + vote output + 3 vote scratch rows.
    pub fn required_rows(&self) -> usize {
        3 * LANE_ROWS + 4
    }

    /// Columns: `width + 1`.
    pub fn required_cols(&self) -> usize {
        self.width + 1
    }

    /// Latency: three lane additions (sequential in this simulation;
    /// spatially parallel lanes would overlap them) + the 5-cc vote.
    pub fn latency(&self) -> u64 {
        3 * KoggeStoneAdder::new(self.width).latency() + 5
    }

    /// Area: 3× the single-lane adder plus the voting rows.
    pub fn area_cells(&self) -> u64 {
        (self.required_rows() * self.required_cols()) as u64
    }

    /// Adds `x + y` through all three lanes and votes. `faults`
    /// injects stuck-at faults (row, col, fault) before execution —
    /// any set of faults confined to a single lane is corrected.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `width` bits.
    pub fn add(
        &self,
        x: &Uint,
        y: &Uint,
        faults: &[(usize, usize, Fault)],
    ) -> Result<(Uint, CycleStats), CrossbarError> {
        let cols = 0..self.required_cols();
        let mut array = Crossbar::new(self.required_rows(), self.required_cols())?;
        for &(r, c, f) in faults {
            array.inject_fault(r, c, Some(f))?;
        }
        // Load operands into each lane (handoff, uncharged as usual).
        for lane in 0..3 {
            let base = lane * LANE_ROWS;
            array.write_row(base, 0, &x.to_bits(self.required_cols()))?;
            array.write_row(base + 1, 0, &y.to_bits(self.required_cols()))?;
        }
        // Lenient mode: faults manifest physically instead of erroring.
        let mut exec = Executor::with_config(&mut array, ExecConfig { strict_init: false });
        for lane in 0..3 {
            let base = lane * LANE_ROWS;
            let adder = KoggeStoneAdder::with_layout(
                self.width,
                AdderLayout {
                    x_row: base,
                    y_row: base + 1,
                    sum_row: base + 2,
                    scratch: std::array::from_fn(|i| base + 3 + i),
                    col_base: 0,
                },
            );
            exec.run(&adder.program(AddOp::Add))?;
        }
        // Vote the three sum rows into the output row.
        let vote_out = 3 * LANE_ROWS;
        let scratch = [vote_out + 1, vote_out + 2, vote_out + 3];
        exec.run(&majority(
            2,
            LANE_ROWS + 2,
            2 * LANE_ROWS + 2,
            vote_out,
            scratch,
            cols.clone(),
        ))?;
        let bits = exec.array().read_row_bits(vote_out, cols)?;
        Ok((Uint::from_bits(&bits), *exec.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::UintRng;

    #[test]
    fn majority_truth_table() {
        let mut x = Crossbar::new(8, 1).unwrap();
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let mut arr = Crossbar::new(8, 1).unwrap();
                    arr.write_row(0, 0, &[a]).unwrap();
                    arr.write_row(1, 0, &[b]).unwrap();
                    arr.write_row(2, 0, &[c]).unwrap();
                    let mut exec = Executor::new(&mut arr);
                    exec.run(&majority(0, 1, 2, 3, [4, 5, 6], 0..1)).unwrap();
                    let got = exec.array().read_cell(3, 0).unwrap();
                    let expect = (a as u8 + b as u8 + c as u8) >= 2;
                    assert_eq!(got, expect, "maj({a},{b},{c})");
                }
            }
        }
        let _ = &mut x;
    }

    #[test]
    fn fault_free_addition() {
        let adder = TmrAdder::new(16);
        let mut rng = UintRng::seeded(91);
        for _ in 0..5 {
            let a = rng.uniform(16);
            let b = rng.uniform(16);
            let (sum, stats) = adder.add(&a, &b, &[]).unwrap();
            assert_eq!(sum, a.add(&b));
            assert_eq!(stats.cycles, adder.latency());
        }
    }

    #[test]
    fn single_lane_faults_are_outvoted() {
        let adder = TmrAdder::new(8);
        let a = Uint::from_u64(255);
        let b = Uint::from_u64(1);
        // Pepper lane 1 (rows LANE_ROWS..2·LANE_ROWS) with stuck cells.
        let faults: Vec<(usize, usize, Fault)> = (0..6)
            .map(|i| (LANE_ROWS + 3 + i, i % 9, Fault::StuckAt0))
            .collect();
        let (sum, _) = adder.add(&a, &b, &faults).unwrap();
        assert_eq!(sum, Uint::from_u64(256), "TMR must mask lane-1 faults");
    }

    #[test]
    fn faults_in_two_lanes_can_defeat_tmr() {
        // Sanity: TMR is only single-lane tolerant; identical faults in
        // two lanes win the vote. (Stuck-at-0 on both lanes' sum rows.)
        let adder = TmrAdder::new(4);
        let a = Uint::from_u64(15);
        let b = Uint::from_u64(1);
        let faults = vec![
            (2usize, 4usize, Fault::StuckAt0),   // lane 0 sum bit 4
            (LANE_ROWS + 2, 4, Fault::StuckAt0), // lane 1 sum bit 4
        ];
        let (sum, _) = adder.add(&a, &b, &faults).unwrap();
        assert_ne!(sum, Uint::from_u64(16), "two-lane faults defeat TMR");
    }

    #[test]
    fn overhead_is_roughly_3x() {
        let plain = KoggeStoneAdder::new(64);
        let tmr = TmrAdder::new(64);
        let area_ratio =
            tmr.area_cells() as f64 / ((plain.required_rows() * plain.required_cols()) as f64);
        assert!((2.9..=3.5).contains(&area_ratio), "{area_ratio}");
    }
}
