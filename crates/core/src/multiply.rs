//! Stage 2 — multiplication (paper Sec. IV-D).
//!
//! Nine single-row multipliers (the MultPIM-derived
//! [`cim_logic::multpim::RowMultiplier`], optimized to 12 cells/bit)
//! run in parallel, one per row, computing the nine partial products
//! of the unrolled Karatsuba tree. The widest operand is `a_3210`
//! (`n/4 + 2` bits), so the stage provisions `w = n/4 + 2`-bit
//! multipliers:
//!
//! * area: `9 × 12·(n/4+2)` cells,
//! * latency: `(n/4+2)·(⌈log2(n/4+2)⌉ + 14) + 3` cc — one row's
//!   latency, since all nine rows compute simultaneously.

use crate::chunks::{LeafRows, LEAVES, PRODUCT_NAMES};
use cim_bigint::Uint;
use cim_crossbar::{Crossbar, CrossbarError, EnduranceReport};
use cim_logic::multpim::RowMultiplier;
use cim_trace::{Args, ProcessId, Tracer};

/// Output of one multiplication-stage run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplyOutput {
    /// The nine partial products in leaf order
    /// (`c_ll … c_mm`, see [`crate::chunks::PRODUCT_NAMES`]).
    pub products: [Uint; LEAVES],
    /// Stage latency in clock cycles (all rows in parallel).
    pub cycles: u64,
    /// Endurance report of the stage array.
    pub endurance: EnduranceReport,
}

/// Output of one bit-sliced batch multiplication-stage run. `P` holds
/// the partial products: per lane as `Uint`s from
/// [`MultiplyStage::run_batch`], as [`LeafRows`] lane words from
/// [`MultiplyStage::run_batch_lanes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchMultiplyOutput<P = Vec<[Uint; LEAVES]>> {
    /// The partial products (leaf order).
    pub products: P,
    /// Stage latency — identical to a solo run.
    pub cycles: u64,
    /// Per-lane endurance reports of the stage array.
    pub endurance: Vec<EnduranceReport>,
}

/// The multiplication stage for `n`-bit multiplications.
///
/// ```
/// use karatsuba_cim::multiply::MultiplyStage;
/// let stage = MultiplyStage::new(256).expect("stage");
/// assert_eq!(stage.latency(), 1389); // 66·(7+14)+3
/// assert_eq!(stage.area_cells(), 7128); // 9 × 12·66
/// ```
#[derive(Debug, Clone)]
pub struct MultiplyStage {
    n: usize,
    multiplier: RowMultiplier,
}

impl MultiplyStage {
    /// Creates the stage for `n`-bit multiplications at the
    /// paper-exact [`cim_mir::OptLevel::O0`].
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for interface symmetry.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn new(n: usize) -> Result<Self, CrossbarError> {
        Self::with_opt_level(n, cim_mir::OptLevel::O0)
    }

    /// Creates the stage with its row multipliers scheduled at `opt`
    /// (co-issuing independent iteration steps across partitions at
    /// `O2`+; see [`cim_mir::rowmul`]).
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for interface symmetry.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn with_opt_level(n: usize, opt: cim_mir::OptLevel) -> Result<Self, CrossbarError> {
        assert!(
            n > 0 && n.is_multiple_of(4),
            "operand width must be a multiple of 4"
        );
        Ok(MultiplyStage {
            n,
            multiplier: RowMultiplier::with_opt_level(n / 4 + 2, opt),
        })
    }

    /// The optimization level the row multipliers are scheduled at.
    pub fn opt_level(&self) -> cim_mir::OptLevel {
        self.multiplier.opt_level()
    }

    /// Operand width of each small multiplier: `n/4 + 2` bits.
    pub fn width(&self) -> usize {
        self.n / 4 + 2
    }

    /// Stage area: `9 × 12·(n/4+2)` cells.
    pub fn area_cells(&self) -> u64 {
        (LEAVES * self.multiplier.required_cols()) as u64
    }

    /// Stage latency: one row multiplier's latency (they all run in
    /// parallel).
    pub fn latency(&self) -> u64 {
        self.multiplier.latency()
    }

    /// Runs the nine partial multiplications.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if a leaf operand exceeds `n/4 + 2` bits.
    pub fn run(
        &self,
        a_leaves: &[Uint; LEAVES],
        b_leaves: &[Uint; LEAVES],
    ) -> Result<MultiplyOutput, CrossbarError> {
        self.run_traced(a_leaves, b_leaves, &Tracer::disabled(), ProcessId(0), 0)
    }

    /// Runs the nine partial multiplications for up to 64 instances at
    /// once on a bit-sliced array. This is
    /// [`MultiplyStage::run_batch_lanes`] with the leaves transposed in
    /// and the products transposed out.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if the leaf sets are empty, differ in lane count, exceed
    /// 64 lanes, or a leaf operand exceeds `n/4 + 2` bits.
    pub fn run_batch(
        &self,
        a_leaves: &[[Uint; LEAVES]],
        b_leaves: &[[Uint; LEAVES]],
    ) -> Result<BatchMultiplyOutput, CrossbarError> {
        let lanes = a_leaves.len();
        assert!(
            lanes > 0 && lanes <= 64 && lanes == b_leaves.len(),
            "batch must hold 1..=64 lanes on both sides"
        );
        let a = crate::chunks::leaf_rows(a_leaves, self.width());
        let b = crate::chunks::leaf_rows(b_leaves, self.width());
        let out = self.run_batch_lanes(&a, &b, lanes)?;
        Ok(BatchMultiplyOutput {
            products: crate::chunks::leaf_sets(&out.products, lanes),
            cycles: out.cycles,
            endurance: out.endurance,
        })
    }

    /// [`MultiplyStage::run_batch`] on leaf rows in lane words
    /// (`n/4 + 2` words each) for the first `lanes` lanes: row `i`
    /// multiplies leaf `i` of every lane in the same shift-add pass
    /// ([`RowMultiplier::run_lanes_in`]), so the stage latency equals
    /// [`MultiplyStage::latency`] regardless of the lane count. The
    /// products come back as each row's `2·(n/4 + 2)`-column product
    /// region.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64` or a leaf row is not
    /// `n/4 + 2` words long.
    pub fn run_batch_lanes(
        &self,
        a_leaves: &LeafRows,
        b_leaves: &LeafRows,
        lanes: usize,
    ) -> Result<BatchMultiplyOutput<LeafRows>, CrossbarError> {
        assert!((1..=64).contains(&lanes), "batch must hold 1..=64 lanes");
        let mut array = Crossbar::new_sliced(LEAVES, self.multiplier.required_cols(), lanes)?;
        let mut products = LeafRows::default();
        for (i, product) in products.iter_mut().enumerate() {
            let (a, b) = (&a_leaves[i], &b_leaves[i]);
            (*product, _) = self
                .multiplier
                .run_lanes_in(&mut array, i, 0, a, b, lanes)?;
        }
        Ok(BatchMultiplyOutput {
            products,
            cycles: self.latency(),
            endurance: EnduranceReport::per_lane(&array),
        })
    }

    /// [`MultiplyStage::run`] with tracing: each of the nine row
    /// multipliers gets its own track under `process`, carrying one
    /// span per partial product covering `[start_cycle, start_cycle +
    /// latency)` — the nine spans overlap because the rows compute in
    /// parallel in hardware (the simulator runs them sequentially but
    /// charges only one row's latency).
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if a leaf operand exceeds `n/4 + 2` bits.
    pub fn run_traced(
        &self,
        a_leaves: &[Uint; LEAVES],
        b_leaves: &[Uint; LEAVES],
        tracer: &Tracer,
        process: ProcessId,
        start_cycle: u64,
    ) -> Result<MultiplyOutput, CrossbarError> {
        let mut array = Crossbar::new(LEAVES, self.multiplier.required_cols())?;
        let mut products: [Uint; LEAVES] = Default::default();
        for i in 0..LEAVES {
            let (p, _) = self
                .multiplier
                .run_in(&mut array, i, 0, &a_leaves[i], &b_leaves[i])?;
            products[i] = p;
            if tracer.is_enabled() {
                let track = tracer.track(process, &format!("mult row {i}"));
                tracer.complete(
                    track,
                    PRODUCT_NAMES[i],
                    start_cycle,
                    self.latency(),
                    Args::new()
                        .with("row", i as i64)
                        .with("width", self.width() as i64),
                );
            }
        }
        Ok(MultiplyOutput {
            products,
            cycles: self.latency(),
            endurance: EnduranceReport::from_array(&array),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::decompose_operand;
    use cim_bigint::rng::UintRng;

    #[test]
    fn products_match_gold_model() {
        let mut rng = UintRng::seeded(13);
        for n in [16usize, 64, 128] {
            let stage = MultiplyStage::new(n).unwrap();
            let a = rng.uniform(n);
            let b = rng.uniform(n);
            let da = decompose_operand(&a, n);
            let db = decompose_operand(&b, n);
            let out = stage.run(&da.leaves, &db.leaves).unwrap();
            for i in 0..LEAVES {
                assert_eq!(
                    out.products[i],
                    &da.leaves[i] * &db.leaves[i],
                    "n = {n}, product {i}"
                );
            }
        }
    }

    #[test]
    fn batch_products_match_solo_runs_at_solo_cycle_cost() {
        let mut rng = UintRng::seeded(43);
        let n = 32;
        let lanes = 17;
        let stage = MultiplyStage::new(n).unwrap();
        let decomp = |x: &Uint| decompose_operand(x, n).leaves;
        let sets: Vec<([Uint; LEAVES], [Uint; LEAVES])> = (0..lanes)
            .map(|_| (decomp(&rng.uniform(n)), decomp(&rng.uniform(n))))
            .collect();
        let a_sets: Vec<_> = sets.iter().map(|(a, _)| a.clone()).collect();
        let b_sets: Vec<_> = sets.iter().map(|(_, b)| b.clone()).collect();
        let batch = stage.run_batch(&a_sets, &b_sets).unwrap();
        assert_eq!(batch.cycles, stage.latency());
        for (lane, (a, b)) in sets.iter().enumerate() {
            let solo = stage.run(a, b).unwrap();
            assert_eq!(batch.products[lane], solo.products, "lane {lane}");
            assert_eq!(batch.endurance[lane], solo.endurance, "lane {lane}");
        }
    }

    #[test]
    fn paper_latency_and_area() {
        // n = 256: latency 1389 cc, area 7,128 cells.
        let stage = MultiplyStage::new(256).unwrap();
        assert_eq!(stage.latency(), 1389);
        assert_eq!(stage.area_cells(), 7128);
        // n = 64: w = 18 → 18·(5+14)+3 = 345 cc, 9·216 = 1,944 cells.
        let stage = MultiplyStage::new(64).unwrap();
        assert_eq!(stage.latency(), 345);
        assert_eq!(stage.area_cells(), 1944);
    }

    #[test]
    fn widest_leaf_fits() {
        // a_3210 with all-ones operands is exactly n/4+2 bits.
        let n = 64;
        let stage = MultiplyStage::new(n).unwrap();
        let a = Uint::pow2(n).sub(&Uint::one());
        let da = decompose_operand(&a, n);
        let out = stage.run(&da.leaves, &da.leaves).unwrap();
        assert_eq!(
            out.products[8],
            &da.leaves[8] * &da.leaves[8],
            "c_mm must be exact at maximal operand width"
        );
    }

    /// The report of `lanes` lanes of `array` summed cell by cell from
    /// the per-cell reads.
    fn walked_reports(array: &Crossbar, lanes: usize) -> Vec<EnduranceReport> {
        (0..lanes)
            .map(|lane| {
                let mut report = EnduranceReport {
                    max_writes: 0,
                    total_writes: 0,
                    cells_touched: 0,
                    cells_total: array.cell_count(),
                };
                for r in 0..array.rows() {
                    for c in 0..array.cols() {
                        let w = array.lane_cell(lane, r, c).unwrap().writes();
                        report.max_writes = report.max_writes.max(w);
                        report.total_writes += w;
                        report.cells_touched += usize::from(w > 0);
                    }
                }
                report
            })
            .collect()
    }

    /// On real multiply-stage arrays — 64 lanes at 384 bits on the
    /// sliced backend, 2048 bits on the packed one — the reports the
    /// crossbar folds from the row multipliers' window records equal
    /// reports summed cell by cell, and so do the stages' own.
    #[test]
    fn stage_endurance_equals_a_per_cell_walk() {
        use cim_mir::OptLevel;
        let mut rng = UintRng::seeded(47);
        let (n, lanes) = (384, 64);
        let pairs: Vec<(Uint, Uint)> = (0..lanes)
            .map(|_| (rng.uniform(n), rng.uniform(n)))
            .collect();
        let (a, b) = cim_logic::pair_lanes(&pairs, n);
        let pre = crate::precompute::PrecomputeStage::with_opt_level(n, OptLevel::O3).unwrap();
        let leaves = pre.run_batch_lanes(&a, &b, lanes).unwrap();
        let stage = MultiplyStage::with_opt_level(n, OptLevel::O3).unwrap();
        let mut array =
            Crossbar::new_sliced(LEAVES, stage.multiplier.required_cols(), lanes).unwrap();
        for i in 0..LEAVES {
            let (a, b) = (&leaves.a_leaves[i], &leaves.b_leaves[i]);
            stage
                .multiplier
                .run_lanes_in(&mut array, i, 0, a, b, lanes)
                .unwrap();
        }
        let walked = walked_reports(&array, lanes);
        assert_eq!(EnduranceReport::per_lane(&array), walked);
        let out = stage
            .run_batch_lanes(&leaves.a_leaves, &leaves.b_leaves, lanes)
            .unwrap();
        assert_eq!(out.endurance, walked);

        let n = 2048;
        let (a, b) = (rng.exact_bits(n), rng.exact_bits(n));
        let (da, db) = (decompose_operand(&a, n), decompose_operand(&b, n));
        let stage = MultiplyStage::with_opt_level(n, OptLevel::O3).unwrap();
        let mut array = Crossbar::new(LEAVES, stage.multiplier.required_cols()).unwrap();
        for i in 0..LEAVES {
            stage
                .multiplier
                .run_in(&mut array, i, 0, &da.leaves[i], &db.leaves[i])
                .unwrap();
        }
        let walked = walked_reports(&array, 1);
        assert_eq!(EnduranceReport::from_array(&array), walked[0]);
        assert_eq!(
            stage.run(&da.leaves, &db.leaves).unwrap().endurance,
            walked[0]
        );
    }

    #[test]
    fn per_row_wear_is_bounded() {
        let n = 64;
        let stage = MultiplyStage::new(n).unwrap();
        let a = Uint::pow2(n).sub(&Uint::one());
        let da = decompose_operand(&a, n);
        let out = stage.run(&da.leaves, &da.leaves).unwrap();
        // Paper's write model for the stage: ≈ 2w + 2 per cell.
        let w = stage.width() as u64;
        assert!(
            out.endurance.max_writes <= 4 * w,
            "max writes {} exceeds 4w = {}",
            out.endurance.max_writes,
            4 * w
        );
    }
}
