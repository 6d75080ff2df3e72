//! The top-level multiplier: all three stages end-to-end on simulated
//! crossbars, with verification against the software gold model.

use crate::chunks::LEAVES;
use crate::cost::{DesignPoint, HANDOFF_CYCLES};
use crate::multiply::{MultiplyOutput, MultiplyStage};
use crate::postcompute::{PostcomputeOutput, PostcomputeStage};
use crate::precompute::{PrecomputeOutput, PrecomputeStage};
use cim_bigint::Uint;
use cim_crossbar::{CrossbarError, CycleStats, EnduranceReport, EnergyParams};
use cim_metrics::MetricsHub;
use cim_trace::{Args, ProcessId, Tracer};
use std::error::Error;
use std::fmt;

/// Error returned by [`KaratsubaCimMultiplier::multiply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiplyError {
    /// The underlying crossbar simulation failed.
    Crossbar(CrossbarError),
    /// The in-memory result disagreed with the software gold model —
    /// can only happen with injected faults.
    VerificationFailed {
        /// What the simulated hardware produced.
        got: Box<Uint>,
        /// What the gold model expected.
        expected: Box<Uint>,
    },
    /// The requested operand width cannot be served: not a positive
    /// multiple of 4, or wider than the hardware is provisioned for.
    UnsupportedWidth {
        /// The requested operand width in bits.
        width: usize,
        /// The widest operand the configuration supports.
        max: usize,
    },
}

impl fmt::Display for MultiplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiplyError::Crossbar(e) => write!(f, "crossbar error: {e}"),
            MultiplyError::VerificationFailed { got, expected } => write!(
                f,
                "in-memory product 0x{:x} disagrees with gold model 0x{:x}",
                got.as_ref(),
                expected.as_ref()
            ),
            MultiplyError::UnsupportedWidth { width, max } => write!(
                f,
                "operand width {width} unsupported (must be a positive multiple of 4, at most {max})"
            ),
        }
    }
}

impl Error for MultiplyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MultiplyError::Crossbar(e) => Some(e),
            MultiplyError::VerificationFailed { .. } | MultiplyError::UnsupportedWidth { .. } => {
                None
            }
        }
    }
}

impl From<CrossbarError> for MultiplyError {
    fn from(e: CrossbarError) -> Self {
        MultiplyError::Crossbar(e)
    }
}

/// Per-stage execution report of one multiplication.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Stage cycle statistics `[pre, mult, post]` (mult has only a
    /// latency, reported in `stage_cycles`).
    pub stage_cycles: [u64; 3],
    /// Detailed stats for the stages driven by the micro-op executor.
    pub precompute_stats: CycleStats,
    /// Detailed stats for the postcomputation stage.
    pub postcompute_stats: CycleStats,
    /// Endurance reports per stage array `[pre, mult, post]`.
    pub endurance: [EnduranceReport; 3],
    /// Total latency including the two inter-stage handoffs.
    pub total_latency: u64,
    /// Total cells across the three stage arrays (simulated geometry).
    pub area_cells: u64,
}

impl ExecutionReport {
    /// First-order energy estimate of this multiplication (see
    /// [`cim_crossbar::energy`]): per-stage write energy comes from
    /// the *exact* per-cell write counts, MAGIC/read energy from the
    /// cycle statistics, plus the inter-stage handoff modeled as
    /// on-chip reads+writes of the 18 operands and 9 products.
    pub fn energy(&self, n: usize, params: &cim_crossbar::EnergyParams) -> cim_crossbar::EnergyReport {
        use cim_crossbar::EnergyReport;
        let w = n / 4 + 2;
        let pre = EnergyReport::from_stats(&self.precompute_stats, w, params);
        let post = EnergyReport::from_stats(&self.postcompute_stats, 3 * n / 2 + 1, params);
        // Multiplication stage: exact write energy from wear counters;
        // MAGIC energy approximated as one row-wide evaluation per
        // cycle per active multiplier row.
        let mult = EnergyReport {
            write_pj: self.endurance[1].total_writes as f64 * params.write_pj,
            read_pj: 0.0,
            magic_pj: self.stage_cycles[1] as f64 * (9 * w) as f64 * params.magic_pj,
            controller_pj: self.stage_cycles[1] as f64 * params.controller_pj_per_cycle,
        };
        // Handoff: 18 operands of ~w bits + 9 products of ~2w bits,
        // each read once and written once (on-chip).
        let handoff_bits = (18 * w + 9 * 2 * w) as f64;
        let handoff = handoff_bits * (params.read_pj + params.write_pj);
        EnergyReport {
            write_pj: pre.write_pj + mult.write_pj + post.write_pj + handoff / 2.0,
            read_pj: pre.read_pj + mult.read_pj + post.read_pj + handoff / 2.0,
            magic_pj: pre.magic_pj + mult.magic_pj + post.magic_pj,
            controller_pj: pre.controller_pj + mult.controller_pj + post.controller_pj,
        }
    }
}

/// Outcome of [`KaratsubaCimMultiplier::multiply`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultiplyOutcome {
    /// The verified `2n`-bit product.
    pub product: Uint,
    /// Cycle/area/endurance details.
    pub report: ExecutionReport,
}

/// Outcome of [`KaratsubaCimMultiplier::multiply_batch`]: up to 64
/// verified products computed in the cycle budget of one.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMultiplyOutcome {
    /// The verified `2n`-bit products, one per lane.
    pub products: Vec<Uint>,
    /// Stage cycle counts `[pre, mult, post]` — identical to a solo
    /// run; the batch amortizes them over every lane.
    pub stage_cycles: [u64; 3],
    /// Total latency including the inter-stage handoffs.
    pub total_latency: u64,
    /// Total cells across the three stage arrays (per lane-set; the
    /// sliced arrays hold every lane in the same cells).
    pub area_cells: u64,
    /// Per-lane endurance reports per stage `[pre, mult, post]`.
    pub lane_endurance: [Vec<EnduranceReport>; 3],
}

impl BatchMultiplyOutcome {
    /// Number of lanes that ran.
    pub fn lanes(&self) -> usize {
        self.products.len()
    }

    /// Batch throughput in products per kilocycle — the headline
    /// batching win: `lanes / total_latency · 1000`.
    pub fn products_per_kcc(&self) -> f64 {
        self.lanes() as f64 * 1000.0 / self.total_latency as f64
    }
}

/// The paper's three-stage pipelined Karatsuba multiplier for
/// `n`-bit operands on resistive CIM crossbars.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct KaratsubaCimMultiplier {
    n: usize,
    precompute: PrecomputeStage,
    multiply: MultiplyStage,
    postcompute: PostcomputeStage,
    /// Metrics destination + energy model; `None` keeps every
    /// multiplication free of publication overhead.
    meter: Option<(MetricsHub, EnergyParams)>,
}

impl KaratsubaCimMultiplier {
    /// Creates an `n`-bit multiplier (n ≥ 8, multiple of 4; the paper
    /// evaluates 64–384).
    ///
    /// # Errors
    ///
    /// Returns [`MultiplyError::Crossbar`] if a stage program fails to
    /// compile (an illegal co-issue bundle).
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `n` is not a multiple of 4.
    pub fn new(n: usize) -> Result<Self, MultiplyError> {
        Self::with_opt_level(n, cim_mir::OptLevel::O0)
    }

    /// Creates an `n`-bit multiplier whose stage programs are lowered
    /// through the cim-mir pass pipeline at `opt`. `O0` reproduces the
    /// paper-exact programs byte for byte; higher levels eliminate dead
    /// writes (`O1`), co-issue independent NOR partitions (`O2`), and
    /// add crossbar-constrained placement (`O3`). Every optimized
    /// program is verified by `cim-check` at build time and every
    /// product is still checked against the software gold model. The
    /// stages compile the programs a multiply runs here; a square's
    /// precompute suffix compiles on the first [`square`](Self::square).
    ///
    /// # Errors
    ///
    /// Returns [`MultiplyError::Crossbar`] if a stage program fails to
    /// compile (an illegal co-issue bundle).
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `n` is not a multiple of 4.
    pub fn with_opt_level(n: usize, opt: cim_mir::OptLevel) -> Result<Self, MultiplyError> {
        Ok(KaratsubaCimMultiplier {
            n,
            precompute: PrecomputeStage::with_opt_level(n, opt)?,
            multiply: MultiplyStage::with_opt_level(n, opt)?,
            postcompute: PostcomputeStage::with_opt_level(n, opt)?,
            meter: None,
        })
    }

    /// The optimization level the stage programs are lowered at.
    pub fn opt_level(&self) -> cim_mir::OptLevel {
        self.precompute.opt_level()
    }

    /// Publishes an [`ExecutionReport`] into `hub` after every
    /// verified multiplication (see [`crate::metrics`] for the family
    /// catalogue), using `params` for the energy model. Publication is
    /// observational: reports are bit-identical with metrics on and
    /// off.
    pub fn attach_metrics(&mut self, hub: &MetricsHub, params: EnergyParams) {
        self.meter = hub.is_enabled().then(|| (hub.clone(), params));
    }

    fn publish(&self, report: &ExecutionReport) {
        if let Some((hub, params)) = &self.meter {
            report.publish_metrics(hub, self.n, params);
        }
    }

    /// Operand width in bits.
    pub fn width(&self) -> usize {
        self.n
    }

    /// The analytic design point for this width (paper formulas).
    pub fn design_point(&self) -> DesignPoint {
        DesignPoint::new(self.n)
    }

    /// Multiplies two `n`-bit integers fully in simulated memory,
    /// verifying the result against the software gold model.
    ///
    /// # Errors
    ///
    /// Returns [`MultiplyError::Crossbar`] on simulation failure and
    /// [`MultiplyError::VerificationFailed`] if the in-memory result
    /// diverges from the gold model (possible only under injected
    /// faults).
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `n` bits.
    pub fn multiply(&self, a: &Uint, b: &Uint) -> Result<MultiplyOutcome, MultiplyError> {
        self.multiply_traced(a, b, &Tracer::disabled())
    }

    /// [`KaratsubaCimMultiplier::multiply`] with tracing: the run is
    /// registered as one trace process (`karatsuba n=<width>`) with a
    /// track per pipeline stage (nine tracks for the parallel stage-2
    /// rows). Stage spans sit at their pipeline-global offsets — stage
    /// 2 starts after precompute plus one handoff, stage 3 after both —
    /// so the exported trace lays the stages out exactly as the Fig. 5
    /// pipeline would execute one job.
    ///
    /// Tracing never changes results or statistics: the untraced
    /// [`multiply`](Self::multiply) is this method with a disabled
    /// tracer, and a regression test asserts equality of the reports.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KaratsubaCimMultiplier::multiply`].
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `n` bits.
    pub fn multiply_traced(
        &self,
        a: &Uint,
        b: &Uint,
        tracer: &Tracer,
    ) -> Result<MultiplyOutcome, MultiplyError> {
        let enabled = tracer.is_enabled();
        let pid = if enabled {
            tracer.process(&format!("karatsuba n={}", self.n))
        } else {
            ProcessId(0)
        };
        let pre_track = tracer.track(pid, "stage 1 (precompute)");
        let pre = self.precompute.run_traced(a, b, tracer, pre_track, 0)?;
        if enabled {
            tracer.instant(
                pre_track,
                "handoff: 18 leaves to stage 2",
                pre.stats.cycles,
                Args::new().with("cycles", HANDOFF_CYCLES as i64),
            );
        }
        let mult_start = pre.stats.cycles + HANDOFF_CYCLES;
        let mult = self
            .multiply
            .run_traced(&pre.a_leaves, &pre.b_leaves, tracer, pid, mult_start)?;
        let post_track = tracer.track(pid, "stage 3 (postcompute)");
        let post_start = mult_start + mult.cycles + HANDOFF_CYCLES;
        if enabled {
            tracer.instant(
                post_track,
                "handoff: 9 products to stage 3",
                mult_start + mult.cycles,
                Args::new().with("cycles", HANDOFF_CYCLES as i64),
            );
        }
        let post = self.postcompute.run_traced(&mult.products, tracer, post_track, post_start)?;
        self.outcome(a * b, pre, mult, post)
    }

    /// Multiplies up to 64 pairs of `n`-bit integers in one bit-sliced
    /// pass through the three stages — the same micro-op programs a
    /// single multiplication executes, with every lane riding its own
    /// bit of the lane words. Stage cycle counts are therefore
    /// identical to [`KaratsubaCimMultiplier::multiply`]; throughput
    /// scales with the lane count. Every lane's product is verified
    /// against the software gold model.
    ///
    /// # Errors
    ///
    /// Returns [`MultiplyError::Crossbar`] on simulation failure and
    /// [`MultiplyError::VerificationFailed`] for the first lane whose
    /// product diverges from the gold model.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty, holds more than 64 entries, or an
    /// operand does not fit in `n` bits.
    pub fn multiply_batch(
        &self,
        pairs: &[(Uint, Uint)],
    ) -> Result<BatchMultiplyOutcome, MultiplyError> {
        // The batch stays in lane words from the operand transposes to
        // the product readout; `pair_lanes` refuses an operand wider
        // than `n` bits instead of truncating it.
        let lanes = pairs.len();
        assert!((1..=64).contains(&lanes), "batch must hold 1..=64 lanes");
        let (a, b) = cim_logic::pair_lanes(pairs, self.n);
        let pre = self.precompute.run_batch_lanes(&a, &b, lanes)?;
        let mult = self
            .multiply
            .run_batch_lanes(&pre.a_leaves, &pre.b_leaves, lanes)?;
        let post = self.postcompute.run_batch_lanes(&mult.products, lanes)?;
        let products = cim_logic::lane_uints(&post.products, lanes);
        let stage_cycles = [pre.stats.cycles, mult.cycles, post.stats.cycles];
        let golds = pairs.iter().map(|(a, b)| a * b);
        let (total_latency, area_cells) =
            self.checked_totals(products.iter().zip(golds), stage_cycles)?;
        Ok(BatchMultiplyOutcome {
            products,
            stage_cycles,
            total_latency,
            area_cells,
            lane_endurance: [pre.endurance, mult.endurance, post.endurance],
        })
    }

    /// Squares an `n`-bit integer — stage 1 runs its squaring fast
    /// path (5 additions instead of 10, saving ~40 % of precompute
    /// latency), stages 2–3 run as usual.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KaratsubaCimMultiplier::multiply`].
    ///
    /// # Panics
    ///
    /// Panics if the operand does not fit in `n` bits.
    pub fn square(&self, a: &Uint) -> Result<MultiplyOutcome, MultiplyError> {
        let pre = self.precompute.run_square(a)?;
        let mult = self.multiply.run(&pre.a_leaves, &pre.b_leaves)?;
        let post = self.postcompute.run(&mult.products)?;
        self.outcome(a * a, pre, mult, post)
    }

    /// The verified outcome of one solo run: the product checked
    /// against `expected`, the report assembled and published.
    fn outcome(
        &self,
        expected: Uint,
        pre: PrecomputeOutput,
        mult: MultiplyOutput,
        post: PostcomputeOutput,
    ) -> Result<MultiplyOutcome, MultiplyError> {
        let stage_cycles = [pre.stats.cycles, mult.cycles, post.stats.cycles];
        let (total_latency, area_cells) =
            self.checked_totals([(&post.product, expected)], stage_cycles)?;
        let report = ExecutionReport {
            stage_cycles,
            precompute_stats: pre.stats,
            postcompute_stats: post.stats,
            endurance: [pre.endurance, mult.endurance, post.endurance],
            total_latency,
            area_cells,
        };
        self.publish(&report);
        Ok(MultiplyOutcome {
            product: post.product,
            report,
        })
    }

    /// Checks every `(product, gold)` pair, failing on the first that
    /// differs, then returns `(total_latency, area_cells)`: the stage
    /// cycles plus the three handoffs, and the three stage arrays.
    fn checked_totals<'a>(
        &self,
        checks: impl IntoIterator<Item = (&'a Uint, Uint)>,
        stage_cycles: [u64; 3],
    ) -> Result<(u64, u64), MultiplyError> {
        for (product, expected) in checks {
            if *product != expected {
                return Err(MultiplyError::VerificationFailed {
                    got: Box::new(product.clone()),
                    expected: Box::new(expected),
                });
            }
        }
        let total_latency = stage_cycles.iter().sum::<u64>() + 3 * HANDOFF_CYCLES;
        let area_cells = self.precompute.area_cells()
            + self.multiply.area_cells()
            + self.postcompute.area_cells();
        Ok((total_latency, area_cells))
    }

    /// Measured per-multiplication maximum cell writes across the
    /// three stage arrays (the Table I "Max. Writes" metric; the
    /// analytic counterpart is [`DesignPoint::max_writes`]).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn measured_max_writes(&self, a: &Uint, b: &Uint) -> Result<u64, MultiplyError> {
        let outcome = self.multiply(a, b)?;
        Ok(EnduranceReport::max_over(&outcome.report.endurance))
    }
}

/// Number of partial products the pipeline hands between stages —
/// re-exported for documentation purposes.
pub const PARTIAL_PRODUCTS: usize = LEAVES;

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::{corner_cases, UintRng};

    #[test]
    fn end_to_end_random_multiplications() {
        let mut rng = UintRng::seeded(23);
        for n in [16usize, 64, 128] {
            let mult = KaratsubaCimMultiplier::new(n).unwrap();
            for _ in 0..3 {
                let a = rng.uniform(n);
                let b = rng.uniform(n);
                let out = mult.multiply(&a, &b).unwrap();
                assert_eq!(out.product, &a * &b, "n = {n}");
            }
        }
    }

    #[test]
    fn end_to_end_384_bit_zkp_size() {
        let mut rng = UintRng::seeded(24);
        let mult = KaratsubaCimMultiplier::new(384).unwrap();
        let a = rng.exact_bits(384);
        let b = rng.exact_bits(384);
        let out = mult.multiply(&a, &b).unwrap();
        assert_eq!(out.product, &a * &b);
        assert!(out.product.bit_len() >= 767);
    }

    #[test]
    fn batch_multiply_verifies_all_lanes_at_solo_cycle_cost() {
        let mut rng = UintRng::seeded(29);
        let n = 32;
        let lanes = 64;
        let mult = KaratsubaCimMultiplier::new(n).unwrap();
        let pairs: Vec<(Uint, Uint)> =
            (0..lanes).map(|_| (rng.uniform(n), rng.uniform(n))).collect();
        let batch = mult.multiply_batch(&pairs).unwrap();
        assert_eq!(batch.lanes(), lanes);
        let solo = mult.multiply(&pairs[0].0, &pairs[0].1).unwrap();
        assert_eq!(
            batch.stage_cycles, solo.report.stage_cycles,
            "batch must cost exactly one instance's cycles"
        );
        assert_eq!(batch.total_latency, solo.report.total_latency);
        assert_eq!(batch.area_cells, solo.report.area_cells);
        for (lane, (a, b)) in pairs.iter().enumerate() {
            assert_eq!(batch.products[lane], a * b, "lane {lane}");
        }
        // 64 lanes in one instance's cycles → 64× products per cycle.
        assert!(
            batch.products_per_kcc()
                >= 63.9 * (1000.0 / solo.report.total_latency as f64)
        );
    }

    #[test]
    fn batch_lane_endurance_matches_solo() {
        let mut rng = UintRng::seeded(31);
        let n = 16;
        let mult = KaratsubaCimMultiplier::new(n).unwrap();
        let pairs: Vec<(Uint, Uint)> =
            (0..5).map(|_| (rng.uniform(n), rng.uniform(n))).collect();
        let batch = mult.multiply_batch(&pairs).unwrap();
        for (lane, (a, b)) in pairs.iter().enumerate() {
            let solo = mult.multiply(a, b).unwrap();
            for stage in 0..3 {
                assert_eq!(
                    batch.lane_endurance[stage][lane], solo.report.endurance[stage],
                    "stage {stage}, lane {lane}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "value of 33 bits does not fit in width 32")]
    fn batch_rejects_an_operand_wider_than_n() {
        let mult = KaratsubaCimMultiplier::new(32).unwrap();
        let pairs = vec![(Uint::one(), Uint::one()), (Uint::pow2(32), Uint::one())];
        let _ = mult.multiply_batch(&pairs);
    }

    #[test]
    #[should_panic(expected = "batch must hold 1..=64 lanes")]
    fn batch_rejects_65_pairs() {
        let mult = KaratsubaCimMultiplier::new(16).unwrap();
        let _ = mult.multiply_batch(&vec![(Uint::one(), Uint::one()); 65]);
    }

    #[test]
    #[should_panic(expected = "batch must hold 1..=64 lanes")]
    fn batch_rejects_an_empty_batch() {
        let mult = KaratsubaCimMultiplier::new(16).unwrap();
        let _ = mult.multiply_batch(&[]);
    }

    #[test]
    fn corner_cases_all_widths() {
        for n in [16usize, 64] {
            let mult = KaratsubaCimMultiplier::new(n).unwrap();
            for a in corner_cases(n) {
                for b in corner_cases(n) {
                    let out = mult.multiply(&a, &b).unwrap();
                    assert_eq!(out.product, &a * &b, "n={n} a={a:?} b={b:?}");
                }
            }
        }
    }

    #[test]
    fn report_cycles_match_stage_models() {
        let mult = KaratsubaCimMultiplier::new(64).unwrap();
        let a = Uint::from_u64(u64::MAX);
        let out = mult.multiply(&a, &a).unwrap();
        let d = mult.design_point();
        assert_eq!(out.report.stage_cycles[0], d.precompute_latency);
        assert_eq!(out.report.stage_cycles[1], d.multiply_latency);
        // Stage 3 measured is within 5 % of the paper's closed form.
        let paper = d.postcompute_latency as f64;
        let ours = out.report.stage_cycles[2] as f64;
        assert!((ours - paper).abs() / paper < 0.05);
    }

    #[test]
    fn report_area_matches_cost_model() {
        for n in [64usize, 256] {
            let mult = KaratsubaCimMultiplier::new(n).unwrap();
            let a = Uint::from_u64(3);
            let out = mult.multiply(&a, &a).unwrap();
            assert_eq!(out.report.area_cells, DesignPoint::new(n).area_cells());
        }
    }

    #[test]
    fn square_fast_path() {
        let mut rng = UintRng::seeded(25);
        for n in [16usize, 64] {
            let mult = KaratsubaCimMultiplier::new(n).unwrap();
            let a = rng.uniform(n);
            let sq = mult.square(&a).unwrap();
            assert_eq!(sq.product, &a * &a, "n = {n}");
            // Stage 1 must be faster than the general path.
            let general = mult.multiply(&a, &a).unwrap();
            assert!(
                sq.report.stage_cycles[0] < general.report.stage_cycles[0],
                "square pre {} vs general pre {}",
                sq.report.stage_cycles[0],
                general.report.stage_cycles[0]
            );
            // And exactly the advertised latency.
            assert_eq!(
                sq.report.stage_cycles[0],
                PrecomputeStage::new(n).unwrap().square_latency()
            );
        }
    }

    #[test]
    fn energy_report_structure() {
        let params = cim_crossbar::EnergyParams::default();
        let mut totals = Vec::new();
        for n in [64usize, 128] {
            let mult = KaratsubaCimMultiplier::new(n).unwrap();
            let a = Uint::pow2(n).sub(&Uint::one());
            let out = mult.multiply(&a, &a).unwrap();
            let e = out.report.energy(n, &params);
            assert!(e.total_pj() > 0.0, "n={n}");
            assert!(e.write_pj > 0.0 && e.magic_pj > 0.0 && e.read_pj > 0.0);
            totals.push(e.total_pj());
        }
        assert!(totals[1] > totals[0], "energy must grow with n");
        // Zeroed parameters zero the estimate (no hidden constants).
        let zero = cim_crossbar::EnergyParams {
            write_pj: 0.0,
            read_pj: 0.0,
            magic_pj: 0.0,
            controller_pj_per_cycle: 0.0,
            offchip_pj_per_bit: 0.0,
        };
        let mult = KaratsubaCimMultiplier::new(64).unwrap();
        let out = mult.multiply(&Uint::one(), &Uint::one()).unwrap();
        assert_eq!(out.report.energy(64, &zero).total_pj(), 0.0);
    }

    #[test]
    fn metrics_do_not_change_execution_reports() {
        let mut rng = UintRng::seeded(26);
        let a = rng.uniform(64);
        let b = rng.uniform(64);
        let plain = KaratsubaCimMultiplier::new(64).unwrap();
        let baseline = plain.multiply(&a, &b).unwrap();

        let mut metered = KaratsubaCimMultiplier::new(64).unwrap();
        let hub = MetricsHub::recording();
        metered.attach_metrics(&hub, EnergyParams::default());
        let observed = metered.multiply(&a, &b).unwrap();
        assert_eq!(observed.report, baseline.report, "metrics must be neutral");
        assert_eq!(observed.product, baseline.product);
        assert!(!hub.snapshot().families.is_empty(), "but metrics did publish");

        // Attaching a disabled hub is a no-op.
        let mut disabled = KaratsubaCimMultiplier::new(64).unwrap();
        let off = MetricsHub::disabled();
        disabled.attach_metrics(&off, EnergyParams::default());
        assert_eq!(disabled.multiply(&a, &b).unwrap().report, baseline.report);
        assert!(off.snapshot().families.is_empty());
    }

    #[test]
    fn measured_wear_within_model_envelope() {
        let mult = KaratsubaCimMultiplier::new(64).unwrap();
        let a = Uint::pow2(64).sub(&Uint::one());
        let measured = mult.measured_max_writes(&a, &a).unwrap();
        let model = DesignPoint::new(64).max_writes;
        // The model is wear-leveled (halved); the raw single-run
        // measurement must be the same order of magnitude.
        assert!(measured <= 4 * model, "measured {measured} model {model}");
        assert!(measured >= model / 4, "measured {measured} model {model}");
    }
}
