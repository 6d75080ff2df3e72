//! A functional depth-1 (classic one-level Karatsuba) pipeline — the
//! ablation counterpart to the paper's L = 2 design point.
//!
//! Fig. 4 compares unroll depths analytically; this module makes the
//! L = 1 alternative *executable* so the comparison can be simulated:
//!
//! * stage 1: two `n/2`-bit additions (`a_m = a_h + a_l`,
//!   `b_m = b_h + b_l`) on one shared Kogge-Stone adder;
//! * stage 2: three parallel in-row multiplications of `n/2+1`-bit
//!   operands — note the rows are ~4× longer than at L = 2, which is
//!   exactly the practicality cost Fig. 4's ATP captures;
//! * stage 3: three adder passes
//!   (`v = c_h + c_l`, `c̃_m = c_m − v`, final LSB-optimized add).

use crate::postcompute::AdderBodies;
use cim_bigint::Uint;
use cim_crossbar::{CompiledProgram, Crossbar, CrossbarError, Executor, MicroOp};
use cim_logic::kogge_stone::{AddOp, AdderLayout, KoggeStoneAdder, SCRATCH_ROWS};
use cim_logic::multpim::RowMultiplier;
use cim_logic::read_row_uint;
use cim_trace::{Args, ProcessId, Tracer};

/// Report of one depth-1 multiplication.
#[derive(Debug, Clone, PartialEq)]
pub struct Depth1Outcome {
    /// The verified product.
    pub product: Uint,
    /// Measured stage cycles `[pre, mult, post]`.
    pub stage_cycles: [u64; 3],
    /// Total area of the three stage arrays in cells.
    pub area_cells: u64,
}

/// One-level Karatsuba multiplier on simulated CIM crossbars.
///
/// ```
/// use cim_bigint::Uint;
/// use karatsuba_cim::depth1::KaratsubaDepth1Multiplier;
///
/// # fn main() -> Result<(), cim_crossbar::CrossbarError> {
/// let mult = KaratsubaDepth1Multiplier::new(32)?;
/// let out = mult.multiply(&Uint::from_u64(0xDEAD_BEEF), &Uint::from_u64(0x1234_5678))?;
/// assert_eq!(out.product, Uint::from_u128(0xDEAD_BEEFu128 * 0x1234_5678u128));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KaratsubaDepth1Multiplier {
    n: usize,
    multiplier: RowMultiplier,
    /// Stage 1's two additions, `a_m` then `b_m`, compiled at
    /// construction.
    additions: [CompiledProgram; 2],
    /// Stage 3's `1.5n`-bit adder.
    adder: KoggeStoneAdder,
    /// Its `Add` and `Sub` bodies, compiled at construction.
    bodies: AdderBodies,
}

/// Rows of the stage-1 array: `a_l a_h b_l b_h` (0–3), `a_m b_m`
/// (4–5), scratch (6–17).
const PRE_ROWS: usize = 4 + 2 + SCRATCH_ROWS;

impl KaratsubaDepth1Multiplier {
    /// Creates an `n`-bit depth-1 multiplier (`n` even, ≥ 8); its
    /// paper-exact (`O0`) adder programs are compiled here.
    ///
    /// # Errors
    ///
    /// [`CrossbarError::InvalidBundle`] if a compiled program holds an
    /// illegal co-issue bundle.
    ///
    /// # Panics
    ///
    /// Panics if `n` is odd or < 8.
    pub fn new(n: usize) -> Result<Self, CrossbarError> {
        assert!(
            n >= 8 && n.is_multiple_of(2),
            "width must be even, at least 8"
        );
        let scratch: [usize; SCRATCH_ROWS] = std::array::from_fn(|i| 6 + i);
        let addition = |(x, y, sum): (usize, usize, usize)| {
            let layout = AdderLayout {
                x_row: x,
                y_row: y,
                sum_row: sum,
                scratch,
                col_base: 0,
            };
            let program = KoggeStoneAdder::with_layout(n / 2, layout).program(AddOp::Add);
            crate::progcache::compile(program)
        };
        let adder = crate::postcompute::shared_adder(3 * n / 2);
        Ok(KaratsubaDepth1Multiplier {
            n,
            multiplier: RowMultiplier::new(n / 2 + 1),
            additions: [addition((1, 0, 4))?, addition((3, 2, 5))?],
            bodies: AdderBodies::new(&adder, cim_mir::OptLevel::O0)?,
            adder,
        })
    }

    /// Stage 1's two compiled additions, `a_m` then `b_m`.
    pub fn addition_programs(&self) -> &[CompiledProgram; 2] {
        &self.additions
    }

    /// Stage 3's compiled adder body for `op`.
    pub fn adder_program(&self, op: AddOp) -> &CompiledProgram {
        self.bodies.get(op)
    }

    /// Row length of one stage-2 multiplier row: `12·(n/2+1)` —
    /// compare `12·(n/4+2)` at L = 2.
    pub fn mult_row_length(&self) -> usize {
        self.multiplier.required_cols()
    }

    /// Total area: stage 1 `(4+2+12)×(n/2+2)` + stage 2 `3×12(n/2+1)`
    /// + stage 3 `20×1.5n`.
    pub fn area_cells(&self) -> u64 {
        let pre = (4 + 2 + SCRATCH_ROWS as u64) * (self.n as u64 / 2 + 2);
        let mult = 3 * self.mult_row_length() as u64;
        let post = 20 * (3 * self.n as u64 / 2);
        pre + mult + post
    }

    /// Multiplies on simulated hardware, measuring each stage.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `n` bits.
    pub fn multiply(&self, a: &Uint, b: &Uint) -> Result<Depth1Outcome, CrossbarError> {
        self.multiply_traced(a, b, &Tracer::disabled())
    }

    /// [`KaratsubaDepth1Multiplier::multiply`] with tracing: the run is
    /// one trace process (`depth1 n=<width>`) with a track per stage
    /// (three tracks for the parallel stage-2 rows), stages laid out
    /// back-to-back. The micro-op sequence is identical to the
    /// untraced path.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `n` bits.
    pub fn multiply_traced(
        &self,
        a: &Uint,
        b: &Uint,
        tracer: &Tracer,
    ) -> Result<Depth1Outcome, CrossbarError> {
        let n = self.n;
        let h = n / 2;
        let enabled = tracer.is_enabled();
        let pid = if enabled {
            tracer.process(&format!("depth1 n={n}"))
        } else {
            ProcessId(0)
        };

        // ---- Stage 1: a_m, b_m on a shared (n/2)-bit adder ----
        let pre_cols = h + 2;
        let mut pre = Crossbar::new(PRE_ROWS, pre_cols)?;
        let a_l = a.low_bits(h);
        let a_h = a.shr(h);
        let b_l = b.low_bits(h);
        let b_h = b.shr(h);
        let mut exec = Executor::new(&mut pre);
        let pre_track = tracer.track(pid, "stage 1 (precompute)");
        exec.attach_tracer_at(tracer, pre_track, 0);
        let pre_span = tracer.span_at(pre_track, "precompute", 0);
        // Operand writes + both compiled additions: one verified program.
        let writes: Vec<MicroOp> = [&a_l, &a_h, &b_l, &b_h]
            .iter()
            .enumerate()
            .map(|(i, v)| cim_logic::write_row_uint(i, 0, v, pre_cols))
            .collect();
        if cfg!(debug_assertions) {
            let mut stage1 = writes.clone();
            for addition in &self.additions {
                stage1.extend_from_slice(addition.ops());
            }
            cim_check::debug_assert_verified(
                &stage1,
                &cim_check::VerifyConfig::new(PRE_ROWS, pre_cols),
                "KaratsubaDepth1Multiplier stage 1",
            );
        }
        exec.run(&writes)?;
        for addition in &self.additions {
            exec.run_compiled(addition)?;
        }
        let a_m = read_row_uint(exec.array(), 4, 0..pre_cols)?;
        let b_m = read_row_uint(exec.array(), 5, 0..pre_cols)?;
        exec.step(&MicroOp::reset_region(0..6, 0..pre_cols))?;
        let pre_cycles = exec.stats().cycles;
        pre_span.end(pre_cycles);

        // ---- Stage 2: three parallel in-row multiplications ----
        let mut mult_array = Crossbar::new(3, self.mult_row_length())?;
        let (c_l, _) = self.multiplier.run_in(&mut mult_array, 0, 0, &a_l, &b_l)?;
        let (c_h, _) = self.multiplier.run_in(&mut mult_array, 1, 0, &a_h, &b_h)?;
        let (c_m, _) = self.multiplier.run_in(&mut mult_array, 2, 0, &a_m, &b_m)?;
        let mult_cycles = self.multiplier.latency();
        if enabled {
            for (i, name) in ["c_l", "c_h", "c_m"].iter().enumerate() {
                let track = tracer.track(pid, &format!("mult row {i}"));
                tracer.complete(
                    track,
                    *name,
                    pre_cycles,
                    mult_cycles,
                    Args::new().with("row", i as i64),
                );
            }
        }

        // ---- Stage 3: three passes on a 1.5n-bit adder ----
        let w = 3 * n / 2;
        let mut post = Crossbar::new(8 + SCRATCH_ROWS, w + 1)?;
        let mut exec = Executor::new(&mut post);
        let post_track = tracer.track(pid, "stage 3 (postcompute)");
        let post_start = pre_cycles + mult_cycles;
        exec.attach_tracer_at(tracer, post_track, post_start);
        let post_span = tracer.span_at(post_track, "postcompute", post_start);
        let pass = |exec: &mut Executor<'_>,
                    name: &'static str,
                    op: AddOp,
                    x: &Uint,
                    y: &Uint|
         -> Result<Uint, CrossbarError> {
            let span = tracer.span_at(post_track, name, post_start + exec.stats().cycles);
            crate::postcompute::run_pass(exec, &self.adder, self.bodies.get(op), x, y)?;
            span.end(post_start + exec.stats().cycles);
            let full = read_row_uint(exec.array(), 2, 0..w + 1)?;
            Ok(match op {
                AddOp::Add => full,
                AddOp::Sub => full.low_bits(w),
            })
        };
        let v = pass(&mut exec, "pass 1: v", AddOp::Add, &c_h, &c_l)?;
        let ct_m = pass(&mut exec, "pass 2: c~_m", AddOp::Sub, &c_m, &v)?;
        let base_top = c_l.add(&c_h.shl(n)).shr(h);
        let c_top = pass(&mut exec, "pass 3: c_top", AddOp::Add, &base_top, &ct_m)?;
        let product = c_top.shl(h).add(&c_l.low_bits(h));
        exec.step(&MicroOp::reset_region(0..8 + SCRATCH_ROWS, 0..w + 1))?;
        let post_cycles = exec.stats().cycles;
        post_span.end(post_start + post_cycles);

        debug_assert_eq!(product, a * b);
        Ok(Depth1Outcome {
            product,
            stage_cycles: [pre_cycles, mult_cycles, post_cycles],
            area_cells: self.area_cells(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DepthCostModel;
    use crate::multiplier::KaratsubaCimMultiplier;
    use cim_bigint::rng::UintRng;

    #[test]
    fn multiplies_correctly() {
        let mut rng = UintRng::seeded(111);
        for n in [8usize, 32, 64, 128] {
            let mult = KaratsubaDepth1Multiplier::new(n).unwrap();
            let a = rng.uniform(n);
            let b = rng.uniform(n);
            let out = mult.multiply(&a, &b).unwrap();
            assert_eq!(out.product, &a * &b, "n = {n}");
        }
    }

    #[test]
    fn agrees_with_depth2_pipeline() {
        let mut rng = UintRng::seeded(112);
        let n = 64;
        let d1 = KaratsubaDepth1Multiplier::new(n).unwrap();
        let d2 = KaratsubaCimMultiplier::new(n).unwrap();
        let a = rng.exact_bits(n);
        let b = rng.exact_bits(n);
        assert_eq!(
            d1.multiply(&a, &b).unwrap().product,
            d2.multiply(&a, &b).unwrap().product
        );
    }

    #[test]
    fn mult_rows_are_much_longer_than_depth2() {
        // The L = 1 practicality cost: ~2x longer multiplier rows.
        let n = 384;
        let d1 = KaratsubaDepth1Multiplier::new(n).unwrap();
        let d2_row = 12 * (n / 4 + 2);
        assert!(
            d1.mult_row_length() > 19 * n / 10,
            "{}",
            d1.mult_row_length()
        );
        assert!(d1.mult_row_length() as f64 > 1.9 * d2_row as f64);
    }

    #[test]
    fn measured_stage_cycles_track_depth_model() {
        let n = 64;
        let d1 = KaratsubaDepth1Multiplier::new(n).unwrap();
        let model = DepthCostModel::new(n, 1);
        let a = Uint::pow2(n).sub(&Uint::one());
        let out = d1.multiply(&a, &a).unwrap();
        // Stage 2 exactly matches the model.
        assert_eq!(out.stage_cycles[1], model.multiply_latency());
        // Stages 1 and 3 within 15% (staging-op accounting differences).
        for (mine, theirs) in [
            (out.stage_cycles[0], model.precompute_latency()),
            (out.stage_cycles[2], model.postcompute_latency()),
        ] {
            let rel = (mine as f64 - theirs as f64).abs() / theirs as f64;
            assert!(rel < 0.15, "measured {mine} vs model {theirs}");
        }
    }

    #[test]
    fn simulated_atp_ordering_matches_fig4() {
        // At n = 384 the L = 2 design must win on simulated ATP.
        let n = 384;
        let mut rng = UintRng::seeded(113);
        let a = rng.exact_bits(n);
        let b = rng.exact_bits(n);

        let d1 = KaratsubaDepth1Multiplier::new(n).unwrap();
        let o1 = d1.multiply(&a, &b).unwrap();
        let ii1 = *o1.stage_cycles.iter().max().unwrap() + 9;
        let atp1 = o1.area_cells as f64 / (1.0e6 / ii1 as f64);

        let d2 = KaratsubaCimMultiplier::new(n).unwrap();
        let o2 = d2.multiply(&a, &b).unwrap();
        let ii2 = *o2.report.stage_cycles.iter().max().unwrap() + 27;
        let atp2 = o2.report.area_cells as f64 / (1.0e6 / ii2 as f64);

        assert!(atp2 < atp1, "L2 ATP {atp2} must beat L1 ATP {atp1}");
    }
}
