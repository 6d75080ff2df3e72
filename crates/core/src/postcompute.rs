//! Stage 3 — postcomputation (paper Sec. IV-E, Fig. 7).
//!
//! Combines the nine partial products into the final `2n`-bit result
//! with **11 passes** of a shared `1.5n`-bit Kogge-Stone adder:
//!
//! | pass | computes | kind |
//! |------|----------------------------------------|------|
//! | 1    | `t_l = c_ll + c_lh` ‖ `t_h = c_hl + c_hh` | batched add |
//! | 2    | `c̃_lm = c_lm − t_l` ‖ `c̃_hm = c_hm − t_h` | batched sub |
//! | 3    | `t_m = c_ml + c_mh` | add |
//! | 4    | `c̃_mm = c_mm − t_m` | sub |
//! | 5    | `c_l = (c_lh‖c_ll) + c̃_lm·2^(n/4)` | add |
//! | 6    | `c_h = (c_hh‖c_hl) + c̃_hm·2^(n/4)` | add |
//! | 7    | `u = c_ml + c_mh·2^(n/2)` | add |
//! | 8    | `c_m = u + c̃_mm·2^(n/4)` | add (2nd for c_m: the `n/2+2`-bit `c_ml` prevents plain appending) |
//! | 9    | `v = c_h + c_l` | add |
//! | 10   | `c̃_m = c_m − v` | sub |
//! | 11   | `c_top = ((c_h‖c_l) ≫ n/2) + c̃_m` | add (LSB-optimized) |
//!
//! The final result is `c = c_top·2^(n/2) ‖ c_l mod 2^(n/2)` — the
//! paper's observation that the low `n/2` bits of `c_l` are already
//! final saves 25 % of the stage area (adder width `1.5n` instead of
//! `2n`).
//!
//! **Batching**: passes 1–2 process the `l` and `h` halves
//! side-by-side in disjoint column segments of the wide adder. In a
//! Kogge-Stone prefix graph a column with `p = 0` kills carry
//! propagation, so an add batch is isolated by the zero gap between
//! segments; a *sub* batch sets the minuend's gap bits to 1 (making
//! `p = ¬x⊕y = 0` there) to block borrow crossover. Tests verify
//! isolation exhaustively.
//!
//! The stage array is `(8 + 12) × 1.5n` cells as in the paper. Our
//! measured latency is `11·(20 + 11·⌈log2 1.5n⌉) + 1` — within ~2 % of
//! the paper's `121·⌈log2 1.5n⌉ + 187 + 18` (the delta is operand
//! staging, which the paper accounts under reorder/handoff; see
//! EXPERIMENTS.md).

use crate::chunks::LEAVES;
use cim_bigint::Uint;
use cim_crossbar::{Crossbar, CrossbarError, CycleStats, EnduranceReport, Executor, MicroOp};
use cim_logic::kogge_stone::{AddOp, AdderLayout, KoggeStoneAdder, SCRATCH_ROWS};
use cim_logic::read_row_uint;
use cim_mir::OptLevel;
use cim_trace::{TrackId, Tracer};

/// Rows of the stage array: 8 data rows + 12 adder scratch rows.
pub const ROWS: usize = 8 + SCRATCH_ROWS;

/// One shared-adder pass as a verified micro-op program: reset the
/// adder's I/O rows, write the packed operands, run the addition.
/// Used by the stage-3 recombination here and by the depth-1 ablation
/// pipeline.
///
/// The program is self-contained (the resets and writes define every
/// cell the adder senses), so it is statically verified (`cim-check`,
/// debug/test builds) with no preload declarations.
///
/// # Panics
///
/// Panics if an operand does not fit in `adder.width() + 1` bits, or
/// (debug/test builds) if the composed program fails verification.
pub fn pass_program(adder: &KoggeStoneAdder, op: AddOp, x: &Uint, y: &Uint) -> Vec<MicroOp> {
    let mut prog = pass_staging(adder, x, y).to_vec();
    prog.extend_from_slice(&crate::progcache::adder_program(adder, op));
    cim_check::debug_assert_verified(
        &prog,
        &cim_check::VerifyConfig::new(adder.required_rows(), adder.required_cols()),
        "postcompute::pass_program",
    );
    prog
}

/// The operand-dependent staging prefix of one pass: reset the I/O
/// rows, write the packed operands.
fn pass_staging(adder: &KoggeStoneAdder, x: &Uint, y: &Uint) -> [MicroOp; 3] {
    let w = adder.width();
    let layout = adder.layout();
    let cols = layout.col_base..layout.col_base + w + 1;
    [
        MicroOp::reset_rows(&[layout.x_row, layout.y_row, layout.sum_row], cols),
        MicroOp::write_row_at(layout.x_row, layout.col_base, &x.to_bits(w + 1)),
        MicroOp::write_row_at(layout.y_row, layout.col_base, &y.to_bits(w + 1)),
    ]
}

/// Executes one pass as the staging prefix plus the *cached* adder
/// body ([`crate::progcache`]) — the op sequence is identical to
/// running [`pass_program`], without cloning the adder body per pass.
pub(crate) fn run_pass(
    exec: &mut Executor<'_>,
    adder: &KoggeStoneAdder,
    op: AddOp,
    opt: OptLevel,
    x: &Uint,
    y: &Uint,
) -> Result<(), CrossbarError> {
    let staging = pass_staging(adder, x, y);
    let body = crate::progcache::adder_program_opt(adder, op, opt);
    if cfg!(debug_assertions) {
        let mut full = staging.to_vec();
        full.extend_from_slice(&body);
        cim_check::debug_assert_verified(
            &full,
            &cim_check::VerifyConfig::new(adder.required_rows(), adder.required_cols()),
            "postcompute::pass_program",
        );
    }
    exec.run(&staging)?;
    exec.run(&body)
}

/// The batch counterpart of [`pass_staging`]: the reset is unchanged
/// (it is lane-oblivious) and the two operand writes carry one lane
/// word per column — same op count, same cycle cost.
fn pass_staging_batch(adder: &KoggeStoneAdder, xs: &[Uint], ys: &[Uint]) -> [MicroOp; 3] {
    let w = adder.width();
    let layout = adder.layout();
    let cols = layout.col_base..layout.col_base + w + 1;
    let transpose = |ops: &[Uint]| -> Vec<u64> {
        let refs: Vec<&[u64]> = ops
            .iter()
            .inspect(|op| {
                assert!(
                    op.bit_len() <= w + 1,
                    "operand of {} bits does not fit in width {}",
                    op.bit_len(),
                    w + 1
                );
            })
            .map(|op| op.limbs())
            .collect();
        cim_crossbar::lanes::transpose_lanes(&refs, w + 1)
    };
    [
        MicroOp::reset_rows(&[layout.x_row, layout.y_row, layout.sum_row], cols),
        MicroOp::write_row_lanes(layout.x_row, layout.col_base, &transpose(xs)),
        MicroOp::write_row_lanes(layout.y_row, layout.col_base, &transpose(ys)),
    ]
}

/// Executes one batched pass: lane-staged operands plus the cached
/// adder body — op-for-op the shape of [`run_pass`], with every lane
/// adding its own operands.
pub(crate) fn run_pass_batch(
    exec: &mut Executor<'_>,
    adder: &KoggeStoneAdder,
    op: AddOp,
    opt: OptLevel,
    xs: &[Uint],
    ys: &[Uint],
) -> Result<(), CrossbarError> {
    let staging = pass_staging_batch(adder, xs, ys);
    let body = crate::progcache::adder_program_opt(adder, op, opt);
    if cfg!(debug_assertions) {
        let mut full = staging.to_vec();
        full.extend_from_slice(&body);
        cim_check::debug_assert_verified(
            &full,
            &cim_check::VerifyConfig::new(adder.required_rows(), adder.required_cols()),
            "postcompute::batch_pass_program",
        );
    }
    exec.run(&staging)?;
    exec.run(&body)
}

/// Output of one postcomputation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostcomputeOutput {
    /// The final `2n`-bit product.
    pub product: Uint,
    /// Exact cycle statistics of the stage.
    pub stats: CycleStats,
    /// Endurance report of the stage array.
    pub endurance: EnduranceReport,
}

/// Output of one bit-sliced batch postcomputation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPostcomputeOutput {
    /// Per-lane final `2n`-bit products.
    pub products: Vec<Uint>,
    /// Cycle statistics — identical to a solo run.
    pub stats: CycleStats,
    /// Per-lane endurance reports of the stage array.
    pub endurance: Vec<EnduranceReport>,
}

/// The postcomputation stage for `n`-bit multiplications.
///
/// ```
/// use karatsuba_cim::postcompute::PostcomputeStage;
/// let stage = PostcomputeStage::new(256).expect("stage");
/// assert_eq!(stage.adder_width(), 384); // 1.5n
/// assert_eq!(stage.area_cells(), 7_680); // 20 × 384
/// ```
#[derive(Debug, Clone)]
pub struct PostcomputeStage {
    n: usize,
    opt: OptLevel,
}

impl PostcomputeStage {
    /// Creates the stage for `n`-bit multiplications at the
    /// paper-exact [`OptLevel::O0`].
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for interface symmetry.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `n` is not a multiple of 4.
    pub fn new(n: usize) -> Result<Self, CrossbarError> {
        Self::with_opt_level(n, OptLevel::O0)
    }

    /// Creates the stage with every shared-adder pass lowered through
    /// the cim-mir pipeline at `opt`.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for interface symmetry.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `n` is not a multiple of 4.
    pub fn with_opt_level(n: usize, opt: OptLevel) -> Result<Self, CrossbarError> {
        assert!(
            n >= 8 && n.is_multiple_of(4),
            "operand width must be a multiple of 4, at least 8"
        );
        Ok(PostcomputeStage { n, opt })
    }

    /// The optimization level the stage's adder programs are lowered at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt
    }

    /// Width of the shared adder: `1.5n` bits.
    pub fn adder_width(&self) -> usize {
        3 * self.n / 2
    }

    /// Stage area: `(8+12) × 1.5n` cells (the paper's 25 %-reduced
    /// figure; the simulator uses one extra carry-out column).
    pub fn area_cells(&self) -> u64 {
        (ROWS * self.adder_width()) as u64
    }

    /// Measured (implementation-exact) latency. At `O0`:
    /// `11·(20 + 11·⌈log2 1.5n⌉) + 1` cc; higher levels substitute the
    /// optimized adder body's cycle count.
    pub fn latency(&self) -> u64 {
        let adder = KoggeStoneAdder::new(self.adder_width());
        let body = crate::progcache::adder_program_opt(&adder, AddOp::Add, self.opt);
        11 * (3 + cim_mir::program_cycles(&body)) + 1
    }

    /// The paper's closed-form latency:
    /// `121·⌈log2 1.5n⌉ + 187 + 18` cc.
    pub fn paper_latency(&self) -> u64 {
        let w = self.adder_width();
        let levels = (usize::BITS - (w - 1).leading_zeros()) as u64;
        121 * levels + 187 + 18
    }

    /// Runs the stage: combines the nine partial products (leaf order,
    /// see [`crate::chunks::PRODUCT_NAMES`]) into the final product.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if a product exceeds its maximal width (`n/2 + 4` bits).
    pub fn run(&self, products: &[Uint; LEAVES]) -> Result<PostcomputeOutput, CrossbarError> {
        self.run_traced(products, &Tracer::disabled(), TrackId(0), 0)
    }

    /// Runs the stage for up to 64 product sets at once on a
    /// bit-sliced array: every one of the 11 shared-adder passes stages
    /// its operands lane-wise and runs the *same* cached adder body, so
    /// the cycle count equals [`PostcomputeStage::latency`] regardless
    /// of the lane count. The inter-pass recombination arithmetic runs
    /// per lane in the controller, exactly as it does for one instance.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if `product_sets` is empty, holds more than 64 entries,
    /// or a product exceeds its maximal width (`n/2 + 4` bits).
    pub fn run_batch(
        &self,
        product_sets: &[[Uint; LEAVES]],
    ) -> Result<BatchPostcomputeOutput, CrossbarError> {
        let n = self.n;
        let q = n / 4;
        let w = self.adder_width(); // 6q
        let seg = w / 2; // 3q
        let cap = 2 * q + 2; // max width of c_lm / c_hm
        let lanes = product_sets.len();
        assert!(
            lanes > 0 && lanes <= 64,
            "batch must hold 1..=64 lanes"
        );

        let leaf = |i: usize| -> Vec<Uint> {
            product_sets.iter().map(|p| p[i].clone()).collect()
        };
        let [c_ll, c_lh, c_lm, c_hl, c_hh, c_hm, c_ml, c_mh, c_mm] =
            std::array::from_fn::<_, LEAVES, _>(leaf);

        let mut array = Crossbar::new_sliced(ROWS, w + 1, lanes)?;
        let mut exec = Executor::new(&mut array);
        let adder = KoggeStoneAdder::with_layout(
            w,
            AdderLayout {
                x_row: 0,
                y_row: 1,
                sum_row: 2,
                scratch: std::array::from_fn(|i| 8 + i),
                col_base: 0,
            },
        );

        // One batched adder pass; returns the per-lane sums.
        let pass = |exec: &mut Executor<'_>,
                    op: AddOp,
                    xs: &[Uint],
                    ys: &[Uint]|
         -> Result<Vec<Uint>, CrossbarError> {
            run_pass_batch(exec, &adder, op, self.opt, xs, ys)?;
            let mut sum_cols = Vec::new();
            exec.array().read_row_lane_words(2, 0..w + 1, &mut sum_cols)?;
            Ok(cim_crossbar::lanes::lane_limbs(&sum_cols, lanes)
                .into_iter()
                .map(|limbs| {
                    let full = Uint::from_limbs(limbs);
                    match op {
                        AddOp::Add => full,
                        AddOp::Sub => full.low_bits(w),
                    }
                })
                .collect())
        };
        let map = |xs: &[Uint], f: &dyn Fn(&Uint) -> Uint| -> Vec<Uint> {
            xs.iter().map(f).collect()
        };
        let zip = |xs: &[Uint], ys: &[Uint], f: &dyn Fn(&Uint, &Uint) -> Uint| -> Vec<Uint> {
            xs.iter().zip(ys).map(|(x, y)| f(x, y)).collect()
        };
        let gap_ones = |from: usize, to: usize| Uint::pow2(to).sub(&Uint::pow2(from));

        // Pass 1: t_l ‖ t_h (batched add).
        let s1 = pass(
            &mut exec,
            AddOp::Add,
            &zip(&c_ll, &c_hl, &|l, h| l.add(&h.shl(seg))),
            &zip(&c_lh, &c_hh, &|l, h| l.add(&h.shl(seg))),
        )?;
        let t_l = map(&s1, &|s| s.low_bits(seg));
        let t_h = map(&s1, &|s| s.shr(seg));

        // Pass 2: c̃_lm ‖ c̃_hm (batched sub; minuend gap bits = 1).
        let x2 = zip(&c_lm, &c_hm, &|lm, hm| {
            lm.add(&gap_ones(cap, seg))
                .add(&hm.shl(seg))
                .add(&gap_ones(seg + cap, w))
        });
        let s2 = pass(
            &mut exec,
            AddOp::Sub,
            &x2,
            &zip(&t_l, &t_h, &|l, h| l.add(&h.shl(seg))),
        )?;
        let ct_lm = map(&s2, &|s| s.low_bits(cap));
        let ct_hm = map(&s2, &|s| s.shr(seg).low_bits(cap));

        // Pass 3: t_m = c_ml + c_mh.
        let t_m = pass(&mut exec, AddOp::Add, &c_ml, &c_mh)?;

        // Pass 4: c̃_mm = c_mm − t_m.
        let ct_mm = pass(&mut exec, AddOp::Sub, &c_mm, &t_m)?;

        // Pass 5: c_l = (c_lh ‖ c_ll) + c̃_lm·2^q.
        let c_l = pass(
            &mut exec,
            AddOp::Add,
            &zip(&c_ll, &c_lh, &|l, h| l.add(&h.shl(2 * q))),
            &map(&ct_lm, &|x| x.shl(q)),
        )?;

        // Pass 6: c_h likewise.
        let c_h = pass(
            &mut exec,
            AddOp::Add,
            &zip(&c_hl, &c_hh, &|l, h| l.add(&h.shl(2 * q))),
            &map(&ct_hm, &|x| x.shl(q)),
        )?;

        // Passes 7–8: c_m in two additions.
        let u = pass(&mut exec, AddOp::Add, &c_ml, &map(&c_mh, &|x| x.shl(2 * q)))?;
        let c_m = pass(&mut exec, AddOp::Add, &u, &map(&ct_mm, &|x| x.shl(q)))?;

        // Passes 9–10: c̃_m = c_m − (c_h + c_l).
        let v = pass(&mut exec, AddOp::Add, &c_h, &c_l)?;
        let ct_m = pass(&mut exec, AddOp::Sub, &c_m, &v)?;

        // Pass 11 (LSB optimization).
        let base_top = zip(&c_l, &c_h, &|l, h| l.add(&h.shl(n)).shr(n / 2));
        let c_top = pass(&mut exec, AddOp::Add, &base_top, &ct_m)?;
        let products = zip(&c_top, &c_l, &|t, l| t.shl(n / 2).add(&l.low_bits(n / 2)));

        // Reset the stage array for the next batch — 1 cc.
        exec.step(&MicroOp::reset_region(0..ROWS, 0..w + 1))?;
        let stats = *exec.stats();
        let endurance = EnduranceReport::per_lane(&array);
        Ok(BatchPostcomputeOutput {
            products,
            stats,
            endurance,
        })
    }

    /// [`PostcomputeStage::run`] with tracing: the stage is wrapped in
    /// a `postcompute` span on `track` starting at `start_cycle`, with
    /// each of the 11 shared-adder passes as a named child span; the
    /// executor's per-op events nest under them. The micro-op sequence
    /// is identical to the untraced path.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if a product exceeds its maximal width (`n/2 + 4` bits).
    pub fn run_traced(
        &self,
        products: &[Uint; LEAVES],
        tracer: &Tracer,
        track: TrackId,
        start_cycle: u64,
    ) -> Result<PostcomputeOutput, CrossbarError> {
        let n = self.n;
        let q = n / 4;
        let w = self.adder_width(); // 6q
        let seg = w / 2; // 3q
        let cap = 2 * q + 2; // max width of c_lm / c_hm

        let [c_ll, c_lh, c_lm, c_hl, c_hh, c_hm, c_ml, c_mh, c_mm] = products.clone();

        let mut array = Crossbar::new(ROWS, w + 1)?;
        let mut exec = Executor::new(&mut array);
        exec.attach_tracer_at(tracer, track, start_cycle);
        let stage = tracer.span_at(track, "postcompute", start_cycle);
        let adder = KoggeStoneAdder::with_layout(
            w,
            AdderLayout {
                x_row: 0,
                y_row: 1,
                sum_row: 2,
                scratch: std::array::from_fn(|i| 8 + i),
                col_base: 0,
            },
        );

        // One adder pass: reset I/O rows, write packed operands, run
        // the cached adder body — op-identical to `pass_program`,
        // wrapped in a named span.
        let pass = |exec: &mut Executor<'_>,
                        name: &'static str,
                        op: AddOp,
                        x: &Uint,
                        y: &Uint|
         -> Result<Uint, CrossbarError> {
            let span = tracer.span_at(track, name, start_cycle + exec.stats().cycles);
            run_pass(exec, &adder, op, self.opt, x, y)?;
            span.end(start_cycle + exec.stats().cycles);
            let full = read_row_uint(exec.array(), 2, 0..w + 1)?;
            Ok(match op {
                AddOp::Add => full,
                AddOp::Sub => full.low_bits(w),
            })
        };

        // Ones in [from, to) — gap filler blocking borrow propagation
        // between the segments of a batched subtraction.
        let gap_ones = |from: usize, to: usize| Uint::pow2(to).sub(&Uint::pow2(from));

        // Pass 1: t_l ‖ t_h (batched add).
        let s1 = pass(&mut exec, "pass 1: t_l || t_h", AddOp::Add, &c_ll.add(&c_hl.shl(seg)), &c_lh.add(&c_hh.shl(seg)))?;
        let t_l = s1.low_bits(seg);
        let t_h = s1.shr(seg);

        // Pass 2: c̃_lm ‖ c̃_hm (batched sub; minuend gap bits = 1).
        let x2 = c_lm
            .add(&gap_ones(cap, seg))
            .add(&c_hm.shl(seg))
            .add(&gap_ones(seg + cap, w));
        let s2 = pass(&mut exec, "pass 2: c~_lm || c~_hm", AddOp::Sub, &x2, &t_l.add(&t_h.shl(seg)))?;
        let ct_lm = s2.low_bits(cap);
        let ct_hm = s2.shr(seg).low_bits(cap);

        // Pass 3: t_m = c_ml + c_mh.
        let t_m = pass(&mut exec, "pass 3: t_m", AddOp::Add, &c_ml, &c_mh)?;

        // Pass 4: c̃_mm = c_mm − t_m.
        let ct_mm = pass(&mut exec, "pass 4: c~_mm", AddOp::Sub, &c_mm, &t_m)?;

        // Pass 5: c_l = (c_lh ‖ c_ll) + c̃_lm·2^q.
        let c_l = pass(&mut exec, "pass 5: c_l", AddOp::Add, &c_ll.add(&c_lh.shl(2 * q)), &ct_lm.shl(q))?;

        // Pass 6: c_h likewise.
        let c_h = pass(&mut exec, "pass 6: c_h", AddOp::Add, &c_hl.add(&c_hh.shl(2 * q)), &ct_hm.shl(q))?;

        // Passes 7–8: c_m needs two additions (c_ml is n/2+2 bits wide,
        // so appending c_mh is not possible).
        let u = pass(&mut exec, "pass 7: u", AddOp::Add, &c_ml, &c_mh.shl(2 * q))?;
        let c_m = pass(&mut exec, "pass 8: c_m", AddOp::Add, &u, &ct_mm.shl(q))?;

        // Passes 9–10: c̃_m = c_m − (c_h + c_l).
        let v = pass(&mut exec, "pass 9: v", AddOp::Add, &c_h, &c_l)?;
        let ct_m = pass(&mut exec, "pass 10: c~_m", AddOp::Sub, &c_m, &v)?;

        // Pass 11 (LSB optimization): only the top 1.5n bits need the
        // final addition; the low n/2 bits of c_l pass through.
        let base_top = c_l.add(&c_h.shl(n)).shr(n / 2);
        let c_top = pass(&mut exec, "pass 11: c_top", AddOp::Add, &base_top, &ct_m)?;
        let product = c_top.shl(n / 2).add(&c_l.low_bits(n / 2));

        // Reset the stage array for the next multiplication — 1 cc.
        exec.step(&MicroOp::reset_region(0..ROWS, 0..w + 1))?;
        stage.end(start_cycle + exec.stats().cycles);

        let stats = *exec.stats();
        let endurance = EnduranceReport::from_array(&array);
        Ok(PostcomputeOutput {
            product,
            stats,
            endurance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::decompose_operand;
    use cim_bigint::rng::UintRng;

    fn products_of(a: &Uint, b: &Uint, n: usize) -> [Uint; LEAVES] {
        let da = decompose_operand(a, n);
        let db = decompose_operand(b, n);
        std::array::from_fn(|i| &da.leaves[i] * &db.leaves[i])
    }

    #[test]
    fn recombines_random_products() {
        let mut rng = UintRng::seeded(17);
        for n in [8usize, 16, 64, 128] {
            let stage = PostcomputeStage::new(n).unwrap();
            let a = rng.uniform(n);
            let b = rng.uniform(n);
            let out = stage.run(&products_of(&a, &b, n)).unwrap();
            assert_eq!(out.product, &a * &b, "n = {n}");
        }
    }

    #[test]
    fn all_ones_stresses_batching_gaps() {
        // Maximal products maximize both batched segments and the
        // borrow chains the gap bits must block.
        for n in [8usize, 16, 32, 64] {
            let stage = PostcomputeStage::new(n).unwrap();
            let a = Uint::pow2(n).sub(&Uint::one());
            let out = stage.run(&products_of(&a, &a, n)).unwrap();
            assert_eq!(out.product, &a * &a, "n = {n}");
        }
    }

    #[test]
    fn batch_recombination_matches_solo_runs_at_solo_cycle_cost() {
        let mut rng = UintRng::seeded(47);
        let n = 32;
        let lanes = 11;
        let stage = PostcomputeStage::new(n).unwrap();
        let sets: Vec<[Uint; LEAVES]> = (0..lanes)
            .map(|_| products_of(&rng.uniform(n), &rng.uniform(n), n))
            .collect();
        let batch = stage.run_batch(&sets).unwrap();
        assert_eq!(batch.stats.cycles, stage.latency());
        for (lane, set) in sets.iter().enumerate() {
            let solo = stage.run(set).unwrap();
            assert_eq!(batch.products[lane], solo.product, "lane {lane}");
            assert_eq!(batch.stats, solo.stats, "lane {lane}");
            assert_eq!(batch.endurance[lane], solo.endurance, "lane {lane}");
        }
    }

    #[test]
    fn exhaustive_8_bit() {
        // Every 8-bit × 8-bit product — exhaustively checks the
        // batched-segment isolation at the smallest supported width.
        let stage = PostcomputeStage::new(8).unwrap();
        for a in (0u64..256).step_by(17) {
            for b in (0u64..256).step_by(13) {
                let (a, b) = (Uint::from_u64(a), Uint::from_u64(b));
                let out = stage.run(&products_of(&a, &b, 8)).unwrap();
                assert_eq!(out.product, &a * &b);
            }
        }
    }

    #[test]
    fn measured_latency_is_deterministic_and_close_to_paper() {
        for n in [64usize, 128, 256, 384] {
            let stage = PostcomputeStage::new(n).unwrap();
            let a = Uint::pow2(n).sub(&Uint::one());
            let out = stage.run(&products_of(&a, &a, n)).unwrap();
            assert_eq!(out.stats.cycles, stage.latency(), "n = {n}");
            let paper = stage.paper_latency() as f64;
            let ours = stage.latency() as f64;
            assert!(
                (ours - paper).abs() / paper < 0.05,
                "n = {n}: measured {ours} vs paper {paper}"
            );
        }
    }

    #[test]
    fn area_matches_paper() {
        // (8+12) × 1.5n: n = 384 → 20 × 576 = 11,520.
        assert_eq!(PostcomputeStage::new(384).unwrap().area_cells(), 11_520);
        assert_eq!(PostcomputeStage::new(64).unwrap().area_cells(), 1_920);
    }

    #[test]
    fn zero_products() {
        let stage = PostcomputeStage::new(16).unwrap();
        let products: [Uint; LEAVES] = Default::default();
        let out = stage.run(&products).unwrap();
        assert!(out.product.is_zero());
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn rejects_tiny_widths() {
        let _ = PostcomputeStage::new(4);
    }
}
