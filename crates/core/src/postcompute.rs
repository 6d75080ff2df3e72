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

use crate::chunks::{LeafRows, LEAVES};
use cim_bigint::Uint;
use cim_crossbar::{
    CompiledProgram, Crossbar, CrossbarError, CycleStats, EnduranceReport, Executor, MicroOp,
};
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
    prog.extend(adder.program(op));
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
        cim_logic::write_row_uint(layout.x_row, layout.col_base, x, w + 1),
        cim_logic::write_row_uint(layout.y_row, layout.col_base, y, w + 1),
    ]
}

/// The `1.5n`-bit adder of a postcompute array for an `n`-bit
/// multiplication, `width = 1.5n`: operands in rows 0 and 1, the sum
/// in row 2, scratch in rows 8–19.
pub(crate) fn shared_adder(width: usize) -> KoggeStoneAdder {
    KoggeStoneAdder::with_layout(
        width,
        AdderLayout {
            x_row: 0,
            y_row: 1,
            sum_row: 2,
            scratch: std::array::from_fn(|i| 8 + i),
            col_base: 0,
        },
    )
}

/// The `Add` and `Sub` bodies of one adder, compiled.
#[derive(Debug, Clone)]
pub(crate) struct AdderBodies([CompiledProgram; 2]);

impl AdderBodies {
    /// Compiles both bodies of `adder` lowered at `opt`.
    pub(crate) fn new(adder: &KoggeStoneAdder, opt: OptLevel) -> Result<Self, CrossbarError> {
        Ok(AdderBodies([
            crate::progcache::compile(adder.program_opt(AddOp::Add, opt))?,
            crate::progcache::compile(adder.program_opt(AddOp::Sub, opt))?,
        ]))
    }

    /// The body for `op`.
    pub(crate) fn get(&self, op: AddOp) -> &CompiledProgram {
        match op {
            AddOp::Add => &self.0[0],
            AddOp::Sub => &self.0[1],
        }
    }
}

/// Executes one pass as the staging prefix plus `body`, the compiled
/// adder body — the op sequence is identical to running
/// [`pass_program`] when `body` is the `O0` program, without cloning
/// the body per pass.
pub(crate) fn run_pass(
    exec: &mut Executor<'_>,
    adder: &KoggeStoneAdder,
    body: &CompiledProgram,
    x: &Uint,
    y: &Uint,
) -> Result<(), CrossbarError> {
    run_staged(
        exec,
        adder,
        body,
        &pass_staging(adder, x, y),
        "postcompute::pass_program",
    )
}

/// Runs `staging`, then the compiled adder body, after checking
/// (debug/test builds) that together they are a verified program.
fn run_staged(
    exec: &mut Executor<'_>,
    adder: &KoggeStoneAdder,
    body: &CompiledProgram,
    staging: &[MicroOp],
    what: &str,
) -> Result<(), CrossbarError> {
    if cfg!(debug_assertions) {
        let mut full = staging.to_vec();
        full.extend_from_slice(body.ops());
        cim_check::debug_assert_verified(
            &full,
            &cim_check::VerifyConfig::new(adder.required_rows(), adder.required_cols()),
            what,
        );
    }
    exec.run(staging)?;
    exec.run_compiled(body)
}

/// Executes one batched pass: the staging of [`pass_staging`] with
/// the two operand writes carrying one lane word per column, `x` and
/// `y` as they are (the reset is lane-oblivious), plus the compiled
/// adder body — op-for-op the shape of [`run_pass`], with every lane
/// adding its own operands.
fn run_pass_lanes(
    exec: &mut Executor<'_>,
    adder: &KoggeStoneAdder,
    body: &CompiledProgram,
    x: Vec<u64>,
    y: Vec<u64>,
) -> Result<(), CrossbarError> {
    let w = adder.width();
    let layout = adder.layout();
    debug_assert!(
        x.len() == w + 1 && y.len() == w + 1,
        "operand rows are {} lane words",
        w + 1
    );
    let write = |row: usize, lane_words: Vec<u64>| MicroOp::WriteRowLanes {
        row,
        col_offset: layout.col_base,
        lane_words,
    };
    let staging = [
        MicroOp::reset_rows(
            &[layout.x_row, layout.y_row, layout.sum_row],
            layout.col_base..layout.col_base + w + 1,
        ),
        write(layout.x_row, x),
        write(layout.y_row, y),
    ];
    run_staged(
        exec,
        adder,
        body,
        &staging,
        "postcompute::batch_pass_program",
    )
}

/// The columns of `value` below `width`.
///
/// # Panics
///
/// Panics if a column of `value` at `width` or above holds a set bit.
fn fit(value: &[u64], width: usize) -> &[u64] {
    let (kept, rest) = value.split_at(width.min(value.len()));
    assert!(
        rest.iter().all(|&word| word == 0),
        "lane words exceed {width} columns"
    );
    kept
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

/// Output of one bit-sliced batch postcomputation run. `P` holds the
/// final `2n`-bit products: per lane as `Uint`s from
/// [`PostcomputeStage::run_batch`], as `2n` lane words from
/// [`PostcomputeStage::run_batch_lanes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPostcomputeOutput<P = Vec<Uint>> {
    /// The final products.
    pub products: P,
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
    /// The shared adder every pass runs.
    adder: KoggeStoneAdder,
    /// Its `Add` and `Sub` bodies lowered at `opt`, compiled at
    /// construction.
    bodies: AdderBodies,
}

impl PostcomputeStage {
    /// Creates the stage for `n`-bit multiplications at the
    /// paper-exact [`OptLevel::O0`].
    ///
    /// # Errors
    ///
    /// As [`PostcomputeStage::with_opt_level`].
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `n` is not a multiple of 4.
    pub fn new(n: usize) -> Result<Self, CrossbarError> {
        Self::with_opt_level(n, OptLevel::O0)
    }

    /// Creates the stage with every shared-adder pass lowered through
    /// the cim-mir pipeline at `opt`; the stage compiles its `Add` and
    /// `Sub` adder bodies here.
    ///
    /// # Errors
    ///
    /// [`CrossbarError::InvalidBundle`] if a compiled body holds an
    /// illegal co-issue bundle.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `n` is not a multiple of 4.
    pub fn with_opt_level(n: usize, opt: OptLevel) -> Result<Self, CrossbarError> {
        assert!(
            n >= 8 && n.is_multiple_of(4),
            "operand width must be a multiple of 4, at least 8"
        );
        let adder = shared_adder(3 * n / 2);
        let bodies = AdderBodies::new(&adder, opt)?;
        Ok(PostcomputeStage {
            n,
            opt,
            adder,
            bodies,
        })
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

    /// Measured (implementation-exact) latency: 11 passes of 3
    /// staging cycles plus the compiled adder body's cycles, and 1
    /// reset wave. At `O0`: `11·(20 + 11·⌈log2 1.5n⌉) + 1` cc.
    pub fn latency(&self) -> u64 {
        11 * (3 + self.adder_program(AddOp::Add).stats().cycles) + 1
    }

    /// The shared `1.5n`-bit adder every pass runs: operands in rows 0
    /// and 1, the sum in row 2, scratch in rows 8–19.
    pub fn adder(&self) -> &KoggeStoneAdder {
        &self.adder
    }

    /// The compiled body of the shared adder for `op`, lowered at the
    /// stage's opt level — what every `op` pass runs after staging its
    /// operands.
    pub fn adder_program(&self, op: AddOp) -> &CompiledProgram {
        self.bodies.get(op)
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
    /// bit-sliced array. This is [`PostcomputeStage::run_batch_lanes`]
    /// with the products transposed in and out.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if `product_sets` is empty, holds more than 64 entries,
    /// or a product exceeds twice its leaf's width
    /// ([`crate::chunks::leaf_widths`]; at most `n/2 + 4` bits).
    pub fn run_batch(
        &self,
        product_sets: &[[Uint; LEAVES]],
    ) -> Result<BatchPostcomputeOutput, CrossbarError> {
        let lanes = product_sets.len();
        assert!((1..=64).contains(&lanes), "batch must hold 1..=64 lanes");
        let rows = crate::chunks::leaf_rows(product_sets, self.n / 2 + 4);
        let out = self.run_batch_lanes(&rows, lanes)?;
        Ok(BatchPostcomputeOutput {
            products: cim_logic::lane_uints(&out.products, lanes),
            stats: out.stats,
            endurance: out.endurance,
        })
    }

    /// [`PostcomputeStage::run_batch`] on product rows in lane words
    /// for the first `lanes` lanes: every one of the 11 shared-adder
    /// passes stages lane-word operands and runs the *same* compiled
    /// adder body, so the cycle count equals
    /// [`PostcomputeStage::latency`] regardless of the lane count.
    /// Between passes the recombination is column placement on the
    /// lane words; the result is the `2n`-column product row.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64` or a product exceeds twice
    /// its leaf's width.
    pub fn run_batch_lanes(
        &self,
        products: &LeafRows,
        lanes: usize,
    ) -> Result<BatchPostcomputeOutput<Vec<u64>>, CrossbarError> {
        assert!((1..=64).contains(&lanes), "batch must hold 1..=64 lanes");
        let w = self.adder_width();
        let mut array = Crossbar::new_sliced(ROWS, w + 1, lanes)?;
        let mut exec = Executor::new(&mut array);
        let product = self.recombine_lanes(products, lanes, |op, x, y| {
            run_pass_lanes(&mut exec, &self.adder, self.adder_program(op), x, y)?;
            cim_logic::read_row_lanes(exec.array(), 2, 0..w + 1, lanes)
        })?;

        // Reset the stage array for the next batch — 1 cc.
        exec.step(&MicroOp::reset_region(0..ROWS, 0..w + 1))?;
        let stats = *exec.stats();
        let endurance = EnduranceReport::per_lane(&array);
        Ok(BatchPostcomputeOutput {
            products: product,
            stats,
            endurance,
        })
    }

    /// The 11 passes of the module table on lane words. `pass(op, x,
    /// y)` runs one shared-adder pass on two `1.5n + 1`-column operand
    /// rows and returns its sum row. The operands are the paper's
    /// concatenations and shifts (Fig. 7) as column placements into
    /// zeroed rows: a shift is a column offset, a truncation a slice,
    /// and an addition done outside the adder joins values in disjoint
    /// columns, so it is an OR. The borrow-blocking gap bits
    /// of pass 2 are set in the `lanes` active lanes only, so every
    /// staged row is exactly the lane-wise transpose of the per-lane
    /// operands. Returns the `2n`-column product row.
    fn recombine_lanes(
        &self,
        c: &LeafRows,
        lanes: usize,
        mut pass: impl FnMut(AddOp, Vec<u64>, Vec<u64>) -> Result<Vec<u64>, CrossbarError>,
    ) -> Result<Vec<u64>, CrossbarError> {
        use cim_crossbar::lanes::place_cols;
        let n = self.n;
        let q = n / 4;
        let w = self.adder_width(); // 6q
        let seg = w / 2; // 3q
        let cap = 2 * q + 2; // max width of c_lm / c_hm
        let active = u64::MAX >> (64 - lanes);

        // Each product in its own width, twice its leaf's.
        let widths = crate::chunks::leaf_widths(n);
        let [c_ll, c_lh, c_lm, c_hl, c_hh, c_hm, c_ml, c_mh, c_mm]: [&[u64]; LEAVES] =
            std::array::from_fn(|i| fit(&c[i], 2 * widths[i]));
        // An operand row holding `parts` (column offset, value).
        let row = |parts: &[(usize, &[u64])]| -> Vec<u64> {
            let mut words = vec![0u64; w + 1];
            for &(at, value) in parts {
                place_cols(&mut words, at, value);
            }
            words
        };
        // One pass; a difference keeps its low `w` columns.
        let mut adder = |op: AddOp, x: Vec<u64>, y: Vec<u64>| -> Result<Vec<u64>, CrossbarError> {
            let mut sum = pass(op, x, y)?;
            if op == AddOp::Sub {
                sum.truncate(w);
            }
            Ok(sum)
        };

        // Pass 1: t_l ‖ t_h (batched add).
        let s1 = adder(
            AddOp::Add,
            row(&[(0, c_ll), (seg, c_hl)]),
            row(&[(0, c_lh), (seg, c_hh)]),
        )?;

        // Pass 2: c̃_lm ‖ c̃_hm (batched sub; minuend gap bits = 1).
        // The subtrahend t_l + t_h·2^seg is the pass-1 sum as it is.
        let mut x2 = row(&[(0, c_lm), (seg, c_hm)]);
        x2[cap..seg].fill(active);
        x2[seg + cap..w].fill(active);
        let s2 = adder(AddOp::Sub, x2, s1)?;
        let (ct_lm, ct_hm) = (&s2[..cap], &s2[seg..seg + cap]);

        // Pass 3: t_m = c_ml + c_mh.
        let t_m = adder(AddOp::Add, row(&[(0, c_ml)]), row(&[(0, c_mh)]))?;

        // Pass 4: c̃_mm = c_mm − t_m.
        let ct_mm = adder(AddOp::Sub, row(&[(0, c_mm)]), t_m)?;

        // Pass 5: c_l = (c_lh ‖ c_ll) + c̃_lm·2^q.
        let c_l = adder(
            AddOp::Add,
            row(&[(0, c_ll), (2 * q, c_lh)]),
            row(&[(q, ct_lm)]),
        )?;

        // Pass 6: c_h likewise.
        let c_h = adder(
            AddOp::Add,
            row(&[(0, c_hl), (2 * q, c_hh)]),
            row(&[(q, ct_hm)]),
        )?;

        // Passes 7–8: c_m in two additions.
        let u = adder(AddOp::Add, row(&[(0, c_ml)]), row(&[(2 * q, c_mh)]))?;
        let c_m = adder(AddOp::Add, u, row(&[(q, &ct_mm)]))?;

        // Passes 9–10: c̃_m = c_m − (c_h + c_l).
        let v = adder(AddOp::Add, row(&[(0, &c_h)]), row(&[(0, &c_l)]))?;
        let ct_m = adder(AddOp::Sub, c_m, v)?;

        // Pass 11 (LSB optimization): (c_h ‖ c_l) ≫ n/2, c_l being n
        // bits wide.
        let c_l = fit(&c_l, n);
        let c_top = adder(
            AddOp::Add,
            row(&[(0, &c_l[n / 2..]), (n / 2, &c_h)]),
            row(&[(0, &ct_m)]),
        )?;
        let mut product = vec![0u64; 2 * n];
        place_cols(&mut product, 0, &c_l[..n / 2]);
        place_cols(&mut product, n / 2, &c_top);
        Ok(product)
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

        // One adder pass: reset I/O rows, write packed operands, run
        // the compiled adder body — op-identical to `pass_program` at
        // `O0`, wrapped in a named span.
        let pass = |exec: &mut Executor<'_>,
                        name: &'static str,
                        op: AddOp,
                        x: &Uint,
                        y: &Uint|
         -> Result<Uint, CrossbarError> {
            let span = tracer.span_at(track, name, start_cycle + exec.stats().cycles);
            run_pass(exec, &self.adder, self.adder_program(op), x, y)?;
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

    /// The per-lane recombination of the 11 passes as `Uint`
    /// arithmetic (the module table), with every sum computed in
    /// software: each pass's `(op, x, y)` operands for one lane.
    fn uint_pass_operands(products: &[Uint; LEAVES], n: usize) -> Vec<(AddOp, Uint, Uint)> {
        let q = n / 4;
        let w = 6 * q;
        let seg = w / 2;
        let cap = 2 * q + 2;
        let [c_ll, c_lh, c_lm, c_hl, c_hh, c_hm, c_ml, c_mh, c_mm] = products.clone();
        let gap_ones = |from: usize, to: usize| Uint::pow2(to).sub(&Uint::pow2(from));
        let mut passes = Vec::new();
        let mut pass = |op: AddOp, x: Uint, y: Uint| -> Uint {
            let sum = match op {
                AddOp::Add => x.add(&y),
                AddOp::Sub => x.sub(&y).low_bits(w),
            };
            passes.push((op, x, y));
            sum
        };
        let s1 = pass(
            AddOp::Add,
            c_ll.add(&c_hl.shl(seg)),
            c_lh.add(&c_hh.shl(seg)),
        );
        let (t_l, t_h) = (s1.low_bits(seg), s1.shr(seg));
        let x2 = c_lm
            .add(&gap_ones(cap, seg))
            .add(&c_hm.shl(seg))
            .add(&gap_ones(seg + cap, w));
        let s2 = pass(AddOp::Sub, x2, t_l.add(&t_h.shl(seg)));
        let (ct_lm, ct_hm) = (s2.low_bits(cap), s2.shr(seg).low_bits(cap));
        let t_m = pass(AddOp::Add, c_ml.clone(), c_mh.clone());
        let ct_mm = pass(AddOp::Sub, c_mm, t_m);
        let c_l = pass(AddOp::Add, c_ll.add(&c_lh.shl(2 * q)), ct_lm.shl(q));
        let c_h = pass(AddOp::Add, c_hl.add(&c_hh.shl(2 * q)), ct_hm.shl(q));
        let u = pass(AddOp::Add, c_ml, c_mh.shl(2 * q));
        let c_m = pass(AddOp::Add, u, ct_mm.shl(q));
        let v = pass(AddOp::Add, c_h.clone(), c_l.clone());
        let ct_m = pass(AddOp::Sub, c_m, v);
        pass(AddOp::Add, c_l.add(&c_h.shl(n)).shr(n / 2), ct_m);
        passes
    }

    /// Every operand row the lane-word recombination stages is the
    /// lane-wise transpose of the per-lane `Uint` operand — inactive
    /// lane bits included, which must be zero (a gap filled with
    /// `u64::MAX` would set them).
    #[test]
    fn staged_lane_payloads_are_the_transposed_uint_operands() {
        let mut rng = UintRng::seeded(53);
        for (n, lanes) in [(8usize, 1usize), (16, 37), (64, 63), (64, 64)] {
            let stage = PostcomputeStage::new(n).unwrap();
            let w = stage.adder_width();
            let ones = Uint::pow2(n).sub(&Uint::one());
            let sets: Vec<[Uint; LEAVES]> = (0..lanes)
                .map(|lane| match lane % 3 {
                    0 => products_of(&ones, &ones, n),
                    1 => products_of(&rng.uniform(n), &Uint::zero(), n),
                    _ => products_of(&rng.uniform(n), &rng.uniform(n), n),
                })
                .collect();
            let rows = crate::chunks::leaf_rows(&sets, n / 2 + 4);
            let mut array = Crossbar::new_sliced(ROWS, w + 1, lanes).unwrap();
            let mut exec = Executor::new(&mut array);
            let mut staged = Vec::new();
            let product = stage
                .recombine_lanes(&rows, lanes, |op, x, y| {
                    staged.push((op, x.clone(), y.clone()));
                    run_pass_lanes(&mut exec, stage.adder(), stage.adder_program(op), x, y)?;
                    cim_logic::read_row_lanes(exec.array(), 2, 0..w + 1, lanes)
                })
                .unwrap();
            let expected: Vec<_> = sets.iter().map(|set| uint_pass_operands(set, n)).collect();
            let transposed = |k: usize, side: fn(&(AddOp, Uint, Uint)) -> &Uint| {
                let refs: Vec<&[u64]> = expected.iter().map(|p| side(&p[k]).limbs()).collect();
                cim_crossbar::lanes::transpose_lanes(&refs, w + 1)
            };
            assert_eq!(staged.len(), 11, "n = {n}");
            for (k, (op, x, y)) in staged.iter().enumerate() {
                let what = format!("n = {n}, {lanes} lanes, pass {}", k + 1);
                assert!(expected.iter().all(|p| p[k].0 == *op), "{what}: op");
                assert_eq!(*x, transposed(k, |p| &p.1), "{what}: x row");
                assert_eq!(*y, transposed(k, |p| &p.2), "{what}: y row");
                let inactive = !(u64::MAX >> (64 - lanes));
                assert!(x.iter().chain(y).all(|word| word & inactive == 0), "{what}");
            }
            let golds: Vec<Uint> = sets
                .iter()
                .map(|set| crate::chunks::combine_products(set, n / 4))
                .collect();
            assert_eq!(cim_logic::lane_uints(&product, lanes), golds, "n = {n}");
            assert_eq!(product.len(), 2 * n);
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
