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
use crate::StageTrace;
use cim_bigint::Uint;
use cim_crossbar::{
    CompiledProgram, Crossbar, CrossbarError, CycleStats, EnduranceReport, Executor, MicroOp,
};
use cim_logic::kogge_stone::{AddOp, AdderLayout, KoggeStoneAdder, SCRATCH_ROWS};
use cim_mir::OptLevel;
use cim_trace::{Tracer, TrackId};
use std::ops::Range;

/// Rows of the stage array: 8 data rows + 12 adder scratch rows.
pub const ROWS: usize = 8 + SCRATCH_ROWS;

/// Span names of the 11 passes, in the order of the module table.
const PASS_NAMES: [&str; 11] = [
    "pass 1: t_l || t_h",
    "pass 2: c~_lm || c~_hm",
    "pass 3: t_m",
    "pass 4: c~_mm",
    "pass 5: c_l",
    "pass 6: c_h",
    "pass 7: u",
    "pass 8: c_m",
    "pass 9: v",
    "pass 10: c~_m",
    "pass 11: c_top",
];

/// One shared-adder pass as a verified micro-op program: reset the
/// adder's I/O rows, write the packed operands, run the addition.
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
    let staging = pass_staging(adder, x.clone(), y.clone());
    verified_pass(adder, &staging, &adder.program(op))
}

/// The operand-dependent staging prefix of one pass: reset the I/O
/// rows, write the two operand rows.
fn pass_staging<R: Row>(adder: &KoggeStoneAdder, x: R, y: R) -> [MicroOp; 3] {
    let w = adder.width();
    let layout = adder.layout();
    let cols = layout.col_base..layout.col_base + w + 1;
    [
        MicroOp::reset_rows(&[layout.x_row, layout.y_row, layout.sum_row], cols),
        x.write(layout.x_row, layout.col_base, w + 1),
        y.write(layout.y_row, layout.col_base, w + 1),
    ]
}

/// `staging` followed by the adder `body` as one program, checked
/// (debug/test builds) to pass static verification.
fn verified_pass(adder: &KoggeStoneAdder, staging: &[MicroOp], body: &[MicroOp]) -> Vec<MicroOp> {
    let prog = [staging, body].concat();
    let config = cim_check::VerifyConfig::new(adder.required_rows(), adder.required_cols());
    cim_check::debug_assert_verified(&prog, &config, "postcompute::pass_program");
    prog
}

/// A row of the recombination in one of its two data formats: a
/// [`Uint`] on a solo array, one lane word per column (`Vec<u64>`) on
/// a bit-sliced one. The Fig. 7 schedule is written once over these
/// operations: a shift is a column offset, a truncation a slice, and
/// an addition done outside the adder joins values in disjoint
/// columns.
pub(crate) trait Row: Sized {
    /// A zeroed `cols`-column row holding every `(offset, value)` part;
    /// the parts lie in disjoint columns.
    fn place(cols: usize, parts: &[(usize, &Self)]) -> Self;
    /// Columns `cols` of the row, moved down to column 0.
    fn slice(&self, cols: Range<usize>) -> Self;
    /// Sets the zero columns `cols` to one in the lanes of `active`.
    fn fill_ones(&mut self, cols: Range<usize>, active: u64);
    /// Keeps the low `cols` columns.
    fn truncate(&mut self, cols: usize);
    /// The write of the row into `cols` columns of `row` from column
    /// `col`.
    fn write(self, row: usize, col: usize, cols: usize) -> MicroOp;
    /// Senses all columns of `row` in the first `lanes` lanes.
    fn read(array: &Crossbar, row: usize, lanes: usize) -> Result<Self, CrossbarError>;
}

impl Row for Uint {
    fn place(_cols: usize, parts: &[(usize, &Self)]) -> Self {
        parts
            .iter()
            .fold(Uint::zero(), |row, &(at, value)| row.add(&value.shl(at)))
    }

    fn slice(&self, cols: Range<usize>) -> Self {
        self.shr(cols.start).low_bits(cols.len())
    }

    fn fill_ones(&mut self, cols: Range<usize>, _active: u64) {
        *self = self.add(&Uint::pow2(cols.end).sub(&Uint::pow2(cols.start)));
    }

    fn truncate(&mut self, cols: usize) {
        *self = self.low_bits(cols);
    }

    fn write(self, row: usize, col: usize, cols: usize) -> MicroOp {
        cim_logic::write_row_uint(row, col, &self, cols)
    }

    fn read(array: &Crossbar, row: usize, _lanes: usize) -> Result<Self, CrossbarError> {
        cim_logic::read_row_uint(array, row, 0..array.cols())
    }
}

impl Row for Vec<u64> {
    fn place(cols: usize, parts: &[(usize, &Self)]) -> Self {
        let mut words = vec![0u64; cols];
        for &(at, value) in parts {
            cim_crossbar::lanes::place_cols(&mut words, at, value);
        }
        words
    }

    fn slice(&self, cols: Range<usize>) -> Self {
        self[cols].to_vec()
    }

    fn fill_ones(&mut self, cols: Range<usize>, active: u64) {
        self[cols].fill(active);
    }

    fn truncate(&mut self, cols: usize) {
        Vec::truncate(self, cols);
    }

    fn write(self, row: usize, col: usize, cols: usize) -> MicroOp {
        debug_assert_eq!(self.len(), cols, "operand rows are {cols} lane words");
        MicroOp::WriteRowLanes {
            row,
            col_offset: col,
            lane_words: self,
        }
    }

    fn read(array: &Crossbar, row: usize, lanes: usize) -> Result<Self, CrossbarError> {
        cim_logic::read_row_lanes(array, row, 0..array.cols(), lanes)
    }
}

/// The `1.5n`-bit adder of a postcompute array for an `n`-bit
/// multiplication, `width = 1.5n` (operands in rows 0 and 1, the sum
/// in row 2, scratch in rows 8–19), with its `Add` and `Sub` bodies
/// compiled.
#[derive(Debug, Clone)]
pub(crate) struct SharedAdder {
    adder: KoggeStoneAdder,
    bodies: [CompiledProgram; 2],
}

impl SharedAdder {
    /// The `width`-bit adder, its bodies lowered at `opt`.
    pub(crate) fn new(width: usize, opt: OptLevel) -> Result<Self, CrossbarError> {
        let layout = AdderLayout {
            x_row: 0,
            y_row: 1,
            sum_row: 2,
            scratch: std::array::from_fn(|i| 8 + i),
            col_base: 0,
        };
        let adder = KoggeStoneAdder::with_layout(width, layout);
        let compile = |op| crate::progcache::compile(adder.program_opt(op, opt));
        let bodies = [compile(AddOp::Add)?, compile(AddOp::Sub)?];
        Ok(SharedAdder { adder, bodies })
    }

    /// The compiled body for `op`.
    pub(crate) fn body(&self, op: AddOp) -> &CompiledProgram {
        &self.bodies[usize::from(op == AddOp::Sub)]
    }
}

/// The shared-adder passes of one stage run on its array, which spans
/// the adder's `w + 1` columns.
pub(crate) struct Passes<'e, 'a> {
    exec: Executor<'e>,
    adder: &'a SharedAdder,
    trace: &'a StageTrace,
    lanes: usize,
}

impl Passes<'_, '_> {
    /// One pass in span `name`: stage `x` and `y`, run the compiled
    /// `op` body — op for op [`pass_program`] when the body is the `O0`
    /// program — and read the sum row; a difference keeps its low
    /// `w` columns.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    pub(crate) fn run<R: Row>(
        &mut self,
        name: &'static str,
        op: AddOp,
        x: R,
        y: R,
    ) -> Result<R, CrossbarError> {
        let (adder, exec) = (&self.adder.adder, &mut self.exec);
        let body = self.adder.body(op);
        let span = self.trace.span(name, exec.stats().cycles);
        let staging = pass_staging(adder, x, y);
        if cfg!(debug_assertions) {
            verified_pass(adder, &staging, body.ops());
        }
        exec.run(&staging)?;
        exec.run_compiled(body)?;
        span.end(self.trace.start + exec.stats().cycles);
        let mut sum = R::read(exec.array(), adder.layout().sum_row, self.lanes)?;
        if op == AddOp::Sub {
            sum.truncate(adder.width());
        }
        Ok(sum)
    }
}

/// Runs `passes` on `array`, the stage array of `adder`, in its first
/// `lanes` lanes, inside a `postcompute` span, then the closing reset
/// wave (1 cc). Returns what `passes` returns and the stage's cycle
/// statistics.
///
/// # Errors
///
/// Propagates [`CrossbarError`] from execution.
pub(crate) fn run_stage<T>(
    array: &mut Crossbar,
    adder: &SharedAdder,
    trace: &StageTrace,
    lanes: usize,
    passes: impl FnOnce(&mut Passes<'_, '_>) -> Result<T, CrossbarError>,
) -> Result<(T, CycleStats), CrossbarError> {
    let region = MicroOp::reset_region(0..array.rows(), 0..array.cols());
    let mut exec = Executor::new(array);
    exec.attach_tracer_at(&trace.tracer, trace.track, trace.start);
    let stage = trace.span("postcompute", 0);
    let mut runner = Passes {
        exec,
        adder,
        trace,
        lanes,
    };
    let out = passes(&mut runner)?;
    let mut exec = runner.exec;
    exec.step(&region)?;
    stage.end(trace.start + exec.stats().cycles);
    Ok((out, *exec.stats()))
}

/// Passes 9–11 of the module table and the product assembly, on the
/// three thirds `c_l`, `c_h` and `c_m` of an `n`-bit multiply on a
/// `1.5n`-bit adder: `c̃_m = c_m − (c_h + c_l)`, then `c_top` is
/// `((c_h ‖ c_l) ≫ n/2) + c̃_m`. Only the top `1.5n` bits need that
/// addition; the low `n/2` bits of the `n`-bit `c_l` pass through.
/// `pass` runs one pass, named from `names`. Returns the `2n`-column
/// product. These are also the depth-1 pipeline's three passes.
///
/// # Errors
///
/// Propagates the errors of `pass`.
pub(crate) fn recombine_thirds<R: Row>(
    n: usize,
    [c_l, c_h, c_m]: [R; 3],
    names: &[&'static str],
    mut pass: impl FnMut(&'static str, AddOp, R, R) -> Result<R, CrossbarError>,
) -> Result<R, CrossbarError> {
    let row = |parts: &[(usize, &R)]| R::place(3 * n / 2 + 1, parts);
    let v = pass(names[0], AddOp::Add, row(&[(0, &c_h)]), row(&[(0, &c_l)]))?;
    let ct_m = pass(names[1], AddOp::Sub, c_m, v)?;
    let base_top = row(&[(0, &c_l.slice(n / 2..n)), (n / 2, &c_h)]);
    let c_top = pass(names[2], AddOp::Add, base_top, row(&[(0, &ct_m)]))?;
    let low = c_l.slice(0..n / 2);
    Ok(R::place(2 * n, &[(0, &low), (n / 2, &c_top)]))
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
    /// The shared adder every pass runs, its `Add` and `Sub` bodies
    /// lowered at `opt` and compiled at construction.
    adder: SharedAdder,
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
        let adder = SharedAdder::new(3 * n / 2, opt)?;
        Ok(PostcomputeStage { n, opt, adder })
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
        &self.adder.adder
    }

    /// The compiled body of the shared adder for `op`, lowered at the
    /// stage's opt level — what every `op` pass runs after staging its
    /// operands.
    pub fn adder_program(&self, op: AddOp) -> &CompiledProgram {
        self.adder.body(op)
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
    /// Panics if a product exceeds twice its leaf's width
    /// ([`crate::chunks::leaf_widths`]; at most `n/2 + 4` bits).
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
    /// for the first `lanes` lanes: the solo schedule, with every one
    /// of the 11 shared-adder passes staging lane-word operands and
    /// running the *same* compiled adder body, so the cycle count
    /// equals [`PostcomputeStage::latency`] regardless of the lane
    /// count. The result is the `2n`-column product row.
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
        let widths = crate::chunks::leaf_widths(self.n);
        for (row, width) in products.iter().zip(widths) {
            let rest = row.get(2 * width..).unwrap_or_default();
            assert!(
                rest.iter().all(|&word| word == 0),
                "lane words exceed {} columns",
                2 * width
            );
        }
        let mut array = Crossbar::new_sliced(ROWS, self.adder_width() + 1, lanes)?;
        let (products, stats) = self.run_on(&mut array, products, &StageTrace::off(), lanes)?;
        Ok(BatchPostcomputeOutput {
            products,
            stats,
            endurance: EnduranceReport::per_lane(&array),
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
    /// Panics if a product exceeds twice its leaf's width
    /// ([`crate::chunks::leaf_widths`]; at most `n/2 + 4` bits).
    pub fn run_traced(
        &self,
        products: &[Uint; LEAVES],
        tracer: &Tracer,
        track: TrackId,
        start_cycle: u64,
    ) -> Result<PostcomputeOutput, CrossbarError> {
        for (c, width) in products.iter().zip(crate::chunks::leaf_widths(self.n)) {
            assert!(
                c.bit_len() <= 2 * width,
                "product exceeds {} bits",
                2 * width
            );
        }
        let trace = StageTrace {
            tracer: tracer.clone(),
            track,
            start: start_cycle,
        };
        let mut array = Crossbar::new(ROWS, self.adder_width() + 1)?;
        let (product, stats) = self.run_on(&mut array, products, &trace, 1)?;
        Ok(PostcomputeOutput {
            product,
            stats,
            endurance: EnduranceReport::from_array(&array),
        })
    }

    /// The stage on `array` in its first `lanes` lanes: the
    /// recombination's passes, then the reset wave.
    fn run_on<R: Row>(
        &self,
        array: &mut Crossbar,
        products: &[R; LEAVES],
        trace: &StageTrace,
        lanes: usize,
    ) -> Result<(R, CycleStats), CrossbarError> {
        let active = u64::MAX >> (64 - lanes);
        run_stage(array, &self.adder, trace, lanes, |passes| {
            self.recombine(products, active, |name, op, x, y| {
                passes.run(name, op, x, y)
            })
        })
    }

    /// The 11 passes of the module table on the nine products `c`
    /// (leaf order) in either row format; `pass(name, op, x, y)` runs
    /// one shared-adder pass on two `1.5n + 1`-column operand rows and
    /// returns its sum row. The operands are the paper's
    /// concatenations and shifts (Fig. 7) as column placements into
    /// zeroed rows. The borrow-blocking gap bits of pass 2 are set in
    /// the lanes of `active` only, so on a bit-sliced array every
    /// staged row is exactly the lane-wise transpose of the per-lane
    /// rows. Returns the `2n`-column product.
    fn recombine<R: Row>(
        &self,
        c: &[R; LEAVES],
        active: u64,
        mut pass: impl FnMut(&'static str, AddOp, R, R) -> Result<R, CrossbarError>,
    ) -> Result<R, CrossbarError> {
        let n = self.n;
        let q = n / 4;
        let w = self.adder_width(); // 6q
        let seg = w / 2; // 3q
        let cap = 2 * q + 2; // max width of c_lm / c_hm
        let [c_ll, c_lh, c_lm, c_hl, c_hh, c_hm, c_ml, c_mh, c_mm] = c;
        let row = |parts: &[(usize, &R)]| R::place(w + 1, parts);
        let names = PASS_NAMES;

        // Pass 1: t_l ‖ t_h (batched add).
        let x1 = row(&[(0, c_ll), (seg, c_hl)]);
        let s1 = pass(names[0], AddOp::Add, x1, row(&[(0, c_lh), (seg, c_hh)]))?;

        // Pass 2: c̃_lm ‖ c̃_hm (batched sub; minuend gap bits = 1).
        // The subtrahend t_l + t_h·2^seg is the pass-1 sum as it is.
        let mut x2 = row(&[(0, c_lm), (seg, c_hm)]);
        x2.fill_ones(cap..seg, active);
        x2.fill_ones(seg + cap..w, active);
        let s2 = pass(names[1], AddOp::Sub, x2, s1)?;
        let (ct_lm, ct_hm) = (s2.slice(0..cap), s2.slice(seg..seg + cap));

        // Pass 3: t_m = c_ml + c_mh.
        let t_m = pass(names[2], AddOp::Add, row(&[(0, c_ml)]), row(&[(0, c_mh)]))?;

        // Pass 4: c̃_mm = c_mm − t_m.
        let ct_mm = pass(names[3], AddOp::Sub, row(&[(0, c_mm)]), t_m)?;

        // Pass 5: c_l = (c_lh ‖ c_ll) + c̃_lm·2^q.
        let x5 = row(&[(0, c_ll), (2 * q, c_lh)]);
        let c_l = pass(names[4], AddOp::Add, x5, row(&[(q, &ct_lm)]))?;

        // Pass 6: c_h likewise.
        let x6 = row(&[(0, c_hl), (2 * q, c_hh)]);
        let c_h = pass(names[5], AddOp::Add, x6, row(&[(q, &ct_hm)]))?;

        // Passes 7–8: c_m needs two additions (c_ml is n/2+2 bits wide,
        // so appending c_mh is not possible).
        let x7 = row(&[(0, c_ml)]);
        let u = pass(names[6], AddOp::Add, x7, row(&[(2 * q, c_mh)]))?;
        let c_m = pass(names[7], AddOp::Add, u, row(&[(q, &ct_mm)]))?;

        // Passes 9–11.
        recombine_thirds(n, [c_l, c_h, c_m], &names[8..], pass)
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

    /// Runs the recombination on `array` in its first `lanes` lanes and
    /// returns every pass's staged `(op, x, y)` rows and the product.
    fn staged_rows<R: Row + Clone>(
        stage: &PostcomputeStage,
        array: &mut Crossbar,
        products: &[R; LEAVES],
        lanes: usize,
    ) -> (Vec<(AddOp, R, R)>, R) {
        let mut staged = Vec::new();
        let active = u64::MAX >> (64 - lanes);
        let (product, _) = run_stage(array, &stage.adder, &StageTrace::off(), lanes, |passes| {
            stage.recombine(products, active, |name, op, x, y| {
                staged.push((op, x.clone(), y.clone()));
                passes.run(name, op, x, y)
            })
        })
        .unwrap();
        (staged, product)
    }

    /// Every operand row the recombination stages on lane words is the
    /// lane-wise transpose of the rows it stages for each lane's
    /// `Uint`s — inactive lane bits included, which must be zero (a
    /// gap filled with `u64::MAX` would set them).
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
            let solo: Vec<_> = sets
                .iter()
                .map(|set| {
                    let mut array = Crossbar::new(ROWS, w + 1).unwrap();
                    staged_rows(&stage, &mut array, set, 1)
                })
                .collect();
            let rows = crate::chunks::leaf_rows(&sets, n / 2 + 4);
            let mut array = Crossbar::new_sliced(ROWS, w + 1, lanes).unwrap();
            let (staged, product) = staged_rows(&stage, &mut array, &rows, lanes);
            let transposed = |k: usize, side: fn(&(AddOp, Uint, Uint)) -> &Uint| {
                let refs: Vec<&[u64]> = solo.iter().map(|(p, _)| side(&p[k]).limbs()).collect();
                cim_crossbar::lanes::transpose_lanes(&refs, w + 1)
            };
            assert_eq!(staged.len(), 11, "n = {n}");
            for (k, (op, x, y)) in staged.iter().enumerate() {
                let what = format!("n = {n}, {lanes} lanes, pass {}", k + 1);
                assert!(solo.iter().all(|(p, _)| p[k].0 == *op), "{what}: op");
                assert_eq!(*x, transposed(k, |p| &p.1), "{what}: x row");
                assert_eq!(*y, transposed(k, |p| &p.2), "{what}: y row");
                let inactive = !(u64::MAX >> (64 - lanes));
                assert!(x.iter().chain(y).all(|word| word & inactive == 0), "{what}");
            }
            let golds: Vec<Uint> = sets
                .iter()
                .map(|set| crate::chunks::combine_products(set, n / 4))
                .collect();
            let solo_products: Vec<Uint> = solo.into_iter().map(|(_, p)| p).collect();
            assert_eq!(solo_products, golds, "n = {n}");
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

    #[test]
    #[should_panic(expected = "product exceeds 32 bits")]
    fn solo_run_rejects_a_product_wider_than_its_leaf() {
        // At n = 64 `c_ll` is the product of two 16-bit leaves; 2^48
        // would overlap the `c_hl` segment of pass 1.
        let mut products: [Uint; LEAVES] = std::array::from_fn(|_| Uint::zero());
        products[0] = Uint::pow2(48);
        let _ = PostcomputeStage::new(64).unwrap().run(&products);
    }
}
