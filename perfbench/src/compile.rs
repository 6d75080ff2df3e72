//! `compile_2048`: the cold-start compile of a 2048-bit multiplier.
//!
//! One op compiles, from scratch and without the program cache, the
//! four Kogge-Stone adder programs the 2048-bit stages run: `Add` and
//! `Sub` at the precompute adder width (513 bits) and at the
//! postcompute adder width (3072 bits). Each goes through
//! [`KoggeStoneAdder::mir_program`], [`MirProgram::lower`] at `O3`
//! and [`cim_check::verify`], and must equal what
//! [`KoggeStoneAdder::program_opt`] lowers.
//!
//! The traced run replaces `lower` by its passes called one at a
//! time — [`dead_write_elim`], [`parallel_pack`], then
//! [`MirProgram::interface_rows`] and [`place`] — and asserts that
//! the sequence reproduces `lower(O3)` byte for byte.

use crate::timing::{set_trace_overhead, timed_setup, LayerTimes, OpTimes, Region};
use crate::{Outcome, MIN_OPS};
use cim_check::{verify, VerifyConfig};
use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};
use cim_mir::{dead_write_elim, dependence_preds, parallel_pack, place, program_cycles};
use cim_mir::{MirProgram, OptLevel, TileLimits};
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::PrecomputeStage;
use std::hint::black_box;

const WIDTH: usize = 2048;

/// One of the adder programs an op compiles, with what it must
/// compile to.
struct Program {
    adder: KoggeStoneAdder,
    op: AddOp,
    limits: TileLimits,
    config: VerifyConfig,
    expected: Vec<cim_crossbar::MicroOp>,
}

impl Program {
    fn new(width: usize, op: AddOp) -> Self {
        let adder = KoggeStoneAdder::new(width);
        let (rows, cols) = (adder.required_rows(), adder.required_cols());
        let layout = adder.layout();
        let operand_cols = layout.col_base..layout.col_base + width + 1;
        let config = VerifyConfig::new(rows, cols)
            .with_preloaded_rows(&[layout.x_row, layout.y_row], operand_cols);
        let expected = adder.program_opt(op, OptLevel::O3);
        Program {
            limits: TileLimits::for_array(rows, cols),
            adder,
            op,
            config,
            expected,
        }
    }
}

/// Exact totals over one compiled program set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    ops_in: usize,
    ops_out: usize,
    cycles_in: u64,
    cycles_out: u64,
    max_writes: u64,
}

/// A set-up compile workload, ready to time.
pub struct Bench {
    programs: Vec<Program>,
    /// Seconds (at the reference speed) to build a 2048-bit `O3`
    /// multiplier and run its first, cold multiply: the start-up cost
    /// the compile path dominates.
    pub setup_s: f64,
}

impl Bench {
    /// Times a cold 2048-bit multiply (operands drawn from `seed`),
    /// then prepares the programs an op compiles.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = cim_bigint::rng::UintRng::seeded(seed);
        let (a, b) = (rng.exact_bits(WIDTH), rng.exact_bits(WIDTH));
        let (outcome, setup_s) = timed_setup(|| {
            KaratsubaCimMultiplier::with_opt_level(WIDTH, OptLevel::MAX)?.multiply(&a, &b)
        });
        black_box(outcome.map_err(|e| e.to_string())?);
        let widths = [
            PrecomputeStage::with_opt_level(WIDTH, OptLevel::MAX)
                .map_err(|e| e.to_string())?
                .adder_width(),
            PostcomputeStage::with_opt_level(WIDTH, OptLevel::MAX)
                .map_err(|e| e.to_string())?
                .adder_width(),
        ];
        let programs = widths
            .into_iter()
            .flat_map(|w| [Program::new(w, AddOp::Add), Program::new(w, AddOp::Sub)])
            .collect();
        Ok(Bench { programs, setup_s })
    }

    /// Runs the timed region and reports its metrics.
    pub fn run(self, seconds: f64, traced: bool) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let mut reference = None;
        let mut untraced_ops = OpTimes::default();
        let mut traced_ops = OpTimes::default();
        let mut layers = LayerTimes::default();
        let mut preds = 0.0;
        let mut region = Region::start(seconds);
        while !region.expired() || untraced_ops.len() < MIN_OPS {
            region.tick();
            let start = region.now();
            let compiled = self.compile();
            let end = region.now();
            untraced_ops.push(end, end - start);
            out.attempted += 1;
            let counts = self.check(compiled, &mut out);
            if counts.is_none() {
                out.failed += 1;
            }
            if reference.is_none() {
                reference = counts;
            }
            if traced {
                region.tick();
                let start = region.now();
                let compiled = self.compile_traced(&region, &mut layers);
                let end = region.now();
                traced_ops.push(end, end - start);
                layers.ops += 1;
                layers.op += end - start;
                let traced_counts = self.check(compiled, &mut out);
                out.check(traced_counts.is_some() && traced_counts == counts, || {
                    "the passes one by one differ from lower(O3)".into()
                });
                // Outside the traced op: the standalone call that
                // `parallel_pack` makes first, on the same input.
                let live: Vec<MirProgram> = self
                    .programs
                    .iter()
                    .map(|p| dead_write_elim(&p.adder.mir_program(p.op)))
                    .collect();
                let start = region.now();
                for l in &live {
                    black_box(dependence_preds(l.ops()));
                }
                preds += region.now() - start;
            }
        }
        let scale = region.finish(&mut out);
        let counts = reference.ok_or("no op compiled correctly")?;
        out.set_latencies(&mut untraced_ops, &scale);
        if traced {
            layers.record(&mut out, None, &scale);
            out.set(
                "mir.dependence_preds_ms_per_op",
                preds * scale.mean / layers.ops as f64,
            );
            out.set("mir.ops_in", counts.ops_in as f64);
            out.set("mir.ops_out", counts.ops_out as f64);
            out.set("mir.cycles_in", counts.cycles_in as f64);
            out.set("mir.cycles_out", counts.cycles_out as f64);
            set_trace_overhead(&mut out, &untraced_ops, &traced_ops);
        } else {
            out.set("setup_s", self.setup_s);
            out.set(
                "goodput_per_s",
                (out.attempted - out.failed) as f64 / scale.seconds,
            );
            out.set("sim_cycles_per_result", counts.cycles_out as f64);
            out.set("sim_max_cell_writes", counts.max_writes as f64);
            out.set("sim_p99_latency_cycles", counts.cycles_out as f64);
            out.set("sim_served_ratio", 1.0);
        }
        Ok(out)
    }

    /// One untraced op: build, lower at `O3` and verify each program.
    /// Returns each program's source, lowering and verifier verdict.
    fn compile(&self) -> Vec<Compiled> {
        self.programs
            .iter()
            .map(|p| {
                let source = p.adder.mir_program(p.op);
                let lowered = source.lower(OptLevel::O3, &p.limits);
                let verdict = verify(&lowered, &p.config).map(|r| r.pressure.max_writes());
                Compiled {
                    source,
                    lowered,
                    verdict,
                }
            })
            .collect()
    }

    /// One traced op: [`Bench::compile`] with `lower` split into its
    /// passes and every step timed on `clock` into `layers`.
    fn compile_traced(&self, clock: &Region, layers: &mut LayerTimes) -> Vec<Compiled> {
        self.programs
            .iter()
            .map(|p| {
                let t0 = clock.now();
                let source = p.adder.mir_program(p.op);
                let t1 = clock.now();
                let live = dead_write_elim(&source);
                let t2 = clock.now();
                let packed = parallel_pack(&live, &p.limits);
                let t3 = clock.now();
                let pinned = source.interface_rows();
                let lowered = place(&packed, source.geometry().0, &p.limits, &pinned)
                    .map(|(placed, _)| placed)
                    .unwrap_or_default();
                let t4 = clock.now();
                let verdict = verify(&lowered, &p.config).map(|r| r.pressure.max_writes());
                let t5 = clock.now();
                layers.add("logic.build_ms_per_op", t1 - t0);
                layers.add("mir.dead_write_elim_ms_per_op", t2 - t1);
                layers.add("mir.parallel_pack_ms_per_op", t3 - t2);
                layers.add("mir.place_ms_per_op", t4 - t3);
                layers.add("check.verify_ms_per_op", t5 - t4);
                Compiled {
                    source,
                    lowered,
                    verdict,
                }
            })
            .collect()
    }

    /// Checks one op's programs: each must verify and equal what
    /// [`KoggeStoneAdder::program_opt`] lowers. Returns the set's
    /// counts, or `None` after recording what failed.
    fn check(&self, compiled: Vec<Compiled>, out: &mut Outcome) -> Option<Counts> {
        let mut counts = Counts::default();
        for (p, c) in self.programs.iter().zip(compiled) {
            let name = || format!("{:?} at {} bits", p.op, p.adder.width());
            let max_writes = match c.verdict {
                Ok(w) => w,
                Err(e) => {
                    out.check(false, || format!("{}: verify rejected it: {e}", name()));
                    return None;
                }
            };
            if c.lowered != p.expected {
                out.check(false, || {
                    format!("{}: lowering differs from program_opt", name())
                });
                return None;
            }
            counts.ops_in += c.source.len();
            counts.ops_out += c.lowered.len();
            counts.cycles_in += program_cycles(c.source.ops());
            counts.cycles_out += program_cycles(&c.lowered);
            counts.max_writes = counts.max_writes.max(max_writes);
        }
        Some(counts)
    }
}

/// One compiled program and its verifier verdict (the maximum
/// per-cell writes when accepted).
struct Compiled {
    source: MirProgram,
    lowered: Vec<cim_crossbar::MicroOp>,
    verdict: Result<u64, cim_check::VerifyError>,
}
