//! `solo_2048` and `batch64_384`: the paper's three-stage multiplier.
//!
//! `solo_2048` runs one RSA-size multiply per op through
//! [`KaratsubaCimMultiplier::multiply`] on the packed backend;
//! `batch64_384` runs 64 BLS12-381-size multiplies per op through
//! [`KaratsubaCimMultiplier::multiply_batch`] on the sliced backend.
//! Both lower their programs at `O3`, compile them during set-up, and
//! then run warm: the timed region must not miss the program cache.
//!
//! The traced run calls the stages one at a time —
//! [`PrecomputeStage`], [`MultiplyStage`], [`PostcomputeStage`], then
//! the gold product — and asserts that they reproduce the untraced
//! op's products, cycles and wear.

use crate::timing::{set_trace_overhead, timed_setup, LayerTimes, OpTimes, Region};
use crate::{Outcome, MIN_OPS};
use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_crossbar::{CycleStats, EnduranceReport, EnergyParams};
use cim_mir::OptLevel;
use karatsuba_cim::cost::HANDOFF_CYCLES;
use karatsuba_cim::multiplier::{ExecutionReport, KaratsubaCimMultiplier};
use karatsuba_cim::multiply::MultiplyStage;
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::PrecomputeStage;
use karatsuba_cim::progcache;
use std::hint::black_box;

/// Operand width and lane count of a multiplier workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    width: usize,
    /// Products per op; more than one runs bit-sliced.
    lanes: usize,
}

impl Shape {
    fn batched(self) -> bool {
        self.lanes > 1
    }
}

/// One 2048-bit product per op.
pub const SOLO: Shape = Shape {
    width: 2048,
    lanes: 1,
};

/// 64 products of 384-bit operands per op.
pub const BATCH: Shape = Shape {
    width: 384,
    lanes: 64,
};

/// Latency of the 2048-bit multiply at `O3`, as the repository's
/// committed `O3` benchmark snapshot records it (`multiply_2048/cycles`).
const SOLO_O3_CYCLES: u64 = 11929;

/// Distinct operand sets the timed ops cycle through.
const POOL: usize = 8;

/// What the simulator reports for one op, per lane where it differs.
#[derive(Debug, Clone, PartialEq)]
struct Sim {
    products: Vec<Uint>,
    stage_cycles: [u64; 3],
    total_latency: u64,
    /// Per lane, the `[pre, mult, post]` endurance reports.
    endurance: Vec<[EnduranceReport; 3]>,
}

impl Sim {
    fn max_writes(&self) -> u64 {
        self.endurance
            .iter()
            .map(EnduranceReport::max_over)
            .max()
            .unwrap_or(0)
    }

    fn writes_per_result(&self) -> f64 {
        let total: u64 = self
            .endurance
            .iter()
            .flatten()
            .map(|e| e.total_writes)
            .sum();
        total as f64 / self.endurance.len() as f64
    }
}

/// A set-up multiplier workload, ready to time.
pub struct Bench {
    shape: Shape,
    mult: KaratsubaCimMultiplier,
    pool: Vec<Vec<(Uint, Uint)>>,
    /// What the cold first op reported, on the first operand set.
    first: Sim,
    /// Seconds (at the reference speed) to build the multiplier and
    /// run the first op.
    pub setup_s: f64,
}

impl Bench {
    /// Draws the operand pool from `seed`, builds the multiplier and
    /// runs the first, cold op, which compiles the `O3` programs.
    pub fn setup(shape: Shape, seed: u64) -> Result<Self, String> {
        let mut rng = UintRng::seeded(seed);
        let pool: Vec<Vec<(Uint, Uint)>> = (0..POOL)
            .map(|_| {
                (0..shape.lanes)
                    .map(|_| (rng.exact_bits(shape.width), rng.exact_bits(shape.width)))
                    .collect()
            })
            .collect();
        let (built, setup_s) = timed_setup(|| {
            let mult = KaratsubaCimMultiplier::with_opt_level(shape.width, OptLevel::MAX)
                .map_err(|e| e.to_string())?;
            let first = run_op(&mult, shape, &pool[0])?;
            Ok::<_, String>((mult, first))
        });
        let (mult, first) = built?;
        Ok(Bench {
            shape,
            mult,
            pool,
            first,
            setup_s,
        })
    }

    /// Runs the timed region and reports its metrics.
    pub fn run(self, seconds: f64, traced: bool) -> Result<Outcome, String> {
        let Bench {
            shape,
            mult,
            pool,
            first,
            setup_s,
        } = self;
        let mut out = Outcome::default();
        let expected: Vec<Vec<Uint>> = pool
            .iter()
            .map(|pairs| pairs.iter().map(|(a, b)| a * b).collect())
            .collect();
        let lanes = shape.lanes;
        out.check(first.products == expected[0], || {
            "set-up product differs from gold".into()
        });
        if lanes == 1 {
            out.check(first.total_latency == SOLO_O3_CYCLES, || {
                format!(
                    "latency {} cycles, expected {SOLO_O3_CYCLES}",
                    first.total_latency
                )
            });
        }
        // Wear depends on the operands, so each operand set's first op
        // sets what its later ops must repeat exactly.
        let mut reference: Vec<Option<Sim>> = vec![None; POOL];
        reference[0] = Some(first.clone());
        let stages = Stages::new(shape)?;
        let mut untraced_ops = OpTimes::default();
        let mut traced_ops = OpTimes::default();
        let mut layers = LayerTimes::default();
        // Modelled energy per product, from the first traced op.
        let mut energy = None;
        let (_, misses_before) = progcache::stats();
        let mut region = Region::start(seconds);
        for i in 0.. {
            if region.expired() && untraced_ops.len() >= MIN_OPS {
                break;
            }
            let slot = i % POOL;
            let pairs = &pool[slot];
            region.tick();
            let start = region.now();
            let sim = run_op(&mult, shape, black_box(pairs));
            let end = region.now();
            untraced_ops.push(end, end - start);
            out.attempted += 1;
            let ok = match &sim {
                Ok(sim) => match &reference[slot] {
                    Some(r) => sim == r,
                    None => {
                        reference[slot] = Some(sim.clone());
                        sim.products == expected[slot]
                            && sim.stage_cycles == first.stage_cycles
                            && sim.total_latency == first.total_latency
                    }
                },
                Err(e) => {
                    out.check(false, || e.clone());
                    false
                }
            };
            if !ok {
                out.failed += 1;
            }
            if traced {
                region.tick();
                let start = region.now();
                let (traced_sim, stats) = stages.run(pairs, &region, &mut layers)?;
                let end = region.now();
                traced_ops.push(end, end - start);
                layers.ops += 1;
                layers.op += end - start;
                out.check(sim.as_ref().is_ok_and(|s| *s == traced_sim), || {
                    format!("op {i}: the stages one by one differ from the whole multiply")
                });
                energy.get_or_insert_with(|| stages.energy_per_result(&traced_sim, stats));
            }
        }
        let scale = region.finish(&mut out);
        let (_, misses_after) = progcache::stats();
        let timed_misses = misses_after - misses_before;
        out.check(timed_misses == 0, || {
            format!("{timed_misses} program-cache misses in the timed region")
        });

        let ok_ops = out.attempted - out.failed;
        let reference: Vec<Sim> = reference.into_iter().flatten().collect();
        let max_writes = reference.iter().map(Sim::max_writes).max().unwrap_or(0);
        let writes_per_result =
            reference.iter().map(Sim::writes_per_result).sum::<f64>() / reference.len() as f64;
        out.set_latencies(&mut untraced_ops, &scale);
        if traced {
            out.set("progcache.timed_misses", timed_misses as f64);
            out.set("precompute.cycles", first.stage_cycles[0] as f64);
            out.set("multiply.cycles", first.stage_cycles[1] as f64);
            out.set("postcompute.cycles", first.stage_cycles[2] as f64);
            out.set("crossbar.writes_per_result", writes_per_result);
            out.set("core.energy_pj_per_result", energy.unwrap_or(0.0));
            layers.record(&mut out, Some("core.unattributed_ms_per_op"), &scale);
            let ns_per_op = out.metrics["op_ms_p50"] * 1e6;
            out.set(
                "core.host_ns_per_sim_cycle",
                ns_per_op / first.total_latency as f64,
            );
            set_trace_overhead(&mut out, &untraced_ops, &traced_ops);
        } else {
            out.set("setup_s", setup_s);
            out.set(
                "goodput_per_s",
                (ok_ops * lanes as u64) as f64 / scale.seconds,
            );
            out.set(
                "sim_cycles_per_result",
                first.total_latency as f64 / lanes as f64,
            );
            out.set("sim_max_cell_writes", max_writes as f64);
            out.set("sim_p99_latency_cycles", first.total_latency as f64);
            out.set("sim_served_ratio", 1.0);
        }
        Ok(out)
    }
}

/// One untraced op: the whole multiply, gold check included.
fn run_op(
    mult: &KaratsubaCimMultiplier,
    shape: Shape,
    pairs: &[(Uint, Uint)],
) -> Result<Sim, String> {
    if shape.batched() {
        let o = mult.multiply_batch(pairs).map_err(|e| e.to_string())?;
        let endurance = by_lane(o.lane_endurance);
        Ok(Sim {
            products: o.products,
            stage_cycles: o.stage_cycles,
            total_latency: o.total_latency,
            endurance,
        })
    } else {
        let (a, b) = &pairs[0];
        let o = mult.multiply(a, b).map_err(|e| e.to_string())?;
        Ok(Sim {
            products: vec![o.product],
            stage_cycles: o.report.stage_cycles,
            total_latency: o.report.total_latency,
            endurance: vec![o.report.endurance],
        })
    }
}

/// Per-stage, per-lane endurance reports regrouped per lane.
fn by_lane([pre, mid, post]: [Vec<EnduranceReport>; 3]) -> Vec<[EnduranceReport; 3]> {
    pre.into_iter()
        .zip(mid)
        .zip(post)
        .map(|((p, m), q)| [p, m, q])
        .collect()
}

/// The three stages of the multiplier, driven one at a time.
struct Stages {
    shape: Shape,
    pre: PrecomputeStage,
    mult: MultiplyStage,
    post: PostcomputeStage,
}

impl Stages {
    fn new(shape: Shape) -> Result<Self, String> {
        let (n, opt) = (shape.width, OptLevel::MAX);
        let err = |e: cim_crossbar::CrossbarError| e.to_string();
        Ok(Stages {
            shape,
            pre: PrecomputeStage::with_opt_level(n, opt).map_err(err)?,
            mult: MultiplyStage::with_opt_level(n, opt).map_err(err)?,
            post: PostcomputeStage::with_opt_level(n, opt).map_err(err)?,
        })
    }

    /// One traced op: each stage, then the gold check, each timed on
    /// `clock` into `layers`. Returns what the op simulated and the
    /// pre- and postcompute cycle statistics.
    fn run(
        &self,
        pairs: &[(Uint, Uint)],
        clock: &Region,
        layers: &mut LayerTimes,
    ) -> Result<(Sim, [CycleStats; 2]), String> {
        let err = |e: cim_crossbar::CrossbarError| e.to_string();
        let t0 = clock.now();
        let (products, stage_cycles, stats, endurance, [t1, t2, t3]) = if self.shape.batched() {
            let pre = self.pre.run_batch(pairs).map_err(err)?;
            let t1 = clock.now();
            let mid = self
                .mult
                .run_batch(&pre.a_leaves, &pre.b_leaves)
                .map_err(err)?;
            let t2 = clock.now();
            let post = self.post.run_batch(&mid.products).map_err(err)?;
            let t3 = clock.now();
            let cycles = [pre.stats.cycles, mid.cycles, post.stats.cycles];
            let endurance = [pre.endurance, mid.endurance, post.endurance];
            (
                post.products,
                cycles,
                [pre.stats, post.stats],
                endurance,
                [t1, t2, t3],
            )
        } else {
            let (a, b) = &pairs[0];
            let pre = self.pre.run(a, b).map_err(err)?;
            let t1 = clock.now();
            let mid = self.mult.run(&pre.a_leaves, &pre.b_leaves).map_err(err)?;
            let t2 = clock.now();
            let post = self.post.run(&mid.products).map_err(err)?;
            let t3 = clock.now();
            let cycles = [pre.stats.cycles, mid.cycles, post.stats.cycles];
            let endurance = [
                vec![pre.endurance],
                vec![mid.endurance],
                vec![post.endurance],
            ];
            (
                vec![post.product],
                cycles,
                [pre.stats, post.stats],
                endurance,
                [t1, t2, t3],
            )
        };
        let gold_ok = pairs.iter().zip(&products).all(|((a, b), p)| &(a * b) == p);
        let t4 = clock.now();
        if !gold_ok {
            return Err("a traced product differs from gold".into());
        }
        layers.add("precompute.ms_per_op", t1 - t0);
        layers.add("multiply.ms_per_op", t2 - t1);
        layers.add("postcompute.ms_per_op", t3 - t2);
        layers.add("bigint.gold_ms_per_op", t4 - t3);
        let sim = Sim {
            products,
            stage_cycles,
            total_latency: stage_cycles.iter().sum::<u64>() + 3 * HANDOFF_CYCLES,
            endurance: by_lane(endurance),
        };
        Ok((sim, stats))
    }

    /// Mean modelled energy of one product, from the exact write
    /// counts and cycle statistics of `sim`.
    fn energy_per_result(&self, sim: &Sim, [pre, post]: [CycleStats; 2]) -> f64 {
        let params = EnergyParams::default();
        let area_cells = self.pre.area_cells() + self.mult.area_cells() + self.post.area_cells();
        let total: f64 = sim
            .endurance
            .iter()
            .map(|endurance| {
                ExecutionReport {
                    stage_cycles: sim.stage_cycles,
                    precompute_stats: pre,
                    postcompute_stats: post,
                    endurance: endurance.clone(),
                    total_latency: sim.total_latency,
                    area_cells,
                }
                .energy(self.shape.width, &params)
                .total_pj()
            })
            .sum();
        total / sim.endurance.len() as f64
    }
}
