//! Batch execution: the Karatsuba Multiplication Controller (Fig. 5)
//! streaming many multiplications through one pipeline.
//!
//! Moved here from `karatsuba_cim::batch`: a batch is now the
//! degenerate farm — one tile, FIFO admission, all jobs arriving at
//! cycle 0 — so single-pipeline and multi-tile numbers come from the
//! same scheduler. The multiplications themselves still run on the
//! real simulated crossbars ([`KaratsubaCimMultiplier`]) and every
//! product is verified; each stage keeps its subarray across jobs, so
//! wear *accumulates* exactly as it would in hardware. This is what
//! turns the per-multiplication endurance numbers of Table I into an
//! array lifetime statement.

use crate::job::{Algo, Job};
use crate::policy::Policy;
use crate::profile::{JobProfile, ProfileTable};
use crate::scheduler::{FarmConfig, Scheduler};
use cim_bigint::Uint;
use cim_crossbar::{EnduranceReport, CELL_ENDURANCE_WRITES};
use karatsuba_cim::cost::HANDOFF_CYCLES;
use karatsuba_cim::multiplier::{KaratsubaCimMultiplier, MultiplyError};

/// Report of a batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Number of multiplications executed (all verified).
    pub multiplications: usize,
    /// Pipelined makespan in cycles (from the 1-tile farm schedule).
    pub makespan_cycles: u64,
    /// Steady-state throughput in multiplications per 10^6 cycles.
    pub throughput_per_mcc: f64,
    /// Accumulated endurance per stage `[pre, mult, post]`.
    pub endurance: [EnduranceReport; 3],
}

impl BatchReport {
    /// Worst per-cell writes across all three stage arrays.
    pub fn max_writes(&self) -> u64 {
        EnduranceReport::max_over(&self.endurance)
    }

    /// Writes to the hottest cell per multiplication (amortized).
    pub fn writes_per_multiplication(&self) -> f64 {
        self.max_writes() as f64 / self.multiplications.max(1) as f64
    }

    /// Multiplications until the hottest cell reaches the ReRAM
    /// endurance limit, extrapolated from this batch's wear rate.
    pub fn projected_lifetime_multiplications(&self) -> u64 {
        let per_mult = self.writes_per_multiplication();
        if per_mult <= 0.0 {
            u64::MAX
        } else {
            (CELL_ENDURANCE_WRITES as f64 / per_mult) as u64
        }
    }
}

/// Runs a batch of multiplications through a single multiplier
/// (persistent stage arrays), verifying every product. Timing comes
/// from a one-tile FIFO farm fed a closed batch — identical, job for
/// job, to the seed's `PipelineSchedule` recurrence.
///
/// # Errors
///
/// Propagates the first simulation or verification error.
///
/// # Panics
///
/// Panics if an operand does not fit the multiplier width.
pub fn run_batch(
    multiplier: &KaratsubaCimMultiplier,
    pairs: &[(Uint, Uint)],
) -> Result<BatchReport, MultiplyError> {
    let mut endurance: Option<[EnduranceReport; 3]> = None;
    let mut stage_cycles = [0u64; 3];
    for (a, b) in pairs {
        let out = multiplier.multiply(a, b)?;
        stage_cycles = out.report.stage_cycles;
        endurance = Some(match endurance {
            None => out.report.endurance,
            Some(acc) => accumulate(acc, out.report.endurance),
        });
    }
    let endurance = endurance.unwrap_or_else(|| {
        let empty = EnduranceReport {
            max_writes: 0,
            total_writes: 0,
            cells_touched: 0,
            cells_total: 0,
        };
        [empty.clone(), empty.clone(), empty]
    });

    // Timing: the measured stage latencies drive a one-tile FIFO farm.
    let n = multiplier.width();
    let mut profile = JobProfile::karatsuba_analytic(n);
    profile.stage_latency = stage_cycles;
    profile.handoff = HANDOFF_CYCLES;
    let mut table = ProfileTable::analytic();
    table.insert(profile);
    let jobs: Vec<Job> = (0..pairs.len() as u64)
        .map(|id| Job {
            id,
            width: n,
            algo: Algo::Karatsuba,
            arrival: 0,
        })
        .collect();
    let farm = Scheduler::with_profiles(FarmConfig::new(1, Policy::Fifo), table).run(&jobs)?;

    Ok(BatchReport {
        multiplications: pairs.len(),
        makespan_cycles: farm.makespan_cycles,
        throughput_per_mcc: match farm.initiation_interval() {
            0 => 0.0,
            ii => 1.0e6 / ii as f64,
        },
        endurance,
    })
}

/// Accumulates per-stage endurance across jobs (the stage arrays are
/// physically the same cells each time).
fn accumulate(acc: [EnduranceReport; 3], add: [EnduranceReport; 3]) -> [EnduranceReport; 3] {
    std::array::from_fn(|i| EnduranceReport {
        max_writes: acc[i].max_writes + add[i].max_writes,
        total_writes: acc[i].total_writes + add[i].total_writes,
        cells_touched: acc[i].cells_touched.max(add[i].cells_touched),
        cells_total: add[i].cells_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::pairs;
    use karatsuba_cim::pipeline::PipelineSchedule;

    #[test]
    fn batch_reports_scale_with_size() {
        let mult = KaratsubaCimMultiplier::new(32).expect("32 is a valid multiplier width");
        let small = run_batch(&mult, &pairs(32, 2, 1)).expect("2-pair batch must run");
        let large = run_batch(&mult, &pairs(32, 6, 1)).expect("6-pair batch must run");
        assert_eq!(small.multiplications, 2);
        assert_eq!(large.multiplications, 6);
        assert!(large.makespan_cycles > small.makespan_cycles);
        assert!(large.max_writes() > small.max_writes());
        // Steady-state throughput is batch-size independent.
        assert!((large.throughput_per_mcc - small.throughput_per_mcc).abs() < 1e-9);
    }

    #[test]
    fn amortized_writes_are_stable() {
        let mult = KaratsubaCimMultiplier::new(16).expect("16 is a valid multiplier width");
        let r = run_batch(&mult, &pairs(16, 5, 2)).expect("5-pair batch must run");
        let per = r.writes_per_multiplication();
        assert!(per > 0.0);
        // Within 2x of a single run's max writes (same workload shape).
        let single = run_batch(&mult, &pairs(16, 1, 2)).expect("1-pair batch must run");
        assert!(per <= 2.0 * single.max_writes() as f64);
        assert!(r.projected_lifetime_multiplications() > 1_000_000);
    }

    #[test]
    fn empty_batch() {
        let mult = KaratsubaCimMultiplier::new(16).expect("16 is a valid multiplier width");
        let r = run_batch(&mult, &[]).expect("empty batch must run");
        assert_eq!(r.multiplications, 0);
        assert_eq!(r.max_writes(), 0);
    }

    #[test]
    fn throughput_matches_design_point() {
        let mult = KaratsubaCimMultiplier::new(64).expect("64 is a valid multiplier width");
        let r = run_batch(&mult, &pairs(64, 4, 3)).expect("4-pair batch must run");
        let d = mult.design_point();
        // Stage 3 measured differs ≤2% from the paper formula, so the
        // batch throughput must be within 2% of the model's.
        let rel = (r.throughput_per_mcc - d.throughput_per_mcc()).abs() / d.throughput_per_mcc();
        assert!(rel < 0.02, "rel = {rel}");
    }

    /// The farm-backed batch must time exactly like the seed's
    /// single-pipeline schedule it replaced.
    #[test]
    fn farm_timing_matches_pipeline_schedule() {
        let mult = KaratsubaCimMultiplier::new(32).expect("32 is a valid multiplier width");
        let ps = pairs(32, 5, 4);
        let r = run_batch(&mult, &ps).expect("5-pair batch must run");
        let out = mult
            .multiply(&ps[0].0, &ps[0].1)
            .expect("verified multiply must succeed");
        let schedule =
            PipelineSchedule::simulate(ps.len(), out.report.stage_cycles, HANDOFF_CYCLES);
        assert_eq!(
            r.makespan_cycles,
            schedule
                .jobs
                .last()
                .expect("nonempty schedule")
                .completed_at()
        );
        assert!((r.throughput_per_mcc - schedule.throughput_per_mcc()).abs() < 1e-9);
    }
}
