//! Per-class execution profiles: what one job of a given
//! `(width, algo)` costs a tile in cycles and wear.
//!
//! Profiles come from two sources:
//!
//! * **analytic** — the paper's closed-form cost model
//!   ([`karatsuba_cim::cost::DesignPoint`] for Karatsuba, the MultPIM
//!   row formula for schoolbook). Instant, exact for latency (the
//!   model reproduces Table I), first-order for per-stage wear.
//! * **measured** — one calibration run of the real simulated
//!   multiplier ([`KaratsubaCimMultiplier`]), capturing exact cycle
//!   statistics and per-stage endurance. Used where simulation cost
//!   permits (small widths, tests, calibration of the sweep binary).
//!
//! The farm scheduler treats both identically; a [`ProfileTable`]
//! caches one profile per class.

use crate::job::{Algo, Job};
use cim_bigint::rng::UintRng;
use cim_crossbar::{CycleStats, EnduranceReport, EnergyParams, EnergyReport, OpClass};
use cim_logic::multpim::CELLS_PER_BIT;
use karatsuba_cim::cost::{DesignPoint, HANDOFF_CYCLES};
use karatsuba_cim::multiplier::{KaratsubaCimMultiplier, MultiplyError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

fn ceil_log2(n: usize) -> u64 {
    assert!(n > 0);
    (usize::BITS - (n - 1).leading_zeros()) as u64
}

/// Widest operand any tile profile is provisioned for. Jobs beyond it
/// (or with a width that is not a positive multiple of 4) are rejected
/// with [`MultiplyError::UnsupportedWidth`] rather than panicking —
/// the serving layer forwards untrusted request widths here.
pub const MAX_JOB_WIDTH: usize = 1 << 16;

/// Validates a job width against the class the profiles support.
///
/// # Errors
///
/// [`MultiplyError::UnsupportedWidth`] when `width` is zero, not a
/// multiple of 4, or above [`MAX_JOB_WIDTH`].
pub fn validate_width(width: usize) -> Result<(), MultiplyError> {
    if width == 0 || !width.is_multiple_of(4) || width > MAX_JOB_WIDTH {
        return Err(MultiplyError::UnsupportedWidth {
            width,
            max: MAX_JOB_WIDTH,
        });
    }
    Ok(())
}

/// Wear one job inflicts on one stage array of a tile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageWear {
    /// Writes to the stage's hottest cell.
    pub max_writes: u64,
    /// Total writes across the stage array.
    pub total_writes: u64,
    /// Cells in the stage array (for wear-density metrics).
    pub cells: u64,
}

impl StageWear {
    fn from_endurance(e: &EnduranceReport) -> Self {
        StageWear {
            max_writes: e.max_writes,
            total_writes: e.total_writes,
            cells: e.cells_total as u64,
        }
    }
}

/// The cost of one job of a given class, as seen by a tile.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// Operand width in bits.
    pub width: usize,
    /// Serving algorithm.
    pub algo: Algo,
    /// Stage latencies `[pre, mult, post]` in cycles (schoolbook jobs
    /// occupy only the mult stage; its pre/post latencies are 0).
    pub stage_latency: [u64; 3],
    /// Controller handoff charged after each stage.
    pub handoff: u64,
    /// Wear per stage array.
    pub wear: [StageWear; 3],
    /// Whole-job cycle statistics (all three stages plus handoffs).
    pub stats: CycleStats,
    /// Cells of the stage arrays a tile must provision for this class.
    pub area_cells: u64,
    /// Products delivered per job (bit-sliced batch classes carry up
    /// to 64 multiplications through one job's cycles).
    pub lanes: usize,
}

impl JobProfile {
    /// Closed-form profile for a Karatsuba job (paper Table I model).
    ///
    /// Per-stage wear, first-order (see `karatsuba_cim::cost`): the
    /// multiplication row takes `2·(n/4+2) + 2` writes per cell, the
    /// postcompute adder `11·⌈log2 1.5n⌉ + 4`; the precompute adder
    /// runs 10 of the 11 analogous Kogge-Stone passes at its own
    /// width, `10·⌈log2(n/4+1)⌉ + 4`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn karatsuba_analytic(n: usize) -> Self {
        let d = DesignPoint::new(n);
        let w = n / 4 + 2;
        let stage_latency = [
            d.precompute_latency,
            d.multiply_latency,
            d.postcompute_latency,
        ];
        let pre_max = 10 * ceil_log2(n / 4 + 1) + 4;
        let mult_max = 2 * w as u64 + 2;
        let post_max = 11 * ceil_log2(3 * n / 2) + 4;
        let wear = [
            StageWear {
                max_writes: pre_max,
                // First-order: half the array at hot-cell rate.
                total_writes: pre_max * d.precompute_area / 2,
                cells: d.precompute_area,
            },
            StageWear {
                max_writes: mult_max,
                total_writes: mult_max * d.multiply_area / 2,
                cells: d.multiply_area,
            },
            StageWear {
                max_writes: post_max,
                total_writes: post_max * d.postcompute_area / 2,
                cells: d.postcompute_area,
            },
        ];
        JobProfile {
            width: n,
            algo: Algo::Karatsuba,
            stage_latency,
            handoff: HANDOFF_CYCLES,
            wear,
            stats: synth_stats(stage_latency, HANDOFF_CYCLES),
            area_cells: d.area_cells(),
            lanes: 1,
        }
    }

    /// Closed-form profile for a bit-sliced 64-lane Karatsuba batch
    /// job: the stage latencies (and thus occupancy and handoff) are
    /// exactly the solo profile's — batching executes the same micro-op
    /// program with one instance per `u64` lane — while every lane
    /// wears its own bit plane, so total writes, provisioned cells and
    /// area scale by 64. Per-plane hot-cell writes are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn karatsuba_batch_analytic(n: usize) -> Self {
        let solo = Self::karatsuba_analytic(n);
        let lanes = Algo::KaratsubaBatch64.lanes() as u64;
        let wear = solo.wear.map(|w| StageWear {
            max_writes: w.max_writes,
            total_writes: w.total_writes * lanes,
            cells: w.cells * lanes,
        });
        JobProfile {
            algo: Algo::KaratsubaBatch64,
            wear,
            area_cells: solo.area_cells * lanes,
            lanes: lanes as usize,
            ..solo
        }
    }

    /// Closed-form profile for a schoolbook job: one MultPIM-style
    /// single-row multiplier at full width `n` — latency
    /// `n·(⌈log2 n⌉ + 14) + 3`, row wear `2n + 2`, area `12·n` cells.
    /// The job passes through the pipeline but only the mult stage
    /// does work; the handoff models operand load / product drain.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn schoolbook_analytic(n: usize) -> Self {
        assert!(
            n > 0 && n.is_multiple_of(4),
            "operand width must be a multiple of 4"
        );
        let lat = n as u64 * (ceil_log2(n) + 14) + 3;
        let area = (CELLS_PER_BIT * n) as u64;
        let stage_latency = [0, lat, 0];
        // Operands in (2 row writes) + product out (1 row read).
        let handoff = 3;
        let wear = [
            StageWear::default(),
            StageWear {
                max_writes: 2 * n as u64 + 2,
                total_writes: (2 * n as u64 + 2) * area / 2,
                cells: area,
            },
            StageWear::default(),
        ];
        JobProfile {
            width: n,
            algo: Algo::Schoolbook,
            stage_latency,
            handoff,
            wear,
            stats: synth_stats(stage_latency, handoff),
            area_cells: area,
            lanes: 1,
        }
    }

    /// Measured profile: runs one real simulated multiplication and
    /// captures exact stats and per-stage endurance.
    ///
    /// # Errors
    ///
    /// Propagates simulation/verification errors.
    pub fn karatsuba_measured(n: usize, seed: u64) -> Result<Self, MultiplyError> {
        let mult = KaratsubaCimMultiplier::new(n)?;
        let mut rng = UintRng::seeded(seed);
        let a = rng.uniform(n);
        let b = rng.uniform(n);
        let out = mult.multiply(&a, &b)?;
        let r = &out.report;
        let mut stats = CycleStats::default();
        stats.merge(&r.precompute_stats);
        // The mult stage is latency-modeled (see cim-logic::multpim);
        // charge its cycles as one op so totals stay exact.
        stats.record(OpClass::Magic, r.stage_cycles[1]);
        stats.merge(&r.postcompute_stats);
        stats.record(OpClass::Write, 3 * HANDOFF_CYCLES);
        Ok(JobProfile {
            width: n,
            algo: Algo::Karatsuba,
            stage_latency: r.stage_cycles,
            handoff: HANDOFF_CYCLES,
            wear: [
                StageWear::from_endurance(&r.endurance[0]),
                StageWear::from_endurance(&r.endurance[1]),
                StageWear::from_endurance(&r.endurance[2]),
            ],
            stats,
            area_cells: r.area_cells,
            lanes: 1,
        })
    }

    /// Sum of stage latencies plus handoffs: unloaded job latency.
    pub fn service_latency(&self) -> u64 {
        self.stage_latency.iter().sum::<u64>() + 3 * self.handoff
    }

    /// Cycles the job occupies each stage `[pre, mult, post]`
    /// (latency + drain handoff), as charged by the tile.
    pub fn stage_occupancy(&self) -> [u64; 3] {
        std::array::from_fn(|s| self.stage_latency[s] + self.handoff)
    }

    /// Worst per-cell writes this job inflicts anywhere on a tile.
    pub fn max_writes(&self) -> u64 {
        self.wear.iter().map(|w| w.max_writes).max().unwrap_or(0)
    }

    /// First-order energy for one job of this class: the whole-job
    /// [`CycleStats`] run through [`EnergyReport::from_stats`] at the
    /// class's dominant row width — `n/4+2` cells for the Karatsuba
    /// stage arrays, `n` for the single-row schoolbook multiplier.
    /// Tiles accumulate this per job served; farm totals are the sum.
    pub fn energy(&self, params: &EnergyParams) -> EnergyReport {
        let row_width = match self.algo {
            Algo::Karatsuba => self.width / 4 + 2,
            Algo::Schoolbook => self.width,
            // Every cycle evaluates all 64 bit planes of the row.
            Algo::KaratsubaBatch64 => 64 * (self.width / 4 + 2),
        };
        EnergyReport::from_stats(&self.stats, row_width, params)
    }
}

/// Synthesizes whole-job [`CycleStats`] from stage latencies when no
/// measured breakdown exists: stage cycles are charged as one op per
/// active stage, handoffs as writes (operand/product movement).
fn synth_stats(stage_latency: [u64; 3], handoff: u64) -> CycleStats {
    let mut stats = CycleStats::default();
    for lat in stage_latency.into_iter().filter(|&l| l > 0) {
        stats.record(OpClass::Magic, lat);
    }
    stats.record(OpClass::Write, 3 * handoff);
    stats
}

/// How a [`ProfileTable`] obtains profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileSource {
    /// Closed-form model only (instant; any width).
    Analytic,
    /// Calibrate Karatsuba classes by running the real simulator once
    /// per class (schoolbook remains analytic).
    Measured {
        /// Seed for the calibration operands.
        seed: u64,
    },
}

/// Cache of one [`JobProfile`] per `(width, algo)` class.
#[derive(Debug, Clone)]
pub struct ProfileTable {
    source: ProfileSource,
    profiles: HashMap<(usize, Algo), JobProfile>,
}

impl ProfileTable {
    /// An empty table that resolves classes on demand from `source`.
    pub fn new(source: ProfileSource) -> Self {
        ProfileTable {
            source,
            profiles: HashMap::new(),
        }
    }

    /// Analytic-only table (the common case for sweeps).
    pub fn analytic() -> Self {
        Self::new(ProfileSource::Analytic)
    }

    /// The profile for `job`'s class, computing and caching it on
    /// first use.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors in measured mode.
    pub fn profile(&mut self, job: &Job) -> Result<&JobProfile, MultiplyError> {
        Ok(match self.profiles.entry((job.width, job.algo)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Self::resolve(self.source, job.width, job.algo)?),
        })
    }

    /// Computes the profile of one class from `source` (no caching).
    fn resolve(
        source: ProfileSource,
        width: usize,
        algo: Algo,
    ) -> Result<JobProfile, MultiplyError> {
        validate_width(width)?;
        Ok(match (algo, source) {
            (Algo::Karatsuba, ProfileSource::Analytic) => JobProfile::karatsuba_analytic(width),
            (Algo::Karatsuba, ProfileSource::Measured { seed }) => {
                JobProfile::karatsuba_measured(width, seed ^ width as u64)?
            }
            (Algo::Schoolbook, _) => JobProfile::schoolbook_analytic(width),
            // Batch latencies equal the solo analytic latencies by
            // construction (verified against the simulator in
            // karatsuba-cim), so both sources resolve analytically.
            (Algo::KaratsubaBatch64, _) => JobProfile::karatsuba_batch_analytic(width),
        })
    }

    /// Resolves every class appearing in `jobs` that the table has not
    /// cached yet. In measured mode each class costs a full simulated
    /// multiplication, so two or more missing measured classes resolve
    /// concurrently, one scoped thread per class; analytic classes and
    /// a lone measured class resolve on the calling thread.
    ///
    /// Determinism: the class list is sorted and deduplicated before
    /// resolution and results are inserted in that same order, so the
    /// table's final state is independent of thread finish order. Each
    /// class's profile is itself a pure function of `(source, class)`.
    ///
    /// # Errors
    ///
    /// Propagates the first simulation error in class-sorted order.
    ///
    /// # Panics
    ///
    /// Panics if a calibration thread panics.
    pub fn prewarm(&mut self, jobs: &[Job]) -> Result<(), MultiplyError> {
        // Runs of same-class jobs collapse as they are collected, so a
        // serving batch sorts a handful of keys, not one per job.
        let mut classes: Vec<(usize, Algo)> = Vec::new();
        for key in jobs.iter().map(|j| (j.width, j.algo)) {
            if classes.last() != Some(&key) {
                classes.push(key);
            }
        }
        classes.sort_unstable();
        classes.dedup();
        classes.retain(|key| !self.profiles.contains_key(key));
        if classes.is_empty() {
            return Ok(());
        }
        let source = self.source;
        let resolve = |&(width, algo): &(usize, Algo)| Self::resolve(source, width, algo);
        // Closed-form profiles cost less than a thread spawn, and one
        // class has nothing to overlap with: only a measured table with
        // several missing classes fans out.
        let fan_out = matches!(source, ProfileSource::Measured { .. }) && classes.len() > 1;
        if !fan_out {
            for key in classes {
                let profile = resolve(&key)?;
                self.profiles.insert(key, profile);
            }
            return Ok(());
        }
        let results: Vec<Result<JobProfile, MultiplyError>> = std::thread::scope(|s| {
            let handles: Vec<_> = classes
                .iter()
                .map(|key| s.spawn(move || resolve(key)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("profile calibration thread panicked"))
                .collect()
        });
        for (key, result) in classes.into_iter().zip(results) {
            self.profiles.insert(key, result?);
        }
        Ok(())
    }

    /// Inserts a pre-built profile (used by the batch bridge, which
    /// derives the profile from the multiplications it just ran).
    pub fn insert(&mut self, profile: JobProfile) {
        self.profiles.insert((profile.width, profile.algo), profile);
    }

    /// Largest stage-array area any cached class needs (tile sizing).
    pub fn max_area_cells(&self) -> u64 {
        self.profiles
            .values()
            .map(|p| p.area_cells)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_matches_design_point_latency() {
        for n in [64usize, 256, 1024, 2048] {
            let p = JobProfile::karatsuba_analytic(n);
            let d = DesignPoint::new(n);
            assert_eq!(p.service_latency(), d.latency(), "n={n}");
            assert_eq!(
                p.stage_occupancy().into_iter().max().unwrap(),
                d.initiation_interval(),
                "n={n}"
            );
            assert_eq!(p.area_cells, d.area_cells(), "n={n}");
        }
    }

    #[test]
    fn analytic_wear_bounded_by_model() {
        // The model's wear-leveled max is the max of the mult/post
        // stage wear; the per-stage split must reproduce it.
        for n in [64usize, 256, 2048] {
            let p = JobProfile::karatsuba_analytic(n);
            let d = DesignPoint::new(n);
            assert_eq!(
                p.wear[1].max_writes.max(p.wear[2].max_writes),
                d.max_writes,
                "n={n}"
            );
        }
    }

    #[test]
    fn batch_profile_same_latency_64x_products_and_wear() {
        for n in [256usize, 2048] {
            let solo = JobProfile::karatsuba_analytic(n);
            let batch = JobProfile::karatsuba_batch_analytic(n);
            assert_eq!(batch.stage_latency, solo.stage_latency, "n={n}");
            assert_eq!(batch.handoff, solo.handoff);
            assert_eq!(batch.service_latency(), solo.service_latency());
            assert_eq!(batch.stage_occupancy(), solo.stage_occupancy());
            assert_eq!(batch.lanes, 64);
            assert_eq!(
                batch.max_writes(),
                solo.max_writes(),
                "per-plane wear unchanged"
            );
            for s in 0..3 {
                assert_eq!(batch.wear[s].total_writes, 64 * solo.wear[s].total_writes);
                assert_eq!(batch.wear[s].cells, 64 * solo.wear[s].cells);
            }
            assert_eq!(batch.area_cells, 64 * solo.area_cells);
            // Energy per job grows with the lane count (MAGIC term).
            let params = EnergyParams::default();
            assert!(batch.energy(&params).total_pj() > solo.energy(&params).total_pj());
        }
    }

    #[test]
    fn batch_class_resolves_in_both_profile_sources() {
        for source in [ProfileSource::Analytic, ProfileSource::Measured { seed: 1 }] {
            let mut t = ProfileTable::new(source);
            let job = Job {
                id: 0,
                width: 256,
                algo: Algo::KaratsubaBatch64,
                arrival: 0,
            };
            let p = t.profile(&job).unwrap();
            assert_eq!(p.lanes, 64);
            assert_eq!(
                p.stage_latency,
                JobProfile::karatsuba_analytic(256).stage_latency
            );
        }
    }

    #[test]
    fn schoolbook_profile_single_stage() {
        let p = JobProfile::schoolbook_analytic(256);
        assert_eq!(p.stage_latency[0], 0);
        assert_eq!(p.stage_latency[2], 0);
        // 256·(8+14)+3
        assert_eq!(p.stage_latency[1], 256 * 22 + 3);
        assert_eq!(p.area_cells, 12 * 256);
        assert_eq!(p.max_writes(), 2 * 256 + 2);
    }

    #[test]
    fn measured_profile_agrees_with_model_envelope() {
        let p = JobProfile::karatsuba_measured(64, 5).unwrap();
        let d = DesignPoint::new(64);
        assert_eq!(p.stage_latency[0], d.precompute_latency);
        assert_eq!(p.stage_latency[1], d.multiply_latency);
        let rel = (p.stage_latency[2] as f64 - d.postcompute_latency as f64).abs()
            / d.postcompute_latency as f64;
        assert!(rel < 0.05, "stage 3 off by {rel}");
        // Stats cycles equal stage cycles + handoffs exactly.
        assert_eq!(p.stats.cycles, p.service_latency());
        // Measured wear is the real thing; model within 4x (same
        // envelope the simulator tests use).
        assert!(p.max_writes() <= 4 * d.max_writes);
        assert!(p.max_writes() >= d.max_writes / 4);
    }

    #[test]
    fn energy_scales_with_width_and_sums_components() {
        let params = EnergyParams::default();
        let small = JobProfile::karatsuba_analytic(64).energy(&params);
        let big = JobProfile::karatsuba_analytic(256).energy(&params);
        assert!(big.total_pj() > small.total_pj());
        for e in [small, big] {
            assert!(e.magic_pj > 0.0, "stage cycles are charged as MAGIC");
            assert!(e.write_pj > 0.0, "handoffs are charged as writes");
            let sum: f64 = e.components().iter().map(|(_, pj)| pj).sum();
            assert!((sum - e.total_pj()).abs() < 1e-9);
        }
        // Schoolbook charges its single row at full width.
        let sb = JobProfile::schoolbook_analytic(256).energy(&params);
        assert!(sb.total_pj() > 0.0);
    }

    #[test]
    fn table_caches_per_class() {
        let mut t = ProfileTable::analytic();
        let job = Job {
            id: 0,
            width: 256,
            algo: Algo::Karatsuba,
            arrival: 0,
        };
        let a = t.profile(&job).unwrap().clone();
        let b = t.profile(&job).unwrap().clone();
        assert_eq!(a, b);
        assert_eq!(t.max_area_cells(), a.area_cells);
    }
}
