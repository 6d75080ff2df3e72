//! A [`Tile`]: one pipelined multiplier instance in the farm.
//!
//! Each tile owns the three stage subarrays of one Karatsuba pipeline
//! (or hosts a single-row schoolbook multiplier in its middle stage)
//! and keeps a local clock per stage. Timing follows exactly the
//! recurrence of [`karatsuba_cim::pipeline::PipelineSchedule`]: a
//! stage starts when both its subarray and its input are free, and
//! occupies the subarray for its latency plus the drain handoff. A
//! one-tile FIFO farm therefore reproduces the single-pipeline
//! schedule cycle for cycle.
//!
//! Wear is tracked with a **rotation ledger**: each stage subarray is
//! provisioned with [`DEFAULT_ROTATION_SLOTS`] row offsets at which a
//! job's hot rows can be placed. Serving a job at slot `r` adds the
//! job's per-stage hot-cell writes to that slot only. Policies that never
//! rotate (FIFO, least-loaded) pin every job to slot 0 — all jobs
//! hammer the same physical rows, as in the seed's single-pipeline
//! batch model. The wear-leveling policy advances the slot per job,
//! spreading the hot cells and multiplying the array lifetime by up to
//! the slot count at zero latency cost.

use crate::job::Job;
use crate::profile::JobProfile;
use cim_crossbar::{CycleStats, EnergyReport};

/// Default number of row-offset rotation slots per stage subarray.
///
/// Eight offsets cost no extra cells for the Karatsuba stages (the
/// hot rows are a small fraction of each subarray) and bound the
/// wear-leveling gain the scheduler can claim.
pub const DEFAULT_ROTATION_SLOTS: usize = 8;

/// Timing of one job on a tile, `[pre, mult, post]` per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileJobTiming {
    /// Stage start cycles.
    pub start: [u64; 3],
    /// Stage finish cycles (inclusive of the drain handoff).
    pub finish: [u64; 3],
}

impl TileJobTiming {
    /// Cycle at which the job's product is back in main memory.
    pub fn completed_at(&self) -> u64 {
        self.finish[2]
    }
}

/// One pipelined multiplier tile with local clocks, cumulative cycle
/// statistics, and a per-slot wear ledger.
#[derive(Debug, Clone)]
pub struct Tile {
    id: usize,
    /// Cycle at which each stage subarray becomes free.
    stage_free: [u64; 3],
    /// Cumulative cycle statistics across all jobs served.
    stats: CycleStats,
    /// Cumulative first-order energy across all jobs served.
    energy: EnergyReport,
    /// Sum of stage-occupancy cycles across all jobs (load metric).
    busy_cycles: u64,
    jobs_done: u64,
    /// `slot_wear[r][s]`: accumulated hot-cell writes at rotation
    /// slot `r` of stage `s`.
    slot_wear: Vec<[u64; 3]>,
    /// The largest `slot_wear` entry. Wear only grows, so the running
    /// max kept by [`Tile::place`] equals a scan of every slot.
    max_wear: u64,
    next_slot: usize,
}

impl Tile {
    /// A fresh tile with `rotation_slots ≥ 1` row offsets per stage.
    ///
    /// # Panics
    ///
    /// Panics if `rotation_slots == 0`.
    pub fn new(id: usize, rotation_slots: usize) -> Self {
        assert!(
            rotation_slots > 0,
            "a tile needs at least one rotation slot"
        );
        Tile {
            id,
            stage_free: [0; 3],
            stats: CycleStats::default(),
            energy: EnergyReport::default(),
            busy_cycles: 0,
            jobs_done: 0,
            slot_wear: vec![[0; 3]; rotation_slots],
            max_wear: 0,
            next_slot: 0,
        }
    }

    /// Tile index in the farm.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Earliest cycle at which a job arriving at `arrival` could enter
    /// this tile's first stage.
    pub fn earliest_start(&self, arrival: u64) -> u64 {
        arrival.max(self.stage_free[0])
    }

    /// Places `job` on this tile: advances the stage clocks, the wear
    /// ledger, and the load/job counters — everything a
    /// [`crate::policy::Policy`] reads when picking the next tile.
    /// `rotate` selects whether the wear ledger advances to the next
    /// rotation slot (wear-leveling) or pins the job to slot 0 (all
    /// other policies). The job's cost goes in separately through
    /// [`Tile::apply_cost`].
    ///
    /// Timing is the exact `PipelineSchedule::simulate` recurrence,
    /// seeded with the job's arrival cycle.
    pub(crate) fn place(&mut self, job: &Job, profile: &JobProfile, rotate: bool) -> TileJobTiming {
        let mut start = [0u64; 3];
        let mut finish = [0u64; 3];
        let mut input_ready = job.arrival;
        for s in 0..3 {
            start[s] = input_ready.max(self.stage_free[s]);
            finish[s] = start[s] + profile.stage_latency[s] + profile.handoff;
            self.stage_free[s] = finish[s];
            input_ready = finish[s];
            self.busy_cycles += profile.stage_latency[s] + profile.handoff;
        }
        let slot = if rotate {
            let r = self.next_slot;
            self.next_slot = (self.next_slot + 1) % self.slot_wear.len();
            r
        } else {
            0
        };
        for s in 0..3 {
            self.slot_wear[slot][s] += profile.wear[s].max_writes;
            self.max_wear = self.max_wear.max(self.slot_wear[slot][s]);
        }
        self.jobs_done += 1;
        TileJobTiming { start, finish }
    }

    /// Folds one placed job's cycle statistics and priced energy
    /// ([`JobProfile::energy`] of its class, which the scheduler prices
    /// once per run) into the tile's ledgers. No policy reads these.
    pub(crate) fn apply_cost(&mut self, stats: &CycleStats, energy: &EnergyReport) {
        self.stats.merge(stats);
        self.energy.merge(energy);
    }

    /// Worst accumulated per-cell writes anywhere on this tile.
    pub fn max_cell_writes(&self) -> u64 {
        self.max_wear
    }

    /// Cumulative cycle statistics for all jobs served.
    pub fn stats(&self) -> &CycleStats {
        &self.stats
    }

    /// Cumulative first-order energy for all jobs served.
    pub fn energy(&self) -> &EnergyReport {
        &self.energy
    }

    /// Total stage-occupancy cycles accumulated (load metric).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Jobs this tile has completed.
    pub fn jobs_done(&self) -> u64 {
        self.jobs_done
    }

    /// Cycle at which the tile finishes its last accepted job.
    pub fn drained_at(&self) -> u64 {
        self.stage_free[2]
    }

    /// Fraction of stage-cycles in use over `0..makespan` (three
    /// stages count as three cycle streams).
    pub fn utilization(&self, makespan: u64) -> f64 {
        if makespan == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / (3 * makespan) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Algo;
    use cim_crossbar::EnergyParams;
    use karatsuba_cim::pipeline::PipelineSchedule;

    fn job(id: u64, arrival: u64) -> Job {
        Job {
            id,
            width: 256,
            algo: Algo::Karatsuba,
            arrival,
        }
    }

    #[test]
    fn single_tile_reproduces_pipeline_schedule() {
        let profile = JobProfile::karatsuba_analytic(256);
        let mut tile = Tile::new(0, 1);
        let reference = PipelineSchedule::for_design(256, 12);
        for (i, expect) in reference.jobs.iter().enumerate() {
            let t = tile.place(&job(i as u64, 0), &profile, false);
            assert_eq!(t.start, expect.start, "job {i}");
            assert_eq!(t.finish, expect.finish, "job {i}");
        }
        assert_eq!(
            tile.drained_at(),
            reference.jobs.last().unwrap().completed_at()
        );
    }

    #[test]
    fn arrival_delays_entry() {
        let profile = JobProfile::karatsuba_analytic(256);
        let mut tile = Tile::new(0, 1);
        let late = 1_000_000;
        let t = tile.place(&job(0, late), &profile, false);
        assert_eq!(t.start[0], late);
        assert_eq!(t.completed_at(), late + profile.service_latency());
    }

    #[test]
    fn rotation_divides_wear() {
        let profile = JobProfile::karatsuba_analytic(256);
        let mut pinned = Tile::new(0, 8);
        let mut rotated = Tile::new(1, 8);
        for i in 0..16 {
            pinned.place(&job(i, 0), &profile, false);
            rotated.place(&job(i, 0), &profile, true);
        }
        assert_eq!(pinned.max_cell_writes(), 16 * profile.max_writes());
        // 16 jobs over 8 slots: 2 per slot.
        assert_eq!(rotated.max_cell_writes(), 2 * profile.max_writes());
        // Rotation costs no cycles.
        assert_eq!(pinned.drained_at(), rotated.drained_at());
    }

    #[test]
    fn max_cell_writes_equals_a_full_slot_scan() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};

        let profiles = [
            JobProfile::karatsuba_analytic(256),
            JobProfile::karatsuba_analytic(1024),
            JobProfile::schoolbook_analytic(64),
            JobProfile::karatsuba_batch_analytic(384),
        ];
        let mut rng = StdRng::seed_from_u64(28);
        for slots in [1usize, 3, 8] {
            let mut tile = Tile::new(0, slots);
            for i in 0..200 {
                let profile = &profiles[rng.next_u64() as usize % profiles.len()];
                let rotate = rng.next_u64() % 3 != 0;
                tile.place(&job(i, 0), profile, rotate);
                let scan = tile.slot_wear.iter().flatten().copied().max();
                assert_eq!(Some(tile.max_cell_writes()), scan, "slots {slots} job {i}");
            }
        }
    }

    #[test]
    fn stats_accumulate_across_jobs() {
        let profile = JobProfile::schoolbook_analytic(256);
        let params = EnergyParams::default();
        let mut tile = Tile::new(0, 4);
        for i in 0..5 {
            tile.place(&job(i, 0), &profile, true);
            tile.apply_cost(&profile.stats, &profile.energy(&params));
        }
        assert_eq!(tile.jobs_done(), 5);
        assert_eq!(tile.stats().cycles, 5 * profile.stats.cycles);
        assert_eq!(
            tile.busy_cycles(),
            5 * profile.stage_occupancy().iter().sum::<u64>()
        );
        let per_job = profile.energy(&params).total_pj();
        assert!((tile.energy().total_pj() - 5.0 * per_job).abs() < 1e-6);
    }
}
