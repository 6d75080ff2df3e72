//! The farm fleet: shards flushed batches across several `cim-sched`
//! farms and keeps per-farm virtual clocks.
//!
//! Each farm is one [`Scheduler`] (a fresh tile farm per run) plus a
//! virtual clock marking when its last batch drains. Dispatch picks
//! the earliest-available farm, starts the batch at
//! `max(farm_clock, batch_ready)`, and advances the clock by the
//! batch's makespan — so the fleet timing model is the same
//! cycle-domain arithmetic the scheduler itself uses, end to end.
//! Small batches go through [`Scheduler::run`]; large ones take
//! [`Scheduler::run_parallel`], which calibrates the batch's classes
//! first and returns a byte-identical report, so the threshold is a
//! pure wall-time knob that cannot change any simulated number.

use crate::batcher::Batch;
use crate::protocol::OpKind;
use cim_sched::{Algo, FarmConfig, Job, Policy, Scheduler};
use karatsuba_cim::multiplier::MultiplyError;

/// Fleet shape and dispatch parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of farms.
    pub farms: usize,
    /// Tiles per farm.
    pub tiles_per_farm: usize,
    /// Tile-selection policy inside each farm.
    pub policy: Policy,
    /// Batches expanding to at least this many jobs go through
    /// [`Scheduler::run_parallel`] (wall-time only; reports identical).
    pub parallel_threshold: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            farms: 4,
            tiles_per_farm: 4,
            policy: Policy::WearLeveling,
            parallel_threshold: 256,
        }
    }
}

/// Completion of one request inside a dispatched batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestCompletion {
    /// Server-side admission sequence number (see
    /// [`crate::batcher::PendingRequest::seq`]).
    pub seq: u64,
    /// Request id.
    pub id: u64,
    /// Tenant index.
    pub tenant: u16,
    /// Operation class (metrics label).
    pub kind: OpKind,
    /// Arrival cycle of the request.
    pub arrival: u64,
    /// Cycles from arrival to batch start on the farm.
    pub queue_cycles: u64,
    /// Cycles from batch start to the request's last job finishing.
    pub service_cycles: u64,
    /// Farm that served it.
    pub farm: u32,
    /// First farm-job index (inclusive) the request expanded into,
    /// within its batch's job list.
    pub job_lo: u32,
    /// Last farm-job index (exclusive) within the batch's job list.
    pub job_hi: u32,
    /// Tile that retired the request's final job — the crossbar whose
    /// program produced the result.
    pub tile: u16,
}

impl RequestCompletion {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> u64 {
        self.queue_cycles + self.service_cycles
    }
}

/// Outcome of dispatching one batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Farm that served the batch.
    pub farm: usize,
    /// Cycle the batch entered the farm.
    pub start: u64,
    /// Farm-local makespan of the batch.
    pub makespan: u64,
    /// Jobs executed.
    pub jobs: u64,
    /// Per-request completions in admission order.
    pub completions: Vec<RequestCompletion>,
}

/// Cumulative per-farm accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FarmStats {
    /// Batches served.
    pub batches: u64,
    /// Farm jobs executed.
    pub jobs: u64,
    /// Sum of tile stage-occupancy cycles across batches.
    pub busy_cycles: u64,
    /// Virtual cycle at which the farm drains its last batch.
    pub clock: u64,
    /// Cycles the farm sat idle between batches.
    pub idle_cycles: u64,
}

impl FarmStats {
    /// Fraction of the farm's stage-cycles in use up to its clock
    /// (three pipeline stages per tile count as three cycle streams).
    pub fn utilization(&self, tiles: usize) -> f64 {
        if self.clock == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / (3 * tiles) as f64 / self.clock as f64
        }
    }
}

/// Cumulative per-tile wear across every batch a farm has served.
///
/// Each dispatch runs on freshly-modeled arrays, but the physical
/// device keeps its wear — so the running sums here are the
/// device-lifetime figures a wear heatmap or endurance percentile
/// reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileWear {
    /// Farm index.
    pub farm: u32,
    /// Tile index within the farm.
    pub tile: u32,
    /// Jobs the tile has served.
    pub jobs: u64,
    /// Summed worst per-cell writes across dispatches.
    pub max_cell_writes: u64,
    /// Summed stage-occupancy cycles.
    pub busy_cycles: u64,
}

/// The fleet: `farms` schedulers with virtual clocks.
#[derive(Debug)]
pub struct FarmFleet {
    config: FleetConfig,
    schedulers: Vec<Scheduler>,
    stats: Vec<FarmStats>,
    wear: Vec<Vec<TileWear>>,
}

impl FarmFleet {
    /// Builds the fleet.
    ///
    /// # Panics
    ///
    /// Panics if `farms` or `tiles_per_farm` is zero.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.farms > 0, "fleet needs at least one farm");
        let farm_config = FarmConfig::new(config.tiles_per_farm, config.policy);
        FarmFleet {
            schedulers: (0..config.farms)
                .map(|_| Scheduler::new(farm_config))
                .collect(),
            stats: vec![FarmStats::default(); config.farms],
            wear: (0..config.farms)
                .map(|f| {
                    (0..config.tiles_per_farm)
                        .map(|t| TileWear {
                            farm: f as u32,
                            tile: t as u32,
                            ..TileWear::default()
                        })
                        .collect()
                })
                .collect(),
            config,
        }
    }

    /// The fleet shape.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Per-farm accounting so far.
    pub fn stats(&self) -> &[FarmStats] {
        &self.stats
    }

    /// Cumulative per-tile wear, flattened in `(farm, tile)` order.
    pub fn tile_wear(&self) -> Vec<TileWear> {
        self.wear.iter().flatten().copied().collect()
    }

    /// Virtual cycle at which the whole fleet drains.
    pub fn drained_at(&self) -> u64 {
        self.stats.iter().map(|s| s.clock).max().unwrap_or(0)
    }

    /// Serves one batch on the earliest-available farm and returns
    /// per-request completions.
    ///
    /// # Errors
    ///
    /// Propagates scheduler errors (e.g. an unsupported job width).
    pub fn dispatch(&mut self, batch: &Batch) -> Result<BatchOutcome, MultiplyError> {
        // Earliest-available farm; ties break to the lowest index.
        let farm = (0..self.stats.len())
            .min_by_key(|&i| (self.stats[i].clock, i))
            .expect("fleet is non-empty");
        let start = self.stats[farm].clock.max(batch.ready_at());

        // Expand requests into a closed batch of farm jobs. Job ids
        // are the expansion sequence, and since every arrival is 0 the
        // scheduler's admission order — hence its record order — is
        // exactly id order, which is what lets `ranges` map records
        // back to requests below.
        let mut jobs: Vec<Job> = Vec::with_capacity(batch.total_jobs as usize);
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(batch.requests.len());
        for pending in &batch.requests {
            let begin = jobs.len();
            for _ in 0..pending.jobs {
                jobs.push(Job {
                    id: jobs.len() as u64,
                    width: batch.width,
                    algo: Algo::Karatsuba,
                    arrival: 0,
                });
            }
            ranges.push((begin, jobs.len()));
        }

        let scheduler = &mut self.schedulers[farm];
        let report = if jobs.len() >= self.config.parallel_threshold {
            scheduler.run_parallel(&jobs)?
        } else {
            scheduler.run(&jobs)?
        };
        debug_assert_eq!(
            report.jobs_done(),
            jobs.len(),
            "closed batch, unbounded queue"
        );

        let completions = batch
            .requests
            .iter()
            .zip(&ranges)
            .map(|(pending, &(begin, end))| {
                // The request's final job: max finish, first such
                // record on ties, so the placement is deterministic.
                let (service, tile) =
                    report.records[begin..end]
                        .iter()
                        .fold((0u64, 0usize), |(best, tile), r| {
                            if r.finish > best {
                                (r.finish, r.tile)
                            } else {
                                (best, tile)
                            }
                        });
                RequestCompletion {
                    seq: pending.seq,
                    id: pending.request.id,
                    tenant: pending.request.tenant,
                    kind: pending.request.op.kind(),
                    arrival: pending.request.arrival_cycle,
                    queue_cycles: start - pending.request.arrival_cycle.min(start),
                    service_cycles: service,
                    farm: farm as u32,
                    job_lo: begin as u32,
                    job_hi: end as u32,
                    tile: tile as u16,
                }
            })
            .collect();

        for t in &report.tile_reports {
            let w = &mut self.wear[farm][t.tile];
            w.jobs += t.jobs_done;
            w.max_cell_writes += t.max_cell_writes;
            w.busy_cycles += t.busy_cycles;
        }

        let stats = &mut self.stats[farm];
        stats.batches += 1;
        stats.jobs += jobs.len() as u64;
        stats.busy_cycles += report
            .tile_reports
            .iter()
            .map(|t| t.busy_cycles)
            .sum::<u64>();
        stats.idle_cycles += start - stats.clock;
        stats.clock = start + report.makespan_cycles;

        Ok(BatchOutcome {
            farm,
            start,
            makespan: report.makespan_cycles,
            jobs: jobs.len() as u64,
            completions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{Batch, PendingRequest};
    use crate::protocol::{Op, Request};
    use cim_bigint::Uint;

    fn batch(width: usize, specs: &[(u64, u64, u64)]) -> Batch {
        // specs: (id, arrival, jobs)
        let requests: Vec<PendingRequest> = specs
            .iter()
            .map(|&(id, arrival, jobs)| PendingRequest {
                seq: id,
                request: Request {
                    id,
                    tenant: 0,
                    arrival_cycle: arrival,
                    op: Op::Mul {
                        width,
                        a: Uint::one(),
                        b: Uint::one(),
                    },
                },
                jobs,
            })
            .collect();
        Batch {
            width,
            opened_at: specs.iter().map(|s| s.1).min().unwrap_or(0),
            total_jobs: requests.iter().map(|p| p.jobs).sum(),
            requests,
        }
    }

    fn small_fleet(farms: usize) -> FarmFleet {
        FarmFleet::new(FleetConfig {
            farms,
            tiles_per_farm: 2,
            policy: Policy::Fifo,
            parallel_threshold: 64,
        })
    }

    #[test]
    fn single_batch_timing() {
        let mut fleet = small_fleet(2);
        let out = fleet
            .dispatch(&batch(256, &[(0, 100, 2), (1, 150, 1)]))
            .unwrap();
        assert_eq!(out.farm, 0, "ties break to farm 0");
        assert_eq!(out.start, 150, "batch waits for its youngest member");
        assert_eq!(out.completions.len(), 2);
        let c0 = out.completions[0];
        assert_eq!(c0.queue_cycles, 50);
        assert!(c0.service_cycles > 0);
        assert_eq!(fleet.stats()[0].clock, out.start + out.makespan);
        assert_eq!(fleet.stats()[1].clock, 0);
        assert_eq!(fleet.drained_at(), fleet.stats()[0].clock);
    }

    #[test]
    fn batches_shard_across_farms() {
        let mut fleet = small_fleet(3);
        for i in 0..3 {
            let out = fleet.dispatch(&batch(256, &[(i, 0, 4)])).unwrap();
            assert_eq!(out.farm, i as usize, "round-robin while clocks are equal");
        }
        // A 4th batch goes back to the earliest-draining farm.
        let out = fleet.dispatch(&batch(256, &[(3, 0, 1)])).unwrap();
        assert_eq!(out.farm, 0);
        assert!(fleet.stats().iter().all(|s| s.batches >= 1));
    }

    #[test]
    fn parallel_threshold_does_not_change_timing() {
        let spec: Vec<(u64, u64, u64)> = (0..8).map(|i| (i, 10 * i, 40)).collect();
        let mut seq = FarmFleet::new(FleetConfig {
            parallel_threshold: usize::MAX,
            ..small_fleet(2).config
        });
        let mut par = FarmFleet::new(FleetConfig {
            parallel_threshold: 1,
            ..small_fleet(2).config
        });
        let a = seq.dispatch(&batch(256, &spec)).unwrap();
        let b = par.dispatch(&batch(256, &spec)).unwrap();
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn utilization_is_bounded() {
        let mut fleet = small_fleet(1);
        fleet.dispatch(&batch(256, &[(0, 0, 32)])).unwrap();
        let u = fleet.stats()[0].utilization(2);
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn oversized_width_propagates_error() {
        let mut fleet = small_fleet(1);
        let err = fleet
            .dispatch(&batch(2 * cim_sched::MAX_JOB_WIDTH, &[(0, 0, 1)]))
            .unwrap_err();
        assert!(matches!(err, MultiplyError::UnsupportedWidth { .. }));
    }
}
