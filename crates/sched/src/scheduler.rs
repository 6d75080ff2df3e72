//! The farm scheduler: admission, tile selection, dispatch.
//!
//! [`Scheduler::run`] serves an arrival-ordered job stream on a fresh
//! farm of [`Tile`]s. Admission is FIFO with an optional bounded
//! queue: a job is rejected when the number of admitted-but-not-yet-
//! dispatched jobs at its arrival cycle has reached the queue depth.
//! Accepted jobs are placed by the configured [`Policy`] and executed
//! to completion on their tile (jobs never migrate between tiles;
//! operands would have to be rewritten, costing the very writes the
//! farm is trying to save).

use crate::job::Job;
use crate::policy::Policy;
use crate::profile::{ProfileSource, ProfileTable};
use crate::report::{FarmReport, JobRecord, TileReport};
use crate::tile::{Tile, DEFAULT_ROTATION_SLOTS};
use cim_crossbar::{CycleStats, EnergyParams, EnergyReport};
use cim_metrics::{Histogram, MetricsHub};
use cim_trace::{Args, ProcessId, TrackId, Tracer};
use karatsuba_cim::multiplier::MultiplyError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of one farm run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmConfig {
    /// Number of tiles.
    pub tiles: usize,
    /// Tile-selection policy.
    pub policy: Policy,
    /// Bounded admission-queue depth (`None` = unbounded).
    pub queue_depth: Option<usize>,
}

impl FarmConfig {
    /// A farm of `tiles` tiles under `policy`, unbounded queue.
    ///
    /// # Panics
    ///
    /// Panics if `tiles == 0`.
    pub fn new(tiles: usize, policy: Policy) -> Self {
        assert!(tiles > 0, "farm needs at least one tile");
        FarmConfig {
            tiles,
            policy,
            queue_depth: None,
        }
    }

    /// Bounds the admission queue to `depth` waiting jobs.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = Some(depth);
        self
    }
}

/// A reusable farm scheduler; each [`run`](Scheduler::run) starts from
/// a fresh (unworn, idle) farm.
#[derive(Debug, Clone)]
pub struct Scheduler {
    config: FarmConfig,
    profiles: ProfileTable,
    energy_params: EnergyParams,
    hub: MetricsHub,
}

impl Scheduler {
    /// A scheduler with analytic job profiles (the common case).
    pub fn new(config: FarmConfig) -> Self {
        Self::with_profiles(config, ProfileTable::new(ProfileSource::Analytic))
    }

    /// A scheduler with a caller-provided profile table (measured
    /// profiles, or pre-seeded by the batch bridge).
    pub fn with_profiles(config: FarmConfig, profiles: ProfileTable) -> Self {
        Scheduler {
            config,
            profiles,
            energy_params: EnergyParams::default(),
            hub: MetricsHub::disabled(),
        }
    }

    /// Overrides the energy parameters pricing the per-tile and farm
    /// energy reports (defaults to [`EnergyParams::default`]).
    ///
    /// The parameters live on the scheduler, not on [`FarmConfig`]:
    /// the config is a hashable/comparable identity key, and energy
    /// prices are floats that never influence the schedule.
    pub fn with_energy_params(mut self, params: EnergyParams) -> Self {
        self.energy_params = params;
        self
    }

    /// The active energy parameters.
    pub fn energy_params(&self) -> &EnergyParams {
        &self.energy_params
    }

    /// Attaches a metrics hub; every subsequent run publishes its
    /// [`FarmReport`] (see [`crate::metrics`]). Metrics never change
    /// the schedule or the report.
    pub fn attach_metrics(&mut self, hub: &MetricsHub) {
        self.hub = hub.clone();
    }

    /// The active configuration.
    pub fn config(&self) -> &FarmConfig {
        &self.config
    }

    /// Serves `jobs` on a fresh farm and reports the run.
    ///
    /// Jobs are admitted in `(arrival, id)` order regardless of input
    /// order. The result is fully deterministic for a given job
    /// stream and configuration.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from measured-profile resolution.
    pub fn run(&mut self, jobs: &[Job]) -> Result<FarmReport, MultiplyError> {
        self.run_traced(jobs, &Tracer::disabled())
    }

    /// [`Scheduler::run`] on the farm's concurrent execution path.
    ///
    /// Two parts of a run parallelize without touching the schedule:
    ///
    /// 1. **Profile calibration** — the distinct `(width, algo)`
    ///    classes of the stream resolve on one scoped thread each
    ///    ([`ProfileTable::prewarm`]); in measured mode every class is
    ///    a full simulated multiplication, so a mixed-width stream
    ///    calibrates concurrently instead of serially on first use.
    /// 2. **Tile ledger application** — per-tile cycle/energy
    ///    accounting (`Tile::apply_cost`) is deferred during the
    ///    placement pass and then applied with one scoped thread per
    ///    tile, so a 4-tile farm folds 4 ledgers concurrently.
    ///
    /// Tile *selection* stays sequential: every [`Policy`] pick reads
    /// the clocks and wear produced by the previous placements.
    ///
    /// The report is byte-for-byte the one [`Scheduler::run`]
    /// produces: placement order is unchanged, each tile folds its own
    /// jobs in dispatch order regardless of thread timing, and tiles
    /// merge into farm totals in tile-id order. (The only observable
    /// difference is the profile table: prewarming also resolves
    /// classes whose every job gets rejected.)
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from measured-profile resolution.
    pub fn run_parallel(&mut self, jobs: &[Job]) -> Result<FarmReport, MultiplyError> {
        self.profiles.prewarm(jobs)?;
        self.serve(jobs, &Tracer::disabled(), true)
    }

    /// [`Scheduler::run`] with tracing: the farm becomes one trace
    /// process with a `scheduler` track carrying the job lifecycle
    /// (`submit`/`reject`/`dispatch`/`retire` instants plus a
    /// `queue_depth` counter sampled at each arrival), one track per
    /// tile carrying a span per job served, and an `occupancy` track
    /// with a farm-wide `jobs_running` gauge.
    ///
    /// Tracing never changes the schedule: the report is byte-for-byte
    /// the one [`Scheduler::run`] produces.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from measured-profile resolution.
    pub fn run_traced(
        &mut self,
        jobs: &[Job],
        tracer: &Tracer,
    ) -> Result<FarmReport, MultiplyError> {
        self.serve(jobs, tracer, false)
    }

    /// The one scheduling loop behind [`Scheduler::run_traced`] and
    /// [`Scheduler::run_parallel`]. With `defer_costs`, tiles only
    /// *place* jobs during the loop and the per-tile cost ledgers are
    /// applied afterwards, one scoped thread per tile.
    fn serve(
        &mut self,
        jobs: &[Job],
        tracer: &Tracer,
        defer_costs: bool,
    ) -> Result<FarmReport, MultiplyError> {
        let mut order: Vec<&Job> = jobs.iter().collect();
        order.sort_by_key(|j| (j.arrival, j.id));

        let enabled = tracer.is_enabled();
        let pid = if enabled {
            tracer.process(&format!(
                "farm: {} tiles, {}",
                self.config.tiles,
                self.config.policy.label()
            ))
        } else {
            ProcessId(0)
        };
        let sched_track = tracer.track(pid, "scheduler");
        let tile_tracks: Vec<TrackId> = if enabled {
            (0..self.config.tiles)
                .map(|i| tracer.track(pid, &format!("tile {i}")))
                .collect()
        } else {
            Vec::new()
        };

        let mut tiles: Vec<Tile> = (0..self.config.tiles)
            .map(|i| Tile::new(i, DEFAULT_ROTATION_SLOTS))
            .collect();
        // Per-tile job classes whose cost application is deferred to
        // the post-placement parallel phase (dispatch order per tile).
        let mut deferred: Vec<Vec<(usize, crate::job::Algo)>> =
            vec![Vec::new(); if defer_costs { self.config.tiles } else { 0 }];
        let mut records = Vec::with_capacity(order.len());
        let mut rejected = 0usize;
        let mut queue_peak = 0u64;
        // Dispatch cycles of admitted jobs still waiting (start >
        // current arrival): the backlog the bounded queue counts.
        let mut waiting: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let rotate = self.config.policy.rotates();

        for job in order {
            while waiting.peek().is_some_and(|Reverse(s)| *s <= job.arrival) {
                waiting.pop();
            }
            if enabled {
                tracer.instant(
                    sched_track,
                    "submit",
                    job.arrival,
                    Args::new()
                        .with("job", job.id as i64)
                        .with("width", job.width as i64),
                );
            }
            if self
                .config
                .queue_depth
                .is_some_and(|depth| waiting.len() >= depth)
            {
                rejected += 1;
                if enabled {
                    tracer.instant(
                        sched_track,
                        "reject",
                        job.arrival,
                        Args::new()
                            .with("job", job.id as i64)
                            .with("queue_depth", waiting.len() as i64),
                    );
                }
                continue;
            }
            let profile = self.profiles.profile(job)?.clone();
            let pick = self.config.policy.pick(&tiles, job.arrival);
            let timing = if defer_costs {
                deferred[pick].push((job.width, job.algo));
                tiles[pick].place(job, &profile, rotate)
            } else {
                tiles[pick].execute(job, &profile, rotate, &self.energy_params)
            };
            waiting.push(Reverse(timing.start[0]));
            queue_peak = queue_peak.max(waiting.len() as u64);
            if enabled {
                tracer.counter(
                    sched_track,
                    "queue_depth",
                    job.arrival,
                    waiting.len() as f64,
                );
                tracer.instant(
                    sched_track,
                    "dispatch",
                    timing.start[0],
                    Args::new()
                        .with("job", job.id as i64)
                        .with("tile", pick as i64),
                );
                tracer.instant(
                    sched_track,
                    "retire",
                    timing.completed_at(),
                    Args::new()
                        .with("job", job.id as i64)
                        .with("tile", pick as i64),
                );
                tracer.complete(
                    tile_tracks[pick],
                    format!("job {}", job.id),
                    timing.start[0],
                    timing.completed_at() - timing.start[0],
                    Args::new()
                        .with("job", job.id as i64)
                        .with("width", job.width as i64)
                        .with("queue_cycles", (timing.start[0] - job.arrival) as i64),
                );
            }
            records.push(JobRecord {
                job: *job,
                tile: pick,
                start: timing.start[0],
                finish: timing.completed_at(),
            });
        }

        if enabled {
            // Farm-wide jobs-in-service gauge: +1 at dispatch, −1 at
            // retire, sampled at every transition cycle.
            let occupancy = tracer.track(pid, "occupancy");
            let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(2 * records.len());
            for r in &records {
                deltas.push((r.start, 1));
                deltas.push((r.finish, -1));
            }
            deltas.sort_unstable();
            let mut running = 0i64;
            let mut i = 0;
            while i < deltas.len() {
                let cycle = deltas[i].0;
                while i < deltas.len() && deltas[i].0 == cycle {
                    running += deltas[i].1;
                    i += 1;
                }
                tracer.counter(occupancy, "jobs_running", cycle, running as f64);
            }
        }

        if defer_costs {
            // Parallel accounting phase: each tile folds its own jobs'
            // cycle/energy costs in dispatch order on its own thread.
            // Tiles share nothing mutable, so the per-tile ledgers are
            // bit-identical to the sequential path's.
            let profiles = &self.profiles;
            let params = &self.energy_params;
            std::thread::scope(|s| {
                for (tile, classes) in tiles.iter_mut().zip(&deferred) {
                    s.spawn(move || {
                        for &key in classes {
                            let profile = profiles.get(key).expect("class placed, so cached");
                            tile.apply_cost(profile, params);
                        }
                    });
                }
            });
        }

        let makespan = records.iter().map(|r| r.finish).max().unwrap_or(0);
        // Per-tile queue-wait vs service-time split, folded from the
        // job records so attribution reports don't have to infer it.
        let mut queue_wait = vec![0u64; self.config.tiles];
        let mut service = vec![0u64; self.config.tiles];
        for r in &records {
            queue_wait[r.tile] += r.queue_cycles();
            service[r.tile] += r.finish - r.start;
        }
        let mut total_stats = CycleStats::default();
        let mut total_energy = EnergyReport::default();
        let tile_reports = tiles
            .iter()
            .map(|t| {
                total_stats.merge(t.stats());
                total_energy.merge(t.energy());
                TileReport {
                    tile: t.id(),
                    jobs_done: t.jobs_done(),
                    busy_cycles: t.busy_cycles(),
                    queue_wait_cycles: queue_wait[t.id()],
                    service_cycles: service[t.id()],
                    max_cell_writes: t.max_cell_writes(),
                    utilization: t.utilization(makespan),
                    stats: *t.stats(),
                    energy: *t.energy(),
                }
            })
            .collect();
        let mut latency_histogram = Histogram::new();
        for r in &records {
            latency_histogram.record(r.latency());
        }

        let report = FarmReport {
            policy: self.config.policy,
            tiles: self.config.tiles,
            jobs_submitted: jobs.len(),
            jobs_rejected: rejected,
            queue_peak,
            makespan_cycles: makespan,
            records,
            latency_histogram,
            tile_reports,
            total_stats,
            total_energy,
        };
        report.publish_metrics(&self.hub);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Algo, JobMix};
    use karatsuba_cim::pipeline::PipelineSchedule;

    fn closed_batch(count: usize) -> Vec<Job> {
        JobMix::uniform(256, Algo::Karatsuba, 0).generate(count, 1)
    }

    #[test]
    fn one_tile_fifo_matches_pipeline_schedule() {
        let jobs = closed_batch(10);
        let report = Scheduler::new(FarmConfig::new(1, Policy::Fifo))
            .run(&jobs)
            .unwrap();
        let reference = PipelineSchedule::for_design(256, 10);
        assert_eq!(
            report.makespan_cycles,
            reference.jobs.last().unwrap().completed_at()
        );
        assert_eq!(report.initiation_interval(), reference.initiation_interval());
        for (rec, expect) in report.records.iter().zip(&reference.jobs) {
            assert_eq!(rec.start, expect.start[0]);
            assert_eq!(rec.finish, expect.completed_at());
        }
    }

    #[test]
    fn farm_cycle_totals_equal_sum_of_tile_stats() {
        for policy in Policy::all() {
            let jobs = JobMix::crypto_default(200).generate(120, 5);
            let report = Scheduler::new(FarmConfig::new(4, policy)).run(&jobs).unwrap();
            let sum: u64 = report.tile_reports.iter().map(|t| t.stats.cycles).sum();
            assert_eq!(report.total_stats.cycles, sum, "{policy:?}");
            let ops: u64 = report.tile_reports.iter().map(|t| t.stats.ops).sum();
            assert_eq!(report.total_stats.ops, ops, "{policy:?}");
            let jobs_sum: u64 = report.tile_reports.iter().map(|t| t.jobs_done).sum();
            assert_eq!(jobs_sum as usize, report.jobs_done(), "{policy:?}");
        }
    }

    #[test]
    fn more_tiles_never_hurt_makespan() {
        let jobs = closed_batch(32);
        let mut last = u64::MAX;
        for tiles in [1usize, 2, 4, 8] {
            let report = Scheduler::new(FarmConfig::new(tiles, Policy::Fifo))
                .run(&jobs)
                .unwrap();
            assert!(report.makespan_cycles <= last, "{tiles} tiles");
            last = report.makespan_cycles;
        }
    }

    #[test]
    fn wear_leveling_extends_lifetime_at_equal_makespan() {
        let jobs = closed_batch(256);
        let fifo = Scheduler::new(FarmConfig::new(16, Policy::Fifo))
            .run(&jobs)
            .unwrap();
        let wl = Scheduler::new(FarmConfig::new(16, Policy::WearLeveling))
            .run(&jobs)
            .unwrap();
        let spread = (wl.makespan_cycles as f64 - fifo.makespan_cycles as f64).abs()
            / fifo.makespan_cycles as f64;
        assert!(spread <= 0.05, "makespan spread {spread}");
        assert!(
            wl.projected_lifetime_multiplications() > fifo.projected_lifetime_multiplications(),
            "wear-leveling must outlive FIFO: {} vs {}",
            wl.projected_lifetime_multiplications(),
            fifo.projected_lifetime_multiplications()
        );
    }

    #[test]
    fn bounded_queue_rejects_under_overload() {
        // Mean gap far below the service interval: the queue grows
        // without bound unless admission is limited.
        let jobs = JobMix::uniform(2048, Algo::Karatsuba, 10).generate(100, 9);
        let bounded = Scheduler::new(FarmConfig::new(1, Policy::Fifo).with_queue_depth(4))
            .run(&jobs)
            .unwrap();
        assert!(bounded.jobs_rejected > 0);
        assert_eq!(bounded.jobs_done() + bounded.jobs_rejected, jobs.len());
        let unbounded = Scheduler::new(FarmConfig::new(1, Policy::Fifo))
            .run(&jobs)
            .unwrap();
        assert_eq!(unbounded.jobs_rejected, 0);
        assert_eq!(unbounded.jobs_done(), jobs.len());
        // Rejection keeps the accepted jobs' tail latency in check.
        assert!(bounded.p99_latency() < unbounded.p99_latency());
    }

    #[test]
    fn runs_are_deterministic() {
        let jobs = JobMix::crypto_default(300).generate(80, 21);
        let a = Scheduler::new(FarmConfig::new(8, Policy::WearLeveling))
            .run(&jobs)
            .unwrap();
        let b = Scheduler::new(FarmConfig::new(8, Policy::WearLeveling))
            .run(&jobs)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        for policy in Policy::all() {
            let jobs = JobMix::crypto_default(300).generate(120, 7);
            let config = FarmConfig::new(4, policy).with_queue_depth(16);
            let seq = Scheduler::new(config).run(&jobs).unwrap();
            let par = Scheduler::new(config).run_parallel(&jobs).unwrap();
            assert_eq!(seq, par, "{policy:?}");
        }
    }

    #[test]
    fn parallel_run_matches_with_measured_profiles() {
        // Two distinct Karatsuba widths so the prewarm fan-out really
        // calibrates more than one class concurrently.
        let mut jobs = JobMix::uniform(16, Algo::Karatsuba, 40).generate(6, 3);
        for (i, job) in JobMix::uniform(32, Algo::Karatsuba, 40)
            .generate(6, 4)
            .into_iter()
            .enumerate()
        {
            jobs.push(Job {
                id: 100 + i as u64,
                ..job
            });
        }
        let config = FarmConfig::new(2, Policy::WearLeveling);
        let source = ProfileSource::Measured { seed: 5 };
        let seq = Scheduler::with_profiles(config, ProfileTable::new(source))
            .run(&jobs)
            .unwrap();
        let par = Scheduler::with_profiles(config, ProfileTable::new(source))
            .run_parallel(&jobs)
            .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_run_empty_job_list() {
        for policy in Policy::all() {
            let report = Scheduler::new(FarmConfig::new(4, policy))
                .run_parallel(&[])
                .expect("an empty stream is a valid (trivial) run");
            assert_eq!(report.jobs_submitted, 0);
            assert_eq!(report.jobs_done(), 0);
            assert_eq!(report.makespan_cycles, 0);
            assert_eq!(report.tile_reports.len(), 4);
            // The empty parallel run matches the empty sequential run.
            let seq = Scheduler::new(FarmConfig::new(4, policy))
                .run(&[])
                .expect("empty sequential run");
            assert_eq!(report, seq, "{policy:?}");
        }
    }

    #[test]
    fn parallel_run_single_tile_farm() {
        let jobs = JobMix::crypto_default(200).generate(40, 13);
        for policy in Policy::all() {
            let config = FarmConfig::new(1, policy).with_queue_depth(8);
            let seq = Scheduler::new(config).run(&jobs).expect("sequential run");
            let par = Scheduler::new(config)
                .run_parallel(&jobs)
                .expect("parallel run");
            assert_eq!(seq, par, "{policy:?}");
            assert_eq!(par.tile_reports.len(), 1);
            assert_eq!(par.jobs_done() + par.jobs_rejected, jobs.len());
        }
    }

    #[test]
    fn oversized_job_width_errors_instead_of_panicking() {
        use crate::profile::MAX_JOB_WIDTH;

        let too_wide = Job {
            id: 0,
            width: 2 * MAX_JOB_WIDTH,
            algo: Algo::Karatsuba,
            arrival: 0,
        };
        let unaligned = Job { id: 1, width: 30, ..too_wide };
        for bad in [too_wide, unaligned] {
            for parallel in [false, true] {
                let mut sched = Scheduler::new(FarmConfig::new(2, Policy::Fifo));
                let result = if parallel {
                    sched.run_parallel(&[bad])
                } else {
                    sched.run(&[bad])
                };
                match result {
                    Err(MultiplyError::UnsupportedWidth { width, max }) => {
                        assert_eq!(width, bad.width);
                        assert_eq!(max, MAX_JOB_WIDTH);
                    }
                    other => panic!("width {} must be rejected, got {other:?}", bad.width),
                }
            }
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_lifecycle() {
        use cim_trace::EventKind;

        let jobs = JobMix::crypto_default(300).generate(40, 3);
        let config = FarmConfig::new(4, Policy::WearLeveling).with_queue_depth(6);
        let plain = Scheduler::new(config).run(&jobs).unwrap();
        let tracer = cim_trace::Tracer::recording();
        let traced = Scheduler::new(config).run_traced(&jobs, &tracer).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the schedule");

        let trace = tracer.finish().unwrap();
        let instants: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Instant { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        let count = |what: &str| instants.iter().filter(|n| **n == what).count();
        assert_eq!(count("submit"), plain.jobs_submitted);
        assert_eq!(count("dispatch"), plain.jobs_done());
        assert_eq!(count("retire"), plain.jobs_done());
        assert_eq!(count("reject"), plain.jobs_rejected);
        // One span per served job on the tile tracks.
        let spans = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Complete { .. }))
            .count();
        assert_eq!(spans, plain.jobs_done());
        // The counters cover the queue and the in-service gauge.
        let counters: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Counter { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert!(counters.contains(&"queue_depth"));
        assert!(counters.contains(&"jobs_running"));
    }

    #[test]
    fn tile_queue_service_split_matches_records() {
        let jobs = JobMix::crypto_default(300).generate(80, 17);
        let report = Scheduler::new(FarmConfig::new(4, Policy::LeastLoaded).with_queue_depth(8))
            .run(&jobs)
            .unwrap();
        assert!(report.jobs_done() > 0);
        for t in &report.tile_reports {
            let of_tile = || report.records.iter().filter(|r| r.tile == t.tile);
            assert_eq!(
                t.queue_wait_cycles,
                of_tile().map(|r| r.queue_cycles()).sum::<u64>(),
                "tile {}",
                t.tile
            );
            assert_eq!(
                t.service_cycles,
                of_tile().map(|r| r.finish - r.start).sum::<u64>(),
                "tile {}",
                t.tile
            );
        }
        let json = report.to_json();
        assert!(json.contains("\"queue_wait_cycles\""));
        assert!(json.contains("\"service_cycles\""));
    }

    #[test]
    fn metrics_do_not_change_the_report() {
        let jobs = JobMix::crypto_default(300).generate(60, 11);
        let config = FarmConfig::new(4, Policy::WearLeveling).with_queue_depth(8);
        let plain = Scheduler::new(config).run(&jobs).unwrap();

        let hub = cim_metrics::MetricsHub::recording();
        let mut metered = Scheduler::new(config);
        metered.attach_metrics(&hub);
        let report = metered.run(&jobs).unwrap();
        assert_eq!(plain, report, "metrics must not perturb the schedule");
        assert!(!hub.snapshot().families.is_empty());

        let disabled = cim_metrics::MetricsHub::disabled();
        let mut off = Scheduler::new(config);
        off.attach_metrics(&disabled);
        assert_eq!(plain, off.run(&jobs).unwrap());
        assert!(disabled.snapshot().families.is_empty());
    }

    #[test]
    fn farm_energy_is_sum_of_tiles_and_prices_scale() {
        let jobs = closed_batch(24);
        let report = Scheduler::new(FarmConfig::new(3, Policy::LeastLoaded))
            .run(&jobs)
            .unwrap();
        let sum: f64 = report.tile_reports.iter().map(|t| t.energy.total_pj()).sum();
        assert!((report.total_energy.total_pj() - sum).abs() < 1e-6);
        assert!(report.total_energy.magic_pj > 0.0);

        // Doubling every price doubles the bill without touching timing.
        let base = cim_crossbar::EnergyParams::default();
        let doubled = cim_crossbar::EnergyParams {
            write_pj: 2.0 * base.write_pj,
            read_pj: 2.0 * base.read_pj,
            magic_pj: 2.0 * base.magic_pj,
            controller_pj_per_cycle: 2.0 * base.controller_pj_per_cycle,
            offchip_pj_per_bit: 2.0 * base.offchip_pj_per_bit,
        };
        let pricey = Scheduler::new(FarmConfig::new(3, Policy::LeastLoaded))
            .with_energy_params(doubled)
            .run(&jobs)
            .unwrap();
        assert_eq!(pricey.makespan_cycles, report.makespan_cycles);
        assert_eq!(pricey.records, report.records);
        let ratio = pricey.total_energy.total_pj() / report.total_energy.total_pj();
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn mixed_widths_all_complete() {
        let jobs = JobMix::crypto_default(0).generate(60, 2);
        let report = Scheduler::new(FarmConfig::new(4, Policy::LeastLoaded))
            .run(&jobs)
            .unwrap();
        assert_eq!(report.jobs_done(), 60);
        assert!(report.mean_utilization() > 0.0);
        assert!(report.p99_latency() >= report.p50_latency());
    }
}
