//! Farm-level telemetry: per-job records, per-tile summaries, and the
//! aggregate [`FarmReport`] the sweep binary prints.

use crate::job::Job;
use crate::policy::Policy;
use cim_crossbar::{CycleStats, EnergyReport, OpClass, CELL_ENDURANCE_WRITES};
use cim_metrics::Histogram;
use cim_trace::json::JsonWriter;

/// Telemetry for one accepted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// The job as admitted.
    pub job: Job,
    /// Tile that served it.
    pub tile: usize,
    /// Cycle at which it entered the tile's first stage.
    pub start: u64,
    /// Cycle at which its product was back in main memory.
    pub finish: u64,
}

impl JobRecord {
    /// Cycles spent waiting between arrival and dispatch.
    pub fn queue_cycles(&self) -> u64 {
        self.start - self.job.arrival
    }

    /// End-to-end latency from arrival to completion.
    pub fn latency(&self) -> u64 {
        self.finish - self.job.arrival
    }
}

/// Summary of one tile after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TileReport {
    /// Tile index.
    pub tile: usize,
    /// Jobs served.
    pub jobs_done: u64,
    /// Stage-occupancy cycles accumulated.
    pub busy_cycles: u64,
    /// Total cycles this tile's jobs spent waiting between arrival
    /// and dispatch (Σ start − arrival over the tile's records).
    pub queue_wait_cycles: u64,
    /// Total cycles this tile's jobs spent in service (Σ finish −
    /// start), the complement of the queue-wait split attribution
    /// reports consume directly.
    pub service_cycles: u64,
    /// Worst accumulated per-cell writes on the tile.
    pub max_cell_writes: u64,
    /// Fraction of stage-cycles in use over the makespan.
    pub utilization: f64,
    /// Cumulative cycle statistics.
    pub stats: CycleStats,
    /// Cumulative first-order energy (see [`crate::profile::JobProfile::energy`]).
    pub energy: EnergyReport,
}

/// Aggregate result of one farm run.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmReport {
    /// Policy that produced this run.
    pub policy: Policy,
    /// Number of tiles in the farm.
    pub tiles: usize,
    /// Jobs submitted (accepted + rejected).
    pub jobs_submitted: usize,
    /// Jobs rejected by the bounded admission queue.
    pub jobs_rejected: usize,
    /// Peak admitted-but-not-yet-dispatched backlog over the run.
    pub queue_peak: u64,
    /// Cycle at which the last accepted job completed.
    pub makespan_cycles: u64,
    /// Per-job telemetry in admission order.
    pub records: Vec<JobRecord>,
    /// End-to-end job latencies as a mergeable log-bucketed
    /// [`Histogram`] (the same shape the metrics registry exports, so
    /// multi-run aggregation is an exact element-wise merge).
    pub latency_histogram: Histogram,
    /// Per-tile summaries.
    pub tile_reports: Vec<TileReport>,
    /// Farm-wide cycle statistics (sum of the per-tile statistics).
    pub total_stats: CycleStats,
    /// Farm-wide energy (sum of the per-tile energy reports).
    pub total_energy: EnergyReport,
}

impl FarmReport {
    /// Jobs actually served.
    pub fn jobs_done(&self) -> usize {
        self.records.len()
    }

    /// Latency percentile over accepted jobs (`p` in `0..=100`),
    /// nearest-rank on the log-bucketed [`latency_histogram`]
    /// (relative bucket error ≤ 1/16 above the histogram's linear
    /// range, clamped to the observed min/max); 0 with no jobs.
    ///
    /// [`latency_histogram`]: FarmReport::latency_histogram
    pub fn latency_percentile(&self, p: f64) -> u64 {
        self.latency_histogram.percentile(p)
    }

    /// Median end-to-end job latency.
    pub fn p50_latency(&self) -> u64 {
        self.latency_percentile(50.0)
    }

    /// 99th-percentile end-to-end job latency.
    pub fn p99_latency(&self) -> u64 {
        self.latency_percentile(99.0)
    }

    /// Mean cycles jobs spent queued before dispatch.
    pub fn mean_queue_cycles(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.queue_cycles() as f64)
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// Mean per-tile utilization over the makespan.
    pub fn mean_utilization(&self) -> f64 {
        if self.tile_reports.is_empty() {
            return 0.0;
        }
        self.tile_reports.iter().map(|t| t.utilization).sum::<f64>()
            / self.tile_reports.len() as f64
    }

    /// Worst accumulated per-cell writes anywhere in the farm.
    pub fn max_cell_writes(&self) -> u64 {
        self.tile_reports
            .iter()
            .map(|t| t.max_cell_writes)
            .max()
            .unwrap_or(0)
    }

    /// Writes to the farm's hottest cell per multiplication served.
    pub fn writes_per_multiplication(&self) -> f64 {
        self.max_cell_writes() as f64 / self.jobs_done().max(1) as f64
    }

    /// Multiplications until the farm's hottest cell reaches the ReRAM
    /// endurance limit, extrapolated from this run's wear rate.
    pub fn projected_lifetime_multiplications(&self) -> u64 {
        let per_mult = self.writes_per_multiplication();
        if per_mult <= 0.0 {
            u64::MAX
        } else {
            (CELL_ENDURANCE_WRITES as f64 / per_mult) as u64
        }
    }

    /// Farm throughput over the whole run, in multiplications per
    /// 10^6 cycles (includes pipeline fill; 0 for an empty run).
    pub fn throughput_per_mcc(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.jobs_done() as f64 * 1.0e6 / self.makespan_cycles as f64
    }

    /// Serializes the report as one deterministic JSON object:
    /// farm-level aggregates, latency percentiles (p50/p90/p95/p99),
    /// the farm-wide cycle statistics and energy breakdown, and a
    /// per-tile array (each tile with its own energy breakdown).
    /// Field order is fixed, so equal reports serialize byte-for-byte
    /// identically.
    pub fn to_json(&self) -> String {
        fn stats_json(w: &mut JsonWriter, s: &CycleStats) {
            w.open_object()
                .field_uint("cycles", s.cycles)
                .field_uint("ops", s.ops)
                .field_float("utilization", s.utilization());
            for class in OpClass::ALL {
                w.key(&format!("{}_cycles", class.label()))
                    .uint(s.cycles_of(class));
                w.key(&format!("{}_ops", class.label()))
                    .uint(s.ops_of(class));
            }
            w.close_object();
        }

        fn energy_json(w: &mut JsonWriter, e: &EnergyReport) {
            w.open_object();
            for (component, pj) in e.components() {
                w.field_float(&format!("{component}_pj"), pj);
            }
            w.field_float("total_pj", e.total_pj());
            w.close_object();
        }

        let mut w = JsonWriter::new();
        w.open_object()
            .field_str("policy", self.policy.label())
            .field_uint("tiles", self.tiles as u64)
            .field_uint("jobs_submitted", self.jobs_submitted as u64)
            .field_uint("jobs_done", self.jobs_done() as u64)
            .field_uint("jobs_rejected", self.jobs_rejected as u64)
            .field_uint("queue_peak", self.queue_peak)
            .field_uint("makespan_cycles", self.makespan_cycles)
            .field_uint("initiation_interval", self.initiation_interval())
            .field_float("throughput_per_mcc", self.throughput_per_mcc())
            .field_float("mean_queue_cycles", self.mean_queue_cycles())
            .field_float("mean_utilization", self.mean_utilization())
            .field_uint("max_cell_writes", self.max_cell_writes())
            .field_float(
                "writes_per_multiplication",
                self.writes_per_multiplication(),
            )
            .field_uint(
                "projected_lifetime_multiplications",
                self.projected_lifetime_multiplications(),
            );
        w.key("latency_percentiles").open_object();
        for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p95", 95.0), ("p99", 99.0)] {
            w.field_uint(label, self.latency_percentile(p));
        }
        w.close_object();
        w.key("total_stats");
        stats_json(&mut w, &self.total_stats);
        w.key("total_energy");
        energy_json(&mut w, &self.total_energy);
        w.key("tile_reports").open_array();
        for t in &self.tile_reports {
            w.open_object()
                .field_uint("tile", t.tile as u64)
                .field_uint("jobs_done", t.jobs_done)
                .field_uint("busy_cycles", t.busy_cycles)
                .field_uint("queue_wait_cycles", t.queue_wait_cycles)
                .field_uint("service_cycles", t.service_cycles)
                .field_uint("max_cell_writes", t.max_cell_writes)
                .field_float("utilization", t.utilization);
            w.key("stats");
            stats_json(&mut w, &t.stats);
            w.key("energy");
            energy_json(&mut w, &t.energy);
            w.close_object();
        }
        w.close_array().close_object();
        w.finish()
    }

    /// Peak number of jobs simultaneously in service (dispatched and
    /// not yet retired), reconstructed from the job records.
    pub fn peak_jobs_running(&self) -> u64 {
        let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(2 * self.records.len());
        for r in &self.records {
            deltas.push((r.start, 1));
            deltas.push((r.finish, -1));
        }
        deltas.sort_unstable();
        let mut running = 0i64;
        let mut peak = 0i64;
        for (_, d) in deltas {
            running += d;
            peak = peak.max(running);
        }
        peak as u64
    }

    /// Steady-state initiation interval: completion spacing of the
    /// last two jobs (farm-wide), or the single job's latency.
    pub fn initiation_interval(&self) -> u64 {
        let mut finishes: Vec<u64> = self.records.iter().map(|r| r.finish).collect();
        finishes.sort_unstable();
        match finishes.len() {
            0 => 0,
            1 => self.records[0].latency(),
            k => finishes[k - 1] - finishes[k - 2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Algo;

    fn record(id: u64, arrival: u64, start: u64, finish: u64) -> JobRecord {
        JobRecord {
            job: Job {
                id,
                width: 256,
                algo: Algo::Karatsuba,
                arrival,
            },
            tile: 0,
            start,
            finish,
        }
    }

    fn report(records: Vec<JobRecord>) -> FarmReport {
        let makespan = records.iter().map(|r| r.finish).max().unwrap_or(0);
        let mut latency_histogram = Histogram::new();
        for r in &records {
            latency_histogram.record(r.latency());
        }
        FarmReport {
            policy: Policy::Fifo,
            tiles: 1,
            jobs_submitted: records.len(),
            jobs_rejected: 0,
            queue_peak: 0,
            makespan_cycles: makespan,
            records,
            latency_histogram,
            tile_reports: vec![],
            total_stats: CycleStats::default(),
            total_energy: EnergyReport::default(),
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = report((0..100).map(|i| record(i, 0, 0, (i + 1) * 10)).collect());
        // Nearest rank on 100 samples: round(0.5·99) = 50 → the 51st
        // latency, 510, reported as its histogram bucket's upper
        // bound 511 (≤ 1/16 relative error by construction).
        assert_eq!(r.p50_latency(), 511);
        // round(0.99·99) = 98 → 990, bucket upper bound 991.
        assert_eq!(r.p99_latency(), 991);
        // The top percentile clamps to the observed max exactly.
        assert_eq!(r.latency_percentile(100.0), 1000);
    }

    #[test]
    fn peak_jobs_running_counts_overlap() {
        let r = report(vec![
            record(0, 0, 0, 100),
            record(1, 0, 50, 150),
            record(2, 0, 160, 200),
        ]);
        assert_eq!(r.peak_jobs_running(), 2);
        assert_eq!(report(vec![]).peak_jobs_running(), 0);
    }

    #[test]
    fn queue_and_latency_split() {
        let r = record(0, 100, 150, 400);
        assert_eq!(r.queue_cycles(), 50);
        assert_eq!(r.latency(), 300);
    }

    #[test]
    fn empty_report_is_benign() {
        let r = report(vec![]);
        assert_eq!(r.p50_latency(), 0);
        assert_eq!(r.throughput_per_mcc(), 0.0);
        assert_eq!(r.max_cell_writes(), 0);
        assert_eq!(r.projected_lifetime_multiplications(), u64::MAX);
    }

    #[test]
    fn to_json_is_well_formed_and_deterministic() {
        let r = report(
            (0..20)
                .map(|i| record(i, i * 5, i * 5, i * 5 + 300))
                .collect(),
        );
        let json = r.to_json();
        cim_trace::json::check(&json).expect("report JSON must parse");
        assert_eq!(json, r.to_json(), "serialization must be deterministic");
        for key in [
            "\"policy\":\"fifo\"",
            "\"latency_percentiles\"",
            "\"p50\":300",
            "\"p99\":300",
            "\"queue_peak\":0",
            "\"total_stats\"",
            "\"magic_cycles\":0",
            "\"total_energy\"",
            "\"write_pj\":0",
            "\"total_pj\":0",
            "\"tile_reports\":[]",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let json = report(vec![]).to_json();
        cim_trace::json::check(&json).expect("empty-report JSON must parse");
        assert!(json.contains(&format!(
            "\"projected_lifetime_multiplications\":{}",
            u64::MAX
        )));
    }
}
