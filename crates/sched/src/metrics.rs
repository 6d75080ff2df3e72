//! Scheduler-layer metrics publication.
//!
//! After each farm run the scheduler publishes its [`FarmReport`] into
//! the attached [`MetricsHub`], labeled by dispatch `policy` (and by
//! `tile` for the per-tile families):
//!
//! * `cim_sched_job_latency_cycles{policy}` — end-to-end job latency
//!   histogram, an exact element-wise merge of the report's
//!   [`FarmReport::latency_histogram`] (repeated runs aggregate);
//! * `cim_sched_jobs_total{policy,outcome}` — jobs by outcome
//!   (`done` / `rejected`);
//! * `cim_sched_queue_depth_peak{policy}` — peak admission backlog
//!   (gauge, max over runs);
//! * `cim_sched_jobs_running_peak{policy}` — peak jobs simultaneously
//!   in service (gauge, max over runs);
//! * `cim_sched_makespan_cycles{policy}` — longest run's makespan
//!   (gauge, max over runs);
//! * `cim_sched_farm_clock_cycles_total{policy}` — cumulative farm
//!   virtual-clock cycles across published runs (counter); this is
//!   the scheduler's virtual-time scrape point for the pulse timeline
//!   — successive snapshots of it recover per-run makespans exactly;
//! * `cim_sched_tile_cycles_total{policy,tile,op_class}` — per-tile
//!   cycle totals by micro-op class;
//! * `cim_sched_tile_energy_pj_total{policy,tile,component}` —
//!   per-tile first-order energy by component;
//! * `cim_sched_tile_utilization{policy,tile}` — per-tile utilization
//!   over the makespan (gauge).
//!
//! Publication is a pure read of the report: a test asserts the
//! [`FarmReport`] is identical with metrics attached and not.

use crate::report::FarmReport;
use cim_crossbar::OpClass;
use cim_metrics::{Labels, MetricsHub};

/// Family: end-to-end job latency (histogram, cycles).
pub const METRIC_SCHED_JOB_LATENCY: &str = "cim_sched_job_latency_cycles";
/// Family: jobs by outcome (counter).
pub const METRIC_SCHED_JOBS: &str = "cim_sched_jobs_total";
/// Family: peak admission-queue backlog (gauge).
pub const METRIC_SCHED_QUEUE_DEPTH_PEAK: &str = "cim_sched_queue_depth_peak";
/// Family: peak jobs simultaneously in service (gauge).
pub const METRIC_SCHED_JOBS_RUNNING_PEAK: &str = "cim_sched_jobs_running_peak";
/// Family: makespan of the longest published run (gauge, cycles).
pub const METRIC_SCHED_MAKESPAN: &str = "cim_sched_makespan_cycles";
/// Family: cumulative farm virtual-clock cycles (counter).
pub const METRIC_SCHED_FARM_CLOCK: &str = "cim_sched_farm_clock_cycles_total";
/// Family: per-tile cycles by op class (counter).
pub const METRIC_SCHED_TILE_CYCLES: &str = "cim_sched_tile_cycles_total";
/// Family: per-tile energy by component (counter, picojoules).
pub const METRIC_SCHED_TILE_ENERGY: &str = "cim_sched_tile_energy_pj_total";
/// Family: per-tile utilization over the makespan (gauge).
pub const METRIC_SCHED_TILE_UTILIZATION: &str = "cim_sched_tile_utilization";

impl FarmReport {
    /// Publishes this report into `hub`. See the
    /// [module docs](crate::metrics) for the family catalogue. A no-op
    /// on a disabled hub.
    pub fn publish_metrics(&self, hub: &MetricsHub) {
        if !hub.is_enabled() {
            return;
        }
        let policy = Labels::new().with("policy", self.policy.label());
        hub.merge_histogram(
            METRIC_SCHED_JOB_LATENCY,
            "end-to-end job latency in cycles",
            &policy,
            &self.latency_histogram,
        );
        for (outcome, count) in [("done", self.jobs_done()), ("rejected", self.jobs_rejected)] {
            hub.add_counter(
                METRIC_SCHED_JOBS,
                "jobs by outcome",
                &policy.clone().with("outcome", outcome),
                count as f64,
            );
        }
        hub.gauge(
            METRIC_SCHED_QUEUE_DEPTH_PEAK,
            "peak admitted-but-undispatched backlog",
            &policy,
        )
        .set_max(self.queue_peak as f64);
        hub.gauge(
            METRIC_SCHED_JOBS_RUNNING_PEAK,
            "peak jobs simultaneously in service",
            &policy,
        )
        .set_max(self.peak_jobs_running() as f64);
        hub.gauge(
            METRIC_SCHED_MAKESPAN,
            "makespan of the longest published run in cycles",
            &policy,
        )
        .set_max(self.makespan_cycles as f64);
        hub.add_counter(
            METRIC_SCHED_FARM_CLOCK,
            "cumulative farm virtual-clock cycles across published runs",
            &policy,
            self.makespan_cycles as f64,
        );
        for t in &self.tile_reports {
            let tile = policy.clone().with("tile", t.tile);
            for class in OpClass::ALL {
                hub.add_counter(
                    METRIC_SCHED_TILE_CYCLES,
                    "per-tile cycles by micro-op class",
                    &tile.clone().with("op_class", class.label()),
                    t.stats.cycles_of(class) as f64,
                );
            }
            for (component, pj) in t.energy.components() {
                hub.add_counter(
                    METRIC_SCHED_TILE_ENERGY,
                    "per-tile first-order energy in picojoules by component",
                    &tile.clone().with("component", component),
                    pj,
                );
            }
            hub.set_gauge(
                METRIC_SCHED_TILE_UTILIZATION,
                "per-tile utilization over the makespan",
                &tile,
                t.utilization,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobMix;
    use crate::policy::Policy;
    use crate::scheduler::{FarmConfig, Scheduler};

    #[test]
    fn publish_covers_all_sched_families() {
        let jobs = JobMix::crypto_default(300).generate(48, 7);
        let mut sched = Scheduler::new(FarmConfig::new(4, Policy::LeastLoaded));
        let hub = MetricsHub::recording();
        sched.attach_metrics(&hub);
        let report = sched.run(&jobs).unwrap();
        let snap = hub.snapshot();

        let policy = Labels::new().with("policy", "least-loaded");
        let lat = snap
            .histogram_with(METRIC_SCHED_JOB_LATENCY, &policy)
            .expect("latency histogram");
        assert_eq!(lat.count(), report.jobs_done() as u64);
        assert_eq!(&report.latency_histogram, lat);
        assert_eq!(
            snap.number_with(METRIC_SCHED_JOBS, &policy.clone().with("outcome", "done")),
            Some(report.jobs_done() as f64)
        );
        assert_eq!(
            snap.number_with(METRIC_SCHED_JOBS_RUNNING_PEAK, &policy),
            Some(report.peak_jobs_running() as f64)
        );
        assert_eq!(
            snap.number_with(METRIC_SCHED_MAKESPAN, &policy),
            Some(report.makespan_cycles as f64)
        );
        assert_eq!(
            snap.number_with(METRIC_SCHED_FARM_CLOCK, &policy),
            Some(report.makespan_cycles as f64)
        );
        for t in &report.tile_reports {
            let tile = policy.clone().with("tile", t.tile);
            assert_eq!(
                snap.number_with(
                    METRIC_SCHED_TILE_CYCLES,
                    &tile.clone().with("op_class", "magic")
                ),
                Some(t.stats.magic_cycles as f64),
                "tile {}",
                t.tile
            );
            assert_eq!(
                snap.number_with(
                    METRIC_SCHED_TILE_ENERGY,
                    &tile.clone().with("component", "write")
                ),
                Some(t.energy.write_pj),
                "tile {}",
                t.tile
            );
        }
    }

    #[test]
    fn repeated_runs_merge_latency_histograms() {
        let jobs = JobMix::crypto_default(500).generate(20, 3);
        let mut sched = Scheduler::new(FarmConfig::new(2, Policy::Fifo));
        let hub = MetricsHub::recording();
        sched.attach_metrics(&hub);
        let makespan = sched.run(&jobs).unwrap().makespan_cycles;
        sched.run(&jobs).unwrap();
        let snap = hub.snapshot();
        let policy = Labels::new().with("policy", "fifo");
        // The virtual clock accumulates: two identical runs, twice the
        // makespan.
        assert_eq!(
            snap.number_with(METRIC_SCHED_FARM_CLOCK, &policy),
            Some(2.0 * makespan as f64)
        );
        let lat = snap
            .histogram_with(METRIC_SCHED_JOB_LATENCY, &policy)
            .expect("latency histogram");
        assert_eq!(lat.count(), 40);
        assert_eq!(
            snap.number_with(METRIC_SCHED_JOBS, &policy.with("outcome", "done")),
            Some(40.0)
        );
    }
}
