//! The three-stage pipeline (paper Fig. 5 and Sec. IV-A).
//!
//! The *Karatsuba Multiplication Controller* streams multiplications
//! through precomputation → multiplication → postcomputation, each on
//! its own subarray, so three multiplications are in flight at once.
//! Latency is the sum of the stage latencies; throughput is set by the
//! slowest stage (plus the operand/product handoff the controller
//! performs between subarrays).

use crate::cost::{DesignPoint, HANDOFF_CYCLES};
use cim_trace::{Args, Tracer};

/// Timing of one multiplication job through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Job index.
    pub job: usize,
    /// Cycle at which each stage starts, `[pre, mult, post]`.
    pub start: [u64; 3],
    /// Cycle at which each stage finishes (inclusive of handoff out).
    pub finish: [u64; 3],
}

impl JobTiming {
    /// Completion cycle of the whole job.
    pub fn completed_at(&self) -> u64 {
        self.finish[2]
    }
}

/// A simulated schedule of `k` multiplications through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSchedule {
    /// Stage latencies `[pre, mult, post]` in cycles.
    pub stage_latency: [u64; 3],
    /// Handoff cycles charged after stage 1 and stage 2.
    pub handoff: u64,
    /// Per-job timings.
    pub jobs: Vec<JobTiming>,
}

impl PipelineSchedule {
    /// Simulates `count` back-to-back multiplications given the three
    /// stage latencies. A stage starts as soon as both its own
    /// subarray and its input are free.
    pub fn simulate(count: usize, stage_latency: [u64; 3], handoff: u64) -> Self {
        let mut jobs: Vec<JobTiming> = Vec::with_capacity(count);
        // Occupancy: cycle at which each stage subarray becomes free.
        let mut stage_free = [0u64; 3];
        for j in 0..count {
            let mut start = [0u64; 3];
            let mut finish = [0u64; 3];
            let mut input_ready = 0u64;
            for s in 0..3 {
                start[s] = input_ready.max(stage_free[s]);
                // Stage occupies its array for latency + the handoff
                // that drains its results (to the next stage, or back
                // to main memory for the final stage).
                finish[s] = start[s] + stage_latency[s] + handoff;
                stage_free[s] = finish[s];
                input_ready = finish[s];
            }
            jobs.push(JobTiming {
                job: j,
                start,
                finish,
            });
        }
        PipelineSchedule {
            stage_latency,
            handoff,
            jobs,
        }
    }

    /// Simulates `count` multiplications with the paper's `n`-bit
    /// design-point latencies.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn for_design(n: usize, count: usize) -> Self {
        let d = DesignPoint::new(n);
        Self::simulate(
            count,
            [
                d.precompute_latency,
                d.multiply_latency,
                d.postcompute_latency,
            ],
            HANDOFF_CYCLES,
        )
    }

    /// Latency of a single multiplication (job 0 completion).
    pub fn single_latency(&self) -> u64 {
        self.jobs.first().map_or(0, JobTiming::completed_at)
    }

    /// Measured pipelined throughput when every job is a bit-sliced
    /// batch of `lanes` multiplications: batching leaves stage
    /// latencies (and thus the schedule) unchanged, so throughput
    /// scales linearly with the lane count.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds 64.
    pub fn batched_throughput_per_mcc(&self, lanes: usize) -> f64 {
        assert!((1..=64).contains(&lanes), "lanes must be 1..=64");
        lanes as f64 * self.throughput_per_mcc()
    }

    /// Steady-state initiation interval: completion spacing of the
    /// last two jobs.
    pub fn initiation_interval(&self) -> u64 {
        match self.jobs.len() {
            0 | 1 => self.single_latency(),
            k => self.jobs[k - 1].completed_at() - self.jobs[k - 2].completed_at(),
        }
    }

    /// Measured pipelined throughput in multiplications per 10^6
    /// cycles (excluding the pipeline fill of the first two jobs).
    pub fn throughput_per_mcc(&self) -> f64 {
        1.0e6 / self.initiation_interval() as f64
    }

    /// Exports the schedule into `tracer` as one process named
    /// `process_name` with a track per pipeline stage: job `j`'s
    /// occupation of stage `s` becomes a complete span covering
    /// `[start[s], finish[s])` (latency plus the draining handoff), and
    /// an `occupancy` track carries a `jobs_in_flight` counter sampled
    /// at every job entry/exit — the Fig. 5 chart as a Perfetto trace.
    ///
    /// No-op when the tracer is disabled.
    pub fn trace_into(&self, tracer: &Tracer, process_name: &str) {
        if !tracer.is_enabled() {
            return;
        }
        let pid = tracer.process(process_name);
        let tracks = [
            tracer.track(pid, "stage 1 (precompute)"),
            tracer.track(pid, "stage 2 (multiply)"),
            tracer.track(pid, "stage 3 (postcompute)"),
        ];
        for t in &self.jobs {
            for (s, &track) in tracks.iter().enumerate() {
                tracer.complete(
                    track,
                    format!("job {}", t.job),
                    t.start[s],
                    t.finish[s] - t.start[s],
                    Args::new()
                        .with("job", t.job as i64)
                        .with("handoff", self.handoff as i64),
                );
            }
        }
        // Jobs-in-flight gauge: +1 when a job enters stage 1, −1 when
        // it leaves stage 3.
        let occupancy = tracer.track(pid, "occupancy");
        let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(2 * self.jobs.len());
        for t in &self.jobs {
            deltas.push((t.start[0], 1));
            deltas.push((t.finish[2], -1));
        }
        deltas.sort_unstable();
        let mut in_flight = 0i64;
        let mut i = 0;
        while i < deltas.len() {
            let cycle = deltas[i].0;
            while i < deltas.len() && deltas[i].0 == cycle {
                in_flight += deltas[i].1;
                i += 1;
            }
            tracer.counter(occupancy, "jobs_in_flight", cycle, in_flight as f64);
        }
    }

    /// Renders a textual occupancy chart (one line per job) — used by
    /// the Fig. 5 reproduction binary.
    pub fn render(&self, cycles_per_char: u64) -> String {
        let mut out = String::new();
        for t in &self.jobs {
            let mut line = format!("job {:>2} ", t.job);
            let mut cursor = 0u64;
            for (s, label) in ["P", "M", "C"].iter().enumerate() {
                let pad = (t.start[s] - cursor) / cycles_per_char.max(1);
                line.push_str(&" ".repeat(pad as usize));
                let width = ((t.finish[s] - t.start[s]) / cycles_per_char.max(1)).max(1) as usize;
                line.push_str(&label.repeat(width));
                cursor = t.finish[s];
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_latency_is_sum_of_stages_plus_handoffs() {
        let s = PipelineSchedule::simulate(1, [100, 200, 150], 27);
        assert_eq!(s.single_latency(), 100 + 200 + 150 + 3 * 27);
    }

    #[test]
    fn steady_state_interval_is_slowest_stage_plus_handoff() {
        let s = PipelineSchedule::simulate(10, [100, 200, 150], 27);
        assert_eq!(s.initiation_interval(), 200 + 27);
    }

    #[test]
    fn pipeline_never_reorders_jobs() {
        let s = PipelineSchedule::simulate(8, [50, 300, 100], 27);
        for w in s.jobs.windows(2) {
            assert!(w[1].completed_at() > w[0].completed_at());
            for stage in 0..3 {
                assert!(w[1].start[stage] >= w[0].finish[stage]);
            }
        }
    }

    #[test]
    fn design_point_throughput_matches_cost_model() {
        for n in [64usize, 128, 256, 384] {
            let s = PipelineSchedule::for_design(n, 16);
            let d = DesignPoint::new(n);
            assert_eq!(s.initiation_interval(), d.initiation_interval(), "n = {n}");
            assert!(
                (s.throughput_per_mcc() - d.throughput_per_mcc()).abs() < 1e-9,
                "n = {n}"
            );
        }
    }

    #[test]
    fn batched_throughput_scales_linearly_with_lanes() {
        let s = PipelineSchedule::for_design(256, 16);
        let base = s.throughput_per_mcc();
        assert_eq!(s.batched_throughput_per_mcc(1), base);
        assert!((s.batched_throughput_per_mcc(64) - 64.0 * base).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "lanes must be 1..=64")]
    fn batched_throughput_rejects_zero_lanes() {
        let _ = PipelineSchedule::for_design(64, 1).batched_throughput_per_mcc(0);
    }

    #[test]
    fn three_jobs_in_flight() {
        // With balanced stages, job 2's precompute overlaps job 1's
        // multiply and job 0's postcompute.
        let s = PipelineSchedule::simulate(3, [100, 100, 100], 0);
        assert!(s.jobs[2].start[0] >= s.jobs[2].job as u64 * 100);
        assert!(s.jobs[2].start[0] < s.jobs[0].completed_at());
    }

    #[test]
    fn render_produces_one_line_per_job() {
        let s = PipelineSchedule::simulate(4, [100, 100, 100], 0);
        let chart = s.render(50);
        assert_eq!(chart.lines().count(), 4);
        assert!(chart.contains('P') && chart.contains('M') && chart.contains('C'));
    }
}
