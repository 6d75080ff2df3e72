//! The `cim_serve_*` metric families and their publish helpers.
//!
//! Everything the serving layer exports lives in the workspace-wide
//! [`cim_metrics`] registry under the `cim_serve_` prefix, following
//! the `cim_<layer>_<what>_<unit>` convention (DESIGN.md §2.11):
//!
//! | family | kind | labels |
//! |---|---|---|
//! | `cim_serve_requests_total` | counter | `tenant`, `op`, `outcome` |
//! | `cim_serve_shed_total` | counter | `tenant`, `reason` |
//! | `cim_serve_latency_cycles` | histogram | `tenant` |
//! | `cim_serve_queue_depth` | gauge | `tenant` |
//! | `cim_serve_batches_total` | counter | `width_bits` |
//! | `cim_serve_batch_jobs` | histogram | `width_bits` |
//! | `cim_serve_farm_jobs_total` | counter | `farm` |
//! | `cim_serve_farm_utilization` | gauge | `farm` |
//! | `cim_serve_farm_clock_cycles` | gauge | `farm` |
//!
//! Latency and clocks are *virtual* cycles — the same cycle domain the
//! scheduler simulates — so every sample is deterministic for a given
//! request trace and the bench gate can pin these families exactly.

use cim_metrics::{Labels, MetricsHub};

/// Requests by tenant, operation and outcome (`ok`/`shed`/`error`).
pub const REQUESTS_TOTAL: &str = "cim_serve_requests_total";
/// Shed requests by tenant and reason.
pub const SHED_TOTAL: &str = "cim_serve_shed_total";
/// End-to-end request latency in virtual cycles, per tenant.
pub const LATENCY_CYCLES: &str = "cim_serve_latency_cycles";
/// Admitted-but-undispatched requests, per tenant.
pub const QUEUE_DEPTH: &str = "cim_serve_queue_depth";
/// Batches flushed, per operand width class.
pub const BATCHES_TOTAL: &str = "cim_serve_batches_total";
/// Farm-job count per flushed batch, per operand width class.
pub const BATCH_JOBS: &str = "cim_serve_batch_jobs";
/// Farm jobs executed, per farm.
pub const FARM_JOBS_TOTAL: &str = "cim_serve_farm_jobs_total";
/// Stage-cycle utilization up to the farm's clock, per farm.
pub const FARM_UTILIZATION: &str = "cim_serve_farm_utilization";
/// Virtual cycle at which the farm drains its last batch, per farm.
pub const FARM_CLOCK_CYCLES: &str = "cim_serve_farm_clock_cycles";

/// Counts one finished request (outcome `ok`/`shed`/`error`).
pub fn count_request(hub: &MetricsHub, tenant: &str, op: &str, outcome: &str) {
    hub.add_counter(
        REQUESTS_TOTAL,
        "requests by tenant, operation and outcome",
        &Labels::new()
            .with("tenant", tenant)
            .with("op", op)
            .with("outcome", outcome),
        1.0,
    );
}

/// Counts one shed request.
pub fn count_shed(hub: &MetricsHub, tenant: &str, reason: &str) {
    hub.add_counter(
        SHED_TOTAL,
        "requests shed by admission control, by reason",
        &Labels::new().with("tenant", tenant).with("reason", reason),
        1.0,
    );
}

/// Records one served request's end-to-end latency.
pub fn observe_latency(hub: &MetricsHub, tenant: &str, cycles: u64) {
    hub.observe(
        LATENCY_CYCLES,
        "end-to-end request latency in virtual cycles",
        &Labels::new().with("tenant", tenant),
        cycles,
    );
}

/// Updates a tenant's queue-depth gauge.
pub fn set_queue_depth(hub: &MetricsHub, tenant: &str, depth: usize) {
    hub.set_gauge(
        QUEUE_DEPTH,
        "admitted-but-undispatched requests",
        &Labels::new().with("tenant", tenant),
        depth as f64,
    );
}

/// Counts one flushed batch and records its job count.
pub fn count_batch(hub: &MetricsHub, width: usize, jobs: u64) {
    let labels = Labels::new().with("width_bits", width);
    hub.add_counter(
        BATCHES_TOTAL,
        "batches flushed per width class",
        &labels,
        1.0,
    );
    hub.observe(BATCH_JOBS, "farm jobs per flushed batch", &labels, jobs);
}

/// Publishes one farm's cumulative accounting.
pub fn set_farm_stats(
    hub: &MetricsHub,
    farm: usize,
    jobs_delta: u64,
    utilization: f64,
    clock: u64,
) {
    let labels = Labels::new().with("farm", farm);
    hub.add_counter(
        FARM_JOBS_TOTAL,
        "farm jobs executed",
        &labels,
        jobs_delta as f64,
    );
    hub.set_gauge(
        FARM_UTILIZATION,
        "stage-cycle utilization up to the farm clock",
        &labels,
        utilization,
    );
    hub.set_gauge(
        FARM_CLOCK_CYCLES,
        "virtual cycle at which the farm drains",
        &labels,
        clock as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_metrics::prometheus;

    #[test]
    fn families_render_as_valid_prometheus() {
        let hub = MetricsHub::recording();
        count_request(&hub, "alice", "mul", "ok");
        count_shed(&hub, "alice", "rate_limited");
        observe_latency(&hub, "alice", 12345);
        set_queue_depth(&hub, "alice", 7);
        count_batch(&hub, 256, 4096);
        set_farm_stats(&hub, 0, 4096, 0.83, 1_000_000);
        let text = prometheus::render(&hub.snapshot());
        prometheus::check(&text).expect("exposition must parse");
        for family in [
            REQUESTS_TOTAL,
            SHED_TOTAL,
            LATENCY_CYCLES,
            QUEUE_DEPTH,
            BATCHES_TOTAL,
            BATCH_JOBS,
            FARM_JOBS_TOTAL,
            FARM_UTILIZATION,
            FARM_CLOCK_CYCLES,
        ] {
            assert!(text.contains(family), "missing {family} in exposition");
        }
        assert!(text.contains("tenant=\"alice\""));
    }

    #[test]
    fn disabled_hub_is_a_no_op() {
        let hub = MetricsHub::disabled();
        count_request(&hub, "a", "mul", "ok");
        observe_latency(&hub, "a", 1);
        assert!(hub.snapshot().families.is_empty());
    }
}
