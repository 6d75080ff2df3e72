//! Core-layer metrics publication.
//!
//! The multiplier publishes after each verified multiplication, keyed
//! by operand width (`width_bits`) so sweeps over sizes land in
//! separate series:
//!
//! * `cim_core_stage_cycles{stage,width_bits}` — per-stage cycle
//!   histograms (`precompute` / `multiply` / `postcompute`);
//! * `cim_core_total_latency_cycles{width_bits}` — end-to-end latency
//!   histogram including handoffs;
//! * `cim_core_multiplications_total{width_bits}` — verified products;
//! * `cim_core_writes_total{stage,width_bits}` — exact cell writes
//!   from the endurance counters;
//! * `cim_core_energy_pj_total{component,width_bits}` — the full
//!   [`crate::multiplier::ExecutionReport::energy`] model (all three
//!   stages plus handoffs);
//! * `cim_core_area_cells{width_bits}` — simulated geometry (gauge);
//! * plus the crossbar families (`cim_xbar_*`) re-published from the
//!   stage-1/stage-3 [`cim_crossbar::CycleStats`] with
//!   `stage`/`width_bits` labels. Note the crossbar energy family
//!   covers only the executor-driven stages; `cim_core_energy_pj_total`
//!   is the complete model (adds stage 2 and the handoffs).
//!
//! Publication is a pure read of the [`ExecutionReport`] — a test
//! asserts reports are identical with metrics attached and not.

use crate::multiplier::ExecutionReport;
use cim_crossbar::{EnergyParams, MeterSpec};
use cim_metrics::{Labels, MetricsHub};

/// Family: per-stage cycles per multiplication (histogram).
pub const METRIC_CORE_STAGE_CYCLES: &str = "cim_core_stage_cycles";
/// Family: end-to-end latency per multiplication (histogram).
pub const METRIC_CORE_TOTAL_LATENCY: &str = "cim_core_total_latency_cycles";
/// Family: verified multiplications (counter).
pub const METRIC_CORE_MULTIPLICATIONS: &str = "cim_core_multiplications_total";
/// Family: cell writes by stage (counter).
pub const METRIC_CORE_WRITES: &str = "cim_core_writes_total";
/// Family: energy by component (counter, picojoules).
pub const METRIC_CORE_ENERGY: &str = "cim_core_energy_pj_total";
/// Family: simulated array cells (gauge).
pub const METRIC_CORE_AREA_CELLS: &str = "cim_core_area_cells";

/// Stage labels in `stage_cycles` order.
pub const STAGE_LABELS: [&str; 3] = ["precompute", "multiply", "postcompute"];

impl ExecutionReport {
    /// Publishes this report into `hub`, labeled with
    /// `width_bits = n`, using `params` for the energy model. See the
    /// [module docs](crate::metrics) for the family catalogue.
    pub fn publish_metrics(&self, hub: &MetricsHub, n: usize, params: &EnergyParams) {
        if !hub.is_enabled() {
            return;
        }
        let width = Labels::new().with("width_bits", n);
        for (i, stage) in STAGE_LABELS.iter().enumerate() {
            let labels = width.clone().with("stage", *stage);
            hub.observe(
                METRIC_CORE_STAGE_CYCLES,
                "per-stage cycles per multiplication",
                &labels,
                self.stage_cycles[i],
            );
            hub.add_counter(
                METRIC_CORE_WRITES,
                "cell writes by stage",
                &labels,
                self.endurance[i].total_writes as f64,
            );
        }
        hub.observe(
            METRIC_CORE_TOTAL_LATENCY,
            "end-to-end multiplication latency in cycles",
            &width,
            self.total_latency,
        );
        hub.add_counter(
            METRIC_CORE_MULTIPLICATIONS,
            "verified multiplications",
            &width,
            1.0,
        );
        hub.set_gauge(
            METRIC_CORE_AREA_CELLS,
            "simulated cells across the three stage arrays",
            &width,
            self.area_cells as f64,
        );
        for (component, pj) in self.energy(n, params).components() {
            hub.add_counter(
                METRIC_CORE_ENERGY,
                "multiplication energy in picojoules by component",
                &width.clone().with("component", component),
                pj,
            );
        }
        // Re-publish the executor-level cycle statistics under the
        // crossbar families so one multiplier run feeds both layers.
        // Stage row widths match the energy model in
        // `ExecutionReport::energy`.
        let stage_meter = |stage: &str| {
            MeterSpec::new(hub, width.clone().with("stage", stage)).with_params(*params)
        };
        let pre = stage_meter("precompute");
        pre.publish_stats(&self.precompute_stats);
        pre.publish_energy(&self.precompute_stats, n / 4 + 2);
        let post = stage_meter("postcompute");
        post.publish_stats(&self.postcompute_stats);
        post.publish_energy(&self.postcompute_stats, 3 * n / 2 + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::KaratsubaCimMultiplier;
    use cim_bigint::Uint;
    use cim_crossbar::meter::{METRIC_XBAR_CYCLES, METRIC_XBAR_ENERGY};

    #[test]
    fn publish_covers_all_families_keyed_by_width() {
        let mut mult = KaratsubaCimMultiplier::new(64).unwrap();
        let hub = MetricsHub::recording();
        mult.attach_metrics(&hub, EnergyParams::default());
        let a = Uint::from_u64(u64::MAX);
        let out = mult.multiply(&a, &a).unwrap();
        let snap = hub.snapshot();

        let width = Labels::new().with("width_bits", 64);
        for (i, stage) in STAGE_LABELS.iter().enumerate() {
            let labels = width.clone().with("stage", *stage);
            let h = snap
                .histogram_with(METRIC_CORE_STAGE_CYCLES, &labels)
                .unwrap_or_else(|| panic!("missing stage histogram {stage}"));
            assert_eq!(h.count(), 1);
            assert_eq!(h.max(), out.report.stage_cycles[i]);
            assert_eq!(
                snap.number_with(METRIC_CORE_WRITES, &labels),
                Some(out.report.endurance[i].total_writes as f64)
            );
        }
        assert_eq!(
            snap.histogram_with(METRIC_CORE_TOTAL_LATENCY, &width)
                .unwrap()
                .max(),
            out.report.total_latency
        );
        assert_eq!(
            snap.number_with(METRIC_CORE_MULTIPLICATIONS, &width),
            Some(1.0)
        );
        assert_eq!(
            snap.number_with(METRIC_CORE_AREA_CELLS, &width),
            Some(out.report.area_cells as f64)
        );
        let energy = out.report.energy(64, &EnergyParams::default());
        for (component, pj) in energy.components() {
            assert_eq!(
                snap.number_with(
                    METRIC_CORE_ENERGY,
                    &width.clone().with("component", component)
                ),
                Some(pj)
            );
        }
        // Crossbar families appear with stage labels, mirroring the
        // executor statistics exactly.
        assert_eq!(
            snap.number_with(
                METRIC_XBAR_CYCLES,
                &width
                    .clone()
                    .with("stage", "precompute")
                    .with("op_class", "magic")
            ),
            Some(out.report.precompute_stats.magic_cycles as f64)
        );
        assert!(snap
            .number_with(
                METRIC_XBAR_ENERGY,
                &width
                    .clone()
                    .with("stage", "postcompute")
                    .with("component", "magic")
            )
            .unwrap()
            > 0.0);
    }

    #[test]
    fn repeated_multiplications_accumulate() {
        let mut mult = KaratsubaCimMultiplier::new(16).unwrap();
        let hub = MetricsHub::recording();
        mult.attach_metrics(&hub, EnergyParams::default());
        let a = Uint::from_u64(0x1234);
        for _ in 0..3 {
            mult.multiply(&a, &a).unwrap();
        }
        let snap = hub.snapshot();
        let width = Labels::new().with("width_bits", 16);
        assert_eq!(
            snap.number_with(METRIC_CORE_MULTIPLICATIONS, &width),
            Some(3.0)
        );
        assert_eq!(
            snap.histogram_with(METRIC_CORE_TOTAL_LATENCY, &width)
                .unwrap()
                .count(),
            3
        );
    }
}
