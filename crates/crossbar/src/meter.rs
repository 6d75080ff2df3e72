//! Crossbar-level metrics publication.
//!
//! A [`MeterSpec`] bundles everything a crossbar-layer component needs
//! to publish into the metrics plane: the [`MetricsHub`] handle, the
//! base [`Labels`] identifying the component (`tile`, `stage`, …), and
//! the [`EnergyParams`] used to convert cycle statistics to energy.
//!
//! Metering reads the [`CycleStats`] a run already keeps: after a
//! program, [`MeterSpec::publish_stats`] emits its per-op-class cycle
//! and op counters and [`MeterSpec::publish_energy`] the derived
//! energy breakdown and utilization. The executor itself never meters,
//! so metering cannot perturb a cycle, a wear count or a cell, and a
//! metered run executes the same compiled plan as an unmetered one.

use crate::energy::{EnergyParams, EnergyReport};
use crate::stats::{CycleStats, OpClass};
use cim_metrics::{Labels, MetricsHub};

/// Family: total crossbar cycles by op class (counter).
pub const METRIC_XBAR_CYCLES: &str = "cim_xbar_cycles_total";
/// Family: total crossbar micro-ops by op class (counter).
pub const METRIC_XBAR_OPS: &str = "cim_xbar_ops_total";
/// Family: crossbar energy by component (counter, picojoules).
pub const METRIC_XBAR_ENERGY: &str = "cim_xbar_energy_pj_total";
/// Family: compute utilization — MAGIC-cycle share (gauge, 0..1).
pub const METRIC_XBAR_UTILIZATION: &str = "cim_xbar_utilization";

const HELP_CYCLES: &str = "crossbar cycles by micro-op class";
const HELP_OPS: &str = "crossbar micro-ops executed by class";
const HELP_ENERGY: &str = "crossbar energy in picojoules by component";
const HELP_UTILIZATION: &str = "fraction of cycles spent in MAGIC logic";

/// How a crossbar-layer component publishes metrics: hub handle, base
/// label set, and the energy model.
#[derive(Debug, Clone, Default)]
pub struct MeterSpec {
    /// Destination registry (disabled hub → all publishing is free).
    pub hub: MetricsHub,
    /// Base labels merged into every series (`tile`, `stage`, …).
    pub labels: Labels,
    /// Energy model used by [`MeterSpec::publish_energy`].
    pub params: EnergyParams,
}

impl MeterSpec {
    /// A spec publishing into `hub` under `labels` with the default
    /// energy parameters.
    pub fn new(hub: &MetricsHub, labels: Labels) -> Self {
        MeterSpec {
            hub: hub.clone(),
            labels,
            params: EnergyParams::default(),
        }
    }

    /// Replaces the energy model.
    #[must_use]
    pub fn with_params(mut self, params: EnergyParams) -> Self {
        self.params = params;
        self
    }

    /// Whether publishing through this spec does anything.
    pub fn is_enabled(&self) -> bool {
        self.hub.is_enabled()
    }

    /// Publishes `stats` as one-shot increments of the per-class cycle
    /// and op counters.
    pub fn publish_stats(&self, stats: &CycleStats) {
        if !self.is_enabled() {
            return;
        }
        for class in OpClass::ALL {
            let labels = self.labels.clone().with("op_class", class.label());
            self.hub.add_counter(
                METRIC_XBAR_CYCLES,
                HELP_CYCLES,
                &labels,
                stats.cycles_of(class) as f64,
            );
            self.hub.add_counter(
                METRIC_XBAR_OPS,
                HELP_OPS,
                &labels,
                stats.ops_of(class) as f64,
            );
        }
    }

    /// Converts `stats` to an [`EnergyReport`] (first-order model:
    /// every op touches `row_width` cells), publishes the per-component
    /// energy counters and the utilization gauge, and returns the
    /// report.
    pub fn publish_energy(&self, stats: &CycleStats, row_width: usize) -> EnergyReport {
        let report = EnergyReport::from_stats(stats, row_width, &self.params);
        if self.is_enabled() {
            for (component, pj) in report.components() {
                self.hub.add_counter(
                    METRIC_XBAR_ENERGY,
                    HELP_ENERGY,
                    &self.labels.clone().with("component", component),
                    pj,
                );
            }
            self.hub.set_gauge(
                METRIC_XBAR_UTILIZATION,
                HELP_UTILIZATION,
                &self.labels,
                stats.utilization(),
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> CycleStats {
        let mut s = CycleStats::default();
        s.record(OpClass::Write, 3);
        s.record(OpClass::Magic, 5);
        s.record(OpClass::Magic, 2);
        s.record(OpClass::Shift, 2);
        s
    }

    #[test]
    fn publish_stats_mirrors_cycle_stats() {
        let hub = MetricsHub::recording();
        let spec = MeterSpec::new(&hub, Labels::new().with("tile", 0));
        spec.publish_stats(&sample_stats());
        let snap = hub.snapshot();
        for class in OpClass::ALL {
            let labels = Labels::new()
                .with("tile", 0)
                .with("op_class", class.label());
            assert_eq!(
                snap.number_with(METRIC_XBAR_CYCLES, &labels),
                Some(sample_stats().cycles_of(class) as f64),
                "{}",
                class.label()
            );
            assert_eq!(
                snap.number_with(METRIC_XBAR_OPS, &labels),
                Some(sample_stats().ops_of(class) as f64)
            );
        }
    }

    #[test]
    fn publish_energy_matches_from_stats_and_sets_utilization() {
        let hub = MetricsHub::recording();
        let spec = MeterSpec::new(&hub, Labels::new());
        let stats = sample_stats();
        let report = spec.publish_energy(&stats, 64);
        let expect = EnergyReport::from_stats(&stats, 64, &EnergyParams::default());
        assert_eq!(report, expect);
        let snap = hub.snapshot();
        for (component, pj) in expect.components() {
            assert_eq!(
                snap.number_with(
                    METRIC_XBAR_ENERGY,
                    &Labels::new().with("component", component)
                ),
                Some(pj)
            );
        }
        assert_eq!(
            snap.number(METRIC_XBAR_UTILIZATION),
            Some(stats.utilization())
        );
    }

    #[test]
    fn disabled_spec_publishes_nothing_but_still_reports_energy() {
        let spec = MeterSpec::default();
        assert!(!spec.is_enabled());
        spec.publish_stats(&sample_stats());
        let report = spec.publish_energy(&sample_stats(), 64);
        assert!(report.total_pj() > 0.0, "energy math works without a hub");
    }
}
