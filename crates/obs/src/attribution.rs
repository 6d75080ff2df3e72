//! Per-stage cycle/energy attribution for one multiplication.
//!
//! [`AttributionReport::from_execution`] re-derives the stage split of
//! [`karatsuba_cim::multiplier::ExecutionReport::energy`] **term by
//! term, in the same floating-point summation order**, so the stage
//! rows sum bit-exactly to the totals the core publishes into the
//! metrics registry. That exactness is asserted in tests and gated in
//! the `obs_report` output: an attribution report whose rows don't add
//! up is a bug, not a rounding artifact.
//!
//! The report carries four rows — `precompute`, `multiply`,
//! `postcompute`, and the inter-stage `handoff` (which has energy but
//! no cycles of its own; its latency is folded into
//! `total_latency_cycles`) — plus an optional depth-1 comparison
//! column from the `L = 1` ablation multiplier.

use cim_crossbar::{EnergyParams, EnergyReport};
use cim_trace::json::JsonWriter;
use karatsuba_cim::multiplier::ExecutionReport;

/// Stage labels in report order.
pub const ATTRIBUTION_STAGES: [&str; 4] = ["precompute", "multiply", "postcompute", "handoff"];

/// One attribution row: a stage's cycles, cell writes, and energy
/// breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAttribution {
    /// Stage label (one of [`ATTRIBUTION_STAGES`]).
    pub stage: &'static str,
    /// Cycles spent in the stage (0 for `handoff`).
    pub cycles: u64,
    /// Cell writes charged to the stage (0 for `handoff`).
    pub writes: u64,
    /// Energy breakdown.
    pub energy: EnergyReport,
}

/// Depth-1 (`L = 1`) ablation comparison column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Depth1Column {
    /// Stage cycles `[pre, mult, post]` of the depth-1 run.
    pub stage_cycles: [u64; 3],
    /// Area of the depth-1 stage arrays in cells.
    pub area_cells: u64,
}

/// The per-stage attribution of one `n`-bit multiplication.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Operand width in bits.
    pub width_bits: usize,
    /// The four stage rows in [`ATTRIBUTION_STAGES`] order.
    pub stages: Vec<StageAttribution>,
    /// Total latency including handoffs (from the execution report).
    pub total_latency_cycles: u64,
    /// Total area in cells.
    pub area_cells: u64,
    /// The energy total the stages sum to — bit-identical to
    /// [`ExecutionReport::energy`].
    pub total_energy: EnergyReport,
    /// Optional depth-1 ablation column.
    pub depth1: Option<Depth1Column>,
}

impl AttributionReport {
    /// Builds the attribution from an execution report, mirroring
    /// [`ExecutionReport::energy`]'s stage split exactly.
    pub fn from_execution(n: usize, report: &ExecutionReport, params: &EnergyParams) -> Self {
        let w = n / 4 + 2;
        let pre = EnergyReport::from_stats(&report.precompute_stats, w, params);
        let post = EnergyReport::from_stats(&report.postcompute_stats, 3 * n / 2 + 1, params);
        let mult = EnergyReport {
            write_pj: report.endurance[1].total_writes as f64 * params.write_pj,
            read_pj: 0.0,
            magic_pj: report.stage_cycles[1] as f64 * (9 * w) as f64 * params.magic_pj,
            controller_pj: report.stage_cycles[1] as f64 * params.controller_pj_per_cycle,
        };
        let handoff_bits = (18 * w + 9 * 2 * w) as f64;
        let handoff_pj = handoff_bits * (params.read_pj + params.write_pj);
        let handoff = EnergyReport {
            write_pj: handoff_pj / 2.0,
            read_pj: handoff_pj / 2.0,
            magic_pj: 0.0,
            controller_pj: 0.0,
        };
        let stages = vec![
            StageAttribution {
                stage: ATTRIBUTION_STAGES[0],
                cycles: report.stage_cycles[0],
                writes: report.endurance[0].total_writes,
                energy: pre,
            },
            StageAttribution {
                stage: ATTRIBUTION_STAGES[1],
                cycles: report.stage_cycles[1],
                writes: report.endurance[1].total_writes,
                energy: mult,
            },
            StageAttribution {
                stage: ATTRIBUTION_STAGES[2],
                cycles: report.stage_cycles[2],
                writes: report.endurance[2].total_writes,
                energy: post,
            },
            StageAttribution {
                stage: ATTRIBUTION_STAGES[3],
                cycles: 0,
                writes: 0,
                energy: handoff,
            },
        ];
        AttributionReport {
            width_bits: n,
            stages,
            total_latency_cycles: report.total_latency,
            area_cells: report.area_cells,
            total_energy: report.energy(n, params),
            depth1: None,
        }
    }

    /// Attaches the depth-1 ablation column.
    #[must_use]
    pub fn with_depth1(mut self, depth1: Depth1Column) -> Self {
        self.depth1 = Some(depth1);
        self
    }

    /// Sums the stage rows in report order — per component, the exact
    /// floating-point summation [`ExecutionReport::energy`] performs,
    /// so this equals [`AttributionReport::total_energy`] bit for bit.
    pub fn stages_sum(&self) -> EnergyReport {
        let mut total = EnergyReport::default();
        for s in &self.stages {
            total.merge(&s.energy);
        }
        total
    }

    /// Whether the stage rows reproduce the total exactly (should
    /// always hold; exposed so reports can assert it).
    pub fn sums_exactly(&self) -> bool {
        let sum = self.stages_sum();
        sum.write_pj == self.total_energy.write_pj
            && sum.read_pj == self.total_energy.read_pj
            && sum.magic_pj == self.total_energy.magic_pj
            && sum.controller_pj == self.total_energy.controller_pj
    }

    /// Total cell writes across stages.
    pub fn total_writes(&self) -> u64 {
        self.stages.iter().map(|s| s.writes).sum()
    }

    /// Serializes the attribution into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.open_object()
            .field_uint("width_bits", self.width_bits as u64)
            .field_uint("total_latency_cycles", self.total_latency_cycles)
            .field_uint("area_cells", self.area_cells)
            .field_uint("total_writes", self.total_writes())
            .key("stages")
            .open_array();
        for s in &self.stages {
            w.open_object()
                .field_str("stage", s.stage)
                .field_uint("cycles", s.cycles)
                .field_uint("writes", s.writes)
                .key("energy_pj")
                .open_object();
            for (component, pj) in s.energy.components() {
                w.field_float(component, pj);
            }
            w.field_float("total", s.energy.total_pj());
            w.close_object().close_object();
        }
        w.close_array().key("total_energy_pj").open_object();
        for (component, pj) in self.total_energy.components() {
            w.field_float(component, pj);
        }
        w.field_float("total", self.total_energy.total_pj());
        w.close_object().field_str(
            "sums_exactly",
            if self.sums_exactly() { "true" } else { "false" },
        );
        if let Some(d) = self.depth1 {
            w.key("depth1").open_object();
            w.key("stage_cycles").open_array();
            for c in d.stage_cycles {
                w.uint(c);
            }
            w.close_array()
                .field_uint("area_cells", d.area_cells)
                .close_object();
        }
        w.close_object();
    }

    /// The attribution as a deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::Uint;
    use karatsuba_cim::depth1::KaratsubaDepth1Multiplier;
    use karatsuba_cim::multiplier::KaratsubaCimMultiplier;

    fn sample_report(n: usize) -> ExecutionReport {
        let m = KaratsubaCimMultiplier::new(n).unwrap();
        let a = Uint::from_u64(0xDEAD_BEEF_CAFE_F00D);
        let b = Uint::from_u64(0x1234_5678_9ABC_DEF0);
        m.multiply(&a, &b).unwrap().report
    }

    #[test]
    fn stages_sum_bit_exactly_to_energy_total() {
        for n in [64usize, 256] {
            let report = sample_report(n);
            let params = EnergyParams::default();
            let attr = AttributionReport::from_execution(n, &report, &params);
            assert!(
                attr.sums_exactly(),
                "stage rows must reproduce energy() at n={n}"
            );
            let sum = attr.stages_sum();
            assert_eq!(sum.total_pj(), attr.total_energy.total_pj());
            assert_eq!(
                attr.total_writes(),
                report.endurance.iter().map(|e| e.total_writes).sum::<u64>()
            );
            assert_eq!(attr.stages.len(), 4);
            assert_eq!(attr.stages[3].cycles, 0, "handoff row carries no cycles");
        }
    }

    #[test]
    fn non_default_params_still_sum_exactly() {
        let report = sample_report(64);
        let params = EnergyParams {
            write_pj: 3.7,
            read_pj: 0.21,
            magic_pj: 1.13,
            controller_pj_per_cycle: 0.49,
            offchip_pj_per_bit: 11.0,
        };
        let attr = AttributionReport::from_execution(64, &report, &params);
        assert!(attr.sums_exactly());
    }

    #[test]
    fn json_is_deterministic_and_carries_depth1() {
        let report = sample_report(64);
        let params = EnergyParams::default();
        let d1 = KaratsubaDepth1Multiplier::new(64).unwrap();
        let a = Uint::from_u64(7);
        let b = Uint::from_u64(9);
        let outcome = d1.multiply(&a, &b).unwrap();
        let attr =
            AttributionReport::from_execution(64, &report, &params).with_depth1(Depth1Column {
                stage_cycles: outcome.stage_cycles,
                area_cells: outcome.area_cells,
            });
        let j = attr.to_json();
        assert_eq!(j, attr.to_json());
        cim_trace::json::check(&j).unwrap();
        assert!(j.contains("\"depth1\""));
        assert!(j.contains("\"sums_exactly\":\"true\""));
        for stage in ATTRIBUTION_STAGES {
            assert!(j.contains(stage));
        }
    }
}
