//! Energy accounting for crossbar operations.
//!
//! The paper evaluates throughput/area/endurance; energy is the other
//! first-class CIM metric (the von-Neumann data-movement energy is the
//! paper's core motivation). This module attaches per-operation energy
//! costs to the micro-op classes using typical ReRAM numbers from the
//! literature the paper cites (\[5\], \[10\]):
//!
//! * SET/RESET write pulse: ~2 pJ per cell switched;
//! * MAGIC NOR evaluation: ~0.9 pJ per participating output cell
//!   (current through input and output memristors for one cycle);
//! * read/sense: ~0.5 pJ per cell sensed;
//! * periphery shift: read + latch + write ≈ 2·read + write per cell.
//!
//! Absolute values are configurable; the *relative* comparisons
//! (in-memory vs data movement, Karatsuba vs schoolbook baselines) are
//! what the model is for.

use crate::stats::CycleStats;

/// Per-operation energy parameters in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy per cell write pulse (SET or RESET), pJ.
    pub write_pj: f64,
    /// Energy per cell read/sense, pJ.
    pub read_pj: f64,
    /// Energy per MAGIC output cell per NOR/NOT evaluation, pJ.
    pub magic_pj: f64,
    /// Controller/periphery overhead per clock cycle, pJ.
    pub controller_pj_per_cycle: f64,
    /// Energy to move one bit over an off-chip memory bus, pJ —
    /// the von-Neumann cost CIM avoids (DDR-class ~15 pJ/bit).
    pub offchip_pj_per_bit: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            write_pj: 2.0,
            read_pj: 0.5,
            magic_pj: 0.9,
            controller_pj_per_cycle: 0.3,
            offchip_pj_per_bit: 15.0,
        }
    }
}

/// An energy estimate broken down by contribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// Energy spent in write pulses, pJ.
    pub write_pj: f64,
    /// Energy spent in reads, pJ.
    pub read_pj: f64,
    /// Energy spent in MAGIC evaluations, pJ.
    pub magic_pj: f64,
    /// Controller overhead, pJ.
    pub controller_pj: f64,
}

impl EnergyReport {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.write_pj + self.read_pj + self.magic_pj + self.controller_pj
    }

    /// Estimates energy from cycle statistics and the touched-cell
    /// width (cells per row-wide operation). This is a first-order
    /// model: every op of a class is assumed to touch `row_width`
    /// cells.
    pub fn from_stats(stats: &CycleStats, row_width: usize, params: &EnergyParams) -> Self {
        let w = row_width as f64;
        EnergyReport {
            // Writes, inits and shift write-backs all pulse cells.
            write_pj: (stats.write_cycles as f64
                + stats.init_cycles as f64
                + stats.shift_cycles as f64 / 2.0)
                * w
                * params.write_pj,
            read_pj: (stats.read_cycles as f64 + stats.shift_cycles as f64 / 2.0)
                * w
                * params.read_pj,
            magic_pj: stats.magic_cycles as f64 * w * params.magic_pj,
            controller_pj: stats.cycles as f64 * params.controller_pj_per_cycle,
        }
    }

    /// Energy a von-Neumann system would spend just *moving* `bits`
    /// of operand/result data over an off-chip bus (no compute).
    pub fn offchip_movement_pj(bits: usize, params: &EnergyParams) -> f64 {
        bits as f64 * params.offchip_pj_per_bit
    }

    /// Accumulates another report into this one — per-tile reports
    /// fold into farm totals this way.
    pub fn merge(&mut self, other: &EnergyReport) {
        self.write_pj += other.write_pj;
        self.read_pj += other.read_pj;
        self.magic_pj += other.magic_pj;
        self.controller_pj += other.controller_pj;
    }

    /// The `(component, pJ)` breakdown in fixed report order — the
    /// iteration exporters and metrics use.
    pub fn components(&self) -> [(&'static str, f64); 4] {
        [
            ("write", self.write_pj),
            ("read", self.read_pj),
            ("magic", self.magic_pj),
            ("controller", self.controller_pj),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpClass;

    fn stats_with(class: OpClass, cycles: u64) -> CycleStats {
        let mut s = CycleStats::default();
        s.record(class, cycles);
        s
    }

    #[test]
    fn totals_sum_components() {
        let r = EnergyReport {
            write_pj: 1.0,
            read_pj: 2.0,
            magic_pj: 3.0,
            controller_pj: 4.0,
        };
        assert!((r.total_pj() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn magic_energy_scales_with_width_and_ops() {
        let params = EnergyParams::default();
        let s = stats_with(OpClass::Magic, 10);
        let narrow = EnergyReport::from_stats(&s, 8, &params);
        let wide = EnergyReport::from_stats(&s, 80, &params);
        assert!((wide.magic_pj / narrow.magic_pj - 10.0).abs() < 1e-9);
    }

    #[test]
    fn shift_splits_between_read_and_write() {
        let params = EnergyParams::default();
        let s = stats_with(OpClass::Shift, 2); // one shift op
        let r = EnergyReport::from_stats(&s, 4, &params);
        assert!(r.read_pj > 0.0 && r.write_pj > 0.0);
    }

    #[test]
    fn offchip_movement_dwarfs_in_memory_ops() {
        let params = EnergyParams::default();
        // Moving a 256-bit operand off-chip vs one 256-wide MAGIC NOR.
        let movement = EnergyReport::offchip_movement_pj(256, &params);
        let s = stats_with(OpClass::Magic, 1);
        let compute = EnergyReport::from_stats(&s, 256, &params).magic_pj;
        assert!(
            movement > 10.0 * compute,
            "movement {movement} pJ vs compute {compute} pJ"
        );
    }
}
