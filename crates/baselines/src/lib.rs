//! # cim-baselines — models of prior CIM integer multipliers
//!
//! The paper's Table I compares the Karatsuba design against four
//! scaled-up CIM multipliers from the literature:
//!
//! * **\[6\] IMPLY semi-serial** ([`ImplySerial`]) — schoolbook with an
//!   IMPLY-based adder; quadratic area;
//! * **\[7\] IMAGING** ([`Imaging`]) — MAGIC-NOR schoolbook from image
//!   processing; quadratic time, linear area;
//! * **\[8\] Wallace/MAJORITY** ([`WallaceMajority`]) — Wallace-tree
//!   multiplier in MAJORITY logic; very fast, very large;
//! * **\[9\] MultPIM** ([`MultPim`]) — stateful single-row multiplier;
//!   `O(n log n)` time, `O(n)` area, but impractically long rows.
//!
//! The original works only report small operand sizes; the paper (like
//! this crate) scales them up analytically. Each model here anchors on
//! the paper's own Table I data points *exactly* and interpolates /
//! extrapolates in log-log space between them; where the underlying
//! scaling law is identifiable (areas, write counts) the closed form
//! is used and validated against all anchors. See DESIGN.md §2.5.
//!
//! ## Example
//!
//! ```
//! use cim_baselines::{models, MultiplierModel};
//!
//! let multpim = models().into_iter().find(|m| m.key() == "multpim").expect("registered");
//! assert_eq!(multpim.area_cells(384), 5369); // the paper's 5,369-memristor row
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interp;

pub use interp::loglog_interpolate;

use karatsuba_cim::cost::DesignPoint;

/// A throughput/area/endurance model of a CIM multiplier design,
/// parameterized by operand width `n`.
pub trait MultiplierModel {
    /// Short machine-readable key (e.g. `"multpim"`).
    fn key(&self) -> &'static str;

    /// Display name with the paper's reference number.
    fn name(&self) -> &'static str;

    /// Pipelined throughput in multiplications per 10^6 clock cycles.
    fn throughput_per_mcc(&self, n: usize) -> f64;

    /// Total memristor cells.
    fn area_cells(&self, n: usize) -> u64;

    /// Maximum writes to one cell per multiplication
    /// (`None` = not reported, as for \[6\]).
    fn max_writes(&self, n: usize) -> Option<u64>;

    /// Area-time product: cells / throughput (Table I "ATP").
    fn atp(&self, n: usize) -> f64 {
        self.area_cells(n) as f64 / self.throughput_per_mcc(n)
    }

    /// Longest single memory line (row) the design requires, if the
    /// design concentrates a whole multiplication in one line.
    fn max_row_length(&self, n: usize) -> Option<u64> {
        let _ = n;
        None
    }
}

/// Table I operand sizes.
pub const TABLE1_SIZES: [usize; 4] = [64, 128, 256, 384];

/// \[6\] Radakovits et al. — IMPLY semi-serial schoolbook multiplier.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImplySerial;

impl MultiplierModel for ImplySerial {
    fn key(&self) -> &'static str {
        "imply-serial"
    }

    fn name(&self) -> &'static str {
        "[6] IMPLY semi-serial schoolbook"
    }

    fn throughput_per_mcc(&self, n: usize) -> f64 {
        loglog_interpolate(&[(64, 243.0), (128, 105.0), (256, 46.0), (384, 28.0)], n)
    }

    fn area_cells(&self, n: usize) -> u64 {
        // Quadratic: 2n² + n + 2 — matches all four Table I anchors.
        2 * (n as u64) * (n as u64) + n as u64 + 2
    }

    fn max_writes(&self, _n: usize) -> Option<u64> {
        None // "n.r." in Table I
    }
}

/// \[7\] Haj-Ali et al. — IMAGING: MAGIC-NOR schoolbook multiplier.
#[derive(Debug, Clone, Copy, Default)]
pub struct Imaging;

impl MultiplierModel for Imaging {
    fn key(&self) -> &'static str {
        "imaging"
    }

    fn name(&self) -> &'static str {
        "[7] MAGIC schoolbook (IMAGING)"
    }

    fn throughput_per_mcc(&self, n: usize) -> f64 {
        // O(n²) latency; anchors from Table I.
        loglog_interpolate(&[(64, 19.0), (128, 5.0), (256, 1.2), (384, 0.5)], n)
    }

    fn area_cells(&self, n: usize) -> u64 {
        // Linear: 20n − 5 — matches all four anchors exactly.
        20 * n as u64 - 5
    }

    fn max_writes(&self, n: usize) -> Option<u64> {
        // 2n rounded up to the next power of two (128…1024 in Table I).
        Some((2 * n as u64).next_power_of_two())
    }
}

/// \[8\] Lakshmi et al. — Wallace-tree multiplier in MAJORITY logic.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallaceMajority;

impl MultiplierModel for WallaceMajority {
    fn key(&self) -> &'static str {
        "wallace-majority"
    }

    fn name(&self) -> &'static str {
        "[8] MAJORITY Wallace tree"
    }

    fn throughput_per_mcc(&self, n: usize) -> f64 {
        // O(n log n)-ish latency; anchors from Table I.
        loglog_interpolate(
            &[(64, 2475.0), (128, 1155.0), (256, 525.0), (384, 313.0)],
            n,
        )
    }

    fn area_cells(&self, n: usize) -> u64 {
        // Quadratic (~8n²); anchors from Table I (1.18M at n = 384).
        loglog_interpolate(
            &[
                (64, 32_960.0),
                (128, 131_312.0),
                (256, 524_576.0),
                (384, 1_180_000.0),
            ],
            n,
        )
        .round() as u64
    }

    fn max_writes(&self, _n: usize) -> Option<u64> {
        Some(2) // fully spatial: every cell written at most twice
    }
}

/// \[9\] Leitersdorf et al. — MultPIM single-row multiplier.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultPim;

impl MultiplierModel for MultPim {
    fn key(&self) -> &'static str {
        "multpim"
    }

    fn name(&self) -> &'static str {
        "[9] MultPIM single-row"
    }

    fn throughput_per_mcc(&self, n: usize) -> f64 {
        loglog_interpolate(&[(64, 779.0), (128, 372.0), (256, 177.0), (384, 115.0)], n)
    }

    fn area_cells(&self, n: usize) -> u64 {
        // Linear: 14n − 7 — matches all four anchors exactly
        // (the paper's 5,369-memristor row at n = 384).
        14 * n as u64 - 7
    }

    fn max_writes(&self, n: usize) -> Option<u64> {
        Some(4 * n as u64) // 256…1536 in Table I
    }

    fn max_row_length(&self, n: usize) -> Option<u64> {
        // The whole multiplication lives in ONE row — the paper's
        // practicality critique (Sec. II-C).
        Some(self.area_cells(n))
    }
}

/// "Our" — the paper's Karatsuba design, via the analytic cost model
/// of [`karatsuba_cim::cost::DesignPoint`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OurKaratsuba;

impl MultiplierModel for OurKaratsuba {
    fn key(&self) -> &'static str {
        "karatsuba-cim"
    }

    fn name(&self) -> &'static str {
        "Our Karatsuba CIM (3-stage pipeline)"
    }

    fn throughput_per_mcc(&self, n: usize) -> f64 {
        DesignPoint::new(n).throughput_per_mcc()
    }

    fn area_cells(&self, n: usize) -> u64 {
        DesignPoint::new(n).area_cells()
    }

    fn max_writes(&self, n: usize) -> Option<u64> {
        Some(DesignPoint::new(n).max_writes)
    }

    fn max_row_length(&self, n: usize) -> Option<u64> {
        Some(DesignPoint::new(n).max_row_length())
    }
}

/// All five models in Table I row order (\[6\], \[7\], \[8\], \[9\], Our).
pub fn models() -> Vec<Box<dyn MultiplierModel>> {
    vec![
        Box::new(ImplySerial),
        Box::new(Imaging),
        Box::new(WallaceMajority),
        Box::new(MultPim),
        Box::new(OurKaratsuba),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tput(m: &dyn MultiplierModel, n: usize) -> u64 {
        m.throughput_per_mcc(n).round() as u64
    }

    #[test]
    fn imply_serial_anchors_exact() {
        let m = ImplySerial;
        assert_eq!(m.area_cells(64), 8_258);
        assert_eq!(m.area_cells(128), 32_898);
        assert_eq!(m.area_cells(256), 131_330);
        assert_eq!(m.area_cells(384), 295_298);
        assert_eq!(tput(&m, 64), 243);
        assert_eq!(tput(&m, 384), 28);
        assert_eq!(m.max_writes(64), None);
    }

    #[test]
    fn imaging_anchors_exact() {
        let m = Imaging;
        assert_eq!(m.area_cells(64), 1_275);
        assert_eq!(m.area_cells(128), 2_555);
        assert_eq!(m.area_cells(256), 5_115);
        assert_eq!(m.area_cells(384), 7_675);
        assert_eq!(tput(&m, 64), 19);
        assert_eq!(m.max_writes(64), Some(128));
        assert_eq!(m.max_writes(384), Some(1_024));
    }

    #[test]
    fn wallace_anchors_exact() {
        let m = WallaceMajority;
        assert_eq!(m.area_cells(64), 32_960);
        assert_eq!(m.area_cells(256), 524_576);
        assert_eq!(tput(&m, 64), 2_475);
        assert_eq!(m.max_writes(384), Some(2));
    }

    #[test]
    fn multpim_anchors_exact() {
        let m = MultPim;
        assert_eq!(m.area_cells(64), 889);
        assert_eq!(m.area_cells(128), 1_785);
        assert_eq!(m.area_cells(256), 3_577);
        assert_eq!(m.area_cells(384), 5_369);
        assert_eq!(tput(&m, 64), 779);
        assert_eq!(m.max_writes(64), Some(256));
        assert_eq!(m.max_writes(384), Some(1_536));
        assert_eq!(m.max_row_length(384), Some(5_369));
    }

    #[test]
    fn atp_matches_table1_columns() {
        // Spot checks against the printed ATPs (paper rounds).
        assert!((ImplySerial.atp(64) - 34.0).abs() < 1.0);
        assert!((Imaging.atp(64) - 67.0).abs() < 1.0);
        assert!((WallaceMajority.atp(64) - 13.0).abs() < 0.5);
        assert!((MultPim.atp(64) - 1.1).abs() < 0.1);
        assert!((MultPim.atp(384) - 47.0).abs() < 1.0);
    }

    #[test]
    fn headline_improvement_factors() {
        // Paper abstract: up to 916× throughput and 281× ATP vs [7].
        let ours = OurKaratsuba;
        let imaging = Imaging;
        let tput_gain = ours.throughput_per_mcc(384) / imaging.throughput_per_mcc(384);
        assert!(
            (900.0..=960.0).contains(&tput_gain),
            "throughput gain {tput_gain}"
        );
        let atp_gain = imaging.atp(384) / ours.atp(384);
        assert!((270.0..=295.0).contains(&atp_gain), "ATP gain {atp_gain}");
    }

    #[test]
    fn our_design_beats_multpim_on_row_length_and_writes() {
        // Paper Sec. V: 4× shorter rows, up to 7.8× fewer writes.
        let ours = OurKaratsuba;
        let multpim = MultPim;
        let row_ratio =
            multpim.max_row_length(384).unwrap() as f64 / ours.max_row_length(384).unwrap() as f64;
        assert!(row_ratio >= 4.0, "row ratio {row_ratio}");
        let write_ratio =
            multpim.max_writes(384).unwrap() as f64 / ours.max_writes(384).unwrap() as f64;
        assert!(
            (7.0..=8.5).contains(&write_ratio),
            "write ratio {write_ratio}"
        );
    }

    #[test]
    fn wallace_area_blowup_vs_ours() {
        // Paper Sec. V: [8] needs up to 1.2M cells, 47× ours at n=384.
        let ratio = WallaceMajority.area_cells(384) as f64 / OurKaratsuba.area_cells(384) as f64;
        assert!((45.0..=49.0).contains(&ratio), "area ratio {ratio}");
    }

    #[test]
    fn models_interpolate_between_anchors() {
        // At a non-anchor size the models stay monotone and finite.
        for m in models() {
            let t96 = m.throughput_per_mcc(96);
            let t64 = m.throughput_per_mcc(64);
            let t128 = m.throughput_per_mcc(128);
            assert!(
                t128 <= t96 && t96 <= t64,
                "{}: {t64} {t96} {t128}",
                m.name()
            );
            assert!(m.area_cells(96) >= m.area_cells(64));
        }
    }

    #[test]
    fn registry_has_five_models_in_table_order() {
        let keys: Vec<&str> = models().iter().map(|m| m.key()).collect();
        assert_eq!(
            keys,
            [
                "imply-serial",
                "imaging",
                "wallace-majority",
                "multpim",
                "karatsuba-cim"
            ]
        );
    }
}
