//! Every numerical claim made in the paper, asserted against this
//! reproduction. Claims are grouped by paper section; each test cites
//! the sentence it checks.

use cim_baselines::{Imaging, MultPim, MultiplierModel, OurKaratsuba, WallaceMajority};
use cim_bigint::opcount::{karatsuba_unrolled_counts, toom_counts};
use cim_logic::kogge_stone::KoggeStoneAdder;
use cim_logic::multpim::RowMultiplier;
use karatsuba_cim::cost::{DepthCostModel, DesignPoint};

/// Abstract: "our design achieves up to 916× in throughput and 281× in
/// area-time product improvements."
#[test]
fn abstract_headline_factors() {
    let ours = OurKaratsuba;
    let tput_gain = ours.throughput_per_mcc(384) / Imaging.throughput_per_mcc(384);
    // The paper computes 916× from unrounded [7] throughput (0.523
    // mult/Mcc); from the printed 0.5 the factor is 958×. Both bracket
    // our model:
    assert!((900.0..=960.0).contains(&tput_gain), "{tput_gain}");
    let atp_gain = Imaging.atp(384) / ours.atp(384);
    assert!((270.0..=295.0).contains(&atp_gain), "{atp_gain}");
}

/// Sec. II-C: "a n = 384-bit multiplication requires a bit line with
/// 5,369 memristors" (MultPIM).
#[test]
fn multpim_row_length() {
    assert_eq!(MultPim.max_row_length(384), Some(5369));
}

/// Sec. III-B: "interpolation requires 25, 49, and 81 multiplications
/// for k = 3, 4, and 5."
#[test]
fn toom_interpolation_counts() {
    assert_eq!(toom_counts(3).interpolation_multiplications, 25);
    assert_eq!(toom_counts(4).interpolation_multiplications, 49);
    assert_eq!(toom_counts(5).interpolation_multiplications, 81);
}

/// Sec. III-C2: "we need 9, 27, and 81 multiplications and 10, 38, and
/// 140 additions in precomputation for L = 2, 3, and 4."
#[test]
fn unrolled_karatsuba_op_counts() {
    for (l, mults, adds) in [(2u32, 9, 10), (3, 27, 38), (4, 81, 140)] {
        let c = karatsuba_unrolled_counts(l);
        assert_eq!(c.multiplications, mults, "L={l}");
        assert_eq!(c.precompute_additions, adds, "L={l}");
    }
}

/// Sec. III-C2 / Fig. 4: "L = 2 leads to the lowest ATP across
/// cryptographically relevant multiplication sizes."
#[test]
fn depth_two_is_the_design_point() {
    for n in [192usize, 256, 320, 384] {
        let best = (1..=4u32)
            .min_by(|&a, &b| {
                DepthCostModel::new(n, a)
                    .atp()
                    .partial_cmp(&DepthCostModel::new(n, b).atp())
                    .expect("finite")
            })
            .expect("non-empty");
        assert_eq!(best, 2, "n = {n}");
    }
}

/// Sec. IV-B: "our n-bit Kogge-Stone adder has an overall latency of
/// 8 + 11⌈log2(n)⌉ + 9 cc" on "n+1 columns" with "12 rows" of scratch.
#[test]
fn kogge_stone_latency_and_geometry() {
    for n in [4usize, 64, 97, 384] {
        let adder = KoggeStoneAdder::new(n);
        let levels = (usize::BITS - (n - 1).leading_zeros()) as u64;
        assert_eq!(adder.latency(), 8 + 11 * levels + 9, "n={n}");
        assert_eq!(adder.required_cols(), n + 1, "n={n}");
    }
    assert_eq!(cim_logic::kogge_stone::SCRATCH_ROWS, 12);
}

/// Sec. IV-C: "a precomputation array dimension of (8+10+12) × (n/4+2)
/// ... in n = 256-bit multiplication, the precomputation array
/// consumes 1,980 memristors" and latency
/// "8 + 10(17 + 11⌈log2(n/4+1)⌉) + 1 cc".
#[test]
fn precompute_stage_formulas() {
    let d = DesignPoint::new(256);
    assert_eq!(d.precompute_area, 1980);
    assert_eq!(d.precompute_latency, 8 + 10 * (17 + 11 * 7) + 1);
}

/// Sec. IV-D: multiplication stage area "9 × 12(n/4+2)" and latency
/// "(n/4+2)·(⌈log2(n/4+2)⌉ + 14) + 3 cc".
#[test]
fn multiply_stage_formulas() {
    for n in [64usize, 128, 256, 384] {
        let d = DesignPoint::new(n);
        let w = (n / 4 + 2) as u64;
        assert_eq!(d.multiply_area, 9 * 12 * w, "n={n}");
        let levels = (usize::BITS - (n / 4 + 2 - 1).leading_zeros()) as u64;
        assert_eq!(d.multiply_latency, w * (levels + 14) + 3, "n={n}");
    }
}

/// Sec. IV-E: postcomputation area "(8+12) × 1.5n" (25% saved by the
/// LSB optimization) and latency "121⌈log2(1.5n)⌉ + 187 + 18 cc".
#[test]
fn postcompute_stage_formulas() {
    for n in [64usize, 384] {
        let d = DesignPoint::new(n);
        assert_eq!(d.postcompute_area, 20 * 3 * n as u64 / 2, "n={n}");
        let levels = (usize::BITS - (3 * n / 2 - 1).leading_zeros()) as u64;
        assert_eq!(d.postcompute_latency, 121 * levels + 187 + 18, "n={n}");
        // LSB optimization: a naive 2n-wide stage would be 1/3 larger.
        let naive = 20 * 2 * n as u64;
        assert!(
            (naive - d.postcompute_area) * 4 == naive,
            "exactly 25% saved"
        );
    }
}

/// Table I, "Our" rows: throughput 927/833/706/479 mult/Mcc, area
/// 4,404/8,532/16,788/25,044 cells, ATP 4.8/10/24/52, max writes
/// 81/92/134/198.
#[test]
fn table1_our_rows_exact() {
    let expect = [
        (64usize, 927u64, 4_404u64, 4.8f64, 81u64),
        (128, 833, 8_532, 10.0, 92),
        (256, 706, 16_788, 24.0, 134),
        (384, 479, 25_044, 52.0, 198),
    ];
    for (n, tput, area, atp, writes) in expect {
        let d = DesignPoint::new(n);
        assert_eq!(d.throughput_per_mcc().round() as u64, tput, "n={n}");
        assert_eq!(d.area_cells(), area, "n={n}");
        assert!((d.atp() - atp).abs() < 0.55, "n={n}: atp {}", d.atp());
        assert_eq!(d.max_writes, writes, "n={n}");
    }
}

/// Table I, baseline anchor rows (areas are the crisp ones).
#[test]
fn table1_baseline_areas_exact() {
    assert_eq!(Imaging.area_cells(64), 1_275);
    assert_eq!(Imaging.area_cells(384), 7_675);
    assert_eq!(MultPim.area_cells(64), 889);
    assert_eq!(WallaceMajority.area_cells(128), 131_312);
}

/// Sec. V: "[8] ... requiring up to 1.2 million memory cells ...
/// 47× larger than our design for n = 384."
#[test]
fn wallace_area_factor() {
    let ratio = WallaceMajority.area_cells(384) as f64 / OurKaratsuba.area_cells(384) as f64;
    assert!((45.0..=49.0).contains(&ratio), "{ratio}");
}

/// Sec. V: "our design reduces the memory row length by 4× and
/// decreases write operations by up to 7.8×" (vs [9], n = 384).
#[test]
fn multpim_row_and_write_factors() {
    let ours = OurKaratsuba;
    let row_factor =
        MultPim.max_row_length(384).unwrap() as f64 / ours.max_row_length(384).unwrap() as f64;
    assert!(row_factor >= 4.0, "{row_factor}");
    let write_factor =
        MultPim.max_writes(384).unwrap() as f64 / ours.max_writes(384).unwrap() as f64;
    assert!((7.5..=8.0).contains(&write_factor), "{write_factor}");
}

/// Sec. V: vs [6] "throughput between 3.8× and 17×", "area up to
/// 11.8× lower", "ATP improves by 7× to 204×".
#[test]
fn imply_serial_factors() {
    let ours = OurKaratsuba;
    let six = cim_baselines::ImplySerial;
    let t64 = ours.throughput_per_mcc(64) / six.throughput_per_mcc(64);
    let t384 = ours.throughput_per_mcc(384) / six.throughput_per_mcc(384);
    assert!((3.6..=4.0).contains(&t64), "{t64}");
    assert!((16.5..=17.5).contains(&t384), "{t384}");
    let area384 = six.area_cells(384) as f64 / ours.area_cells(384) as f64;
    assert!((11.0..=12.5).contains(&area384), "{area384}");
    let atp64 = six.atp(64) / ours.atp(64);
    let atp384 = six.atp(384) / ours.atp(384);
    assert!((6.5..=7.5).contains(&atp64), "{atp64}");
    assert!((195.0..=210.0).contains(&atp384), "{atp384}");
}

/// Sec. V: vs [7] "between 49× and 916× higher throughput at the cost
/// of 3.5× more area; ... 14× to 281× better ATP ... max write
/// operations 1.6× to 5.2× less."
#[test]
fn imaging_factors() {
    let ours = OurKaratsuba;
    let t64 = ours.throughput_per_mcc(64) / Imaging.throughput_per_mcc(64);
    assert!((47.0..=50.0).contains(&t64), "{t64}");
    let area64 = ours.area_cells(64) as f64 / Imaging.area_cells(64) as f64;
    assert!((3.2..=3.6).contains(&area64), "{area64}");
    let atp64 = Imaging.atp(64) / ours.atp(64);
    assert!((13.0..=15.0).contains(&atp64), "{atp64}");
    let w64 = Imaging.max_writes(64).unwrap() as f64 / ours.max_writes(64).unwrap() as f64;
    let w384 = Imaging.max_writes(384).unwrap() as f64 / ours.max_writes(384).unwrap() as f64;
    assert!((1.5..=1.7).contains(&w64), "{w64}");
    assert!((5.0..=5.4).contains(&w384), "{w384}");
}

/// Sec. IV-D: the paper's optimized in-row multiplier uses 12 cells
/// per bit (vs MultPIM's ~14).
#[test]
fn row_multiplier_density() {
    let w = 66; // n = 256 stage width
    assert_eq!(RowMultiplier::new(w).required_cols(), 12 * w);
    assert!(RowMultiplier::new(384).required_cols() < MultPim.area_cells(384) as usize);
}
