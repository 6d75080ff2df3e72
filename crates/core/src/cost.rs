//! Closed-form cost model of the paper's design (Secs. IV-C…IV-E and
//! Table I), generalized to arbitrary unroll depth `L` for Fig. 4.
//!
//! All formulas are taken verbatim from the paper for `L = 2`:
//!
//! * precompute latency: `8 + 10·(17 + 11·⌈log2(n/4+1)⌉) + 1`
//! * multiply latency:   `(n/4+2)·(⌈log2(n/4+2)⌉ + 14) + 3`
//! * postcompute latency: `121·⌈log2(1.5n)⌉ + 187 + 18`
//! * areas: `30·(n/4+2)`, `9·12·(n/4+2)`, `20·1.5n`
//!
//! Throughput is set by the slowest stage **plus the 27-cycle
//! operand/product handoff** (18 operand writes into the multiplication
//! stage + 9 partial-product reads out of it). With that constant the
//! model reproduces every "Our" row of Table I exactly — see
//! EXPERIMENTS.md for the paper-vs-model table.
//!
//! The per-cell write model (wear-leveled) is
//! `max(11·⌈log2 1.5n⌉ + 4, 2·(n/4+2) + 2)` — postcomputation adder
//! wear vs. multiplication-row wear — which also matches Table I
//! exactly.

use cim_logic::kogge_stone;

fn ceil_log2(n: usize) -> u64 {
    assert!(n > 0);
    (usize::BITS - (n - 1).leading_zeros()) as u64
}

/// Pipeline handoff cycles per multiplication: 18 precomputed operands
/// written into the multiplication stage plus 9 partial products read
/// out of it.
pub const HANDOFF_CYCLES: u64 = 27;

/// Per-stage and aggregate metrics for an `n`-bit multiplication at
/// unroll depth 2 (the paper's design point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Operand width in bits.
    pub n: usize,
    /// Stage 1 latency (cc).
    pub precompute_latency: u64,
    /// Stage 2 latency (cc).
    pub multiply_latency: u64,
    /// Stage 3 latency (cc).
    pub postcompute_latency: u64,
    /// Stage 1 area (cells).
    pub precompute_area: u64,
    /// Stage 2 area (cells).
    pub multiply_area: u64,
    /// Stage 3 area (cells).
    pub postcompute_area: u64,
    /// Wear-leveled maximum writes to any cell per multiplication.
    pub max_writes: u64,
}

impl DesignPoint {
    /// Evaluates the paper's formulas for an `n`-bit multiplier
    /// (`L = 2`; `n` must be divisible by 4).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n.is_multiple_of(4),
            "operand width must be a multiple of 4"
        );
        let q = n / 4;
        let w = q + 2; // multiplication-stage operand width
        DesignPoint {
            n,
            precompute_latency: 8 + 10 * (17 + 11 * ceil_log2(q + 1)) + 1,
            multiply_latency: w as u64 * (ceil_log2(w) + 14) + 3,
            postcompute_latency: 121 * ceil_log2(3 * n / 2) + 187 + 18,
            precompute_area: (8 + 10 + 12) * (w as u64),
            multiply_area: 9 * 12 * (w as u64),
            postcompute_area: (8 + 12) * (3 * n as u64 / 2),
            max_writes: (11 * ceil_log2(3 * n / 2) + 4).max(2 * w as u64 + 2),
        }
    }

    /// Total area in memristor cells (Table I "Area" column).
    pub fn area_cells(&self) -> u64 {
        self.precompute_area + self.multiply_area + self.postcompute_area
    }

    /// Latency of one multiplication: sum of stage latencies plus the
    /// three handoffs (operands in, products across, result written
    /// back to main memory).
    pub fn latency(&self) -> u64 {
        self.precompute_latency
            + self.multiply_latency
            + self.postcompute_latency
            + 3 * HANDOFF_CYCLES
    }

    /// Pipeline initiation interval: the slowest stage plus handoff.
    pub fn initiation_interval(&self) -> u64 {
        self.precompute_latency
            .max(self.multiply_latency)
            .max(self.postcompute_latency)
            + HANDOFF_CYCLES
    }

    /// Pipelined throughput in multiplications per 10^6 clock cycles
    /// (Table I "Throughput" column).
    pub fn throughput_per_mcc(&self) -> f64 {
        1.0e6 / self.initiation_interval() as f64
    }

    /// Area-time product: cells / throughput (Table I "ATP" column).
    pub fn atp(&self) -> f64 {
        self.area_cells() as f64 / self.throughput_per_mcc()
    }

    /// The widest crossbar row any stage needs (the paper's argument
    /// against single-row designs: ours stays 4× shorter than
    /// MultPIM's at n = 384).
    pub fn max_row_length(&self) -> u64 {
        let w = (self.n / 4 + 2) as u64;
        (12 * w).max(3 * self.n as u64 / 2)
    }
}

/// Generalized cost model for arbitrary unroll depth `L ≥ 1` — the
/// model behind Fig. 4 (ATP vs. depth). At `L = 2` it coincides with
/// [`DesignPoint`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthCostModel {
    /// Operand width in bits.
    pub n: usize,
    /// Unroll depth.
    pub depth: u32,
}

impl DepthCostModel {
    /// Creates a model for an `n`-bit multiplier unrolled `depth`
    /// times.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` or `n < 2^depth`.
    pub fn new(n: usize, depth: u32) -> Self {
        assert!(depth > 0, "depth must be at least 1");
        assert!(n >= 1 << depth, "operand too small for depth {depth}");
        DepthCostModel { n, depth }
    }

    /// Base chunk width `n / 2^L` (rounded up).
    pub fn chunk_bits(&self) -> usize {
        self.n.div_ceil(1 << self.depth)
    }

    /// Precomputation adder width: widest precompute operand,
    /// `chunk + L − 1` bits.
    pub fn pre_adder_width(&self) -> usize {
        self.chunk_bits() + self.depth as usize - 1
    }

    /// Multiplication operand width: `chunk + L` bits.
    pub fn mult_width(&self) -> usize {
        self.chunk_bits() + self.depth as usize
    }

    /// Number of precomputation additions (both operands):
    /// 2, 10, 38, 140 for L = 1..4 (paper Sec. III-C2).
    pub fn precompute_additions(&self) -> u64 {
        cim_bigint::opcount::karatsuba_unrolled_counts(self.depth).precompute_additions
    }

    /// Number of partial multiplications: `3^L`.
    pub fn multiplications(&self) -> u64 {
        3u64.pow(self.depth)
    }

    /// Number of postcomputation adder passes after batching:
    /// `Σ_ℓ ⌈3^(L−ℓ)/2⌉·4 − 1` (3 for L = 1, 11 for L = 2 — both as
    /// in the paper; see DESIGN.md §1 for the derivation).
    pub fn postcompute_passes(&self) -> u64 {
        let mut passes = 0u64;
        for level in 1..=self.depth {
            let nodes = 3u64.pow(self.depth - level);
            passes += nodes.div_ceil(2) * 4;
        }
        passes - 1
    }

    /// Stage 1 latency: input writes + sequential additions + reset.
    pub fn precompute_latency(&self) -> u64 {
        let inputs = 2u64 << self.depth; // 2^(L+1) chunks
        inputs + self.precompute_additions() * (17 + 11 * ceil_log2(self.pre_adder_width())) + 1
    }

    /// Stage 2 latency: `3^L` parallel row multiplications.
    pub fn multiply_latency(&self) -> u64 {
        let w = self.mult_width();
        w as u64 * (ceil_log2(w) + 14) + 3
    }

    /// Stage 3 latency: batched passes on the `1.5n`-bit adder plus
    /// reorder/reset.
    pub fn postcompute_latency(&self) -> u64 {
        self.postcompute_passes() * (17 + 11 * ceil_log2(3 * self.n / 2)) + 18
    }

    /// Stage areas in cells, `(pre, mult, post)`.
    pub fn areas(&self) -> (u64, u64, u64) {
        let inputs = 2u64 << self.depth;
        let results = self.precompute_additions();
        let pre_cols = (self.pre_adder_width() + 1) as u64;
        let pre = (inputs + results + kogge_stone::SCRATCH_ROWS as u64) * pre_cols;
        let mult = self.multiplications() * 12 * self.mult_width() as u64;
        let post = 20 * (3 * self.n as u64 / 2);
        (pre, mult, post)
    }

    /// Total area in cells.
    pub fn area_cells(&self) -> u64 {
        let (a, b, c) = self.areas();
        a + b + c
    }

    /// Initiation interval: slowest stage + handoff (the handoff
    /// scales with the number of operands/products moved).
    pub fn initiation_interval(&self) -> u64 {
        let handoff = 2 * self.multiplications() + self.multiplications();
        self.precompute_latency()
            .max(self.multiply_latency())
            .max(self.postcompute_latency())
            + handoff
    }

    /// Throughput in multiplications per 10^6 cycles.
    pub fn throughput_per_mcc(&self) -> f64 {
        1.0e6 / self.initiation_interval() as f64
    }

    /// Area-time product (cells / throughput) — the Fig. 4 y-axis.
    pub fn atp(&self) -> f64 {
        self.area_cells() as f64 / self.throughput_per_mcc()
    }
}

/// Ablation of the **recursive** (non-unrolled) Karatsuba
/// precomputation the paper rejects in Sec. III-C1, quantified for
/// depth 2. Recursive precomputation needs additions at two widths
/// (`n/2` on level 1, `n/4+1` on level 2), leaving two bad options:
///
/// * **(i) one adder array per width** — extra area;
/// * **(ii) one oversized adder** — the narrow additions underutilize
///   it and every addition pays the wide adder's latency.
///
/// The unrolled design needs a single `n/4+1`-bit adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecursivePrecomputeAblation {
    /// Operand width.
    pub n: usize,
    /// Area of strategy (i): two adder units (15 rows × width+1 each).
    pub multi_array_area: u64,
    /// Latency of strategy (i): 2 wide + 6 narrow additions
    /// (the level-1→level-2 dependency serializes them).
    pub multi_array_latency: u64,
    /// Area of strategy (ii): one n/2-bit adder unit.
    pub single_array_area: u64,
    /// Latency of strategy (ii): all 8 additions at full width.
    pub single_array_latency: u64,
    /// Area of the unrolled design's single n/4+1-bit adder unit.
    pub unrolled_area: u64,
    /// Latency of the unrolled design's 10 uniform additions.
    pub unrolled_latency: u64,
}

impl RecursivePrecomputeAblation {
    /// Evaluates the ablation for an `n`-bit multiplier (depth 2).
    ///
    /// Adder units are counted as 15 rows (2 operands + sum +
    /// 12 scratch) × (width + 1) columns; addition latency is the
    /// Kogge-Stone `17 + 11·⌈log2 w⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n.is_multiple_of(4),
            "operand width must be a multiple of 4"
        );
        let unit_area = |w: usize| 15 * (w as u64 + 1);
        let add_lat = |w: usize| 17 + 11 * ceil_log2(w);
        let wide = n / 2;
        let narrow = n / 4 + 1;
        RecursivePrecomputeAblation {
            n,
            multi_array_area: unit_area(wide) + unit_area(narrow),
            multi_array_latency: 2 * add_lat(wide) + 6 * add_lat(narrow),
            single_array_area: unit_area(wide),
            single_array_latency: 8 * add_lat(wide),
            unrolled_area: unit_area(narrow),
            unrolled_latency: 10 * add_lat(narrow),
        }
    }

    /// Area overhead of strategy (i) relative to the unrolled adder.
    pub fn multi_array_area_overhead(&self) -> f64 {
        self.multi_array_area as f64 / self.unrolled_area as f64
    }

    /// Utilization of the oversized adder in strategy (ii) for the
    /// narrow (level-2) additions.
    pub fn single_array_utilization(&self) -> f64 {
        (self.n as f64 / 4.0 + 1.0) / (self.n as f64 / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model must reproduce every "Our" row of Table I exactly.
    #[test]
    fn table1_area_exact() {
        assert_eq!(DesignPoint::new(64).area_cells(), 4_404);
        assert_eq!(DesignPoint::new(128).area_cells(), 8_532);
        assert_eq!(DesignPoint::new(256).area_cells(), 16_788);
        assert_eq!(DesignPoint::new(384).area_cells(), 25_044);
    }

    #[test]
    fn table1_throughput_exact() {
        // Paper: 927, 833, 706, 479 mult/Mcc.
        let tput = |n: usize| DesignPoint::new(n).throughput_per_mcc().round() as u64;
        assert_eq!(tput(64), 927);
        assert_eq!(tput(128), 833);
        assert_eq!(tput(256), 706);
        assert_eq!(tput(384), 479);
    }

    #[test]
    fn table1_max_writes_exact() {
        assert_eq!(DesignPoint::new(64).max_writes, 81);
        assert_eq!(DesignPoint::new(128).max_writes, 92);
        assert_eq!(DesignPoint::new(256).max_writes, 134);
        assert_eq!(DesignPoint::new(384).max_writes, 198);
    }

    #[test]
    fn table1_atp_matches() {
        // Paper: 4.8, 10, 24, 52.
        assert!((DesignPoint::new(64).atp() - 4.8).abs() < 0.1);
        assert!((DesignPoint::new(128).atp() - 10.0).abs() < 0.3);
        assert!((DesignPoint::new(256).atp() - 24.0).abs() < 0.5);
        assert!((DesignPoint::new(384).atp() - 52.0).abs() < 0.5);
    }

    #[test]
    fn stage_latencies_follow_paper_formulas() {
        let p = DesignPoint::new(256);
        // pre: 8 + 10·(17 + 11·⌈log2 65⌉) + 1 = 8 + 10·94 + 1 = 949
        assert_eq!(p.precompute_latency, 949);
        // mult: 66·(7+14)+3 = 1389
        assert_eq!(p.multiply_latency, 1389);
        // post: 121·9 + 187 + 18 = 1294
        assert_eq!(p.postcompute_latency, 1294);
    }

    #[test]
    fn precompute_array_example_from_paper() {
        // Paper Sec. IV-C: n = 256 → precompute array = 1,980 memristors.
        assert_eq!(DesignPoint::new(256).precompute_area, 1_980);
    }

    #[test]
    fn depth_2_model_coincides_with_design_point() {
        for n in [64usize, 128, 256, 384] {
            let d = DesignPoint::new(n);
            let g = DepthCostModel::new(n, 2);
            assert_eq!(g.multiply_latency(), d.multiply_latency, "n={n}");
            assert_eq!(g.postcompute_latency(), d.postcompute_latency, "n={n}");
            assert_eq!(g.precompute_latency(), d.precompute_latency, "n={n}");
            assert_eq!(g.initiation_interval(), d.initiation_interval(), "n={n}");
            // Areas: mult and post identical; pre identical at L=2.
            assert_eq!(g.area_cells(), d.area_cells(), "n={n}");
        }
    }

    /// Fig. 4: L = 2 minimizes ATP across cryptographically relevant
    /// sizes. In our generalized model L = 1 and L = 2 are within ~1 %
    /// of each other up to n = 128 (crossover), and L = 2 wins strictly
    /// for n ≥ 192 — the paper's qualitative conclusion; see
    /// EXPERIMENTS.md.
    #[test]
    fn fig4_l2_is_optimal() {
        for n in [192usize, 256, 320, 384, 512] {
            let atps: Vec<f64> = (1..=4).map(|l| DepthCostModel::new(n, l).atp()).collect();
            let best = atps
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .expect("non-empty")
                .0
                + 1;
            assert_eq!(best, 2, "n = {n}: ATPs = {atps:?}");
        }
        // Near the crossover L = 1 and L = 2 are within a few percent.
        for n in [64usize, 128] {
            let l1 = DepthCostModel::new(n, 1).atp();
            let l2 = DepthCostModel::new(n, 2).atp();
            assert!((l2 - l1).abs() / l1 < 1.0, "n = {n}: {l1} vs {l2}");
        }
        // Depth 3 and 4 are never competitive at any evaluated size.
        for n in [64usize, 384] {
            assert!(DepthCostModel::new(n, 3).atp() > DepthCostModel::new(n, 2).atp());
            assert!(DepthCostModel::new(n, 4).atp() > DepthCostModel::new(n, 3).atp());
        }
    }

    #[test]
    fn postcompute_pass_counts() {
        assert_eq!(DepthCostModel::new(64, 1).postcompute_passes(), 3);
        assert_eq!(DepthCostModel::new(64, 2).postcompute_passes(), 11);
        assert_eq!(DepthCostModel::new(64, 3).postcompute_passes(), 31);
    }

    #[test]
    fn row_length_advantage_over_multpim() {
        // Paper Sec. V: our design reduces the memory row length by 4×
        // vs MultPIM's 5,369-cell row at n = 384.
        let ours = DesignPoint::new(384).max_row_length();
        assert!(ours * 4 <= 5369 + ours, "row length {ours} too long");
        assert_eq!(ours, 1176); // 12·(n/4+2) = 1176 dominates 1.5n = 576
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn rejects_unaligned_width() {
        DesignPoint::new(100 + 1);
    }

    /// Sec. III-C1 quantified: both recursive strategies lose to the
    /// unrolled organization.
    #[test]
    fn recursive_precompute_is_strictly_worse() {
        for n in [64usize, 128, 256, 384] {
            let ab = RecursivePrecomputeAblation::new(n);
            // (i) multiple arrays: ~3x the adder area.
            assert!(
                ab.multi_array_area_overhead() > 2.5,
                "n={n}: overhead {}",
                ab.multi_array_area_overhead()
            );
            // (ii) oversized array: ~50% utilization on narrow adds
            // and no latency win over unrolled despite 2x area.
            assert!(ab.single_array_utilization() < 0.6, "n={n}");
            assert!(
                ab.single_array_area as f64 > 1.7 * ab.unrolled_area as f64,
                "n={n}"
            );
            // Latency: recursive does fewer (8 vs 10) additions, so it
            // can be slightly faster in pure adds — but never by
            // enough to pay for 2-3x area: the area-latency product
            // favors unrolled in both strategies.
            let unrolled_alp = ab.unrolled_area as f64 * ab.unrolled_latency as f64;
            let multi_alp = ab.multi_array_area as f64 * ab.multi_array_latency as f64;
            let single_alp = ab.single_array_area as f64 * ab.single_array_latency as f64;
            assert!(
                multi_alp > unrolled_alp,
                "n={n}: multi {multi_alp} vs {unrolled_alp}"
            );
            assert!(
                single_alp > unrolled_alp,
                "n={n}: single {single_alp} vs {unrolled_alp}"
            );
        }
    }
}
