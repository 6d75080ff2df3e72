//! Reproduces **Fig. 4**: area-time product (ATP) of the unrolled
//! Karatsuba multiplier for depths L = 1…4 across multiplication
//! sizes n. The paper's conclusion: **L = 2** yields the lowest ATP
//! across cryptographically relevant sizes.
//!
//! ```text
//! cargo run -p cim-bench --bin fig4
//! ```

use cim_bench::TextTable;
use karatsuba_cim::cost::DepthCostModel;

fn main() {
    println!("FIG. 4 — AREA-TIME PRODUCT vs UNROLL DEPTH L\n");

    let sizes = [64usize, 128, 192, 256, 320, 384, 512];
    let depths = [1u32, 2, 3, 4];

    let mut table = TextTable::new(&["n", "L=1", "L=2", "L=3", "L=4", "best"]);
    for &n in &sizes {
        let atps: Vec<f64> = depths
            .iter()
            .map(|&l| DepthCostModel::new(n, l).atp())
            .collect();
        let best = depths[atps
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty")
            .0];
        table.row(&[
            n.to_string(),
            format!("{:.1}", atps[0]),
            format!("{:.1}", atps[1]),
            format!("{:.1}", atps[2]),
            format!("{:.1}", atps[3]),
            format!("L={best}"),
        ]);
    }
    println!("{}", table.render());

    // ASCII plot: ATP (log scale) vs n, one curve per depth.
    println!("ATP (log scale, '1'..'4' = depth L):\n");
    let rows = 16;
    let all: Vec<Vec<f64>> = sizes
        .iter()
        .map(|&n| {
            depths
                .iter()
                .map(|&l| DepthCostModel::new(n, l).atp())
                .collect()
        })
        .collect();
    let min = all.iter().flatten().fold(f64::MAX, |a, &b| a.min(b)).ln();
    let max = all.iter().flatten().fold(f64::MIN, |a, &b| a.max(b)).ln();
    let mut grid = vec![vec![' '; sizes.len() * 6]; rows];
    for (ci, atps) in all.iter().enumerate() {
        for (di, &atp) in atps.iter().enumerate() {
            let y = ((atp.ln() - min) / (max - min) * (rows - 1) as f64).round() as usize;
            let row = rows - 1 - y;
            let col = ci * 6 + di;
            grid[row][col] = char::from_digit(di as u32 + 1, 10).expect("1-4");
        }
    }
    for row in grid {
        let line: String = row.into_iter().collect();
        println!("  |{}", line.trim_end());
    }
    println!("  +{}", "-".repeat(sizes.len() * 6));
    let labels: Vec<String> = sizes.iter().map(|n| format!("{n:<6}")).collect();
    println!("   {}", labels.concat());
    println!("\nConclusion: L = 2 minimizes ATP across cryptographically relevant");
    println!("sizes (L = 1 is competitive only below n = 128; L ≥ 3 never wins).");
}
