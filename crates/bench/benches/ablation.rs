//! Ablations of the paper's design choices:
//!
//! * **unroll depth L** (Fig. 4's ATP argument, here as simulated
//!   software dataflow cost and the analytic model);
//! * **wear-leveling** (Sec. IV-B): endurance with and without region
//!   rotation, at zero cycle cost;
//! * **LSB optimization** (Sec. IV-E): postcompute adder width 1.5n
//!   vs naive 2n.

use cim_bigint::mul::karatsuba_unrolled;
use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_logic::kogge_stone::{AdderUnit, KoggeStoneAdder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use karatsuba_cim::cost::DepthCostModel;

fn bench_depth(c: &mut Criterion) {
    println!("analytic ATP by unroll depth (Fig. 4 ablation):");
    for n in [128usize, 384] {
        let atps: Vec<String> = (1..=4)
            .map(|l| format!("L{l}={:.1}", DepthCostModel::new(n, l).atp()))
            .collect();
        println!("  n = {n:>3}: {}", atps.join("  "));
    }

    // Simulated L = 1 vs L = 2 (functional pipelines, not models).
    let n = 128;
    let mut rng0 = UintRng::seeded(60);
    let a = rng0.exact_bits(n);
    let b = rng0.exact_bits(n);
    let d1 = karatsuba_cim::depth1::KaratsubaDepth1Multiplier::new(n).expect("d1");
    let o1 = d1.multiply(&a, &b).expect("mul");
    let d2 = karatsuba_cim::multiplier::KaratsubaCimMultiplier::new(n).expect("d2");
    let o2 = d2.multiply(&a, &b).expect("mul");
    println!(
        "simulated at n = {n}: L1 stages {:?} ({} cells, rows ≤ {}) vs L2 stages {:?} ({} cells)",
        o1.stage_cycles,
        o1.area_cells,
        d1.mult_row_length(),
        o2.report.stage_cycles,
        o2.report.area_cells
    );

    let mut group = c.benchmark_group("unroll_depth_software");
    let mut rng = UintRng::seeded(6);
    let a = rng.exact_bits(4096);
    let b = rng.exact_bits(4096);
    for depth in 1..=4u32 {
        group.bench_with_input(BenchmarkId::new("depth", depth), &depth, |bench, &d| {
            bench.iter(|| karatsuba_unrolled::mul(&a, &b, d))
        });
    }
    group.finish();
}

fn bench_wear_leveling(c: &mut Criterion) {
    // Endurance ablation: identical work, measure peak wear.
    let ops = 60usize;
    let mut rng = UintRng::seeded(7);
    let pairs: Vec<(Uint, Uint)> = (0..ops)
        .map(|_| (rng.uniform(64), rng.uniform(64)))
        .collect();
    for leveling in [false, true] {
        let mut unit = AdderUnit::new(64, leveling).expect("unit");
        for (a, b) in &pairs {
            unit.add(a, b).expect("add");
        }
        let e = unit.endurance();
        println!(
            "wear-leveling {}: peak {:>4} writes, balance {:.2}, {} cc total",
            if leveling { "ON " } else { "OFF" },
            e.max_writes,
            e.balance(),
            unit.cycles()
        );
    }

    let mut group = c.benchmark_group("wear_leveling_cost");
    group.sample_size(20);
    for leveling in [false, true] {
        group.bench_with_input(
            BenchmarkId::new("adds_64bit", leveling),
            &leveling,
            |bench, &lvl| {
                bench.iter(|| {
                    let mut unit = AdderUnit::new(64, lvl).expect("unit");
                    let a = Uint::from_u64(0xDEAD_BEEF);
                    let b = Uint::from_u64(0x1234_5678);
                    for _ in 0..8 {
                        unit.add(&a, &b).expect("add");
                    }
                    unit.cycles()
                })
            },
        );
    }
    group.finish();
}

fn bench_lsb_optimization(c: &mut Criterion) {
    // Postcompute adder width: the paper's 1.5n vs a naive 2n adder.
    println!("LSB-optimization ablation (postcompute adder pass, one add):");
    for n in [64usize, 384] {
        let opt = KoggeStoneAdder::new(3 * n / 2);
        let naive = KoggeStoneAdder::new(2 * n);
        println!(
            "  n = {n:>3}: 1.5n-adder {} cc / {} cols  vs  2n-adder {} cc / {} cols (area −25%)",
            opt.latency(),
            opt.required_cols(),
            naive.latency(),
            naive.required_cols()
        );
    }
    let mut group = c.benchmark_group("postcompute_adder_width");
    group.sample_size(10);
    let mut rng = UintRng::seeded(8);
    let n = 64usize;
    let a = rng.uniform(3 * n / 2);
    let b = rng.uniform(3 * n / 2);
    let opt = KoggeStoneAdder::new(3 * n / 2);
    group.bench_with_input(BenchmarkId::new("width_1.5n", n), &n, |bench, _| {
        bench.iter(|| opt.add(&a, &b).expect("add"))
    });
    let naive = KoggeStoneAdder::new(2 * n);
    group.bench_with_input(BenchmarkId::new("width_2n", n), &n, |bench, _| {
        bench.iter(|| naive.add(&a, &b).expect("add"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_depth,
    bench_wear_leveling,
    bench_lsb_optimization
);
criterion_main!(benches);
