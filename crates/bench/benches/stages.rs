//! Simulated pipeline-stage execution (Table I substrate): wall-clock
//! cost of cycle-accurately simulating each stage, plus the end-to-end
//! multiplier, at the paper's operand sizes. The *simulated cycle*
//! numbers these stages report are asserted against the paper's
//! formulas in the test suites; this bench tracks simulator speed.
//! The `*_lanes` entries time the three batch stage cores on a full
//! 64-lane, 384-bit O3 batch kept in lane words — the split of one
//! `multiply_batch` op, without its edge transposes and gold check.

use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_mir::OptLevel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use karatsuba_cim::chunks::decompose_operand;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use karatsuba_cim::multiply::MultiplyStage;
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::PrecomputeStage;

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulated_stages");
    group.sample_size(10);
    for n in [64usize, 256] {
        let mut rng = UintRng::seeded(2);
        let a = rng.exact_bits(n);
        let b = rng.exact_bits(n);
        let da = decompose_operand(&a, n);
        let db = decompose_operand(&b, n);
        let products: [cim_bigint::Uint; 9] =
            std::array::from_fn(|i| &da.leaves[i] * &db.leaves[i]);

        let pre = PrecomputeStage::new(n).expect("stage");
        group.bench_with_input(BenchmarkId::new("precompute", n), &n, |bench, _| {
            bench.iter(|| pre.run(&a, &b).expect("run"))
        });
        let mult = MultiplyStage::new(n).expect("stage");
        group.bench_with_input(BenchmarkId::new("multiply", n), &n, |bench, _| {
            bench.iter(|| mult.run(&da.leaves, &db.leaves).expect("run"))
        });
        let post = PostcomputeStage::new(n).expect("stage");
        group.bench_with_input(BenchmarkId::new("postcompute", n), &n, |bench, _| {
            bench.iter(|| post.run(&products).expect("run"))
        });
        let full = KaratsubaCimMultiplier::new(n).expect("multiplier");
        group.bench_with_input(BenchmarkId::new("end_to_end", n), &n, |bench, _| {
            bench.iter(|| full.multiply(&a, &b).expect("run"))
        });
    }
    group.finish();
}

fn bench_lane_cores(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_stage_cores");
    group.sample_size(10);
    let (n, lanes) = (384usize, 64usize);
    let mut rng = UintRng::seeded(3);
    let pairs: Vec<(Uint, Uint)> = (0..lanes)
        .map(|_| (rng.uniform(n), rng.uniform(n)))
        .collect();
    let (a, b) = cim_logic::pair_lanes(&pairs, n);
    let pre = PrecomputeStage::with_opt_level(n, OptLevel::O3).expect("stage");
    let mult = MultiplyStage::with_opt_level(n, OptLevel::O3).expect("stage");
    let post = PostcomputeStage::with_opt_level(n, OptLevel::O3).expect("stage");
    let leaves = pre.run_batch_lanes(&a, &b, lanes).expect("run");
    let products = mult
        .run_batch_lanes(&leaves.a_leaves, &leaves.b_leaves, lanes)
        .expect("run")
        .products;
    let id = |stage: &str| BenchmarkId::new(stage, format!("{lanes}x{n}"));
    group.bench_function(id("precompute_lanes"), |bench| {
        bench.iter(|| pre.run_batch_lanes(&a, &b, lanes).expect("run"))
    });
    group.bench_function(id("multiply_lanes"), |bench| {
        bench.iter(|| {
            mult.run_batch_lanes(&leaves.a_leaves, &leaves.b_leaves, lanes)
                .expect("run")
        })
    });
    group.bench_function(id("postcompute_lanes"), |bench| {
        bench.iter(|| post.run_batch_lanes(&products, lanes).expect("run"))
    });
    group.finish();
}

criterion_group!(benches, bench_stages, bench_lane_cores);
criterion_main!(benches);
