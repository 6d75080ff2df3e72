//! Software multiplication-algorithm crossover (paper Sec. III):
//! schoolbook O(n²) vs Karatsuba O(n^1.585) vs Toom-3 O(n^1.465) vs
//! unrolled Karatsuba, on host hardware. The asymptotic ordering —
//! who wins and roughly where the crossovers fall — mirrors the
//! operation-count argument the paper makes for CIM.

use cim_bigint::mul::{karatsuba, karatsuba_unrolled, schoolbook, toom};
use cim_bigint::rng::UintRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("software_multiplication");
    group.sample_size(10);
    for bits in [256usize, 1024, 4096, 16384] {
        let mut rng = UintRng::seeded(1);
        let a = rng.exact_bits(bits);
        let b = rng.exact_bits(bits);
        group.bench_with_input(BenchmarkId::new("schoolbook", bits), &bits, |bench, _| {
            bench.iter(|| schoolbook::mul(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("karatsuba", bits), &bits, |bench, _| {
            bench.iter(|| karatsuba::mul(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("toom3", bits), &bits, |bench, _| {
            bench.iter(|| toom::mul3(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("unrolled_l2", bits), &bits, |bench, _| {
            bench.iter(|| karatsuba_unrolled::mul(&a, &b, 2))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
