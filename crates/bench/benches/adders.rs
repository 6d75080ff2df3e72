//! In-memory adder comparison (paper Sec. IV-B design choice):
//! Kogge-Stone (O(log n) cycles) vs ripple-carry (O(n) cycles).
//! Criterion measures host wall-clock of the simulation; the simulated
//! cycle counts (83 vs 962 at 64 bits) are what the paper's argument
//! rests on and are printed once per run.

use cim_bigint::rng::UintRng;
use cim_logic::kogge_stone::KoggeStoneAdder;
use cim_logic::ripple::RippleCarryAdder;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_adders(c: &mut Criterion) {
    println!("simulated cycle counts (the paper's metric):");
    for width in [16usize, 64, 384] {
        println!(
            "  width {width:>4}: Kogge-Stone {:>4} cc  vs  ripple {:>5} cc",
            KoggeStoneAdder::new(width).latency(),
            RippleCarryAdder::new(width).latency()
        );
    }

    let mut group = c.benchmark_group("in_memory_adders");
    group.sample_size(20);
    for width in [16usize, 64] {
        let mut rng = UintRng::seeded(3);
        let a = rng.uniform(width);
        let b = rng.uniform(width);
        let ks = KoggeStoneAdder::new(width);
        group.bench_with_input(
            BenchmarkId::new("kogge_stone", width),
            &width,
            |bench, _| bench.iter(|| ks.add(&a, &b).expect("add")),
        );
        let rc = RippleCarryAdder::new(width);
        group.bench_with_input(BenchmarkId::new("ripple", width), &width, |bench, _| {
            bench.iter(|| rc.add(&a, &b).expect("add"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_adders);
criterion_main!(benches);
