//! Host-side cost of the farm scheduler itself: dispatching 2,000
//! mixed-width jobs under each policy at 4, 16, and 64 tiles. The
//! policies differ in per-job tile-selection work (FIFO and
//! wear-leveling scan the availability frontier, least-loaded scans
//! load counters), so this bounds the simulator's own overhead per
//! scheduled multiplication.
//!
//! `fleet_batch` is the shape the serving fleet submits: one closed
//! batch of 4,118 same-class jobs (the mean batch of the zkEVM serving
//! benchmark), all arriving at cycle 0, on a 4-tile wear-leveling farm,
//! through both the sequential and the parallel path. Divide by 4,118
//! for the scheduler's cost per job.

use cim_sched::{Algo, FarmConfig, JobMix, Policy, Scheduler};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("farm_scheduler");
    group.sample_size(10);
    let jobs = JobMix::crypto_default(400).generate(2000, 7);
    for tiles in [4usize, 16, 64] {
        for policy in Policy::all() {
            group.bench_with_input(
                BenchmarkId::new(policy.label(), tiles),
                &tiles,
                |bench, &tiles| {
                    bench.iter(|| {
                        let report = Scheduler::new(FarmConfig::new(tiles, policy))
                            .run(black_box(&jobs))
                            .expect("analytic profiles cannot fail");
                        black_box(report.makespan_cycles)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_fleet_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_batch");
    group.sample_size(10);
    let jobs = JobMix::uniform(256, Algo::Karatsuba, 0).generate(4_118, 7);
    let config = FarmConfig::new(4, Policy::WearLeveling);
    group.bench_function("run", |bench| {
        bench.iter(|| {
            let report = Scheduler::new(config)
                .run(black_box(&jobs))
                .expect("analytic profiles cannot fail");
            black_box(report.makespan_cycles)
        })
    });
    group.bench_function("run_parallel", |bench| {
        bench.iter(|| {
            let report = Scheduler::new(config)
                .run_parallel(black_box(&jobs))
                .expect("analytic profiles cannot fail");
            black_box(report.makespan_cycles)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_policies, bench_fleet_batch);
criterion_main!(benches);
