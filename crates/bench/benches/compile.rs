//! Host cost of compiling the adder programs a 2048-bit multiplier
//! runs: each lowering pass on its own, on the 513-bit (precompute)
//! and 3072-bit (postcompute) Kogge-Stone `Add` programs, and the
//! `O3` construction of the two adder stages, which build and lower
//! those programs. Every pass gets the input `MirProgram::lower` hands
//! it; the lowered output is byte-pinned by `lowering_pinned`.

use cim_check::{verify, VerifyConfig};
use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};
use cim_mir::{dead_write_elim, parallel_pack, place, OptLevel, TileLimits};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::PrecomputeStage;

fn bench_compile_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_passes");
    group.sample_size(20);
    for width in [513usize, 3072] {
        let adder = KoggeStoneAdder::new(width);
        let (rows, cols) = (adder.required_rows(), adder.required_cols());
        let layout = adder.layout();
        let config = VerifyConfig::new(rows, cols).with_preloaded_rows(
            &[layout.x_row, layout.y_row],
            layout.col_base..layout.col_base + width + 1,
        );
        let limits = TileLimits::for_array(rows, cols);
        let source = adder.mir_program(AddOp::Add);
        let live = dead_write_elim(&source);
        let packed = parallel_pack(&live, &limits);
        let pinned = source.interface_rows();
        let (lowered, _) = place(&packed, rows, &limits, &pinned).expect("adder fits its tile");
        group.bench_with_input(
            BenchmarkId::new("dead_write_elim", width),
            &width,
            |bench, _| bench.iter(|| dead_write_elim(black_box(&source))),
        );
        group.bench_with_input(
            BenchmarkId::new("parallel_pack", width),
            &width,
            |bench, _| bench.iter(|| parallel_pack(black_box(&live), &limits)),
        );
        group.bench_with_input(BenchmarkId::new("place", width), &width, |bench, _| {
            bench.iter(|| place(black_box(&packed), rows, &limits, &pinned))
        });
        group.bench_with_input(BenchmarkId::new("verify", width), &width, |bench, _| {
            bench.iter(|| verify(black_box(&lowered), &config).expect("verifies"))
        });
    }
    group.bench_function(BenchmarkId::new("precompute_stage_o3", 2048), |bench| {
        bench.iter(|| PrecomputeStage::with_opt_level(black_box(2048), OptLevel::O3))
    });
    group.bench_function(BenchmarkId::new("postcompute_stage_o3", 2048), |bench| {
        bench.iter(|| PostcomputeStage::with_opt_level(black_box(2048), OptLevel::O3))
    });
    group.finish();
}

criterion_group!(benches, bench_compile_passes);
criterion_main!(benches);
