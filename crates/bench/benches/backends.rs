//! Packed vs scalar crossbar backend: wall-clock of the same
//! simulated multiplication work on both cell-state representations.
//!
//! The two backends are cycle/wear/state bit-identical (asserted by
//! the cim-check differential suite); this bench tracks the *wall
//! clock* gap the bit-packed planes buy. The kernel group times the
//! single row ops every stage is built from (set/reset wave, MAGIC
//! NOR, periphery shift, word read and write) on the 3073-column row
//! of a 2048-bit multiply's postcompute adder. The row multiplier runs
//! the multiply stage with its closed-form shift-add. Their arrays are
//! caller-provided, so both backends run in one process regardless of
//! the `CIM_XBAR_BACKEND` default. The compiled-adder group runs one
//! O3 postcompute adder body through `Executor::run_compiled` (its
//! row-kernel plan) on the arrays the batch and solo workloads pass it
//! through: 577 columns × 64 lanes sliced (384-bit operands) and 3073
//! columns packed (2048-bit operands). The end-to-end group runs the
//! full three-stage multiplier on the process default (packed unless
//! overridden).

use cim_bigint::rng::UintRng;
use cim_crossbar::{BackendKind, Crossbar, Executor, Region};
use cim_logic::kogge_stone::AddOp;
use cim_logic::multpim::RowMultiplier;
use cim_mir::OptLevel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use karatsuba_cim::postcompute::PostcomputeStage;

const WIDTHS: [usize; 3] = [512, 1024, 2048];

/// Row-multiplier widths: the end-to-end widths plus 514, the stage
/// width (`n/4 + 2`) a 2048-bit multiply actually runs.
const ROW_WIDTHS: [usize; 4] = [512, 2048 / 4 + 2, 1024, 2048];

/// Columns of the postcompute adder row of a 2048-bit multiply:
/// `6 · 2048/4 + 1`.
const KERNEL_COLS: usize = 3073;

fn bench_row_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_row_kernels");
    let cols = KERNEL_COLS;
    let words: Vec<u64> = (0..cols.div_ceil(64) as u64)
        .map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let out = Region::new(2..3, 0..cols);
    for (label, kind) in [
        ("packed", BackendKind::Packed),
        ("scalar", BackendKind::Scalar),
    ] {
        let mut array = Crossbar::with_backend(4, cols, kind).expect("array");
        array.write_row_words(0, 0, &words, cols).expect("write");
        array
            .write_row_words(1, 0, &words[1..], cols)
            .expect("write");
        let mut buf = Vec::new();
        group.bench_function(BenchmarkId::new("fill", label), |b| {
            b.iter(|| array.init_region(&out).expect("fill"))
        });
        // The adder's gate pair: output init, then a strict 2-input NOR.
        group.bench_function(BenchmarkId::new("init_nor_rows", label), |b| {
            b.iter(|| {
                array.init_region(&out).expect("init");
                array.nor_rows(&[0, 1], 2, 0..cols, true).expect("nor")
            })
        });
        group.bench_function(BenchmarkId::new("shift_row_to", label), |b| {
            b.iter(|| array.shift_row_to(0, 3, 0..cols, 1, true).expect("shift"))
        });
        group.bench_function(BenchmarkId::new("read_row_words", label), |b| {
            b.iter(|| array.read_row_words(0, 0..cols, &mut buf).expect("read"))
        });
        group.bench_function(BenchmarkId::new("write_row_words", label), |b| {
            b.iter(|| array.write_row_words(3, 0, &words, cols).expect("write"))
        });
    }
    group.finish();
}

fn bench_compiled_adder_body(c: &mut Criterion) {
    let mut group = c.benchmark_group("compiled_adder_body");
    for (label, n, lanes) in [("sliced64", 384, Some(64)), ("packed", 2048, None)] {
        let post = PostcomputeStage::with_opt_level(n, OptLevel::O3).expect("stage");
        let body = post.adder_program(AddOp::Add);
        assert!(body.planned(), "the adder body has a row-kernel plan");
        let cols = post.adder_width() + 1;
        let mut array = match lanes {
            Some(lanes) => Crossbar::new_sliced(20, cols, lanes),
            None => Crossbar::with_backend(20, cols, BackendKind::Packed),
        }
        .expect("array");
        // Random operands in rows 0 and 1 (every lane).
        let mut state = 0x5EED_u64;
        for row in 0..2 {
            let words: Vec<u64> = (0..cols)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    state
                })
                .collect();
            array.write_row_lanes(row, 0, &words).expect("write");
        }
        group.bench_function(BenchmarkId::new(label, cols), |b| {
            b.iter(|| Executor::new(&mut array).run_compiled(body).expect("run"))
        });
    }
    group.finish();
}

fn bench_row_multiply_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_row_multiply");
    group.sample_size(10);
    for n in ROW_WIDTHS {
        let mut rng = UintRng::seeded(5);
        let a = rng.exact_bits(n);
        let b = rng.exact_bits(n);
        let mult = RowMultiplier::new(n);
        let cols = mult.required_cols();
        for (label, kind) in [
            ("packed", BackendKind::Packed),
            ("scalar", BackendKind::Scalar),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
                bench.iter(|| {
                    let mut array = Crossbar::with_backend(1, cols, kind).expect("array");
                    mult.run_in(&mut array, 0, 0, &a, &b).expect("run")
                })
            });
        }
    }
    group.finish();
}

fn bench_end_to_end_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_end_to_end");
    group.sample_size(10);
    for n in WIDTHS {
        let mut rng = UintRng::seeded(5);
        let a = rng.exact_bits(n);
        let b = rng.exact_bits(n);
        let full = KaratsubaCimMultiplier::new(n).expect("multiplier");
        group.bench_with_input(BenchmarkId::new("default", n), &n, |bench, _| {
            bench.iter(|| full.multiply(&a, &b).expect("run"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_row_kernels,
    bench_compiled_adder_body,
    bench_row_multiply_backends,
    bench_end_to_end_large
);
criterion_main!(benches);
