//! Packed vs scalar crossbar backend: wall-clock of the same
//! simulated multiplication work on both cell-state representations.
//!
//! The two backends are cycle/wear/state bit-identical (asserted by
//! the cim-check differential suite); this bench tracks the *wall
//! clock* gap the bit-packed planes buy. The row multiplier runs the
//! multiply stage; with its closed-form shift-add it is no longer the
//! largest host-time layer of a multiply (the postcompute adders are).
//! Its arrays are caller-provided, so both backends run in one process
//! regardless of the `CIM_XBAR_BACKEND` default. The end-to-end group
//! runs the full three-stage multiplier on the process default (packed
//! unless overridden).

use cim_bigint::rng::UintRng;
use cim_crossbar::{BackendKind, Crossbar};
use cim_logic::multpim::RowMultiplier;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;

const WIDTHS: [usize; 3] = [512, 1024, 2048];

/// Row-multiplier widths: the end-to-end widths plus 514, the stage
/// width (`n/4 + 2`) a 2048-bit multiply actually runs.
const ROW_WIDTHS: [usize; 4] = [512, 2048 / 4 + 2, 1024, 2048];

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

criterion_group!(benches, bench_row_multiply_backends, bench_end_to_end_large);
criterion_main!(benches);
