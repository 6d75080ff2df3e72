//! Modular-multiplication methods (paper Sec. IV-F): Montgomery vs
//! Barrett vs sparse-modulus reduction, at the paper's two motivating
//! widths (64-bit FHE limb, 384-bit-class ZKP field). Prints the
//! composed CIM cycle estimates alongside the host wall-clock bench.
//!
//! The `ec_ops` group times the host curve arithmetic the serving
//! layer runs for `ec_add` / `ec_mul` at BN254 and BLS12-381: point
//! addition, doubling, a 12-bit scalar multiplication (the load
//! generator's default scalar), conversion to affine and point
//! equality.

use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_modmul::barrett::BarrettContext;
use cim_modmul::ec::Curve;
use cim_modmul::fp::FpContext;
use cim_modmul::montgomery::MontgomeryContext;
use cim_modmul::sparse::SparseModulus;
use cim_modmul::{fields, ModularReducer};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_modmul(c: &mut Criterion) {
    let cases: Vec<(&str, Uint)> = vec![
        ("goldilocks_64", fields::goldilocks()),
        ("bn254", fields::bn254_base()),
        ("bls12_381", fields::bls12_381_base()),
    ];

    println!("composed CIM cycle estimates per modular multiplication:");
    for (name, m) in &cases {
        let mont = MontgomeryContext::new(m.clone()).expect("odd modulus");
        let barrett = BarrettContext::new(m.clone()).expect("modulus");
        println!(
            "  {name:>12}: montgomery {:>7} cc ({} mults), barrett {:>7} cc ({} mults)",
            mont.cim_cost().cycles,
            mont.cim_cost().multiplications,
            barrett.cim_cost().cycles,
            barrett.cim_cost().multiplications,
        );
    }
    let sparse = SparseModulus::goldilocks();
    println!(
        "  {:>12}: sparse     {:>7} cc ({} mult + {} adds)",
        "goldilocks_64",
        sparse.cim_cost().cycles,
        sparse.cim_cost().multiplications,
        sparse.cim_cost().additions
    );

    let mut group = c.benchmark_group("modular_multiplication");
    for (name, m) in &cases {
        let mut rng = UintRng::seeded(4);
        let a = rng.below(m);
        let b = rng.below(m);
        let mont = MontgomeryContext::new(m.clone()).expect("odd modulus");
        let am = mont.to_mont(&a);
        let bm = mont.to_mont(&b);
        group.bench_with_input(
            BenchmarkId::new("montgomery_in_form", name),
            name,
            |bench, _| bench.iter(|| mont.mont_mul(&am, &bm)),
        );
        let fp = FpContext::new(m.clone()).expect("odd modulus of at most 384 bits");
        let (af, bf) = (fp.from_uint(&a), fp.from_uint(&b));
        group.bench_with_input(
            BenchmarkId::new("fixed_limb_in_form", name),
            name,
            |bench, _| bench.iter(|| fp.mul(&af, &bf)),
        );
        let barrett = BarrettContext::new(m.clone()).expect("modulus");
        group.bench_with_input(BenchmarkId::new("barrett", name), name, |bench, _| {
            bench.iter(|| barrett.mul_mod(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("naive_divrem", name), name, |bench, _| {
            bench.iter(|| (&a * &b).rem(m))
        });
    }
    // Sparse applies to the Goldilocks case only.
    let mut rng = UintRng::seeded(5);
    let p = fields::goldilocks();
    let a = rng.below(&p);
    let b = rng.below(&p);
    group.bench_function("sparse/goldilocks_64", |bench| {
        bench.iter(|| sparse.mul_mod(&a, &b))
    });
    group.finish();
}

fn bench_ec_ops(c: &mut Criterion) {
    let curves = [
        (
            "bn254",
            Curve::new(fields::bn254_base(), Uint::zero(), Uint::from_u64(3)).expect("alt_bn128"),
        ),
        ("bls12_381", Curve::bls12_381_g1().expect("BLS12-381 G1")),
    ];
    let mut group = c.benchmark_group("ec_ops");
    for (name, curve) in &curves {
        let g = curve.find_point();
        // Two finite points with Z ≠ 1, and an equal pair with
        // different Jacobian coordinates for the equality check.
        let p = curve.double(&g);
        let q = curve.scalar_mul(&Uint::from_u64(5), &g);
        let q_ladder = curve.scalar_mul_ladder(&Uint::from_u64(5), &g);
        let k = Uint::from_u64(0xA5C);
        group.bench_with_input(BenchmarkId::new("add", name), name, |bench, _| {
            bench.iter(|| curve.add(&p, &q))
        });
        group.bench_with_input(BenchmarkId::new("double", name), name, |bench, _| {
            bench.iter(|| curve.double(&p))
        });
        group.bench_with_input(
            BenchmarkId::new("scalar_mul_12bit", name),
            name,
            |bench, _| bench.iter(|| curve.scalar_mul(&k, &p)),
        );
        group.bench_with_input(BenchmarkId::new("to_affine", name), name, |bench, _| {
            bench.iter(|| curve.to_affine(&q))
        });
        group.bench_with_input(BenchmarkId::new("points_equal", name), name, |bench, _| {
            bench.iter(|| curve.points_equal(&q, &q_ladder))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modmul, bench_ec_ops);
criterion_main!(benches);
