//! Reproducibility guarantees: every experiment in this repository is
//! deterministic — same seeds, same cycle counts, same wear, same
//! results, run to run.

use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_sched::batch::run_batch;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;

#[test]
fn seeded_rng_is_stable_across_calls() {
    let take = || {
        let mut rng = UintRng::seeded(0xFEED);
        (0..5).map(|_| rng.uniform(256)).collect::<Vec<Uint>>()
    };
    assert_eq!(take(), take());
}

#[test]
fn simulation_reports_are_bit_identical() {
    let run = || {
        let mult = KaratsubaCimMultiplier::new(64).unwrap();
        let mut rng = UintRng::seeded(7);
        let a = rng.exact_bits(64);
        let b = rng.exact_bits(64);
        mult.multiply(&a, &b).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first.product, second.product);
    assert_eq!(first.report.stage_cycles, second.report.stage_cycles);
    assert_eq!(first.report.total_latency, second.report.total_latency);
    for (e1, e2) in first.report.endurance.iter().zip(&second.report.endurance) {
        assert_eq!(e1, e2, "endurance must be deterministic");
    }
}

#[test]
fn batch_throughput_is_deterministic() {
    let run = || {
        let mult = KaratsubaCimMultiplier::new(32).unwrap();
        let mut rng = UintRng::seeded(19);
        let pairs: Vec<(Uint, Uint)> = (0..4).map(|_| (rng.uniform(32), rng.uniform(32))).collect();
        run_batch(&mult, &pairs).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan_cycles, b.makespan_cycles);
    assert_eq!(a.max_writes(), b.max_writes());
    assert!((a.throughput_per_mcc - b.throughput_per_mcc).abs() < 1e-12);
}

#[test]
fn farm_scheduler_reports_are_byte_identical() {
    use cim_sched::{FarmConfig, JobMix, Policy, Scheduler};

    // Same seed, same job mix, same policy → the full FarmReport —
    // every per-job record, tile timing and wear counter — must be
    // byte-identical across two independent runs, not merely equal on
    // headline numbers.
    let run = |policy: Policy| {
        let jobs = JobMix::crypto_default(300).generate(60, 21);
        let mut sched = Scheduler::new(FarmConfig::new(8, policy));
        sched.run(&jobs).unwrap()
    };
    for policy in [Policy::Fifo, Policy::LeastLoaded, Policy::WearLeveling] {
        let first = run(policy);
        let second = run(policy);
        assert_eq!(
            format!("{first:?}").into_bytes(),
            format!("{second:?}").into_bytes(),
            "{policy:?} report must be byte-identical run to run"
        );
    }
}

#[test]
fn fuzzer_program_generation_is_deterministic() {
    // The differential-fuzzing generator is part of the repeatability
    // story: a failure seed must replay to the same program.
    let a = cim_check::ProgramGen::new(6, 10, 0xC0FFEE).generate(64);
    let b = cim_check::ProgramGen::new(6, 10, 0xC0FFEE).generate(64);
    assert_eq!(a, b);
}
