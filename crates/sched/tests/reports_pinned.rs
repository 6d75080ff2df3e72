//! Farm reports are pinned byte for byte.
//!
//! Every [`FarmReport::to_json`] over a fixed matrix of job streams and
//! farm shapes is folded into one FNV-1a digest. The matrix covers
//! every policy, 1, 4 and 16 tiles, bounded and unbounded queues, a
//! staggered mixed-class stream (Karatsuba, schoolbook and 64-lane
//! batch jobs of several widths) and a closed same-class batch (the
//! shape the serving fleet submits). Each of `run`, `run_traced` and
//! `run_parallel` must reproduce the digest: a change to how the
//! scheduler finds profiles, prices energy or reads wear may not move
//! a cycle, a wear count or a floating-point bit of any report.

use cim_sched::{Algo, FarmConfig, FarmReport, Job, JobClass, JobMix, Policy, Scheduler};
use cim_trace::Tracer;

/// Digest of the report matrix below.
const PINNED: u64 = 0xf552_914d_4638_e52d;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The job streams of the matrix.
fn streams() -> Vec<Vec<Job>> {
    let class = |width, algo, weight| JobClass {
        width,
        algo,
        weight,
    };
    let mixed = JobMix::new(
        vec![
            class(256, Algo::Karatsuba, 4.0),
            class(256, Algo::Schoolbook, 1.0),
            class(384, Algo::KaratsubaBatch64, 2.0),
            class(1024, Algo::Karatsuba, 2.0),
            class(64, Algo::Schoolbook, 1.0),
        ],
        600,
    )
    .generate(300, 11);
    let closed = JobMix::uniform(256, Algo::Karatsuba, 0).generate(200, 3);
    vec![mixed, closed]
}

/// Digest of every report in the matrix, each produced by `run`.
fn matrix_digest(run: impl Fn(&mut Scheduler, &[Job]) -> FarmReport) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut rejected = 0;
    for jobs in streams() {
        for policy in Policy::all() {
            for tiles in [1usize, 4, 16] {
                for depth in [None, Some(5)] {
                    let mut config = FarmConfig::new(tiles, policy);
                    if let Some(depth) = depth {
                        config = config.with_queue_depth(depth);
                    }
                    let report = run(&mut Scheduler::new(config), &jobs);
                    rejected += report.jobs_rejected;
                    digest = fnv1a(digest, report.to_json().as_bytes());
                }
            }
        }
    }
    // The bounded queue really sheds somewhere in the matrix.
    assert!(rejected > 0);
    digest
}

#[test]
fn run_reports_match_the_pinned_digest() {
    let digest = matrix_digest(|s, jobs| s.run(jobs).unwrap());
    assert_eq!(digest, PINNED, "farm reports changed: {digest:#018x}");
}

#[test]
fn traced_reports_match_the_pinned_digest() {
    let digest = matrix_digest(|s, jobs| s.run_traced(jobs, &Tracer::recording()).unwrap());
    assert_eq!(digest, PINNED, "farm reports changed: {digest:#018x}");
}

#[test]
fn parallel_reports_match_the_pinned_digest() {
    let digest = matrix_digest(|s, jobs| s.run_parallel(jobs).unwrap());
    assert_eq!(digest, PINNED, "farm reports changed: {digest:#018x}");
}
