//! Jobs and workload generation.
//!
//! A [`Job`] is one multiplication request: an operand width, the
//! algorithm that will serve it, and the cycle at which it arrives at
//! the farm. [`JobMix`] turns a weighted recipe of job classes into a
//! reproducible arrival stream.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Which in-memory multiplier serves a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Algo {
    /// The paper's three-stage unrolled-Karatsuba pipeline (L = 2).
    Karatsuba,
    /// A single-row MultPIM-style schoolbook multiplier at full
    /// operand width — one stage, no pipelining within the job.
    Schoolbook,
    /// The Karatsuba pipeline on bit-sliced arrays: one job carries 64
    /// independent multiplications through the same micro-op programs
    /// (one per `u64` lane), so it costs one instance's cycles and
    /// delivers 64 products.
    KaratsubaBatch64,
}

impl Algo {
    /// Short label used in tables and bench names.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Karatsuba => "karatsuba",
            Algo::Schoolbook => "schoolbook",
            Algo::KaratsubaBatch64 => "karatsuba_batch64",
        }
    }

    /// Products one job of this algorithm delivers.
    pub fn lanes(self) -> usize {
        match self {
            Algo::Karatsuba | Algo::Schoolbook => 1,
            Algo::KaratsubaBatch64 => 64,
        }
    }
}

/// One multiplication request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Monotone job id (admission order at equal arrival).
    pub id: u64,
    /// Operand width in bits (positive multiple of 4).
    pub width: usize,
    /// Serving algorithm.
    pub algo: Algo,
    /// Cycle at which the job reaches the admission queue.
    pub arrival: u64,
}

/// One weighted class in a [`JobMix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobClass {
    /// Operand width in bits.
    pub width: usize,
    /// Serving algorithm.
    pub algo: Algo,
    /// Relative weight (any positive scale).
    pub weight: f64,
}

/// A reproducible workload recipe: weighted job classes plus a mean
/// inter-arrival gap in cycles (geometric, memoryless — the discrete
/// analogue of Poisson traffic).
#[derive(Debug, Clone)]
pub struct JobMix {
    classes: Vec<JobClass>,
    mean_gap: u64,
}

impl JobMix {
    /// Builds a mix from weighted classes and a mean inter-arrival gap
    /// (`0` = all jobs arrive at cycle 0, i.e. a closed batch).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty, any weight is not positive, or
    /// any width is not a positive multiple of 4.
    pub fn new(classes: Vec<JobClass>, mean_gap: u64) -> Self {
        assert!(!classes.is_empty(), "job mix needs at least one class");
        for c in &classes {
            assert!(c.weight > 0.0, "class weights must be positive");
            assert!(
                c.width > 0 && c.width % 4 == 0,
                "operand width must be a positive multiple of 4"
            );
        }
        JobMix { classes, mean_gap }
    }

    /// The paper-motivated cryptographic mix: 256-bit (ECC field),
    /// 1024-bit and 2048-bit (RSA-grade) operands, Karatsuba-heavy
    /// with a schoolbook minority at the small width.
    pub fn crypto_default(mean_gap: u64) -> Self {
        JobMix::new(
            vec![
                JobClass {
                    width: 256,
                    algo: Algo::Karatsuba,
                    weight: 4.0,
                },
                JobClass {
                    width: 256,
                    algo: Algo::Schoolbook,
                    weight: 1.0,
                },
                JobClass {
                    width: 1024,
                    algo: Algo::Karatsuba,
                    weight: 2.0,
                },
                JobClass {
                    width: 2048,
                    algo: Algo::Karatsuba,
                    weight: 1.0,
                },
            ],
            mean_gap,
        )
    }

    /// A single-class mix (every job identical).
    pub fn uniform(width: usize, algo: Algo, mean_gap: u64) -> Self {
        JobMix::new(
            vec![JobClass {
                width,
                algo,
                weight: 1.0,
            }],
            mean_gap,
        )
    }

    /// The distinct `(width, algo)` classes in this mix.
    pub fn classes(&self) -> &[JobClass] {
        &self.classes
    }

    /// Generates `count` jobs with arrivals sorted by cycle,
    /// deterministically for a given `seed`.
    pub fn generate(&self, count: usize, seed: u64) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_weight: f64 = self.classes.iter().map(|c| c.weight).sum();
        let mut arrival = 0u64;
        (0..count as u64)
            .map(|id| {
                let mut pick = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total_weight;
                let mut class = self.classes[0];
                for c in &self.classes {
                    if pick < c.weight {
                        class = *c;
                        break;
                    }
                    pick -= c.weight;
                }
                let job = Job {
                    id,
                    width: class.width,
                    algo: class.algo,
                    arrival,
                };
                if self.mean_gap > 0 {
                    // Geometric gap with the requested mean: memoryless
                    // arrivals without floating-point state.
                    arrival += sample_geometric(&mut rng, self.mean_gap);
                }
                job
            })
            .collect()
    }
}

/// Geometric sample with mean `mean` (support `0..`), via inversion.
fn sample_geometric(rng: &mut StdRng, mean: u64) -> u64 {
    let p = 1.0 / (mean as f64 + 1.0);
    let u: f64 = rng.gen_range(0.0_f64..1.0);
    // Inverse CDF of the geometric distribution on {0, 1, 2, …}.
    let g = (1.0 - u).ln() / (1.0 - p).ln();
    g.floor().min(1e15) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let mix = JobMix::crypto_default(500);
        let a = mix.generate(200, 7);
        let b = mix.generate(200, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn mix_produces_every_class() {
        let mix = JobMix::crypto_default(0);
        let jobs = mix.generate(500, 3);
        for class in mix.classes() {
            assert!(
                jobs.iter()
                    .any(|j| j.width == class.width && j.algo == class.algo),
                "class {class:?} never generated"
            );
        }
        assert!(
            jobs.iter().all(|j| j.arrival == 0),
            "closed batch arrives at 0"
        );
    }

    #[test]
    fn mean_gap_roughly_respected() {
        let mix = JobMix::uniform(256, Algo::Karatsuba, 1000);
        let jobs = mix.generate(2000, 11);
        let span = jobs.last().unwrap().arrival;
        let mean = span as f64 / (jobs.len() - 1) as f64;
        assert!(
            (mean - 1000.0).abs() < 150.0,
            "observed mean gap {mean} too far from 1000"
        );
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn rejects_unaligned_width() {
        JobMix::uniform(250, Algo::Karatsuba, 0);
    }
}
