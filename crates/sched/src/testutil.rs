//! Shared test helpers for the `cim-sched` test modules.

use cim_bigint::rng::UintRng;
use cim_bigint::Uint;

/// `count` seeded random operand pairs of `n` bits each — the fixture
/// every batch/scheduler test feeds the simulated multiplier.
pub(crate) fn pairs(n: usize, count: usize, seed: u64) -> Vec<(Uint, Uint)> {
    let mut rng = UintRng::seeded(seed);
    (0..count)
        .map(|_| (rng.uniform(n), rng.uniform(n)))
        .collect()
}
