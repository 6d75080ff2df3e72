//! Serving decisions are pinned.
//!
//! One fixed 20,000-request default-mix trace goes through the sync
//! [`Engine`] (submit every request, then drain) and the farm-derived
//! statistics — the fleet's drain cycle, every tile's cumulative wear,
//! and the batch and job counts — are folded into one FNV-1a digest.
//! The default fleet sends every batch of 256 or more farm jobs down
//! the scheduler's parallel path, so this pins that path at serving
//! scale. Host-side speedups of the scheduler may not move the digest.

use cim_serve::loadgen::{generate_trace, LoadgenConfig};
use cim_serve::Engine;

/// Digest of the trace below's farm statistics.
const PINNED: u64 = 0xf8b1_7b95_b6d0_d3a0;

fn fnv1a(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn engine_farm_stats_match_the_pinned_digest() {
    let config = LoadgenConfig {
        requests: 20_000,
        seed: 0x5EED_F00D,
        ..LoadgenConfig::default()
    };
    let mut engine = Engine::new(config.engine_config());
    for request in generate_trace(&config) {
        engine.submit(request).expect("validated requests schedule");
    }
    engine.drain().expect("drain schedules");
    let stats = engine.stats();
    assert!(stats.batches > 0 && stats.jobs > 0, "the trace was served");

    let mut digest = fnv1a(
        0xcbf2_9ce4_8422_2325,
        &[stats.drained_at, stats.batches, stats.jobs],
    );
    for t in &stats.tile_wear {
        digest = fnv1a(
            digest,
            &[
                u64::from(t.farm),
                u64::from(t.tile),
                t.jobs,
                t.max_cell_writes,
                t.busy_cycles,
            ],
        );
    }
    assert_eq!(digest, PINNED, "farm statistics changed: {digest:#018x}");
}
