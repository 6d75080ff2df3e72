//! Pins what observation emits, byte for byte: one FNV-1a digest over
//!
//! * the Chrome Trace Event export of a traced multiply at n = 64 and
//!   256, at `O0` and `O3`;
//! * the JSON snapshot of a recording metrics hub after metered
//!   multiplies at 64 and 384 bits (the `cim_core_*` families and the
//!   `cim_xbar_*` families re-published from the stage statistics).
//!
//! Every operand is fixed. A change to how the executor, the stages or
//! the metrics plane report must reproduce the digest; the assertion
//! prints the new digest when it does not.

use cim_bigint::rng::UintRng;
use cim_crossbar::EnergyParams;
use cim_metrics::MetricsHub;
use cim_mir::OptLevel;
use cim_trace::{chrome, Tracer};
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use std::fmt::Write;

/// Digest of the outputs below, taken before the executor's trace
/// buffer and live meter were removed.
const PINNED: u64 = 0x4336_3552_74c1_372c;

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[test]
fn observation_output_is_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for n in [64usize, 256] {
        for opt in [OptLevel::O0, OptLevel::O3] {
            let mut rng = UintRng::seeded(n as u64);
            let (a, b) = (rng.uniform(n), rng.uniform(n));
            let mult = KaratsubaCimMultiplier::with_opt_level(n, opt).expect("multiplier");
            let tracer = Tracer::recording();
            mult.multiply_traced(&a, &b, &tracer)
                .expect("traced multiply");
            let trace = tracer.finish().expect("recording tracer");
            let json = chrome::to_chrome_json(&trace);
            write!(h, "trace {n} {opt}:{json};").expect("hashing cannot fail");
        }
    }

    let hub = MetricsHub::recording();
    for n in [64usize, 384] {
        let mut rng = UintRng::seeded(n as u64 + 1);
        let mut mult = KaratsubaCimMultiplier::new(n).expect("multiplier");
        mult.attach_metrics(&hub, EnergyParams::default());
        for _ in 0..2 {
            let (a, b) = (rng.uniform(n), rng.uniform(n));
            mult.multiply(&a, &b).expect("metered multiply");
        }
    }
    let snapshot = hub.snapshot().to_json();
    assert!(snapshot.contains("cim_xbar_cycles_total"));
    assert!(snapshot.contains("cim_core_stage_cycles"));
    write!(h, "metrics:{snapshot};").expect("hashing cannot fail");

    assert_eq!(h.0, PINNED, "observation output moved: digest {:#x}", h.0);
}
