//! Served results are pinned byte for byte.
//!
//! Every payload `OpExecutor::execute` produces over a fixed
//! default-mix trace is folded into one FNV-1a digest of its wire
//! encoding. A change to the field arithmetic under `modexp` and the
//! curve operations (representation, reduction, inversion, point
//! equality) must reproduce the digest: the served bytes may not move.

use cim_serve::exec::OpExecutor;
use cim_serve::loadgen::{generate_trace, LoadgenConfig};
use cim_serve::protocol::{encode_response, OpKind, Response};

/// Digest of the 2,400-request trace below, computed on the Barrett
/// `Uint` field path the Montgomery limb field replaced.
const PINNED: u64 = 0xe39a_6470_0ebf_e857;

/// Digest of the 200-request trace with 381-bit exponents and 255-bit
/// scalars below, on the same path.
const PINNED_WIDE: u64 = 0xdf64_2e6a_3dd6_f2b4;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of every execute payload over `config`'s trace; each kind
/// must appear more than `min_per_kind` times.
fn payload_digest(config: &LoadgenConfig, min_per_kind: u64) -> u64 {
    let trace = generate_trace(config);
    let exec = OpExecutor::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut per_kind = [0u64; 4];
    for req in &trace {
        let result = exec
            .execute(&req.op)
            .unwrap_or_else(|e| panic!("request {}: {e}", req.id));
        assert!(exec.verify(&req.op, &result), "request {}", req.id);
        let resp = Response::Ok {
            id: req.id,
            result,
            queue_cycles: 0,
            service_cycles: 0,
            farm: 0,
        };
        per_kind[req.op.kind() as usize] += 1;
        digest = fnv1a(digest, &encode_response(&resp));
    }
    // Every kind is exercised, EC operations included.
    for kind in [OpKind::Mul, OpKind::ModExp, OpKind::EcAdd, OpKind::EcMul] {
        assert!(
            per_kind[kind as usize] > min_per_kind,
            "{kind:?}: {per_kind:?}"
        );
    }
    digest
}

#[test]
fn execute_payloads_match_the_pinned_digest() {
    let config = LoadgenConfig {
        requests: 2_400,
        seed: 0x5EED_D1CE,
        ..LoadgenConfig::default()
    };
    let digest = payload_digest(&config, 100);
    assert_eq!(digest, PINNED, "served payloads changed: {digest:#018x}");
}

#[test]
fn full_width_exponents_and_scalars_match_the_pinned_digest() {
    let config = LoadgenConfig {
        requests: 200,
        seed: 0x00F1_E1D5,
        exp_bits: 381,
        scalar_bits: 255,
        ..LoadgenConfig::default()
    };
    let digest = payload_digest(&config, 10);
    assert_eq!(
        digest, PINNED_WIDE,
        "served payloads changed: {digest:#018x}"
    );
}
