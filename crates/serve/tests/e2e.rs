//! End-to-end serving tests: wire bytes in, verified arithmetic out,
//! deterministic numbers throughout.

use cim_bigint::rng::UintRng;
use cim_metrics::{prometheus, MetricsHub};
use cim_serve::loadgen::{generate_trace, run, LoadgenConfig};
use cim_serve::protocol::{self, Op, Request, Response};
use cim_serve::{CimServer, FleetConfig, OpExecutor, ServerConfig};

fn loadgen_config() -> LoadgenConfig {
    LoadgenConfig {
        requests: 1_000,
        tenants: 3,
        rate: 250,
        mean_gap: 2_500,
        exp_bits: 8,
        scalar_bits: 8,
        fleet: FleetConfig {
            farms: 4,
            tiles_per_farm: 2,
            ..FleetConfig::default()
        },
        ..LoadgenConfig::default()
    }
}

#[test]
fn loadgen_replay_is_bit_identical() {
    let a = run(&loadgen_config(), &MetricsHub::disabled(), None);
    let b = run(&loadgen_config(), &MetricsHub::disabled(), None);
    assert_eq!(a.served, b.served);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.to_json(), {
        let mut json = b.to_json();
        // wall_ms is the one non-deterministic field; splice it out of
        // the comparison by replacing b's value with a's.
        let (a_ms, b_ms) = (
            format!("\"wall_ms\":{}", a.wall_ms),
            format!("\"wall_ms\":{}", b.wall_ms),
        );
        json = json.replace(&b_ms, &a_ms);
        json
    });
    assert_eq!(a.incorrect, 0);
}

#[test]
fn threaded_fleet_serves_mixed_load_with_zero_incorrect() {
    let hub = MetricsHub::recording();
    let report = run(
        &LoadgenConfig {
            workers: 4,
            ..loadgen_config()
        },
        &hub,
        None,
    );
    assert_eq!(report.incorrect, 0, "threaded run must verify everything");
    assert_eq!(report.verified, report.served);
    assert_eq!(
        report.served + report.shed + report.errors,
        report.submitted
    );
    assert!(report.stats.farms.len() == 4);
    assert!(
        report.stats.farms.iter().filter(|f| f.jobs > 0).count() >= 2,
        "load must spread across farms"
    );

    // The cim_serve_* families render as a valid exposition with
    // per-tenant latency histograms.
    let text = prometheus::render(&hub.snapshot());
    prometheus::check(&text).expect("valid exposition");
    for family in [
        "cim_serve_requests_total",
        "cim_serve_latency_cycles",
        "cim_serve_farm_utilization",
    ] {
        assert!(text.contains(family), "missing {family}");
    }
}

#[test]
fn wire_protocol_survives_a_full_request_cycle() {
    // Frame every generated request through the encoder and back
    // before serving: the server sees exactly what a remote client
    // would send.
    let config = LoadgenConfig {
        requests: 120,
        ..loadgen_config()
    };
    let trace = generate_trace(&config);
    let rewired: Vec<Request> = trace
        .iter()
        .map(|r| {
            let bytes = protocol::frame(protocol::encode_request(r));
            let (payload, rest) = protocol::deframe(&bytes)
                .expect("well-formed")
                .expect("complete frame");
            assert!(rest.is_empty());
            protocol::decode_request(payload).expect("round trip")
        })
        .collect();
    assert_eq!(trace, rewired, "encode/decode is the identity");

    let server = CimServer::start(
        ServerConfig {
            engine: config.engine_config(),
            workers: 2,
        },
        &MetricsHub::disabled(),
    );
    let conn = server.connect();
    for r in &rewired {
        conn.send(r);
    }
    conn.drain();
    let exec = OpExecutor::new();
    let ops: std::collections::HashMap<u64, Op> =
        trace.iter().map(|r| (r.id, r.op.clone())).collect();
    let mut verified = 0;
    for _ in 0..rewired.len() {
        match conn.recv().expect("decode") {
            Response::Ok { id, result, .. } => {
                assert!(exec.verify(&ops[&id], &result), "request {id}");
                verified += 1;
            }
            Response::Shed { .. } => {}
            Response::Error { id, message } => {
                panic!("request {id} errored: {message}")
            }
        }
    }
    let stats = server.stats();
    server.shutdown();
    assert_eq!(stats.served, verified);
    assert_eq!(stats.served + stats.shed, 120);
}

#[test]
fn per_tenant_isolation_under_one_greedy_tenant() {
    // Tenant 0 floods at cycle ~0; tenant 1 trickles. Tenant 1 must
    // not shed because of tenant 0's overload.
    let mut rng = UintRng::seeded(77);
    let mut config = loadgen_config();
    config.tenants = 2;
    let server = CimServer::start(
        ServerConfig {
            engine: config.engine_config(),
            workers: 2,
        },
        &MetricsHub::disabled(),
    );
    let conn = server.connect();
    let mut id = 0;
    for burst in 0..40 {
        // 25 greedy requests per tick vs 1 polite one.
        for _ in 0..25 {
            conn.send(&Request {
                id,
                tenant: 0,
                arrival_cycle: burst * 1_000,
                op: Op::Mul {
                    width: 256,
                    a: rng.uniform(256),
                    b: rng.uniform(256),
                },
            });
            id += 1;
        }
        conn.send(&Request {
            id,
            tenant: 1,
            arrival_cycle: burst * 1_000,
            op: Op::Mul {
                width: 256,
                a: rng.uniform(256),
                b: rng.uniform(256),
            },
        });
        id += 1;
    }
    conn.drain();
    for _ in 0..id {
        conn.recv().expect("decode");
    }
    let stats = server.stats();
    server.shutdown();
    let greedy = &stats.tenants[0];
    let polite = &stats.tenants[1];
    assert!(
        greedy.shed_rate_limited + greedy.shed_queue_full > 0,
        "flooding tenant must shed"
    );
    assert_eq!(
        polite.shed_rate_limited + polite.shed_queue_full,
        0,
        "polite tenant must be isolated from the flood"
    );
    assert_eq!(polite.served, 40);
}
