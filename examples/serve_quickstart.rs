//! Serving quickstart: stand up the threaded cim-serve fleet, push a
//! mixed two-tenant request stream through the wire protocol, and
//! print the per-tenant / per-farm accounting.
//!
//! ```text
//! cargo run --release --example serve_quickstart [requests]
//! ```

use cim_metrics::MetricsHub;
use cim_serve::loadgen::{generate_trace, LoadgenConfig};
use cim_serve::{CimServer, FleetConfig, OpExecutor, Response, ServerConfig};

fn main() {
    let requests: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);

    // A deterministic zkEVM-flavoured trace: two tenants (tenant1 at
    // half of tenant0's admission rate), mul/modexp/ecadd/ecmul mix.
    let config = LoadgenConfig {
        requests,
        tenants: 2,
        fleet: FleetConfig {
            farms: 4,
            tiles_per_farm: 4,
            ..FleetConfig::default()
        },
        exp_bits: 8,
        scalar_bits: 8,
        ..LoadgenConfig::default()
    };
    let trace = generate_trace(&config);

    let hub = MetricsHub::recording();
    let server = CimServer::start(
        ServerConfig {
            engine: config.engine_config(),
            workers: 4,
        },
        &hub,
    );
    let conn = server.connect();

    println!("serving {requests} requests across 4 farms…\n");
    for request in &trace {
        conn.send(request);
    }
    conn.drain();

    // Re-verify every Ok response against the independent gold path,
    // exactly as the load generator does.
    let exec = OpExecutor::new();
    let ops: std::collections::HashMap<u64, _> =
        trace.iter().map(|r| (r.id, r.op.clone())).collect();
    let (mut served, mut shed, mut verified) = (0u64, 0u64, 0u64);
    for _ in 0..trace.len() {
        match conn.recv().expect("server delivers every response") {
            Response::Ok { id, result, .. } => {
                served += 1;
                if exec.verify(&ops[&id], &result) {
                    verified += 1;
                }
            }
            Response::Shed { .. } => shed += 1,
            Response::Error { id, message } => {
                eprintln!("request {id} errored: {message}");
            }
        }
    }

    let stats = server.stats();
    server.shutdown();

    println!("served {served} ({verified} verified), shed {shed}\n");
    for t in &stats.tenants {
        println!(
            "{}: served {:>6}  shed {:>5}  p50 {:>9}  p99 {:>9} cycles",
            t.name,
            t.served,
            t.shed_rate_limited + t.shed_queue_full,
            t.p50_latency_cycles,
            t.p99_latency_cycles
        );
    }
    println!();
    for f in &stats.farms {
        println!(
            "farm {}: {:>4} batches  {:>8} jobs  utilization {:.3}",
            f.farm, f.batches, f.jobs, f.utilization
        );
    }
    println!(
        "\nfleet drained at {} cycles — {:.1} served requests / Mcycle",
        stats.drained_at, stats.throughput_per_mcc
    );
    assert_eq!(verified, served, "every served response must verify");
}
