//! Deterministic load generation: replayable zkEVM-precompile-style
//! request traces, client-side gold verification, and a JSON report.
//!
//! The trace is a pure function of the seed: operand values come from
//! [`UintRng`], arrivals from a uniform inter-arrival draw, and the
//! operation mix mimics a zkEVM precompile workload (wide mults
//! dominating, modexp and alt_bn128 point ops behind them). Tenants
//! get geometrically decreasing admission rates so a single trace
//! exercises both the happy path and deterministic shedding. Every
//! `Ok` response is re-verified against an independent gold path
//! ([`OpExecutor::verify`]); the report counts verified / incorrect
//! separately from served, so "zero incorrect" is a checkable claim,
//! not an assumption.

use crate::admission::TenantConfig;
use crate::batcher::BatchConfig;
use crate::engine::{Engine, EngineConfig, EngineStats};
use crate::exec::OpExecutor;
use crate::fleet::FleetConfig;
use crate::protocol::{EcPoint, Op, OpKind, Request, Response};
use crate::server::{CimServer, ServerConfig};
use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_metrics::MetricsHub;
use cim_modmul::ec::Curve;
use cim_modmul::fields::FieldId;
use cim_obs::journal::FlightRecorder;
use cim_obs::slo::{SloEngine, SloInputs};
use cim_pulse::{PulseHub, ServeObservation};
use cim_trace::json::JsonWriter;
use std::collections::HashMap;

/// Relative weights of the four operations in the generated mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixWeights {
    /// Wide multiplication.
    pub mul: u64,
    /// Modular exponentiation.
    pub modexp: u64,
    /// Curve point addition.
    pub ec_add: u64,
    /// Scalar multiplication.
    pub ec_mul: u64,
}

impl Default for MixWeights {
    fn default() -> Self {
        // zkEVM-precompile flavour: mults dominate, point ops trail.
        MixWeights {
            mul: 60,
            modexp: 20,
            ec_add: 12,
            ec_mul: 8,
        }
    }
}

impl MixWeights {
    fn total(&self) -> u64 {
        self.mul + self.modexp + self.ec_add + self.ec_mul
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Requests to generate.
    pub requests: u64,
    /// Tenants; tenant `i` gets rate `rate / (i + 1)`.
    pub tenants: usize,
    /// Base per-tenant admission rate (requests per 10⁶ cycles).
    pub rate: u64,
    /// Token-bucket burst (0 → same as rate).
    pub burst: u64,
    /// Per-tenant queue bound (0 → `4 × rate`).
    pub queue_depth: usize,
    /// Mean inter-arrival gap in cycles.
    pub mean_gap: u64,
    /// Operation mix.
    pub mix: MixWeights,
    /// Exponent size for generated modexp requests.
    pub exp_bits: usize,
    /// Scalar size for generated ec_mul requests.
    pub scalar_bits: usize,
    /// Fleet shape.
    pub fleet: FleetConfig,
    /// Batching thresholds.
    pub batch: BatchConfig,
    /// RNG seed; same seed → same trace → same report numbers.
    pub seed: u64,
    /// Worker threads for the threaded run (0 → sync engine, no
    /// server threads).
    pub workers: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            requests: 10_000,
            tenants: 2,
            rate: 400,
            burst: 0,
            queue_depth: 0,
            mean_gap: 2_000,
            mix: MixWeights::default(),
            exp_bits: 12,
            scalar_bits: 12,
            fleet: FleetConfig::default(),
            batch: BatchConfig::default(),
            seed: 0xC1A0_5E47,
            workers: 0,
        }
    }
}

impl LoadgenConfig {
    /// The tenant table this config induces.
    pub fn tenant_table(&self) -> Vec<TenantConfig> {
        (0..self.tenants)
            .map(|i| {
                let rate = (self.rate / (i as u64 + 1)).max(1);
                let mut t = TenantConfig::new(format!("tenant{i}"), rate);
                if self.burst > 0 {
                    t = t.with_burst(self.burst);
                }
                if self.queue_depth > 0 {
                    t = t.with_queue_depth(self.queue_depth);
                }
                t
            })
            .collect()
    }

    /// The engine configuration this config induces.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            tenants: self.tenant_table(),
            fleet: self.fleet,
            batch: self.batch,
        }
    }
}

/// Small pools of known-good curve points to draw EC operands from.
struct PointPools {
    bn254: Vec<EcPoint>,
    bls: Vec<EcPoint>,
}

fn curve_points(curve: &Curve, count: usize) -> Vec<EcPoint> {
    let g = curve.find_point();
    let mut out = Vec::with_capacity(count);
    let mut p = g.clone();
    for _ in 0..count {
        let (x, y) = curve.to_affine(&p).expect("finite multiple");
        out.push(EcPoint::affine(x, y));
        p = curve.add(&p, &g);
    }
    out
}

impl PointPools {
    fn new() -> Self {
        let bn254 = Curve::new(
            FieldId::Bn254Base.modulus(),
            Uint::zero(),
            Uint::from_u64(3),
        )
        .expect("alt_bn128 parameters are valid");
        PointPools {
            bn254: curve_points(&bn254, 8),
            bls: curve_points(
                &Curve::bls12_381_g1().expect("BLS12-381 parameters are valid"),
                8,
            ),
        }
    }

    fn pick(&self, field: FieldId, rng: &mut UintRng) -> EcPoint {
        let pool = match field {
            FieldId::Bls12_381Base => &self.bls,
            _ => &self.bn254,
        };
        pool[rng.range(0, pool.len())].clone()
    }
}

/// Generates the deterministic request trace for a config.
pub fn generate_trace(config: &LoadgenConfig) -> Vec<Request> {
    let mut rng = UintRng::seeded(config.seed);
    let pools = PointPools::new();
    let total = config.mix.total().max(1) as usize;
    let mut arrival = 0u64;
    let mut out = Vec::with_capacity(config.requests as usize);
    for i in 0..config.requests {
        // Uniform draw on [1, 2·mean): mean inter-arrival ≈ mean_gap.
        arrival += rng.range(1, (2 * config.mean_gap as usize).max(2)) as u64;
        let tenant = rng.range(0, config.tenants) as u16;
        let roll = rng.range(0, total) as u64;
        let op = if roll < config.mix.mul {
            let width = [256usize, 256, 384, 512][rng.range(0, 4)];
            Op::Mul {
                width,
                a: rng.uniform(width),
                b: rng.uniform(width),
            }
        } else if roll < config.mix.mul + config.mix.modexp {
            let field = if rng.range(0, 2) == 0 {
                FieldId::Bn254Base
            } else {
                FieldId::Goldilocks
            };
            Op::ModExp {
                field,
                base: rng.below(&field.modulus()),
                exp: rng.exact_bits(config.exp_bits.max(1)),
            }
        } else if roll < config.mix.mul + config.mix.modexp + config.mix.ec_add {
            let field = if rng.range(0, 2) == 0 {
                FieldId::Bn254Base
            } else {
                FieldId::Bls12_381Base
            };
            Op::EcAdd {
                field,
                p: pools.pick(field, &mut rng),
                q: pools.pick(field, &mut rng),
            }
        } else {
            let field = if rng.range(0, 2) == 0 {
                FieldId::Bn254Base
            } else {
                FieldId::Bls12_381Base
            };
            Op::EcMul {
                field,
                k: rng.exact_bits(config.scalar_bits.max(1)),
                p: pools.pick(field, &mut rng),
            }
        };
        out.push(Request {
            id: i,
            tenant,
            arrival_cycle: arrival,
            op,
        });
    }
    out
}

/// Outcome of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests generated and submitted.
    pub submitted: u64,
    /// `Ok` responses received.
    pub served: u64,
    /// `Shed` responses received.
    pub shed: u64,
    /// `Error` responses received.
    pub errors: u64,
    /// Served responses whose result matched the client-side gold.
    pub verified: u64,
    /// Served responses whose result did NOT match — must be zero.
    pub incorrect: u64,
    /// Responses received per operation kind.
    pub by_op: Vec<(String, u64)>,
    /// Engine statistics at the end of the run.
    pub stats: EngineStats,
    /// Wall-clock milliseconds for the run (non-deterministic;
    /// excluded from bench gating).
    pub wall_ms: u128,
    /// Whether the run used the threaded server.
    pub threaded: bool,
}

impl LoadReport {
    /// Serializes the report as JSON (stable key order).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_uint("submitted", self.submitted);
        w.field_uint("served", self.served);
        w.field_uint("shed", self.shed);
        w.field_uint("errors", self.errors);
        w.field_uint("verified", self.verified);
        w.field_uint("incorrect", self.incorrect);
        w.field_uint("wall_ms", self.wall_ms as u64);
        w.field_str("mode", if self.threaded { "threaded" } else { "sync" });
        w.key("by_op");
        w.open_object();
        for (op, n) in &self.by_op {
            w.field_uint(op, *n);
        }
        w.close_object();
        w.key("engine");
        w.open_object();
        w.field_uint("batches", self.stats.batches);
        w.field_uint("jobs", self.stats.jobs);
        w.field_uint("drained_at_cycles", self.stats.drained_at);
        w.field_float("throughput_per_mcc", self.stats.throughput_per_mcc);
        w.key("tenants");
        w.open_array();
        for t in &self.stats.tenants {
            w.open_object();
            w.field_str("name", &t.name);
            w.field_uint("served", t.served);
            w.field_uint("shed_rate_limited", t.shed_rate_limited);
            w.field_uint("shed_queue_full", t.shed_queue_full);
            w.field_uint("errors", t.errors);
            w.field_uint("p50_latency_cycles", t.p50_latency_cycles);
            w.field_uint("p95_latency_cycles", t.p95_latency_cycles);
            w.field_uint("p99_latency_cycles", t.p99_latency_cycles);
            w.close_object();
        }
        w.close_array();
        w.key("farms");
        w.open_array();
        for f in &self.stats.farms {
            w.open_object();
            w.field_uint("farm", f.farm as u64);
            w.field_uint("batches", f.batches);
            w.field_uint("jobs", f.jobs);
            w.field_uint("clock_cycles", f.clock);
            w.field_float("utilization", f.utilization);
            w.close_object();
        }
        w.close_array();
        w.close_object();
        w.close_object();
        w.finish()
    }
}

fn tally(
    responses: &[Response],
    ops: &HashMap<u64, Op>,
    exec: &OpExecutor,
    report: &mut LoadReport,
) {
    for resp in responses {
        let kind = ops.get(&resp.id()).map(Op::kind);
        if let Some(kind) = kind {
            let slot = report
                .by_op
                .iter_mut()
                .find(|(name, _)| name == kind.label());
            match slot {
                Some((_, n)) => *n += 1,
                None => report.by_op.push((kind.label().to_string(), 1)),
            }
        }
        match resp {
            Response::Ok { id, result, .. } => {
                report.served += 1;
                let op = ops.get(id).expect("response to a known request");
                if exec.verify(op, result) {
                    report.verified += 1;
                } else {
                    report.incorrect += 1;
                }
            }
            Response::Shed { .. } => report.shed += 1,
            Response::Error { .. } => report.errors += 1,
        }
    }
}

fn blank_report(submitted: u64, threaded: bool, stats: EngineStats) -> LoadReport {
    LoadReport {
        submitted,
        served: 0,
        shed: 0,
        errors: 0,
        verified: 0,
        incorrect: 0,
        by_op: OpKind::ALL
            .iter()
            .map(|k| (k.label().to_string(), 0))
            .collect(),
        stats,
        wall_ms: 0,
        threaded,
    }
}

/// The observation stack a [`run`] can carry: the engine journals
/// into `recorder`, `slo` is evaluated over metrics snapshots as the
/// run progresses, and `pulse`, when present, folds the engine's stats
/// into its timeline, wear series and drift detectors at the same
/// points. Observers only read state the engine already computed, so
/// every serving decision is identical to an unobserved run.
#[derive(Debug)]
pub struct Observers<'a> {
    /// Flight recorder the engine journals into.
    pub recorder: &'a FlightRecorder,
    /// SLO engine observed at each observation point.
    pub slo: &'a mut SloEngine,
    /// Telemetry history scraped before each SLO observation, so
    /// `fleet.drift_alerts` rules see the current alert counts.
    pub pulse: Option<&'a mut PulseHub>,
}

/// Runs the full load-generation cycle: generate the trace, serve it
/// (sync engine or threaded server per `config.workers`), verify
/// every `Ok` against the client-side gold, and report.
///
/// With `observers`, the engine journals into the recorder and the
/// observers are fed at a fixed request cadence on the sync path
/// (`workers == 0`), so burn-rate windows, verdicts and timelines are
/// a pure function of the trace; the threaded path observes once at
/// the end (mid-run metric timing is not deterministic there). Any
/// client-side gold mismatch is journaled as an incorrect result,
/// latching the recorder's auto-dump trigger. Without observers the
/// run attaches no recorder and publishes only the serving metrics.
pub fn run(
    config: &LoadgenConfig,
    hub: &MetricsHub,
    mut observers: Option<Observers<'_>>,
) -> LoadReport {
    let trace = generate_trace(config);
    let tenants: HashMap<u64, u16> = trace.iter().map(|r| (r.id, r.tenant)).collect();
    let ops: HashMap<u64, Op> = trace.iter().map(|r| (r.id, r.op.clone())).collect();
    let exec = OpExecutor::new();
    let start = std::time::Instant::now();

    let (responses, stats, threaded) = if config.workers == 0 {
        let mut engine = Engine::new(config.engine_config());
        engine.attach_metrics(hub);
        if let Some(o) = &observers {
            engine.attach_recorder(o.recorder);
        }
        let mut responses = Vec::with_capacity(trace.len());
        // Observe at a fixed request cadence so sync-mode burn-rate
        // windows are trace-deterministic.
        let observe_every = (config.requests / 8).max(1);
        for (i, request) in trace.into_iter().enumerate() {
            let cycle = request.arrival_cycle;
            responses.extend(engine.serve(request, &exec).expect("validated trace"));
            if let Some(o) = observers.as_mut() {
                if (i as u64 + 1).is_multiple_of(observe_every) {
                    o.observe(&engine.stats(), cycle, 0, false, hub);
                }
            }
        }
        responses.extend(engine.finish(&exec).expect("drain"));
        let stats = engine.stats();
        (responses, stats, false)
    } else {
        let recorder = observers
            .as_ref()
            .map_or_else(FlightRecorder::disabled, |o| o.recorder.clone());
        let server = CimServer::start_observed(
            ServerConfig {
                engine: config.engine_config(),
                workers: config.workers,
            },
            hub,
            recorder,
        );
        let conn = server.connect();
        let n = trace.len();
        for request in &trace {
            conn.send(request);
        }
        conn.drain();
        let responses: Vec<Response> = (0..n)
            .map(|_| conn.recv().expect("server delivers every response"))
            .collect();
        let stats = server.stats();
        server.shutdown();
        (responses, stats, true)
    };

    let mut report = blank_report(responses.len() as u64, threaded, stats);
    tally(&responses, &ops, &exec, &mut report);

    if let Some(mut o) = observers {
        // Journal client-side verification failures: each one latches
        // the recorder's incorrect-result trigger.
        if report.incorrect > 0 {
            for resp in &responses {
                if let Response::Ok { id, result, .. } = resp {
                    let op = ops.get(id).expect("response to a known request");
                    if !exec.verify(op, result) {
                        o.recorder.note_incorrect(
                            report.stats.drained_at,
                            *id,
                            tenants.get(id).copied().unwrap_or(0),
                        );
                    }
                }
            }
        }
        // The final observation carries the true correctness count;
        // publish the verdicts and journal gauges for scraping.
        o.observe(
            &report.stats,
            report.stats.drained_at,
            report.incorrect,
            true,
            hub,
        );
        o.slo.publish_metrics(hub);
        cim_obs::metrics::publish_journal(hub, o.recorder);
    }

    report.wall_ms = start.elapsed().as_millis();
    report
}

impl Observers<'_> {
    /// One observation point at `cycle`: scrape `stats` into the pulse
    /// hub (republishing its gauges), then evaluate the SLO engine.
    fn observe(
        &mut self,
        stats: &EngineStats,
        cycle: u64,
        incorrect: u64,
        drain: bool,
        hub: &MetricsHub,
    ) {
        if let Some(pulse) = self.pulse.as_deref_mut() {
            let wear: Vec<(u32, u32, u64)> = stats
                .tile_wear
                .iter()
                .map(|t| (t.farm, t.tile, t.max_cell_writes))
                .collect();
            let p99 = stats
                .tenants
                .iter()
                .map(|t| t.p99_latency_cycles)
                .max()
                .unwrap_or(0);
            pulse.observe(
                &ServeObservation {
                    cycle,
                    submitted: stats.submitted,
                    served: stats.served,
                    shed: stats.shed,
                    p99_latency_cycles: p99,
                    tile_wear: &wear,
                    drain,
                },
                &hub.snapshot(),
                self.recorder,
            );
            pulse.publish_metrics(hub);
        }
        let inputs = SloInputs { incorrect };
        self.slo
            .observe(cycle, &hub.snapshot(), &inputs, self.recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LoadgenConfig {
        LoadgenConfig {
            requests: 300,
            tenants: 2,
            rate: 200,
            mean_gap: 3_000,
            exp_bits: 6,
            scalar_bits: 6,
            fleet: FleetConfig {
                farms: 2,
                tiles_per_farm: 2,
                ..FleetConfig::default()
            },
            batch: BatchConfig {
                max_jobs: 64,
                max_wait_cycles: 500_000,
            },
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn trace_is_deterministic_and_mixed() {
        let config = small();
        let a = generate_trace(&config);
        let b = generate_trace(&config);
        assert_eq!(a.len(), 300);
        assert_eq!(a, b, "same seed, same trace");
        let kinds: std::collections::BTreeSet<&str> =
            a.iter().map(|r| r.op.kind().label()).collect();
        assert_eq!(kinds.len(), 4, "all four ops present: {kinds:?}");
        assert!(a
            .windows(2)
            .all(|w| w[0].arrival_cycle < w[1].arrival_cycle));
        let different_seed = generate_trace(&LoadgenConfig {
            seed: 999,
            ..config
        });
        assert_ne!(a, different_seed);
    }

    #[test]
    fn sync_run_verifies_everything() {
        let report = run(&small(), &MetricsHub::disabled(), None);
        assert_eq!(report.submitted, 300);
        assert_eq!(report.served + report.shed + report.errors, 300);
        assert!(report.served > 0);
        assert_eq!(report.incorrect, 0, "gold mismatch in load run");
        assert_eq!(report.verified, report.served);
        assert_eq!(report.errors, 0, "trace generates only valid ops");
    }

    #[test]
    fn threaded_run_matches_sync_numbers() {
        let sync = run(&small(), &MetricsHub::disabled(), None);
        let threaded = run(
            &LoadgenConfig {
                workers: 3,
                ..small()
            },
            &MetricsHub::disabled(),
            None,
        );
        assert_eq!(sync.served, threaded.served);
        assert_eq!(sync.shed, threaded.shed);
        assert_eq!(sync.incorrect, 0);
        assert_eq!(threaded.incorrect, 0);
        assert_eq!(sync.stats, threaded.stats, "cycle domain identical");
    }

    #[test]
    fn observed_run_never_perturbs_and_is_deterministic() {
        use cim_obs::journal::RecorderConfig;
        use cim_obs::slo::SloRule;

        let plain = run(&small(), &MetricsHub::disabled(), None);

        let observed = || {
            let hub = MetricsHub::recording();
            let recorder = FlightRecorder::new(RecorderConfig::default());
            let mut slo = SloEngine::new(vec![
                SloRule::parse("tenant0.p99_latency_cycles <= 50000000").unwrap(),
                SloRule::parse("tenant0.correctness").unwrap(),
                SloRule::parse("tenant1.shed_ratio <= 0.9").unwrap(),
            ]);
            let observers = Observers {
                recorder: &recorder,
                slo: &mut slo,
                pulse: None,
            };
            let report = run(&small(), &hub, Some(observers));
            let verdicts = slo
                .verdicts()
                .iter()
                .map(|v| format!("{} {:?} {} {}", v.rule, v.state, v.short_burn, v.long_burn))
                .collect::<Vec<_>>();
            (report, recorder.dump_json(), verdicts, slo.any_page())
        };
        let (a_report, a_dump, a_verdicts, a_page) = observed();
        let (b_report, b_dump, b_verdicts, b_page) = observed();

        // Identical decisions to the unobserved run.
        assert_eq!(plain.served, a_report.served);
        assert_eq!(plain.shed, a_report.shed);
        assert_eq!(
            plain.stats, a_report.stats,
            "observation cannot move a cycle"
        );
        assert_eq!(a_report.incorrect, 0);

        // Deterministic journal and verdicts across runs.
        assert_eq!(a_dump, b_dump, "journal dump must be byte-identical");
        assert_eq!(a_verdicts, b_verdicts);
        assert_eq!(a_report.stats, b_report.stats);
        assert!(!a_page && !b_page, "healthy run must not page");
        assert!(!a_verdicts.is_empty(), "every rule produces a verdict");
        assert!(a_dump.contains("\"admit\""), "journal saw admissions");
    }

    #[test]
    fn report_serializes_to_valid_json() {
        let report = run(
            &LoadgenConfig {
                requests: 50,
                ..small()
            },
            &MetricsHub::disabled(),
            None,
        );
        let json = report.to_json();
        cim_trace::json::check(&json).expect("valid JSON");
        assert!(json.contains("\"incorrect\":0"));
        assert!(json.contains("tenant0"));
    }

    #[test]
    fn slower_tenant_sheds_first() {
        let config = LoadgenConfig {
            requests: 2_000,
            rate: 100,
            mean_gap: 500,
            ..small()
        };
        let report = run(&config, &MetricsHub::disabled(), None);
        assert!(report.shed > 0, "overload trace must shed");
        let t0 = &report.stats.tenants[0];
        let t1 = &report.stats.tenants[1];
        let shed0 = t0.shed_rate_limited + t0.shed_queue_full;
        let shed1 = t1.shed_rate_limited + t1.shed_queue_full;
        assert!(
            shed1 > shed0,
            "half-rate tenant1 ({shed1}) should shed more than tenant0 ({shed0})"
        );
    }
}
