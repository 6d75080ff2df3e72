//! `serve_zkevm`: the sync serving engine replaying loadgen traces.
//!
//! Each trace is the zkEVM precompile mix (60/20/12/8 mul / modexp /
//! ec_add / ec_mul) from two tenants onto 4 farms × 4 tiles. Every
//! request goes through [`Engine::submit`] and [`Engine::resolve`],
//! and every `Ok` response is re-checked by [`OpExecutor::verify`].
//! An op is one served request, timed from its `submit` call to the
//! return of the `resolve` that delivers its response; shed requests
//! are counted, not timed.
//!
//! The timed region replays four traces in turn, each pass on a fresh
//! engine. Serving decisions are a pure function of the trace, so
//! every complete pass over a trace must report the same engine
//! statistics; the `sim_*` metrics come from the first pass over
//! each, which always completes.
//!
//! The fleet is pinned to the scheduler's sequential path
//! (`parallel_threshold: usize::MAX`), whose reports the scheduler
//! documents as identical to the parallel path's; a run on a small
//! host then has one thread.

use crate::timing::{set_trace_overhead, timed_setup, LayerTimes, OpTimes, Region};
use crate::{quantile, Outcome};
use cim_serve::engine::TenantSummary;
use cim_serve::loadgen::generate_trace;
use cim_serve::{Disposition, Engine, EngineStats, FleetConfig, LoadgenConfig, OpExecutor};
use cim_serve::{Request, Response};

/// Traces replayed, each drawn from its own seed derived from the
/// run's: four traces hold four times the batches of one, so the
/// latency distribution and the `sim_*` metrics depend less on one
/// trace's arrival pattern.
const TRACES: u64 = 4;

/// Requests per trace.
const REQUESTS: u64 = 20_000;

/// A set-up serving workload, ready to time.
pub struct Bench {
    config: LoadgenConfig,
    traces: Vec<Vec<Request>>,
    exec: OpExecutor,
    /// The engine set-up built, until the first pass takes it.
    engine: Option<Engine>,
    /// Seconds (at the reference speed) to generate the traces and
    /// build the executor and the engine.
    pub setup_s: f64,
}

/// What one pass over a trace served.
struct Pass {
    submitted: u64,
    answered: u64,
    failed: u64,
    verified: u64,
    /// Virtual-cycle latency of every served request.
    sim_latencies: Vec<u64>,
    /// Per-layer time, on a traced pass.
    times: Option<PassTimes>,
    stats: EngineStats,
}

/// Time (raw ms) a traced pass spent per layer, summed.
#[derive(Default)]
struct PassTimes {
    submit: f64,
    resolve: f64,
    verify: f64,
    total: f64,
}

impl Bench {
    /// Generates the traces from `seed` and builds the engine.
    pub fn setup(seed: u64) -> Self {
        let config = LoadgenConfig {
            requests: REQUESTS,
            fleet: FleetConfig {
                parallel_threshold: usize::MAX,
                ..FleetConfig::default()
            },
            workers: 0,
            ..LoadgenConfig::default()
        };
        let ((traces, exec, engine), setup_s) = timed_setup(|| {
            let traces = (0..TRACES)
                .map(|k| {
                    let seed = seed.wrapping_mul(TRACES).wrapping_add(k);
                    generate_trace(&LoadgenConfig {
                        seed,
                        ..config.clone()
                    })
                })
                .collect();
            (
                traces,
                OpExecutor::new(),
                Engine::new(config.engine_config()),
            )
        });
        Bench {
            config,
            traces,
            exec,
            engine: Some(engine),
            setup_s,
        }
    }

    /// Runs the timed region and reports its metrics.
    pub fn run(mut self, seconds: f64, traced: bool) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let mut untraced_ops = OpTimes::default();
        let mut traced_ops = OpTimes::default();
        let mut layers = LayerTimes::default();
        let mut engine = self.engine.take();
        let mut firsts: Vec<Option<Pass>> = (0..TRACES).map(|_| None).collect();
        let mut verified = 0;
        // A traced run serves each trace twice in a row, untraced then
        // traced. The first round over every trace always completes.
        let repeats = if traced { 2 } else { 1 };
        let full_passes = TRACES as usize * repeats;
        let mut region = Region::start(seconds);
        for i in 0.. {
            if region.expired() && i >= full_passes {
                break;
            }
            let k = (i / repeats) % TRACES as usize;
            let trace_this = traced && i % 2 == 1;
            let engine = engine
                .take()
                .unwrap_or_else(|| Engine::new(self.config.engine_config()));
            let cuttable = i >= full_passes;
            let ops = if trace_this {
                &mut traced_ops
            } else {
                &mut untraced_ops
            };
            let mut pass = self.pass(k, engine, &mut region, cuttable, trace_this, ops)?;
            out.attempted += pass.submitted;
            out.failed += pass.failed;
            verified += pass.verified;
            if let Some(t) = pass.times.take() {
                layers.ops += pass.submitted;
                layers.op += t.total;
                layers.add("serve.submit_ms_per_req", t.submit);
                layers.add("serve.resolve_ms_per_req", t.resolve);
                layers.add("serve.client_verify_ms_per_req", t.verify);
            }
            match &firsts[k] {
                None => firsts[k] = Some(pass),
                Some(f) if pass.submitted == REQUESTS => {
                    out.check(pass.stats == f.stats, || {
                        format!("pass {i} served trace {k} differently from its first pass")
                    });
                }
                Some(_) => {}
            }
        }
        let scale = region.finish(&mut out);
        let firsts: Vec<Pass> = firsts.into_iter().flatten().collect();
        let total = |f: fn(&EngineStats) -> u64| firsts.iter().map(|p| f(&p.stats)).sum::<u64>();
        let (served, batches) = (total(|s| s.served), total(|s| s.batches));
        let errors = total(|s| s.errors);
        out.check(errors == 0, || format!("{errors} requests errored"));
        out.set_latencies(&mut untraced_ops, &scale);
        if traced {
            layers.record(&mut out, None, &scale);
            out.set("serve.batches", batches as f64);
            out.set("serve.requests_per_batch", served as f64 / batches as f64);
            out.set("serve.farm_jobs", total(|s| s.jobs) as f64);
            let shed = |f: fn(&TenantSummary) -> u64| {
                firsts
                    .iter()
                    .flat_map(|p| &p.stats.tenants)
                    .map(f)
                    .sum::<u64>() as f64
            };
            out.set("serve.shed_rate_limited", shed(|t| t.shed_rate_limited));
            out.set("serve.shed_queue_full", shed(|t| t.shed_queue_full));
            set_trace_overhead(&mut out, &untraced_ops, &traced_ops);
        } else {
            let mut sim: Vec<f64> = firsts
                .iter()
                .flat_map(|p| &p.sim_latencies)
                .map(|&c| c as f64)
                .collect();
            sim.sort_by(f64::total_cmp);
            out.set("setup_s", self.setup_s);
            out.set("goodput_per_s", verified as f64 / scale.seconds);
            out.set(
                "sim_cycles_per_result",
                total(|s| s.drained_at) as f64 / served as f64,
            );
            let max_wear = firsts
                .iter()
                .flat_map(|p| &p.stats.tile_wear)
                .map(|t| t.max_cell_writes)
                .max();
            out.set("sim_max_cell_writes", max_wear.unwrap_or(0) as f64);
            out.set("sim_p99_latency_cycles", quantile(&sim, 0.99));
            out.set(
                "sim_served_ratio",
                served as f64 / total(|s| s.submitted) as f64,
            );
        }
        Ok(out)
    }

    /// Serves trace `k` on `engine`, recording each served request's
    /// latency in `ops`. A `cuttable` pass stops submitting once the
    /// region expires; a `traced` one also times each layer.
    fn pass(
        &self,
        k: usize,
        mut engine: Engine,
        region: &mut Region,
        cuttable: bool,
        traced: bool,
        ops: &mut OpTimes,
    ) -> Result<Pass, String> {
        let trace = &self.traces[k];
        let mut sent = vec![f64::NAN; trace.len()];
        let mut pass = Pass {
            submitted: 0,
            answered: 0,
            failed: 0,
            verified: 0,
            sim_latencies: Vec::new(),
            times: traced.then(PassTimes::default),
            stats: engine.stats(),
        };
        for request in trace {
            if cuttable && region.expired() {
                break;
            }
            let request = request.clone();
            let id = request.id as usize;
            region.tick();
            let t0 = region.now();
            let (disposition, completed) = engine.submit(request).map_err(|e| e.to_string())?;
            let t1 = region.now();
            pass.sim_latencies
                .extend(completed.iter().map(|c| c.completion.latency()));
            let responses = engine.resolve(completed, &self.exec);
            let t2 = region.now();
            sent[id] = t0;
            pass.submitted += 1;
            let rejected = match disposition {
                Disposition::Rejected(resp) => Some(resp),
                Disposition::Queued(_) => None,
            };
            let responses = rejected.into_iter().chain(responses);
            pass.deliver(trace, &self.exec, responses, &sent, region, ops);
            pass.time_layers(t0, t1, t2, region);
        }
        region.tick();
        let t0 = region.now();
        let completed = engine.drain().map_err(|e| e.to_string())?;
        let t1 = region.now();
        pass.sim_latencies
            .extend(completed.iter().map(|c| c.completion.latency()));
        let responses = engine.resolve(completed, &self.exec);
        let t2 = region.now();
        pass.deliver(trace, &self.exec, responses.into_iter(), &sent, region, ops);
        pass.time_layers(t0, t1, t2, region);
        if pass.answered != pass.submitted {
            return Err(format!(
                "{} responses to {} requests",
                pass.answered, pass.submitted
            ));
        }
        pass.stats = engine.stats();
        Ok(pass)
    }
}

impl Pass {
    /// Client side: takes delivery of `responses` now, records each
    /// `Ok`'s latency since `sent` in `ops`, and re-checks its result,
    /// timing the re-checks on a traced pass.
    fn deliver(
        &mut self,
        trace: &[Request],
        exec: &OpExecutor,
        responses: impl Iterator<Item = Response>,
        sent: &[f64],
        clock: &Region,
        ops: &mut OpTimes,
    ) {
        let at = clock.now();
        for resp in responses {
            self.answered += 1;
            let id = resp.id() as usize;
            match resp {
                Response::Ok { result, .. } => {
                    ops.push(at, at - sent[id]);
                    let start = self.times.is_some().then(|| clock.now());
                    let ok = exec.verify(&trace[id].op, &result);
                    if let (Some(t), Some(start)) = (self.times.as_mut(), start) {
                        t.verify += clock.now() - start;
                    }
                    if ok {
                        self.verified += 1;
                    } else {
                        self.failed += 1;
                    }
                }
                Response::Shed { .. } => {}
                Response::Error { .. } => self.failed += 1,
            }
        }
    }

    /// On a traced pass, adds one submit–resolve–deliver step that
    /// started at `t0`, submitted until `t1` and resolved until `t2`.
    fn time_layers(&mut self, t0: f64, t1: f64, t2: f64, clock: &Region) {
        if let Some(t) = self.times.as_mut() {
            t.submit += t1 - t0;
            t.resolve += t2 - t1;
            t.total += clock.now() - t0;
        }
    }
}
