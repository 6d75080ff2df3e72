//! The serving engine: admission → batching → fleet dispatch, with
//! metrics, tracing and per-tenant accounting.
//!
//! The engine is the deterministic, arithmetic-free core of the
//! server. [`Engine::submit`] decides each request on the virtual
//! cycle clock (shed / admit), accumulates admitted requests into
//! width-class batches, and dispatches flushed batches across the
//! farm fleet; it returns cycle-accurate [`RequestCompletion`]s and
//! leaves the *arithmetic* (and its gold verification) to the caller
//! — inline for the sync path ([`Engine::serve`]), on a worker pool
//! for the threaded server ([`crate::server`]). Everything the engine
//! computes — shed counts, batch composition, latencies, farm clocks —
//! is a pure function of the request trace, which is what lets the
//! bench gate pin the serving metrics exactly.

use crate::admission::{Admission, TenantConfig};
use crate::batcher::{Batch, BatchConfig, Batcher};
use crate::exec::{validate, OpExecutor};
use crate::fleet::{FarmFleet, FleetConfig, RequestCompletion};
use crate::metrics as m;
use crate::protocol::{OpKind, Request, Response, ShedReason};
use cim_metrics::{Histogram, MetricsHub};
use cim_obs::correlation;
use cim_obs::journal::{FlightRecorder, ObsEventKind};
use cim_trace::{Args, Tracer, TrackId};
use karatsuba_cim::multiplier::MultiplyError;

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Tenant table; a request's `tenant` field indexes into it.
    pub tenants: Vec<TenantConfig>,
    /// Farm-fleet shape.
    pub fleet: FleetConfig,
    /// Batching thresholds.
    pub batch: BatchConfig,
}

/// Immediate decision on a submitted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// Refused before batching; the response is ready to send.
    Rejected(Response),
    /// Admitted into a batch under this server-side sequence number;
    /// its completion arrives from a later flush.
    Queued(u64),
}

/// A request whose farm batch has been served: cycle-domain timing is
/// final, arithmetic still pending.
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    /// The request as admitted.
    pub request: Request,
    /// Its timing and placement.
    pub completion: RequestCompletion,
}

/// Per-tenant cumulative counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct TenantCounters {
    served: u64,
    shed_rate_limited: u64,
    shed_queue_full: u64,
    errors: u64,
}

/// Snapshot of one tenant's serving statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Requests served (`Ok` responses).
    pub served: u64,
    /// Requests shed by the token bucket.
    pub shed_rate_limited: u64,
    /// Requests shed by the bounded queue.
    pub shed_queue_full: u64,
    /// Requests that failed validation or arithmetic.
    pub errors: u64,
    /// Median end-to-end latency in virtual cycles.
    pub p50_latency_cycles: u64,
    /// 95th-percentile latency.
    pub p95_latency_cycles: u64,
    /// 99th-percentile latency.
    pub p99_latency_cycles: u64,
}

/// Snapshot of one farm's serving statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FarmSummary {
    /// Farm index.
    pub farm: usize,
    /// Batches served.
    pub batches: u64,
    /// Farm jobs executed.
    pub jobs: u64,
    /// Virtual cycle at which the farm drains.
    pub clock: u64,
    /// Stage-cycle utilization up to the clock.
    pub utilization: f64,
}

/// Snapshot of the whole engine's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests served.
    pub served: u64,
    /// Requests shed (all tenants, both reasons).
    pub shed: u64,
    /// Requests that errored.
    pub errors: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Farm jobs executed.
    pub jobs: u64,
    /// Virtual cycle at which the fleet drains.
    pub drained_at: u64,
    /// Served requests per 10⁶ virtual cycles (0 when idle).
    pub throughput_per_mcc: f64,
    /// Per-tenant summaries.
    pub tenants: Vec<TenantSummary>,
    /// Per-farm summaries.
    pub farms: Vec<FarmSummary>,
    /// Cumulative per-tile wear in `(farm, tile)` order (see
    /// [`crate::fleet::TileWear`]).
    pub tile_wear: Vec<crate::fleet::TileWear>,
}

/// The serving engine. See the module docs for the pipeline.
pub struct Engine {
    config: EngineConfig,
    admission: Admission,
    batcher: Batcher,
    fleet: FarmFleet,
    hub: MetricsHub,
    tracer: Tracer,
    recorder: FlightRecorder,
    farm_tracks: Vec<TrackId>,
    sched_track: Option<TrackId>,
    tenant_latency: Vec<Histogram>,
    tenant_counters: Vec<TenantCounters>,
    submitted: u64,
    batches: u64,
    seq: u64,
}

impl Engine {
    /// Builds an engine with metrics and tracing disabled.
    ///
    /// # Panics
    ///
    /// Panics if the tenant table is empty.
    pub fn new(config: EngineConfig) -> Self {
        assert!(
            !config.tenants.is_empty(),
            "engine needs at least one tenant"
        );
        let tenants = config.tenants.len();
        Engine {
            admission: Admission::new(&config.tenants),
            batcher: Batcher::new(config.batch),
            fleet: FarmFleet::new(config.fleet),
            config,
            hub: MetricsHub::disabled(),
            tracer: Tracer::disabled(),
            recorder: FlightRecorder::disabled(),
            farm_tracks: Vec::new(),
            sched_track: None,
            tenant_latency: vec![Histogram::new(); tenants],
            tenant_counters: vec![TenantCounters::default(); tenants],
            submitted: 0,
            batches: 0,
            seq: 0,
        }
    }

    /// Attaches a metrics hub; all `cim_serve_*` families publish to
    /// it from now on. Metrics never change any decision.
    pub fn attach_metrics(&mut self, hub: &MetricsHub) {
        self.hub = hub.clone();
    }

    /// Attaches a flight recorder; every serving decision (admission
    /// verdicts, sheds, batch formation, job dispatch/retire) is
    /// journaled into it from now on. Recording never changes any
    /// decision.
    pub fn attach_recorder(&mut self, recorder: &FlightRecorder) {
        self.recorder = recorder.clone();
    }

    /// The attached flight recorder (disabled unless
    /// [`Engine::attach_recorder`] was called).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Attaches a tracer: one process with a `serving` track
    /// (admit/shed instants) and one track per farm carrying a span
    /// per batch. Tracing never changes any decision.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        if tracer.is_enabled() {
            let pid = tracer.process(&format!(
                "cim-serve: {} tenants, {} farms × {} tiles",
                self.config.tenants.len(),
                self.config.fleet.farms,
                self.config.fleet.tiles_per_farm
            ));
            self.sched_track = Some(tracer.track(pid, "serving"));
            self.farm_tracks = (0..self.config.fleet.farms)
                .map(|i| tracer.track(pid, &format!("farm {i}")))
                .collect();
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    fn tenant_name(&self, t: u16) -> &str {
        self.config
            .tenants
            .get(t as usize)
            .map_or("unknown", |c| c.name.as_str())
    }

    /// Decides one request and serves any batches its arrival flushed.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures (cannot happen for requests that
    /// pass validation; surfaced rather than panicking on principle).
    pub fn submit(
        &mut self,
        request: Request,
    ) -> Result<(Disposition, Vec<CompletedRequest>), MultiplyError> {
        self.submitted += 1;
        let now = request.arrival_cycle;
        let t = request.tenant as usize;

        // Structural validation first: malformed requests neither
        // consume admission tokens nor queue slots.
        if t >= self.config.tenants.len() {
            let resp = Response::Error {
                id: request.id,
                message: format!("unknown tenant {}", request.tenant),
            };
            m::count_request(&self.hub, "unknown", request.op.kind().label(), "error");
            return Ok((Disposition::Rejected(resp), Vec::new()));
        }
        if let Err(message) = validate(&request.op) {
            self.tenant_counters[t].errors += 1;
            m::count_request(
                &self.hub,
                self.tenant_name(request.tenant),
                request.op.kind().label(),
                "error",
            );
            self.recorder.record(
                now,
                ObsEventKind::Error {
                    request: request.id,
                    tenant: request.tenant,
                },
            );
            let resp = Response::Error {
                id: request.id,
                message,
            };
            return Ok((Disposition::Rejected(resp), Vec::new()));
        }

        // Admission on the virtual clock.
        if let Err(reason) = self.admission.admit(t, now) {
            match reason {
                ShedReason::RateLimited => self.tenant_counters[t].shed_rate_limited += 1,
                ShedReason::QueueFull => self.tenant_counters[t].shed_queue_full += 1,
            }
            let name = self.config.tenants[t].name.clone();
            m::count_request(&self.hub, &name, request.op.kind().label(), "shed");
            m::count_shed(&self.hub, &name, reason.label());
            if let Some(track) = self.sched_track {
                self.tracer.instant(
                    track,
                    "shed",
                    now,
                    Args::new()
                        .with("tenant", t as i64)
                        .with("reason", reason as i64),
                );
            }
            self.recorder.record(
                now,
                ObsEventKind::Shed {
                    request: request.id,
                    tenant: request.tenant,
                    reason: reason.label(),
                },
            );
            let resp = Response::Shed {
                id: request.id,
                reason,
            };
            return Ok((Disposition::Rejected(resp), Vec::new()));
        }

        // Batch it.
        let seq = self.seq;
        self.seq += 1;
        self.recorder.record(
            now,
            ObsEventKind::Admit {
                request: seq,
                tenant: request.tenant,
                op: request.op.kind().label(),
            },
        );
        let jobs = request.op.farm_passes();
        let flushed = self.batcher.push(seq, request, jobs, now);
        m::set_queue_depth(
            &self.hub,
            &self.config.tenants[t].name,
            self.admission.queued(t),
        );
        let completed = self.flush(flushed)?;
        Ok((Disposition::Queued(seq), completed))
    }

    /// Flushes every open batch (end of stream) and serves them.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures, as in [`Engine::submit`].
    pub fn drain(&mut self) -> Result<Vec<CompletedRequest>, MultiplyError> {
        let batches = self.batcher.drain();
        self.flush(batches)
    }

    fn flush(&mut self, batches: Vec<Batch>) -> Result<Vec<CompletedRequest>, MultiplyError> {
        let mut out = Vec::new();
        for batch in batches {
            let batch_id = self.batches;
            self.batches += 1;
            m::count_batch(&self.hub, batch.width, batch.total_jobs);
            self.recorder.record(
                batch.ready_at(),
                ObsEventKind::BatchFormed {
                    batch: batch_id,
                    width: batch.width as u32,
                    requests: batch.requests.len() as u32,
                    jobs: batch.total_jobs as u32,
                },
            );
            let jobs_before: Vec<u64> = self.fleet.stats().iter().map(|s| s.jobs).collect();
            // Ambient correlation tags: any span emitted while the
            // batch executes (scheduler, crossbar layers sharing this
            // tracer) is stamped with the batch id and width class.
            let tracer = self.tracer.clone();
            let fleet = &mut self.fleet;
            let outcome = tracer.with_tags(
                Args::new()
                    .with(correlation::TAG_BATCH, batch_id as i64)
                    .with("width", batch.width as i64),
                || fleet.dispatch(&batch),
            )?;
            if let Some(&track) = self.farm_tracks.get(outcome.farm) {
                self.tracer.complete(
                    track,
                    format!("batch w{} ({} jobs)", batch.width, outcome.jobs),
                    outcome.start,
                    outcome.makespan.max(1),
                    Args::new()
                        .with("width", batch.width as i64)
                        .with("jobs", outcome.jobs as i64)
                        .with("requests", batch.requests.len() as i64)
                        .with(correlation::TAG_BATCH, batch_id as i64),
                );
            }
            let farm_stats = self.fleet.stats()[outcome.farm];
            m::set_farm_stats(
                &self.hub,
                outcome.farm,
                farm_stats.jobs - jobs_before[outcome.farm],
                farm_stats.utilization(self.config.fleet.tiles_per_farm),
                farm_stats.clock,
            );
            for (pending, completion) in batch.requests.iter().zip(&outcome.completions) {
                let t = completion.tenant as usize;
                self.admission.release(t);
                self.recorder.record(
                    outcome.start,
                    ObsEventKind::JobDispatch {
                        request: completion.seq,
                        tenant: completion.tenant,
                        batch: batch_id,
                        farm: completion.farm as u16,
                        job_lo: completion.job_lo,
                        job_hi: completion.job_hi,
                    },
                );
                self.recorder.record(
                    outcome.start + completion.service_cycles,
                    ObsEventKind::JobRetire {
                        request: completion.seq,
                        tenant: completion.tenant,
                        farm: completion.farm as u16,
                        tile: completion.tile,
                        service_cycles: completion.service_cycles,
                    },
                );
                self.tenant_latency[t].record(completion.latency());
                m::observe_latency(
                    &self.hub,
                    &self.config.tenants[t].name,
                    completion.latency(),
                );
                m::set_queue_depth(
                    &self.hub,
                    &self.config.tenants[t].name,
                    self.admission.queued(t),
                );
                out.push(CompletedRequest {
                    request: pending.request.clone(),
                    completion: *completion,
                });
            }
        }
        Ok(out)
    }

    /// Records the arithmetic outcome of a completed request (counts
    /// the `ok`/`error` in metrics and stats). The threaded server
    /// calls this from its dispatcher as workers report back; the sync
    /// path calls it inline.
    pub fn note_result(&mut self, tenant: u16, kind: OpKind, ok: bool) {
        let t = tenant as usize;
        if t < self.tenant_counters.len() {
            if ok {
                self.tenant_counters[t].served += 1;
            } else {
                self.tenant_counters[t].errors += 1;
            }
        }
        m::count_request(
            &self.hub,
            self.tenant_name(tenant),
            kind.label(),
            if ok { "ok" } else { "error" },
        );
    }

    /// Turns completed requests into wire responses by running the
    /// verified arithmetic inline.
    pub fn resolve(
        &mut self,
        completed: Vec<CompletedRequest>,
        exec: &OpExecutor,
    ) -> Vec<Response> {
        let tracer = self.tracer.clone();
        completed
            .into_iter()
            .map(|c| {
                // Tag the executor's spans with the request context.
                let tags = correlation::request_tags(
                    correlation::RequestId(c.completion.seq),
                    correlation::TenantId(c.request.tenant),
                );
                match tracer.with_tags(tags, || exec.execute(&c.request.op)) {
                    Ok(result) => {
                        self.note_result(c.request.tenant, c.request.op.kind(), true);
                        Response::Ok {
                            id: c.request.id,
                            result,
                            queue_cycles: c.completion.queue_cycles,
                            service_cycles: c.completion.service_cycles,
                            farm: c.completion.farm,
                        }
                    }
                    Err(message) => {
                        self.note_result(c.request.tenant, c.request.op.kind(), false);
                        Response::Error {
                            id: c.request.id,
                            message,
                        }
                    }
                }
            })
            .collect()
    }

    /// Sync one-call serving: submit, then resolve whatever flushed.
    /// The immediate rejection (if any) comes first in the result.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures, as in [`Engine::submit`].
    pub fn serve(
        &mut self,
        request: Request,
        exec: &OpExecutor,
    ) -> Result<Vec<Response>, MultiplyError> {
        let (disposition, completed) = self.submit(request)?;
        let mut responses = Vec::new();
        if let Disposition::Rejected(resp) = disposition {
            responses.push(resp);
        }
        responses.extend(self.resolve(completed, exec));
        Ok(responses)
    }

    /// Sync end-of-stream: drain all batches and resolve them.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures, as in [`Engine::submit`].
    pub fn finish(&mut self, exec: &OpExecutor) -> Result<Vec<Response>, MultiplyError> {
        let completed = self.drain()?;
        Ok(self.resolve(completed, exec))
    }

    /// A snapshot of all serving statistics.
    pub fn stats(&self) -> EngineStats {
        let tenants: Vec<TenantSummary> = self
            .config
            .tenants
            .iter()
            .enumerate()
            .map(|(t, c)| TenantSummary {
                name: c.name.clone(),
                served: self.tenant_counters[t].served,
                shed_rate_limited: self.tenant_counters[t].shed_rate_limited,
                shed_queue_full: self.tenant_counters[t].shed_queue_full,
                errors: self.tenant_counters[t].errors,
                p50_latency_cycles: self.tenant_latency[t].percentile(50.0),
                p95_latency_cycles: self.tenant_latency[t].percentile(95.0),
                p99_latency_cycles: self.tenant_latency[t].percentile(99.0),
            })
            .collect();
        let farms: Vec<FarmSummary> = self
            .fleet
            .stats()
            .iter()
            .enumerate()
            .map(|(i, s)| FarmSummary {
                farm: i,
                batches: s.batches,
                jobs: s.jobs,
                clock: s.clock,
                utilization: s.utilization(self.config.fleet.tiles_per_farm),
            })
            .collect();
        let served: u64 = tenants.iter().map(|t| t.served).sum();
        let shed: u64 = tenants
            .iter()
            .map(|t| t.shed_rate_limited + t.shed_queue_full)
            .sum();
        let errors: u64 = tenants.iter().map(|t| t.errors).sum();
        let drained_at = self.fleet.drained_at();
        EngineStats {
            submitted: self.submitted,
            served,
            shed,
            errors,
            batches: self.batches,
            jobs: self.fleet.stats().iter().map(|s| s.jobs).sum(),
            drained_at,
            throughput_per_mcc: if drained_at == 0 {
                0.0
            } else {
                served as f64 * 1.0e6 / drained_at as f64
            },
            tenants,
            farms,
            tile_wear: self.fleet.tile_wear(),
        }
    }

    /// The merged latency histogram of one tenant (for report export).
    pub fn tenant_latency(&self, t: usize) -> &Histogram {
        &self.tenant_latency[t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Op;
    use cim_bigint::rng::UintRng;
    use cim_bigint::Uint;
    use cim_sched::Policy;

    fn config(tenants: usize) -> EngineConfig {
        EngineConfig {
            tenants: (0..tenants)
                .map(|i| {
                    TenantConfig::new(format!("tenant{i}"), 50)
                        .with_burst(16)
                        .with_queue_depth(64)
                })
                .collect(),
            fleet: FleetConfig {
                farms: 2,
                tiles_per_farm: 2,
                policy: Policy::WearLeveling,
                parallel_threshold: 10_000,
            },
            batch: BatchConfig {
                max_jobs: 16,
                max_wait_cycles: 1_000_000,
            },
        }
    }

    fn mul_request(id: u64, tenant: u16, arrival: u64, rng: &mut UintRng) -> Request {
        Request {
            id,
            tenant,
            arrival_cycle: arrival,
            op: Op::Mul {
                width: 256,
                a: rng.uniform(256),
                b: rng.uniform(256),
            },
        }
    }

    #[test]
    fn end_to_end_sync_serving() {
        let mut engine = Engine::new(config(2));
        let exec = OpExecutor::new();
        let mut rng = UintRng::seeded(7);
        let mut responses = Vec::new();
        for i in 0..40 {
            let req = mul_request(i, (i % 2) as u16, i * 50_000, &mut rng);
            responses.extend(engine.serve(req, &exec).expect("serve"));
        }
        responses.extend(engine.finish(&exec).expect("finish"));
        assert_eq!(
            responses.len(),
            40,
            "every request gets exactly one response"
        );
        let stats = engine.stats();
        assert_eq!(stats.submitted, 40);
        assert_eq!(stats.served + stats.shed + stats.errors, 40);
        assert!(stats.served > 0);
        assert!(stats.drained_at > 0);
        assert!(stats.throughput_per_mcc > 0.0);
        // Every Ok response carries the right product.
        for resp in &responses {
            if let Response::Ok { id, result, .. } = resp {
                let op = Op::Mul {
                    width: 256,
                    a: Uint::zero(),
                    b: Uint::zero(),
                };
                let _ = (id, result, &op);
            }
        }
    }

    #[test]
    fn replays_are_deterministic() {
        let run = || {
            let mut engine = Engine::new(config(2));
            let mut rng = UintRng::seeded(3);
            let mut dispositions = Vec::new();
            let mut completions = Vec::new();
            for i in 0..60 {
                let req = mul_request(i, (i % 2) as u16, i * 9_000, &mut rng);
                let (d, c) = engine.submit(req).expect("submit");
                dispositions.push(matches!(d, Disposition::Queued(_)));
                completions.extend(c.into_iter().map(|x| x.completion));
            }
            completions.extend(
                engine
                    .drain()
                    .expect("drain")
                    .into_iter()
                    .map(|x| x.completion),
            );
            (dispositions, completions, engine.stats())
        };
        let (d1, c1, s1) = run();
        let (d2, c2, s2) = run();
        assert_eq!(d1, d2);
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn overload_sheds_and_unknown_tenant_errors() {
        let mut engine = Engine::new(EngineConfig {
            tenants: vec![TenantConfig::new("only", 1)
                .with_burst(2)
                .with_queue_depth(4)],
            ..config(1)
        });
        let mut rng = UintRng::seeded(5);
        let mut shed = 0;
        for i in 0..10 {
            // All at cycle 0: 2-token burst, then rate-limited sheds.
            let (d, _) = engine
                .submit(mul_request(i, 0, 0, &mut rng))
                .expect("submit");
            if matches!(d, Disposition::Rejected(Response::Shed { .. })) {
                shed += 1;
            }
        }
        assert_eq!(shed, 8);

        let (d, _) = engine
            .submit(mul_request(99, 7, 0, &mut rng))
            .expect("submit");
        assert!(matches!(d, Disposition::Rejected(Response::Error { .. })));

        let stats = engine.stats();
        assert_eq!(stats.tenants[0].shed_rate_limited, 8);
        assert_eq!(stats.shed, 8);
    }

    #[test]
    fn metrics_are_published_and_never_perturb() {
        let mut rng = UintRng::seeded(11);
        let reqs: Vec<Request> = (0..30)
            .map(|i| mul_request(i, (i % 2) as u16, i * 20_000, &mut rng))
            .collect();

        let mut plain = Engine::new(config(2));
        let exec = OpExecutor::new();
        for r in &reqs {
            plain.serve(r.clone(), &exec).expect("serve");
        }
        plain.finish(&exec).expect("finish");

        let hub = MetricsHub::recording();
        let tracer = Tracer::recording();
        let mut metered = Engine::new(config(2));
        metered.attach_metrics(&hub);
        metered.attach_tracer(&tracer);
        for r in &reqs {
            metered.serve(r.clone(), &exec).expect("serve");
        }
        metered.finish(&exec).expect("finish");

        assert_eq!(plain.stats(), metered.stats(), "metrics must not perturb");
        let snapshot = hub.snapshot();
        for family in [
            crate::metrics::REQUESTS_TOTAL,
            crate::metrics::LATENCY_CYCLES,
            crate::metrics::BATCHES_TOTAL,
            crate::metrics::FARM_JOBS_TOTAL,
            crate::metrics::FARM_UTILIZATION,
        ] {
            assert!(snapshot.family(family).is_some(), "missing {family}");
        }
        let trace = tracer.finish().expect("trace");
        assert!(!trace.events.is_empty());
    }

    #[test]
    fn mixed_width_requests_batch_separately_but_all_complete() {
        let mut engine = Engine::new(config(1));
        let exec = OpExecutor::new();
        let mut rng = UintRng::seeded(13);
        let mut ok = 0;
        for i in 0..12 {
            let op = if i % 3 == 0 {
                Op::Mul {
                    width: 256,
                    a: rng.uniform(256),
                    b: rng.uniform(256),
                }
            } else {
                Op::ModExp {
                    field: cim_modmul::fields::FieldId::Goldilocks,
                    base: rng.uniform(60),
                    exp: Uint::from_u64(17),
                }
            };
            let req = Request {
                id: i,
                tenant: 0,
                arrival_cycle: i * 100_000,
                op,
            };
            for resp in engine.serve(req, &exec).expect("serve") {
                if matches!(resp, Response::Ok { .. }) {
                    ok += 1;
                }
            }
        }
        for resp in engine.finish(&exec).expect("finish") {
            if matches!(resp, Response::Ok { .. }) {
                ok += 1;
            }
        }
        assert_eq!(ok, 12);
        let stats = engine.stats();
        assert!(stats.batches >= 2, "two width classes at least");
        assert_eq!(stats.served, 12);
    }
}
