//! The threaded server: an mpsc event loop around the engine plus an
//! arithmetic worker pool, exercised over real wire bytes.
//!
//! No async runtime: the reactor is one dispatcher thread owning the
//! [`Engine`] and a `Vec` of worker threads sharing a work queue. A
//! [`Connection`] frames requests ([`crate::protocol`]) and sends them
//! as events; the dispatcher decodes, runs admission/batching, and
//! hands completed requests to workers; each worker owns its own
//! [`OpExecutor`] (the curve contexts are `Rc`-based and deliberately
//! not `Send`), performs the gold-checked arithmetic, and writes the
//! framed response straight back to the submitting connection's reply
//! channel. The split keeps every *decision* on the dispatcher — so
//! admission, batching and timing stay deterministic — while the
//! arithmetic, which cannot change any decision, fans out across
//! cores.

use crate::engine::{CompletedRequest, Disposition, Engine, EngineConfig, EngineStats};
use crate::exec::OpExecutor;
use crate::protocol::{self, ControlRequest, ControlResponse, Request, Response};
use cim_metrics::MetricsHub;
use cim_obs::journal::FlightRecorder;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// Server shape.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine (tenants, fleet, batching) configuration.
    pub engine: EngineConfig,
    /// Arithmetic worker threads.
    pub workers: usize,
}

/// Events the dispatcher reacts to.
enum Event {
    /// A framed request from a connection, with its reply channel.
    Frame {
        bytes: Vec<u8>,
        reply: Sender<Vec<u8>>,
    },
    /// A worker finished a request's arithmetic.
    Done {
        tenant: u16,
        kind: crate::protocol::OpKind,
        ok: bool,
    },
    /// Flush all open batches; ack once every outstanding response
    /// has been written to its connection.
    Drain { ack: Sender<()> },
    /// Snapshot the engine statistics.
    Stats { ack: Sender<EngineStats> },
    /// Stop the dispatcher (workers stop when the work queue closes).
    Shutdown,
}

/// One unit of worker arithmetic: a completed request plus where its
/// framed response goes.
struct Work {
    completed: CompletedRequest,
    reply: Sender<Vec<u8>>,
}

/// A client handle: frames requests onto the event loop and reads
/// framed responses back.
pub struct Connection {
    events: Sender<Event>,
    reply_tx: Sender<Vec<u8>>,
    reply_rx: Receiver<Vec<u8>>,
}

impl Connection {
    /// Sends one request (fire-and-forget; responses arrive via
    /// [`Connection::recv`] in completion order, not send order).
    pub fn send(&self, request: &Request) {
        let bytes = protocol::frame(protocol::encode_request(request));
        let _ = self.events.send(Event::Frame {
            bytes,
            reply: self.reply_tx.clone(),
        });
    }

    /// Blocks for the next response on this connection.
    ///
    /// # Errors
    ///
    /// Returns a wire error if the frame fails to decode, or a
    /// `Truncated` error if the server shut down first.
    pub fn recv(&self) -> Result<Response, protocol::WireError> {
        let bytes = self
            .reply_rx
            .recv()
            .map_err(|_| protocol::WireError::Truncated)?;
        let (payload, rest) = protocol::deframe(&bytes)?.ok_or(protocol::WireError::Truncated)?;
        debug_assert!(rest.is_empty());
        protocol::decode_response(payload)
    }

    /// Flushes all open batches and blocks until every response
    /// admitted so far (on any connection) has been delivered.
    pub fn drain(&self) {
        let (ack, done) = channel();
        let _ = self.events.send(Event::Drain { ack });
        let _ = done.recv();
    }

    /// Convenience round trip: send, force a flush, read one response.
    ///
    /// # Errors
    ///
    /// As [`Connection::recv`].
    pub fn call(&self, request: &Request) -> Result<Response, protocol::WireError> {
        self.send(request);
        self.drain();
        self.recv()
    }

    /// Sends a control-plane probe and blocks for its response.
    ///
    /// The dispatcher answers control frames inline, but worker
    /// responses to earlier data requests may already be queued on
    /// this connection — interleave with [`Connection::drain`] (or a
    /// dedicated connection) when pairing probes with data traffic.
    ///
    /// # Errors
    ///
    /// Returns a wire error if the response fails to decode, or a
    /// `Truncated` error if the server shut down first.
    pub fn control(
        &self,
        request: &ControlRequest,
    ) -> Result<ControlResponse, protocol::WireError> {
        let bytes = protocol::frame(protocol::encode_control_request(request));
        let _ = self.events.send(Event::Frame {
            bytes,
            reply: self.reply_tx.clone(),
        });
        let bytes = self
            .reply_rx
            .recv()
            .map_err(|_| protocol::WireError::Truncated)?;
        let (payload, rest) = protocol::deframe(&bytes)?.ok_or(protocol::WireError::Truncated)?;
        debug_assert!(rest.is_empty());
        protocol::decode_control_response(payload)
    }
}

/// The running server: dispatcher + worker pool.
pub struct CimServer {
    events: Sender<Event>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl CimServer {
    /// Starts the server. The engine is built on the dispatcher
    /// thread; `workers` is clamped to at least one.
    pub fn start(config: ServerConfig, hub: &MetricsHub) -> CimServer {
        CimServer::start_observed(config, hub, FlightRecorder::disabled())
    }

    /// Starts the server with a flight recorder attached: the engine
    /// journals admission/batch/job events into `recorder`, and the
    /// dispatcher answers [`ControlRequest`] frames from it. A
    /// [`FlightRecorder::disabled`] recorder makes this identical to
    /// [`CimServer::start`].
    pub fn start_observed(
        config: ServerConfig,
        hub: &MetricsHub,
        recorder: FlightRecorder,
    ) -> CimServer {
        let (event_tx, event_rx) = channel::<Event>();
        let (work_tx, work_rx) = channel::<Work>();
        let work_rx = Arc::new(Mutex::new(work_rx));

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let work_rx = Arc::clone(&work_rx);
                let events = event_tx.clone();
                thread::Builder::new()
                    .name(format!("cim-serve-worker-{i}"))
                    .spawn(move || worker_loop(&work_rx, &events))
                    .expect("spawn worker")
            })
            .collect();

        let engine_config = config.engine;
        let hub = hub.clone();
        let dispatcher = thread::Builder::new()
            .name("cim-serve-dispatcher".into())
            .spawn(move || {
                let mut engine = Engine::new(engine_config);
                engine.attach_metrics(&hub);
                engine.attach_recorder(&recorder);
                dispatcher_loop(&mut engine, &event_rx, &work_tx);
            })
            .expect("spawn dispatcher");

        CimServer {
            events: event_tx,
            dispatcher: Some(dispatcher),
            workers,
        }
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Connection {
        let (reply_tx, reply_rx) = channel();
        Connection {
            events: self.events.clone(),
            reply_tx,
            reply_rx,
        }
    }

    /// Snapshot of the engine statistics (blocks on the event loop).
    pub fn stats(&self) -> EngineStats {
        let (ack, rx) = channel();
        let _ = self.events.send(Event::Stats { ack });
        rx.recv().expect("dispatcher alive")
    }

    /// Stops the dispatcher and joins every thread. Undelivered
    /// responses are dropped; call [`Connection::drain`] first if you
    /// want them.
    pub fn shutdown(mut self) {
        let _ = self.events.send(Event::Shutdown);
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for CimServer {
    fn drop(&mut self) {
        let _ = self.events.send(Event::Shutdown);
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(work_rx: &Arc<Mutex<Receiver<Work>>>, events: &Sender<Event>) {
    // Each worker owns its executor: the EC contexts are Rc-based, so
    // they are built (and stay) on this thread.
    let exec = OpExecutor::new();
    loop {
        let work = {
            let guard = work_rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        let Ok(Work { completed, reply }) = work else {
            return; // queue closed: dispatcher is gone
        };
        let request = &completed.request;
        let (response, ok) = match exec.execute(&request.op) {
            Ok(result) => (
                Response::Ok {
                    id: request.id,
                    result,
                    queue_cycles: completed.completion.queue_cycles,
                    service_cycles: completed.completion.service_cycles,
                    farm: completed.completion.farm,
                },
                true,
            ),
            Err(message) => (
                Response::Error {
                    id: request.id,
                    message,
                },
                false,
            ),
        };
        let _ = reply.send(protocol::frame(protocol::encode_response(&response)));
        // Done *after* the reply: by the time the dispatcher sees
        // outstanding == 0, every response is in its reply channel.
        let _ = events.send(Event::Done {
            tenant: request.tenant,
            kind: request.op.kind(),
            ok,
        });
    }
}

fn dispatcher_loop(engine: &mut Engine, events: &Receiver<Event>, work_tx: &Sender<Work>) {
    // seq → the submitting connection's reply channel.
    let mut routes: HashMap<u64, Sender<Vec<u8>>> = HashMap::new();
    let mut outstanding: u64 = 0;
    let mut drain_acks: Vec<Sender<()>> = Vec::new();

    while let Ok(event) = events.recv() {
        match event {
            Event::Frame { bytes, reply } => {
                let payload = match protocol::deframe(&bytes)
                    .and_then(|frame| frame.ok_or(protocol::WireError::Truncated))
                {
                    Ok((payload, _)) => payload,
                    Err(e) => {
                        let resp = Response::Error {
                            id: 0,
                            message: format!("malformed request: {e}"),
                        };
                        let _ = reply.send(protocol::frame(protocol::encode_response(&resp)));
                        continue;
                    }
                };
                // Control frames are answered inline by the
                // dispatcher: they never enter admission or the work
                // queue, so probing cannot perturb any decision.
                if protocol::is_control_payload(payload) {
                    let resp = match protocol::decode_control_request(payload) {
                        Ok(req) => control_response(&req, engine),
                        Err(e) => {
                            let resp = Response::Error {
                                id: 0,
                                message: format!("malformed control request: {e}"),
                            };
                            let _ = reply.send(protocol::frame(protocol::encode_response(&resp)));
                            continue;
                        }
                    };
                    let _ = reply.send(protocol::frame(protocol::encode_control_response(&resp)));
                    continue;
                }
                let request = match protocol::decode_request(payload) {
                    Ok(r) => r,
                    Err(e) => {
                        let resp = Response::Error {
                            id: 0,
                            message: format!("malformed request: {e}"),
                        };
                        let _ = reply.send(protocol::frame(protocol::encode_response(&resp)));
                        continue;
                    }
                };
                match engine.submit(request) {
                    Ok((disposition, completed)) => {
                        match disposition {
                            Disposition::Rejected(resp) => {
                                let _ =
                                    reply.send(protocol::frame(protocol::encode_response(&resp)));
                            }
                            Disposition::Queued(seq) => {
                                routes.insert(seq, reply);
                            }
                        }
                        outstanding += hand_off(completed, &mut routes, work_tx);
                    }
                    Err(e) => {
                        // Scheduler failure: validation should make
                        // this unreachable, but surface it.
                        let resp = Response::Error {
                            id: 0,
                            message: format!("scheduler error: {e:?}"),
                        };
                        let _ = reply.send(protocol::frame(protocol::encode_response(&resp)));
                    }
                }
            }
            Event::Done { tenant, kind, ok } => {
                engine.note_result(tenant, kind, ok);
                outstanding -= 1;
                if outstanding == 0 {
                    for ack in drain_acks.drain(..) {
                        let _ = ack.send(());
                    }
                }
            }
            Event::Drain { ack } => {
                if let Ok(completed) = engine.drain() {
                    outstanding += hand_off(completed, &mut routes, work_tx);
                }
                if outstanding == 0 {
                    let _ = ack.send(());
                } else {
                    drain_acks.push(ack);
                }
            }
            Event::Stats { ack } => {
                let _ = ack.send(engine.stats());
            }
            Event::Shutdown => break,
        }
    }
    // work_tx drops with this frame; workers exit on the closed queue.
}

/// Answers a control-plane probe from the engine's live state and its
/// attached flight recorder.
fn control_response(request: &ControlRequest, engine: &Engine) -> ControlResponse {
    let recorder = engine.recorder();
    match request {
        ControlRequest::HealthProbe => {
            let stats = engine.stats();
            ControlResponse::Health {
                // A latched flight-recorder trigger (incorrect result
                // or shed burst) reports straight as "page".
                state: if recorder.trigger().is_some() { 2 } else { 0 },
                submitted: stats.submitted,
                served: stats.served,
                shed: stats.shed,
                errors: stats.errors,
                journal_events: recorder.recorded(),
                journal_dropped: recorder.dropped(),
            }
        }
        ControlRequest::DiagnosticsDump => ControlResponse::Diagnostics {
            json: recorder.dump_json(),
        },
    }
}

/// Routes completed requests to the worker pool; returns how many
/// were handed off.
fn hand_off(
    completed: Vec<CompletedRequest>,
    routes: &mut HashMap<u64, Sender<Vec<u8>>>,
    work_tx: &Sender<Work>,
) -> u64 {
    let mut n = 0;
    for c in completed {
        let Some(reply) = routes.remove(&c.completion.seq) else {
            debug_assert!(false, "completion for unrouted seq {}", c.completion.seq);
            continue;
        };
        if work_tx
            .send(Work {
                completed: c,
                reply,
            })
            .is_ok()
        {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::TenantConfig;
    use crate::batcher::BatchConfig;
    use crate::fleet::FleetConfig;
    use crate::protocol::{Op, ShedReason};
    use cim_bigint::rng::UintRng;
    use cim_sched::Policy;

    fn server_config(tenants: usize, rate: u64) -> ServerConfig {
        ServerConfig {
            engine: EngineConfig {
                tenants: (0..tenants)
                    .map(|i| {
                        TenantConfig::new(format!("t{i}"), rate)
                            .with_burst(rate)
                            .with_queue_depth(4 * rate as usize)
                    })
                    .collect(),
                fleet: FleetConfig {
                    farms: 2,
                    tiles_per_farm: 2,
                    policy: Policy::WearLeveling,
                    parallel_threshold: 512,
                },
                batch: BatchConfig {
                    max_jobs: 32,
                    max_wait_cycles: 500_000,
                },
            },
            workers: 2,
        }
    }

    fn mul(id: u64, tenant: u16, arrival: u64, rng: &mut UintRng) -> Request {
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
    fn serves_over_the_wire_end_to_end() {
        let hub = MetricsHub::recording();
        let server = CimServer::start(server_config(2, 1000), &hub);
        let conn = server.connect();
        let mut rng = UintRng::seeded(21);
        let mut expect = Vec::new();
        for i in 0..50 {
            let req = mul(i, (i % 2) as u16, i * 10_000, &mut rng);
            if let Op::Mul { a, b, .. } = &req.op {
                expect.push((i, a.clone(), b.clone()));
            }
            conn.send(&req);
        }
        conn.drain();
        let mut got = 0;
        for _ in 0..50 {
            match conn.recv().expect("decode response") {
                Response::Ok { id, result, .. } => {
                    let (_, a, b) = expect
                        .iter()
                        .find(|(eid, _, _)| *eid == id)
                        .expect("known id");
                    let gold = cim_bigint::mul::schoolbook::mul(a, b);
                    assert_eq!(
                        crate::protocol::ResponsePayload::Value(gold),
                        result,
                        "request {id}"
                    );
                    got += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(got, 50);
        let stats = server.stats();
        assert_eq!(stats.served, 50);
        assert_eq!(stats.shed, 0);
        server.shutdown();
        assert!(hub
            .snapshot()
            .family(crate::metrics::REQUESTS_TOTAL)
            .is_some());
    }

    #[test]
    fn two_connections_get_their_own_responses() {
        let hub = MetricsHub::disabled();
        let server = CimServer::start(server_config(2, 1000), &hub);
        let a = server.connect();
        let b = server.connect();
        let mut rng = UintRng::seeded(22);
        for i in 0..10 {
            a.send(&mul(1000 + i, 0, i * 1000, &mut rng));
            b.send(&mul(2000 + i, 1, i * 1000, &mut rng));
        }
        a.drain();
        let mut a_ids: Vec<u64> = (0..10).map(|_| a.recv().unwrap().id()).collect();
        let mut b_ids: Vec<u64> = (0..10).map(|_| b.recv().unwrap().id()).collect();
        a_ids.sort_unstable();
        b_ids.sort_unstable();
        assert_eq!(a_ids, (1000..1010).collect::<Vec<u64>>());
        assert_eq!(b_ids, (2000..2010).collect::<Vec<u64>>());
        server.shutdown();
    }

    #[test]
    fn sheds_arrive_immediately_and_malformed_frames_error() {
        let hub = MetricsHub::disabled();
        let server = CimServer::start(server_config(1, 2), &hub);
        let conn = server.connect();
        let mut rng = UintRng::seeded(23);
        // Burst of 2 at cycle 0, everything after is shed.
        for i in 0..6 {
            conn.send(&mul(i, 0, 0, &mut rng));
        }
        conn.drain();
        let mut shed = 0;
        let mut ok = 0;
        for _ in 0..6 {
            match conn.recv().expect("decode") {
                Response::Shed { reason, .. } => {
                    assert_eq!(reason, ShedReason::RateLimited);
                    shed += 1;
                }
                Response::Ok { .. } => ok += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!((ok, shed), (2, 4));

        // A garbage frame gets an error response, not a hang.
        let _ = conn.events.send(Event::Frame {
            bytes: protocol::frame(b"\xff\xfe\xfd".to_vec()),
            reply: conn.reply_tx.clone(),
        });
        match conn.recv().expect("decode") {
            Response::Error { message, .. } => {
                assert!(message.contains("malformed"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn call_round_trips_one_request() {
        let hub = MetricsHub::disabled();
        let server = CimServer::start(server_config(1, 100), &hub);
        let conn = server.connect();
        let mut rng = UintRng::seeded(24);
        let req = mul(7, 0, 0, &mut rng);
        let resp = conn.call(&req).expect("decode");
        assert_eq!(resp.id(), 7);
        assert!(matches!(resp, Response::Ok { .. }));
        server.shutdown();
    }

    #[test]
    fn observed_server_answers_probes_and_journals() {
        use cim_obs::journal::RecorderConfig;
        let hub = MetricsHub::disabled();
        let recorder = FlightRecorder::new(RecorderConfig::default());
        let server = CimServer::start_observed(server_config(2, 1000), &hub, recorder.clone());
        let conn = server.connect();
        let mut rng = UintRng::seeded(26);
        for i in 0..12 {
            conn.send(&mul(i, (i % 2) as u16, i * 10_000, &mut rng));
        }
        conn.drain();
        for _ in 0..12 {
            conn.recv().expect("decode");
        }

        match conn.control(&ControlRequest::HealthProbe).expect("health") {
            ControlResponse::Health {
                state,
                submitted,
                served,
                journal_events,
                ..
            } => {
                assert_eq!(state, 0, "no trigger latched");
                assert_eq!(submitted, 12);
                assert_eq!(served, 12);
                assert!(journal_events > 0, "engine journaled into the recorder");
            }
            other => panic!("unexpected {other:?}"),
        }
        match conn
            .control(&ControlRequest::DiagnosticsDump)
            .expect("diagnostics")
        {
            ControlResponse::Diagnostics { json } => {
                cim_trace::json::check(&json).expect("valid JSON");
                assert!(json.contains("\"admit\""), "{json}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The shared clone sees the same ring the dispatcher wrote.
        assert!(recorder.recorded() > 0);
        server.shutdown();
    }

    #[test]
    fn threaded_stats_match_sync_engine_on_same_trace() {
        let mut rng = UintRng::seeded(25);
        let reqs: Vec<Request> = (0..80)
            .map(|i| mul(i, (i % 2) as u16, i * 5_000, &mut rng))
            .collect();

        let config = server_config(2, 1000);
        let mut engine = Engine::new(config.engine.clone());
        let exec = OpExecutor::new();
        for r in &reqs {
            engine.serve(r.clone(), &exec).expect("serve");
        }
        engine.finish(&exec).expect("finish");
        let sync_stats = engine.stats();

        let hub = MetricsHub::disabled();
        let server = CimServer::start(config, &hub);
        let conn = server.connect();
        for r in &reqs {
            conn.send(r);
        }
        conn.drain();
        for _ in 0..80 {
            conn.recv().expect("decode");
        }
        let threaded_stats = server.stats();
        server.shutdown();

        assert_eq!(sync_stats, threaded_stats, "same trace, same numbers");
    }
}
