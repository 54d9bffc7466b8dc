//! The std-only HTTP server: a shared non-blocking [`TcpListener`], a fixed
//! pool of poll-loop workers, request routing, admission control, and
//! graceful shutdown with in-flight drain.
//!
//! ## Event loop
//!
//! Dependency-free readiness on `std::net`: the listener and every accepted
//! socket run in non-blocking mode, and each worker owns a set of
//! connections it polls in a loop — accept new sockets, read whatever bytes
//! are available into each connection's [`RequestBuffer`], answer every
//! complete request (pipelined requests are answered back-to-back), reap
//! idle connections, then sleep briefly only if the whole pass made no
//! progress. A connection lives through many requests (`keep-alive`) and
//! closes on `Connection: close`, a parse error, EOF, or the idle deadline.
//!
//! One latency refinement: a worker whose set holds exactly one connection
//! parks in a *blocking* read with a short timeout instead of polling — the
//! common ping-pong client costs no poll-interval latency, while fan-in
//! (many connections per worker) uses the non-blocking sweep.
//!
//! Connection states:
//!
//! ```text
//!   accept → READ → (buffer has full request?) → ROUTE → WRITE ─┐
//!     ▲       │  no                                   keep-alive │
//!     │       ▼                                                  │
//!     │   idle > deadline? ──► 408 (mid-request) / silent close  │
//!     └──────────────────────────────────────────────────────────┘
//!   parse error → typed 4xx, close;  socket error → log, drop (no write)
//! ```
//!
//! ## Admission control
//!
//! `/v1/query` and `/v1/ingest` enqueue into the engine's **bounded** queue;
//! when it is full the submission bounces and the client gets `429 Too Many
//! Requests` with a `Retry-After` header — load sheds at the edge instead of
//! accumulating unbounded latency. `/healthz` and `/metrics` are answered by
//! the worker directly and always succeed.
//!
//! `POST /admin/shutdown` flips the drain gate: workers stop accepting,
//! connections with a request in flight (bytes buffered) finish that
//! request, everything else closes, and the engine stops only after every
//! worker has exited.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use retia::FrozenModel;
use retia_graph::Snapshot;
use retia_json::Value;
use retia_obs::slo::SloSpec;
use retia_obs::trace::{self, TracePolicy};

use crate::api;
use crate::engine::{Engine, EngineError, EngineHandle, EngineOptions, EngineStats};
use crate::http::{
    error_body, write_json_response, write_text_response, HttpError, Request, RequestBuffer,
};
use crate::online::{OnlineOptions, OnlineStatus, OnlineTrainer};
use crate::stages;

/// Sleep between no-progress poll passes while connections are open.
const POLL_SLEEP: Duration = Duration::from_micros(200);
/// Sleep between poll passes while the worker has no connections at all.
const IDLE_SLEEP: Duration = Duration::from_millis(2);
/// Read timeout for the single-connection blocking fast path; bounds how
/// long a parked worker takes to notice accepts, drain, and deadlines.
const PARKED_READ_TIMEOUT: Duration = Duration::from_millis(20);
/// Budget for writing one response to a slow peer.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Server knobs. `addr` with port `0` binds an ephemeral port; the bound
/// address is on [`Server::addr`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Fixed worker-thread pool size.
    pub workers: usize,
    /// Keep-alive idle deadline: a connection with no partial request is
    /// reaped silently; one mid-request gets `408 Request Timeout`.
    pub idle_timeout: Duration,
    /// Engine job-queue bound (admission control); overflow → `429`.
    pub queue_cap: usize,
    /// Service-level objectives evaluated against the per-endpoint latency
    /// histograms and exported as `slo.*` gauges on `/metrics`.
    pub slos: Vec<SloSpec>,
    /// Tail-sampling: every request at least this slow (total ms) keeps its
    /// trace in the `/v1/traces` store.
    pub trace_slow_ms: f64,
    /// Of the fast requests, 1 in this many keeps its trace (0 = none).
    pub trace_sample_every: u64,
    /// When set, an isolated continual trainer fine-tunes on newly ingested
    /// windows and publishes via atomic model swaps (DESIGN.md §12).
    pub online: Option<OnlineOptions>,
    /// When set, every accepted ingest is appended to the durable store at
    /// this directory before the window advances. The caller boots the
    /// window from the same store (`Store::window` or its dataset), so a
    /// restart serves the window the last life acknowledged.
    pub store: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let engine = EngineOptions::default();
        let tracing = TracePolicy::default();
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            idle_timeout: Duration::from_secs(30),
            queue_cap: engine.queue_cap,
            slos: Vec::new(),
            trace_slow_ms: tracing.slow_ms,
            trace_sample_every: tracing.sample_every,
            online: None,
            store: None,
        }
    }
}

/// Health readout shared with every worker: lock-free engine counters plus
/// the online trainer's status (always present — [`OnlineStatus::disabled`]
/// when online learning is off), so `/healthz` and `/v1/drift` answer
/// without touching the engine queue.
#[derive(Clone)]
struct Health {
    stats: Arc<EngineStats>,
    status: Arc<OnlineStatus>,
}

impl Health {
    /// Degraded = the trainer is in its failure envelope (divergence, panic,
    /// drift rollback) or the served model is staler than the bound. Either
    /// way serving continues from the last-good model; this only flips the
    /// readiness readout.
    fn degraded(&self) -> bool {
        self.status.trainer_degraded()
            || (self.status.is_enabled() && self.stats.staleness() > self.status.max_staleness())
    }
}

/// Drain gate and connection accounting shared by workers and the shutdown
/// endpoint.
struct Gate {
    draining: AtomicBool,
    in_flight: AtomicI64,
    connections: AtomicI64,
    state: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            draining: AtomicBool::new(false),
            in_flight: AtomicI64::new(0),
            connections: AtomicI64::new(0),
            state: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn trigger(&self) {
        self.draining.store(true, Ordering::SeqCst);
        *self.state.lock().expect("gate mutex poisoned") = true;
        self.cv.notify_all();
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn wait_triggered(&self) {
        let mut triggered = self.state.lock().expect("gate mutex poisoned");
        while !*triggered {
            triggered = self.cv.wait(triggered).expect("gate mutex poisoned");
        }
    }

    fn conn_delta(&self, delta: i64) {
        let now = self.connections.fetch_add(delta, Ordering::SeqCst) + delta;
        retia_obs::metrics::set_gauge("serve.connections", now as f64);
    }
}

/// A running server. Dropping it does **not** stop the threads; call
/// [`Server::shutdown`] (or let `POST /admin/shutdown` + [`Server::wait`]
/// drive the same sequence).
pub struct Server {
    addr: SocketAddr,
    gate: Arc<Gate>,
    workers: Vec<JoinHandle<()>>,
    engine: Engine,
    online: Option<OnlineTrainer>,
}

impl Server {
    /// Binds, spawns the engine and the worker pool, and returns
    /// immediately. `window` is the initial history (the last `k` snapshots
    /// are kept, matching the paper's decode window); a failed boot audit or
    /// a window out of timestamp order or over another id space than the
    /// model's is an [`std::io::ErrorKind::InvalidInput`] error.
    pub fn start(
        model: FrozenModel,
        window: Vec<Snapshot>,
        cfg: &ServeConfig,
    ) -> std::io::Result<Server> {
        // Boot audit: prove the serving decode cannot produce NaN/inf under
        // the parameter envelope and that the inference replay reaches zero
        // trainable parameters — before binding a socket.
        let audit = model.audit();
        if !audit.is_clean() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("serve boot audit failed:\n{audit}"),
            ));
        }
        // The continual trainer seeds from (and drift-scores against) the
        // boot model; clone it before the engine takes ownership.
        let baseline = cfg.online.as_ref().map(|_| FrozenModel::new(model.values_copy()));
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        trace::set_policy(TracePolicy {
            slow_ms: cfg.trace_slow_ms,
            sample_every: cfg.trace_sample_every,
            ..TracePolicy::default()
        });
        // An empty objective list leaves any previously configured SLOs in
        // place (several servers share the process in tests).
        if !cfg.slos.is_empty() {
            retia_obs::slo::configure(cfg.slos.clone());
        }
        let opts = EngineOptions { queue_cap: cfg.queue_cap, store: cfg.store.clone() };
        let engine = Engine::start_with(model, window, opts)?;
        let gate = Arc::new(Gate::new());
        let online = match (&cfg.online, baseline) {
            (Some(online_opts), Some(baseline)) => {
                Some(OnlineTrainer::spawn(engine.handle(), baseline, online_opts.clone())?)
            }
            _ => None,
        };
        let health = Health {
            stats: engine.handle().stats(),
            status: online
                .as_ref()
                .map(OnlineTrainer::status)
                .unwrap_or_else(OnlineStatus::disabled),
        };

        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let listener = Arc::clone(&listener);
                let gate = Arc::clone(&gate);
                let handle = engine.handle();
                let cfg = cfg.clone();
                let health = health.clone();
                std::thread::Builder::new()
                    .name(format!("retia-serve-worker-{i}"))
                    .spawn(move || worker_loop(&listener, &gate, &handle, &cfg, &health))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        retia_obs::event!(
            retia_obs::Level::Info,
            "serve.started";
            format!(
                "listening on {addr} with {} workers (queue cap {})",
                workers.len(),
                cfg.queue_cap
            )
        );
        Ok(Server { addr, gate, workers, engine, online })
    }

    /// The bound socket address (resolves `--port 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// An engine handle (used by tests and the smoke bench).
    pub fn engine_handle(&self) -> EngineHandle {
        self.engine.handle()
    }

    /// Flips the drain gate, as `POST /admin/shutdown` does.
    pub fn request_shutdown(&self) {
        self.gate.trigger();
    }

    /// Blocks until the drain gate flips (via [`Server::request_shutdown`]
    /// or the admin endpoint), then drains: every worker's poll loop notices
    /// the gate, finishes requests already in flight, closes its
    /// connections and exits; the engine stops after all queued jobs.
    pub fn wait(mut self) {
        self.gate.wait_triggered();
        for w in self.workers {
            // A worker panic is a bug; surface it rather than hang.
            w.join().expect("serve worker panicked");
        }
        // Stop the continual trainer before the engine: its supervisor loop
        // blocks on engine control jobs, so the engine must still answer
        // while the trainer winds down.
        if let Some(mut online) = self.online.take() {
            online.stop();
        }
        self.engine.shutdown();
        retia_obs::event!(retia_obs::Level::Info, "serve.stopped"; "drained and stopped");
    }

    /// [`Server::request_shutdown`] + [`Server::wait`].
    pub fn shutdown(self) {
        self.request_shutdown();
        self.wait();
    }
}

/// One keep-alive connection owned by a worker.
struct Conn {
    stream: TcpStream,
    buf: RequestBuffer,
    last_activity: Instant,
    /// Whether the socket is currently in blocking (parked) mode.
    parked: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn { stream, buf: RequestBuffer::new(), last_activity: Instant::now(), parked: false }
    }
}

/// The per-worker event loop described in the module docs.
fn worker_loop(
    listener: &TcpListener,
    gate: &Gate,
    engine: &EngineHandle,
    cfg: &ServeConfig,
    health: &Health,
) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        let mut progressed = false;
        let mut slept = false;

        if !gate.is_draining() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                        retia_obs::metrics::inc("serve.accepted");
                        gate.conn_delta(1);
                        conns.push(Conn::new(stream));
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    // Transient accept failures (aborted handshakes etc.):
                    // fall through to the connection sweep, retry next pass.
                    Err(_) => break,
                }
            }
        }

        let parked_mode = conns.len() == 1;
        let mut idx = 0;
        while idx < conns.len() {
            let keep = service_conn(
                &mut conns[idx],
                parked_mode,
                gate,
                engine,
                cfg,
                health,
                &mut progressed,
                &mut slept,
            );
            if keep {
                idx += 1;
            } else {
                drop(conns.swap_remove(idx));
                gate.conn_delta(-1);
            }
        }

        if gate.is_draining() && conns.is_empty() {
            return;
        }
        if !progressed && !slept {
            std::thread::sleep(if conns.is_empty() { IDLE_SLEEP } else { POLL_SLEEP });
        }
    }
}

/// Reads, parses and answers on one connection. Returns `false` when the
/// connection must close (error, EOF, `Connection: close`, deadline, drain).
#[allow(clippy::too_many_arguments)]
fn service_conn(
    c: &mut Conn,
    park: bool,
    gate: &Gate,
    engine: &EngineHandle,
    cfg: &ServeConfig,
    health: &Health,
    progressed: &mut bool,
    slept: &mut bool,
) -> bool {
    if park != c.parked {
        let switched = if park {
            c.stream
                .set_nonblocking(false)
                .and_then(|()| c.stream.set_read_timeout(Some(PARKED_READ_TIMEOUT)))
        } else {
            c.stream.set_nonblocking(true)
        };
        if switched.is_err() {
            return false;
        }
        c.parked = park;
    }

    let mut eof = false;
    let mut chunk = [0u8; 4096];
    if c.parked {
        // Blocking fast path: the read itself paces the worker loop.
        *slept = true;
        match c.stream.read(&mut chunk) {
            Ok(0) => eof = true,
            Ok(n) => {
                c.buf.extend(&chunk[..n]);
                c.last_activity = Instant::now();
                *progressed = true;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => {
                drop_for_io_error(&e);
                return false;
            }
        }
    } else {
        loop {
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    c.buf.extend(&chunk[..n]);
                    c.last_activity = Instant::now();
                    *progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    drop_for_io_error(&e);
                    return false;
                }
            }
        }
    }

    // Answer every complete request buffered so far (pipelining).
    loop {
        // Read the recv clock before try_next hands the request out and
        // re-arms it for the next pipelined request.
        let recv_start_ns = c.buf.recv_start_ns();
        match c.buf.try_next() {
            Ok(Some(req)) => {
                *progressed = true;
                let keep = req.keep_alive() && !gate.is_draining();
                let written =
                    respond(&mut c.stream, &req, keep, recv_start_ns, gate, engine, health);
                c.last_activity = Instant::now();
                if !written || !keep {
                    return false;
                }
            }
            Ok(None) => break,
            Err(e) => {
                // A malformed request mid-pipeline: answer it (when the
                // transport still works) and close — bytes after a framing
                // error cannot be trusted.
                answer_parse_error(&mut c.stream, &e);
                return false;
            }
        }
    }

    if eof {
        if !c.buf.is_empty() {
            // FIN with an incomplete request buffered: the request can never
            // complete, so answer 400 while the write side may still be open
            // (half-closing clients read it), then close.
            let e = HttpError::Malformed("connection closed before the request completed".into());
            answer_parse_error(&mut c.stream, &e);
        }
        return false;
    }

    if c.last_activity.elapsed() >= cfg.idle_timeout {
        if c.buf.is_empty() {
            // Idle keep-alive connection: reap silently.
            retia_obs::metrics::inc("serve.reaped_idle");
            return false;
        }
        // Mid-request silence: the client gets a typed 408.
        answer_parse_error(&mut c.stream, &HttpError::Timeout);
        return false;
    }

    // Draining with nothing buffered: nothing in flight to finish.
    if gate.is_draining() && c.buf.is_empty() {
        return false;
    }
    true
}

/// The Prometheus text exposition content type (`/metrics?format=prom`).
const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A routed response body: JSON for the API endpoints, raw text (with its
/// content type) for the Prometheus exposition.
enum Payload {
    Json(Value),
    Text(&'static str, String),
}

/// Routes one request and writes the response. Returns `false` when the
/// write failed (connection must close).
///
/// This is where a request's trace lives: it opens at the first received
/// byte (`recv_start_ns`, measured by the connection's [`RequestBuffer`]),
/// records the `serve.recv` and `serve.write` edges explicitly, adopts the
/// root frame around `route` so engine-side spans attach to it, and finishes
/// with the response status — at which point the tail sampler decides
/// whether `/v1/traces` keeps it.
fn respond(
    stream: &mut TcpStream,
    req: &Request,
    keep_alive: bool,
    recv_start_ns: Option<u64>,
    gate: &Gate,
    engine: &EngineHandle,
    health: &Health,
) -> bool {
    let started = Instant::now();
    let start_ns = retia_obs::now_ns();
    retia_obs::metrics::inc("serve.requests");
    let trace_start_ns = recv_start_ns.unwrap_or(start_ns).min(start_ns);
    let handle = trace::begin(&req.path, trace_start_ns);
    let root = handle.root_frame();
    trace::record_stage(
        &[root],
        stages::RECV,
        trace_start_ns,
        start_ns.saturating_sub(trace_start_ns),
    );

    gate.in_flight.fetch_add(1, Ordering::SeqCst);
    retia_obs::metrics::set_gauge("serve.in_flight", gate.in_flight.load(Ordering::SeqCst) as f64);
    let mut queue_wait_ns: Option<u64> = None;
    let (endpoint, status, body) = {
        let _scope = trace::adopt(vec![root]);
        route(req, gate, engine, health, &mut queue_wait_ns)
    };
    gate.in_flight.fetch_sub(1, Ordering::SeqCst);
    retia_obs::metrics::set_gauge("serve.in_flight", gate.in_flight.load(Ordering::SeqCst) as f64);
    if status >= 400 {
        retia_obs::metrics::inc("serve.http_errors");
    }
    // Trace correlation for clients; backpressure hint on every 429.
    let mut headers: Vec<(&str, String)> = vec![("X-Trace-Id", handle.trace_id().to_string())];
    if status == 429 {
        headers.push(("Retry-After", "1".to_string()));
    }
    // Latency split: the engine reports how long the job sat in its queue;
    // the rest of the route wall time is service. The legacy request_ms
    // series is exactly their sum.
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let wait_ms = (queue_wait_ns.unwrap_or(0) as f64 / 1e6).min(ms);
    let service_ms = ms - wait_ms;
    retia_obs::metrics::observe("serve.queue_wait_ms", wait_ms);
    retia_obs::metrics::observe(&format!("serve.queue_wait_ms.{endpoint}"), wait_ms);
    retia_obs::metrics::observe("serve.service_ms", service_ms);
    retia_obs::metrics::observe(&format!("serve.service_ms.{endpoint}"), service_ms);
    retia_obs::metrics::observe("serve.request_ms", ms);
    retia_obs::metrics::observe(&format!("serve.request_ms.{endpoint}"), ms);

    let mut out = Vec::with_capacity(512);
    match &body {
        Payload::Json(v) => write_json_response(&mut out, status, v, keep_alive, &headers),
        Payload::Text(ct, t) => write_text_response(&mut out, status, ct, t, keep_alive, &headers),
    }
    .expect("writing to a Vec cannot fail");
    let write_start_ns = retia_obs::now_ns();
    let written = write_all_with_deadline(stream, &out);
    trace::record_stage(
        &[root],
        stages::WRITE,
        write_start_ns,
        retia_obs::now_ns().saturating_sub(write_start_ns),
    );
    trace::finish(handle, status);
    retia_obs::slo::tick();
    written
}

/// Answers a parse/framing error when the transport still works; socket
/// errors are logged and dropped (never written to a dead peer).
fn answer_parse_error(stream: &mut TcpStream, e: &HttpError) {
    if !e.wants_response() {
        retia_obs::metrics::inc("serve.io_dropped");
        retia_obs::event!(
            retia_obs::Level::Warn,
            "serve.io_error";
            format!("dropping connection: {}", e.message())
        );
        return;
    }
    retia_obs::metrics::inc("serve.requests");
    retia_obs::metrics::inc("serve.http_errors");
    let mut out = Vec::with_capacity(256);
    write_json_response(&mut out, e.status(), &error_body(e.code(), &e.message()), false, &[])
        .expect("writing to a Vec cannot fail");
    write_all_with_deadline(stream, &out);
}

/// The log-and-drop half of the Io/Timeout split: no bytes are written.
fn drop_for_io_error(e: &std::io::Error) {
    retia_obs::metrics::inc("serve.io_dropped");
    retia_obs::event!(retia_obs::Level::Warn, "serve.io_error"; format!("dropping connection: {e}"));
}

/// Writes all of `bytes` to a (possibly non-blocking) socket, retrying
/// `WouldBlock` until [`IO_TIMEOUT`] elapses. Returns `false` on failure.
fn write_all_with_deadline(stream: &mut TcpStream, mut bytes: &[u8]) -> bool {
    let deadline = Instant::now() + IO_TIMEOUT;
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return false,
            Ok(n) => bytes = &bytes[n..],
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    drop_for_io_error(&e);
                    return false;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                drop_for_io_error(&e);
                return false;
            }
        }
    }
    stream.flush().is_ok()
}

/// Dispatches a parsed request to its endpoint; returns the metrics label,
/// status and body. `queue_wait_ns` reports the engine queue wait for the
/// endpoints that go through the job queue (the latency-split metrics).
fn route(
    req: &Request,
    gate: &Gate,
    engine: &EngineHandle,
    health: &Health,
    queue_wait_ns: &mut Option<u64>,
) -> (&'static str, u16, Payload) {
    let (path, query_string) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            // Answered from lock-free counters — never queues behind the
            // engine, so the probe stays honest under decode load.
            let staleness = health.stats.staleness();
            let degraded = health.degraded();
            retia_obs::metrics::set_gauge("serve.staleness", staleness as f64);
            let mut body = Value::object();
            body.insert("status", Value::from(if degraded { "degraded" } else { "ok" }));
            body.insert("draining", Value::from(gate.is_draining()));
            body.insert("model_epoch", Value::from(health.stats.model_epoch() as f64));
            body.insert("ingest_epoch", Value::from(health.stats.ingest_epoch() as f64));
            body.insert("staleness", Value::from(staleness as f64));
            body.insert("trainer", Value::from(health.status.trainer_state().as_str()));
            // Liveness always answers 200; the readiness variant (`?ready=1`)
            // turns "degraded" into a 503 so a load balancer can route away
            // while the process keeps serving last-good answers.
            let ready_probe = query_string.split('&').any(|kv| kv == "ready=1");
            let code = if ready_probe && degraded { 503 } else { 200 };
            ("healthz", code, Payload::Json(body))
        }
        ("GET", "/v1/drift") => {
            let report = health.status.drift();
            let enabled = health.status.is_enabled();
            ("drift", 200, Payload::Json(api::drift_response_json(enabled, &report)))
        }
        ("GET", "/metrics") => {
            // A scrape should see current SLO state, not quarter-second-old
            // gauges.
            retia_obs::slo::force_tick();
            if query_string.split('&').any(|kv| kv == "format=prom") {
                ("metrics", 200, Payload::Text(PROM_CONTENT_TYPE, retia_obs::metrics::prometheus()))
            } else {
                ("metrics", 200, Payload::Json(retia_obs::metrics::registry().snapshot()))
            }
        }
        ("GET", "/v1/traces") => ("traces", 200, Payload::Json(trace::traces_json())),
        ("POST", "/admin/shutdown") => {
            gate.trigger();
            let mut body = Value::object();
            body.insert("draining", Value::from(true));
            ("shutdown", 200, Payload::Json(body))
        }
        ("POST", "/v1/query") => {
            let (status, body) = json_endpoint(req, |body| {
                let queries = api::parse_query_request(body)
                    .map_err(|e| (422, error_body("unprocessable", &e.0)))?;
                retia_obs::metrics::inc_by("serve.queries", queries.len() as u64);
                let resp = engine.query(queries).map_err(engine_error_response)?;
                *queue_wait_ns = Some(resp.queue_wait_ns);
                Ok(api::query_response_json(&resp))
            });
            ("query", status, Payload::Json(body))
        }
        ("POST", "/v1/ingest") => {
            let (status, body) = json_endpoint(req, |body| {
                let facts = api::parse_ingest_request(body)
                    .map_err(|e| (422, error_body("unprocessable", &e.0)))?;
                let resp = engine.ingest(facts).map_err(engine_error_response)?;
                *queue_wait_ns = Some(resp.queue_wait_ns);
                Ok(api::ingest_response_json(&resp))
            });
            ("ingest", status, Payload::Json(body))
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/traces" | "/v1/drift" | "/admin/shutdown" | "/v1/query"
            | "/v1/ingest",
        ) => (
            "other",
            405,
            Payload::Json(error_body(
                "method_not_allowed",
                &format!("{} not allowed here", req.method),
            )),
        ),
        (_, path) => {
            ("other", 404, Payload::Json(error_body("not_found", &format!("no route for {path}"))))
        }
    }
}

/// Shared plumbing for the JSON POST endpoints: content-type gate, JSON
/// parse, then the endpoint body.
fn json_endpoint(
    req: &Request,
    f: impl FnOnce(&Value) -> Result<Value, (u16, Value)>,
) -> (u16, Value) {
    if !req.is_json() {
        return (
            415,
            error_body(
                "unsupported_media_type",
                "send application/json (set the Content-Type header)",
            ),
        );
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(e) => return (400, error_body("bad_request", &format!("body is not UTF-8: {e}"))),
    };
    let body = match retia_json::parse(text) {
        Ok(v) => v,
        Err(e) => return (400, error_body("bad_request", &format!("body is not valid JSON: {e}"))),
    };
    match f(&body) {
        Ok(v) => (200, v),
        Err((status, body)) => (status, body),
    }
}

fn engine_error_response(e: EngineError) -> (u16, Value) {
    match &e {
        EngineError::InvalidQuery(m) => (422, error_body("unprocessable", m)),
        EngineError::InvalidIngest(m) => (422, error_body("unprocessable", m)),
        // Swaps come from the in-process trainer, never from HTTP; routing
        // one here would be a bug, but the map stays total.
        EngineError::InvalidSwap(m) => (422, error_body("unprocessable", m)),
        EngineError::Stopped => (503, error_body("unavailable", "engine stopped")),
        EngineError::Overloaded => {
            (429, error_body("overloaded", "job queue full; retry after the queue drains"))
        }
    }
}
