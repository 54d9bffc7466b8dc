//! The query engine: a single thread owning the frozen model, the history
//! window and the embedding cache, fed through a job queue.
//!
//! Concurrency model: HTTP workers parse requests and enqueue jobs; the
//! engine thread drains the whole queue each time it wakes, so every burst
//! of concurrent query jobs is coalesced into **one** decode batch — the
//! micro-batcher falls out of the queue discipline rather than a timer.
//! Jobs are processed in arrival order (an ingest between two queries
//! re-scores the later one against the advanced window), with consecutive
//! query jobs fused into a single `[Q, N]` / `[Q, M]` scoring matmul.
//!
//! The cache holds the detached last-`k` embedding matrices per window
//! *epoch* (bumped on every ingest), keyed by `(window_end, epoch)`. A query
//! against a cached epoch is a decode plus a bounded top-k heap; the first
//! query after an ingest pays one recurrence over the window.
//!
//! Admission control sits on top of that model: the job queue is bounded
//! ([`EngineOptions::queue_cap`]). A full queue bounces the submission with
//! [`EngineError::Overloaded`] (HTTP `429` + `Retry-After`) instead of
//! letting latency and memory grow without limit. Control jobs (stop/pause)
//! are exempt.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use retia::{FrozenModel, FrozenStates};
use retia_eval::top_k;
use retia_graph::{HyperSnapshot, Quad, Snapshot, Window};
use retia_obs::trace::{self, TraceFrame};

use crate::stages;

/// What a single query predicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Object (or subject, via inverse relation ids) prediction
    /// `(s, r, ?)` over `N` entity candidates.
    Entity,
    /// Relation prediction `(s, ?, o)` over the `M` original relations.
    Relation,
}

/// One prediction query. For [`QueryKind::Entity`], `b` is a relation id
/// (possibly an inverse id `r + M`); for [`QueryKind::Relation`], `b` is the
/// object entity id.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    /// What is predicted.
    pub kind: QueryKind,
    /// Subject entity id.
    pub subject: u32,
    /// Relation id (entity queries) or object entity id (relation queries).
    pub b: u32,
    /// How many candidates to return.
    pub k: usize,
}

/// Ranked candidates for one query, best first. Scores are the summed
/// per-timestamp softmax probabilities of Eq. 13/14 — bit-identical to what
/// offline evaluation ranks.
#[derive(Clone, Debug)]
pub struct TopK {
    /// `(candidate id, score)`, descending score, index-ascending ties.
    pub candidates: Vec<(u32, f32)>,
}

/// Answer to a batch of queries submitted together.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Timestamp of the newest snapshot in the window scores decode from.
    pub window_end: u32,
    /// Window epoch the scores were computed against.
    pub epoch: u64,
    /// One [`TopK`] per submitted query, in order.
    pub results: Vec<TopK>,
    /// Nanoseconds this job waited in the engine queue before service began
    /// (includes jobs ahead of it in the same drained batch).
    pub queue_wait_ns: u64,
    /// Nanoseconds of engine service time; shared by every job of a fused
    /// decode batch (the batch is one unit of work).
    pub service_ns: u64,
}

/// Summary of an accepted ingest.
#[derive(Clone, Debug)]
pub struct IngestResponse {
    /// Facts added to the window.
    pub accepted: usize,
    /// Oldest timestamp still inside the window.
    pub window_start: u32,
    /// Newest timestamp in the window.
    pub window_end: u32,
    /// Snapshots in the window (≤ the config's `k`).
    pub window_len: usize,
    /// Epoch after the ingest.
    pub epoch: u64,
    /// Nanoseconds this job waited in the engine queue before service began.
    pub queue_wait_ns: u64,
    /// Nanoseconds the ingest itself took (validation through cache warm).
    pub service_ns: u64,
}

/// Typed engine failures, mapped to HTTP statuses by the server layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A query referenced an out-of-range entity/relation id.
    InvalidQuery(String),
    /// An ingest payload was empty, out of range, or out of order.
    InvalidIngest(String),
    /// A model swap offered a model whose shape does not match the one
    /// being served (different entity/relation counts or window size).
    InvalidSwap(String),
    /// The engine has shut down; no further jobs are served.
    Stopped,
    /// The bounded job queue is full: admission control sheds the job
    /// instead of queueing unboundedly. Mapped to `429` + `Retry-After`.
    Overloaded,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            EngineError::InvalidIngest(m) => write!(f, "invalid ingest: {m}"),
            EngineError::InvalidSwap(m) => write!(f, "invalid swap: {m}"),
            EngineError::Stopped => f.write_str("engine stopped"),
            EngineError::Overloaded => f.write_str("engine job queue full; retry later"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Engine tuning knobs, surfaced as serve/CLI configuration.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Bound on queued jobs (admission control). Submissions beyond it get
    /// [`EngineError::Overloaded`] instead of queueing without limit.
    pub queue_cap: usize,
    /// Durable store directory: accepted ingest facts are appended to the
    /// store's fact log **before** the window advances (see
    /// `retia_store::Appender`), so a restart booted from the same store
    /// serves the same window. The store must already exist.
    pub store: Option<PathBuf>,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions { queue_cap: 256, store: None }
    }
}

/// Lock-free counters shared between the engine thread, the online
/// supervisor and `/healthz` — liveness checks must answer without queueing
/// an engine job behind decode work.
#[derive(Debug, Default)]
pub struct EngineStats {
    ingest_epoch: AtomicU64,
    model_epoch: AtomicU64,
    trained_epoch: AtomicU64,
}

impl EngineStats {
    /// Window epoch: bumped by every accepted `/v1/ingest`.
    pub fn ingest_epoch(&self) -> u64 {
        self.ingest_epoch.load(Ordering::Acquire)
    }

    /// Served-model version: bumped by every atomic swap (0 = boot model).
    pub fn model_epoch(&self) -> u64 {
        self.model_epoch.load(Ordering::Acquire)
    }

    /// Ingest epoch the served model was trained through.
    pub fn trained_epoch(&self) -> u64 {
        self.trained_epoch.load(Ordering::Acquire)
    }

    /// Ingest epochs the served model lags behind the window — the bounded
    /// staleness number `/healthz` and the `--max-staleness` breach use.
    pub fn staleness(&self) -> u64 {
        self.ingest_epoch().saturating_sub(self.trained_epoch())
    }
}

/// A candidate model offered to the engine for an atomic swap.
pub struct SwapRequest {
    /// The replacement model; must match the served shape exactly.
    pub model: FrozenModel,
    /// Ingest epoch whose window the candidate was trained on. Becomes the
    /// new [`EngineStats::trained_epoch`].
    pub trained_epoch: u64,
    /// States pre-evolved over the `trained_epoch` window, so the swap
    /// avoids paying the recurrence on the engine thread when no ingest
    /// raced the trainer. Ignored (and recomputed) if stale.
    pub states: Option<FrozenStates>,
}

/// Outcome of an accepted [`SwapRequest`].
#[derive(Clone, Copy, Debug)]
pub struct SwapResponse {
    /// Served-model version after the swap.
    pub model_epoch: u64,
    /// Whether the pre-evolved states were installed as-is (`false`: an
    /// ingest raced the trainer and the engine re-evolved the new window).
    pub states_reused: bool,
}

/// Snapshot of the engine's current history window, handed to the online
/// trainer as its training slice.
#[derive(Clone)]
pub struct WindowView {
    /// Window snapshots, oldest first (≤ the config's `k`).
    pub snaps: Vec<Snapshot>,
    /// Twin hyperrelation subgraphs, parallel with `snaps`.
    pub hypers: Vec<HyperSnapshot>,
    /// Ingest epoch this view was captured at.
    pub epoch: u64,
    /// Newest timestamp in the window.
    pub window_end: u32,
}

/// Reply channel for a job of response type `T`.
type Reply<T> = mpsc::Sender<Result<T, EngineError>>;

/// Request-scoped context captured at submission time: when the job entered
/// the queue (so the engine can attribute queue wait) and which trace frames
/// the submitting request carries (so engine-side spans land in its trace).
struct JobMeta {
    enqueued: Instant,
    enqueue_ns: u64,
    frames: Vec<TraceFrame>,
}

impl JobMeta {
    fn capture() -> JobMeta {
        JobMeta {
            enqueued: Instant::now(),
            enqueue_ns: retia_obs::now_ns(),
            frames: trace::current_frames(),
        }
    }

    /// Records the queue-wait segment (enqueue → `service_start`) into the
    /// submitting request's trace and returns it in nanoseconds.
    fn queue_wait(&self, service_start: Instant) -> u64 {
        let wait_ns = service_start.saturating_duration_since(self.enqueued).as_nanos() as u64;
        trace::record_stage(&self.frames, stages::QUEUE_WAIT, self.enqueue_ns, wait_ns);
        wait_ns
    }
}

enum Job {
    Query(Vec<Query>, Reply<QueryResponse>, JobMeta),
    Ingest(Vec<Quad>, Reply<IngestResponse>, JobMeta),
    /// Atomic model swap from the online trainer (boxed: a full model is
    /// orders of magnitude bigger than the other variants).
    Swap(Box<SwapRequest>, Reply<SwapResponse>),
    /// Window snapshot for the online trainer.
    Window(Reply<WindowView>),
    /// Test/ops hook: ack on the sender, then block until the receiver's
    /// sender side drops. Exempt from the queue cap (like `Stop`), so a
    /// paused engine can still be stopped.
    Pause(mpsc::Sender<()>, mpsc::Receiver<()>),
    Stop,
}

impl Job {
    /// Control jobs bypass admission control: shedding them would wedge
    /// shutdown, and they do no decode work. Trainer traffic (swap/window)
    /// is control too — one job at a time by construction, and shedding a
    /// swap under query load would starve adaptation exactly when the
    /// stream is busiest.
    fn is_control(&self) -> bool {
        matches!(self, Job::Stop | Job::Pause(..) | Job::Swap(..) | Job::Window(..))
    }
}

/// Outcome of a submission attempt against the bounded queue.
enum Admission {
    Accepted,
    Overloaded,
    Stopped,
}

#[derive(Default)]
struct QueueState {
    stopped: bool,
    jobs: VecDeque<Job>,
}

struct Shared {
    queue: Mutex<QueueState>,
    ready: Condvar,
    /// Admission-control bound on `QueueState::jobs` (control jobs exempt).
    cap: usize,
}

impl Shared {
    fn new(cap: usize) -> Shared {
        Shared { queue: Mutex::new(QueueState::default()), ready: Condvar::new(), cap: cap.max(1) }
    }

    /// Enqueues a job. [`Admission::Stopped`] once the engine has stopped
    /// (the job is dropped so submitters never block on a reply that cannot
    /// come); [`Admission::Overloaded`] when the bounded queue is full.
    fn push(&self, job: Job) -> Admission {
        let mut state = self.queue.lock().expect("engine queue poisoned");
        if state.stopped {
            return Admission::Stopped;
        }
        if !job.is_control() && state.jobs.len() >= self.cap {
            retia_obs::metrics::inc("serve.queue_rejected");
            return Admission::Overloaded;
        }
        state.jobs.push_back(job);
        retia_obs::metrics::set_gauge("serve.queue_depth", state.jobs.len() as f64);
        self.ready.notify_one();
        Admission::Accepted
    }

    /// Blocks until at least one job is queued, then drains everything —
    /// the natural micro-batch.
    fn drain(&self) -> Vec<Job> {
        let mut state = self.queue.lock().expect("engine queue poisoned");
        while state.jobs.is_empty() {
            state = self.ready.wait(state).expect("engine queue poisoned");
        }
        retia_obs::metrics::set_gauge("serve.queue_depth", 0.0);
        state.jobs.drain(..).collect()
    }

    /// Current queue length (for tests and gauges).
    fn depth(&self) -> usize {
        self.queue.lock().expect("engine queue poisoned").jobs.len()
    }

    /// Marks the queue stopped and discards anything still queued (their
    /// reply channels drop, surfacing [`EngineError::Stopped`]).
    fn mark_stopped(&self) {
        let mut state = self.queue.lock().expect("engine queue poisoned");
        state.stopped = true;
        state.jobs.clear();
        retia_obs::metrics::set_gauge("serve.queue_depth", 0.0);
    }
}

/// RAII handle returned by [`EngineHandle::pause`]: the engine thread stays
/// blocked (after finishing jobs queued ahead of the pause) until this guard
/// drops. Submissions keep queueing — and start bouncing with
/// [`EngineError::Overloaded`] once the bounded queue fills — which is
/// exactly the deterministic setup the admission-control tests need.
pub struct PauseGuard {
    // Dropping the sender unblocks the engine's `recv`.
    _release: mpsc::Sender<()>,
}

/// Cheap, cloneable submission handle used by the HTTP workers.
#[derive(Clone)]
pub struct EngineHandle {
    shared: Arc<Shared>,
    stats: Arc<EngineStats>,
}

impl EngineHandle {
    /// Scores `queries` against the current window; blocks until the engine
    /// thread answers.
    pub fn query(&self, queries: Vec<Query>) -> Result<QueryResponse, EngineError> {
        let (tx, rx) = mpsc::channel();
        match self.shared.push(Job::Query(queries, tx, JobMeta::capture())) {
            Admission::Stopped => Err(EngineError::Stopped),
            Admission::Overloaded => Err(EngineError::Overloaded),
            Admission::Accepted => rx.recv().unwrap_or(Err(EngineError::Stopped)),
        }
    }

    /// Appends `facts` to the stream, advancing the window and recomputing
    /// the embedding cache; blocks until done.
    pub fn ingest(&self, facts: Vec<Quad>) -> Result<IngestResponse, EngineError> {
        let (tx, rx) = mpsc::channel();
        match self.shared.push(Job::Ingest(facts, tx, JobMeta::capture())) {
            Admission::Stopped => Err(EngineError::Stopped),
            Admission::Overloaded => Err(EngineError::Overloaded),
            Admission::Accepted => rx.recv().unwrap_or(Err(EngineError::Stopped)),
        }
    }

    /// Atomically replaces the served model (and, when still fresh, its
    /// pre-evolved states); blocks until the engine thread has installed
    /// it. Queries drained in the same batch before the swap job see the
    /// old model; everything after sees the new one — there is no torn
    /// in-between state to observe.
    pub fn swap(&self, req: SwapRequest) -> Result<SwapResponse, EngineError> {
        let (tx, rx) = mpsc::channel();
        match self.shared.push(Job::Swap(Box::new(req), tx)) {
            Admission::Stopped => Err(EngineError::Stopped),
            Admission::Overloaded => Err(EngineError::Overloaded),
            Admission::Accepted => rx.recv().unwrap_or(Err(EngineError::Stopped)),
        }
    }

    /// Snapshot of the current history window (the online trainer's
    /// training slice); blocks until the engine thread answers.
    pub fn window(&self) -> Result<WindowView, EngineError> {
        let (tx, rx) = mpsc::channel();
        match self.shared.push(Job::Window(tx)) {
            Admission::Stopped => Err(EngineError::Stopped),
            Admission::Overloaded => Err(EngineError::Overloaded),
            Admission::Accepted => rx.recv().unwrap_or(Err(EngineError::Stopped)),
        }
    }

    /// The shared lock-free epoch/staleness counters.
    pub fn stats(&self) -> Arc<EngineStats> {
        Arc::clone(&self.stats)
    }

    /// Blocks the engine thread until the returned guard drops (jobs queued
    /// ahead of the pause finish first; the call returns once the engine has
    /// actually parked). `None` if the engine has stopped. Test/ops hook for
    /// exercising queue buildup deterministically.
    pub fn pause(&self) -> Option<PauseGuard> {
        let (ack_tx, ack_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        match self.shared.push(Job::Pause(ack_tx, release_rx)) {
            Admission::Accepted => ack_rx.recv().ok().map(|()| PauseGuard { _release: release_tx }),
            _ => None,
        }
    }

    /// Number of jobs currently queued (tests and introspection).
    pub fn queue_depth(&self) -> usize {
        self.shared.depth()
    }

    /// Asks the engine thread to exit after the jobs already queued. Jobs
    /// enqueued after the stop marker get [`EngineError::Stopped`].
    pub fn stop(&self) {
        // A second stop after the engine exited is a no-op.
        let _ = self.shared.push(Job::Stop);
    }
}

/// The running engine: the handle plus the thread to join on shutdown.
pub struct Engine {
    handle: EngineHandle,
    thread: Option<JoinHandle<()>>,
}

impl Engine {
    /// Spawns the engine thread around a frozen model and the initial
    /// history window (the snapshots of the training stream, of which the
    /// newest `k` are kept; possibly empty), with default [`EngineOptions`].
    pub fn start(model: FrozenModel, window: Vec<Snapshot>) -> std::io::Result<Engine> {
        Engine::start_with(model, window, EngineOptions::default())
    }

    /// [`Engine::start`] with explicit queue bound and durable store. A boot
    /// window that is out of timestamp order or built over another id space
    /// than the model's is an [`std::io::ErrorKind::InvalidInput`] error.
    pub fn start_with(
        model: FrozenModel,
        window: Vec<Snapshot>,
        opts: EngineOptions,
    ) -> std::io::Result<Engine> {
        let (k, n, m) = (model.cfg.k, model.num_entities(), model.num_relations());
        let window = Window::from_snapshots(k, n, m, window).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("boot window: {e}"))
        })?;
        let shared = Arc::new(Shared::new(opts.queue_cap));
        let stats = Arc::new(EngineStats::default());
        let handle = EngineHandle { shared: Arc::clone(&shared), stats: Arc::clone(&stats) };
        let store = match &opts.store {
            Some(dir) => Some(retia_store::Appender::open(dir).map_err(std::io::Error::other)?),
            None => None,
        };
        let mut state = EngineState::new(model, window, stats, store);
        let thread = std::thread::Builder::new()
            .name("retia-serve-engine".to_string())
            .spawn(move || state.run(&shared))?;
        Ok(Engine { handle, thread: Some(thread) })
    }

    /// The submission handle.
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// Stops the engine after all queued jobs and joins its thread.
    pub fn shutdown(mut self) {
        self.handle.stop();
        if let Some(t) = self.thread.take() {
            // A panicked engine already aborted the process's usefulness;
            // surface it to the joining thread.
            t.join().expect("engine thread panicked");
        }
    }
}

/// Everything the engine thread owns exclusively.
struct EngineState {
    model: FrozenModel,
    /// The last `k` snapshots and their hypergraphs.
    window: Window,
    /// `(epoch, window_end, states)`, most recent last.
    cache: VecDeque<(u64, u32, FrozenStates)>,
    cache_cap: usize,
    epoch: u64,
    /// Served-model version; bumped on every swap.
    model_epoch: u64,
    stats: Arc<EngineStats>,
    store: Option<retia_store::Appender>,
}

impl EngineState {
    fn new(
        model: FrozenModel,
        window: Window,
        stats: Arc<EngineStats>,
        store: Option<retia_store::Appender>,
    ) -> EngineState {
        let state = EngineState {
            model,
            window,
            cache: VecDeque::new(),
            cache_cap: 4,
            epoch: 0,
            model_epoch: 0,
            stats,
            store,
        };
        state.publish_window_gauges();
        state
    }

    fn window_end(&self) -> u32 {
        self.window.end().unwrap_or(0)
    }

    fn window_start(&self) -> u32 {
        self.window.start().unwrap_or(0)
    }

    fn publish_window_gauges(&self) {
        retia_obs::metrics::set_gauge("serve.window_end", self.window_end() as f64);
        retia_obs::metrics::set_gauge("serve.window_len", self.window.snapshots().len() as f64);
    }

    /// Makes sure the current epoch's evolved states are cached, recording
    /// hit/miss counters. The whole consultation is one `serve.cache` stage
    /// in request traces; on a miss the `serve.evolve` span nests under it.
    fn ensure_states(&mut self) {
        let hit = self.cache.iter().any(|(e, _, _)| *e == self.epoch);
        let _t = retia_obs::span!(stages::CACHE, hit = u8::from(hit));
        if hit {
            retia_obs::metrics::inc("serve.cache_hit");
            return;
        }
        retia_obs::metrics::inc("serve.cache_miss");
        let _evolve = retia_obs::span!(stages::EVOLVE, window = self.window.snapshots().len());
        let states = self.model.evolve_window(self.window.snapshots(), self.window.hypers());
        self.cache.push_back((self.epoch, self.window_end(), states));
        while self.cache.len() > self.cache_cap {
            self.cache.pop_front();
        }
        retia_obs::metrics::set_gauge("serve.cache_entries", self.cache.len() as f64);
    }

    fn run(&mut self, shared: &Shared) {
        loop {
            let mut batch = shared.drain();
            let mut i = 0;
            while i < batch.len() {
                match &batch[i] {
                    Job::Stop => {
                        // Anything after the stop marker is discarded; the
                        // dropped reply channels surface `Stopped`.
                        shared.mark_stopped();
                        return;
                    }
                    Job::Ingest(facts, reply, meta) => {
                        let service_start = Instant::now();
                        let queue_wait_ns = meta.queue_wait(service_start);
                        let _scope = trace::adopt(meta.frames.clone());
                        let mut outcome = self.ingest(facts);
                        if let Ok(resp) = &mut outcome {
                            resp.queue_wait_ns = queue_wait_ns;
                            resp.service_ns = service_start.elapsed().as_nanos() as u64;
                        }
                        let _ = reply.send(outcome);
                        i += 1;
                    }
                    Job::Swap(..) => {
                        // Move the request out (it owns a whole model; the
                        // inert `Stop` left behind is never revisited — `i`
                        // only advances).
                        let swap = std::mem::replace(&mut batch[i], Job::Stop);
                        if let Job::Swap(req, reply) = swap {
                            let _ = reply.send(self.swap(*req));
                        }
                        i += 1;
                    }
                    Job::Window(reply) => {
                        let _ = reply.send(Ok(WindowView {
                            snaps: self.window.snapshots().to_vec(),
                            hypers: self.window.hypers().to_vec(),
                            epoch: self.epoch,
                            window_end: self.window_end(),
                        }));
                        i += 1;
                    }
                    Job::Pause(ack, release) => {
                        let _ = ack.send(());
                        // Parked until the PauseGuard drops (recv errors out
                        // when the sender side goes away).
                        let _ = release.recv();
                        i += 1;
                    }
                    Job::Query(..) => {
                        // Fuse the maximal run of consecutive query jobs.
                        let start = i;
                        while i < batch.len() && matches!(batch[i], Job::Query(..)) {
                            i += 1;
                        }
                        self.answer_queries(&batch[start..i]);
                    }
                }
            }
        }
    }

    fn ingest(&mut self, facts: &[Quad]) -> Result<IngestResponse, EngineError> {
        let _t = retia_obs::span!(stages::INGEST, facts = facts.len());
        if facts.is_empty() {
            return Err(EngineError::InvalidIngest("no facts in payload".to_string()));
        }
        let invalid = |e: retia_graph::WindowError| EngineError::InvalidIngest(e.to_string());
        self.window.check(facts).map_err(invalid)?;
        // Durability first: the store must hold the facts before any epoch
        // observable to clients reflects them. A failed append degrades
        // durability, not availability — warn and keep serving.
        if let Some(store) = &mut self.store {
            if let Err(e) = store.append_quads(facts) {
                retia_obs::metrics::inc("store.append_errors");
                retia_obs::event!(
                    retia_obs::Level::Warn,
                    "store.append_error";
                    format!("store append failed ({e}); facts accepted without durability")
                );
            }
        }
        // The check above passed against this same window, so the push
        // applies: an appended batch is never left out of the window.
        self.window.push(facts).map_err(invalid)?;
        self.epoch += 1;
        self.stats.ingest_epoch.store(self.epoch, Ordering::Release);
        self.publish_window_gauges();
        // Warm the cache eagerly: the recurrence cost lands on the ingest
        // call instead of the next query.
        self.ensure_states();
        retia_obs::metrics::inc_by("serve.ingest_facts", facts.len() as u64);
        Ok(IngestResponse {
            accepted: facts.len(),
            window_start: self.window_start(),
            window_end: self.window_end(),
            window_len: self.window.snapshots().len(),
            epoch: self.epoch,
            // Filled by the run loop, which owns the queue-wait measurement.
            queue_wait_ns: 0,
            service_ns: 0,
        })
    }

    /// Atomically installs a replacement model. The engine thread owns the
    /// model exclusively, so "atomic" is structural: a query is either
    /// drained before this job (old model, old cache) or after it (new
    /// model, fresh states) — never against a half-written mix.
    fn swap(&mut self, req: SwapRequest) -> Result<SwapResponse, EngineError> {
        let trained_epoch = req.trained_epoch;
        let _t = retia_obs::span!(stages::SWAP, trained_epoch = trained_epoch);
        let (n, m) = (self.model.num_entities(), self.model.num_relations());
        let (rn, rm) = (req.model.num_entities(), req.model.num_relations());
        if (rn, rm) != (n, m) {
            return Err(EngineError::InvalidSwap(format!(
                "candidate model has {rn} entities / {rm} relations; serving {n} / {m}"
            )));
        }
        if req.model.cfg.k != self.model.cfg.k {
            return Err(EngineError::InvalidSwap(format!(
                "candidate window size k={} does not match serving k={}",
                req.model.cfg.k, self.model.cfg.k
            )));
        }
        self.model = req.model;
        // Cached states encode the *old* weights; every entry is now stale
        // regardless of epoch key.
        self.cache.clear();
        let states_reused = match req.states {
            Some(states) if trained_epoch == self.epoch => {
                self.cache.push_back((self.epoch, self.window_end(), states));
                true
            }
            _ => false,
        };
        if !states_reused {
            // An ingest raced the trainer: pay the recurrence here on the
            // swap job rather than on the next query.
            self.ensure_states();
        }
        self.model_epoch += 1;
        self.stats.model_epoch.store(self.model_epoch, Ordering::Release);
        self.stats.trained_epoch.store(trained_epoch, Ordering::Release);
        retia_obs::metrics::inc("serve.swaps");
        retia_obs::metrics::set_gauge("serve.model_epoch", self.model_epoch as f64);
        retia_obs::metrics::set_gauge("serve.cache_entries", self.cache.len() as f64);
        Ok(SwapResponse { model_epoch: self.model_epoch, states_reused })
    }

    /// Validates, batches, decodes and answers a fused run of query jobs.
    fn answer_queries(&mut self, jobs: &[Job]) {
        let service_start = Instant::now();
        let n = self.model.num_entities() as u32;
        let m = self.model.num_relations() as u32;

        // Validate each job; invalid ones are answered immediately and
        // excluded from the decode batch. Queue wait is recorded for every
        // job — an invalid request waited too.
        let mut live: Vec<(&Vec<Query>, &Reply<QueryResponse>, u64)> = Vec::new();
        let mut batch_frames: Vec<TraceFrame> = Vec::new();
        for job in jobs {
            let Job::Query(queries, reply, meta) = job else { continue };
            let queue_wait_ns = meta.queue_wait(service_start);
            match validate_queries(queries, n, m) {
                Err(e) => {
                    let _ = reply.send(Err(e));
                }
                Ok(()) => {
                    batch_frames.extend(meta.frames.iter().copied());
                    live.push((queries, reply, queue_wait_ns));
                }
            }
        }
        if live.is_empty() {
            return;
        }

        let (window_end, epoch) = (self.window_end(), self.epoch);
        // Answers are buffered and sent only after the decode spans close:
        // a reply unblocks its worker, which may finish the request's trace
        // immediately — stages recorded after that would be lost.
        let mut answered: Vec<(&Reply<QueryResponse>, QueryResponse)> =
            Vec::with_capacity(live.len());
        {
            // The fused batch serves every live request at once: adopt all
            // their trace frames so the shared decode spans land in each
            // trace.
            let _scope = trace::adopt(batch_frames);

            let total: usize = live.iter().map(|(qs, _, _)| qs.len()).sum();
            retia_obs::metrics::observe("serve.batch_queries", total as f64);
            retia_obs::metrics::observe("serve.batch_jobs", live.len() as f64);
            let _t = retia_obs::span!(stages::DECODE, queries = total, jobs = live.len());

            // One scoring matmul per query kind across all fused jobs.
            let mut ent_args: (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
            let mut rel_args: (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
            for (queries, _, _) in &live {
                for q in *queries {
                    match q.kind {
                        QueryKind::Entity => {
                            ent_args.0.push(q.subject);
                            ent_args.1.push(q.b);
                        }
                        QueryKind::Relation => {
                            rel_args.0.push(q.subject);
                            rel_args.1.push(q.b);
                        }
                    }
                }
            }
            self.ensure_states();
            let states = self
                .cache
                .iter()
                .find(|(e, _, _)| *e == self.epoch)
                .map(|(_, _, s)| s)
                .expect("states cached by ensure_states above");
            let model = &self.model;
            let ent_probs = (!ent_args.0.is_empty())
                .then(|| model.decode_entity(states, ent_args.0, ent_args.1));
            let rel_probs = (!rel_args.0.is_empty())
                .then(|| model.decode_relation(states, rel_args.0, rel_args.1));

            let (mut ent_row, mut rel_row) = (0usize, 0usize);
            let _topk = retia_obs::span!(stages::TOPK, queries = total);
            for (queries, reply, queue_wait_ns) in live {
                let mut results = Vec::with_capacity(queries.len());
                for q in queries {
                    let row = match q.kind {
                        QueryKind::Entity => {
                            ent_row += 1;
                            ent_probs.as_ref().map(|p| p.row(ent_row - 1))
                        }
                        QueryKind::Relation => {
                            rel_row += 1;
                            rel_probs.as_ref().map(|p| p.row(rel_row - 1))
                        }
                    };
                    let scores = row.expect("probs computed for every query kind present");
                    results.push(TopK { candidates: top_k(scores, q.k) });
                }
                answered.push((
                    reply,
                    QueryResponse { window_end, epoch, results, queue_wait_ns, service_ns: 0 },
                ));
            }
        }
        let service_ns = service_start.elapsed().as_nanos() as u64;
        for (reply, mut resp) in answered {
            resp.service_ns = service_ns;
            let _ = reply.send(Ok(resp));
        }
    }
}

fn validate_queries(queries: &[Query], n: u32, m: u32) -> Result<(), EngineError> {
    if queries.is_empty() {
        return Err(EngineError::InvalidQuery("no queries in payload".to_string()));
    }
    for q in queries {
        if q.subject >= n {
            return Err(EngineError::InvalidQuery(format!(
                "subject id {} out of range: have {n} entities",
                q.subject
            )));
        }
        match q.kind {
            QueryKind::Entity => {
                if q.b >= 2 * m {
                    return Err(EngineError::InvalidQuery(format!(
                        "relation id {} out of range: have {m} relations ({} with inverses)",
                        q.b,
                        2 * m
                    )));
                }
            }
            QueryKind::Relation => {
                if q.b >= n {
                    return Err(EngineError::InvalidQuery(format!(
                        "object id {} out of range: have {n} entities",
                        q.b
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{FrozenModel, Retia, RetiaConfig, TkgContext};
    use retia_data::SyntheticConfig;

    fn setup() -> (Engine, TkgContext, RetiaConfig) {
        let ds = SyntheticConfig::tiny(5).generate();
        let ctx = TkgContext::new(&ds);
        let cfg = RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() };
        let model = Retia::new(&cfg, &ds);
        let window = ctx.snapshots.clone();
        let engine = Engine::start(FrozenModel::new(model), window).expect("engine thread spawns");
        (engine, ctx, cfg)
    }

    #[test]
    fn query_answers_match_direct_predict() {
        let (engine, ctx, cfg) = setup();
        let h = engine.handle();
        let got = h
            .query(vec![Query { kind: QueryKind::Entity, subject: 0, b: 1, k: 3 }])
            .expect("valid query");
        assert_eq!(got.results.len(), 1);
        assert_eq!(got.results[0].candidates.len(), 3);

        // Reference: the eval-path forward over the same window.
        let ds = SyntheticConfig::tiny(5).generate();
        let model = Retia::new(&cfg, &ds);
        let last = ctx.snapshots.len() - cfg.k..ctx.snapshots.len();
        let probs =
            model.predict_entity(&ctx.snapshots[last.clone()], &ctx.hypers[last], vec![0], vec![1]);
        let reference = retia_eval::top_k(probs.row(0), 3);
        assert_eq!(got.results[0].candidates, reference, "serve must match eval bitwise");
        engine.shutdown();
    }

    #[test]
    fn invalid_ids_are_typed_errors() {
        let (engine, ctx, _) = setup();
        let h = engine.handle();
        let bad_subject = h.query(vec![Query {
            kind: QueryKind::Entity,
            subject: ctx.num_entities as u32,
            b: 0,
            k: 1,
        }]);
        assert!(matches!(bad_subject, Err(EngineError::InvalidQuery(_))));
        let bad_rel = h.query(vec![Query {
            kind: QueryKind::Entity,
            subject: 0,
            b: 2 * ctx.num_relations as u32,
            k: 1,
        }]);
        assert!(matches!(bad_rel, Err(EngineError::InvalidQuery(_))));
        assert!(matches!(h.query(vec![]), Err(EngineError::InvalidQuery(_))));
        assert!(matches!(h.ingest(vec![]), Err(EngineError::InvalidIngest(_))));
        engine.shutdown();
    }

    #[test]
    fn ingest_advances_window_and_epoch() {
        let (engine, ctx, cfg) = setup();
        let h = engine.handle();
        let before = h
            .query(vec![Query { kind: QueryKind::Entity, subject: 0, b: 0, k: 2 }])
            .expect("valid");
        let t_next = ctx.snapshots.last().expect("nonempty").t + 1;
        let summary = h.ingest(vec![Quad::new(0, 0, 1, t_next)]).expect("valid ingest");
        assert_eq!(summary.accepted, 1);
        assert_eq!(summary.window_end, t_next);
        assert_eq!(summary.window_len, cfg.k);
        assert_eq!(summary.epoch, before.epoch + 1);

        let after = h
            .query(vec![Query { kind: QueryKind::Entity, subject: 0, b: 0, k: 2 }])
            .expect("valid");
        assert_eq!(after.epoch, summary.epoch);
        assert_eq!(after.window_end, t_next);

        // Out-of-order facts are rejected.
        let stale = h.ingest(vec![Quad::new(0, 0, 1, 0)]);
        assert!(matches!(stale, Err(EngineError::InvalidIngest(_))));
        engine.shutdown();
    }

    #[test]
    fn swap_installs_candidate_and_window_exposes_state() {
        let (engine, _, cfg) = setup();
        let h = engine.handle();
        let stats = h.stats();
        let q = Query { kind: QueryKind::Entity, subject: 0, b: 0, k: 3 };
        let before = h.query(vec![q]).expect("valid query");
        assert_eq!(stats.model_epoch(), 0);

        // The engine's current window, as the online trainer sees it.
        let view = h.window().expect("window view");
        assert_eq!(view.epoch, before.epoch);
        assert_eq!(view.snaps.len(), cfg.k);
        assert_eq!(view.window_end, before.window_end);

        // Swap in a clone with identical weights, pre-evolved for this
        // window: answers stay bit-identical and the states are reused.
        let ds = SyntheticConfig::tiny(5).generate();
        let clone = FrozenModel::new(Retia::new(&cfg, &ds));
        let states = clone.evolve_window(&view.snaps, &view.hypers);
        let resp = h
            .swap(SwapRequest { model: clone, trained_epoch: view.epoch, states: Some(states) })
            .expect("same-shape swap succeeds");
        assert_eq!(resp.model_epoch, 1);
        assert!(resp.states_reused);
        assert_eq!(stats.model_epoch(), 1);
        assert_eq!(stats.trained_epoch(), view.epoch);
        let after = h.query(vec![q]).expect("valid query");
        for (a, b) in before.results[0].candidates.iter().zip(after.results[0].candidates.iter()) {
            assert_eq!(a.0, b.0, "rank order changed across an identical-weights swap");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "score bits changed across swap");
        }

        // A shape-incompatible candidate is a typed error; nothing installs.
        let wrong_cfg = RetiaConfig { dim: 8, channels: 4, k: 3, ..Default::default() };
        let wrong = FrozenModel::new(Retia::new(&wrong_cfg, &ds));
        let bad = h.swap(SwapRequest { model: wrong, trained_epoch: view.epoch, states: None });
        assert!(matches!(bad, Err(EngineError::InvalidSwap(_))));
        assert_eq!(stats.model_epoch(), 1);
        engine.shutdown();
    }

    #[test]
    fn stats_track_ingest_epoch_and_staleness() {
        let (engine, ctx, _) = setup();
        let h = engine.handle();
        let stats = h.stats();
        assert_eq!(stats.ingest_epoch(), 0);
        assert_eq!(stats.staleness(), 0);
        let t_next = ctx.snapshots.last().expect("nonempty").t + 1;
        h.ingest(vec![Quad::new(0, 0, 1, t_next)]).expect("valid ingest");
        assert_eq!(stats.ingest_epoch(), 1);
        assert_eq!(stats.staleness(), 1, "no training yet: one un-trained ingest epoch");
        // A swap carrying trained_epoch = the current window epoch clears it.
        let view = h.window().expect("window view");
        let ds = SyntheticConfig::tiny(5).generate();
        let cfg = RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() };
        let clone = FrozenModel::new(Retia::new(&cfg, &ds));
        h.swap(SwapRequest { model: clone, trained_epoch: view.epoch, states: None })
            .expect("swap succeeds");
        assert_eq!(stats.staleness(), 0);
        engine.shutdown();
    }

    #[test]
    fn stopped_engine_reports_stopped() {
        let (engine, _, _) = setup();
        let h = engine.handle();
        engine.shutdown();
        let r = h.query(vec![Query { kind: QueryKind::Entity, subject: 0, b: 0, k: 1 }]);
        assert!(matches!(r, Err(EngineError::Stopped)));
    }

    #[test]
    fn boot_window_over_another_id_space_is_invalid_input() {
        let ds = SyntheticConfig::tiny(5).generate();
        let ctx = TkgContext::new(&ds);
        let cfg = RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() };
        // The newest boot snapshot is built at N + 1 and holds entity id N,
        // which the model does not have.
        let mut window = ctx.snapshots.clone();
        let last = window.last_mut().expect("nonempty window");
        let wide = Quad::new(ds.num_entities as u32, 0, 0, last.t);
        *last = Snapshot::from_quads(&[wide], ds.num_entities + 1, ds.num_relations);

        let engine = Engine::start(FrozenModel::new(Retia::new(&cfg, &ds)), window.clone());
        assert_eq!(engine.err().map(|e| e.kind()), Some(std::io::ErrorKind::InvalidInput));
        let model = FrozenModel::new(Retia::new(&cfg, &ds));
        let server = crate::Server::start(model, window, &crate::ServeConfig::default());
        assert_eq!(server.err().map(|e| e.kind()), Some(std::io::ErrorKind::InvalidInput));
    }

    /// A store-backed server ingests a same-t merge, one batch over two new
    /// timestamps and a batch that pushes the oldest snapshots out of the
    /// window; a server booted from the reopened store must then hold the
    /// same window and answer the same probes bit for bit.
    #[test]
    fn store_backed_window_reboots_bit_identically() {
        let ds = SyntheticConfig::tiny(5).generate();
        let cfg = RetiaConfig { dim: 8, channels: 4, k: 4, ..Default::default() };
        let dir = std::env::temp_dir().join(format!("retia-engine-window-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store =
            retia_store::Store::create(&dir, &ds.name, ds.granularity).expect("create store");
        store.append_dataset(&ds).expect("seed the store");
        let boot = store.window(cfg.k);
        drop(store);
        let start = |window: Vec<Snapshot>, store: Option<std::path::PathBuf>| {
            let serve_cfg = crate::ServeConfig { workers: 1, store, ..Default::default() };
            crate::Server::start(FrozenModel::new(Retia::new(&cfg, &ds)), window, &serve_cfg)
                .expect("server boots")
        };

        let live = start(boot, Some(dir.clone()));
        let h = live.engine_handle();
        let end = h.window().expect("window view").window_end;
        let (n, m) = (ds.num_entities as u32, ds.num_relations as u32);
        let fact = |i: u32, t: u32| Quad::new(i % n, i % m, (7 * i + 1) % n, t);
        let merged = h.ingest(vec![fact(1, end), fact(2, end)]).expect("same-t merge");
        assert_eq!((merged.window_end, merged.window_len), (end, cfg.k));
        let spanned = h
            .ingest(vec![fact(3, end + 2), fact(4, end + 1), fact(5, end + 2)])
            .expect("two new timestamps");
        assert_eq!((spanned.window_start, spanned.window_end), (end - 1, end + 2));
        let slid = h.ingest(vec![fact(6, end + 3)]).expect("forward ingest");
        assert_eq!((slid.window_start, slid.window_end, slid.window_len), (end, end + 3, cfg.k));

        let probes: Vec<Query> = (0..6u32)
            .map(|i| match i % 3 {
                2 => Query { kind: QueryKind::Relation, subject: i % n, b: (i + 1) % n, k: 5 },
                _ => Query { kind: QueryKind::Entity, subject: i % n, b: i % (2 * m), k: 5 },
            })
            .collect();
        let live_answer = h.query(probes.clone()).expect("live probes");
        let live_view = h.window().expect("live window");
        live.shutdown();

        let reopened = retia_store::Store::open(&dir).expect("store reopens").window(cfg.k);
        let rebooted = start(reopened, None);
        let h = rebooted.engine_handle();
        let answer = h.query(probes).expect("rebooted probes");
        let view = h.window().expect("rebooted window");
        rebooted.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        let span = |v: &WindowView| (v.snaps[0].t, v.window_end, v.snaps.len());
        assert_eq!(span(&view), span(&live_view));
        assert_eq!((view.snaps, view.hypers), (live_view.snaps, live_view.hypers));
        let bits = |r: &QueryResponse| -> Vec<(u32, u32, u32)> {
            let ranked = r.results.iter().flat_map(|t| &t.candidates);
            ranked.map(|&(id, score)| (r.window_end, id, score.to_bits())).collect()
        };
        assert_eq!(bits(&answer), bits(&live_answer), "rebooted server answers differently");
    }

    #[test]
    fn bounded_queue_sheds_with_overloaded() {
        let ds = SyntheticConfig::tiny(5).generate();
        let ctx = TkgContext::new(&ds);
        let cfg = RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() };
        let model = Retia::new(&cfg, &ds);
        let cap = 3usize;
        let opts = EngineOptions { queue_cap: cap, ..Default::default() };
        let engine = Engine::start_with(FrozenModel::new(model), ctx.snapshots.clone(), opts)
            .expect("engine thread spawns");
        let h = engine.handle();

        // Park the engine so submissions accumulate instead of draining.
        let guard = h.pause().expect("engine is running");
        let mut waiters = Vec::new();
        for _ in 0..cap {
            let h = h.clone();
            waiters.push(std::thread::spawn(move || {
                h.query(vec![Query { kind: QueryKind::Entity, subject: 0, b: 0, k: 1 }])
            }));
        }
        // Wait (bounded) for all cap jobs to be queued.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while h.queue_depth() < cap {
            assert!(std::time::Instant::now() < deadline, "queue never filled");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // The queue is full: the next submission is shed immediately.
        let shed = h.query(vec![Query { kind: QueryKind::Entity, subject: 0, b: 0, k: 1 }]);
        assert!(matches!(shed, Err(EngineError::Overloaded)), "got {shed:?}");
        // Stop is a control job and must bypass the full queue (verified
        // implicitly: shutdown below would hang forever otherwise).

        // Releasing the engine drains the queued jobs successfully.
        drop(guard);
        for w in waiters {
            let got = w.join().expect("waiter thread");
            assert!(got.is_ok(), "queued job must still be answered: {got:?}");
        }
        engine.shutdown();
    }
}
