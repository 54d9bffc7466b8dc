//! Request-scoped tracing with a tail-sampled in-memory trace store.
//!
//! A *trace* is the lifecycle of one request: [`begin`] allocates a trace id
//! when the request's first bytes arrive, stages are recorded against it
//! while it is in flight, and [`finish`] closes it with a status code. The
//! store keeps every trace whose total latency exceeds the configured slow
//! threshold plus a deterministic 1-in-N sample of the rest (tail sampling),
//! in a bounded ring served out newest-first by [`traces_json`].
//!
//! Stages arrive two ways:
//!
//! * **Explicitly** via [`record_stage`], for segments measured by hand
//!   (socket read, queue wait, response write) where no RAII span wraps the
//!   work.
//! * **Implicitly** from [`crate::span!`] guards: a thread that has adopted
//!   trace frames ([`adopt`]) attaches every span it opens to all adopted
//!   traces — so one fused engine batch serving several requests records its
//!   shared decode span into each request's trace, and the existing
//!   instrumentation (`serve.evolve`, `serve.decode`, ...) becomes per-request
//!   attribution for free.
//!
//! Frames are `(trace_id, parent_span_id)` pairs. Nesting works because a
//! span guard pushes a derived scope whose parent is the new span's id;
//! threads hand frames across boundaries with [`current_frames`] + [`adopt`]
//! (each serve job carries its worker's frames to the engine thread this way).
//!
//! Cost when no request is in flight: one relaxed atomic load per
//! instrumentation point — the same budget as the rest of retia-obs.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use retia_json::Value;

use crate::now_ns;

/// An attachment point for stages: a live trace plus the span id new stages
/// should parent under (`0` = the request root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceFrame {
    /// The trace being recorded into.
    pub trace_id: u64,
    /// Parent span id for stages recorded through this frame (0 = root).
    pub parent: u64,
}

/// Trace correlation ids carried by an emitted [`crate::Event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace the event belongs to.
    pub trace_id: u64,
    /// This event's own span id.
    pub span_id: u64,
    /// Parent span id (0 = the request root).
    pub parent: u64,
}

/// One recorded stage of a trace.
#[derive(Clone, Debug)]
pub struct StageRecord {
    /// Dotted stage name (`serve.decode`, `serve.queue_wait`, ...).
    pub name: String,
    /// Unique span id within the process.
    pub span_id: u64,
    /// Parent span id (0 = the request root).
    pub parent: u64,
    /// Dense id of the recording thread.
    pub thread: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A finished, sampled-in trace.
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    /// The trace id.
    pub trace_id: u64,
    /// Request label (endpoint path).
    pub label: String,
    /// HTTP status the request finished with.
    pub status: u16,
    /// Request start, nanoseconds since the process trace epoch.
    pub started_ns: u64,
    /// Total request latency in nanoseconds.
    pub total_ns: u64,
    /// Why the trace was kept: `"slow"` (tail) or `"sampled"` (1-in-N).
    pub kept: &'static str,
    /// Recorded stages in completion order.
    pub stages: Vec<StageRecord>,
}

/// Tail-sampling policy for the trace store.
#[derive(Clone, Copy, Debug)]
pub struct TracePolicy {
    /// Every trace at least this slow (total latency, ms) is kept.
    pub slow_ms: f64,
    /// Of the fast traces, 1 in this many is kept (`trace_id % n == 0`);
    /// `0` keeps none of them.
    pub sample_every: u64,
    /// Bound on stored traces; the oldest is evicted beyond it.
    pub capacity: usize,
}

impl Default for TracePolicy {
    fn default() -> TracePolicy {
        TracePolicy { slow_ms: 250.0, sample_every: 16, capacity: 256 }
    }
}

/// Stages kept per in-flight trace; extras are dropped (a trace this wide is
/// a bug in the instrumentation, not something to buffer without bound).
const MAX_STAGES: usize = 1024;

struct InflightTrace {
    label: String,
    started_ns: u64,
    stages: Vec<StageRecord>,
}

#[derive(Default)]
struct Store {
    policy: Option<TracePolicy>,
    inflight: HashMap<u64, InflightTrace>,
    ring: VecDeque<FinishedTrace>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

fn lock_store() -> std::sync::MutexGuard<'static, Store> {
    store().lock().unwrap_or_else(|e| e.into_inner())
}

/// Fast-path gate: true while any trace is in flight anywhere in the
/// process. One relaxed load keeps un-traced paths (training) at the usual
/// instrumentation cost.
static LIVE: AtomicBool = AtomicBool::new(false);

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of adopted frame scopes. The top scope lists every trace the
    /// current thread's work should be attributed to.
    static SCOPES: RefCell<Vec<Vec<TraceFrame>>> = const { RefCell::new(Vec::new()) };
}

/// Sets the tail-sampling policy (serve startup, tests).
pub fn set_policy(policy: TracePolicy) {
    lock_store().policy = Some(policy);
}

fn effective_policy(store: &Store) -> TracePolicy {
    store.policy.unwrap_or_default()
}

/// Opaque handle for one in-flight trace. Close it with [`finish`]; an
/// unfinished trace is discarded by the next [`reset`].
#[derive(Debug)]
pub struct TraceHandle {
    trace_id: u64,
}

impl TraceHandle {
    /// The trace id (for logging / response headers).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The root frame of this trace, for [`adopt`].
    pub fn root_frame(&self) -> TraceFrame {
        TraceFrame { trace_id: self.trace_id, parent: 0 }
    }
}

/// Opens a trace for a request labeled `label` that started at `start_ns`
/// (pass an earlier timestamp when part of the request — the socket read —
/// was measured before the trace id was assigned).
pub fn begin(label: &str, start_ns: u64) -> TraceHandle {
    let trace_id = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    let mut s = lock_store();
    s.inflight.insert(
        trace_id,
        InflightTrace { label: label.to_string(), started_ns: start_ns, stages: Vec::new() },
    );
    LIVE.store(true, Ordering::Relaxed);
    TraceHandle { trace_id }
}

/// Closes a trace: computes its total latency and keeps it when it is slow
/// (≥ the policy threshold) or falls in the deterministic 1-in-N sample.
pub fn finish(handle: TraceHandle, status: u16) {
    let end_ns = now_ns();
    let mut s = lock_store();
    let Some(t) = s.inflight.remove(&handle.trace_id) else { return };
    if s.inflight.is_empty() {
        LIVE.store(false, Ordering::Relaxed);
    }
    let policy = effective_policy(&s);
    let total_ns = end_ns.saturating_sub(t.started_ns);
    let kept = if total_ns as f64 / 1e6 >= policy.slow_ms {
        "slow"
    } else if policy.sample_every > 0 && handle.trace_id.is_multiple_of(policy.sample_every) {
        "sampled"
    } else {
        return;
    };
    s.ring.push_back(FinishedTrace {
        trace_id: handle.trace_id,
        label: t.label,
        status,
        started_ns: t.started_ns,
        total_ns,
        kept,
        stages: t.stages,
    });
    let cap = policy.capacity.max(1);
    while s.ring.len() > cap {
        s.ring.pop_front();
    }
}

/// Records one stage into every trace in `frames` under one shared span id
/// (returned; 0 when `frames` is empty). For hand-measured segments; RAII
/// spans under an adopted scope record themselves.
pub fn record_stage(frames: &[TraceFrame], name: &str, start_ns: u64, dur_ns: u64) -> u64 {
    if frames.is_empty() {
        return 0;
    }
    let span_id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let thread = crate::current_thread();
    let mut s = lock_store();
    for f in frames {
        if let Some(t) = s.inflight.get_mut(&f.trace_id) {
            if t.stages.len() < MAX_STAGES {
                t.stages.push(StageRecord {
                    name: name.to_string(),
                    span_id,
                    parent: f.parent,
                    thread,
                    start_ns,
                    dur_ns,
                });
            }
        }
    }
    span_id
}

/// RAII guard popping the frame scope pushed by [`adopt`].
pub struct ScopeGuard {
    pushed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.pushed {
            SCOPES.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Adopts `frames` as the current thread's trace scope until the guard
/// drops: every [`crate::span!`] opened meanwhile records a stage into each
/// of them. An empty `frames` is a no-op guard.
pub fn adopt(frames: Vec<TraceFrame>) -> ScopeGuard {
    if frames.is_empty() {
        return ScopeGuard { pushed: false };
    }
    SCOPES.with(|s| s.borrow_mut().push(frames));
    ScopeGuard { pushed: true }
}

/// The current thread's active trace frames (empty when none). Capture this
/// before handing work to another thread, then [`adopt`] it there.
pub fn current_frames() -> Vec<TraceFrame> {
    if !LIVE.load(Ordering::Relaxed) {
        return Vec::new();
    }
    SCOPES.with(|s| s.borrow().last().cloned().unwrap_or_default())
}

/// Span-guard hook: when frames are active, allocates a span id, pushes a
/// derived scope (children of the new span) and returns the id plus the
/// frames the span will record into on exit.
pub(crate) fn span_enter() -> Option<(u64, Vec<TraceFrame>)> {
    if !LIVE.load(Ordering::Relaxed) {
        return None;
    }
    SCOPES.with(|s| {
        let mut scopes = s.borrow_mut();
        let frames = scopes.last().cloned().unwrap_or_default();
        if frames.is_empty() {
            return None;
        }
        let span_id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let derived =
            frames.iter().map(|f| TraceFrame { trace_id: f.trace_id, parent: span_id }).collect();
        scopes.push(derived);
        Some((span_id, frames))
    })
}

/// Span-guard hook: pops the derived scope and records the finished span as
/// a stage of every adopted trace.
pub(crate) fn span_exit(
    frames: &[TraceFrame],
    span_id: u64,
    name: &str,
    start_ns: u64,
    dur_ns: u64,
) {
    SCOPES.with(|s| {
        s.borrow_mut().pop();
    });
    let thread = crate::current_thread();
    let mut st = lock_store();
    for f in frames {
        if let Some(t) = st.inflight.get_mut(&f.trace_id) {
            if t.stages.len() < MAX_STAGES {
                t.stages.push(StageRecord {
                    name: name.to_string(),
                    span_id,
                    parent: f.parent,
                    thread,
                    start_ns,
                    dur_ns,
                });
            }
        }
    }
}

/// Snapshot of the stored traces, newest first.
pub fn traces() -> Vec<FinishedTrace> {
    lock_store().ring.iter().rev().cloned().collect()
}

/// Clears the store and any in-flight traces (tests; fresh serve runs).
pub fn reset() {
    let mut s = lock_store();
    s.inflight.clear();
    s.ring.clear();
    LIVE.store(false, Ordering::Relaxed);
}

/// The stored traces as the `/v1/traces` JSON document: newest first, each
/// stage with its exclusive time (duration minus recorded children).
pub fn traces_json() -> Value {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut arr = Vec::new();
    for t in traces() {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for st in &t.stages {
            if st.parent != 0 {
                *child_ns.entry(st.parent).or_insert(0) += st.dur_ns;
            }
        }
        let mut stages = Vec::new();
        for st in &t.stages {
            let exclusive =
                st.dur_ns.saturating_sub(child_ns.get(&st.span_id).copied().unwrap_or(0));
            let mut doc = Value::object();
            doc.insert("name", Value::from(st.name.as_str()));
            doc.insert("span_id", Value::from(st.span_id));
            doc.insert("parent", Value::from(st.parent));
            doc.insert("thread", Value::from(st.thread));
            doc.insert("offset_ms", Value::from(ms(st.start_ns.saturating_sub(t.started_ns))));
            doc.insert("dur_ms", Value::from(ms(st.dur_ns)));
            doc.insert("exclusive_ms", Value::from(ms(exclusive)));
            stages.push(doc);
        }
        let mut doc = Value::object();
        doc.insert("trace_id", Value::from(t.trace_id));
        doc.insert("endpoint", Value::from(t.label.as_str()));
        doc.insert("status", Value::from(t.status as u64));
        doc.insert("start_ms", Value::from(ms(t.started_ns)));
        doc.insert("total_ms", Value::from(ms(t.total_ns)));
        doc.insert("kept", Value::from(t.kept));
        doc.insert("stages", Value::Array(stages));
        arr.push(doc);
    }
    let mut out = Value::object();
    out.insert("traces", Value::Array(arr));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn policy(slow_ms: f64, sample_every: u64, capacity: usize) -> TracePolicy {
        TracePolicy { slow_ms, sample_every, capacity }
    }

    #[test]
    fn tail_sampling_keeps_slow_and_one_in_n() {
        let _guard = test_lock::lock();
        reset();
        set_policy(policy(1e9, 4, 64)); // nothing is "slow" in-process
        let mut kept = 0usize;
        let mut ids = Vec::new();
        for _ in 0..16 {
            let h = begin("/v1/query", now_ns());
            ids.push(h.trace_id());
            finish(h, 200);
        }
        for t in traces() {
            assert_eq!(t.kept, "sampled");
            assert_eq!(t.trace_id % 4, 0);
            kept += 1;
        }
        let expected = ids.iter().filter(|id| *id % 4 == 0).count();
        assert_eq!(kept, expected);
        // A slow trace is always kept regardless of the modulus.
        set_policy(policy(0.0, 0, 64));
        let h = begin("/v1/query", now_ns().saturating_sub(5_000_000));
        let slow_id = h.trace_id();
        finish(h, 200);
        let newest = &traces()[0];
        assert_eq!(newest.trace_id, slow_id);
        assert_eq!(newest.kept, "slow");
        assert!(newest.total_ns >= 5_000_000);
        reset();
    }

    #[test]
    fn ring_is_bounded_and_newest_first() {
        let _guard = test_lock::lock();
        reset();
        set_policy(policy(0.0, 1, 3));
        let mut last = 0;
        for _ in 0..10 {
            let h = begin("/x", now_ns());
            last = h.trace_id();
            finish(h, 200);
        }
        let ts = traces();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].trace_id, last);
        assert!(ts[0].trace_id > ts[1].trace_id && ts[1].trace_id > ts[2].trace_id);
        reset();
    }

    #[test]
    fn spans_under_adopted_frames_record_parented_stages() {
        let _guard = test_lock::lock();
        reset();
        set_policy(policy(0.0, 1, 16));
        let h = begin("/v1/query", now_ns());
        let root = h.root_frame();
        let wait_id = record_stage(&[root], "serve.queue_wait", now_ns(), 1000);
        assert_ne!(wait_id, 0);
        {
            let _scope = adopt(vec![root]);
            let _outer = crate::span!("serve.decode");
            // A nested span parents under the outer one, and a thread that
            // adopts the current frames keeps the same parenting.
            let frames = current_frames();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _scope = adopt(frames.clone());
                    let _inner = crate::span!("serve.decode.shard");
                });
            });
        }
        finish(h, 200);
        let t = &traces()[0];
        assert_eq!(t.label, "/v1/query");
        let names: Vec<&str> = t.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"serve.queue_wait"), "{names:?}");
        assert!(names.contains(&"serve.decode"), "{names:?}");
        assert!(names.contains(&"serve.decode.shard"), "{names:?}");
        let decode = t.stages.iter().find(|s| s.name == "serve.decode").unwrap();
        let shard = t.stages.iter().find(|s| s.name == "serve.decode.shard").unwrap();
        let wait = t.stages.iter().find(|s| s.name == "serve.queue_wait").unwrap();
        assert_eq!(wait.parent, 0);
        assert_eq!(decode.parent, 0);
        assert_eq!(shard.parent, decode.span_id, "shard span parents under decode");
        reset();
    }

    #[test]
    fn one_span_records_into_every_adopted_trace() {
        let _guard = test_lock::lock();
        reset();
        set_policy(policy(0.0, 1, 16));
        let a = begin("/a", now_ns());
        let b = begin("/b", now_ns());
        {
            let _scope = adopt(vec![a.root_frame(), b.root_frame()]);
            let _batch = crate::span!("serve.decode");
        }
        finish(a, 200);
        finish(b, 200);
        let ts = traces();
        assert_eq!(ts.len(), 2);
        let sa = &ts[1].stages[0];
        let sb = &ts[0].stages[0];
        assert_eq!(sa.name, "serve.decode");
        assert_eq!(sb.name, "serve.decode");
        assert_eq!(sa.span_id, sb.span_id, "the shared batch span has one id");
        reset();
    }

    #[test]
    fn traces_json_reports_exclusive_times() {
        let _guard = test_lock::lock();
        reset();
        set_policy(policy(0.0, 1, 16));
        let h = begin("/v1/query", now_ns());
        let root = h.root_frame();
        let outer = record_stage(&[root], "serve.decode", 0, 10_000_000);
        record_stage(
            &[TraceFrame { trace_id: root.trace_id, parent: outer }],
            "serve.evolve",
            0,
            4_000_000,
        );
        finish(h, 200);
        let doc = traces_json();
        let t = &doc.get("traces").and_then(Value::as_array).unwrap()[0];
        let stages = t.get("stages").and_then(Value::as_array).unwrap();
        let decode =
            stages.iter().find(|s| s.get("name").unwrap().as_str() == Some("serve.decode"));
        let d = decode.unwrap();
        assert_eq!(d.get("dur_ms").unwrap().as_f64(), Some(10.0));
        assert_eq!(d.get("exclusive_ms").unwrap().as_f64(), Some(6.0));
        reset();
    }

    #[test]
    fn no_live_trace_means_no_frames_and_no_cost_path() {
        let _guard = test_lock::lock();
        reset();
        assert!(span_enter().is_none());
        assert!(current_frames().is_empty());
        assert_eq!(record_stage(&[], "x", 0, 0), 0);
        let _noop = adopt(Vec::new());
    }
}
