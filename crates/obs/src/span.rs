//! RAII timing spans and per-kernel timers.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::report::{with_shares, ModuleShare};
use crate::{enabled, have_sinks, log_level, now_ns, Event, EventKind, Level};

/// Spans are live whenever a sink is installed or the stderr level is at
/// least `debug`; otherwise [`SpanGuard::enter`] is an atomic-load no-op.
fn spans_active() -> bool {
    enabled() && (have_sinks() || log_level() >= Level::Debug)
}

thread_local! {
    /// Live spans on this thread: the depth each new span and event
    /// carries. One counter per thread makes spans opened inside parallel
    /// workers roots of their own thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

pub(crate) fn current_depth() -> u32 {
    DEPTH.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Module tags
// ---------------------------------------------------------------------------

thread_local! {
    /// Stack of model-module tags (`eam.rgcn`, `decode.entity`, ...) pushed
    /// by layer forward passes via [`module_scope`]. Unlike spans, this is
    /// always on — it exists so low-level kernels can name the module that
    /// called them in diagnostics (e.g. gather bounds violations), and a
    /// `&'static str` push/pop costs nanoseconds.
    static MODULE_TAGS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard that pops the module tag pushed by [`module_scope`].
pub struct ModuleTagGuard(());

impl Drop for ModuleTagGuard {
    fn drop(&mut self) {
        MODULE_TAGS.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Tags the current thread as executing inside `name` until the returned
/// guard drops. Kernels read it back with [`current_module`] to attribute
/// index/bounds diagnostics to the layer that issued the op.
pub fn module_scope(name: &'static str) -> ModuleTagGuard {
    MODULE_TAGS.with(|s| s.borrow_mut().push(name));
    ModuleTagGuard(())
}

/// Innermost module tag on this thread, or `"<untagged>"` when no layer is
/// on the stack (direct kernel calls, tests).
pub fn current_module() -> &'static str {
    MODULE_TAGS.with(|s| s.borrow().last().copied().unwrap_or("<untagged>"))
}

// ---------------------------------------------------------------------------
// SpanGuard
// ---------------------------------------------------------------------------

struct ActiveSpan {
    name: String,
    fields: Vec<(String, f64)>,
    start: Instant,
    start_ns: u64,
    depth: u32,
    /// `(span_id, adopted frames)` when the thread is recording into live
    /// request traces (see [`crate::trace`]).
    trace: Option<(u64, Vec<crate::trace::TraceFrame>)>,
}

/// RAII guard for one timing span; created by the [`crate::span!`] macro.
/// Recording happens on drop, so a panicking region is still measured and
/// the thread's depth counter unwinds correctly.
#[must_use = "a span ends when its guard drops — bind it to a variable"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Opens a span (inert when tracing is inactive and no request trace is
    /// adopted on this thread).
    pub fn enter(name: &str, fields: &[(&str, f64)]) -> SpanGuard {
        let trace = crate::trace::span_enter();
        if !spans_active() && trace.is_none() {
            return SpanGuard { active: None };
        }
        let depth = DEPTH.with(|d| d.replace(d.get() + 1));
        SpanGuard {
            active: Some(ActiveSpan {
                name: name.to_string(),
                fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                start: Instant::now(),
                start_ns: now_ns(),
                depth,
                trace,
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else { return };
        let dur_ns = span.start.elapsed().as_nanos() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let mut trace_ctx = None;
        if let Some((span_id, frames)) = &span.trace {
            crate::trace::span_exit(frames, *span_id, &span.name, span.start_ns, dur_ns);
            trace_ctx = frames.first().map(|f| crate::trace::TraceCtx {
                trace_id: f.trace_id,
                span_id: *span_id,
                parent: f.parent,
            });
        }
        if have_sinks() || log_level() >= Level::Debug {
            crate::emit(Event {
                kind: EventKind::Span,
                level: Level::Debug,
                name: span.name,
                thread: crate::current_thread(),
                depth: span.depth,
                start_ns: span.start_ns,
                dur_ns: Some(dur_ns),
                fields: span.fields,
                message: None,
                trace: trace_ctx,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel timers
// ---------------------------------------------------------------------------

static KERNEL: AtomicBool = AtomicBool::new(false);

/// Enables per-kernel timing ([`kernel_span`] call sites inside
/// `retia-tensor`). Off by default: kernels run orders of magnitude more
/// often than module spans, so this is a separate, opt-in knob (the CLI
/// turns it on at `--log-level debug` and above).
pub fn set_kernel_timing(on: bool) {
    KERNEL.store(on, Ordering::Relaxed);
}

/// Whether kernel timers are live.
pub fn kernel_timing_enabled() -> bool {
    KERNEL.load(Ordering::Relaxed) && enabled()
}

/// Kernel name -> (calls, total nanoseconds).
fn kernel_aggregate() -> &'static Mutex<HashMap<&'static str, (u64, u64)>> {
    static AGG: OnceLock<Mutex<HashMap<&'static str, (u64, u64)>>> = OnceLock::new();
    AGG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// RAII timer for one tensor-kernel invocation. Aggregate-only: kernel
/// timings never produce per-call events (they would flood a trace), they
/// feed [`kernel_timing_snapshot`].
pub struct KernelGuard {
    name: &'static str,
    start: Instant,
}

/// Opens a kernel timer when kernel timing is enabled; `None` otherwise
/// (one atomic load on the fast path).
#[inline]
pub fn kernel_span(name: &'static str) -> Option<KernelGuard> {
    if !kernel_timing_enabled() {
        return None;
    }
    Some(KernelGuard { name, start: Instant::now() })
}

impl Drop for KernelGuard {
    fn drop(&mut self) {
        let dur = self.start.elapsed().as_nanos() as u64;
        let mut agg = kernel_aggregate().lock().unwrap_or_else(|e| e.into_inner());
        let (count, total_ns) = agg.entry(self.name).or_default();
        *count += 1;
        *total_ns += dur;
    }
}

/// Per-kernel wall clock as `kernel.<name>` rows, sorted by time
/// descending. Kernels are leaves, so each row's exclusive time is its
/// total, and shares are of the kernel rows' sum: kernel time is already
/// inside the span rows of the module breakdown, so the two never share a
/// denominator.
pub fn kernel_timing_snapshot() -> Vec<ModuleShare> {
    let agg = kernel_aggregate().lock().unwrap_or_else(|e| e.into_inner());
    with_shares(
        agg.iter()
            .map(|(name, &(count, total_ns))| ModuleShare {
                module: format!("kernel.{name}"),
                count,
                total_ns,
                exclusive_ns: total_ns,
                share_pct: 0.0,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{module_breakdown, BreakdownSink};
    use crate::{add_sink, remove_sink, test_lock, CaptureSink};

    fn find<'a>(rows: &'a [ModuleShare], name: &str) -> &'a ModuleShare {
        rows.iter().find(|m| m.module == name).unwrap_or_else(|| panic!("no row `{name}`"))
    }

    /// Runs `f` with a capture sink installed and returns what it saw.
    fn captured(f: impl FnOnce()) -> Vec<Event> {
        let (sink, handle) = CaptureSink::new();
        let id = add_sink(Box::new(sink));
        f();
        remove_sink(id);
        handle.events()
    }

    #[test]
    fn inert_spans_record_nothing() {
        let _guard = test_lock::lock();
        // Opened with no sink installed (and stderr below debug): inert,
        // so even a sink installed before it drops sees nothing.
        let span = crate::span!("inert.nothing");
        let events = captured(|| drop(span));
        assert!(events.iter().all(|m| m.name != "inert.nothing"));
    }

    #[test]
    fn spans_survive_panics() {
        let _guard = test_lock::lock();
        let events = captured(|| {
            let r = std::panic::catch_unwind(|| {
                let _s = crate::span!("panicky.region");
                panic!("boom");
            });
            assert!(r.is_err());
        });
        assert_eq!(events.iter().filter(|e| e.name == "panicky.region").count(), 1);
        assert_eq!(current_depth(), 0, "stack unwound cleanly");
    }

    #[test]
    fn spans_on_worker_threads_are_independent() {
        let _guard = test_lock::lock();
        let events = captured(|| {
            let _outer = crate::span!("main.outer");
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let _w = crate::span!("worker.span");
                    });
                }
            });
        });
        let rows = module_breakdown(&events);
        let w = find(&rows, "worker");
        assert_eq!(w.count, 4);
        // Worker spans are roots of their own thread's stack, so they do not
        // subtract from the main thread's span.
        assert_eq!(w.exclusive_ns, w.total_ns);
    }

    #[test]
    fn kernel_timer_is_optin_and_aggregates() {
        let _guard = test_lock::lock();
        set_kernel_timing(false);
        assert!(kernel_span("matmul").is_none());
        set_kernel_timing(true);
        for _ in 0..3 {
            let _k = kernel_span("matmul");
        }
        set_kernel_timing(false);
        let rows = kernel_timing_snapshot();
        assert_eq!(find(&rows, "kernel.matmul").count, 3);
    }

    #[test]
    fn kernel_rows_stay_apart_from_module_shares() {
        let _guard = test_lock::lock();
        let live = BreakdownSink::default();
        let id = add_sink(Box::new(live.clone()));
        set_kernel_timing(true);
        {
            let _outer = crate::span!("outer.total");
            {
                let _k = kernel_span("apart");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _inner = crate::span!("inner.child", step = 1);
                let _k = kernel_span("apart");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_kernel_timing(false);
        remove_sink(id);

        // The module rows are the spans' alone, and their shares sum to 100%.
        let rows = live.rows();
        let names: Vec<&str> = rows.iter().map(|r| r.module.as_str()).collect();
        assert_eq!(names.len(), 2, "{names:?}");
        let outer = find(&rows, "outer");
        let inner = find(&rows, "inner");
        assert!(outer.total_ns >= inner.total_ns + 1_000_000, "outer contains inner");
        assert!(outer.exclusive_ns <= outer.total_ns - inner.total_ns, "{outer:?} vs {inner:?}");
        assert_eq!(inner.exclusive_ns, inner.total_ns, "leaf span is all exclusive");
        let shares: f64 = rows.iter().map(|r| r.share_pct).sum();
        assert!((shares - 100.0).abs() < 1e-9, "module shares sum to {shares}");

        // Kernel rows come back apart, with shares of their own.
        let kernels = kernel_timing_snapshot();
        assert_eq!(find(&kernels, "kernel.apart").count, 2);
        let shares: f64 = kernels.iter().map(|r| r.share_pct).sum();
        assert!((shares - 100.0).abs() < 1e-9, "kernel shares sum to {shares}");
    }
}
