#![warn(missing_docs)]

//! # retia-obs
//!
//! Observability substrate for the RETIA workspace (DESIGN.md §7). Three
//! cooperating facilities, all behind one global on/off switch so that an
//! un-observed process pays only an atomic load per instrumentation point:
//!
//! * **Tracing** ([`span!`], [`event!`], [`SpanGuard`]) — RAII spans with
//!   thread-aware nesting (each thread counts its own span depth, so spans
//!   opened inside `retia_tensor::parallel` workers compose correctly) and
//!   point events carrying numeric fields. Everything is dispatched to
//!   * a human-readable **stderr logger** filtered by the `RETIA_LOG`
//!     level (`off|error|warn|info|debug|trace`, default `info`), and
//!   * pluggable [`Sink`]s — notably [`JsonlSink`], which serializes every
//!     event as one JSON line via `retia-json` (the `--trace-out` file the
//!     CLI's `report` subcommand consumes), and [`CaptureSink`] for tests.
//! * **Metrics** ([`metrics::registry`]) — named counters, gauges and
//!   log-bucketed histograms, exportable as a JSON snapshot.
//! * **Health** ([`watchdog`]) — non-finite-value detection that fires a
//!   warning event the *first* step a tensor goes NaN/±inf, before the
//!   divergence poisons downstream ranking.
//!
//! One rule turns spans into a per-module table of *exclusive* times (child
//! spans subtracted): [`report::module_breakdown`] folds it over a trace
//! file, and a [`report::BreakdownSink`] feeds it live, so a command's
//! end-of-run table and `retia report` over its trace print the same rows.
//! Opt-in kernel timers ([`kernel_span`]) aggregate in-process apart from
//! it ([`kernel_timing_snapshot`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod drift;
mod event;
mod level;
pub mod metrics;
pub mod report;
pub mod slo;
mod span;
pub mod trace;
pub mod watchdog;

pub use event::{CaptureHandle, CaptureSink, Event, EventKind, JsonlSink, Sink};
pub use level::{log_level, set_log_level, Level};
pub use span::{
    current_module, kernel_span, kernel_timing_enabled, kernel_timing_snapshot, module_scope,
    set_kernel_timing, KernelGuard, ModuleTagGuard, SpanGuard,
};

// ---------------------------------------------------------------------------
// Global enable switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Master switch. When `false`, spans are inert, events are dropped, metrics
/// are no-ops and the watchdog skips its scans.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether observability is globally enabled (default: yes).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Clock and thread identity
// ---------------------------------------------------------------------------

fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's trace epoch (first use of this crate).
pub fn now_ns() -> u64 {
    trace_epoch().elapsed().as_nanos() as u64
}

/// A small dense id for the current OS thread (stable `ThreadId` has no
/// public integer view). Ids are assigned in first-use order per process.
pub fn current_thread() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Handle returned by [`add_sink`], used to remove the sink again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkId(u64);

struct SinkSlot {
    id: SinkId,
    sink: Box<dyn Sink>,
}

fn sinks() -> &'static Mutex<Vec<SinkSlot>> {
    static SINKS: OnceLock<Mutex<Vec<SinkSlot>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

static HAVE_SINKS: AtomicBool = AtomicBool::new(false);
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

/// Installs a sink; every subsequent event (any level) is delivered to it.
pub fn add_sink(sink: Box<dyn Sink>) -> SinkId {
    let id = SinkId(NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed));
    let mut guard = sinks().lock().unwrap_or_else(|e| e.into_inner());
    guard.push(SinkSlot { id, sink });
    HAVE_SINKS.store(true, Ordering::Relaxed);
    id
}

/// Removes (and drops, hence flushes) a sink installed by [`add_sink`].
pub fn remove_sink(id: SinkId) {
    let mut guard = sinks().lock().unwrap_or_else(|e| e.into_inner());
    guard.retain(|s| s.id != id);
    HAVE_SINKS.store(!guard.is_empty(), Ordering::Relaxed);
}

/// Flushes every installed sink (JSONL sinks buffer their writes).
pub fn flush_sinks() {
    let mut guard = sinks().lock().unwrap_or_else(|e| e.into_inner());
    for s in guard.iter_mut() {
        s.sink.flush();
    }
}

pub(crate) fn have_sinks() -> bool {
    HAVE_SINKS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Event dispatch
// ---------------------------------------------------------------------------

/// Dispatches an event: the stderr logger prints it when its level clears
/// `RETIA_LOG`; every installed sink receives it unconditionally (trace
/// files carry everything; filtering is the reader's job).
pub fn emit(ev: Event) {
    if !enabled() {
        return;
    }
    if ev.level <= log_level() {
        eprintln!("{}", ev.format_human());
    }
    if have_sinks() {
        let mut guard = sinks().lock().unwrap_or_else(|e| e.into_inner());
        for s in guard.iter_mut() {
            s.sink.record(&ev);
        }
    }
}

/// Convenience constructor + [`emit`] for a point event with numeric fields
/// and an optional message. Prefer the [`event!`] macro at call sites.
pub fn emit_event(level: Level, name: &str, fields: &[(&str, f64)], message: Option<&str>) {
    if !enabled() {
        return;
    }
    emit(Event {
        kind: EventKind::Point,
        level,
        name: name.to_string(),
        thread: current_thread(),
        depth: span::current_depth(),
        start_ns: now_ns(),
        dur_ns: None,
        fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        message: message.map(str::to_string),
        trace: None,
    });
}

/// Emits a point event: `event!(Level::Info, "train.epoch", epoch = 3, joint = 0.5)`.
/// An optional trailing `; "message"` attaches free text.
#[macro_export]
macro_rules! event {
    ($lvl:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::emit_event($lvl, $name, &[$((stringify!($k), $v as f64)),*], None)
    };
    ($lvl:expr, $name:expr $(, $k:ident = $v:expr)* ; $msg:expr) => {
        $crate::emit_event($lvl, $name, &[$((stringify!($k), $v as f64)),*], Some(&$msg))
    };
}

/// Opens an RAII timing span: `let _s = span!("eam.rgcn", step = t);`.
/// The span ends (and is recorded) when the guard drops — including during
/// a panic unwind. Dotted names form the module hierarchy the per-module
/// report groups by (`"eam.rgcn"` → module `eam`).
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::SpanGuard::enter($name, &[$((stringify!($k), $v as f64)),*])
    };
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Tests mutating process-global observability state (level, sinks,
    /// kernel timers, registry) serialize on this lock.
    pub fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ids_are_distinct_and_stable() {
        let here = current_thread();
        assert_eq!(here, current_thread());
        let other = std::thread::spawn(current_thread).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn disabled_drops_events() {
        let _guard = test_lock::lock();
        let (sink, handle) = CaptureSink::new();
        let id = add_sink(Box::new(sink));
        set_enabled(false);
        event!(Level::Error, "should.vanish", x = 1.0);
        set_enabled(true);
        event!(Level::Error, "should.arrive", x = 2.0);
        remove_sink(id);
        let events = handle.events();
        assert!(events.iter().all(|e| e.name != "should.vanish"));
        assert!(events.iter().any(|e| e.name == "should.arrive"));
    }

    #[test]
    fn sinks_receive_all_levels() {
        let _guard = test_lock::lock();
        let (sink, handle) = CaptureSink::new();
        let id = add_sink(Box::new(sink));
        // Trace-level events never reach stderr at the default level, but
        // sinks must still see them.
        event!(Level::Trace, "sink.sees.trace");
        remove_sink(id);
        assert!(handle.events().iter().any(|e| e.name == "sink.sees.trace"));
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
