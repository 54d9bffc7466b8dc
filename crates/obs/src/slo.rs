//! Service-level-objective tracking: windowed compliance and multi-window
//! burn rates computed from registry histograms.
//!
//! An [`SloSpec`] declares "`objective` of the observations in `metric` must
//! be at or below `threshold_ms`, over a rolling `window_s`-second window".
//! [`tick`] (called opportunistically from the serving hot path, internally
//! rate-limited) samples the cumulative `(total, good)` pair from the
//! histogram via [`crate::metrics::Registry::histogram_count_below`] into a
//! pruned ring; [`report`] turns the ring into windowed compliance and burn
//! rates and exports them as `slo.*` gauges so they ride along in both the
//! JSON and Prometheus `/metrics` views.
//!
//! *Burn rate* is the classic SRE quantity: the fraction of events that blew
//! the threshold, divided by the error budget `1 - objective`. A burn of 1.0
//! consumes the budget exactly as fast as the window allows; above 1.0 the
//! SLO is burning. Two windows are reported — the full window and a short
//! window (1/12th, the usual fast-burn pairing) — so a sudden regression
//! shows up long before the long window drains.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// One service-level objective over a registry histogram.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Short name used in gauge keys (`slo.<name>.burn_long`, ...).
    pub name: String,
    /// Histogram the objective reads (e.g. `serve.request_ms.query`).
    pub metric: String,
    /// Required fraction of good events, e.g. `0.99`.
    pub objective: f64,
    /// Latency threshold in the histogram's unit (milliseconds for the
    /// serve histograms).
    pub threshold_ms: f64,
    /// Rolling window length in seconds.
    pub window_s: f64,
}

/// Computed state of one objective.
#[derive(Clone, Debug)]
pub struct SloStatus {
    /// The spec's name.
    pub name: String,
    /// The spec's objective.
    pub objective: f64,
    /// The spec's threshold.
    pub threshold_ms: f64,
    /// Events observed inside the long window.
    pub total: u64,
    /// Fraction of those at or below the threshold (1.0 when idle).
    pub compliance: f64,
    /// Error-budget burn rate over the long window.
    pub burn_long: f64,
    /// Burn rate over the short (1/12) window.
    pub burn_short: f64,
    /// Whether both windows are burning (> 1.0) — the paging condition.
    pub burning: bool,
}

struct Tracker {
    spec: SloSpec,
    /// `(t_ns, cumulative total, cumulative good)` samples, oldest first.
    samples: VecDeque<(u64, u64, f64)>,
}

fn trackers() -> &'static Mutex<Vec<Tracker>> {
    static T: OnceLock<Mutex<Vec<Tracker>>> = OnceLock::new();
    T.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_trackers() -> std::sync::MutexGuard<'static, Vec<Tracker>> {
    trackers().lock().unwrap_or_else(|e| e.into_inner())
}

static LAST_TICK_NS: AtomicU64 = AtomicU64::new(0);

/// Minimum spacing between effective [`tick`]s.
const TICK_INTERVAL_NS: u64 = 250_000_000;

/// Installs the objectives to track (replacing any previous set).
pub fn configure(specs: Vec<SloSpec>) {
    let mut t = lock_trackers();
    *t = specs.into_iter().map(|spec| Tracker { spec, samples: VecDeque::new() }).collect();
    LAST_TICK_NS.store(0, Ordering::Relaxed);
}

/// Whether any objective is configured.
pub fn active() -> bool {
    !lock_trackers().is_empty()
}

/// Clears all objectives and samples (tests).
pub fn reset() {
    configure(Vec::new());
}

/// Opportunistic sampling hook for hot paths: a no-op unless objectives are
/// configured and at least `TICK_INTERVAL_NS` has passed since the last
/// effective tick (one atomic load on the fast path).
pub fn tick() {
    if !crate::enabled() {
        return;
    }
    let now = crate::now_ns();
    let last = LAST_TICK_NS.load(Ordering::Relaxed);
    if now.saturating_sub(last) < TICK_INTERVAL_NS {
        return;
    }
    if LAST_TICK_NS.compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed).is_err() {
        return;
    }
    sample_now(now);
}

/// Samples immediately, bypassing the rate limit (shutdown paths, tests).
pub fn force_tick() {
    if crate::enabled() {
        sample_now(crate::now_ns());
    }
}

fn sample_now(now_ns: u64) {
    let mut t = lock_trackers();
    if t.is_empty() {
        return;
    }
    for tr in t.iter_mut() {
        let (total, good) = crate::metrics::registry()
            .histogram_count_below(&tr.spec.metric, tr.spec.threshold_ms)
            .unwrap_or((0, 0.0));
        tr.samples.push_back((now_ns, total, good));
        // Keep one sample beyond the window so early deltas still have a
        // baseline.
        let window_ns = (tr.spec.window_s.max(1.0) * 1e9) as u64;
        let horizon = now_ns.saturating_sub(window_ns + window_ns / 4);
        while tr.samples.len() > 2 && tr.samples[1].0 < horizon {
            tr.samples.pop_front();
        }
    }
    let statuses: Vec<SloStatus> = t.iter().map(|tr| status_of(tr, now_ns)).collect();
    drop(t);
    for s in &statuses {
        let reg = crate::metrics::registry();
        reg.set_gauge(&format!("slo.{}.objective", s.name), s.objective);
        reg.set_gauge(&format!("slo.{}.compliance", s.name), s.compliance);
        reg.set_gauge(&format!("slo.{}.burn_long", s.name), s.burn_long);
        reg.set_gauge(&format!("slo.{}.burn_short", s.name), s.burn_short);
        reg.set_gauge(&format!("slo.{}.burning", s.name), if s.burning { 1.0 } else { 0.0 });
    }
}

/// `(events, bad fraction)` between the newest sample and the oldest sample
/// inside `window_ns`.
fn window_delta(samples: &VecDeque<(u64, u64, f64)>, now_ns: u64, window_ns: u64) -> (u64, f64) {
    let Some(&(_, new_total, new_good)) = samples.back() else { return (0, 0.0) };
    let floor = now_ns.saturating_sub(window_ns);
    // Baseline: the newest sample at or before the window floor. When every
    // sample is inside the window (tracker younger than the window), the
    // baseline is zero — everything observed so far counts.
    let base = samples.iter().rev().find(|(t, _, _)| *t <= floor).copied();
    let (_, old_total, old_good) = base.unwrap_or((0, 0, 0.0));
    let total = new_total.saturating_sub(old_total);
    if total == 0 {
        return (0, 0.0);
    }
    let good = (new_good - old_good).clamp(0.0, total as f64);
    (total, 1.0 - good / total as f64)
}

fn status_of(tr: &Tracker, now_ns: u64) -> SloStatus {
    let window_ns = (tr.spec.window_s.max(1.0) * 1e9) as u64;
    let short_ns = (window_ns / 12).max(1_000_000_000);
    let budget = (1.0 - tr.spec.objective).max(1e-9);
    let (total, bad_long) = window_delta(&tr.samples, now_ns, window_ns);
    let (_, bad_short) = window_delta(&tr.samples, now_ns, short_ns);
    let burn_long = bad_long / budget;
    let burn_short = bad_short / budget;
    SloStatus {
        name: tr.spec.name.clone(),
        objective: tr.spec.objective,
        threshold_ms: tr.spec.threshold_ms,
        total,
        compliance: 1.0 - bad_long,
        burn_long,
        burn_short,
        burning: burn_long > 1.0 && burn_short > 1.0,
    }
}

/// Current status of every configured objective.
pub fn report() -> Vec<SloStatus> {
    let now = crate::now_ns();
    lock_trackers().iter().map(|tr| status_of(tr, now)).collect()
}

/// Compliance/burn for a batch of latencies measured client-side (the
/// loadtest gate): no windowing — the run itself is the window.
pub fn burn_of_samples(latencies_ms: &[f64], objective: f64, threshold_ms: f64) -> (f64, f64) {
    if latencies_ms.is_empty() {
        return (1.0, 0.0);
    }
    let good = latencies_ms.iter().filter(|v| **v <= threshold_ms).count() as f64;
    let compliance = good / latencies_ms.len() as f64;
    let budget = (1.0 - objective).max(1e-9);
    (compliance, (1.0 - compliance) / budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn spec(window_s: f64) -> SloSpec {
        SloSpec {
            name: "query".to_string(),
            metric: "test.slo.request_ms".to_string(),
            objective: 0.9,
            threshold_ms: 100.0,
            window_s,
        }
    }

    #[test]
    fn compliant_traffic_does_not_burn() {
        let _guard = test_lock::lock();
        crate::metrics::registry().reset();
        reset();
        configure(vec![spec(60.0)]);
        for _ in 0..100 {
            crate::metrics::observe("test.slo.request_ms", 10.0);
        }
        force_tick();
        let r = report();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].total, 100);
        assert!(r[0].compliance > 0.99, "{:?}", r[0]);
        assert!(!r[0].burning);
        assert_eq!(crate::metrics::registry().gauge("slo.query.burning"), Some(0.0));
        reset();
        crate::metrics::registry().reset();
    }

    #[test]
    fn threshold_violations_burn_both_windows() {
        let _guard = test_lock::lock();
        crate::metrics::registry().reset();
        reset();
        configure(vec![spec(60.0)]);
        // 50% of requests over threshold against a 10% error budget → burn 5.
        for i in 0..100 {
            crate::metrics::observe("test.slo.request_ms", if i % 2 == 0 { 10.0 } else { 500.0 });
        }
        force_tick();
        let r = report();
        assert!(r[0].burn_long > 2.0, "{:?}", r[0]);
        assert!(r[0].burn_short > 2.0, "{:?}", r[0]);
        assert!(r[0].burning, "{:?}", r[0]);
        let burn = crate::metrics::registry().gauge("slo.query.burn_long").unwrap();
        assert!(burn > 2.0, "{burn}");
        reset();
        crate::metrics::registry().reset();
    }

    #[test]
    fn idle_objective_reports_full_compliance() {
        let _guard = test_lock::lock();
        crate::metrics::registry().reset();
        reset();
        configure(vec![spec(60.0)]);
        force_tick();
        let r = report();
        assert_eq!(r[0].total, 0);
        assert_eq!(r[0].compliance, 1.0);
        assert!(!r[0].burning);
        reset();
        crate::metrics::registry().reset();
    }

    #[test]
    fn client_side_burn_matches_expectation() {
        let lat: Vec<f64> = (0..100).map(|i| if i < 80 { 10.0 } else { 500.0 }).collect();
        let (compliance, burn) = burn_of_samples(&lat, 0.9, 100.0);
        assert!((compliance - 0.8).abs() < 1e-9);
        assert!((burn - 2.0).abs() < 1e-9, "{burn}");
        let (c_empty, b_empty) = burn_of_samples(&[], 0.99, 1.0);
        assert_eq!((c_empty, b_empty), (1.0, 0.0));
    }
}
