//! Self-healing online learning: the continual-trainer supervisor and the
//! drift monitor with rollback. Ingest durability is the store's: the
//! engine appends every accepted batch through `retia_store::Appender`.
//!
//! The supervisor runs on its own thread, completely isolated from the
//! serving path: it polls the engine for the current history window, runs a
//! few fault-tolerant gradient steps on a private [`Trainer`], and — only
//! when the candidate passes the value audit *and* the drift gate — offers
//! the engine an atomic model swap. Every failure mode folds into the
//! degradation ladder instead of an outage:
//!
//! * **divergence / trainer panic** → parameters restored from the
//!   last-good snapshot, serving marked `degraded`, retry with exponential
//!   backoff (queries keep answering from the last-good model throughout);
//! * **drift** (candidate loss/MRR regressing against the pinned boot
//!   baseline for `drift_window` consecutive rounds) → the served model is
//!   rolled back to the last-good swap and the trainer restarts from it,
//!   with a `recovery.rollback` event and `drift.rollbacks` counter;
//! * **staleness** (served weights lagging the ingest stream beyond
//!   `max_staleness` epochs) → surfaced through `/healthz` and metrics,
//!   never an error path.
//!
//! Chaos hooks: the trainer inherits the process's `RETIA_CHAOS` gradient
//! faults, and `trainer-panic@R` clauses kill training round `R` outright
//! to prove the isolation boundary holds.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use retia::{
    entity_queries, FrozenModel, FrozenStates, RecoveryPolicy, Retia, TrainError, Trainer,
};
use retia_analyze::ChaosPlan;
use retia_eval::rank_of;
use retia_graph::Snapshot;

use crate::engine::{EngineError, EngineHandle, SwapRequest, WindowView};
use crate::stages;

/// Continual-training knobs, surfaced as `retia serve --online` flags.
#[derive(Clone, Debug)]
pub struct OnlineOptions {
    /// Gradient steps per training round (one round per ingest epoch).
    pub steps: usize,
    /// Poll interval between window checks when idle.
    pub interval: Duration,
    /// Ingest epochs the served model may lag before `/healthz` degrades.
    pub max_staleness: u64,
    /// Allowed relative regression of the candidate against the pinned
    /// baseline (e.g. `0.5` = candidate loss may be up to 50% worse).
    /// Negative values reject every candidate — the deterministic rollback
    /// switch the chaos tests use.
    pub drift_threshold: f64,
    /// Consecutive breaching rounds before the drift monitor rolls back.
    pub drift_window: u64,
    /// Deterministic fault plan for the trainer (gradient faults and
    /// `trainer-panic` rounds).
    pub chaos: ChaosPlan,
}

impl Default for OnlineOptions {
    fn default() -> OnlineOptions {
        OnlineOptions {
            steps: 4,
            interval: Duration::from_millis(200),
            max_staleness: 8,
            drift_threshold: 0.5,
            drift_window: 3,
            chaos: ChaosPlan::none(),
        }
    }
}

/// Trainer activity, encoded as an atomic for lock-free `/healthz` reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainerState {
    /// Waiting for a new ingest epoch.
    Idle,
    /// A training round is running.
    Training,
    /// The last round failed; retrying after an exponential backoff.
    Backoff,
    /// Online learning is off (`--online` not passed).
    Disabled,
}

impl TrainerState {
    fn from_u8(v: u8) -> TrainerState {
        match v {
            0 => TrainerState::Idle,
            1 => TrainerState::Training,
            2 => TrainerState::Backoff,
            _ => TrainerState::Disabled,
        }
    }

    /// The `/healthz` wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            TrainerState::Idle => "idle",
            TrainerState::Training => "training",
            TrainerState::Backoff => "backoff",
            TrainerState::Disabled => "disabled",
        }
    }
}

/// Drift monitor readout: candidate-vs-baseline forecasting quality on the
/// newest window, served at `GET /v1/drift`.
#[derive(Clone, Debug, Default)]
pub struct DriftReport {
    /// Ingest epoch of the last evaluated window (0 = none yet).
    pub window_epoch: u64,
    /// Joint forecasting loss of the newest candidate on that window.
    pub candidate_loss: f64,
    /// Joint forecasting loss of the pinned boot baseline on that window.
    pub baseline_loss: f64,
    /// Entity MRR of the candidate on that window.
    pub candidate_mrr: f64,
    /// Entity MRR of the baseline on that window.
    pub baseline_mrr: f64,
    /// Consecutive rounds the candidate has breached the drift threshold.
    pub breach_streak: u64,
    /// Drift rollbacks performed since boot.
    pub rollbacks: u64,
    /// Training rounds evaluated since boot.
    pub evaluations: u64,
    /// Model swaps published since boot.
    pub swaps: u64,
}

/// Shared view of the online trainer for `/healthz` and `/v1/drift`.
/// Everything here is readable without touching the engine queue.
pub struct OnlineStatus {
    enabled: bool,
    max_staleness: u64,
    state: AtomicU8,
    degraded: AtomicBool,
    stop: AtomicBool,
    drift: Mutex<DriftReport>,
}

impl OnlineStatus {
    /// Placeholder status for a server running without `--online`.
    pub fn disabled() -> Arc<OnlineStatus> {
        Arc::new(OnlineStatus {
            enabled: false,
            max_staleness: u64::MAX,
            state: AtomicU8::new(TrainerState::Disabled as u8),
            degraded: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            drift: Mutex::new(DriftReport::default()),
        })
    }

    fn enabled(max_staleness: u64) -> Arc<OnlineStatus> {
        Arc::new(OnlineStatus {
            enabled: true,
            max_staleness,
            state: AtomicU8::new(TrainerState::Idle as u8),
            degraded: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            drift: Mutex::new(DriftReport::default()),
        })
    }

    /// Whether online learning is running.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The staleness budget `/healthz` degrades at (`u64::MAX` = unbounded).
    pub fn max_staleness(&self) -> u64 {
        self.max_staleness
    }

    /// Current trainer activity.
    pub fn trainer_state(&self) -> TrainerState {
        TrainerState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// True while the trainer is in a failure window (divergence, panic or
    /// sustained drift) and serving runs from the last-good model.
    pub fn trainer_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// A copy of the latest drift readout.
    pub fn drift(&self) -> DriftReport {
        self.drift.lock().expect("drift report poisoned").clone()
    }

    fn set_state(&self, s: TrainerState) {
        self.state.store(s as u8, Ordering::Release);
    }
}

/// The running supervisor: join handle plus the shared status.
pub(crate) struct OnlineTrainer {
    thread: Option<JoinHandle<()>>,
    status: Arc<OnlineStatus>,
}

impl OnlineTrainer {
    /// Spawns the supervisor thread. `baseline` is the pinned drift
    /// reference (the audited boot model); the trainer starts from a fresh
    /// copy of its parameters (Adam moments start at zero).
    pub(crate) fn spawn(
        engine: EngineHandle,
        baseline: FrozenModel,
        opts: OnlineOptions,
    ) -> std::io::Result<OnlineTrainer> {
        let status = OnlineStatus::enabled(opts.max_staleness);
        let shared = Arc::clone(&status);
        let thread = std::thread::Builder::new()
            .name("retia-serve-trainer".to_string())
            .spawn(move || supervise(engine, baseline, opts, &shared))?;
        Ok(OnlineTrainer { thread: Some(thread), status })
    }

    pub(crate) fn status(&self) -> Arc<OnlineStatus> {
        Arc::clone(&self.status)
    }

    /// Signals the supervisor to exit and joins it.
    pub(crate) fn stop(&mut self) {
        self.status.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            // The supervisor catches training panics itself; a panic here
            // means the isolation boundary is already broken, so surface it.
            t.join().expect("online trainer thread panicked");
        }
    }
}

/// Sleeps up to `d`, waking early when a stop is requested. Returns false
/// once the supervisor should exit.
fn interruptible_sleep(status: &OnlineStatus, d: Duration) -> bool {
    let step = Duration::from_millis(20);
    let mut left = d;
    while !left.is_zero() {
        if status.stop.load(Ordering::Acquire) {
            return false;
        }
        let chunk = left.min(step);
        std::thread::sleep(chunk);
        left = left.saturating_sub(chunk);
    }
    !status.stop.load(Ordering::Acquire)
}

/// The supervisor loop: poll → train → audit → drift-gate → swap, with
/// every failure folded into backoff + restore instead of propagation.
fn supervise(
    engine: EngineHandle,
    baseline: FrozenModel,
    opts: OnlineOptions,
    status: &OnlineStatus,
) {
    let cfg = baseline.cfg.clone();
    let mut trainer = Trainer::new(baseline.values_copy(), cfg.clone());
    trainer.set_recovery(Some(RecoveryPolicy::default()));
    trainer.set_chaos(opts.chaos.clone());

    // Last-good parameter values: what both the served model and a restored
    // trainer fall back to. Starts as the boot model.
    let mut good_params = trainer.model.store().values_only();
    let mut good_trained_epoch = 0u64;
    let mut last_trained_epoch = 0u64;
    let mut round = 0u64;
    let mut failures = 0u32;

    loop {
        let backoff_pow = failures.min(6);
        let wait = opts.interval * 2u32.saturating_pow(backoff_pow);
        if !interruptible_sleep(status, wait) {
            break;
        }
        let view = match engine.window() {
            Ok(v) => v,
            Err(EngineError::Stopped) => break,
            Err(_) => continue,
        };
        if view.epoch == last_trained_epoch || view.snaps.len() < 2 {
            if failures == 0 {
                status.set_state(TrainerState::Idle);
            }
            continue;
        }

        status.set_state(TrainerState::Training);
        let this_round = round;
        round += 1;
        let outcome = train_round(&mut trainer, &view, &opts, this_round);
        match outcome {
            Ok(mean_loss) => {
                retia_obs::metrics::set_gauge("online.train_loss", mean_loss);
                match publish(
                    &engine,
                    &trainer,
                    &baseline,
                    &view,
                    &opts,
                    status,
                    &mut good_params,
                    &mut good_trained_epoch,
                ) {
                    Publish::Swapped | Publish::Held => {
                        last_trained_epoch = view.epoch;
                        failures = 0;
                        status.degraded.store(false, Ordering::Release);
                        status.set_state(TrainerState::Idle);
                    }
                    Publish::RolledBack => {
                        // Drift rollback: the trainer restarts from the
                        // last-good params; the window that produced the
                        // drifted candidate is considered handled.
                        trainer.model.store_mut().copy_values_from(&good_params);
                        trainer.set_lr(cfg.lr);
                        trainer.set_recovery(Some(RecoveryPolicy::default()));
                        last_trained_epoch = view.epoch;
                        failures = 0;
                        status.degraded.store(true, Ordering::Release);
                        status.set_state(TrainerState::Backoff);
                    }
                    Publish::EngineGone => break,
                }
            }
            Err(reason) => {
                // Fault isolation: restore the trainer to the last-good
                // snapshot and retry the same epoch after a backoff while
                // serving keeps answering from the last-good model.
                failures += 1;
                status.degraded.store(true, Ordering::Release);
                status.set_state(TrainerState::Backoff);
                trainer.model.store_mut().copy_values_from(&good_params);
                trainer.set_lr(cfg.lr);
                trainer.set_recovery(Some(RecoveryPolicy::default()));
                retia_obs::metrics::inc("online.train_failures");
                retia_obs::event!(
                    retia_obs::Level::Warn,
                    "online.train_failed",
                    round = this_round,
                    failures = failures;
                    format!(
                        "continual training round {this_round} failed ({reason}); serving \
                         degraded on last-good model, retrying with backoff"
                    )
                );
            }
        }
    }
    status.set_state(if status.enabled { TrainerState::Idle } else { TrainerState::Disabled });
}

/// One isolated training round: the chaos `trainer-panic` hook plus
/// `fit_window`, with panics contained to this call.
fn train_round(
    trainer: &mut Trainer,
    view: &WindowView,
    opts: &OnlineOptions,
    round: u64,
) -> Result<f64, String> {
    let _t = retia_obs::span!(stages::TRAIN, round = round, epoch = view.epoch);
    let chaos = opts.chaos.clone();
    let steps = opts.steps;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if chaos.trainer_panic(round) {
            std::panic::panic_any(format!("chaos: trainer-panic round {round}"));
        }
        trainer.fit_window(&view.snaps, &view.hypers, steps)
    }));
    match result {
        Ok(Ok(loss)) => Ok(loss.joint),
        Ok(Err(TrainError::Diverged(report))) => Err(format!("diverged: {report}")),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(match panic.downcast_ref::<String>() {
            Some(msg) => format!("panicked: {msg}"),
            None => "panicked".to_string(),
        }),
    }
}

enum Publish {
    /// Candidate passed every gate and is now serving.
    Swapped,
    /// Candidate breached the drift threshold (streak below the rollback
    /// window) or failed the audit; the last-good model keeps serving.
    Held,
    /// Sustained drift: the engine was rolled back to the last-good model.
    RolledBack,
    /// The engine stopped mid-publish.
    EngineGone,
}

/// Audit gate → drift gate → atomic swap, updating the shared drift report.
#[allow(clippy::too_many_arguments)]
fn publish(
    engine: &EngineHandle,
    trainer: &Trainer,
    baseline: &FrozenModel,
    view: &WindowView,
    opts: &OnlineOptions,
    status: &OnlineStatus,
    good_params: &mut retia_tensor::ParamStore,
    good_trained_epoch: &mut u64,
) -> Publish {
    let candidate = FrozenModel::new(trainer.model.values_copy());

    // Pre-swap audit gate (PR-8): the engine must never install a model the
    // value audit cannot prove NaN-free and tape-free.
    let audit = candidate.audit();
    if !audit.is_clean() {
        retia_obs::metrics::inc("online.audit_rejected");
        retia_obs::event!(
            retia_obs::Level::Warn,
            "online.audit_rejected";
            format!("candidate model failed the value audit; holding last-good:\n{audit}")
        );
        return Publish::Held;
    }

    // Drift gate: score candidate and pinned baseline on the newest window,
    // each from one evolve of its history.
    let _t = retia_obs::span!(stages::DRIFT, epoch = view.epoch);
    let (history, target) = view.snaps.split_at(view.snaps.len() - 1);
    let hyper_history = &view.hypers[..history.len()];
    let target = &target[0];
    let cand_states = candidate.evolve_window(history, hyper_history);
    let base_states = baseline.evolve_window(history, hyper_history);
    let cand_loss = candidate.window_loss(&cand_states, target);
    let base_loss = baseline.window_loss(&base_states, target);
    let cand_mrr = window_mrr(&candidate, &cand_states, target);
    let base_mrr = window_mrr(baseline, &base_states, target);
    let loss_breach =
        !cand_loss.is_finite() || cand_loss > base_loss * (1.0 + opts.drift_threshold).max(0.0);
    let mrr_breach = cand_mrr < base_mrr * (1.0 - opts.drift_threshold).min(1.0);
    let breached = loss_breach || mrr_breach;

    let (streak, rollbacks) = {
        let mut drift = status.drift.lock().expect("drift report poisoned");
        drift.window_epoch = view.epoch;
        drift.candidate_loss = cand_loss;
        drift.baseline_loss = base_loss;
        drift.candidate_mrr = cand_mrr;
        drift.baseline_mrr = base_mrr;
        drift.evaluations += 1;
        drift.breach_streak = if breached { drift.breach_streak + 1 } else { 0 };
        (drift.breach_streak, drift.rollbacks)
    };
    retia_obs::drift::record(cand_loss, base_loss, cand_mrr, base_mrr, streak);

    if breached && streak >= opts.drift_window.max(1) {
        // Sustained regression: roll the served model back to the
        // last-good swap and zero the streak.
        let rolled = engine.swap(SwapRequest {
            model: rollback_model(baseline, good_params),
            trained_epoch: *good_trained_epoch,
            states: None,
        });
        if matches!(rolled, Err(EngineError::Stopped)) {
            return Publish::EngineGone;
        }
        {
            let mut drift = status.drift.lock().expect("drift report poisoned");
            drift.breach_streak = 0;
            drift.rollbacks += 1;
        }
        retia_obs::drift::rollback(view.epoch, rollbacks + 1);
        return Publish::RolledBack;
    }
    if breached {
        retia_obs::metrics::inc("online.drift_held");
        return Publish::Held;
    }

    // Healthy candidate: pre-evolve its states off the engine thread so the
    // swap installs them without paying the recurrence under the queue.
    let states = candidate.evolve_window(&view.snaps, &view.hypers);
    let next_good = trainer.model.store().values_only();
    match engine.swap(SwapRequest {
        model: candidate,
        trained_epoch: view.epoch,
        states: Some(states),
    }) {
        Ok(resp) => {
            *good_params = next_good;
            *good_trained_epoch = view.epoch;
            let mut drift = status.drift.lock().expect("drift report poisoned");
            drift.swaps += 1;
            retia_obs::metrics::set_gauge("online.model_epoch", resp.model_epoch as f64);
            retia_obs::event!(
                retia_obs::Level::Info,
                "online.swap",
                model_epoch = resp.model_epoch,
                trained_epoch = view.epoch;
                format!(
                    "published model epoch {} (trained through ingest epoch {}, states {})",
                    resp.model_epoch,
                    view.epoch,
                    if resp.states_reused { "reused" } else { "re-evolved" }
                )
            );
            Publish::Swapped
        }
        Err(EngineError::Stopped) => Publish::EngineGone,
        Err(e) => {
            retia_obs::metrics::inc("online.swap_rejected");
            retia_obs::event!(
                retia_obs::Level::Warn,
                "online.swap_rejected";
                format!("engine rejected the model swap: {e}")
            );
            Publish::Held
        }
    }
}

/// The last-good model rebuilt from its parameter snapshot.
fn rollback_model(baseline: &FrozenModel, good_params: &retia_tensor::ParamStore) -> FrozenModel {
    let mut model = baseline.values_copy();
    model.store_mut().copy_values_from(good_params);
    FrozenModel::new(model)
}

/// Entity MRR of `model` forecasting `target` from its evolved history
/// `states` (capped at `MRR_QUERY_CAP` queries to bound the drift monitor's
/// cost).
fn window_mrr(model: &Retia, states: &FrozenStates, target: &Snapshot) -> f64 {
    const MRR_QUERY_CAP: usize = 256;
    let (mut subjects, mut rels, mut targets) = entity_queries(target, model.num_relations());
    subjects.truncate(MRR_QUERY_CAP);
    rels.truncate(MRR_QUERY_CAP);
    targets.truncate(MRR_QUERY_CAP);
    if targets.is_empty() {
        return 0.0;
    }
    let probs = model.decode_entity(states, subjects, rels);
    let mut rr = 0.0;
    for (i, t) in targets.iter().enumerate() {
        rr += 1.0 / rank_of(probs.row(i), *t as usize);
    }
    rr / targets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trainer_state_wire_names() {
        assert_eq!(TrainerState::Idle.as_str(), "idle");
        assert_eq!(TrainerState::Training.as_str(), "training");
        assert_eq!(TrainerState::Backoff.as_str(), "backoff");
        assert_eq!(TrainerState::Disabled.as_str(), "disabled");
        let s = OnlineStatus::disabled();
        assert!(!s.is_enabled());
        assert_eq!(s.trainer_state(), TrainerState::Disabled);
    }
}
