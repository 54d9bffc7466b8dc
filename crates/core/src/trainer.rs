//! Training loops: general training with early stopping, and the online
//! continual training the paper uses at evaluation time (the
//! time-variability strategy, §III-F).
//!
//! A [`Trainer`] is the [`Forecaster`] of its model: `begin_snapshot`
//! evolves the scored snapshot's window once, both score methods decode
//! against it, and `end_snapshot` drops it before any online step.
//!
//! Training here is fault-tolerant. A [`RecoveryPolicy`] turns the obs NaN
//! watchdog from warn-only into a state machine: non-finite losses or
//! gradients **skip** the optimizer step; a streak of skips **rolls back**
//! to the last-good in-memory snapshot with learning-rate backoff; an
//! exhausted retry budget **aborts** with a [`DivergenceReport`] instead of
//! training on garbage. A [`crate::CheckpointPolicy`] additionally persists
//! full train state ([`crate::checkpoint`]) so a killed process resumes
//! bit-identically. Faults can be injected on purpose via
//! [`retia_analyze::ChaosPlan`] to prove all of this works.

use retia_analyze::ChaosPlan;
use retia_graph::{HyperSnapshot, Snapshot};
use retia_tensor::optim::{clip_grad_norm, Adam};
use retia_tensor::{Graph, ParamStore, Tensor};

use crate::checkpoint::CheckpointPolicy;
use crate::config::RetiaConfig;
use crate::context::{Split, TkgContext};
use crate::frozen::FrozenStates;
use crate::model::{last_k, Retia};
use crate::protocol::{EvalReport, Forecaster};

/// Per-epoch mean losses (the series plotted in Figures 3 and 4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochLoss {
    /// Mean entity-forecasting loss `L_e`.
    pub entity: f64,
    /// Mean relation-forecasting loss `L_r`.
    pub relation: f64,
    /// Mean joint loss `λL_e + (1-λ)L_r`.
    pub joint: f64,
}

/// How the trainer reacts to non-finite losses/gradients. Without a policy
/// (the default) the watchdog only warns and training proceeds as the
/// reference implementation would — NaNs and all.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Consecutive bad (skipped) steps tolerated before rolling back.
    pub max_bad_steps: u64,
    /// Rollbacks allowed before the run aborts with [`TrainError::Diverged`].
    pub max_rollbacks: u64,
    /// Learning-rate multiplier applied at each rollback (0 < backoff < 1).
    pub lr_backoff: f32,
    /// Applied (non-skipped) steps between refreshes of the last-good
    /// in-memory snapshot.
    pub snapshot_every: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_bad_steps: 3, max_rollbacks: 4, lr_backoff: 0.5, snapshot_every: 8 }
    }
}

/// Diagnostic attached to [`TrainError::Diverged`]: what the run looked
/// like when the recovery budget ran out.
#[derive(Clone, Copy, Debug)]
pub struct DivergenceReport {
    /// Global step at which the run aborted.
    pub step: u64,
    /// Rollbacks performed before giving up.
    pub rollbacks: u64,
    /// Learning rate after all backoffs.
    pub final_lr: f32,
    /// Last observed joint loss (typically NaN/inf).
    pub last_loss: f64,
}

impl std::fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "training diverged: recovery budget exhausted at step {} after {} rollback(s) \
             (lr backed off to {:.3e}, last joint loss {}). Likely causes: learning rate too \
             high, corrupt input batch, or a numerically unstable configuration",
            self.step, self.rollbacks, self.final_lr, self.last_loss
        )
    }
}

/// Training/resume failure.
#[derive(Debug)]
pub enum TrainError {
    /// The run diverged beyond the [`RecoveryPolicy`] budget.
    Diverged(DivergenceReport),
    /// A checkpoint could not be written or read.
    Checkpoint(retia_tensor::CheckpointError),
    /// A checkpoint directory/manifest/config was structurally invalid.
    Invalid(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Diverged(report) => report.fmt(f),
            TrainError::Checkpoint(e) => e.fmt(f),
            TrainError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<retia_tensor::CheckpointError> for TrainError {
    fn from(e: retia_tensor::CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Last-good state the recovery machine can roll back to. The [`ParamStore`]
/// clone carries values *and* Adam moments; `adam_t` restores the
/// bias-correction schedule.
struct GoodState {
    store: ParamStore,
    adam_t: u64,
}

#[derive(Default)]
struct RecoveryState {
    snapshot: Option<GoodState>,
    /// Consecutive bad steps since the last applied step.
    streak: u64,
    /// Rollbacks performed so far in this run.
    rollbacks: u64,
    /// Applied steps since the snapshot was last refreshed.
    applied: u64,
}

/// Drives general training, online continual training and evaluation of a
/// [`Retia`] model (and is reused by the RE-GCN-style baselines, which are
/// ablated `Retia` configurations).
pub struct Trainer {
    /// The model being trained.
    pub model: Retia,
    /// Training hyperparameters (shared with the model's config).
    pub cfg: RetiaConfig,
    pub(crate) opt: Adam,
    pub(crate) step_seed: u64,
    pub(crate) steps: u64,
    /// Loss history of the last `fit` call (including epochs restored from
    /// a checkpoint when resuming).
    pub loss_history: Vec<EpochLoss>,
    /// Epochs completed so far; `fit` continues from here after a resume.
    pub(crate) epochs_done: usize,
    pub(crate) best_mrr: f64,
    pub(crate) best_params: Option<ParamStore>,
    pub(crate) bad_epochs: usize,
    pub(crate) last_valid_mrr: Option<f64>,
    recovery: Option<RecoveryPolicy>,
    recovery_state: RecoveryState,
    chaos: ChaosPlan,
    checkpoint: Option<CheckpointPolicy>,
    /// The window states `begin_snapshot` evolved, keyed by the index of
    /// the snapshot being scored; `end_snapshot` drops them.
    evolved: Option<(usize, FrozenStates)>,
}

impl Trainer {
    /// Creates a trainer around a model. Divergence recovery, chaos
    /// injection and periodic checkpointing are all off by default; see
    /// [`Trainer::set_recovery`], [`Trainer::set_chaos`],
    /// [`Trainer::set_checkpointing`].
    pub fn new(model: Retia, cfg: RetiaConfig) -> Self {
        let opt = Adam::new(cfg.lr);
        Trainer {
            model,
            cfg,
            opt,
            step_seed: 0x5EED,
            steps: 0,
            loss_history: Vec::new(),
            epochs_done: 0,
            best_mrr: f64::NEG_INFINITY,
            best_params: None,
            bad_epochs: 0,
            last_valid_mrr: None,
            recovery: None,
            recovery_state: RecoveryState::default(),
            chaos: ChaosPlan::none(),
            checkpoint: None,
            evolved: None,
        }
    }

    /// Enables (or disables) the divergence-recovery state machine.
    pub fn set_recovery(&mut self, policy: Option<RecoveryPolicy>) {
        self.recovery = policy;
        self.recovery_state = RecoveryState::default();
    }

    /// Arms a deterministic fault plan (testing). Chaos steps are
    /// zero-based over `train_step` invocations.
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = plan;
    }

    /// Enables (or disables) periodic train-state checkpoints during `fit`.
    pub fn set_checkpointing(&mut self, policy: Option<CheckpointPolicy>) {
        self.checkpoint = policy;
    }

    /// Global gradient steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Epochs of `fit` completed so far (nonzero after a resume).
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// One gradient step: forecast snapshot `target_idx` from its history.
    /// Returns the (entity, relation, joint) loss values.
    ///
    /// Infallible wrapper over [`Trainer::try_train_step`] for callers
    /// without a recovery policy (where no error path exists).
    pub fn train_step(&mut self, ctx: &TkgContext, target_idx: usize) -> EpochLoss {
        self.try_train_step(ctx, target_idx)
            .map_err(|e| e.to_string())
            .expect("training diverged beyond the recovery budget; use try_train_step to handle it")
    }

    /// One gradient step with divergence recovery. Without a
    /// [`RecoveryPolicy`] this never fails and behaves exactly like the
    /// reference implementation (NaNs flow into the optimizer); with one,
    /// bad steps are skipped/rolled back and an exhausted budget returns
    /// [`TrainError::Diverged`].
    pub fn try_train_step(
        &mut self,
        ctx: &TkgContext,
        target_idx: usize,
    ) -> Result<EpochLoss, TrainError> {
        let (history, hypers) = ctx.history(target_idx, self.cfg.k);
        self.train_on(history, hypers, &ctx.snapshots[target_idx])
    }

    /// The gradient step behind [`Trainer::try_train_step`] and
    /// [`Trainer::fit_window`]: forecast `target` from `history`.
    fn train_on(
        &mut self,
        history: &[Snapshot],
        hypers: &[HyperSnapshot],
        target: &Snapshot,
    ) -> Result<EpochLoss, TrainError> {
        // Seed the last-good snapshot from the pre-step state so a rollback
        // target exists even if the very first step diverges.
        if self.recovery.is_some() && self.recovery_state.snapshot.is_none() {
            self.refresh_snapshot();
        }
        self.steps += 1;
        let step = self.steps;
        let _t = retia_obs::span!("train.step", step = step);
        self.step_seed = self.step_seed.wrapping_add(1);
        let mut g = Graph::new(true, self.step_seed);
        let states = self.model.evolve(&mut g, history, hypers);
        let decode_states = last_k(&states, self.cfg.k).to_vec();
        let (loss, le, lr) = self.model.loss(&mut g, &decode_states, target);
        let (le, lr) = (g.value(le).item(), g.value(lr).item());
        let joint = g.value(loss).item() as f64;
        retia_obs::watchdog::check_value("loss.joint", step, joint);
        retia_obs::watchdog::check_value("loss.entity", step, le as f64);
        retia_obs::watchdog::check_value("loss.relation", step, lr as f64);
        retia_obs::metrics::observe("loss.joint", joint);
        {
            let _bw = retia_obs::span!("backward.autodiff");
            g.backward(loss, self.model.store_mut());
        }
        // The graph shares the parameter buffers; dropping it lets the
        // optimizer update them in place instead of copying each one.
        drop(g);
        // Chaos injection point: poison gradients between backward and the
        // optimizer step, exactly where a real numerical blow-up lands.
        // Chaos steps are zero-based.
        if let Some(fault) = self.chaos.grad_fault(step - 1) {
            for (_, grad) in self.model.store_mut().iter_grads_mut() {
                if let Some(x) = grad.data_mut().first_mut() {
                    *x = fault.value();
                }
            }
        }
        {
            let _opt = retia_obs::span!("backward.optim");
            self.check_gradients(step);
            let bad = !joint.is_finite() || self.grads_non_finite();
            match self.recovery {
                // Legacy path: no recovery, the optimizer steps regardless
                // (the watchdog above has already warned).
                None => self.apply_optimizer_step(),
                Some(policy) if !bad => {
                    self.recovery_state.streak = 0;
                    self.apply_optimizer_step();
                    self.recovery_state.applied += 1;
                    if self.recovery_state.applied >= policy.snapshot_every {
                        self.refresh_snapshot();
                    }
                }
                Some(policy) => {
                    // Bad step: never let non-finite gradients touch the
                    // parameters or Adam moments.
                    self.model.store_mut().zero_grad();
                    self.recovery_state.streak += 1;
                    retia_obs::watchdog::recovery_skip(step, self.recovery_state.streak);
                    if self.recovery_state.streak >= policy.max_bad_steps {
                        self.rollback_or_abort(policy, step, joint)?;
                    }
                }
            }
        }
        retia_obs::metrics::inc("train.steps");
        Ok(EpochLoss { entity: le as f64, relation: lr as f64, joint })
    }

    /// Clip → Adam step → zero gradients (the healthy-step tail).
    fn apply_optimizer_step(&mut self) {
        // clip_grad_norm returns the pre-clip global norm: a free
        // training-health gauge. NaN gradients pass through clipping
        // unscaled (`NaN > max` is false), which is why the watchdog
        // scan sits between backward and the optimizer step.
        let norm = clip_grad_norm(self.model.store_mut(), self.cfg.grad_clip);
        retia_obs::metrics::set_gauge("grad.norm", norm as f64);
        retia_obs::metrics::observe("grad.norm", norm as f64);
        self.opt.step(self.model.store_mut());
        self.model.store_mut().zero_grad();
    }

    /// Captures the current (post-update) state as the rollback target.
    fn refresh_snapshot(&mut self) {
        self.recovery_state.snapshot =
            Some(GoodState { store: self.model.store().clone(), adam_t: self.opt.steps() });
        self.recovery_state.applied = 0;
    }

    /// Rolls back to the last-good snapshot with learning-rate backoff, or
    /// aborts with a [`DivergenceReport`] when the budget is exhausted.
    fn rollback_or_abort(
        &mut self,
        policy: RecoveryPolicy,
        step: u64,
        last_loss: f64,
    ) -> Result<(), TrainError> {
        self.recovery_state.rollbacks += 1;
        let rollbacks = self.recovery_state.rollbacks;
        if rollbacks > policy.max_rollbacks {
            retia_obs::watchdog::recovery_abort(step, rollbacks - 1);
            return Err(TrainError::Diverged(DivergenceReport {
                step,
                rollbacks: rollbacks - 1,
                final_lr: self.opt.lr,
                last_loss,
            }));
        }
        let snap = self
            .recovery_state
            .snapshot
            .as_ref()
            .expect("recovery snapshot seeded before the first step");
        *self.model.store_mut() = snap.store.clone();
        self.opt.set_steps(snap.adam_t);
        self.opt.lr *= policy.lr_backoff;
        retia_obs::watchdog::recovery_rollback(step, rollbacks, self.opt.lr as f64);
        self.recovery_state.streak = 0;
        Ok(())
    }

    /// True if any parameter gradient holds a NaN/±inf.
    fn grads_non_finite(&self) -> bool {
        self.model
            .store()
            .iter_grads()
            .any(|(_, g)| retia_obs::watchdog::count_non_finite(g.data()) > 0)
    }

    /// Pre-flight before committing to hours of gradient steps: the model
    /// audit. A mis-wired configuration, an op that can introduce NaN/inf
    /// under the parameter envelope, or a parameter whose gradient
    /// disposition disagrees with the configuration fails with the module
    /// and paper equation named. Costs milliseconds and no floating-point
    /// tensor work.
    fn check_wiring(&self) {
        let audit = self.model.audit();
        assert!(audit.is_clean(), "model failed the audit:\n{audit}");
    }

    /// Scans every parameter gradient for non-finite values (the NaN
    /// watchdog) and, at `Debug` verbosity, records per-parameter L2-norm
    /// gauges. The common all-finite path is a single pass per tensor.
    fn check_gradients(&self, step: u64) {
        if !retia_obs::enabled() {
            return;
        }
        let per_param = retia_obs::log_level() >= retia_obs::Level::Debug;
        for (name, grad) in self.model.store().iter_grads() {
            if per_param {
                let norm = (grad.norm_sq() as f64).sqrt();
                retia_obs::metrics::set_gauge(&format!("grad.norm.{name}"), norm);
            }
            if retia_obs::watchdog::count_non_finite(grad.data()) > 0 {
                retia_obs::watchdog::check_slice(&format!("grad.{name}"), step, grad.data());
            }
        }
    }

    /// General training: iterates chronologically over the training
    /// snapshots each epoch, early-stopping when validation entity MRR has
    /// not improved for `cfg.patience` consecutive epochs (the paper's
    /// protocol). Returns the per-epoch loss history.
    ///
    /// Infallible wrapper over [`Trainer::try_fit`] for callers without a
    /// recovery or checkpoint policy (where no error path exists).
    pub fn fit(&mut self, ctx: &TkgContext) -> Vec<EpochLoss> {
        self.try_fit(ctx)
            .map_err(|e| e.to_string())
            .expect("training failed; use try_fit to handle divergence/checkpoint errors")
    }

    /// [`Trainer::fit`] with divergence recovery and periodic
    /// checkpointing. Resumed trainers (see `Trainer::resume`) continue
    /// from `epochs_done` instead of epoch 0, bit-identically to a run
    /// that was never interrupted.
    pub fn try_fit(&mut self, ctx: &TkgContext) -> Result<Vec<EpochLoss>, TrainError> {
        self.check_wiring();
        if self.epochs_done == 0 {
            self.loss_history.clear();
            self.best_mrr = f64::NEG_INFINITY;
            self.best_params = None;
            self.bad_epochs = 0;
            self.last_valid_mrr = None;
        }

        for epoch in self.epochs_done..self.cfg.epochs {
            let (mut se, mut sr, mut sj) = (0.0f64, 0.0f64, 0.0f64);
            let mut n = 0usize;
            // Skip index 0: there is no history to forecast it from.
            for &idx in &ctx.train_idx {
                if idx == 0 {
                    continue;
                }
                let l = self.try_train_step(ctx, idx)?;
                se += l.entity;
                sr += l.relation;
                sj += l.joint;
                n += 1;
            }
            let denom = n.max(1) as f64;
            let mean = EpochLoss { entity: se / denom, relation: sr / denom, joint: sj / denom };
            self.loss_history.push(mean);
            retia_obs::metrics::set_gauge("loss.epoch.entity", mean.entity);
            retia_obs::metrics::set_gauge("loss.epoch.relation", mean.relation);
            retia_obs::metrics::set_gauge("loss.epoch.joint", mean.joint);
            retia_obs::event!(
                retia_obs::Level::Info,
                "train.epoch",
                epoch = epoch,
                entity = mean.entity,
                relation = mean.relation,
                joint = mean.joint;
                format!(
                    "epoch {:>3}  loss {:.4} (entity {:.4}, relation {:.4})",
                    epoch, mean.joint, mean.entity, mean.relation
                )
            );

            let mut stop = false;
            if self.cfg.patience > 0 {
                let report = {
                    let _t = retia_obs::span!("eval.validation", epoch = epoch);
                    self.evaluate_offline(ctx, Split::Valid)
                };
                let mrr = report.entity_raw.mrr();
                retia_obs::metrics::set_gauge("valid.entity_mrr", mrr);
                self.last_valid_mrr = Some(mrr);
                if mrr > self.best_mrr {
                    self.best_mrr = mrr;
                    self.best_params = Some(self.model.store().values_only());
                    self.bad_epochs = 0;
                } else {
                    self.bad_epochs += 1;
                    if self.bad_epochs >= self.cfg.patience {
                        let best_mrr = self.best_mrr;
                        retia_obs::event!(
                            retia_obs::Level::Info,
                            "train.early_stop",
                            epoch = epoch,
                            best_mrr = best_mrr;
                            format!(
                                "early stop at epoch {epoch}: validation MRR stalled at {best_mrr:.4}"
                            )
                        );
                        stop = true;
                    }
                }
            }
            self.epochs_done = epoch + 1;
            if let Some(policy) = self.checkpoint.clone() {
                if policy.due(self.epochs_done) || stop || self.epochs_done == self.cfg.epochs {
                    self.save_rotating(&policy)?;
                }
            }
            if stop {
                break;
            }
        }
        if let Some(best) = &self.best_params {
            self.model.store_mut().copy_values_from(best);
        }
        Ok(self.loss_history.clone())
    }

    /// Incremental fit on a standalone snapshot window (the continual
    /// trainer's entry point in retia-serve): forecasts the **last**
    /// snapshot of `snaps` from the preceding ones and takes `steps`
    /// gradient steps on that objective, returning the mean loss. The
    /// global step counter keeps advancing across calls, so a chaos plan
    /// armed on this trainer sweeps its fault window exactly once over the
    /// whole online run rather than restarting per window.
    ///
    /// Divergence recovery and chaos behave exactly as in
    /// [`Trainer::try_train_step`]; checkpointing stays with the caller.
    pub fn fit_window(
        &mut self,
        snaps: &[Snapshot],
        hypers: &[HyperSnapshot],
        steps: usize,
    ) -> Result<EpochLoss, TrainError> {
        if snaps.len() < 2 {
            return Err(TrainError::Invalid(format!(
                "fit_window needs at least 2 snapshots (history + target), got {}",
                snaps.len()
            )));
        }
        if snaps.len() != hypers.len() {
            return Err(TrainError::Invalid(format!(
                "fit_window: {} snapshots but {} hyper snapshots",
                snaps.len(),
                hypers.len()
            )));
        }
        let target_idx = snaps.len() - 1;
        let start = target_idx.saturating_sub(self.cfg.k);
        let (history, hypers) = (&snaps[start..target_idx], &hypers[start..target_idx]);
        let (mut se, mut sr, mut sj) = (0.0f64, 0.0f64, 0.0f64);
        let n = steps.max(1);
        for _ in 0..n {
            let l = self.train_on(history, hypers, &snaps[target_idx])?;
            se += l.entity;
            sr += l.relation;
            sj += l.joint;
        }
        let denom = n as f64;
        Ok(EpochLoss { entity: se / denom, relation: sr / denom, joint: sj / denom })
    }

    /// Resets the optimizer's learning rate (undoing accumulated recovery
    /// backoff). The online supervisor calls this when it restores the
    /// trainer to a last-good parameter snapshot after a divergence.
    pub fn set_lr(&mut self, lr: f32) {
        self.opt.lr = lr;
    }

    /// Evaluates a split following `cfg.online`: with online continual
    /// training, each evaluated timestamp's facts are trained on (with
    /// `cfg.online_steps` gradient steps) after being scored, before moving
    /// to the next timestamp — the paper's time-variability strategy.
    ///
    /// Audits the model first, then runs [`crate::evaluate`]; panics if an
    /// online step diverges beyond the recovery budget (call
    /// [`crate::evaluate`] directly to handle that as an error).
    pub fn evaluate(&mut self, ctx: &TkgContext, split: Split) -> EvalReport {
        self.check_wiring();
        crate::evaluate(self, ctx, split)
            .map_err(|e| e.to_string())
            .expect("online evaluation diverged; call retia::evaluate to handle it")
    }

    /// Evaluation without parameter updates: `cfg.online` is off for the call.
    pub fn evaluate_offline(&mut self, ctx: &TkgContext, split: Split) -> EvalReport {
        let online = std::mem::replace(&mut self.cfg.online, false);
        let report = crate::evaluate(self, ctx, split);
        self.cfg.online = online;
        report.expect("offline evaluation takes no training step, so it cannot fail")
    }

    /// The window states for scoring snapshot `idx`: those `begin_snapshot`
    /// evolved (shared, not copied), or, for a score call it did not
    /// prepare, the same evolve run now (the bits are the same).
    fn states_for(&self, ctx: &TkgContext, idx: usize) -> FrozenStates {
        match &self.evolved {
            Some((at, states)) if *at == idx => states.clone(),
            _ => {
                let (history, hypers) = ctx.history(idx, self.cfg.k);
                self.model.evolve_window(history, hypers)
            }
        }
    }
}

/// The trainer scores the model it trains, evolving each scored snapshot's
/// window once. With `cfg.online` set, `end_snapshot` takes
/// `cfg.online_steps` gradient steps on the snapshot just scored.
impl Forecaster for Trainer {
    fn begin_snapshot(&mut self, ctx: &TkgContext, idx: usize) {
        let (history, hypers) = ctx.history(idx, self.cfg.k);
        self.evolved = Some((idx, self.model.evolve_window(history, hypers)));
    }

    fn entity_scores(
        &self,
        ctx: &TkgContext,
        idx: usize,
        subjects: &[u32],
        rels: &[u32],
    ) -> Tensor {
        let states = self.states_for(ctx, idx);
        self.model.decode_entity(&states, subjects.to_vec(), rels.to_vec())
    }

    fn relation_scores(
        &self,
        ctx: &TkgContext,
        idx: usize,
        subjects: &[u32],
        objects: &[u32],
    ) -> Tensor {
        let states = self.states_for(ctx, idx);
        self.model.decode_relation(&states, subjects.to_vec(), objects.to_vec())
    }

    fn end_snapshot(&mut self, ctx: &TkgContext, idx: usize) -> Result<(), TrainError> {
        // The states hold the pre-step parameters' evolve.
        self.evolved = None;
        if self.cfg.online {
            for _ in 0..self.cfg.online_steps {
                self.try_train_step(ctx, idx)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RetiaConfig;
    use retia_data::SyntheticConfig;

    fn tiny_setup(epochs: usize) -> (Trainer, TkgContext) {
        let ds = SyntheticConfig::tiny(4).generate();
        let ctx = TkgContext::new(&ds);
        let cfg = RetiaConfig {
            dim: 8,
            channels: 4,
            k: 2,
            epochs,
            patience: 0,
            online: false,
            ..Default::default()
        };
        let model = Retia::new(&cfg, &ds);
        (Trainer::new(model, cfg), ctx)
    }

    #[test]
    fn building_a_trainer_keeps_the_thread_override() {
        // The thread count is the process's (`RETIA_NUM_THREADS` or
        // `parallel::set_num_threads`); no trainer, resumed or fresh,
        // resets it.
        retia_tensor::parallel::set_num_threads(3);
        let _ = tiny_setup(1);
        assert_eq!(retia_tensor::parallel::num_threads(), 3);
        retia_tensor::parallel::set_num_threads(0);
    }

    #[test]
    fn fit_window_trains_on_standalone_slices() {
        let (mut trainer, ctx) = tiny_setup(1);
        let end = ctx.snapshots.len().min(4);
        let snaps = &ctx.snapshots[..end];
        let hypers = &ctx.hypers[..end];
        let first = trainer.fit_window(snaps, hypers, 4).unwrap();
        assert!(first.joint.is_finite());
        assert_eq!(trainer.steps(), 4, "step counter advances across fit_window");
        let mut last = first.joint;
        for _ in 0..8 {
            last = trainer.fit_window(snaps, hypers, 4).unwrap().joint;
        }
        assert!(last < first.joint, "repeated window fits should reduce loss: {first:?} -> {last}");
    }

    #[test]
    fn fit_window_rejects_degenerate_windows() {
        let (mut trainer, ctx) = tiny_setup(1);
        let one = trainer.fit_window(&ctx.snapshots[..1], &ctx.hypers[..1], 2);
        assert!(matches!(one, Err(TrainError::Invalid(_))));
        let skewed = trainer.fit_window(&ctx.snapshots[..3], &ctx.hypers[..2], 2);
        assert!(matches!(skewed, Err(TrainError::Invalid(_))));
    }

    #[test]
    fn set_lr_undoes_recovery_backoff() {
        let (mut trainer, _) = tiny_setup(1);
        trainer.opt.lr = 1e-5;
        trainer.set_lr(0.001);
        assert_eq!(trainer.opt.lr, 0.001);
    }

    #[test]
    fn train_step_reduces_loss_over_steps() {
        let ds = SyntheticConfig::tiny(4).generate();
        let ctx = TkgContext::new(&ds);
        let cfg = RetiaConfig {
            dim: 8,
            channels: 4,
            k: 2,
            lr: 5e-3,
            dropout: 0.0,
            patience: 0,
            online: false,
            ..Default::default()
        };
        let model = Retia::new(&cfg, &ds);
        let mut trainer = Trainer::new(model, cfg);
        let idx = *ctx.train_idx.last().unwrap();
        let first = trainer.train_step(&ctx, idx).joint;
        let mut last = first;
        for _ in 0..60 {
            last = trainer.train_step(&ctx, idx).joint;
        }
        assert!(last < first * 0.8, "loss did not decrease: first {first}, last {last}");
    }

    #[test]
    fn fit_records_loss_history() {
        let (mut trainer, ctx) = tiny_setup(2);
        let hist = trainer.fit(&ctx);
        assert_eq!(hist.len(), 2);
        assert!(hist[1].joint <= hist[0].joint * 1.2, "loss exploded: {hist:?}");
        for l in &hist {
            assert!(l.joint.is_finite() && l.entity.is_finite() && l.relation.is_finite());
        }
    }

    #[test]
    fn evaluate_produces_consistent_counts() {
        let (mut trainer, ctx) = tiny_setup(1);
        trainer.fit(&ctx);
        let report = trainer.evaluate_offline(&ctx, Split::Test);
        let test_facts: usize = ctx.split_fact_count(Split::Test);
        assert_eq!(report.entity_raw.count(), test_facts * 2);
        assert_eq!(report.relation_raw.count(), test_facts);
        assert!(report.entity_raw.mrr() > 0.0);
        // Filtered ranks can only be at least as good as raw ranks.
        assert!(report.entity_filtered.mrr() >= report.entity_raw.mrr() - 1e-9);
        assert!(report.relation_filtered.mrr() >= report.relation_raw.mrr() - 1e-9);
    }

    /// `retia::evaluate` evolves each scored snapshot's window once for
    /// both query kinds (one `eam.rgcn` span per history snapshot), and an
    /// online step adds its own evolve.
    #[test]
    fn evaluation_evolves_each_scored_window_once() {
        let (sink, handle) = retia_obs::CaptureSink::new();
        let id = retia_obs::add_sink(Box::new(sink));
        let me = retia_obs::current_thread();
        let evolved = || {
            handle.events().into_iter().filter(|e| e.thread == me && e.name == "eam.rgcn").count()
        };

        let (mut trainer, ctx) = tiny_setup(1);
        trainer.cfg.online_steps = 2;
        let window: usize =
            ctx.test_idx.iter().map(|&idx| ctx.history(idx, trainer.cfg.k).0.len()).sum();
        crate::evaluate(&mut trainer, &ctx, Split::Test).unwrap();
        let offline = evolved();
        trainer.cfg.online = true;
        crate::evaluate(&mut trainer, &ctx, Split::Test).unwrap();
        let online = evolved() - offline;
        retia_obs::remove_sink(id);

        assert_eq!(offline, window, "offline: one evolve per scored snapshot");
        assert_eq!(online, window * (1 + trainer.cfg.online_steps), "online: plus one per step");
    }

    /// A score call `begin_snapshot` did not prepare (none, or one for
    /// another snapshot) evolves the window itself, to the same bits.
    #[test]
    fn unprepared_score_calls_match_the_prepared_route() {
        let (mut trainer, ctx) = tiny_setup(1);
        let bits = |t: Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let scores = |trainer: &Trainer, idx: usize| {
            let target = &ctx.snapshots[idx];
            let (s, r, _) = crate::entity_queries(target, ctx.num_relations);
            let (rs, ro, _) = crate::relation_queries(target);
            (
                bits(trainer.entity_scores(&ctx, idx, &s, &r)),
                bits(trainer.relation_scores(&ctx, idx, &rs, &ro)),
            )
        };
        let (idx, other) = (ctx.test_idx[0], ctx.valid_idx[0]);
        let cold = scores(&trainer, idx);
        let cold_other = scores(&trainer, other);

        trainer.begin_snapshot(&ctx, idx);
        assert_eq!(scores(&trainer, idx), cold, "prepared states diverged from a fresh evolve");
        assert_eq!(scores(&trainer, other), cold_other, "states keyed to another snapshot");
        trainer.end_snapshot(&ctx, idx).unwrap();
        assert_eq!(scores(&trainer, idx), cold);
    }

    #[test]
    fn online_evaluation_updates_parameters() {
        let (mut trainer, ctx) = tiny_setup(1);
        trainer.cfg.online = true;
        trainer.fit(&ctx);
        let before = trainer.model.store().value("ent0").clone();
        let _ = trainer.evaluate(&ctx, Split::Test);
        let after = trainer.model.store().value("ent0");
        assert!(before.max_abs_diff(after) > 0.0, "online eval must update params");
    }

    #[test]
    fn offline_evaluation_is_pure() {
        let (mut trainer, ctx) = tiny_setup(1);
        trainer.fit(&ctx);
        let before = trainer.model.store().value("ent0").clone();
        let r1 = trainer.evaluate_offline(&ctx, Split::Test);
        let r2 = trainer.evaluate_offline(&ctx, Split::Test);
        assert_eq!(before, *trainer.model.store().value("ent0"));
        assert_eq!(r1.entity_raw, r2.entity_raw, "offline eval must be deterministic");
    }

    #[test]
    fn nan_watchdog_fires_within_first_steps_of_divergent_run() {
        let (sink, handle) = retia_obs::CaptureSink::new();
        let id = retia_obs::add_sink(Box::new(sink));
        let me = retia_obs::current_thread();
        retia_obs::watchdog::reset();

        let ds = SyntheticConfig::tiny(4).generate();
        let ctx = TkgContext::new(&ds);
        // An absurd learning rate makes Adam catapult the parameters to
        // ~1e30 in one step; the next forward overflows into inf/NaN.
        let cfg = RetiaConfig {
            dim: 8,
            channels: 4,
            k: 2,
            lr: 1e30,
            dropout: 0.0,
            patience: 0,
            online: false,
            ..Default::default()
        };
        let model = Retia::new(&cfg, &ds);
        let mut trainer = Trainer::new(model, cfg);
        let idx = *ctx.train_idx.last().unwrap();
        for _ in 0..6 {
            trainer.train_step(&ctx, idx);
        }
        retia_obs::remove_sink(id);

        let events: Vec<_> = handle
            .events()
            .into_iter()
            .filter(|e| e.thread == me && e.name.starts_with("nonfinite."))
            .collect();
        assert!(!events.is_empty(), "divergent run must trip the NaN watchdog");
        for ev in &events {
            assert_eq!(ev.level, retia_obs::Level::Warn);
            let step = ev.fields.iter().find(|(k, _)| k == "step").map(|(_, v)| *v);
            assert!(
                matches!(step, Some(s) if (1.0..=6.0).contains(&s)),
                "watchdog fired outside the first steps: {step:?}"
            );
        }
    }

    #[test]
    fn nan_watchdog_stays_quiet_on_healthy_run() {
        let (sink, handle) = retia_obs::CaptureSink::new();
        let id = retia_obs::add_sink(Box::new(sink));
        let me = retia_obs::current_thread();

        let (mut trainer, ctx) = tiny_setup(1);
        let idx = *ctx.train_idx.last().unwrap();
        for _ in 0..5 {
            trainer.train_step(&ctx, idx);
        }
        retia_obs::remove_sink(id);

        let fired: Vec<_> = handle
            .events()
            .into_iter()
            .filter(|e| e.thread == me && e.name.starts_with("nonfinite."))
            .collect();
        assert!(fired.is_empty(), "healthy run fired the watchdog: {fired:?}");
    }

    #[test]
    fn chaos_storm_recovers_with_skip_then_rollback() {
        let (sink, handle) = retia_obs::CaptureSink::new();
        let id = retia_obs::add_sink(Box::new(sink));
        let me = retia_obs::current_thread();

        let (mut trainer, ctx) = tiny_setup(1);
        trainer.set_recovery(Some(RecoveryPolicy::default()));
        // NaN gradients at (zero-based) steps 1–3: exactly max_bad_steps
        // consecutive bad steps, so the machine must skip, skip, skip,
        // then roll back — in that order.
        trainer.set_chaos(retia_analyze::ChaosPlan::parse("grad-nan@1-3").unwrap());
        let idx = *ctx.train_idx.last().unwrap();
        for _ in 0..8 {
            trainer.try_train_step(&ctx, idx).unwrap();
        }
        retia_obs::remove_sink(id);

        let names: Vec<String> = handle
            .events()
            .into_iter()
            .filter(|e| e.thread == me && e.name.starts_with("recovery."))
            .map(|e| e.name)
            .collect();
        assert_eq!(
            names,
            ["recovery.skip", "recovery.skip", "recovery.skip", "recovery.rollback"],
            "recovery decisions out of order"
        );
        // The poisoned gradients must never have reached the parameters.
        for (name, t) in trainer.model.store().iter() {
            assert_eq!(
                retia_obs::watchdog::count_non_finite(t.data()),
                0,
                "parameter `{name}` was poisoned despite recovery"
            );
        }
        // Learning rate was backed off exactly once.
        assert!((trainer.opt.lr - trainer.cfg.lr * 0.5).abs() < 1e-12);
    }

    #[test]
    fn exhausted_recovery_budget_returns_diverged() {
        let (mut trainer, ctx) = tiny_setup(1);
        trainer.set_recovery(Some(RecoveryPolicy {
            max_bad_steps: 1,
            max_rollbacks: 2,
            ..Default::default()
        }));
        // Every step poisoned: each bad step rolls back immediately, so the
        // budget of 2 rollbacks dies on the third bad step.
        trainer.set_chaos(retia_analyze::ChaosPlan::parse("grad-inf@0-99").unwrap());
        let idx = *ctx.train_idx.last().unwrap();
        let mut last = None;
        for _ in 0..10 {
            match trainer.try_train_step(&ctx, idx) {
                Ok(_) => continue,
                Err(e) => {
                    last = Some(e);
                    break;
                }
            }
        }
        match last {
            Some(TrainError::Diverged(report)) => {
                assert_eq!(report.rollbacks, 2);
                assert!(report.final_lr < trainer.cfg.lr, "lr was never backed off");
                let msg = report.to_string();
                assert!(msg.contains("rollback") && msg.contains("learning rate"), "{msg}");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn unprotected_run_is_poisoned_where_recovery_survives() {
        let plan = retia_analyze::ChaosPlan::parse("grad-nan@0-2").unwrap();

        // A: no recovery — the legacy path steps the optimizer on NaN
        // gradients and the parameters rot.
        let (mut unprotected, ctx) = tiny_setup(1);
        unprotected.set_chaos(plan.clone());
        let idx = *ctx.train_idx.last().unwrap();
        for _ in 0..3 {
            let _ = unprotected.try_train_step(&ctx, idx).unwrap();
        }
        let poisoned = unprotected
            .model
            .store()
            .iter()
            .any(|(_, t)| retia_obs::watchdog::count_non_finite(t.data()) > 0);
        assert!(poisoned, "chaos plan failed to poison the unprotected run");

        // B: same faults, recovery on — every parameter stays finite.
        let (mut protected, ctx) = tiny_setup(1);
        protected.set_recovery(Some(RecoveryPolicy::default()));
        protected.set_chaos(plan);
        let idx = *ctx.train_idx.last().unwrap();
        for _ in 0..6 {
            protected.try_train_step(&ctx, idx).unwrap();
        }
        for (name, t) in protected.model.store().iter() {
            assert_eq!(
                retia_obs::watchdog::count_non_finite(t.data()),
                0,
                "parameter `{name}` poisoned despite recovery"
            );
        }
    }

    #[test]
    fn early_stopping_restores_best_params() {
        let ds = SyntheticConfig::tiny(9).generate();
        let ctx = TkgContext::new(&ds);
        let cfg = RetiaConfig {
            dim: 8,
            channels: 4,
            k: 2,
            epochs: 3,
            patience: 1,
            online: false,
            ..Default::default()
        };
        let model = Retia::new(&cfg, &ds);
        let mut trainer = Trainer::new(model, cfg);
        trainer.fit(&ctx);
        // After fit with patience, the restored parameters reproduce the best
        // validation MRR observed during training.
        let report = trainer.evaluate_offline(&ctx, Split::Valid);
        assert!(report.entity_raw.mrr() > 0.0);
    }
}
