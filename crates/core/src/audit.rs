//! Model-level audit: an abstract interpretation of one full training step
//! (evolve → decode → loss → backward) over shapes and the interval +
//! finiteness domain, plus gradient-flow reachability from the loss and
//! reduction-order declarations. A clean audit proves that the model's
//! tensors wire together (every shape and index-space precondition the real
//! kernels and layers assert holds), that the wired model cannot produce
//! NaN/inf under the [`retia_analyze::value::PARAM_BOUND`] parameter
//! envelope, and that every trainable parameter either receives gradient or
//! is declared frozen (with the ablation flag that freezes it).
//!
//! The audit runs the model's own [`Retia::evolve`] and [`Retia::loss`] over
//! an [`AuditCtx`] on a synthetic window that touches the extreme ids of
//! every index space. Because it never touches tensor data, even
//! paper-scale configurations audit in well under a second. `retia audit`
//! surfaces it; the trainer pre-flight and the serve boot check run it
//! before any real work, so a mis-wired configuration fails in
//! milliseconds, with the module and paper equation named, instead of
//! mid-epoch.

use retia_analyze::value::AbsId;
use retia_analyze::{AuditCtx, AuditIssue, AuditKind, AuditReport, FrozenParam};
use retia_graph::{HyperSnapshot, Quad, Snapshot, NUM_HYPERRELS_WITH_INV};
use retia_tensor::Ops;

use crate::config::{HyperrelMode, RelationMode, RetiaConfig};
use crate::model::Retia;

/// A two-snapshot history plus a target snapshot exercising the extreme
/// index spaces: entity ids `0` and `N-1`, relation ids `0` and `M-1`, so
/// any gather or segment sum whose index space is off-by-one or mis-sized is
/// caught without running on real data.
pub(crate) fn synthetic_window(
    num_entities: usize,
    num_relations: usize,
) -> (Vec<Snapshot>, Vec<HyperSnapshot>, Snapshot) {
    let n = num_entities.max(2) as u32;
    let m = num_relations.max(1) as u32;
    let facts_at = |t: u32| {
        vec![
            Quad::new(0, 0, n - 1, t),
            Quad::new(n - 1, m - 1, 0, t),
            Quad::new(0, m - 1, 1 % n, t),
            Quad::new(1 % n, 0, n - 1, t),
        ]
    };
    let snaps: Vec<Snapshot> =
        (0..2).map(|t| Snapshot::from_quads(&facts_at(t), num_entities, num_relations)).collect();
    let hypers = snaps.iter().map(HyperSnapshot::from_snapshot).collect();
    let target = Snapshot::from_quads(&facts_at(2), num_entities, num_relations);
    (snaps, hypers, target)
}

impl Retia {
    /// Audits one full training step on abstract values alone: shape and
    /// index-space preconditions, finiteness under the parameter envelope,
    /// gradient-flow reachability reconciled against the configuration's
    /// frozen set, and reduction-order declarations. A clean report means
    /// the tensors wire together, no kernel in the step can introduce
    /// NaN/inf, and every parameter's gradient disposition matches the
    /// configuration. Costs no floating-point tensor work.
    pub fn audit(&self) -> AuditReport {
        self.audit_over(AuditCtx::new(), |ctx| ctx)
    }

    /// The [`AuditKind::Shape`] findings of [`Retia::audit`]: a clean
    /// report means the configuration's tensors wire together. Kept for
    /// callers that report the wiring apart from the rest of the audit
    /// (perfbench's `train` preflight).
    pub fn validate(&self) -> AuditReport {
        let mut report = self.audit();
        report.issues.retain(|i| i.kind == AuditKind::Shape);
        report
    }

    /// [`Retia::audit`] over any abstract execution that `into_ctx` turns
    /// back into its [`AuditCtx`]: `evolve` and `loss` on the synthetic
    /// window, then the gradient-flow walk and the store cross-check. Tests
    /// pass a wrapper that seeds a bug into the model's own ops.
    pub(crate) fn audit_over<C: Ops<Id = AbsId>>(
        &self,
        mut exec: C,
        into_ctx: impl FnOnce(C) -> AuditCtx,
    ) -> AuditReport {
        let (snaps, hypers, target) = synthetic_window(self.num_entities(), self.num_relations());
        let states = self.evolve(&mut exec, &snaps, &hypers);
        let (loss, _, _) = self.loss(&mut exec, &states, &target);

        let mut ctx = into_ctx(exec);
        let frozen = self.frozen_params(&hypers);
        ctx.check_gradient_flow(loss, &frozen);

        // ---- store cross-check: every registered parameter must be on the
        // abstract tape or in the frozen table — a name in neither means the
        // model step never touches a module it registered ----
        let declared = ctx.declared_param_names();
        let mut report = ctx.finish();
        for (name, _) in self.store().iter() {
            report.ops_checked += 1;
            let in_tape = declared.iter().any(|d| d == name);
            let in_frozen = frozen.iter().any(|f| f.name == name);
            if !in_tape && !in_frozen {
                report.issues.push(AuditIssue {
                    path: String::new(),
                    op: format!("param `{name}`"),
                    kind: AuditKind::GradFlow,
                    detail: "registered in the parameter store but neither declared on \
                             the abstract tape nor frozen for this configuration"
                        .to_string(),
                });
            }
        }
        report
    }

    /// The parameters expected to receive *no* gradient under this
    /// configuration, each with the ablation flag (or data condition) that
    /// freezes it. [`AuditCtx::check_gradient_flow`] reconciles this table
    /// both ways: an undeclared unreached parameter is a finding, and so is
    /// a declared-frozen parameter the backward walk reaches.
    fn frozen_params(&self, hypers: &[HyperSnapshot]) -> Vec<FrozenParam> {
        let cfg = &self.cfg;
        let m2 = 2 * self.num_relations();
        let mut frozen = Vec::new();
        let cell =
            |prefix: &str| [format!("{prefix}.w"), format!("{prefix}.u"), format!("{prefix}.b")];

        if !cfg.use_eam {
            frozen.push(FrozenParam::new(
                "ent0",
                "EAM ablated (--no-eam): entity embeddings stay at initialization",
            ));
            for l in 0..cfg.rgcn_layers {
                frozen.push(FrozenParam::new(format!("eam.l{l}.wself"), "EAM ablated (--no-eam)"));
                for i in 0..cfg.num_bases.min(m2) {
                    frozen.push(FrozenParam::new(
                        format!("eam.l{l}.basis{i}"),
                        "EAM ablated (--no-eam)",
                    ));
                }
                frozen.push(FrozenParam::new(format!("eam.l{l}.coef"), "EAM ablated (--no-eam)"));
            }
            for name in cell("rgru_ent") {
                frozen.push(FrozenParam::new(name, "EAM ablated (--no-eam)"));
            }
        }

        if cfg.relation_mode == RelationMode::None {
            frozen.push(FrozenParam::new(
                "rel0",
                "relation evolution disabled (relation_mode = none)",
            ));
        }

        let ram_active = cfg.relation_mode == RelationMode::MpLstmAgg;
        if !ram_active {
            let why = "RAM aggregation disabled (relation_mode != mp-lstm-agg)";
            frozen.push(FrozenParam::new("hyper0", why));
            for l in 0..cfg.rgcn_layers {
                frozen.push(FrozenParam::new(format!("ram.l{l}.wself"), why));
                for r in 0..NUM_HYPERRELS_WITH_INV {
                    frozen.push(FrozenParam::new(format!("ram.l{l}.w{r}"), why));
                }
            }
            for name in cell("rgru_rel") {
                frozen.push(FrozenParam::new(name, why));
            }
        } else {
            // Per-type RAM weights for hyperrelation types with no edges
            // anywhere in the audit window never enter the graph.
            for r in 0..NUM_HYPERRELS_WITH_INV {
                let absent =
                    hypers.iter().all(|h| h.hrel_ranges.get(r).is_none_or(|&(a, b)| a == b));
                if absent {
                    for l in 0..cfg.rgcn_layers {
                        frozen.push(FrozenParam::new(
                            format!("ram.l{l}.w{r}"),
                            "hyperrelation type absent from the audit window",
                        ));
                    }
                }
            }
        }

        let tim_active = cfg.use_tim
            && matches!(cfg.relation_mode, RelationMode::MpLstm | RelationMode::MpLstmAgg);
        if !tim_active {
            let why = if cfg.use_tim {
                "relation mode does not run the TIM LSTM"
            } else {
                "TIM severed (--no-tim)"
            };
            for name in cell("tim_lstm") {
                frozen.push(FrozenParam::new(name, why));
            }
        }

        if !(ram_active && cfg.hyperrel_mode == HyperrelMode::HmpHlstm) {
            for name in cell("hyper_lstm") {
                frozen.push(FrozenParam::new(
                    name,
                    "hyperrelation LSTM disabled (hyperrel_mode != hmp-hlstm, or RAM off)",
                ));
            }
        }

        // eam_rel0 only flows when the EAM is on and the TIM channel is off.
        if !cfg.use_eam || cfg.use_tim {
            frozen.push(FrozenParam::new(
                "eam_rel0",
                if cfg.use_eam {
                    "EAM reads the evolved relations while the TIM channel is on"
                } else {
                    "EAM ablated (--no-eam)"
                },
            ));
        }

        frozen
    }
}

/// Builds a model for the given configuration and shape and audits it — the
/// implementation behind `retia audit`. Returns the resulting
/// [`AuditReport`] (clean or listing every finding).
pub fn audit_config(cfg: &RetiaConfig, num_entities: usize, num_relations: usize) -> AuditReport {
    let model = Retia::with_shape(cfg, num_entities, num_relations);
    model.audit()
}

/// Audits every point of `cfg`'s [`RetiaConfig::ablation_grid`] against one
/// model — the implementation behind `retia audit --all-configs`. The grid
/// varies only the ablation switches, which `evolve`, `loss` and the frozen
/// table read and parameter registration does not, so each point's report
/// equals [`audit_config`]'s while the parameters are built once.
pub fn audit_ablation_grid(
    cfg: &RetiaConfig,
    num_entities: usize,
    num_relations: usize,
) -> Vec<(RetiaConfig, AuditReport)> {
    let mut model = Retia::with_shape(cfg, num_entities, num_relations);
    cfg.ablation_grid()
        .into_iter()
        .map(|point| {
            model.cfg = point.clone();
            (point, model.audit())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrozenModel;
    use retia_nn::{ConvTransE, LstmCell};
    use retia_tensor::{Graph, OpCall, ParamStore};

    fn tiny_cfg() -> RetiaConfig {
        RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() }
    }

    /// A bug seeded into the model's own ops by [`Seeded`].
    #[derive(Clone, Copy, PartialEq)]
    enum Bug {
        /// Every op inside `tim.lstm` cut from its inputs, undeclared.
        DetachTim,
        /// An unguarded `exp` after `decode.entity`'s scoring product.
        ExpLogits,
        /// The softmax row-sum reorder, declared in `decode.entity`.
        ReorderSoftmax,
    }

    /// An [`AuditCtx`] that injects one [`Bug`] while the model step runs
    /// over it.
    struct Seeded {
        ctx: AuditCtx,
        bug: Bug,
        frames: Vec<String>,
    }

    impl Seeded {
        fn audit(model: &Retia, bug: Bug) -> AuditReport {
            let seeded = Seeded { ctx: AuditCtx::new(), bug, frames: Vec::new() };
            model.audit_over(seeded, |seeded| seeded.ctx)
        }

        fn inside(&self, frame: &str) -> bool {
            self.frames.iter().any(|f| f == frame)
        }
    }

    impl Ops for Seeded {
        type Id = AbsId;

        fn apply(&mut self, call: OpCall<'_, AbsId>) -> AbsId {
            let scoring = matches!(call, OpCall::MatMulNT(..));
            let y = self.ctx.apply(call);
            match self.bug {
                Bug::DetachTim if self.inside("tim.lstm") => {
                    let (rows, cols) = self.ctx.shape(y);
                    let iv = self.ctx.interval(y);
                    self.ctx.source(rows, cols, iv)
                }
                Bug::ExpLogits if scoring && self.inside("decode.entity") => self.ctx.exp(y),
                _ => y,
            }
        }

        fn shape(&self, x: AbsId) -> (usize, usize) {
            self.ctx.shape(x)
        }

        fn check(&mut self, op: &str, cond: bool, detail: impl FnOnce() -> String) {
            self.ctx.check(op, cond, detail);
        }

        fn frame<R>(&mut self, name: &str, eq: Option<&str>, f: impl FnOnce(&mut Self) -> R) -> R {
            self.ctx.push_scope(name, eq);
            self.frames.push(name.to_string());
            if self.bug == Bug::ReorderSoftmax && name == "decode.entity" {
                self.ctx.reorder("softmax_rows", "row-sum");
            }
            let out = f(self);
            self.frames.pop();
            self.ctx.pop_scope();
            out
        }

        fn param(&mut self, store: &ParamStore, name: &str) -> AbsId {
            self.ctx.param(store, name)
        }

        fn frozen_param(&mut self, store: &ParamStore, name: &str) -> AbsId {
            self.ctx.frozen_param(store, name)
        }

        fn zeros(&mut self, rows: usize, cols: usize) -> AbsId {
            self.ctx.zeros(rows, cols)
        }
    }

    #[test]
    fn default_configuration_is_clean() {
        let report = audit_config(&tiny_cfg(), 12, 3);
        assert!(report.is_clean(), "unexpected findings:\n{report}");
        assert!(report.ops_checked > 50, "audit checked only {} ops", report.ops_checked);
        assert!(report.params_declared > 10);
        assert_eq!(report.params_declared, report.params_reached);
    }

    #[test]
    fn every_ablation_mode_is_clean() {
        for cfg in (RetiaConfig { static_weight: 1.0, ..tiny_cfg() }).ablation_grid() {
            let report = audit_config(&cfg, 9, 2);
            assert!(report.is_clean(), "findings for {}:\n{report}", cfg.ablation_label());
        }
    }

    /// The one-model sweep reports exactly what a fresh model per grid
    /// point does.
    #[test]
    fn grid_sweep_matches_a_model_per_config() {
        let base = RetiaConfig { static_weight: 1.0, ..tiny_cfg() };
        let swept = audit_ablation_grid(&base, 9, 2);
        assert_eq!(swept.len(), 45);
        for (cfg, report) in &swept {
            let fresh = audit_config(cfg, 9, 2);
            let label = cfg.ablation_label();
            assert_eq!(report.ops_checked, fresh.ops_checked, "{label}");
            assert_eq!(report.params_declared, fresh.params_declared, "{label}");
            assert_eq!(report.params_reached, fresh.params_reached, "{label}");
            assert_eq!(report.to_string(), fresh.to_string(), "{label}");
        }
    }

    #[test]
    fn the_audits_open_no_span() {
        let (sink, handle) = retia_obs::CaptureSink::new();
        let id = retia_obs::add_sink(Box::new(sink));
        let me = retia_obs::current_thread();
        let mine = || -> Vec<String> {
            handle.events().into_iter().filter(|e| e.thread == me).map(|e| e.name).collect()
        };
        let model = Retia::with_shape(&tiny_cfg(), 12, 3);
        model.audit();
        FrozenModel::new(Retia::with_shape(&tiny_cfg(), 12, 3)).audit();
        let from_audits = mine();
        // The same step over a graph does open its spans.
        let (snaps, hypers, _) = synthetic_window(12, 3);
        model.evolve(&mut Graph::inference(), &snaps, &hypers);
        retia_obs::remove_sink(id);
        assert!(from_audits.is_empty(), "the audits emitted {from_audits:?}");
        assert!(mine().iter().any(|s| s == "eam.rgcn"), "{:?}", mine());
    }

    /// True when `report` has a shape finding under the scope `path`.
    fn shape_finding_under(report: &AuditReport, path: &str) -> bool {
        report.issues.iter().any(|i| i.kind == AuditKind::Shape && i.path.contains(path))
    }

    #[test]
    fn mis_built_tim_lstm_is_caught_and_named() {
        // Sever the Eq. 8 concatenation: a TIM LSTM built for a plain d-wide
        // input. The audit must flag it inside the TIM LSTM, not somewhere
        // downstream, and keep replaying to the end.
        let cfg = tiny_cfg();
        let mut model = Retia::with_shape(&cfg, 12, 3);
        let narrow = LstmCell::new(model.store_mut(), "tim_lstm_narrow", cfg.dim, cfg.dim);
        model.tim_lstm = narrow;
        let report = model.audit();
        assert!(shape_finding_under(&report, "tim.lstm [Eq. 7-8]"), "{report}");
        assert!(report.params_declared > 0, "the replay stopped before the gradient walk");
        assert!(shape_finding_under(&model.validate(), "tim.lstm [Eq. 7-8]"));
    }

    #[test]
    fn mis_built_decoder_is_caught_and_named() {
        let cfg = tiny_cfg();
        let mut model = Retia::with_shape(&cfg, 12, 3);
        let (c, k, p) = (cfg.channels, cfg.ksize, cfg.dropout);
        let wide = ConvTransE::new(model.store_mut(), "dec_e_wide", cfg.dim + 1, c, k, p);
        model.dec_entity = wide;
        let report = model.audit();
        assert!(shape_finding_under(&report, "decode.entity [Eq. 11/13]"), "{report}");
        assert!(!shape_finding_under(&report, "decode.relation"), "{report}");
    }

    #[test]
    fn seeded_undeclared_detach_is_caught_in_the_tim() {
        let model = Retia::with_shape(&tiny_cfg(), 12, 3);
        let report = Seeded::audit(&model, Bug::DetachTim);
        assert!(!report.is_clean(), "undeclared detach passed the audit");
        let flagged: Vec<_> =
            report.issues.iter().filter(|i| i.kind == retia_analyze::AuditKind::GradFlow).collect();
        assert!(
            flagged
                .iter()
                .any(|i| i.op.contains("tim_lstm") && i.path.contains("tim.lstm [Eq. 7-8]")),
            "no finding blames the TIM LSTM weights:\n{report}"
        );
    }

    #[test]
    fn seeded_unguarded_exp_is_caught_in_the_decoder() {
        // Needs dims where the logit envelope exceeds ln(f32::MAX); the
        // tiny 8-dim config keeps |logits| < 89 and a bare exp is (soundly)
        // not flagged there.
        let cfg = RetiaConfig { dim: 32, channels: 8, k: 2, ..Default::default() };
        let model = Retia::with_shape(&cfg, 12, 3);
        let report = Seeded::audit(&model, Bug::ExpLogits);
        assert!(!report.is_clean(), "unguarded exp passed the audit");
        assert!(
            report.issues.iter().any(|i| {
                i.kind == retia_analyze::AuditKind::NonFinite
                    && i.op == "exp"
                    && i.path.contains("decode.entity [Eq. 11/13]")
            }),
            "no finding blames exp in the entity decoder:\n{report}"
        );
    }

    #[test]
    fn seeded_reduction_reorder_is_caught() {
        let model = Retia::with_shape(&tiny_cfg(), 12, 3);
        let report = Seeded::audit(&model, Bug::ReorderSoftmax);
        assert!(!report.is_clean(), "order-sensitive reorder passed the audit");
        assert!(
            report.issues.iter().any(|i| {
                i.kind == retia_analyze::AuditKind::Reorder
                    && i.op.contains("softmax_rows/row-sum")
                    && i.path.contains("decode.entity")
            }),
            "no finding vetoes the softmax row-sum reorder:\n{report}"
        );
    }

    #[test]
    fn audit_scales_to_paper_dims_fast() {
        let start = std::time::Instant::now();
        let report = audit_config(&RetiaConfig::paper_scale(), 23_033, 256);
        assert!(report.is_clean(), "{report}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "audit took {:?}",
            start.elapsed()
        );
    }
}
