//! Model-level audit: an abstract interpretation of one full training step
//! (evolve → decode → loss → backward) over shapes and the interval +
//! finiteness domain, plus gradient-flow reachability from the loss and
//! reduction-order declarations. A clean audit proves that the model's
//! tensors wire together (every shape and index-space precondition the real
//! kernels assert holds), that the wired model cannot produce NaN/inf under
//! the [`retia_analyze::value::PARAM_BOUND`] parameter envelope, and that
//! every trainable parameter either receives gradient or is declared frozen
//! (with the ablation flag that freezes it).
//!
//! The replay is built from the per-layer `audit` twins in `retia_nn`
//! composed exactly as [`Retia::evolve`]/[`Retia::loss`] compose the real
//! layers, over a synthetic window that touches the extreme ids of every
//! index space. Because it never touches tensor data, even paper-scale
//! configurations audit in well under a second. `retia audit` surfaces it;
//! the trainer pre-flight and the serve boot check run it before any real
//! work, so a mis-wired configuration fails in milliseconds, with the
//! module and paper equation named, instead of mid-epoch.

use retia_analyze::value::PARAM_BOUND;
use retia_analyze::{AuditCtx, AuditIssue, AuditKind, AuditReport, FrozenParam};
use retia_graph::{HyperSnapshot, Quad, Snapshot, NUM_HYPERRELS_WITH_INV};
use retia_nn::audit_mean_pool_segments;
use retia_tensor::transfer::Interval;

use crate::config::{HyperrelMode, RelationMode, RetiaConfig};
use crate::model::{entity_queries, relation_queries, Retia};

/// A two-snapshot history plus a target snapshot exercising the extreme
/// index spaces: entity ids `0` and `N-1`, relation ids `0` and `M-1`, so
/// any gather or segment sum whose index space is off-by-one or mis-sized is
/// caught without running on real data.
fn synthetic_window(
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

/// Seeded-bug injections for the audit replay. All `false` in production;
/// tests flip one at a time to prove the audit catches each class with the
/// right module + equation attribution.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AuditOptions {
    /// (a) Sever the TIM LSTM output from the loss *without* declaring the
    /// detach: its gate weights must be reported unreached.
    pub detach_tim_output: bool,
    /// (b) Apply an unguarded `exp` to the decode logits: the overflow rule
    /// must flag it inside the entity decoder scope.
    pub exp_logits: bool,
    /// (c) Declare a reorder of the softmax row-sum accumulation: the
    /// sensitivity map must veto it.
    pub reorder_softmax_sum: bool,
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
        self.audit_run(&AuditOptions::default())
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

    pub(crate) fn audit_run(&self, opts: &AuditOptions) -> AuditReport {
        let mut ctx = AuditCtx::new();
        let n = self.num_entities();
        let m = self.num_relations();
        let m2 = 2 * m;
        let d = self.cfg.dim;
        let (snaps, hypers, target) = synthetic_window(n, m);
        let param_iv = Interval::new(-PARAM_BOUND, PARAM_BOUND);

        // ---- initial embeddings (ablated ones enter as constants, exactly
        // as `Retia::evolve` inserts them) ----
        let ent0_raw =
            if self.cfg.use_eam { ctx.param("ent0", n, d) } else { ctx.source(n, d, param_iv) };
        let e0 = if self.cfg.normalize_entities { ctx.normalize_rows(ent0_raw) } else { ent0_raw };
        let r0 = match self.cfg.relation_mode {
            RelationMode::None => ctx.source(m2, d, param_iv),
            _ => ctx.param("rel0", m2, d),
        };
        let hr0 = ctx.param("hyper0", NUM_HYPERRELS_WITH_INV, d);

        // ---- evolve: the RAM/EAM/TIM recurrence (Eq. 1-10) ----
        let mut e_prev = e0;
        let mut r_prev = r0;
        let mut hr_prev = hr0;
        let mut c_prev = None;
        let mut hc_prev = None;
        let mut states = Vec::with_capacity(snaps.len());

        for (snap, hyper) in snaps.iter().zip(hypers.iter()) {
            let r_t = match self.cfg.relation_mode {
                RelationMode::None | RelationMode::Static => r0,
                RelationMode::Mp => ctx.scoped("tim", Some("Eq. 7"), |ctx| {
                    let pooled = audit_mean_pool_segments(ctx, e_prev, &snap.rel_entities);
                    let fb = ctx.row_scale(r0, snap.rel_entities.len(), Interval::new(0.0, 1.0));
                    ctx.add(pooled, fb)
                }),
                RelationMode::MpLstm | RelationMode::MpLstmAgg => {
                    let r_lstm = if self.cfg.use_tim {
                        ctx.scoped("tim.lstm", Some("Eq. 7-8"), |ctx| {
                            let pooled = audit_mean_pool_segments(ctx, e_prev, &snap.rel_entities);
                            let r_mean = ctx.concat_cols(r0, pooled);
                            let c0 =
                                c_prev.unwrap_or_else(|| ctx.source(m2, d, Interval::point(0.0)));
                            let (h, c) = self.tim_lstm.audit(ctx, r_mean, r_prev, c0);
                            c_prev = Some(c);
                            if opts.detach_tim_output {
                                // Seeded bug (a): an *undeclared* detach —
                                // the value flows on but the backward edge
                                // is gone.
                                let (rows, cols) = ctx.shape(h);
                                let iv = ctx.interval(h);
                                ctx.source(rows, cols, iv)
                            } else {
                                h
                            }
                        })
                    } else {
                        r_prev
                    };

                    if self.cfg.relation_mode == RelationMode::MpLstmAgg {
                        let hr_t = match self.cfg.hyperrel_mode {
                            HyperrelMode::Init => hr0,
                            HyperrelMode::Hmp => ctx.scoped("tim.hyper", Some("Eq. 9"), |ctx| {
                                let pooled =
                                    audit_mean_pool_segments(ctx, r_lstm, &hyper.hrel_relations);
                                let fb = ctx.row_scale(
                                    hr0,
                                    hyper.hrel_relations.len(),
                                    Interval::new(0.0, 1.0),
                                );
                                ctx.add(pooled, fb)
                            }),
                            HyperrelMode::HmpHlstm => {
                                ctx.scoped("tim.hyper_lstm", Some("Eq. 9-10"), |ctx| {
                                    let pooled = audit_mean_pool_segments(
                                        ctx,
                                        r_lstm,
                                        &hyper.hrel_relations,
                                    );
                                    let hr_mean = ctx.concat_cols(hr0, pooled);
                                    let hc0 = hc_prev.unwrap_or_else(|| {
                                        ctx.source(NUM_HYPERRELS_WITH_INV, d, Interval::point(0.0))
                                    });
                                    let (h, c) = self.hyper_lstm.audit(ctx, hr_mean, hr_prev, hc0);
                                    hc_prev = Some(c);
                                    hr_prev = h;
                                    h
                                })
                            }
                        };
                        let r_agg = ctx.scoped("ram", Some("Eq. 1-2"), |ctx| {
                            self.ram_rgcn.audit(ctx, r_lstm, hr_t, hyper)
                        });
                        ctx.scoped("ram.gru", Some("Eq. 3"), |ctx| {
                            self.rel_gru.audit(ctx, r_agg, r_lstm)
                        })
                    } else {
                        r_lstm
                    }
                }
            };

            let e_t = if self.cfg.use_eam {
                ctx.scoped("eam", Some("Eq. 4-6"), |ctx| {
                    let rel_for_eam =
                        if self.cfg.use_tim { r_t } else { ctx.param("eam_rel0", m2, d) };
                    let e_agg = self.eam_rgcn.audit(ctx, e_prev, rel_for_eam, snap);
                    let e = self.ent_gru.audit(ctx, e_agg, e_prev);
                    if self.cfg.normalize_entities {
                        ctx.normalize_rows(e)
                    } else {
                        e
                    }
                })
            } else {
                e_prev
            };

            states.push((e_t, r_t));
            e_prev = e_t;
            r_prev = r_t;
        }

        // ---- decode + loss (Eq. 11-14) ----
        let (subjects, rels, e_targets) = entity_queries(&target, m);
        let pe = ctx.scoped("decode.entity", Some("Eq. 11/13"), |ctx| {
            if opts.reorder_softmax_sum {
                // Seeded bug (c): a shard plan over the softmax row-sum
                // accumulation — order-sensitive, must be vetoed.
                ctx.reorder("softmax_rows", "row-sum");
            }
            let mut probs = Vec::with_capacity(states.len());
            for &(e_t, r_t) in &states {
                let s_emb = ctx.gather_rows(e_t, &subjects);
                let r_emb = ctx.gather_rows(r_t, &rels);
                let mut logits = self.dec_entity.audit(ctx, s_emb, r_emb, e_t);
                if opts.exp_logits {
                    // Seeded bug (b): an unguarded exponential over the
                    // unbounded logits.
                    logits = ctx.exp(logits);
                }
                probs.push(ctx.softmax_rows(logits));
            }
            ctx.add_n(&probs)
        });

        let (rs, ro, r_targets) = relation_queries(&target);
        let orig: Vec<u32> = (0..m as u32).collect();
        let pr = ctx.scoped("decode.relation", Some("Eq. 12/14"), |ctx| {
            let mut probs = Vec::with_capacity(states.len());
            for &(e_t, r_t) in &states {
                let s_emb = ctx.gather_rows(e_t, &rs);
                let o_emb = ctx.gather_rows(e_t, &ro);
                let cand = ctx.gather_rows(r_t, &orig);
                let logits = self.dec_relation.audit(ctx, s_emb, o_emb, cand);
                probs.push(ctx.softmax_rows(logits));
            }
            ctx.add_n(&probs)
        });

        let loss = ctx.scoped("loss", Some("Eq. 13-14"), |ctx| {
            let picked_e = ctx.gather_cols(pe, &e_targets);
            let ln_e = ctx.ln(picked_e, 1e-9);
            let mean_e = ctx.mean_all(ln_e);
            let le = ctx.scale(mean_e, -1.0);
            let picked_r = ctx.gather_cols(pr, &r_targets);
            let ln_r = ctx.ln(picked_r, 1e-9);
            let mean_r = ctx.mean_all(ln_r);
            let lr = ctx.scale(mean_r, -1.0);
            let we = ctx.scale(le, f64::from(self.cfg.lambda));
            let wr = ctx.scale(lr, f64::from(1.0 - self.cfg.lambda));
            let mut loss = ctx.add(we, wr);
            if self.cfg.static_weight > 0.0 && self.cfg.use_eam {
                let ent0 = ctx.param("ent0", n, d);
                let e0n = ctx.normalize_rows(ent0);
                let mut terms = Vec::with_capacity(states.len());
                for (j, &(e_t, _)) in states.iter().enumerate() {
                    let en =
                        if self.cfg.normalize_entities { e_t } else { ctx.normalize_rows(e_t) };
                    let prod = ctx.mul(en, e0n);
                    let cos = ctx.sum_rows(prod);
                    let angle = (f64::from(self.cfg.static_angle_deg) * (j + 1) as f64).min(90.0);
                    let thr = angle.to_radians().cos();
                    let neg = ctx.scale(cos, -1.0);
                    let gap = ctx.add_scalar(neg, thr);
                    let pen = ctx.relu(gap);
                    terms.push(ctx.mean_all(pen));
                }
                let total = ctx.add_n(&terms);
                let stat = ctx.scale(total, 1.0 / states.len().max(1) as f64);
                let ws = ctx.scale(stat, f64::from(self.cfg.static_weight));
                loss = ctx.add(loss, ws);
            }
            loss
        });

        let frozen = self.frozen_params(&hypers);
        ctx.check_gradient_flow(loss, &frozen);

        // ---- store cross-check: every registered parameter must be on the
        // abstract tape or in the frozen table — a name in neither means the
        // audit replay (or the model) forgot a module ----
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

#[cfg(test)]
mod tests {
    use super::*;
    use retia_nn::{ConvTransE, LstmCell};

    fn tiny_cfg() -> RetiaConfig {
        RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() }
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
        for rm in [
            RelationMode::None,
            RelationMode::Static,
            RelationMode::Mp,
            RelationMode::MpLstm,
            RelationMode::MpLstmAgg,
        ] {
            for hm in [HyperrelMode::Init, HyperrelMode::Hmp, HyperrelMode::HmpHlstm] {
                for (tim, eam) in [(true, true), (false, true), (true, false)] {
                    let cfg = RetiaConfig {
                        relation_mode: rm,
                        hyperrel_mode: hm,
                        use_tim: tim,
                        use_eam: eam,
                        static_weight: 1.0,
                        ..tiny_cfg()
                    };
                    let report = audit_config(&cfg, 9, 2);
                    assert!(
                        report.is_clean(),
                        "findings for {rm:?}/{hm:?}/tim={tim}/eam={eam}:\n{report}"
                    );
                }
            }
        }
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
        let report =
            model.audit_run(&AuditOptions { detach_tim_output: true, ..Default::default() });
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
        let report = model.audit_run(&AuditOptions { exp_logits: true, ..Default::default() });
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
        let report =
            model.audit_run(&AuditOptions { reorder_softmax_sum: true, ..Default::default() });
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
