//! Model-level dry run: an abstract shape interpretation of one full
//! training step (evolve → decode → loss → backward) over a synthetic
//! snapshot window, reporting every shape/broadcast/index-space mismatch
//! with the module and paper-equation name it occurred in.
//!
//! The replay is built from the per-layer `validate` twins in `retia_nn`
//! (each a shape-only mirror of its `forward`) composed exactly as
//! [`Retia::evolve`]/[`Retia::loss`] compose the real layers. Because the
//! interpreter works on [`ShapeTensor`]s, a dry run of even paper-scale
//! configurations finishes in well under a second and touches no
//! floating-point data.
//!
//! `retia check` in the CLI surfaces this, and the trainer entry points run
//! it before the first gradient step so a mis-wired configuration fails in
//! milliseconds instead of mid-epoch.

use retia_analyze::{ShapeCtx, ShapeReport, ShapeTensor};
use retia_graph::{HyperSnapshot, Quad, Snapshot, NUM_HYPERRELS_WITH_INV};
use retia_nn::{validate_mean_pool_segments, ConvTransE, GruCell, LstmCell};

use crate::config::{HyperrelMode, RelationMode, RetiaConfig};
use crate::model::{entity_queries, relation_queries, Retia};

/// The inter-module tensor widths the dry run wires the layers together
/// with. Derived from the configuration by [`ModelWiring::of`]; tests
/// corrupt individual fields to prove the interpreter catches mis-wirings.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ModelWiring {
    /// Embedding width `d`.
    pub d: usize,
    /// TIM LSTM input width (Eq. 8 concatenates `[R_0 ; MP(...)]` → `2d`).
    pub tim_input: usize,
    /// Hyper LSTM input width (Eq. 10 concatenates `[HR_0 ; HMP(...)]` → `2d`).
    pub hyper_input: usize,
    /// Residual GRU input width (Eq. 3/6 feed the aggregated state → `d`).
    pub gru_input: usize,
    /// Decoder embedding width (Eq. 11/12 → `d`).
    pub dec_dim: usize,
}

impl ModelWiring {
    /// The correct wiring for `cfg`.
    pub(crate) fn of(cfg: &RetiaConfig) -> Self {
        let d = cfg.dim;
        ModelWiring { d, tim_input: 2 * d, hyper_input: 2 * d, gru_input: d, dec_dim: d }
    }
}

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
    /// Dry-runs one full training step (evolve over a synthetic snapshot
    /// window, entity + relation decoding, the joint loss, backward) on
    /// shapes alone, returning every mismatch found. A clean report
    /// ([`ShapeReport::is_clean`]) means the configuration's tensors wire
    /// together; it costs no floating-point work and finishes in
    /// milliseconds at any scale.
    pub fn validate(&self) -> ShapeReport {
        self.dry_run(&ModelWiring::of(&self.cfg))
    }

    pub(crate) fn dry_run(&self, w: &ModelWiring) -> ShapeReport {
        let mut ctx = ShapeCtx::new();
        let n = self.num_entities();
        let m = self.num_relations();
        let m2 = 2 * m;
        let d = w.d;
        let (snaps, hypers, target) = synthetic_window(n, m);

        let e0 = ShapeTensor::new(n, d);
        let r0 = ShapeTensor::new(m2, d);
        let hr0 = ShapeTensor::new(NUM_HYPERRELS_WITH_INV, d);

        // ---- evolve: the RAM/EAM/TIM recurrence (Eq. 1-10) ----
        let mut e_prev = e0;
        let mut r_prev = r0;
        let mut hr_prev = hr0;
        let mut c_prev: Option<ShapeTensor> = None;
        let mut hc_prev: Option<ShapeTensor> = None;
        let mut states: Vec<(ShapeTensor, ShapeTensor)> = Vec::with_capacity(snaps.len());

        for (snap, hyper) in snaps.iter().zip(hypers.iter()) {
            let r_t = match self.cfg.relation_mode {
                RelationMode::None | RelationMode::Static => r0,
                RelationMode::Mp => ctx.scoped("tim", Some("Eq. 7"), |ctx| {
                    let pooled = validate_mean_pool_segments(ctx, e_prev, &snap.rel_entities);
                    let fb = ctx.row_scale(r0, snap.rel_entities.len());
                    ctx.add(pooled, fb)
                }),
                RelationMode::MpLstm | RelationMode::MpLstmAgg => {
                    let r_lstm = if self.cfg.use_tim {
                        ctx.scoped("tim.lstm", Some("Eq. 7-8"), |ctx| {
                            let pooled =
                                validate_mean_pool_segments(ctx, e_prev, &snap.rel_entities);
                            let r_mean = ctx.concat_cols(r0, pooled);
                            let c0 = c_prev.unwrap_or(ShapeTensor::new(m2, d));
                            let (h, c) =
                                LstmCell::validate_dims(ctx, w.tim_input, d, r_mean, r_prev, c0);
                            c_prev = Some(c);
                            h
                        })
                    } else {
                        r_prev
                    };

                    if self.cfg.relation_mode == RelationMode::MpLstmAgg {
                        let hr_t = match self.cfg.hyperrel_mode {
                            HyperrelMode::Init => hr0,
                            HyperrelMode::Hmp => ctx.scoped("tim.hyper", Some("Eq. 9"), |ctx| {
                                let pooled =
                                    validate_mean_pool_segments(ctx, r_lstm, &hyper.hrel_relations);
                                let fb = ctx.row_scale(hr0, hyper.hrel_relations.len());
                                ctx.add(pooled, fb)
                            }),
                            HyperrelMode::HmpHlstm => {
                                ctx.scoped("tim.hyper_lstm", Some("Eq. 9-10"), |ctx| {
                                    let pooled = validate_mean_pool_segments(
                                        ctx,
                                        r_lstm,
                                        &hyper.hrel_relations,
                                    );
                                    let hr_mean = ctx.concat_cols(hr0, pooled);
                                    let hc0 = hc_prev
                                        .unwrap_or(ShapeTensor::new(NUM_HYPERRELS_WITH_INV, d));
                                    let (h, c) = LstmCell::validate_dims(
                                        ctx,
                                        w.hyper_input,
                                        d,
                                        hr_mean,
                                        hr_prev,
                                        hc0,
                                    );
                                    hc_prev = Some(c);
                                    hr_prev = h;
                                    h
                                })
                            }
                        };
                        let r_agg = ctx.scoped("ram", Some("Eq. 1-2"), |ctx| {
                            self.ram_rgcn.validate(ctx, r_lstm, hr_t, hyper)
                        });
                        ctx.scoped("ram.gru", Some("Eq. 3"), |ctx| {
                            GruCell::validate_dims(ctx, w.gru_input, d, r_agg, r_lstm)
                        })
                    } else {
                        r_lstm
                    }
                }
            };

            let e_t = if self.cfg.use_eam {
                ctx.scoped("eam", Some("Eq. 4-6"), |ctx| {
                    let e_agg = self.eam_rgcn.validate(ctx, e_prev, r_t, snap);
                    let e = GruCell::validate_dims(ctx, w.gru_input, d, e_agg, e_prev);
                    if self.cfg.normalize_entities {
                        ctx.unary("normalize_rows", e)
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
            let mut probs = Vec::with_capacity(states.len());
            for &(e_t, r_t) in &states {
                let s_emb = ctx.gather_rows(e_t, &subjects);
                let r_emb = ctx.gather_rows(r_t, &rels);
                let logits = ConvTransE::validate_dims(
                    ctx,
                    w.dec_dim,
                    self.cfg.channels,
                    self.cfg.ksize,
                    s_emb,
                    r_emb,
                    e_t,
                );
                probs.push(ctx.unary("softmax_rows", logits));
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
                let logits = ConvTransE::validate_dims(
                    ctx,
                    w.dec_dim,
                    self.cfg.channels,
                    self.cfg.ksize,
                    s_emb,
                    o_emb,
                    cand,
                );
                probs.push(ctx.unary("softmax_rows", logits));
            }
            ctx.add_n(&probs)
        });

        let loss = ctx.scoped("loss", Some("Eq. 13-14"), |ctx| {
            let picked_e = ctx.gather_cols(pe, &e_targets);
            let ln_e = ctx.unary("ln", picked_e);
            let le = ctx.mean_all(ln_e);
            let picked_r = ctx.gather_cols(pr, &r_targets);
            let ln_r = ctx.unary("ln", picked_r);
            let lr = ctx.mean_all(ln_r);
            let mut loss = ctx.add(le, lr);
            if self.cfg.static_weight > 0.0 && self.cfg.use_eam {
                let e0n = ctx.unary("normalize_rows", e0);
                let mut terms = Vec::with_capacity(states.len());
                for &(e_t, _) in &states {
                    let en = ctx.unary("normalize_rows", e_t);
                    let prod = ctx.mul(en, e0n);
                    let cos = ctx.sum_rows(prod);
                    let pen = ctx.unary("relu", cos);
                    terms.push(ctx.mean_all(pen));
                }
                let stat = ctx.add_n(&terms);
                loss = ctx.add(loss, stat);
            }
            loss
        });
        ctx.backward(loss);

        ctx.finish()
    }
}

/// Builds a model for the given configuration and shape and dry-runs it —
/// the implementation behind `retia check`. Returns the resulting
/// [`ShapeReport`] (clean or listing every mismatch).
pub fn validate_config(
    cfg: &RetiaConfig,
    num_entities: usize,
    num_relations: usize,
) -> ShapeReport {
    let model = Retia::with_shape(cfg, num_entities, num_relations);
    model.validate()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> RetiaConfig {
        RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() }
    }

    #[test]
    fn default_wiring_is_clean() {
        let report = validate_config(&tiny_cfg(), 12, 3);
        assert!(report.is_clean(), "unexpected issues:\n{report}");
        assert!(report.ops_checked > 50, "dry run checked only {} ops", report.ops_checked);
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
                    let report = validate_config(&cfg, 9, 2);
                    assert!(
                        report.is_clean(),
                        "issues for {rm:?}/{hm:?}/tim={tim}/eam={eam}:\n{report}"
                    );
                }
            }
        }
    }

    #[test]
    fn injected_tim_wiring_bug_is_caught_and_named() {
        // Sever the Eq. 8 concatenation: pretend the TIM LSTM expects a
        // plain d-wide input. The dry run must flag it inside the TIM LSTM,
        // not somewhere downstream, and keep replaying to the end.
        let cfg = tiny_cfg();
        let model = Retia::with_shape(&cfg, 12, 3);
        let mut w = ModelWiring::of(&cfg);
        w.tim_input = cfg.dim;
        let report = model.dry_run(&w);
        assert!(!report.is_clean(), "corrupted wiring passed validation");
        assert!(
            report.issues.iter().any(|i| i.path.contains("tim.lstm")),
            "no issue names the TIM LSTM:\n{report}"
        );
    }

    #[test]
    fn injected_decoder_wiring_bug_is_caught() {
        let cfg = tiny_cfg();
        let model = Retia::with_shape(&cfg, 12, 3);
        let mut w = ModelWiring::of(&cfg);
        w.dec_dim = cfg.dim + 1;
        let report = model.dry_run(&w);
        assert!(!report.is_clean());
        assert!(
            report.issues.iter().any(|i| i.path.contains("decode")),
            "no issue names a decoder:\n{report}"
        );
    }

    #[test]
    fn dry_run_scales_to_paper_dims_instantly() {
        // Paper-scale ICEWS18: ~23k entities, 256 relations, d=200. The
        // interpreter must stay well under the CLI's 1-second budget.
        let start = std::time::Instant::now();
        let report = validate_config(&RetiaConfig::paper_scale(), 23_033, 256);
        assert!(report.is_clean(), "{report}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "dry run took {:?}",
            start.elapsed()
        );
    }
}
