//! The RETIA model: parameters, the evolution recurrence (RAM + EAM + TIM)
//! and the time-variability decoders.

use std::rc::Rc;

use retia_data::TkgDataset;
use retia_graph::{HyperSnapshot, Snapshot, NUM_HYPERRELS_WITH_INV};
use retia_nn::{
    mean_pool_segments, ConvTransE, EntityRgcn, GruCell, LstmCell, RelationRgcn, WeightMode,
};
use retia_tensor::{NodeId, Ops, ParamStore, Tensor};

use crate::config::{HyperrelMode, RelationMode, RetiaConfig};

/// Per-step angle increment (degrees) of the static-constraint threshold.
const STATIC_ANGLE_DEG: f32 = 10.0;

/// The `(E_t, R_t)` pair produced for one historical timestamp, as handles
/// of the execution that produced it (graph nodes by default).
#[derive(Clone, Copy, Debug)]
pub struct EvolvedState<I = NodeId> {
    /// Entity embeddings `E_t` (`[N, d]`).
    pub entities: I,
    /// Relation embeddings `R_t` (`[2M, d]`, inverses included).
    pub relations: I,
}

/// The RETIA model. Holds the parameter store and the module definitions;
/// each forward pass unrolls the recurrence in a fresh autodiff
/// [`Graph`](retia_tensor::Graph). The step is written once over [`Ops`]:
/// `retia audit` runs the same `evolve` and `loss` over the abstract
/// interpreter (see `audit.rs`).
pub struct Retia {
    /// Configuration the model was built with.
    pub cfg: RetiaConfig,
    num_entities: usize,
    num_relations: usize,
    store: ParamStore,
    pub(crate) ram_rgcn: RelationRgcn,
    pub(crate) eam_rgcn: EntityRgcn,
    pub(crate) rel_gru: GruCell,
    pub(crate) ent_gru: GruCell,
    pub(crate) tim_lstm: LstmCell,
    pub(crate) hyper_lstm: LstmCell,
    pub(crate) dec_entity: ConvTransE,
    pub(crate) dec_relation: ConvTransE,
}

impl Retia {
    /// Builds a model for `ds`, registering all parameters.
    pub fn new(cfg: &RetiaConfig, ds: &TkgDataset) -> Self {
        cfg.validate().expect("invalid RetiaConfig");
        Self::with_shape(cfg, ds.num_entities, ds.num_relations)
    }

    /// Builds a model from raw entity/relation counts.
    pub fn with_shape(cfg: &RetiaConfig, num_entities: usize, num_relations: usize) -> Self {
        Self::with_store(cfg, num_entities, num_relations, ParamStore::new(cfg.seed))
    }

    /// Builds a model whose parameters are registered into `store`: fresh
    /// initial values from a new store, decoded ones from a loading store
    /// (`ParamStore::loading`).
    pub(crate) fn with_store(
        cfg: &RetiaConfig,
        num_entities: usize,
        num_relations: usize,
        mut store: ParamStore,
    ) -> Self {
        let d = cfg.dim;
        let m2 = 2 * num_relations;
        store.register_xavier("ent0", num_entities, d);
        store.register_xavier("rel0", m2, d);
        store.register_xavier("hyper0", NUM_HYPERRELS_WITH_INV, d);
        // Separate static relation table for the EAM when the TIM channel is
        // severed ("two different and inconsistent individuals", §IV-D).
        store.register_xavier("eam_rel0", m2, d);

        let ram_rgcn = RelationRgcn::new(
            &mut store,
            "ram",
            d,
            WeightMode::PerRelation,
            cfg.rgcn_layers,
            cfg.dropout,
        );
        let eam_rgcn = EntityRgcn::new(
            &mut store,
            "eam",
            d,
            m2,
            WeightMode::Basis(cfg.num_bases.min(m2)),
            cfg.rgcn_layers,
            cfg.dropout,
        );
        let rel_gru = GruCell::new(&mut store, "rgru_rel", d, d);
        let ent_gru = GruCell::new(&mut store, "rgru_ent", d, d);
        let tim_lstm = LstmCell::new(&mut store, "tim_lstm", 2 * d, d);
        let hyper_lstm = LstmCell::new(&mut store, "hyper_lstm", 2 * d, d);
        let dec_entity =
            ConvTransE::new(&mut store, "dec_e", d, cfg.channels, cfg.ksize, cfg.dropout);
        let dec_relation =
            ConvTransE::new(&mut store, "dec_r", d, cfg.channels, cfg.ksize, cfg.dropout);

        Retia {
            cfg: cfg.clone(),
            num_entities,
            num_relations,
            store,
            ram_rgcn,
            eam_rgcn,
            rel_gru,
            ent_gru,
            tim_lstm,
            hyper_lstm,
            dec_entity,
            dec_relation,
        }
    }

    /// Number of entities `N`.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Number of original relations `M`.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// The parameter store (read access).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The parameter store (mutable; used by the trainer for backward and
    /// optimizer steps).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// A copy carrying this model's parameter values and nothing else: it
    /// shares the value buffers until either model writes, and holds no
    /// gradient or optimizer state (a trainer built on it starts from zero
    /// moments, as on a fresh model).
    pub fn values_copy(&self) -> Retia {
        Retia {
            cfg: self.cfg.clone(),
            num_entities: self.num_entities,
            num_relations: self.num_relations,
            store: self.store.values_only(),
            ram_rgcn: self.ram_rgcn.clone(),
            eam_rgcn: self.eam_rgcn.clone(),
            rel_gru: self.rel_gru.clone(),
            ent_gru: self.ent_gru.clone(),
            tim_lstm: self.tim_lstm.clone(),
            hyper_lstm: self.hyper_lstm.clone(),
            dec_entity: self.dec_entity.clone(),
            dec_relation: self.dec_relation.clone(),
        }
    }

    /// Unrolls the RAM/EAM/TIM recurrence over `history`, returning one
    /// [`EvolvedState`] per historical snapshot (or a single initial state if
    /// the history is empty, so decoding is always possible).
    pub fn evolve<O: Ops>(
        &self,
        g: &mut O,
        history: &[Snapshot],
        hypers: &[HyperSnapshot],
    ) -> Vec<EvolvedState<O::Id>> {
        assert_eq!(history.len(), hypers.len(), "history/hypergraph length mismatch");
        let d = self.cfg.dim;
        let m2 = 2 * self.num_relations;
        let store = &self.store;

        // The paper's module ablations freeze the ablated embeddings at their
        // random initialization (no gradient), so insert constants then.
        let ent0_raw =
            if self.cfg.use_eam { g.param(store, "ent0") } else { g.frozen_param(store, "ent0") };
        let e0 = g.normalize_rows(ent0_raw);
        let r0 = match self.cfg.relation_mode {
            RelationMode::None => g.frozen_param(store, "rel0"),
            _ => g.param(store, "rel0"),
        };
        let hr0 = g.param(store, "hyper0");

        if history.is_empty() {
            return vec![EvolvedState { entities: e0, relations: r0 }];
        }

        let mut e_prev = e0;
        let mut r_prev = r0;
        let mut hr_prev = hr0;
        let mut c_prev: Option<O::Id> = None;
        let mut hc_prev: Option<O::Id> = None;
        let mut states = Vec::with_capacity(history.len());

        for (snap, hyper) in history.iter().zip(hypers.iter()) {
            // After each layer, an inference graph frees this snapshot's
            // values that no later line reads; each keep list names what
            // the lines below it read and the recurrent state carried so far
            // (a no-op when recording).
            let mark = g.num_nodes();
            // ---- relation update (TIM Eq. 7-8 + RAM Eq. 1-3) ----
            let r_t = match self.cfg.relation_mode {
                RelationMode::None | RelationMode::Static => r0,
                RelationMode::Mp => g.frame("tim", Some("Eq. 7"), |g| {
                    let pooled = mean_pool_segments(g, e_prev, &snap.rel_entities);
                    Self::fallback_absent(g, pooled, r0, &snap.rel_entities)
                }),
                RelationMode::MpLstm | RelationMode::MpLstmAgg => {
                    let r_lstm = if self.cfg.use_tim {
                        let _t = g.span("tim.lstm", &[]);
                        let h = g.frame("tim.lstm", Some("Eq. 7-8"), |g| {
                            // Eq. 7: R_mean = [R_0 ; MP(E_{t-1}, E_r^t)].
                            let pooled = mean_pool_segments(g, e_prev, &snap.rel_entities);
                            let r_mean = g.concat_cols(r0, pooled);
                            // Eq. 8: LSTM along the snapshot sequence.
                            let c0 = c_prev.unwrap_or_else(|| g.zeros(m2, d));
                            let (h, c) = self.tim_lstm.forward(g, store, r_mean, r_prev, c0);
                            c_prev = Some(c);
                            h
                        });
                        g.release_since(mark, &with_cells(&[h, hr_prev], c_prev, hc_prev));
                        h
                    } else {
                        // TIM severed: no entity→relation channel; relations
                        // evolve from their previous state alone.
                        r_prev
                    };

                    if self.cfg.relation_mode == RelationMode::MpLstmAgg {
                        let _t = g.span("ram.aggregate", &[]);
                        // Hyperrelation embeddings entering the RAM (Eq. 9-10).
                        let hr_t = match self.cfg.hyperrel_mode {
                            HyperrelMode::Init => hr0,
                            HyperrelMode::Hmp => g.frame("tim.hyper", Some("Eq. 9"), |g| {
                                let pooled = mean_pool_segments(g, r_lstm, &hyper.hrel_relations);
                                Self::fallback_absent(g, pooled, hr0, &hyper.hrel_relations)
                            }),
                            HyperrelMode::HmpHlstm => {
                                g.frame("tim.hyper_lstm", Some("Eq. 9-10"), |g| {
                                    let pooled =
                                        mean_pool_segments(g, r_lstm, &hyper.hrel_relations);
                                    let hr_mean = g.concat_cols(hr0, pooled);
                                    let hc0 = hc_prev
                                        .unwrap_or_else(|| g.zeros(NUM_HYPERRELS_WITH_INV, d));
                                    let (h, c) =
                                        self.hyper_lstm.forward(g, store, hr_mean, hr_prev, hc0);
                                    hc_prev = Some(c);
                                    hr_prev = h;
                                    h
                                })
                            }
                        };
                        let live = with_cells(&[r_lstm, hr_t, hr_prev], c_prev, hc_prev);
                        g.release_since(mark, &live);
                        // Eq. 2: aggregate adjacent relations + hyperrelations.
                        let r_agg = g.frame("ram", Some("Eq. 1-2"), |g| {
                            self.ram_rgcn.forward(g, store, r_lstm, hr_t, hyper)
                        });
                        // Eq. 3: residual GRU against the pre-aggregation state.
                        g.frame("ram.gru", Some("Eq. 3"), |g| {
                            self.rel_gru.forward(g, store, r_agg, r_lstm)
                        })
                    } else {
                        r_lstm
                    }
                }
            };

            g.release_since(mark, &with_cells(&[r_t, hr_prev], c_prev, hc_prev));

            // ---- entity update (EAM Eq. 4-6) ----
            let e_t = if self.cfg.use_eam {
                let _t = g.span("eam.rgcn", &[]);
                g.frame("eam", Some("Eq. 4-6"), |g| {
                    let rel_for_eam =
                        if self.cfg.use_tim { r_t } else { g.param(store, "eam_rel0") };
                    let e_agg = self.eam_rgcn.forward(g, store, e_prev, rel_for_eam, snap);
                    let e = self.ent_gru.forward(g, store, e_agg, e_prev);
                    g.normalize_rows(e)
                })
            } else {
                e_prev
            };

            // Only E_t, R_t and the recurrent state (the hyperrelation
            // embeddings and both LSTM cells) outlive the snapshot, so an
            // inference graph frees the rest now (no-op when recording).
            g.release_since(mark, &with_cells(&[e_t, r_t, hr_prev], c_prev, hc_prev));
            states.push(EvolvedState { entities: e_t, relations: r_t });
            e_prev = e_t;
            r_prev = r_t;
        }
        states
    }

    /// Rows of `pooled` whose segment was empty are replaced by the
    /// corresponding `fallback` row (absent relations keep their initial
    /// embedding instead of collapsing to zero).
    fn fallback_absent<O: Ops>(
        g: &mut O,
        pooled: O::Id,
        fallback: O::Id,
        segments: &[Vec<u32>],
    ) -> O::Id {
        let absent: Rc<Vec<f32>> =
            Rc::new(segments.iter().map(|s| if s.is_empty() { 1.0 } else { 0.0 }).collect());
        let fb = g.row_scale(fallback, absent);
        g.add(pooled, fb)
    }

    /// Summed per-timestamp probabilities for entity queries
    /// (Eq. 11 + the time-variability sum of Eq. 13): `[Q, N]`.
    ///
    /// `subjects[i]` and `rels[i]` define query `i`; `rels` may contain
    /// inverse ids (`r + M`) for subject forecasting.
    pub fn entity_prob_sum<O: Ops>(
        &self,
        g: &mut O,
        states: &[EvolvedState<O::Id>],
        subjects: Rc<Vec<u32>>,
        rels: Rc<Vec<u32>>,
    ) -> O::Id {
        assert!(!states.is_empty(), "need at least one evolved state");
        let _t = g.span("decode.entity", &[("timestamps", states.len() as f64)]);
        g.frame("decode.entity", Some("Eq. 11/13"), |g| {
            let mut probs = Vec::with_capacity(states.len());
            for st in states {
                let mark = g.num_nodes();
                let s_emb = g.gather_rows(st.entities, subjects.clone());
                let r_emb = g.gather_rows(st.relations, rels.clone());
                let logits = self.dec_entity.forward(g, &self.store, s_emb, r_emb, st.entities);
                let p = g.softmax_rows(logits);
                // Only the timestamp's probabilities outlive it (no-op when
                // recording).
                g.release_since(mark, &[p]);
                probs.push(p);
            }
            g.add_n(&probs)
        })
    }

    /// Summed per-timestamp probabilities for relation queries
    /// (Eq. 12 + Eq. 14): `[Q, M]` over the original (non-inverse) relations.
    pub fn relation_prob_sum<O: Ops>(
        &self,
        g: &mut O,
        states: &[EvolvedState<O::Id>],
        subjects: Rc<Vec<u32>>,
        objects: Rc<Vec<u32>>,
    ) -> O::Id {
        assert!(!states.is_empty(), "need at least one evolved state");
        let _t = g.span("decode.relation", &[("timestamps", states.len() as f64)]);
        g.frame("decode.relation", Some("Eq. 12/14"), |g| {
            let orig: Rc<Vec<u32>> = Rc::new((0..self.num_relations as u32).collect());
            let mut probs = Vec::with_capacity(states.len());
            for st in states {
                let mark = g.num_nodes();
                let s_emb = g.gather_rows(st.entities, subjects.clone());
                let o_emb = g.gather_rows(st.entities, objects.clone());
                let cand = g.gather_rows(st.relations, orig.clone());
                let logits = self.dec_relation.forward(g, &self.store, s_emb, o_emb, cand);
                let p = g.softmax_rows(logits);
                g.release_since(mark, &[p]);
                probs.push(p);
            }
            g.add_n(&probs)
        })
    }

    /// Joint training loss for forecasting `target`'s facts from `states`
    /// (Eq. 13/14 with weight `λ`, plus the optional static-consistency
    /// constraint). Returns `(loss, entity_loss, relation_loss)`; read the
    /// two terms' values off a graph with `g.value(id).item()`.
    pub fn loss<O: Ops>(
        &self,
        g: &mut O,
        states: &[EvolvedState<O::Id>],
        target: &Snapshot,
    ) -> (O::Id, O::Id, O::Id) {
        let (subjects, rels, e_targets) = entity_queries(target, self.num_relations);
        let (rs, ro, r_targets) = relation_queries(target);

        let pe = self.entity_prob_sum(g, states, Rc::new(subjects), Rc::new(rels));
        let le = g.frame("loss", Some("Eq. 13-14"), |g| nll(g, pe, e_targets));
        let pr = self.relation_prob_sum(g, states, Rc::new(rs), Rc::new(ro));
        let lr = g.frame("loss", Some("Eq. 13-14"), |g| nll(g, pr, r_targets));

        let loss = g.frame("loss", Some("Eq. 13-14"), |g| {
            let we = g.scale(le, self.cfg.lambda);
            let wr = g.scale(lr, 1.0 - self.cfg.lambda);
            let loss = g.add(we, wr);
            if self.cfg.static_weight > 0.0 && self.cfg.use_eam {
                let stat = self.static_constraint(g, states);
                let ws = g.scale(stat, self.cfg.static_weight);
                g.add(loss, ws)
            } else {
                loss
            }
        });
        (loss, le, lr)
    }

    /// Static-consistency constraint (the RE-GCN-style auxiliary loss the
    /// paper enables on the ICEWS datasets): the angle between each evolved
    /// entity embedding and its initial embedding may grow by at most
    /// [`STATIC_ANGLE_DEG`] per step; violations are penalized linearly.
    fn static_constraint<O: Ops>(&self, g: &mut O, states: &[EvolvedState<O::Id>]) -> O::Id {
        let ent0 = g.param(&self.store, "ent0");
        let e0n = g.normalize_rows(ent0);
        let mut terms = Vec::with_capacity(states.len());
        for (j, st) in states.iter().enumerate() {
            // Evolved entity embeddings are unit rows already.
            let prod = g.mul(st.entities, e0n);
            let cos = g.sum_rows(prod);
            let angle = (STATIC_ANGLE_DEG * (j + 1) as f32).min(90.0);
            let thr = angle.to_radians().cos();
            let neg = g.scale(cos, -1.0);
            let gap = g.add_scalar(neg, thr);
            let pen = g.relu(gap);
            terms.push(g.mean_all(pen));
        }
        let total = g.add_n(&terms);
        g.scale(total, 1.0 / states.len().max(1) as f32)
    }

    /// Inference: summed entity probabilities (`[Q, N]`) through
    /// [`Retia::evolve_window`] and [`Retia::decode_entity`].
    pub fn predict_entity(
        &self,
        history: &[Snapshot],
        hypers: &[HyperSnapshot],
        subjects: Vec<u32>,
        rels: Vec<u32>,
    ) -> Tensor {
        self.decode_entity(&self.evolve_window(history, hypers), subjects, rels)
    }

    /// Inference: summed relation probabilities (`[Q, M]`).
    pub fn predict_relation(
        &self,
        history: &[Snapshot],
        hypers: &[HyperSnapshot],
        subjects: Vec<u32>,
        objects: Vec<u32>,
    ) -> Tensor {
        self.decode_relation(&self.evolve_window(history, hypers), subjects, objects)
    }
}

/// A keep list for `release_since` inside a snapshot: `ids` plus the
/// TIM and hyperrelation LSTM cells carried so far.
fn with_cells<I: Copy>(ids: &[I], c: Option<I>, hc: Option<I>) -> Vec<I> {
    ids.iter().copied().chain(c).chain(hc).collect()
}

/// The last `k` states (all of them if fewer).
pub(crate) fn last_k<I>(states: &[EvolvedState<I>], k: usize) -> &[EvolvedState<I>] {
    &states[states.len().saturating_sub(k)..]
}

/// The negative log-likelihood of each row's `targets` column of summed
/// probabilities, averaged (one term of Eq. 13/14).
fn nll<O: Ops>(g: &mut O, probs: O::Id, targets: Vec<u32>) -> O::Id {
    let picked = g.gather_cols(probs, Rc::new(targets));
    let ln = g.ln(picked, 1e-9);
    let mean = g.mean_all(ln);
    g.scale(mean, -1.0)
}

/// Entity-forecasting queries of a snapshot: each fact `(s, r, o)` yields the
/// object query `(s, r) → o` and the subject query `(o, r + M) → s`.
pub fn entity_queries(snap: &Snapshot, num_relations: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let m = num_relations as u32;
    let mut subjects = Vec::with_capacity(snap.facts.len() * 2);
    let mut rels = Vec::with_capacity(snap.facts.len() * 2);
    let mut targets = Vec::with_capacity(snap.facts.len() * 2);
    for q in &snap.facts {
        subjects.push(q.s);
        rels.push(q.r);
        targets.push(q.o);
        subjects.push(q.o);
        rels.push(q.r + m);
        targets.push(q.s);
    }
    (subjects, rels, targets)
}

/// Relation-forecasting queries of a snapshot: `(s, o) → r` per original
/// fact (relation candidates are the `M` original relations, per the paper).
pub fn relation_queries(snap: &Snapshot) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut subjects = Vec::with_capacity(snap.facts.len());
    let mut objects = Vec::with_capacity(snap.facts.len());
    let mut targets = Vec::with_capacity(snap.facts.len());
    for q in &snap.facts {
        subjects.push(q.s);
        objects.push(q.o);
        targets.push(q.r);
    }
    (subjects, objects, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia_data::SyntheticConfig;
    use retia_tensor::{Graph, NodeId};

    fn tiny_model() -> (Retia, crate::TkgContext) {
        let ds = SyntheticConfig::tiny(1).generate();
        let ctx = crate::TkgContext::new(&ds);
        let cfg = RetiaConfig { dim: 8, channels: 4, k: 2, dropout: 0.0, ..Default::default() };
        (Retia::new(&cfg, &ds), ctx)
    }

    #[test]
    fn evolve_produces_state_per_snapshot() {
        let (model, ctx) = tiny_model();
        let (h, hh) = ctx.history(4, 3);
        let mut g = Graph::new(false, 0);
        let states = model.evolve(&mut g, h, hh);
        assert_eq!(states.len(), 3);
        for st in &states {
            assert_eq!(g.value(st.entities).shape(), (model.num_entities(), 8));
            assert_eq!(g.value(st.relations).shape(), (2 * model.num_relations(), 8));
            assert!(g.value(st.entities).all_finite());
            assert!(g.value(st.relations).all_finite());
        }
    }

    /// The high-water mark of `layer` run alone on a fresh inference graph
    /// over zero inputs of the given shapes, the inputs included.
    fn alone(shapes: &[(usize, usize)], layer: impl FnOnce(&mut Graph, &[NodeId])) -> usize {
        let mut g = Graph::inference();
        let inputs: Vec<NodeId> = shapes.iter().map(|&(r, c)| g.zeros(r, c)).collect();
        layer(&mut g, &inputs);
        g.peak_value_bytes()
    }

    #[test]
    fn inference_evolve_holds_only_outputs_and_carried_state() {
        let (model, ctx) = tiny_model();
        let (h, hh) = ctx.history(ctx.test_idx[0], 5);
        let mut inf = Graph::inference();
        let states = model.evolve(&mut inf, h, hh);
        let mut rec = Graph::new(false, 0);
        model.evolve(&mut rec, h, hh);

        let (n, m2, d) = (model.num_entities(), 2 * model.num_relations(), model.cfg.dim);
        let bytes = |floats: usize| floats * std::mem::size_of::<f32>();
        // Outputs: the normalized E_0 and every snapshot's (E_t, R_t).
        let outputs = bytes(n * d + states.len() * (n + m2) * d);
        // Carried by each snapshot: the TIM cell, the hyperrelation state
        // and its cell.
        let carried = bytes(states.len() * (m2 + 2 * NUM_HYPERRELS_WITH_INV) * d);
        let held = inf.value_bytes();
        assert!(
            held <= outputs + carried,
            "inference evolve holds {held} B, above outputs {outputs} B + carried {carried} B"
        );
        assert!(
            held * 4 < rec.value_bytes(),
            "inference evolve holds {held} B against the recording graph's {} B",
            rec.value_bytes()
        );

        // Every value is freed after its last read, so beside the outputs
        // and the carried state the evolve holds one layer at a time: at
        // most what its largest layer holds run alone, inputs included.
        let (m, s, hr) = (&model, model.store(), NUM_HYPERRELS_WITH_INV);
        let largest_layer = h
            .iter()
            .zip(hh)
            .flat_map(|(snap, hyper)| {
                [
                    alone(&[(n, d), (m2, d)], |g, x| {
                        m.eam_rgcn.forward(g, s, x[0], x[1], snap);
                    }),
                    alone(&[(n, d), (n, d)], |g, x| {
                        m.ent_gru.forward(g, s, x[0], x[1]);
                    }),
                    alone(&[(m2, d), (hr, d)], |g, x| {
                        m.ram_rgcn.forward(g, s, x[0], x[1], hyper);
                    }),
                    alone(&[(m2, d), (m2, d)], |g, x| {
                        m.rel_gru.forward(g, s, x[0], x[1]);
                    }),
                    alone(&[(m2, 2 * d), (m2, d), (m2, d)], |g, x| {
                        m.tim_lstm.forward(g, s, x[0], x[1], x[2]);
                    }),
                    alone(&[(hr, 2 * d), (hr, d), (hr, d)], |g, x| {
                        m.hyper_lstm.forward(g, s, x[0], x[1], x[2]);
                    }),
                ]
            })
            .max()
            .expect("a non-empty window");
        let peak = inf.peak_value_bytes();
        assert!(
            peak <= outputs + carried + largest_layer,
            "inference evolve peaked at {peak} B, above outputs {outputs} B + carried {carried} B \
             + the largest layer's {largest_layer} B"
        );
    }

    #[test]
    fn empty_history_yields_initial_state() {
        let (model, _) = tiny_model();
        let mut g = Graph::new(false, 0);
        let states = model.evolve(&mut g, &[], &[]);
        assert_eq!(states.len(), 1);
    }

    #[test]
    fn entity_probs_are_distributions_times_k() {
        let (model, ctx) = tiny_model();
        let (h, hh) = ctx.history(3, 2);
        let mut g = Graph::new(false, 0);
        let states = model.evolve(&mut g, h, hh);
        let p =
            model.entity_prob_sum(&mut g, &states, Rc::new(vec![0, 1, 2]), Rc::new(vec![0, 1, 2]));
        let v = g.value(p);
        assert_eq!(v.shape(), (3, model.num_entities()));
        // Each timestep contributes a distribution summing to 1.
        for i in 0..3 {
            let s: f32 = v.row(i).iter().sum();
            assert!((s - states.len() as f32).abs() < 1e-3, "row sum {s}");
        }
    }

    #[test]
    fn relation_probs_cover_original_relations_only() {
        let (model, ctx) = tiny_model();
        let (h, hh) = ctx.history(3, 2);
        let mut g = Graph::new(false, 0);
        let states = model.evolve(&mut g, h, hh);
        let p = model.relation_prob_sum(&mut g, &states, Rc::new(vec![0, 1]), Rc::new(vec![2, 3]));
        assert_eq!(g.value(p).shape(), (2, model.num_relations()));
    }

    /// On an inference graph each decoded timestamp frees all but its
    /// probabilities: a decode adds one `[Q, N]` (or `[Q, M]`) per timestamp
    /// plus their sum to what the graph owned before.
    #[test]
    fn inference_decodes_keep_only_each_timestamps_probabilities() {
        let (model, ctx) = tiny_model();
        let (h, hh) = ctx.history(4, 3);
        let mut g = Graph::inference();
        let states = model.evolve(&mut g, h, hh);
        assert!(states.len() > 1);
        let bytes = |g: &Graph, id| g.value(id).len() * std::mem::size_of::<f32>();

        let before = g.value_bytes();
        let (subjects, rels) = (Rc::new(vec![0, 1, 2]), Rc::new(vec![0, 1, 2]));
        let pe = model.entity_prob_sum(&mut g, &states, subjects, rels);
        assert_eq!(g.value_bytes(), before + (states.len() + 1) * bytes(&g, pe));

        let before = g.value_bytes();
        let pr = model.relation_prob_sum(&mut g, &states, Rc::new(vec![0, 1]), Rc::new(vec![2, 3]));
        assert_eq!(g.value_bytes(), before + (states.len() + 1) * bytes(&g, pr));
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let (mut model, ctx) = tiny_model();
        model.cfg.static_weight = 1.0;
        let idx = ctx.train_idx[3];
        let (h, hh) = ctx.history(idx, 2);
        let mut g = Graph::new(true, 7);
        let states = model.evolve(&mut g, h, hh);
        let (loss, le, lr) = model.loss(&mut g, &states, &ctx.snapshots[idx]);
        let (le, lr) = (g.value(le).item(), g.value(lr).item());
        let v = g.value(loss).item();
        assert!(v.is_finite() && v > 0.0, "loss {v}");
        assert!(le > 0.0 && lr > 0.0);
    }

    #[test]
    fn gradients_flow_to_all_module_families() {
        let (mut model, ctx) = tiny_model();
        let idx = ctx.train_idx[3];
        let (h, hh) = ctx.history(idx, 2);
        let mut g = Graph::new(true, 7);
        let states = model.evolve(&mut g, h, hh);
        let (loss, _, _) = model.loss(&mut g, &states, &ctx.snapshots[idx].clone());
        let snap = ctx.snapshots[idx].clone();
        drop(snap);
        g.backward(loss, model.store_mut());
        for name in [
            "ent0",
            "rel0",
            "hyper0",
            "ram.l0.wself",
            "eam.l0.wself",
            "eam.l0.coef",
            "rgru_rel.w",
            "rgru_ent.w",
            "tim_lstm.w",
            "hyper_lstm.w",
            "dec_e.conv.w",
            "dec_r.fc.w",
        ] {
            assert!(model.store().grad(name).norm() > 0.0, "no gradient reached `{name}`");
        }
    }

    /// Every ablation config runs, over a real window and over the audit's
    /// synthetic one, and the same generic `evolve` + `loss` on a recording
    /// training graph (live dropout and rrelu draws) and on the abstract
    /// interpreter agree: equal shapes, and every element of each `E_t`,
    /// each `R_t` and the loss inside its abstract interval.
    #[test]
    fn ablated_modes_still_run() {
        let ds = SyntheticConfig::tiny(2).generate();
        let ctx = crate::TkgContext::new(&ds);
        let (h, hh) = ctx.history(3, 2);
        let (sh, shh, st) = crate::audit::synthetic_window(ds.num_entities, ds.num_relations);
        for cfg in (RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() }).ablation_grid()
        {
            let label = cfg.ablation_label();
            let model = Retia::new(&cfg, &ds);
            for (h, hh, target) in [(h, hh, &ctx.snapshots[3]), (&sh[..], &shh[..], &st)] {
                let mut g = Graph::new(true, 0);
                let states = model.evolve(&mut g, h, hh);
                let (loss, _, _) = model.loss(&mut g, &states, target);
                assert!(g.value(loss).item().is_finite(), "non-finite loss for {label}");

                let mut audit = retia_analyze::AuditCtx::new();
                let abst = model.evolve(&mut audit, h, hh);
                let (abst_loss, _, _) = model.loss(&mut audit, &abst, target);
                let pairs = states
                    .iter()
                    .zip(&abst)
                    .flat_map(|(r, a)| [(r.entities, a.entities), (r.relations, a.relations)]);
                for (i, (r, a)) in pairs.chain([(loss, abst_loss)]).enumerate() {
                    let (value, iv) = (g.value(r), audit.interval(a));
                    assert_eq!(value.shape(), audit.shape(a), "{label}: value {i} shape");
                    let escaped = value.data().iter().find(|&&v| !iv.contains(v));
                    assert!(escaped.is_none(), "{label}: value {i} has {escaped:?} outside {iv}");
                }
            }
        }
    }

    #[test]
    fn query_builders_cover_both_directions() {
        let ds = SyntheticConfig::tiny(1).generate();
        let ctx = crate::TkgContext::new(&ds);
        let snap = &ctx.snapshots[0];
        let (s, r, t) = entity_queries(snap, ds.num_relations);
        assert_eq!(s.len(), snap.facts.len() * 2);
        assert_eq!(r.len(), t.len());
        // Inverse queries use relation ids >= M.
        assert!(r.iter().any(|&x| x >= ds.num_relations as u32));
        let (rs, ro, rt) = relation_queries(snap);
        assert_eq!(rs.len(), snap.facts.len());
        assert_eq!(ro.len(), rt.len());
        assert!(rt.iter().all(|&x| x < ds.num_relations as u32));
    }

    #[test]
    fn num_parameters_reported() {
        let (model, _) = tiny_model();
        assert!(model.num_parameters() > 1000);
    }
}
