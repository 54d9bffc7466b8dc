//! Matrix-factorization baselines: DistMult and ComplEx.
//!
//! Both are *static* models: the time dimension is stripped from the
//! training facts (the paper trains static baselines the same way), so
//! conflicting facts at different timestamps collapse — which is exactly why
//! these methods trail the temporal models in the tables.

use std::rc::Rc;

use rand::rngs::StdRng;
use retia::{Forecaster, Past, TkgContext};
use retia_tensor::{Graph, NodeId, ParamStore, Tensor};

use crate::train::{all_relations, ids, infer, Batch, MinibatchLoss, BATCH, SEED};
use crate::traits::{StaticTrainConfig, TkgBaseline};

/// The `ent` and `rel` tables of a static model with inverse relations.
pub(crate) fn embeddings(dim: usize, ctx: &TkgContext) -> ParamStore {
    let mut store = ParamStore::new(SEED);
    store.register_xavier("ent", ctx.num_entities, dim);
    store.register_xavier("rel", 2 * ctx.num_relations, dim);
    store
}

/// The `ent` and `rel` tables as graph nodes.
pub(crate) fn tables(g: &mut Graph, store: &ParamStore) -> (NodeId, NodeId) {
    (g.param(store, "ent"), g.param(store, "rel"))
}

/// DistMult (Yang et al., 2015): `score(s, r, o) = Σ_k s_k r_k o_k`.
pub struct DistMult {
    cfg: StaticTrainConfig,
    pub(crate) store: ParamStore,
}

impl DistMult {
    /// Builds an untrained model for the dataset behind `ctx`.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        DistMult { store: embeddings(cfg.dim, ctx), cfg }
    }

    /// Entity logits `[Q, N]`: `(s ∘ r) · e` for every row `e` of `ent`.
    pub(crate) fn entity_logits(g: &mut Graph, (ent, rel): (NodeId, NodeId), q: &Batch) -> NodeId {
        let s = g.gather_rows(ent, Rc::clone(&q.subjects));
        let r = g.gather_rows(rel, Rc::clone(&q.rels));
        let sr = g.mul(s, r);
        g.matmul_nt(sr, ent)
    }

    /// Relation logits `[Q, M]` over the first `m` rows of `rel`: the same
    /// score, linear in `r`, as `(s ∘ o) · r`.
    pub(crate) fn relation_logits(
        g: &mut Graph,
        (ent, rel): (NodeId, NodeId),
        subjects: &[u32],
        objects: &[u32],
        m: usize,
    ) -> NodeId {
        let s = g.gather_rows(ent, ids(subjects));
        let o = g.gather_rows(ent, ids(objects));
        let so = g.mul(s, o);
        let cand = g.gather_rows(rel, all_relations(m));
        g.matmul_nt(so, cand)
    }
}

impl MinibatchLoss for DistMult {
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn batch_loss(&self, g: &mut Graph, batch: &Batch, _rng: &mut StdRng) -> NodeId {
        let tables = tables(g, &self.store);
        let logits = Self::entity_logits(g, tables, batch);
        g.softmax_xent(logits, Rc::clone(&batch.objects))
    }
}

impl TkgBaseline for DistMult {
    fn fit(&mut self, ctx: &TkgContext) {
        self.fit_minibatches(ctx, self.cfg.epochs, BATCH);
    }
}

impl Forecaster for DistMult {
    fn entity_scores(&self, _past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
        infer(|g| {
            let tables = tables(g, &self.store);
            Self::entity_logits(g, tables, &Batch::queries(subjects, rels, 0))
        })
    }

    fn relation_scores(&self, past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
        infer(|g| {
            let tables = tables(g, &self.store);
            Self::relation_logits(g, tables, subjects, objects, past.num_relations)
        })
    }
}

/// ComplEx (Trouillon et al., 2016): embeddings in ℂ^{d/2};
/// `score = Re(⟨s, r, conj(o)⟩)`. Stored as `[re | im]` halves.
pub struct ComplEx {
    cfg: StaticTrainConfig,
    pub(crate) store: ParamStore,
}

impl ComplEx {
    /// Builds an untrained model. `cfg.dim` must be even.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        assert!(cfg.dim.is_multiple_of(2), "ComplEx needs an even dimension");
        ComplEx { store: embeddings(cfg.dim, ctx), cfg }
    }

    /// Gathers rows of `table` and splits them into `[re | im]` halves.
    fn halves(&self, g: &mut Graph, table: NodeId, rows: Rc<Vec<u32>>) -> (NodeId, NodeId) {
        let h = self.cfg.dim / 2;
        let x = g.gather_rows(table, rows);
        (g.slice_cols(x, 0, h), g.slice_cols(x, h, 2 * h))
    }

    /// Entity logits `[Q, N]`: `Re(s r conj(o)) = [q_re | q_im] · [o_re | o_im]`
    /// with `q_re = s_re r_re - s_im r_im` and `q_im = s_re r_im + s_im r_re`.
    pub(crate) fn entity_logits(&self, g: &mut Graph, q: &Batch) -> NodeId {
        let (ent, rel) = tables(g, &self.store);
        let (s_re, s_im) = self.halves(g, ent, Rc::clone(&q.subjects));
        let (r_re, r_im) = self.halves(g, rel, Rc::clone(&q.rels));
        let a = g.mul(s_re, r_re);
        let b = g.mul(s_im, r_im);
        let q_re = g.sub(a, b);
        let c = g.mul(s_re, r_im);
        let d = g.mul(s_im, r_re);
        let q_im = g.add(c, d);
        let q = g.concat_cols(q_re, q_im);
        g.matmul_nt(q, ent)
    }
}

impl MinibatchLoss for ComplEx {
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn batch_loss(&self, g: &mut Graph, batch: &Batch, _rng: &mut StdRng) -> NodeId {
        let logits = self.entity_logits(g, batch);
        g.softmax_xent(logits, Rc::clone(&batch.objects))
    }
}

impl TkgBaseline for ComplEx {
    fn fit(&mut self, ctx: &TkgContext) {
        self.fit_minibatches(ctx, self.cfg.epochs, BATCH);
    }
}

impl Forecaster for ComplEx {
    fn entity_scores(&self, _past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
        infer(|g| self.entity_logits(g, &Batch::queries(subjects, rels, 0)))
    }

    /// Relation logits `[Q, M]`: the same score, linear in `r`, with
    /// coefficients `c_re = s_re o_re + s_im o_im`, `c_im = s_im o_re - s_re o_im`.
    fn relation_scores(&self, past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
        infer(|g| {
            let (ent, rel) = tables(g, &self.store);
            let (s_re, s_im) = self.halves(g, ent, ids(subjects));
            let (o_re, o_im) = self.halves(g, ent, ids(objects));
            let a = g.mul(s_re, o_re);
            let b = g.mul(s_im, o_im);
            let c_re = g.add(a, b);
            let c = g.mul(s_im, o_re);
            let d = g.mul(s_re, o_im);
            let c_im = g.sub(c, d);
            let coeff = g.concat_cols(c_re, c_im);
            let cand = g.gather_rows(rel, all_relations(past.num_relations));
            g.matmul_nt(coeff, cand)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Split};
    use retia_data::SyntheticConfig;

    fn ctx() -> TkgContext {
        TkgContext::new(&SyntheticConfig::tiny(5).generate())
    }

    #[test]
    fn distmult_beats_chance_after_training() {
        let ctx = ctx();
        let cfg = StaticTrainConfig { epochs: 10, ..Default::default() };
        let mut m = DistMult::new(cfg, &ctx);
        m.fit(&ctx);
        let report = evaluate(&mut m, &ctx, Split::Test).unwrap();
        let chance = 2.0 / (ctx.num_entities as f64 + 1.0);
        assert!(
            report.entity_raw.mrr() > chance * 3.0,
            "mrr {} vs chance {chance}",
            report.entity_raw.mrr()
        );
        assert!(report.relation_raw.mrr() > 2.0 / (ctx.num_relations as f64 + 1.0));
    }

    #[test]
    fn complex_beats_chance_after_training() {
        let ctx = ctx();
        let cfg = StaticTrainConfig { epochs: 10, ..Default::default() };
        let mut m = ComplEx::new(cfg, &ctx);
        m.fit(&ctx);
        let report = evaluate(&mut m, &ctx, Split::Test).unwrap();
        let chance = 2.0 / (ctx.num_entities as f64 + 1.0);
        assert!(
            report.entity_raw.mrr() > chance * 3.0,
            "mrr {} vs chance {chance}",
            report.entity_raw.mrr()
        );
    }

    #[test]
    fn distmult_relation_scores_linear_consistency() {
        // relation_scores must equal scoring each relation explicitly.
        let ctx = ctx();
        let m = DistMult::new(StaticTrainConfig::default(), &ctx);
        let scores = m.relation_scores(ctx.past(0), &[3], &[5]);
        let ent = m.store.value("ent");
        let rel = m.store.value("rel");
        for r in 0..ctx.num_relations {
            let manual: f32 =
                (0..m.cfg.dim).map(|k| ent.get(3, k) * rel.get(r, k) * ent.get(5, k)).sum();
            assert!((scores.get(0, r) - manual).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "even dimension")]
    fn complex_rejects_odd_dim() {
        let ctx = ctx();
        ComplEx::new(StaticTrainConfig { dim: 7, ..Default::default() }, &ctx);
    }
}
