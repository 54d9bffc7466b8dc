//! Interpolation baselines: TTransE and TA-DistMult.
//!
//! Both learn per-timestamp embeddings, which is exactly why they
//! extrapolate poorly: a *future* timestamp has no trained embedding. We
//! clamp unseen timestamps to the last trained one (the most favorable
//! choice available to the model); the resulting scores still trail the
//! extrapolation family, reproducing the paper's ordering.

use std::rc::Rc;

use rand::rngs::StdRng;
use retia::{Forecaster, Past, TkgContext};
use retia_tensor::{Graph, NodeId, ParamStore, Tensor};

use crate::factorization::embeddings;
use crate::train::{
    all_pairs, all_relations, ids, infer, l1_distances, margin_loss, Batch, MinibatchLoss,
    Timestamps, BATCH,
};
use crate::traits::{StaticTrainConfig, TkgBaseline};

/// Margin γ of TTransE's loss.
const GAMMA: f32 = 4.0;

/// The `ent` and `rel` tables plus one `time` row per timestamp (only
/// training ones receive gradient).
fn timed_embeddings(dim: usize, ctx: &TkgContext) -> ParamStore {
    let mut store = embeddings(dim, ctx);
    store.register_xavier("time", Timestamps::num_ts(ctx), dim);
    store
}

/// The parameter tables of an interpolation model: `ent`, `rel` and `time`.
pub(crate) fn tables(g: &mut Graph, store: &ParamStore) -> (NodeId, NodeId, NodeId) {
    (g.param(store, "ent"), g.param(store, "rel"), g.param(store, "time"))
}

/// TTransE (Jiang et al., 2016): `score = -‖s + r + τ_t - o‖₁`.
pub struct TTransE {
    cfg: StaticTrainConfig,
    pub(crate) store: ParamStore,
    times: Timestamps,
}

impl TTransE {
    /// Builds an untrained model.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        let (store, times) = (timed_embeddings(cfg.dim, ctx), Timestamps::default());
        TTransE { cfg, store, times }
    }

    /// Translated queries `s + r + τ_t` (`[Q, d]`).
    pub(crate) fn query(
        g: &mut Graph,
        (ent, rel, time): (NodeId, NodeId, NodeId),
        q: &Batch,
    ) -> NodeId {
        let s = g.gather_rows(ent, Rc::clone(&q.subjects));
        let r = g.gather_rows(rel, Rc::clone(&q.rels));
        let tau = g.gather_rows(time, Rc::clone(&q.times));
        let sr = g.add(s, r);
        g.add(sr, tau)
    }

    /// `‖q - o‖₁` per row (`[Q, 1]`).
    pub(crate) fn distance(g: &mut Graph, ent: NodeId, q: NodeId, objects: Rc<Vec<u32>>) -> NodeId {
        let o = g.gather_rows(ent, objects);
        let d = g.sub(q, o);
        let a = g.abs(d);
        g.sum_rows(a)
    }
}

impl MinibatchLoss for TTransE {
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn batch_loss(&self, g: &mut Graph, batch: &Batch, rng: &mut StdRng) -> NodeId {
        let tables = tables(g, &self.store);
        let q = Self::query(g, tables, batch);
        let (ent, n) = (tables.0, g.value(tables.0).rows());
        margin_loss(g, batch, GAMMA, n, rng, |g, objects| Self::distance(g, ent, q, objects))
    }
}

impl TkgBaseline for TTransE {
    fn fit(&mut self, ctx: &TkgContext) {
        self.times = self.fit_minibatches(ctx, self.cfg.epochs, BATCH);
    }
}

impl Forecaster for TTransE {
    fn entity_scores(&self, past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
        let t = self.times.clamp(past.t);
        let (q, n) = (subjects.len(), past.num_entities);
        let mut g = Graph::inference();
        let tables = tables(&mut g, &self.store);
        let query = Self::query(&mut g, tables, &Batch::queries(subjects, rels, t));
        let cols: Vec<usize> = (0..self.cfg.dim).collect();
        let dist = l1_distances(g.value(query), g.value(tables.0), all_pairs(q, n), &cols);
        Tensor::from_vec(q, n, dist.into_iter().map(|d| -d).collect())
    }

    fn relation_scores(&self, past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
        let t = self.times.clamp(past.t);
        let pairs = Batch::relation_pairs(subjects, objects, past.num_relations, t);
        let scores = infer(|g| {
            let tables = tables(g, &self.store);
            let q = Self::query(g, tables, &pairs);
            let d = Self::distance(g, tables.0, q, Rc::clone(&pairs.objects));
            g.scale(d, -1.0)
        });
        Tensor::from_vec(subjects.len(), past.num_relations, scores.data().to_vec())
    }
}

/// TA-DistMult (García-Durán et al., 2018), simplified: the time-aware
/// relation is `r + τ_t` (the original composes time tokens with an LSTM;
/// the additive composition preserves the interpolation-vs-extrapolation
/// behaviour the tables test — see DESIGN.md).
pub struct TaDistMult {
    cfg: StaticTrainConfig,
    pub(crate) store: ParamStore,
    times: Timestamps,
}

impl TaDistMult {
    /// Builds an untrained model.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        let (store, times) = (timed_embeddings(cfg.dim, ctx), Timestamps::default());
        TaDistMult { cfg, store, times }
    }

    /// Entity logits `[Q, N]`: `(s ∘ (r + τ_t)) · e` for every entity `e`.
    pub(crate) fn entity_logits(&self, g: &mut Graph, q: &Batch) -> NodeId {
        let (ent, rel, time) = tables(g, &self.store);
        let s = g.gather_rows(ent, Rc::clone(&q.subjects));
        let r = g.gather_rows(rel, Rc::clone(&q.rels));
        let tau = g.gather_rows(time, Rc::clone(&q.times));
        let rt = g.add(r, tau);
        let sr = g.mul(s, rt);
        g.matmul_nt(sr, ent)
    }
}

impl MinibatchLoss for TaDistMult {
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn batch_loss(&self, g: &mut Graph, batch: &Batch, _rng: &mut StdRng) -> NodeId {
        let logits = self.entity_logits(g, batch);
        g.softmax_xent(logits, Rc::clone(&batch.objects))
    }
}

impl TkgBaseline for TaDistMult {
    fn fit(&mut self, ctx: &TkgContext) {
        self.times = self.fit_minibatches(ctx, self.cfg.epochs, BATCH);
    }
}

impl Forecaster for TaDistMult {
    fn entity_scores(&self, past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
        let t = self.times.clamp(past.t);
        infer(|g| self.entity_logits(g, &Batch::queries(subjects, rels, t)))
    }

    /// Relation logits `[Q, M]` at timestamp `t`: `(s ∘ o) · (r + τ_t)` for
    /// every original relation.
    fn relation_scores(&self, past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
        let (t, m) = (self.times.clamp(past.t), past.num_relations);
        infer(|g| {
            let (ent, rel, time) = tables(g, &self.store);
            let s = g.gather_rows(ent, ids(subjects));
            let o = g.gather_rows(ent, ids(objects));
            let so = g.mul(s, o);
            let r = g.gather_rows(rel, all_relations(m));
            let tau = g.gather_rows(time, Rc::new(vec![t; m]));
            let rt = g.add(r, tau);
            g.matmul_nt(so, rt)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Split};
    use retia_data::SyntheticConfig;

    #[test]
    fn ttranse_beats_chance() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(10).generate());
        let cfg = StaticTrainConfig { epochs: 12, ..Default::default() };
        let mut m = TTransE::new(cfg, &ctx);
        m.fit(&ctx);
        let report = evaluate(&mut m, &ctx, Split::Test).unwrap();
        let chance = 2.0 / (ctx.num_entities as f64 + 1.0);
        assert!(
            report.entity_raw.mrr() > chance * 2.0,
            "mrr {} vs chance {chance}",
            report.entity_raw.mrr()
        );
    }

    #[test]
    fn tadistmult_beats_chance() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(10).generate());
        let cfg = StaticTrainConfig { epochs: 10, ..Default::default() };
        let mut m = TaDistMult::new(cfg, &ctx);
        m.fit(&ctx);
        let report = evaluate(&mut m, &ctx, Split::Test).unwrap();
        let chance = 2.0 / (ctx.num_entities as f64 + 1.0);
        assert!(report.entity_raw.mrr() > chance * 3.0);
    }

    #[test]
    fn future_timestamps_clamp() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(10).generate());
        let mut m = TTransE::new(StaticTrainConfig::default(), &ctx);
        m.times.max_trained = 5;
        assert_eq!(m.times.clamp(3), 3);
        assert_eq!(m.times.clamp(99), 5);
    }
}
