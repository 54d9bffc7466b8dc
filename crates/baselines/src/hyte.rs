//! HyTE (Dasgupta et al., 2018): hyperplane-based temporally-aware KG
//! embedding. Each timestamp owns a unit normal `w_t`; entities and
//! relations are projected onto the hyperplane before TransE scoring:
//!
//! `P_t(v) = v - (w_t · v) w_t`,  `score = -‖P_t(s) + P_t(r) - P_t(o)‖₁`.
//!
//! An interpolation method: future timestamps have untrained hyperplanes, so
//! we clamp to the last trained one — the paper's tables show exactly this
//! weakness (HyTE is among the weakest temporal baselines).

use std::rc::Rc;

use rand::rngs::StdRng;
use retia::{Forecaster, Past, TkgContext};
use retia_tensor::{Graph, NodeId, ParamStore, Tensor};

use crate::factorization::{embeddings, tables};
use crate::train::{
    all_pairs, infer, l1_distances, margin_loss, Batch, MinibatchLoss, Timestamps, BATCH,
};
use crate::traits::{StaticTrainConfig, TkgBaseline};

/// Margin γ of the loss.
const GAMMA: f32 = 4.0;

/// HyTE with per-timestamp hyperplane normals.
pub struct HyTE {
    cfg: StaticTrainConfig,
    pub(crate) store: ParamStore,
    times: Timestamps,
}

impl HyTE {
    /// Builds an untrained model.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        let mut store = embeddings(cfg.dim, ctx);
        store.register_xavier("plane", Timestamps::num_ts(ctx), cfg.dim);
        HyTE { cfg, store, times: Timestamps::default() }
    }

    /// Unit hyperplane normals `w_t` for each of `times` (`[Q, d]`).
    pub(crate) fn normals(&self, g: &mut Graph, times: Rc<Vec<u32>>) -> NodeId {
        let plane = g.param(&self.store, "plane");
        let w_rows = g.gather_rows(plane, times);
        g.normalize_rows(w_rows)
    }

    /// Projects rows of `v` onto the hyperplanes `w_unit` (row-aligned unit
    /// normals): `v - (w·v) w`.
    pub(crate) fn project(g: &mut Graph, v: NodeId, w_unit: NodeId) -> NodeId {
        let prod = g.mul(v, w_unit);
        let dots = g.sum_rows(prod); // [Q, 1]
        let scaled = g.mul_col(w_unit, dots);
        g.sub(v, scaled)
    }

    /// Projected queries `P_t(s) + P_t(r)` (`[Q, d]`).
    pub(crate) fn query(
        g: &mut Graph,
        (ent, rel): (NodeId, NodeId),
        w_unit: NodeId,
        q: &Batch,
    ) -> NodeId {
        let s = g.gather_rows(ent, Rc::clone(&q.subjects));
        let r = g.gather_rows(rel, Rc::clone(&q.rels));
        let ps = Self::project(g, s, w_unit);
        let pr = Self::project(g, r, w_unit);
        g.add(ps, pr)
    }

    /// `‖q - P_t(o)‖₁` per row (`[Q, 1]`).
    pub(crate) fn distance(
        g: &mut Graph,
        ent: NodeId,
        w_unit: NodeId,
        q: NodeId,
        objects: Rc<Vec<u32>>,
    ) -> NodeId {
        let o = g.gather_rows(ent, objects);
        let po = Self::project(g, o, w_unit);
        let d = g.sub(q, po);
        let a = g.abs(d);
        g.sum_rows(a)
    }
}

impl MinibatchLoss for HyTE {
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn batch_loss(&self, g: &mut Graph, batch: &Batch, rng: &mut StdRng) -> NodeId {
        let tables = tables(g, &self.store);
        let w_unit = self.normals(g, Rc::clone(&batch.times));
        let q = Self::query(g, tables, w_unit, batch);
        let (ent, n) = (tables.0, g.value(tables.0).rows());
        margin_loss(g, batch, GAMMA, n, rng, |g, objects| {
            Self::distance(g, ent, w_unit, q, objects)
        })
    }
}

impl TkgBaseline for HyTE {
    fn fit(&mut self, ctx: &TkgContext) {
        self.times = self.fit_minibatches(ctx, self.cfg.epochs, BATCH);
    }
}

impl Forecaster for HyTE {
    fn entity_scores(&self, past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
        let t = self.times.clamp(past.t);
        let (q, n) = (subjects.len(), past.num_entities);
        let queries = Batch::queries(subjects, rels, t);
        let mut g = Graph::inference();
        let tables = tables(&mut g, &self.store);
        let w_unit = self.normals(&mut g, Rc::clone(&queries.times));
        let query = Self::query(&mut g, tables, w_unit, &queries);
        // Every candidate, projected once.
        let w_cand = self.normals(&mut g, Rc::new(vec![t; n]));
        let cand = Self::project(&mut g, tables.0, w_cand);
        let cols: Vec<usize> = (0..self.cfg.dim).collect();
        let dist = l1_distances(g.value(query), g.value(cand), all_pairs(q, n), &cols);
        Tensor::from_vec(q, n, dist.into_iter().map(|d| -d).collect())
    }

    fn relation_scores(&self, past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
        let t = self.times.clamp(past.t);
        let pairs = Batch::relation_pairs(subjects, objects, past.num_relations, t);
        let scores = infer(|g| {
            let tables = tables(g, &self.store);
            let w_unit = self.normals(g, Rc::clone(&pairs.times));
            let q = Self::query(g, tables, w_unit, &pairs);
            let d = Self::distance(g, tables.0, w_unit, q, Rc::clone(&pairs.objects));
            g.scale(d, -1.0)
        });
        Tensor::from_vec(subjects.len(), past.num_relations, scores.data().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Split};
    use retia_data::SyntheticConfig;

    /// `v` projected onto the hyperplane with normal `w` by the graph's
    /// normalization and [`HyTE::project`].
    fn project(v: &[f32], w: &[f32]) -> Vec<f32> {
        let mut g = Graph::inference();
        let v = g.constant(Tensor::from_vec(1, v.len(), v.to_vec()));
        let w = g.constant(Tensor::from_vec(1, w.len(), w.to_vec()));
        let w_unit = g.normalize_rows(w);
        let p = HyTE::project(&mut g, v, w_unit);
        g.value(p).row(0).to_vec()
    }

    #[test]
    fn projection_is_orthogonal_to_normal() {
        let v = vec![1.0f32, 2.0, 3.0];
        let w = vec![0.0f32, 1.0, 0.0];
        let p = project(&v, &w);
        assert!((p[1]).abs() < 1e-6, "component along normal must vanish: {p:?}");
        assert!((p[0] - 1.0).abs() < 1e-6 && (p[2] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn projection_is_idempotent() {
        let v = vec![0.5f32, -1.0, 2.0, 0.3];
        let w = vec![1.0f32, 1.0, -0.5, 0.2];
        let once = project(&v, &w);
        let twice = project(&once, &w);
        for (a, b) in once.iter().zip(twice.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn hyte_beats_chance_but_modestly() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(30).generate());
        let cfg = StaticTrainConfig { epochs: 10, ..Default::default() };
        let mut m = HyTE::new(cfg, &ctx);
        m.fit(&ctx);
        let rep = evaluate(&mut m, &ctx, Split::Test).unwrap();
        let chance = 2.0 / (ctx.num_entities as f64 + 1.0);
        assert!(
            rep.entity_raw.mrr() > chance * 1.5,
            "mrr {} vs chance {chance}",
            rep.entity_raw.mrr()
        );
    }
}
