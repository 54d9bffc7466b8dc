//! RotatE (Sun et al., 2019): relations as rotations in the complex plane.
//!
//! `score(s, r, o) = γ - ‖s ∘ r - o‖₁` with `|r_k| = 1` enforced by
//! parameterizing relations as phase angles. Trained with negative sampling
//! and the sigmoid ranking loss, as in the original paper (full-softmax
//! training does not fit a distance model).

use std::rc::Rc;

use rand::rngs::StdRng;
use retia::{Forecaster, Past, TkgContext};
use retia_tensor::{Graph, NodeId, ParamStore, Tensor};

use crate::train::{all_pairs, l1_distances, margin_loss, Batch, MinibatchLoss, BATCH, SEED};
use crate::traits::{StaticTrainConfig, TkgBaseline};

/// Margin γ of the score and the loss.
pub(crate) const GAMMA: f32 = 6.0;

/// RotatE with phase-parameterized relations.
pub struct RotatE {
    cfg: StaticTrainConfig,
    pub(crate) store: ParamStore,
}

impl RotatE {
    /// Builds an untrained model. `cfg.dim` must be even (re/im halves).
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        assert!(cfg.dim.is_multiple_of(2), "RotatE needs an even dimension");
        let mut store = ParamStore::new(SEED);
        store.register_xavier("ent", ctx.num_entities, cfg.dim);
        // Phases in radians.
        store.register_normal("phase", 2 * ctx.num_relations, cfg.dim / 2, 1.0);
        RotatE { cfg, store }
    }

    /// The `ent` and `phase` tables.
    pub(crate) fn tables(&self, g: &mut Graph) -> (NodeId, NodeId) {
        (g.param(&self.store, "ent"), g.param(&self.store, "phase"))
    }

    /// Rotated queries `s ∘ r` as `(q_re, q_im)`.
    pub(crate) fn rotate_query(
        &self,
        g: &mut Graph,
        (ent, phase): (NodeId, NodeId),
        q: &Batch,
    ) -> (NodeId, NodeId) {
        let h = self.cfg.dim / 2;
        let s = g.gather_rows(ent, Rc::clone(&q.subjects));
        let p = g.gather_rows(phase, Rc::clone(&q.rels));
        let s_re = g.slice_cols(s, 0, h);
        let s_im = g.slice_cols(s, h, 2 * h);
        let cosp = g.cos(p);
        let sinp = g.sin(p);
        // (s_re + i s_im)(cos + i sin) = (s_re cos - s_im sin) + i(s_re sin + s_im cos)
        let a = g.mul(s_re, cosp);
        let b = g.mul(s_im, sinp);
        let q_re = g.sub(a, b);
        let c = g.mul(s_re, sinp);
        let d = g.mul(s_im, cosp);
        let q_im = g.add(c, d);
        (q_re, q_im)
    }

    /// `‖q - o‖₁` per row (`[Q, 1]`), each half summed first.
    pub(crate) fn l1_distance(
        &self,
        g: &mut Graph,
        (q_re, q_im): (NodeId, NodeId),
        ent: NodeId,
        objects: Rc<Vec<u32>>,
    ) -> NodeId {
        let h = self.cfg.dim / 2;
        let o = g.gather_rows(ent, objects);
        let o_re = g.slice_cols(o, 0, h);
        let o_im = g.slice_cols(o, h, 2 * h);
        let dre = g.sub(q_re, o_re);
        let dim_ = g.sub(q_im, o_im);
        let are = g.abs(dre);
        let aim = g.abs(dim_);
        let sre = g.sum_rows(are);
        let sim = g.sum_rows(aim);
        g.add(sre, sim)
    }

    /// `γ - ‖q - o‖₁` of the rotated queries `q` for each `(query row,
    /// entity)` pair of `pairs`, adding the real and imaginary terms at
    /// each `k`.
    fn scores(&self, q: &Batch, pairs: impl Iterator<Item = (usize, usize)>) -> Vec<f32> {
        let h = self.cfg.dim / 2;
        let mut g = Graph::inference();
        let tables = self.tables(&mut g);
        let (q_re, q_im) = self.rotate_query(&mut g, tables, q);
        let query = g.concat_cols(q_re, q_im);
        let interleaved: Vec<usize> = (0..h).flat_map(|k| [k, h + k]).collect();
        let dist = l1_distances(g.value(query), g.value(tables.0), pairs, &interleaved);
        dist.into_iter().map(|d| GAMMA - d).collect()
    }
}

impl MinibatchLoss for RotatE {
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn batch_loss(&self, g: &mut Graph, batch: &Batch, rng: &mut StdRng) -> NodeId {
        let tables = self.tables(g);
        let query = self.rotate_query(g, tables, batch);
        let (ent, n) = (tables.0, g.value(tables.0).rows());
        margin_loss(g, batch, GAMMA, n, rng, |g, objects| self.l1_distance(g, query, ent, objects))
    }
}

impl TkgBaseline for RotatE {
    fn fit(&mut self, ctx: &TkgContext) {
        self.fit_minibatches(ctx, self.cfg.epochs, BATCH);
    }
}

impl Forecaster for RotatE {
    fn entity_scores(&self, past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
        let (q, n) = (subjects.len(), past.num_entities);
        Tensor::from_vec(q, n, self.scores(&Batch::queries(subjects, rels, 0), all_pairs(q, n)))
    }

    fn relation_scores(&self, past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
        let pairs = Batch::relation_pairs(subjects, objects, past.num_relations, 0);
        let rows = pairs.objects.iter().enumerate().map(|(row, &o)| (row, o as usize));
        Tensor::from_vec(subjects.len(), past.num_relations, self.scores(&pairs, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Split};
    use retia_data::SyntheticConfig;

    #[test]
    fn rotate_beats_chance() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(8).generate());
        let cfg = StaticTrainConfig { epochs: 12, ..Default::default() };
        let mut m = RotatE::new(cfg, &ctx);
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
    fn rotation_preserves_modulus() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(8).generate());
        let m = RotatE::new(StaticTrainConfig::default(), &ctx);
        let mut g = Graph::inference();
        let tables = m.tables(&mut g);
        let (q_re, q_im) = m.rotate_query(&mut g, tables, &Batch::queries(&[1], &[0], 0));
        let (q_re, q_im) = (g.value(q_re), g.value(q_im));
        let ent = m.store.value("ent");
        let h = m.cfg.dim / 2;
        for k in 0..h {
            let before = ent.get(1, k).powi(2) + ent.get(1, h + k).powi(2);
            let after = q_re.get(0, k).powi(2) + q_im.get(0, k).powi(2);
            assert!((before - after).abs() < 1e-4, "modulus changed: {before} -> {after}");
        }
    }
}
