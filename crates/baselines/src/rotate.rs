//! RotatE (Sun et al., 2019): relations as rotations in the complex plane.
//!
//! `score(s, r, o) = γ - ‖s ∘ r - o‖₁` with `|r_k| = 1` enforced by
//! parameterizing relations as phase angles. Trained with negative sampling
//! and the sigmoid ranking loss, as in the original paper (full-softmax
//! training does not fit a distance model).

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use retia::{Forecaster, TkgContext};
use retia_tensor::optim::Adam;
use retia_tensor::{Graph, NodeId, ParamStore, Tensor};

use crate::traits::{static_triples, StaticTrainConfig, TkgBaseline};

/// RotatE with phase-parameterized relations.
pub struct RotatE {
    cfg: StaticTrainConfig,
    store: ParamStore,
    num_relations: usize,
    half: usize,
    /// Margin γ.
    pub gamma: f32,
    /// Negatives per positive.
    pub num_negatives: usize,
}

impl RotatE {
    /// Builds an untrained model. `cfg.dim` must be even (re/im halves).
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        assert!(cfg.dim.is_multiple_of(2), "RotatE needs an even dimension");
        let half = cfg.dim / 2;
        let mut store = ParamStore::new(cfg.seed);
        store.register_xavier("ent", ctx.num_entities, cfg.dim);
        // Phases in radians.
        store.register_normal("phase", 2 * ctx.num_relations, half, 1.0);
        RotatE { cfg, store, num_relations: ctx.num_relations, half, gamma: 6.0, num_negatives: 8 }
    }

    /// Rotated query `(s ∘ r)` as `[q_re | q_im]` inside a graph.
    fn rotate_query(
        &self,
        g: &mut Graph,
        ent: NodeId,
        phase: NodeId,
        subjects: Rc<Vec<u32>>,
        rels: Rc<Vec<u32>>,
    ) -> (NodeId, NodeId) {
        let h = self.half;
        let s = g.gather_rows(ent, subjects);
        let p = g.gather_rows(phase, rels);
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

    /// `‖q - o‖₁` per row inside a graph (`[Q, 1]`).
    fn l1_distance(
        &self,
        g: &mut Graph,
        q_re: NodeId,
        q_im: NodeId,
        ent: NodeId,
        objects: Rc<Vec<u32>>,
    ) -> NodeId {
        let h = self.half;
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

    /// Plain-tensor rotated queries (eval path).
    fn rotate_query_eval(&self, subjects: &[u32], rels: &[u32]) -> (Tensor, Tensor) {
        let h = self.half;
        let ent = self.store.value("ent");
        let phase = self.store.value("phase");
        let s = ent.gather_rows(subjects);
        let p = phase.gather_rows(rels);
        let mut q_re = Tensor::zeros(subjects.len(), h);
        let mut q_im = Tensor::zeros(subjects.len(), h);
        for i in 0..subjects.len() {
            for k in 0..h {
                let (sre, sim) = (s.get(i, k), s.get(i, h + k));
                let (c, sn) = (p.get(i, k).cos(), p.get(i, k).sin());
                q_re.set(i, k, sre * c - sim * sn);
                q_im.set(i, k, sre * sn + sim * c);
            }
        }
        (q_re, q_im)
    }
}

impl TkgBaseline for RotatE {
    fn fit(&mut self, ctx: &TkgContext) {
        let triples = static_triples(ctx);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut adam = Adam::new(self.cfg.lr);
        let n = ctx.num_entities as u32;
        let mut order: Vec<usize> = (0..triples.len()).collect();
        for epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.cfg.batch) {
                let subjects: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].0).collect());
                let rels: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].1).collect());
                let objects: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].2).collect());

                let mut g = Graph::new(true, self.cfg.seed ^ epoch as u64);
                let ent = g.param(&self.store, "ent");
                let phase = g.param(&self.store, "phase");
                let (q_re, q_im) = self.rotate_query(&mut g, ent, phase, subjects, rels);

                // Positive part: -ln σ(γ - d_pos).
                let d_pos = self.l1_distance(&mut g, q_re, q_im, ent, objects);
                let neg_d = g.scale(d_pos, -1.0);
                let margin_pos = g.add_scalar(neg_d, self.gamma);
                let sp = g.sigmoid(margin_pos);
                let lp = g.ln(sp, 1e-9);
                let mp = g.mean_all(lp);
                let mut loss = g.scale(mp, -1.0);

                // Negative parts: -ln σ(d_neg - γ), averaged over samples.
                for _ in 0..self.num_negatives {
                    let negs: Rc<Vec<u32>> =
                        Rc::new(chunk.iter().map(|_| rng.gen_range(0..n)).collect());
                    let d_neg = self.l1_distance(&mut g, q_re, q_im, ent, negs);
                    let margin_neg = g.add_scalar(d_neg, -self.gamma);
                    let sn = g.sigmoid(margin_neg);
                    let ln_ = g.ln(sn, 1e-9);
                    let mn = g.mean_all(ln_);
                    let term = g.scale(mn, -1.0 / self.num_negatives as f32);
                    loss = g.add(loss, term);
                }
                g.backward(loss, &mut self.store);
                adam.step(&mut self.store);
                self.store.zero_grad();
            }
        }
    }
}

impl Forecaster for RotatE {
    fn entity_scores(
        &self,
        ctx: &TkgContext,
        _idx: usize,
        subjects: &[u32],
        rels: &[u32],
    ) -> Tensor {
        let (q_re, q_im) = self.rotate_query_eval(subjects, rels);
        let ent = self.store.value("ent");
        let h = self.half;
        let n = ctx.num_entities;
        Tensor::from_fn(subjects.len(), n, |i, cand| {
            let mut dist = 0.0f32;
            for k in 0..h {
                dist += (q_re.get(i, k) - ent.get(cand, k)).abs();
                dist += (q_im.get(i, k) - ent.get(cand, h + k)).abs();
            }
            self.gamma - dist
        })
    }

    fn relation_scores(
        &self,
        _ctx: &TkgContext,
        _idx: usize,
        subjects: &[u32],
        objects: &[u32],
    ) -> Tensor {
        let ent = self.store.value("ent");
        let phase = self.store.value("phase");
        let h = self.half;
        let s = ent.gather_rows(subjects);
        let o = ent.gather_rows(objects);
        Tensor::from_fn(subjects.len(), self.num_relations, |i, r| {
            let mut dist = 0.0f32;
            for k in 0..h {
                let (sre, sim) = (s.get(i, k), s.get(i, h + k));
                let (c, sn) = (phase.get(r, k).cos(), phase.get(r, k).sin());
                dist += (sre * c - sim * sn - o.get(i, k)).abs();
                dist += (sre * sn + sim * c - o.get(i, h + k)).abs();
            }
            self.gamma - dist
        })
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
        let (q_re, q_im) = m.rotate_query_eval(&[1], &[0]);
        let ent = m.store.value("ent");
        let h = m.half;
        for k in 0..h {
            let before = ent.get(1, k).powi(2) + ent.get(1, h + k).powi(2);
            let after = q_re.get(0, k).powi(2) + q_im.get(0, k).powi(2);
            assert!((before - after).abs() < 1e-4, "modulus changed: {before} -> {after}");
        }
    }
}
