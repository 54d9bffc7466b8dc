//! Matrix-factorization baselines: DistMult and ComplEx.
//!
//! Both are *static* models: the time dimension is stripped from the
//! training facts (the paper trains static baselines the same way), so
//! conflicting facts at different timestamps collapse — which is exactly why
//! these methods trail the temporal models in the tables.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use retia::{Forecaster, TkgContext};
use retia_tensor::optim::Adam;
use retia_tensor::{Graph, ParamStore, Tensor};

use crate::traits::{static_triples, StaticTrainConfig, TkgBaseline};

/// DistMult (Yang et al., 2015): `score(s, r, o) = Σ_k s_k r_k o_k`.
pub struct DistMult {
    cfg: StaticTrainConfig,
    store: ParamStore,
    num_relations: usize,
}

impl DistMult {
    /// Builds an untrained model for the dataset behind `ctx`.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        let mut store = ParamStore::new(cfg.seed);
        store.register_xavier("ent", ctx.num_entities, cfg.dim);
        store.register_xavier("rel", 2 * ctx.num_relations, cfg.dim);
        DistMult { cfg, store, num_relations: ctx.num_relations }
    }

    fn sr_product(&self, subjects: &[u32], rels: &[u32]) -> Tensor {
        let ent = self.store.value("ent");
        let rel = self.store.value("rel");
        ent.gather_rows(subjects).mul(&rel.gather_rows(rels))
    }
}

impl TkgBaseline for DistMult {
    fn fit(&mut self, ctx: &TkgContext) {
        let triples = static_triples(ctx);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut adam = Adam::new(self.cfg.lr);
        let mut order: Vec<usize> = (0..triples.len()).collect();
        for epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.cfg.batch) {
                let subjects: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].0).collect());
                let rels: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].1).collect());
                let targets: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].2).collect());
                let mut g = Graph::new(true, self.cfg.seed ^ epoch as u64);
                let ent = g.param(&self.store, "ent");
                let rel = g.param(&self.store, "rel");
                let s = g.gather_rows(ent, subjects.clone());
                let r = g.gather_rows(rel, rels.clone());
                let sr = g.mul(s, r);
                let logits = g.matmul_nt(sr, ent);
                let loss = g.softmax_xent(logits, targets.clone());
                g.backward(loss, &mut self.store);
                adam.step(&mut self.store);
                self.store.zero_grad();
            }
        }
    }
}

impl Forecaster for DistMult {
    fn entity_scores(
        &self,
        _ctx: &TkgContext,
        _idx: usize,
        subjects: &[u32],
        rels: &[u32],
    ) -> Tensor {
        self.sr_product(subjects, rels).matmul_nt(self.store.value("ent"))
    }

    fn relation_scores(
        &self,
        _ctx: &TkgContext,
        _idx: usize,
        subjects: &[u32],
        objects: &[u32],
    ) -> Tensor {
        // score(s, ?, o) is linear in r: coefficient = s ∘ o.
        let ent = self.store.value("ent");
        let so = ent.gather_rows(subjects).mul(&ent.gather_rows(objects));
        let rel = self.store.value("rel");
        let orig: Vec<u32> = (0..self.num_relations as u32).collect();
        so.matmul_nt(&rel.gather_rows(&orig))
    }
}

/// ComplEx (Trouillon et al., 2016): embeddings in ℂ^{d/2};
/// `score = Re(⟨s, r, conj(o)⟩)`. Stored as `[re | im]` halves.
pub struct ComplEx {
    cfg: StaticTrainConfig,
    store: ParamStore,
    num_relations: usize,
    half: usize,
}

impl ComplEx {
    /// Builds an untrained model. `cfg.dim` must be even.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        assert!(cfg.dim.is_multiple_of(2), "ComplEx needs an even dimension");
        let mut store = ParamStore::new(cfg.seed);
        store.register_xavier("ent", ctx.num_entities, cfg.dim);
        store.register_xavier("rel", 2 * ctx.num_relations, cfg.dim);
        let half = cfg.dim / 2;
        ComplEx { cfg, store, num_relations: ctx.num_relations, half }
    }

    /// `[q_re | q_im]` such that `score = [q_re | q_im] · [o_re | o_im]`.
    fn query_vector(&self, subjects: &[u32], rels: &[u32]) -> Tensor {
        let h = self.half;
        let ent = self.store.value("ent");
        let rel = self.store.value("rel");
        let s = ent.gather_rows(subjects);
        let r = rel.gather_rows(rels);
        let (s_re, s_im) = (s.slice_cols(0, h), s.slice_cols(h, 2 * h));
        let (r_re, r_im) = (r.slice_cols(0, h), r.slice_cols(h, 2 * h));
        // Re(s r conj(o)) = (s_re r_re - s_im r_im)·o_re + (s_re r_im + s_im r_re)·o_im
        let q_re = s_re.mul(&r_re).sub(&s_im.mul(&r_im));
        let q_im = s_re.mul(&r_im).add(&s_im.mul(&r_re));
        q_re.concat_cols(&q_im)
    }
}

impl TkgBaseline for ComplEx {
    fn fit(&mut self, ctx: &TkgContext) {
        let triples = static_triples(ctx);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut adam = Adam::new(self.cfg.lr);
        let h = self.half;
        let mut order: Vec<usize> = (0..triples.len()).collect();
        for epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.cfg.batch) {
                let subjects: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].0).collect());
                let rels: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].1).collect());
                let targets: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].2).collect());
                let mut g = Graph::new(true, self.cfg.seed ^ epoch as u64);
                let ent = g.param(&self.store, "ent");
                let rel = g.param(&self.store, "rel");
                let s = g.gather_rows(ent, subjects.clone());
                let r = g.gather_rows(rel, rels.clone());
                let s_re = g.slice_cols(s, 0, h);
                let s_im = g.slice_cols(s, h, 2 * h);
                let r_re = g.slice_cols(r, 0, h);
                let r_im = g.slice_cols(r, h, 2 * h);
                let a = g.mul(s_re, r_re);
                let b = g.mul(s_im, r_im);
                let q_re = g.sub(a, b);
                let c = g.mul(s_re, r_im);
                let d = g.mul(s_im, r_re);
                let q_im = g.add(c, d);
                let q = g.concat_cols(q_re, q_im);
                let logits = g.matmul_nt(q, ent);
                let loss = g.softmax_xent(logits, targets.clone());
                g.backward(loss, &mut self.store);
                adam.step(&mut self.store);
                self.store.zero_grad();
            }
        }
    }
}

impl Forecaster for ComplEx {
    fn entity_scores(
        &self,
        _ctx: &TkgContext,
        _idx: usize,
        subjects: &[u32],
        rels: &[u32],
    ) -> Tensor {
        self.query_vector(subjects, rels).matmul_nt(self.store.value("ent"))
    }

    fn relation_scores(
        &self,
        _ctx: &TkgContext,
        _idx: usize,
        subjects: &[u32],
        objects: &[u32],
    ) -> Tensor {
        // Re(s r conj(o)) as a linear function of r:
        // coeff_re = s_re∘o_re + s_im∘o_im, coeff_im = s_im∘o_re - s_re∘o_im.
        let h = self.half;
        let ent = self.store.value("ent");
        let s = ent.gather_rows(subjects);
        let o = ent.gather_rows(objects);
        let (s_re, s_im) = (s.slice_cols(0, h), s.slice_cols(h, 2 * h));
        let (o_re, o_im) = (o.slice_cols(0, h), o.slice_cols(h, 2 * h));
        let c_re = s_re.mul(&o_re).add(&s_im.mul(&o_im));
        let c_im = s_im.mul(&o_re).sub(&s_re.mul(&o_im));
        let coeff = c_re.concat_cols(&c_im);
        let rel = self.store.value("rel");
        let orig: Vec<u32> = (0..self.num_relations as u32).collect();
        coeff.matmul_nt(&rel.gather_rows(&orig))
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
        let scores = m.relation_scores(&ctx, 0, &[3], &[5]);
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
