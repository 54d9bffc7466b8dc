//! Interpolation baselines: TTransE and TA-DistMult.
//!
//! Both learn per-timestamp embeddings, which is exactly why they
//! extrapolate poorly: a *future* timestamp has no trained embedding. We
//! clamp unseen timestamps to the last trained one (the most favorable
//! choice available to the model); the resulting scores still trail the
//! extrapolation family, reproducing the paper's ordering.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use retia::{Forecaster, TkgContext};
use retia_tensor::optim::Adam;
use retia_tensor::{Graph, ParamStore, Tensor};

use crate::traits::{StaticTrainConfig, TkgBaseline};

/// Training quadruples with inverses: `(s, r(+M), o, t)`.
fn train_quads(ctx: &TkgContext) -> (Vec<(u32, u32, u32, u32)>, u32) {
    let m = ctx.num_relations as u32;
    let mut out = Vec::new();
    let mut max_t = 0u32;
    for &idx in &ctx.train_idx {
        let snap = &ctx.snapshots[idx];
        for q in &snap.facts {
            out.push((q.s, q.r, q.o, q.t));
            out.push((q.o, q.r + m, q.s, q.t));
            max_t = max_t.max(q.t);
        }
    }
    (out, max_t)
}

/// TTransE (Jiang et al., 2016): `score = -‖s + r + τ_t - o‖₁`.
pub struct TTransE {
    cfg: StaticTrainConfig,
    store: ParamStore,
    num_relations: usize,
    max_trained_t: u32,
    /// Margin for the sigmoid ranking loss.
    pub gamma: f32,
    /// Negatives per positive.
    pub num_negatives: usize,
}

impl TTransE {
    /// Builds an untrained model; time embeddings cover every timestamp of
    /// the dataset (only training ones receive gradient).
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        let num_ts = ctx.snapshots.last().map(|s| s.t + 1).unwrap_or(1) as usize;
        let mut store = ParamStore::new(cfg.seed);
        store.register_xavier("ent", ctx.num_entities, cfg.dim);
        store.register_xavier("rel", 2 * ctx.num_relations, cfg.dim);
        store.register_xavier("time", num_ts, cfg.dim);
        TTransE {
            cfg,
            store,
            num_relations: ctx.num_relations,
            max_trained_t: 0,
            gamma: 4.0,
            num_negatives: 8,
        }
    }

    fn clamp_t(&self, t: u32) -> u32 {
        t.min(self.max_trained_t)
    }
}

impl TkgBaseline for TTransE {
    fn fit(&mut self, ctx: &TkgContext) {
        let (quads, max_t) = train_quads(ctx);
        self.max_trained_t = max_t;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut adam = Adam::new(self.cfg.lr);
        let n = ctx.num_entities as u32;
        let mut order: Vec<usize> = (0..quads.len()).collect();
        for epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.cfg.batch) {
                let subjects: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| quads[i].0).collect());
                let rels: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| quads[i].1).collect());
                let objects: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| quads[i].2).collect());
                let times: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| quads[i].3).collect());

                let mut g = Graph::new(true, self.cfg.seed ^ epoch as u64);
                let ent = g.param(&self.store, "ent");
                let rel = g.param(&self.store, "rel");
                let time = g.param(&self.store, "time");
                let s = g.gather_rows(ent, subjects);
                let r = g.gather_rows(rel, rels);
                let tau = g.gather_rows(time, times);
                let sr = g.add(s, r);
                let q = g.add(sr, tau);

                let make_dist = |g: &mut Graph, objs: Rc<Vec<u32>>| {
                    let o = g.gather_rows(ent, objs);
                    let d = g.sub(q, o);
                    let a = g.abs(d);
                    g.sum_rows(a)
                };
                let d_pos = make_dist(&mut g, objects);
                let nd = g.scale(d_pos, -1.0);
                let mpos = g.add_scalar(nd, self.gamma);
                let sp = g.sigmoid(mpos);
                let lp = g.ln(sp, 1e-9);
                let mp = g.mean_all(lp);
                let mut loss = g.scale(mp, -1.0);
                for _ in 0..self.num_negatives {
                    let negs: Rc<Vec<u32>> =
                        Rc::new(chunk.iter().map(|_| rng.gen_range(0..n)).collect());
                    let d_neg = make_dist(&mut g, negs);
                    let mneg = g.add_scalar(d_neg, -self.gamma);
                    let sn = g.sigmoid(mneg);
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

impl Forecaster for TTransE {
    fn entity_scores(
        &self,
        ctx: &TkgContext,
        idx: usize,
        subjects: &[u32],
        rels: &[u32],
    ) -> Tensor {
        let t = self.clamp_t(ctx.snapshots[idx].t);
        let ent = self.store.value("ent");
        let rel = self.store.value("rel");
        let tau = self.store.value("time");
        let d = self.cfg.dim;
        let s = ent.gather_rows(subjects);
        let r = rel.gather_rows(rels);
        Tensor::from_fn(subjects.len(), ctx.num_entities, |i, cand| {
            let mut dist = 0.0f32;
            for k in 0..d {
                dist +=
                    (s.get(i, k) + r.get(i, k) + tau.get(t as usize, k) - ent.get(cand, k)).abs();
            }
            -dist
        })
    }

    fn relation_scores(
        &self,
        ctx: &TkgContext,
        idx: usize,
        subjects: &[u32],
        objects: &[u32],
    ) -> Tensor {
        let t = self.clamp_t(ctx.snapshots[idx].t);
        let ent = self.store.value("ent");
        let rel = self.store.value("rel");
        let tau = self.store.value("time");
        let d = self.cfg.dim;
        let s = ent.gather_rows(subjects);
        let o = ent.gather_rows(objects);
        Tensor::from_fn(subjects.len(), self.num_relations, |i, r| {
            let mut dist = 0.0f32;
            for k in 0..d {
                dist += (s.get(i, k) + rel.get(r, k) + tau.get(t as usize, k) - o.get(i, k)).abs();
            }
            -dist
        })
    }
}

/// TA-DistMult (García-Durán et al., 2018), simplified: the time-aware
/// relation is `r + τ_t` (the original composes time tokens with an LSTM;
/// the additive composition preserves the interpolation-vs-extrapolation
/// behaviour the tables test — see DESIGN.md).
pub struct TaDistMult {
    cfg: StaticTrainConfig,
    store: ParamStore,
    num_relations: usize,
    max_trained_t: u32,
}

impl TaDistMult {
    /// Builds an untrained model.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        let num_ts = ctx.snapshots.last().map(|s| s.t + 1).unwrap_or(1) as usize;
        let mut store = ParamStore::new(cfg.seed);
        store.register_xavier("ent", ctx.num_entities, cfg.dim);
        store.register_xavier("rel", 2 * ctx.num_relations, cfg.dim);
        store.register_xavier("time", num_ts, cfg.dim);
        TaDistMult { cfg, store, num_relations: ctx.num_relations, max_trained_t: 0 }
    }

    fn clamp_t(&self, t: u32) -> u32 {
        t.min(self.max_trained_t)
    }
}

impl TkgBaseline for TaDistMult {
    fn fit(&mut self, ctx: &TkgContext) {
        let (quads, max_t) = train_quads(ctx);
        self.max_trained_t = max_t;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut adam = Adam::new(self.cfg.lr);
        let mut order: Vec<usize> = (0..quads.len()).collect();
        for epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.cfg.batch) {
                let subjects: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| quads[i].0).collect());
                let rels: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| quads[i].1).collect());
                let targets: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| quads[i].2).collect());
                let times: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| quads[i].3).collect());
                let mut g = Graph::new(true, self.cfg.seed ^ epoch as u64);
                let ent = g.param(&self.store, "ent");
                let rel = g.param(&self.store, "rel");
                let time = g.param(&self.store, "time");
                let s = g.gather_rows(ent, subjects);
                let r = g.gather_rows(rel, rels);
                let tau = g.gather_rows(time, times);
                let rt = g.add(r, tau);
                let sr = g.mul(s, rt);
                let logits = g.matmul_nt(sr, ent);
                let loss = g.softmax_xent(logits, targets);
                g.backward(loss, &mut self.store);
                adam.step(&mut self.store);
                self.store.zero_grad();
            }
        }
    }
}

impl Forecaster for TaDistMult {
    fn entity_scores(
        &self,
        ctx: &TkgContext,
        idx: usize,
        subjects: &[u32],
        rels: &[u32],
    ) -> Tensor {
        let t = self.clamp_t(ctx.snapshots[idx].t) as usize;
        let ent = self.store.value("ent");
        let rel = self.store.value("rel");
        let tau = self.store.value("time");
        let times: Vec<u32> = vec![t as u32; subjects.len()];
        let rt = rel.gather_rows(rels).add(&tau.gather_rows(&times));
        ent.gather_rows(subjects).mul(&rt).matmul_nt(ent)
    }

    fn relation_scores(
        &self,
        ctx: &TkgContext,
        idx: usize,
        subjects: &[u32],
        objects: &[u32],
    ) -> Tensor {
        let t = self.clamp_t(ctx.snapshots[idx].t) as usize;
        let ent = self.store.value("ent");
        let rel = self.store.value("rel");
        let tau = self.store.value("time");
        let so = ent.gather_rows(subjects).mul(&ent.gather_rows(objects));
        let orig: Vec<u32> = (0..self.num_relations as u32).collect();
        let times: Vec<u32> = vec![t as u32; self.num_relations];
        let rt = rel.gather_rows(&orig).add(&tau.gather_rows(&times));
        so.matmul_nt(&rt)
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
        m.max_trained_t = 5;
        assert_eq!(m.clamp_t(3), 3);
        assert_eq!(m.clamp_t(99), 5);
    }
}
