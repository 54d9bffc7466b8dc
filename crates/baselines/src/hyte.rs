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
use rand::{seq::SliceRandom, Rng, SeedableRng};
use retia::{Forecaster, TkgContext};
use retia_tensor::optim::Adam;
use retia_tensor::{Graph, NodeId, ParamStore, Tensor};

use crate::traits::{StaticTrainConfig, TkgBaseline};

/// HyTE with per-timestamp hyperplane normals.
pub struct HyTE {
    cfg: StaticTrainConfig,
    store: ParamStore,
    num_relations: usize,
    max_trained_t: u32,
    /// Margin of the sigmoid ranking loss.
    pub gamma: f32,
    /// Negatives per positive.
    pub num_negatives: usize,
}

impl HyTE {
    /// Builds an untrained model.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        let num_ts = ctx.snapshots.last().map(|s| s.t + 1).unwrap_or(1) as usize;
        let mut store = ParamStore::new(cfg.seed);
        store.register_xavier("ent", ctx.num_entities, cfg.dim);
        store.register_xavier("rel", 2 * ctx.num_relations, cfg.dim);
        store.register_xavier("plane", num_ts, cfg.dim);
        HyTE {
            cfg,
            store,
            num_relations: ctx.num_relations,
            max_trained_t: 0,
            gamma: 4.0,
            num_negatives: 8,
        }
    }

    /// Projects rows of `v` onto the hyperplanes `w` (row-aligned; `w` rows
    /// are L2-normalized inside the graph): `v - (w·v) w`.
    fn project(g: &mut Graph, v: NodeId, w_unit: NodeId) -> NodeId {
        let prod = g.mul(v, w_unit);
        let dots = g.sum_rows(prod); // [Q, 1]
        let scaled = g.mul_col(w_unit, dots);
        g.sub(v, scaled)
    }

    fn clamp_t(&self, t: u32) -> u32 {
        t.min(self.max_trained_t)
    }

    /// Eval-time projection in plain tensors.
    fn project_eval(v: &[f32], w: &[f32]) -> Vec<f32> {
        let norm: f32 = w.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
        let wn: Vec<f32> = w.iter().map(|x| x / norm).collect();
        let dot: f32 = v.iter().zip(wn.iter()).map(|(a, b)| a * b).sum();
        v.iter().zip(wn.iter()).map(|(a, b)| a - dot * b).collect()
    }
}

impl TkgBaseline for HyTE {
    fn fit(&mut self, ctx: &TkgContext) {
        let m = ctx.num_relations as u32;
        let mut quads: Vec<(u32, u32, u32, u32)> = Vec::new();
        for &idx in &ctx.train_idx {
            for q in &ctx.snapshots[idx].facts {
                quads.push((q.s, q.r, q.o, q.t));
                quads.push((q.o, q.r + m, q.s, q.t));
                self.max_trained_t = self.max_trained_t.max(q.t);
            }
        }
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
                let plane = g.param(&self.store, "plane");
                let w_rows = g.gather_rows(plane, times);
                let w_unit = g.normalize_rows(w_rows);

                let s = g.gather_rows(ent, subjects);
                let r = g.gather_rows(rel, rels);
                let ps = Self::project(&mut g, s, w_unit);
                let pr = Self::project(&mut g, r, w_unit);
                let q_vec = g.add(ps, pr);

                let dist_to = |g: &mut Graph, objs: Rc<Vec<u32>>| {
                    let o = g.gather_rows(ent, objs);
                    let po = Self::project(g, o, w_unit);
                    let d = g.sub(q_vec, po);
                    let a = g.abs(d);
                    g.sum_rows(a)
                };
                let d_pos = dist_to(&mut g, objects);
                let nd = g.scale(d_pos, -1.0);
                let mp_in = g.add_scalar(nd, self.gamma);
                let sp = g.sigmoid(mp_in);
                let lp = g.ln(sp, 1e-9);
                let mp = g.mean_all(lp);
                let mut loss = g.scale(mp, -1.0);
                for _ in 0..self.num_negatives {
                    let negs: Rc<Vec<u32>> =
                        Rc::new(chunk.iter().map(|_| rng.gen_range(0..n)).collect());
                    let d_neg = dist_to(&mut g, negs);
                    let mn_in = g.add_scalar(d_neg, -self.gamma);
                    let sn = g.sigmoid(mn_in);
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

impl Forecaster for HyTE {
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
        let w = self.store.value("plane").row(t).to_vec();
        let d = self.cfg.dim;
        // Pre-project all candidate objects once.
        let projected: Vec<Vec<f32>> =
            (0..ctx.num_entities).map(|e| Self::project_eval(ent.row(e), &w)).collect();
        Tensor::from_fn(subjects.len(), ctx.num_entities, |i, cand| {
            let ps = Self::project_eval(ent.row(subjects[i] as usize), &w);
            let pr = Self::project_eval(rel.row(rels[i] as usize), &w);
            let mut dist = 0.0f32;
            for k in 0..d {
                dist += (ps[k] + pr[k] - projected[cand][k]).abs();
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
        let t = self.clamp_t(ctx.snapshots[idx].t) as usize;
        let ent = self.store.value("ent");
        let rel = self.store.value("rel");
        let w = self.store.value("plane").row(t).to_vec();
        let d = self.cfg.dim;
        let proj_rel: Vec<Vec<f32>> =
            (0..self.num_relations).map(|r| Self::project_eval(rel.row(r), &w)).collect();
        Tensor::from_fn(subjects.len(), self.num_relations, |i, r| {
            let ps = Self::project_eval(ent.row(subjects[i] as usize), &w);
            let po = Self::project_eval(ent.row(objects[i] as usize), &w);
            let mut dist = 0.0f32;
            for k in 0..d {
                dist += (ps[k] + proj_rel[r][k] - po[k]).abs();
            }
            -dist
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Split};
    use retia_data::SyntheticConfig;

    #[test]
    fn projection_is_orthogonal_to_normal() {
        let v = vec![1.0f32, 2.0, 3.0];
        let w = vec![0.0f32, 1.0, 0.0];
        let p = HyTE::project_eval(&v, &w);
        assert!((p[1]).abs() < 1e-6, "component along normal must vanish: {p:?}");
        assert!((p[0] - 1.0).abs() < 1e-6 && (p[2] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn projection_is_idempotent() {
        let v = vec![0.5f32, -1.0, 2.0, 0.3];
        let w = vec![1.0f32, 1.0, -0.5, 0.2];
        let once = HyTE::project_eval(&v, &w);
        let twice = HyTE::project_eval(&once, &w);
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
