//! RE-NET-lite (Jin et al., EMNLP 2020, simplified): autoregressive
//! neighborhood encoding. For a query `(s, r, ?, t)` the model aggregates
//! `s`'s neighbors at each of the last `k` snapshots (mean pooling), runs a
//! GRU over the aggregate sequence, and decodes from
//! `[e_s ; r ; h_t(s)]`. The published RE-NET adds a global graph RNN and
//! multi-relational aggregators; the per-subject recurrent neighborhood
//! channel reproduced here is its core inductive bias (modeling each
//! subject's event history as a conditional sequence).

use std::collections::HashMap;
use std::rc::Rc;

use retia::{Forecaster, Past, RetiaConfig, TkgContext};
use retia_graph::Snapshot;
use retia_nn::{mean_pool_segments, GruCell, Linear};
use retia_tensor::optim::{clip_grad_norm, Adam};
use retia_tensor::{Graph, NodeId, ParamStore, Tensor};

use crate::train::infer;
use crate::traits::TkgBaseline;

/// RE-NET-lite baseline.
pub struct RenetLite {
    store: ParamStore,
    gru: GruCell,
    ent_head: Linear,
    rel_head: Linear,
    cfg: RetiaConfig,
    num_relations: usize,
}

impl RenetLite {
    /// Builds an untrained model reusing the grid's shared hyperparameters.
    pub fn new(base: &RetiaConfig, ctx: &TkgContext) -> Self {
        let d = base.dim;
        let mut store = ParamStore::new(base.seed);
        store.register_xavier("ent", ctx.num_entities, d);
        store.register_xavier("rel", 2 * ctx.num_relations, d);
        let gru = GruCell::new(&mut store, "agg_gru", d, d);
        let ent_head = Linear::new(&mut store, "ent_head", 3 * d, d);
        let rel_head = Linear::new(&mut store, "rel_head", 3 * d, d);
        RenetLite {
            store,
            gru,
            ent_head,
            rel_head,
            cfg: base.clone(),
            num_relations: ctx.num_relations,
        }
    }

    /// Neighbors of each subject in one snapshot (either direction).
    fn neighbor_segments(subjects: &[u32], snap: &Snapshot) -> Vec<Vec<u32>> {
        let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
        for i in 0..snap.num_edges() {
            adj.entry(snap.src[i]).or_default().push(snap.dst[i]);
        }
        subjects.iter().map(|s| adj.get(s).cloned().unwrap_or_default()).collect()
    }

    /// The recurrent neighborhood summary `h_t(s)` for a batch of subjects.
    fn history_state(
        &self,
        g: &mut Graph,
        ent: NodeId,
        subjects: &[u32],
        history: &[Snapshot],
    ) -> NodeId {
        let d = self.cfg.dim;
        let mut h = g.constant(Tensor::zeros(subjects.len(), d));
        for snap in history {
            let segments = Self::neighbor_segments(subjects, snap);
            let agg = mean_pool_segments(g, ent, &segments);
            h = self.gru.forward(g, &self.store, agg, h);
        }
        h
    }

    fn entity_logits(
        &self,
        g: &mut Graph,
        subjects: &[u32],
        rels: &[u32],
        history: &[Snapshot],
    ) -> NodeId {
        let ent = g.param(&self.store, "ent");
        let rel = g.param(&self.store, "rel");
        let h = self.history_state(g, ent, subjects, history);
        let s_emb = g.gather_rows(ent, Rc::new(subjects.to_vec()));
        let r_emb = g.gather_rows(rel, Rc::new(rels.to_vec()));
        let sr = g.concat_cols(s_emb, r_emb);
        let srh = g.concat_cols(sr, h);
        let z = self.ent_head.forward(g, &self.store, srh);
        let act = g.relu(z);
        g.matmul_nt(act, ent)
    }

    fn relation_logits(
        &self,
        g: &mut Graph,
        subjects: &[u32],
        objects: &[u32],
        history: &[Snapshot],
    ) -> NodeId {
        let ent = g.param(&self.store, "ent");
        let rel = g.param(&self.store, "rel");
        let h = self.history_state(g, ent, subjects, history);
        let s_emb = g.gather_rows(ent, Rc::new(subjects.to_vec()));
        let o_emb = g.gather_rows(ent, Rc::new(objects.to_vec()));
        let so = g.concat_cols(s_emb, o_emb);
        let soh = g.concat_cols(so, h);
        let z = self.rel_head.forward(g, &self.store, soh);
        let act = g.relu(z);
        let orig: Rc<Vec<u32>> = Rc::new((0..self.num_relations as u32).collect());
        let cand = g.gather_rows(rel, orig);
        g.matmul_nt(act, cand)
    }
}

impl TkgBaseline for RenetLite {
    fn fit(&mut self, ctx: &TkgContext) {
        let mut adam = Adam::new(self.cfg.lr);
        for epoch in 0..self.cfg.epochs {
            for &idx in &ctx.train_idx {
                if idx == 0 {
                    continue;
                }
                let (history, _) = ctx.history(idx, self.cfg.k);
                let target = &ctx.snapshots[idx];
                let (subjects, rels, targets) = retia::entity_queries(target, ctx.num_relations);
                let mut g = Graph::new(true, self.cfg.seed ^ (epoch * 7919 + idx) as u64);
                let logits = self.entity_logits(&mut g, &subjects, &rels, history);
                let le = g.softmax_xent(logits, Rc::new(targets));

                let (rs, ro, rt) = retia::relation_queries(target);
                let rlogits = self.relation_logits(&mut g, &rs, &ro, history);
                let lr = g.softmax_xent(rlogits, Rc::new(rt));

                let we = g.scale(le, self.cfg.lambda);
                let wr = g.scale(lr, 1.0 - self.cfg.lambda);
                let loss = g.add(we, wr);
                g.backward(loss, &mut self.store);
                clip_grad_norm(&mut self.store, self.cfg.grad_clip);
                adam.step(&mut self.store);
                self.store.zero_grad();
            }
        }
    }
}

impl Forecaster for RenetLite {
    fn entity_scores(&self, past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
        let (history, _) = past.window(self.cfg.k);
        infer(|g| self.entity_logits(g, subjects, rels, history))
    }

    fn relation_scores(&self, past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
        let (history, _) = past.window(self.cfg.k);
        infer(|g| self.relation_logits(g, subjects, objects, history))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Split};
    use retia_data::SyntheticConfig;

    fn quick_cfg() -> RetiaConfig {
        RetiaConfig { dim: 8, channels: 4, k: 2, epochs: 2, patience: 0, ..Default::default() }
    }

    #[test]
    fn renet_trains_and_beats_chance() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(41).generate());
        let mut m = RenetLite::new(&quick_cfg(), &ctx);
        m.fit(&ctx);
        let rep = evaluate(&mut m, &ctx, Split::Test).unwrap();
        let chance = 2.0 / (ctx.num_entities as f64 + 1.0);
        assert!(
            rep.entity_raw.mrr() > chance * 2.0,
            "mrr {} vs chance {chance}",
            rep.entity_raw.mrr()
        );
        assert!(rep.relation_raw.mrr() > 2.0 / (ctx.num_relations as f64 + 1.0));
    }

    #[test]
    fn neighbor_segments_follow_edges() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(42).generate());
        let snap = &ctx.snapshots[0];
        let q = snap.facts[0];
        let segs = RenetLite::neighbor_segments(&[q.s, 9999], snap);
        assert!(segs[0].contains(&q.o), "subject's neighbors must include its object");
        assert!(segs[1].is_empty(), "unknown entity has no neighbors");
    }

    #[test]
    fn empty_history_still_scores() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(43).generate());
        let m = RenetLite::new(&quick_cfg(), &ctx);
        let scores = m.entity_scores(ctx.past(0), &[0, 1], &[0, 1]);
        assert_eq!(scores.shape(), (2, ctx.num_entities));
        assert!(scores.all_finite());
    }
}
