//! Static R-GCN baseline: one graph convolution over the whole (time-
//! collapsed) training graph, DistMult decoding — the R-GCN row of the
//! paper's tables.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use retia::{Forecaster, TkgContext};
use retia_graph::{Quad, Snapshot};
use retia_nn::{EntityRgcn, WeightMode};
use retia_tensor::optim::Adam;
use retia_tensor::{Graph, ParamStore, Tensor};

use crate::traits::{static_triples, StaticTrainConfig, TkgBaseline};

/// R-GCN over the static training graph with a DistMult score head.
pub struct StaticRgcn {
    cfg: StaticTrainConfig,
    store: ParamStore,
    rgcn: EntityRgcn,
    static_snap: Option<Snapshot>,
    num_relations: usize,
    /// Cached post-GCN entity embeddings (refreshed after training).
    cached_entities: Option<Tensor>,
}

impl StaticRgcn {
    /// Builds an untrained model.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        let mut store = ParamStore::new(cfg.seed);
        store.register_xavier("ent", ctx.num_entities, cfg.dim);
        store.register_xavier("rel", 2 * ctx.num_relations, cfg.dim);
        let rgcn = EntityRgcn::new(
            &mut store,
            "gcn",
            cfg.dim,
            2 * ctx.num_relations,
            WeightMode::Basis(4),
            2,
            0.2,
        );
        StaticRgcn {
            cfg,
            store,
            rgcn,
            static_snap: None,
            num_relations: ctx.num_relations,
            cached_entities: None,
        }
    }

    /// Collapses all training facts into one timestamp-0 snapshot.
    fn build_static_snapshot(ctx: &TkgContext) -> Snapshot {
        let mut facts = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &idx in &ctx.train_idx {
            for q in &ctx.snapshots[idx].facts {
                if seen.insert((q.s, q.r, q.o)) {
                    facts.push(Quad::new(q.s, q.r, q.o, 0));
                }
            }
        }
        Snapshot::from_quads(&facts, ctx.num_entities, ctx.num_relations)
    }

    fn encode(&self, g: &mut Graph) -> (retia_tensor::NodeId, retia_tensor::NodeId) {
        let snap = self.static_snap.as_ref().expect("fit() must run first");
        let ent = g.param(&self.store, "ent");
        let rel = g.param(&self.store, "rel");
        let enc = self.rgcn.forward(g, &self.store, ent, rel, snap);
        (enc, rel)
    }
}

impl TkgBaseline for StaticRgcn {
    fn fit(&mut self, ctx: &TkgContext) {
        self.static_snap = Some(Self::build_static_snapshot(ctx));
        let triples = static_triples(ctx);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut adam = Adam::new(self.cfg.lr);
        let mut order: Vec<usize> = (0..triples.len()).collect();
        // The GCN pass dominates; use larger batches, fewer steps.
        let batch = self.cfg.batch.max(1024);
        for epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch) {
                let subjects: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].0).collect());
                let rels: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].1).collect());
                let targets: Rc<Vec<u32>> = Rc::new(chunk.iter().map(|&i| triples[i].2).collect());
                let mut g = Graph::new(true, self.cfg.seed ^ epoch as u64);
                let (enc, rel) = self.encode(&mut g);
                let s = g.gather_rows(enc, subjects);
                let r = g.gather_rows(rel, rels);
                let sr = g.mul(s, r);
                let logits = g.matmul_nt(sr, enc);
                let loss = g.softmax_xent(logits, targets);
                g.backward(loss, &mut self.store);
                adam.step(&mut self.store);
                self.store.zero_grad();
            }
        }
        // Cache the eval-mode encoded entities.
        let mut g = Graph::new(false, 0);
        let (enc, _) = self.encode(&mut g);
        self.cached_entities = Some(g.detach(enc));
    }
}

impl Forecaster for StaticRgcn {
    fn entity_scores(
        &self,
        _ctx: &TkgContext,
        _idx: usize,
        subjects: &[u32],
        rels: &[u32],
    ) -> Tensor {
        let enc = self.cached_entities.as_ref().expect("fit() must run first");
        let rel = self.store.value("rel");
        enc.gather_rows(subjects).mul(&rel.gather_rows(rels)).matmul_nt(enc)
    }

    fn relation_scores(
        &self,
        _ctx: &TkgContext,
        _idx: usize,
        subjects: &[u32],
        objects: &[u32],
    ) -> Tensor {
        let enc = self.cached_entities.as_ref().expect("fit() must run first");
        let rel = self.store.value("rel");
        let so = enc.gather_rows(subjects).mul(&enc.gather_rows(objects));
        let orig: Vec<u32> = (0..self.num_relations as u32).collect();
        so.matmul_nt(&rel.gather_rows(&orig))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Split};
    use retia_data::SyntheticConfig;

    #[test]
    fn static_rgcn_beats_chance() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(12).generate());
        let cfg = StaticTrainConfig { epochs: 8, ..Default::default() };
        let mut m = StaticRgcn::new(cfg, &ctx);
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
    #[should_panic(expected = "fit() must run first")]
    fn scoring_before_fit_panics() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(12).generate());
        let m = StaticRgcn::new(StaticTrainConfig::default(), &ctx);
        m.entity_scores(&ctx, 0, &[0], &[0]);
    }
}
