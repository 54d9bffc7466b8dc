//! Convolutional static baselines: ConvE-style and Conv-TransE.
//!
//! Both reuse the [`retia_nn::ConvTransE`] decoder machinery over static
//! embeddings. The ConvE flavor emulates ConvE's behaviour with a 1-D
//! convolution (our substrate has no 2-D reshape conv); since ConvE and
//! Conv-TransE differ mainly in the translational-property preservation,
//! the flavors differ in whether query parts are stacked as channels
//! (Conv-TransE, translation-preserving) or interleaved (ConvE-style).
//! The substitution is recorded in DESIGN.md.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use retia::{Forecaster, TkgContext};
use retia_nn::ConvTransE;
use retia_tensor::optim::Adam;
use retia_tensor::{Graph, ParamStore, Tensor};

use crate::traits::{static_triples, StaticTrainConfig, TkgBaseline};

/// Which convolutional decoder variant to emulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvFlavor {
    /// ConvE-style (interleaved stacking).
    ConvE,
    /// Conv-TransE (channel stacking, translation-preserving).
    ConvTransE,
}

/// A static KG model with a convolutional decoder over learned embeddings.
pub struct ConvDecoder {
    cfg: StaticTrainConfig,
    flavor: ConvFlavor,
    store: ParamStore,
    decoder: ConvTransE,
    rel_decoder: ConvTransE,
    num_relations: usize,
}

impl ConvDecoder {
    /// Builds an untrained model.
    pub fn new(cfg: StaticTrainConfig, flavor: ConvFlavor, ctx: &TkgContext) -> Self {
        let mut store = ParamStore::new(cfg.seed);
        store.register_xavier("ent", ctx.num_entities, cfg.dim);
        store.register_xavier("rel", 2 * ctx.num_relations, cfg.dim);
        let decoder = ConvTransE::new(&mut store, "dec_e", cfg.dim, 8, 3, 0.2);
        let rel_decoder = ConvTransE::new(&mut store, "dec_r", cfg.dim, 8, 3, 0.2);
        ConvDecoder { cfg, flavor, store, decoder, rel_decoder, num_relations: ctx.num_relations }
    }

    /// Interleaves the ConvE flavor's inputs (a crude stand-in for ConvE's
    /// 2-D reshape, which destroys the translational alignment Conv-TransE
    /// keeps).
    fn maybe_permute(&self, t: &Tensor) -> Tensor {
        match self.flavor {
            ConvFlavor::ConvTransE => t.clone(),
            ConvFlavor::ConvE => {
                let (r, c) = t.shape();
                Tensor::from_fn(r, c, |i, j| t.get(i, (j * 7 + 1) % c))
            }
        }
    }
}

impl TkgBaseline for ConvDecoder {
    fn fit(&mut self, ctx: &TkgContext) {
        let triples = static_triples(ctx);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut adam = Adam::new(self.cfg.lr);
        let mut order: Vec<usize> = (0..triples.len()).collect();
        let m = ctx.num_relations as u32;
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
                let logits = self.decoder.forward(&mut g, &self.store, s, r, ent);
                let mut loss = g.softmax_xent(logits, targets.clone());

                // Joint relation head (only original-direction facts).
                let orig: Vec<usize> =
                    chunk.iter().copied().filter(|&i| triples[i].1 < m).collect();
                if !orig.is_empty() {
                    let ss: Rc<Vec<u32>> = Rc::new(orig.iter().map(|&i| triples[i].0).collect());
                    let oo: Rc<Vec<u32>> = Rc::new(orig.iter().map(|&i| triples[i].2).collect());
                    let rt: Rc<Vec<u32>> = Rc::new(orig.iter().map(|&i| triples[i].1).collect());
                    let se = g.gather_rows(ent, ss);
                    let oe = g.gather_rows(ent, oo);
                    let cand: Rc<Vec<u32>> = Rc::new((0..m).collect());
                    let rc = g.gather_rows(rel, cand);
                    let rlogits = self.rel_decoder.forward(&mut g, &self.store, se, oe, rc);
                    let rloss = g.softmax_xent(rlogits, rt);
                    let half = g.scale(rloss, 0.3);
                    let whole = g.scale(loss, 0.7);
                    loss = g.add(whole, half);
                }
                g.backward(loss, &mut self.store);
                adam.step(&mut self.store);
                self.store.zero_grad();
            }
        }
    }
}

impl Forecaster for ConvDecoder {
    fn entity_scores(
        &self,
        _ctx: &TkgContext,
        _idx: usize,
        subjects: &[u32],
        rels: &[u32],
    ) -> Tensor {
        let ent = self.store.value("ent").clone();
        let rel = self.store.value("rel");
        let s = self.maybe_permute(&ent.gather_rows(subjects));
        let r = self.maybe_permute(&rel.gather_rows(rels));
        let mut g = Graph::new(false, 0);
        let sn = g.constant(s);
        let rn = g.constant(r);
        let cand = g.constant(ent);
        let logits = self.decoder.forward(&mut g, &self.store, sn, rn, cand);
        g.detach(logits)
    }

    fn relation_scores(
        &self,
        _ctx: &TkgContext,
        _idx: usize,
        subjects: &[u32],
        objects: &[u32],
    ) -> Tensor {
        let ent = self.store.value("ent").clone();
        let rel = self.store.value("rel");
        let orig: Vec<u32> = (0..self.num_relations as u32).collect();
        let s = self.maybe_permute(&ent.gather_rows(subjects));
        let o = self.maybe_permute(&ent.gather_rows(objects));
        let mut g = Graph::new(false, 0);
        let sn = g.constant(s);
        let on = g.constant(o);
        let cand = g.constant(rel.gather_rows(&orig));
        let logits = self.rel_decoder.forward(&mut g, &self.store, sn, on, cand);
        g.detach(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Split};
    use retia_data::SyntheticConfig;

    #[test]
    fn conv_transe_beats_chance() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(6).generate());
        let cfg = StaticTrainConfig { epochs: 8, ..Default::default() };
        let mut m = ConvDecoder::new(cfg, ConvFlavor::ConvTransE, &ctx);
        m.fit(&ctx);
        let report = evaluate(&mut m, &ctx, Split::Test).unwrap();
        let chance = 2.0 / (ctx.num_entities as f64 + 1.0);
        assert!(report.entity_raw.mrr() > chance * 3.0);
        assert!(report.relation_raw.mrr() > 2.0 / (ctx.num_relations as f64 + 1.0));
    }
}
