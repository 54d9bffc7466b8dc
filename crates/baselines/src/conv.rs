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
use std::sync::Arc;

use rand::rngs::StdRng;
use retia::{Forecaster, Past, TkgContext};
use retia_nn::ConvTransE;
use retia_tensor::{Graph, NodeId, ParamStore, Tensor};

use crate::factorization::{embeddings, tables};
use crate::train::{all_relations, ids, infer, Batch, MinibatchLoss, BATCH};
use crate::traits::{StaticTrainConfig, TkgBaseline};

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
    pub(crate) store: ParamStore,
    decoder: ConvTransE,
    rel_decoder: ConvTransE,
    /// The ConvE flavor's column permutation `[d, d]`.
    permutation: Option<Arc<Tensor>>,
    num_relations: usize,
}

impl ConvDecoder {
    /// Builds an untrained model.
    pub fn new(cfg: StaticTrainConfig, flavor: ConvFlavor, ctx: &TkgContext) -> Self {
        let (d, mut store) = (cfg.dim, embeddings(cfg.dim, ctx));
        let decoder = ConvTransE::new(&mut store, "dec_e", d, 8, 3, 0.2);
        let rel_decoder = ConvTransE::new(&mut store, "dec_r", d, 8, 3, 0.2);
        // Column j of the product is column (7j + 1) mod d of its input.
        let permutation = (flavor == ConvFlavor::ConvE).then(|| {
            Arc::new(Tensor::from_fn(d, d, |k, j| if k == (7 * j + 1) % d { 1.0 } else { 0.0 }))
        });
        let num_relations = ctx.num_relations;
        ConvDecoder { cfg, store, decoder, rel_decoder, permutation, num_relations }
    }

    /// The flavor's arrangement of a decoder input. The ConvE flavor
    /// interleaves its columns (a crude stand-in for ConvE's 2-D reshape,
    /// which destroys the translational alignment Conv-TransE keeps) by a
    /// product with a constant 0/1 matrix, exact for finite inputs.
    fn arrange(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let Some(p) = &self.permutation else { return x };
        let p = g.shared_constant(Arc::clone(p));
        g.matmul(x, p)
    }

    /// Entity logits `[Q, N]` over the embedding tables `(ent, rel)`.
    pub(crate) fn entity_logits(
        &self,
        g: &mut Graph,
        (ent, rel): (NodeId, NodeId),
        q: &Batch,
    ) -> NodeId {
        let s = g.gather_rows(ent, Rc::clone(&q.subjects));
        let r = g.gather_rows(rel, Rc::clone(&q.rels));
        let (s, r) = (self.arrange(g, s), self.arrange(g, r));
        self.decoder.forward(g, &self.store, s, r, ent)
    }

    /// Relation logits `[Q, M]` over the original relations.
    fn relation_logits(
        &self,
        g: &mut Graph,
        (ent, rel): (NodeId, NodeId),
        subjects: Rc<Vec<u32>>,
        objects: Rc<Vec<u32>>,
    ) -> NodeId {
        let s = g.gather_rows(ent, subjects);
        let o = g.gather_rows(ent, objects);
        let cand = g.gather_rows(rel, all_relations(self.num_relations));
        let (s, o) = (self.arrange(g, s), self.arrange(g, o));
        self.rel_decoder.forward(g, &self.store, s, o, cand)
    }
}

impl MinibatchLoss for ConvDecoder {
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Entity cross-entropy, joined (0.7 / 0.3) by a relation head over the
    /// batch's original-direction facts.
    fn batch_loss(&self, g: &mut Graph, batch: &Batch, _rng: &mut StdRng) -> NodeId {
        let tables = tables(g, &self.store);
        let logits = self.entity_logits(g, tables, batch);
        let loss = g.softmax_xent(logits, Rc::clone(&batch.objects));
        let m = self.num_relations as u32;
        let orig: Vec<usize> = (0..batch.rels.len()).filter(|&i| batch.rels[i] < m).collect();
        if orig.is_empty() {
            return loss;
        }
        let pick = |column: &[u32]| Rc::new(orig.iter().map(|&i| column[i]).collect());
        let rlogits = self.relation_logits(g, tables, pick(&batch.subjects), pick(&batch.objects));
        let rloss = g.softmax_xent(rlogits, pick(&batch.rels));
        let half = g.scale(rloss, 0.3);
        let whole = g.scale(loss, 0.7);
        g.add(whole, half)
    }
}

impl TkgBaseline for ConvDecoder {
    fn fit(&mut self, ctx: &TkgContext) {
        self.fit_minibatches(ctx, self.cfg.epochs, BATCH);
    }
}

impl Forecaster for ConvDecoder {
    fn entity_scores(&self, _past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
        infer(|g| {
            let tables = tables(g, &self.store);
            self.entity_logits(g, tables, &Batch::queries(subjects, rels, 0))
        })
    }

    fn relation_scores(&self, _past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
        infer(|g| {
            let tables = tables(g, &self.store);
            self.relation_logits(g, tables, ids(subjects), ids(objects))
        })
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

    #[test]
    fn conve_arrangement_permutes_columns_exactly() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(6).generate());
        let cfg = StaticTrainConfig { dim: 8, ..Default::default() };
        let m = ConvDecoder::new(cfg, ConvFlavor::ConvE, &ctx);
        let x = Tensor::from_fn(3, 8, |i, j| (i * 8 + j) as f32 * 0.37 - 4.0);
        let mut g = Graph::inference();
        let xn = g.constant(x.clone());
        let out = m.arrange(&mut g, xn);
        let out = g.value(out);
        for i in 0..3 {
            for j in 0..8 {
                assert_eq!(out.get(i, j).to_bits(), x.get(i, (7 * j + 1) % 8).to_bits());
            }
        }
    }
}
