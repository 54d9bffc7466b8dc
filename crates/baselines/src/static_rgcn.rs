//! Static R-GCN baseline: one graph convolution over the whole (time-
//! collapsed) training graph, DistMult decoding — the R-GCN row of the
//! paper's tables.

use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use retia::{Forecaster, Past, TkgContext};
use retia_graph::{Quad, Snapshot};
use retia_nn::{EntityRgcn, WeightMode};
use retia_tensor::{Graph, NodeId, ParamStore, Tensor};

use crate::factorization::{embeddings, DistMult};
use crate::train::{infer, Batch, MinibatchLoss};
use crate::traits::{StaticTrainConfig, TkgBaseline};

/// Minibatch size in facts: the GCN pass dominates a step, so this model
/// takes fewer, larger steps than the others.
const BATCH: usize = 1024;

/// R-GCN over the static training graph with DistMult's score head.
pub struct StaticRgcn {
    cfg: StaticTrainConfig,
    pub(crate) store: ParamStore,
    rgcn: EntityRgcn,
    static_snap: Option<Snapshot>,
    /// The eval-mode encoded entities, computed once after training.
    encoded: Option<Arc<Tensor>>,
}

impl StaticRgcn {
    /// Builds an untrained model.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        let (m, mut store) = (ctx.num_relations, embeddings(cfg.dim, ctx));
        let rgcn = EntityRgcn::new(&mut store, "gcn", cfg.dim, 2 * m, WeightMode::Basis(4), 2, 0.2);
        StaticRgcn { cfg, store, rgcn, static_snap: None, encoded: None }
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

    /// The encoded entities and the relation table.
    pub(crate) fn encode(&self, g: &mut Graph) -> (NodeId, NodeId) {
        let snap = self.static_snap.as_ref().expect("fit() must run first");
        let ent = g.param(&self.store, "ent");
        let rel = g.param(&self.store, "rel");
        (self.rgcn.forward(g, &self.store, ent, rel, snap), rel)
    }

    /// Runs a score head over the cached encoding in an inference graph.
    fn scores(&self, head: impl FnOnce(&mut Graph, (NodeId, NodeId)) -> NodeId) -> Tensor {
        let encoded = self.encoded.as_ref().expect("fit() must run first");
        infer(|g| {
            let enc = g.shared_constant(Arc::clone(encoded));
            let rel = g.param(&self.store, "rel");
            head(g, (enc, rel))
        })
    }
}

impl MinibatchLoss for StaticRgcn {
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn batch_loss(&self, g: &mut Graph, batch: &Batch, _rng: &mut StdRng) -> NodeId {
        let encoded = self.encode(g);
        let logits = DistMult::entity_logits(g, encoded, batch);
        g.softmax_xent(logits, Rc::clone(&batch.objects))
    }
}

impl TkgBaseline for StaticRgcn {
    fn fit(&mut self, ctx: &TkgContext) {
        self.static_snap = Some(Self::build_static_snapshot(ctx));
        self.fit_minibatches(ctx, self.cfg.epochs, BATCH);
        let mut g = Graph::inference();
        let (enc, _) = self.encode(&mut g);
        self.encoded = Some(g.share(enc));
    }
}

impl Forecaster for StaticRgcn {
    fn entity_scores(&self, _past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
        self.scores(|g, encoded| {
            DistMult::entity_logits(g, encoded, &Batch::queries(subjects, rels, 0))
        })
    }

    fn relation_scores(&self, past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
        let m = past.num_relations;
        self.scores(|g, encoded| DistMult::relation_logits(g, encoded, subjects, objects, m))
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
        m.entity_scores(ctx.past(0), &[0], &[0]);
    }
}
