//! The baseline interface: a [`Forecaster`] that can also train itself.

use retia::{Forecaster, TkgContext, Trainer};

/// A model the table harness trains and then scores with
/// [`retia::evaluate`]. [`Trainer`] is one: RETIA, its ablations and the
/// RE-GCN family are `Trainer`s over different [`retia::RetiaConfig`]s.
pub trait TkgBaseline: Forecaster {
    /// Trains on the training split.
    fn fit(&mut self, ctx: &TkgContext);

    /// Per-epoch `(entity, relation, joint)` losses of the last `fit` call
    /// (empty for models that do not expose a loss curve). Used by the
    /// Figure 3/4 harness.
    fn loss_history(&self) -> Vec<(f64, f64, f64)> {
        Vec::new()
    }
}

impl TkgBaseline for Trainer {
    fn fit(&mut self, ctx: &TkgContext) {
        Trainer::fit(self, ctx);
    }

    fn loss_history(&self) -> Vec<(f64, f64, f64)> {
        self.loss_history.iter().map(|l| (l.entity, l.relation, l.joint)).collect()
    }
}

/// Hyperparameters shared by the static / interpolation baselines.
#[derive(Clone, Debug)]
pub struct StaticTrainConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Training epochs over the (static) triple set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Minibatch size in facts.
    pub batch: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for StaticTrainConfig {
    fn default() -> Self {
        StaticTrainConfig { dim: 32, epochs: 20, lr: 1e-2, batch: 512, seed: 7 }
    }
}

/// All training triples with inverses appended (`(o, r + M, s)`), the static
/// view shared by the non-temporal baselines.
pub(crate) fn static_triples(ctx: &TkgContext) -> Vec<(u32, u32, u32)> {
    let m = ctx.num_relations as u32;
    let mut out = Vec::new();
    for &idx in &ctx.train_idx {
        for q in &ctx.snapshots[idx].facts {
            out.push((q.s, q.r, q.o));
            out.push((q.o, q.r + m, q.s));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Split};
    use retia_data::SyntheticConfig;
    use retia_tensor::Tensor;

    /// A trivially constant model to exercise the protocol machinery.
    struct Uniform;
    impl Forecaster for Uniform {
        fn entity_scores(
            &self,
            ctx: &TkgContext,
            _idx: usize,
            subjects: &[u32],
            _rels: &[u32],
        ) -> Tensor {
            Tensor::zeros(subjects.len(), ctx.num_entities)
        }
        fn relation_scores(
            &self,
            ctx: &TkgContext,
            _idx: usize,
            subjects: &[u32],
            _objects: &[u32],
        ) -> Tensor {
            Tensor::zeros(subjects.len(), ctx.num_relations)
        }
    }

    #[test]
    fn uniform_model_scores_at_chance() {
        let ds = SyntheticConfig::tiny(3).generate();
        let ctx = TkgContext::new(&ds);
        let mut m = Uniform;
        let report = evaluate(&mut m, &ctx, Split::Test).unwrap();
        // Average-tie ranking puts a constant scorer at the middle rank.
        let n = ctx.num_entities as f64;
        let expected_mrr = 2.0 / (n + 1.0);
        assert!(
            (report.entity_raw.mrr() - expected_mrr).abs() < expected_mrr * 0.5,
            "mrr {} expected ~{expected_mrr}",
            report.entity_raw.mrr()
        );
    }

    #[test]
    fn static_triples_include_inverses() {
        let ds = SyntheticConfig::tiny(3).generate();
        let ctx = TkgContext::new(&ds);
        let triples = static_triples(&ctx);
        assert_eq!(triples.len() % 2, 0);
        let m = ctx.num_relations as u32;
        assert!(triples.iter().any(|&(_, r, _)| r >= m));
        assert!(triples.iter().any(|&(_, r, _)| r < m));
    }
}
