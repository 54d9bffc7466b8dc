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

/// Hyperparameters of the static / interpolation baselines. Their learning
/// rate, minibatch size and seed are shared constants of the one training
/// loop (`crate::train`).
#[derive(Clone, Debug)]
pub struct StaticTrainConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Training epochs over the (static) triple set.
    pub epochs: usize,
}

impl Default for StaticTrainConfig {
    fn default() -> Self {
        StaticTrainConfig { dim: 32, epochs: 20 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Past, Split};
    use retia_data::SyntheticConfig;
    use retia_tensor::Tensor;

    /// A trivially constant model to exercise the protocol machinery.
    struct Uniform;
    impl Forecaster for Uniform {
        fn entity_scores(&self, past: Past<'_>, subjects: &[u32], _rels: &[u32]) -> Tensor {
            Tensor::zeros(subjects.len(), past.num_entities)
        }
        fn relation_scores(&self, past: Past<'_>, subjects: &[u32], _objects: &[u32]) -> Tensor {
            Tensor::zeros(subjects.len(), past.num_relations)
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
}
