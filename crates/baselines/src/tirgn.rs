//! TiRGN-lite (Li, Sun & Zhao, IJCAI 2022, simplified): the RE-GCN recurrent
//! local encoder combined with a *global history* channel — a copy
//! distribution over candidates that have answered the same query anywhere in
//! the past. The published TiRGN gates the two channels with a learned,
//! time-conditioned weight; this reimplementation uses a fixed mixture
//! weight, which preserves the behaviour the paper's tables probe (local
//! recurrence + one-hop historical repetition; see the paper's §IV-B
//! discussion of TiRGN's historical candidate restriction).

use retia::{Forecaster, Past, Retia, RetiaConfig, TkgContext, TrainError, Trainer};
use retia_graph::Snapshot;
use retia_tensor::Tensor;

use crate::copy_gen::CopyIndex;
use crate::regcn::RegcnFlavor;
use crate::traits::TkgBaseline;

/// Global-channel weight `α` (TiRGN's `history rate`).
const ALPHA: f32 = 0.3;

/// The TiRGN-lite baseline: local RE-GCN channel + global copy channel.
pub struct TirgnLite {
    local: Trainer,
    index: CopyIndex,
}

impl TirgnLite {
    /// Builds an untrained model sharing the RE-GCN hyperparameters.
    pub fn new(base: &RetiaConfig, ctx: &TkgContext) -> Self {
        let cfg = RegcnFlavor::Regcn.config(base);
        TirgnLite {
            local: Trainer::new(Retia::with_shape(&cfg, ctx.num_entities, ctx.num_relations), cfg),
            index: CopyIndex::default(),
        }
    }

    fn blend(local: Tensor, copy_rows: Vec<Vec<f32>>) -> Tensor {
        // Local scores are summed softmax probabilities over the k decode
        // states; renormalize rows to distributions before mixing.
        let mut out = local;
        for (i, copies) in copy_rows.iter().enumerate() {
            let row_sum: f32 = out.row(i).iter().sum();
            let row = out.row_mut(i);
            if row_sum > 0.0 {
                row.iter_mut().for_each(|x| *x /= row_sum);
            }
            for (x, &c) in row.iter_mut().zip(copies.iter()) {
                *x = (1.0 - ALPHA) * *x + ALPHA * c;
            }
        }
        out
    }
}

impl TkgBaseline for TirgnLite {
    fn fit(&mut self, ctx: &TkgContext) {
        self.local.fit(ctx);
        self.index.absorb_training(ctx);
    }

    fn loss_history(&self) -> Vec<(f64, f64, f64)> {
        self.local.loss_history()
    }
}

impl Forecaster for TirgnLite {
    fn begin_snapshot(&mut self, past: Past<'_>) {
        self.index.absorb(past.snapshots, past.num_relations);
        self.local.begin_snapshot(past);
    }

    fn entity_scores(&self, past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
        let local = self.local.entity_scores(past, subjects, rels);
        let copies: Vec<Vec<f32>> = subjects
            .iter()
            .zip(rels.iter())
            .map(|(&s, &r)| self.index.entity_distribution((s, r), past.num_entities))
            .collect();
        Self::blend(local, copies)
    }

    fn relation_scores(&self, past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
        let local = self.local.relation_scores(past, subjects, objects);
        let copies: Vec<Vec<f32>> = subjects
            .iter()
            .zip(objects.iter())
            .map(|(&s, &o)| self.index.relation_distribution((s, o), past.num_relations))
            .collect();
        Self::blend(local, copies)
    }

    fn end_snapshot(&mut self, past: Past<'_>, revealed: &Snapshot) -> Result<(), TrainError> {
        self.local.end_snapshot(past, revealed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Split};
    use retia_data::SyntheticConfig;

    #[test]
    fn tirgn_lite_trains_and_scores() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(21).generate());
        let cfg =
            RetiaConfig { dim: 8, channels: 4, k: 2, epochs: 2, patience: 0, ..Default::default() };
        let mut m = TirgnLite::new(&cfg, &ctx);
        m.fit(&ctx);
        let rep = evaluate(&mut m, &ctx, Split::Test).unwrap();
        let chance = 2.0 / (ctx.num_entities as f64 + 1.0);
        assert!(rep.entity_raw.mrr() > chance * 2.0);
    }

    #[test]
    fn global_channel_improves_over_pure_local_on_repetitive_data() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(22).generate());
        let cfg =
            RetiaConfig { dim: 8, channels: 4, k: 2, epochs: 2, patience: 0, ..Default::default() };
        let mut local = TirgnLite::new(&cfg, &ctx).local;
        local.fit(&ctx);
        let local_rep = evaluate(&mut local, &ctx, Split::Test).unwrap();

        let mut tirgn = TirgnLite::new(&cfg, &ctx);
        tirgn.fit(&ctx);
        let tirgn_rep = evaluate(&mut tirgn, &ctx, Split::Test).unwrap();

        assert!(
            tirgn_rep.entity_raw.mrr() > local_rep.entity_raw.mrr() * 0.9,
            "global channel catastrophically hurt: {} vs {}",
            tirgn_rep.entity_raw.mrr(),
            local_rep.entity_raw.mrr()
        );
    }

    #[test]
    fn copy_index_distributions_normalize() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(23).generate());
        let mut idx = CopyIndex::default();
        let past = ctx.past(5);
        idx.absorb(past.snapshots, past.num_relations);
        let snap = &ctx.snapshots[0];
        let q = snap.facts[0];
        let d = idx.entity_distribution((q.s, q.r), ctx.num_entities);
        let sum: f32 = d.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5 || sum == 0.0);
        assert!(d[q.o as usize] > 0.0);
    }
}
