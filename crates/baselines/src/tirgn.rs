//! TiRGN-lite (Li, Sun & Zhao, IJCAI 2022, simplified): the RE-GCN recurrent
//! local encoder combined with a *global history* channel — a copy
//! distribution over candidates that have answered the same query anywhere in
//! the past. The published TiRGN gates the two channels with a learned,
//! time-conditioned weight; this reimplementation uses a fixed mixture
//! weight, which preserves the behaviour the paper's tables probe (local
//! recurrence + one-hop historical repetition; see the paper's §IV-B
//! discussion of TiRGN's historical candidate restriction).

use std::collections::HashMap;

use retia::{Forecaster, Retia, RetiaConfig, TkgContext, TrainError, Trainer};
use retia_tensor::Tensor;

use crate::regcn::RegcnFlavor;
use crate::traits::TkgBaseline;

/// Frequency index of historical query answers (the "global history").
#[derive(Default)]
pub(crate) struct CopyIndex {
    entity: HashMap<(u32, u32), HashMap<u32, f32>>,
    relation: HashMap<(u32, u32), HashMap<u32, f32>>,
    seen_upto: usize,
}

impl CopyIndex {
    pub(crate) fn absorb_upto(&mut self, ctx: &TkgContext, upto: usize) {
        let m = ctx.num_relations as u32;
        while self.seen_upto < upto {
            let snap = &ctx.snapshots[self.seen_upto];
            for q in &snap.facts {
                *self.entity.entry((q.s, q.r)).or_default().entry(q.o).or_insert(0.0) += 1.0;
                *self.entity.entry((q.o, q.r + m)).or_default().entry(q.s).or_insert(0.0) += 1.0;
                *self.relation.entry((q.s, q.o)).or_default().entry(q.r).or_insert(0.0) += 1.0;
            }
            self.seen_upto += 1;
        }
    }

    /// Normalized copy distribution for one entity query.
    pub(crate) fn entity_distribution(&self, key: (u32, u32), n: usize) -> Vec<f32> {
        Self::normalize(self.entity.get(&key), n)
    }

    /// Normalized copy distribution for one relation query.
    pub(crate) fn relation_distribution(&self, key: (u32, u32), m: usize) -> Vec<f32> {
        Self::normalize(self.relation.get(&key), m)
    }

    fn normalize(counts: Option<&HashMap<u32, f32>>, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n];
        if let Some(c) = counts {
            let total: f32 = c.values().sum();
            if total > 0.0 {
                for (&cand, &cnt) in c {
                    out[cand as usize] = cnt / total;
                }
            }
        }
        out
    }
}

/// The TiRGN-lite baseline: local RE-GCN channel + global copy channel.
pub struct TirgnLite {
    local: Trainer,
    index: CopyIndex,
    /// Global-channel weight `α` (TiRGN's `history rate`).
    pub alpha: f32,
}

impl TirgnLite {
    /// Builds an untrained model sharing the RE-GCN hyperparameters.
    pub fn new(base: &RetiaConfig, ctx: &TkgContext) -> Self {
        let cfg = RegcnFlavor::Regcn.config(base);
        TirgnLite {
            local: Trainer::new(Retia::with_shape(&cfg, ctx.num_entities, ctx.num_relations), cfg),
            index: CopyIndex::default(),
            alpha: 0.3,
        }
    }

    fn blend(&self, local: Tensor, copy_rows: Vec<Vec<f32>>) -> Tensor {
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
                *x = (1.0 - self.alpha) * *x + self.alpha * c;
            }
        }
        out
    }
}

impl TkgBaseline for TirgnLite {
    fn fit(&mut self, ctx: &TkgContext) {
        self.local.fit(ctx);
        let last_train = ctx.train_idx.last().map(|&i| i + 1).unwrap_or(0);
        self.index.absorb_upto(ctx, last_train);
    }

    fn loss_history(&self) -> Vec<(f64, f64, f64)> {
        self.local.loss_history()
    }
}

impl Forecaster for TirgnLite {
    fn begin_snapshot(&mut self, ctx: &TkgContext, idx: usize) {
        self.index.absorb_upto(ctx, idx);
        self.local.begin_snapshot(ctx, idx);
    }

    fn entity_scores(
        &self,
        ctx: &TkgContext,
        idx: usize,
        subjects: &[u32],
        rels: &[u32],
    ) -> Tensor {
        let local = self.local.entity_scores(ctx, idx, subjects, rels);
        let copies: Vec<Vec<f32>> = subjects
            .iter()
            .zip(rels.iter())
            .map(|(&s, &r)| self.index.entity_distribution((s, r), ctx.num_entities))
            .collect();
        self.blend(local, copies)
    }

    fn relation_scores(
        &self,
        ctx: &TkgContext,
        idx: usize,
        subjects: &[u32],
        objects: &[u32],
    ) -> Tensor {
        let local = self.local.relation_scores(ctx, idx, subjects, objects);
        let copies: Vec<Vec<f32>> = subjects
            .iter()
            .zip(objects.iter())
            .map(|(&s, &o)| self.index.relation_distribution((s, o), ctx.num_relations))
            .collect();
        self.blend(local, copies)
    }

    fn end_snapshot(&mut self, ctx: &TkgContext, idx: usize) -> Result<(), TrainError> {
        self.local.end_snapshot(ctx, idx)
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
        idx.absorb_upto(&ctx, 5);
        let snap = &ctx.snapshots[0];
        let q = snap.facts[0];
        let d = idx.entity_distribution((q.s, q.r), ctx.num_entities);
        let sum: f32 = d.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5 || sum == 0.0);
        assert!(d[q.o as usize] > 0.0);
    }
}
