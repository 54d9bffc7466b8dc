//! CyGNet-style copy-generation baseline (Zhu et al., 2021), and the copy
//! index it shares with TiRGN-lite.
//!
//! CyGNet scores a candidate as a mixture of a *copy* distribution (how often
//! the candidate answered the same `(s, r)` query in the past) and a
//! *generation* distribution from a learned scorer. We use historical
//! frequency counts for copy (CyGNet's "copy mode" over its historical
//! vocabulary) and a DistMult scorer for generation, mixed with weight `α`.

use std::collections::HashMap;

use retia::{Forecaster, Past, TkgContext};
use retia_graph::Snapshot;
use retia_tensor::Tensor;

use crate::factorization::DistMult;
use crate::traits::{StaticTrainConfig, TkgBaseline};

/// Copy weight `α`.
const ALPHA: f32 = 0.8;

/// Frequency index of historical query answers: how often each candidate
/// answered an entity query `(s, r)` or a relation query `(s, o)` in the
/// snapshots absorbed so far, which are a prefix of the timeline.
#[derive(Default)]
pub(crate) struct CopyIndex {
    entity: HashMap<(u32, u32), HashMap<u32, f32>>,
    relation: HashMap<(u32, u32), HashMap<u32, f32>>,
    seen_upto: usize,
}

impl CopyIndex {
    /// Absorbs the snapshots of the prefix `history` not absorbed yet: a
    /// [`Past`]'s snapshots at scoring time.
    pub(crate) fn absorb(&mut self, history: &[Snapshot], num_relations: usize) {
        let m = num_relations as u32;
        for snap in history.get(self.seen_upto..).unwrap_or_default() {
            for q in &snap.facts {
                *self.entity.entry((q.s, q.r)).or_default().entry(q.o).or_insert(0.0) += 1.0;
                *self.entity.entry((q.o, q.r + m)).or_default().entry(q.s).or_insert(0.0) += 1.0;
                *self.relation.entry((q.s, q.o)).or_default().entry(q.r).or_insert(0.0) += 1.0;
            }
            self.seen_upto += 1;
        }
    }

    /// Absorbs the training history (every snapshot up to the last training
    /// one); evaluation-time history follows through `begin_snapshot`.
    pub(crate) fn absorb_training(&mut self, ctx: &TkgContext) {
        let last_train = ctx.train_idx.last().map(|&i| i + 1).unwrap_or(0);
        self.absorb(&ctx.snapshots[..last_train], ctx.num_relations);
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

/// Copy-generation model: `p = α · copy + (1 - α) · softmax(generation)`.
pub struct CyGNetCopy {
    gen: DistMult,
    index: CopyIndex,
}

impl CyGNetCopy {
    /// Builds an untrained model.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        CyGNetCopy { gen: DistMult::new(cfg, ctx), index: CopyIndex::default() }
    }

    /// Mixes each row's copy distribution into the softmax of `gen`.
    fn blend(gen: Tensor, copy: impl Fn(usize) -> Vec<f32>) -> Tensor {
        let mut out = gen.softmax_rows();
        for i in 0..out.rows() {
            let copy = copy(i);
            for (x, c) in out.row_mut(i).iter_mut().zip(copy) {
                *x = ALPHA * c + (1.0 - ALPHA) * *x;
            }
        }
        out
    }
}

impl TkgBaseline for CyGNetCopy {
    fn fit(&mut self, ctx: &TkgContext) {
        self.gen.fit(ctx);
        self.index.absorb_training(ctx);
    }
}

impl Forecaster for CyGNetCopy {
    fn begin_snapshot(&mut self, past: Past<'_>) {
        self.index.absorb(past.snapshots, past.num_relations);
    }

    fn entity_scores(&self, past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
        let gen = self.gen.entity_scores(past, subjects, rels);
        Self::blend(gen, |i| {
            self.index.entity_distribution((subjects[i], rels[i]), past.num_entities)
        })
    }

    fn relation_scores(&self, past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
        let gen = self.gen.relation_scores(past, subjects, objects);
        Self::blend(gen, |i| {
            self.index.relation_distribution((subjects[i], objects[i]), past.num_relations)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Split};
    use retia_data::SyntheticConfig;

    #[test]
    fn copy_improves_over_pure_generation() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(14).generate());
        let cfg = StaticTrainConfig { epochs: 6, ..Default::default() };

        let mut pure = DistMult::new(cfg.clone(), &ctx);
        pure.fit(&ctx);
        let gen_report = evaluate(&mut pure, &ctx, Split::Test).unwrap();

        let mut cyg = CyGNetCopy::new(cfg, &ctx);
        cyg.fit(&ctx);
        let copy_report = evaluate(&mut cyg, &ctx, Split::Test).unwrap();

        // Recurring facts make the copy mechanism a strong signal.
        assert!(
            copy_report.entity_raw.mrr() > gen_report.entity_raw.mrr(),
            "copy {} <= generation {}",
            copy_report.entity_raw.mrr(),
            gen_report.entity_raw.mrr()
        );
    }

    #[test]
    fn copy_distribution_normalizes() {
        let mut index = CopyIndex::default();
        index.entity.entry((0, 0)).or_default().insert(1, 3.0);
        index.entity.entry((0, 0)).or_default().insert(2, 1.0);
        let d = index.entity_distribution((0, 0), 4);
        assert!((d.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((d[1] - 0.75).abs() < 1e-6);
        // Unknown key: all zeros.
        let z = index.entity_distribution((9, 9), 4);
        assert_eq!(z, vec![0.0; 4]);
    }

    #[test]
    fn begin_snapshot_absorbs_incrementally() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(14).generate());
        let mut cyg = CyGNetCopy::new(StaticTrainConfig::default(), &ctx);
        assert_eq!(cyg.index.seen_upto, 0);
        cyg.begin_snapshot(ctx.past(5));
        assert_eq!(cyg.index.seen_upto, 5);
        // Going backwards is a no-op.
        cyg.begin_snapshot(ctx.past(3));
        assert_eq!(cyg.index.seen_upto, 5);
    }
}
