//! CyGNet-style copy-generation baseline (Zhu et al., 2021).
//!
//! CyGNet scores a candidate as a mixture of a *copy* distribution (how often
//! the candidate answered the same `(s, r)` query in the past) and a
//! *generation* distribution from a learned scorer. We use historical
//! frequency counts for copy (CyGNet's "copy mode" over its historical
//! vocabulary) and a DistMult scorer for generation, mixed with weight `α`.

use std::collections::HashMap;

use retia::{Forecaster, TkgContext};
use retia_tensor::Tensor;

use crate::factorization::DistMult;
use crate::traits::{StaticTrainConfig, TkgBaseline};

/// Copy-generation model: `p = α · copy + (1 - α) · softmax(generation)`.
pub struct CyGNetCopy {
    gen: DistMult,
    /// Copy weight `α`.
    pub alpha: f32,
    ent_counts: HashMap<(u32, u32), HashMap<u32, f32>>,
    rel_counts: HashMap<(u32, u32), HashMap<u32, f32>>,
    seen_upto: usize,
    num_relations: usize,
}

impl CyGNetCopy {
    /// Builds an untrained model.
    pub fn new(cfg: StaticTrainConfig, ctx: &TkgContext) -> Self {
        CyGNetCopy {
            gen: DistMult::new(cfg, ctx),
            alpha: 0.8,
            ent_counts: HashMap::new(),
            rel_counts: HashMap::new(),
            seen_upto: 0,
            num_relations: ctx.num_relations,
        }
    }

    fn absorb_upto(&mut self, ctx: &TkgContext, upto: usize) {
        let m = ctx.num_relations as u32;
        while self.seen_upto < upto {
            let snap = &ctx.snapshots[self.seen_upto];
            for q in &snap.facts {
                *self.ent_counts.entry((q.s, q.r)).or_default().entry(q.o).or_insert(0.0) += 1.0;
                *self.ent_counts.entry((q.o, q.r + m)).or_default().entry(q.s).or_insert(0.0) +=
                    1.0;
                *self.rel_counts.entry((q.s, q.o)).or_default().entry(q.r).or_insert(0.0) += 1.0;
            }
            self.seen_upto += 1;
        }
    }

    fn copy_distribution(
        counts: &HashMap<(u32, u32), HashMap<u32, f32>>,
        key: (u32, u32),
        n: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; n];
        if let Some(c) = counts.get(&key) {
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

impl TkgBaseline for CyGNetCopy {
    fn fit(&mut self, ctx: &TkgContext) {
        self.gen.fit(ctx);
        // Absorb the training history; evaluation-time history is absorbed
        // incrementally by `begin_snapshot`.
        let last_train = ctx.train_idx.last().map(|&i| i + 1).unwrap_or(0);
        self.absorb_upto(ctx, last_train);
    }
}

impl Forecaster for CyGNetCopy {
    fn begin_snapshot(&mut self, ctx: &TkgContext, idx: usize) {
        self.absorb_upto(ctx, idx);
    }

    fn entity_scores(
        &self,
        ctx: &TkgContext,
        idx: usize,
        subjects: &[u32],
        rels: &[u32],
    ) -> Tensor {
        let gen = self.gen.entity_scores(ctx, idx, subjects, rels).softmax_rows();
        let n = ctx.num_entities;
        let mut out = Tensor::zeros(subjects.len(), n);
        for i in 0..subjects.len() {
            let copy = Self::copy_distribution(&self.ent_counts, (subjects[i], rels[i]), n);
            let row = out.row_mut(i);
            for j in 0..n {
                row[j] = self.alpha * copy[j] + (1.0 - self.alpha) * gen.get(i, j);
            }
        }
        out
    }

    fn relation_scores(
        &self,
        ctx: &TkgContext,
        idx: usize,
        subjects: &[u32],
        objects: &[u32],
    ) -> Tensor {
        let gen = self.gen.relation_scores(ctx, idx, subjects, objects).softmax_rows();
        let m = self.num_relations;
        let mut out = Tensor::zeros(subjects.len(), m);
        for i in 0..subjects.len() {
            let copy = Self::copy_distribution(&self.rel_counts, (subjects[i], objects[i]), m);
            let row = out.row_mut(i);
            for j in 0..m {
                row[j] = self.alpha * copy[j] + (1.0 - self.alpha) * gen.get(i, j);
            }
        }
        out
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
        let mut counts: HashMap<(u32, u32), HashMap<u32, f32>> = HashMap::new();
        counts.entry((0, 0)).or_default().insert(1, 3.0);
        counts.entry((0, 0)).or_default().insert(2, 1.0);
        let d = CyGNetCopy::copy_distribution(&counts, (0, 0), 4);
        assert!((d.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((d[1] - 0.75).abs() < 1e-6);
        // Unknown key: all zeros.
        let z = CyGNetCopy::copy_distribution(&counts, (9, 9), 4);
        assert_eq!(z, vec![0.0; 4]);
    }

    #[test]
    fn begin_snapshot_absorbs_incrementally() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(14).generate());
        let mut cyg = CyGNetCopy::new(StaticTrainConfig::default(), &ctx);
        assert_eq!(cyg.seen_upto, 0);
        cyg.begin_snapshot(&ctx, 5);
        assert_eq!(cyg.seen_upto, 5);
        // Going backwards is a no-op.
        cyg.begin_snapshot(&ctx, 3);
        assert_eq!(cyg.seen_upto, 5);
    }
}
