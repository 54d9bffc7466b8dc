//! The RE-GCN family: RE-GCN, CEN and RGCRN as configurations of the RETIA
//! recurrence.
//!
//! This is faithful to the paper's own framing: RE-GCN is RETIA's EAM with
//! mean-pooling+recurrent relation updates ("w. MP+LSTM" in Figure 6) and no
//! hyperrelation aggregation; CEN adds online continual training; RGCRN is
//! the entity GCN + GRU without relation modeling. Each member is a plain
//! [`retia::Trainer`] over [`RegcnFlavor::config`], scored like RETIA.

use retia::{RelationMode, RetiaConfig};

/// Which family member to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegcnFlavor {
    /// RE-GCN (Li et al., 2021): recurrent entity R-GCN + pooled/recurrent
    /// relation embeddings, offline.
    Regcn,
    /// CEN-style (Li et al., 2022): RE-GCN with online continual training.
    Cen,
    /// RGCRN (Seo et al., 2018, adapted): recurrent entity R-GCN with static
    /// learned relation embeddings.
    Rgcrn,
}

impl RegcnFlavor {
    /// The family member's configuration: `base` supplies the shared
    /// hyperparameters (dim, k, epochs...); the flavor overrides the
    /// architecture switches and the online flag.
    pub fn config(self, base: &RetiaConfig) -> RetiaConfig {
        let (relation_mode, use_tim, online) = match self {
            RegcnFlavor::Regcn => (RelationMode::MpLstm, true, false),
            RegcnFlavor::Cen => (RelationMode::MpLstm, true, true),
            RegcnFlavor::Rgcrn => (RelationMode::Static, false, false),
        };
        RetiaConfig { relation_mode, use_tim, online, ..base.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia::{evaluate, Retia, Split, TkgContext, Trainer};
    use retia_data::SyntheticConfig;

    fn trainer(flavor: RegcnFlavor, ctx: &TkgContext) -> Trainer {
        let base =
            RetiaConfig { dim: 8, channels: 4, k: 2, epochs: 2, patience: 0, ..Default::default() };
        let cfg = flavor.config(&base);
        Trainer::new(Retia::with_shape(&cfg, ctx.num_entities, ctx.num_relations), cfg)
    }

    #[test]
    fn regcn_family_trains_and_scores() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(13).generate());
        for flavor in [RegcnFlavor::Regcn, RegcnFlavor::Rgcrn] {
            let mut m = trainer(flavor, &ctx);
            m.fit(&ctx);
            let report = evaluate(&mut m, &ctx, Split::Test).unwrap();
            let chance = 2.0 / (ctx.num_entities as f64 + 1.0);
            assert!(
                report.entity_raw.mrr() > chance * 2.0,
                "{flavor:?}: mrr {}",
                report.entity_raw.mrr()
            );
        }
    }

    #[test]
    fn cen_updates_online() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(13).generate());
        let mut m = trainer(RegcnFlavor::Cen, &ctx);
        m.fit(&ctx);
        let before = m.model.store().value("ent0").clone();
        let _ = evaluate(&mut m, &ctx, Split::Test).unwrap();
        assert!(
            before.max_abs_diff(m.model.store().value("ent0")) > 0.0,
            "CEN must update during evaluation"
        );
    }
}
