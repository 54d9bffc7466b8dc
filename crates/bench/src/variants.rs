//! Model-variant registry: every (dataset, variant) cell of the paper's
//! tables maps to one [`Variant`] here.

use retia::{HyperrelMode, RelationMode, Retia, RetiaConfig, TkgContext, Trainer};
use retia_baselines::{
    ComplEx, ConvDecoder, ConvFlavor, CyGNetCopy, DistMult, HyTE, RegcnFlavor, RenetLite, RotatE,
    StaticRgcn, StaticTrainConfig, TTransE, TaDistMult, TirgnLite, TkgBaseline,
};
use retia_data::{DatasetProfile, SyntheticConfig, TkgDataset};

use crate::runner::Settings;

/// Builds the dataset and its context for a profile (deterministic).
pub fn dataset_context(profile: DatasetProfile) -> (TkgDataset, TkgContext) {
    let ds = SyntheticConfig::profile(profile).generate();
    let ctx = TkgContext::new(&ds);
    (ds, ctx)
}

/// The RETIA configuration the harness uses for a dataset profile: the
/// paper's per-dataset history length (capped for the two 9-length datasets
/// to keep mini-scale CPU training tractable — recorded in EXPERIMENTS.md)
/// and static-constraint weighting on the ICEWS profiles only, as in the
/// paper.
pub fn retia_config_for(profile: DatasetProfile, s: &Settings) -> RetiaConfig {
    let k = match profile {
        DatasetProfile::Icews14 | DatasetProfile::Icews0515 => 6,
        DatasetProfile::Icews18 => 4,
        DatasetProfile::Yago | DatasetProfile::Wiki => 3,
    };
    let static_weight = match profile {
        DatasetProfile::Yago | DatasetProfile::Wiki => 0.0,
        _ => 0.3,
    };
    RetiaConfig {
        dim: s.dim,
        channels: s.channels,
        k,
        epochs: s.epochs,
        patience: 0,
        static_weight,
        online: true,
        online_steps: 1,
        seed: 42,
        ..Default::default()
    }
}

/// Every locally measured model variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Full RETIA (online, the headline configuration).
    Retia,
    /// RETIA without online continual training (Figure 8).
    RetiaOffline,
    /// RETIA without the twin-interact module (Table IX, Figures 3–4).
    RetiaNoTim,
    /// RETIA without the entity aggregation module (Table VI).
    RetiaNoEam,
    /// Relation modeling ablations (Figures 6–7; `RmNone` is also Table VI's
    /// "wo. RAM").
    RetiaRmNone,
    /// "w. MP" — mean pooling only. (The next level, "w. MP+LSTM", is
    /// exactly [`Variant::Cen`]'s configuration.)
    RetiaRmMp,
    /// Hyperrelation ablations (Figure 5): initial embeddings into the RAM.
    RetiaHrmInit,
    /// "w. HMP" — hyper mean pooling only.
    RetiaHrmHmp,
    /// RE-GCN baseline.
    Regcn,
    /// CEN-style online RE-GCN.
    Cen,
    /// RGCRN baseline.
    Rgcrn,
    /// CyGNet-style copy-generation.
    CyGNet,
    /// Static baselines.
    DistMult,
    /// ComplEx.
    ComplEx,
    /// ConvE (1-D variant).
    ConvE,
    /// Conv-TransE.
    ConvTransE,
    /// RotatE.
    RotatE,
    /// Static R-GCN.
    StaticRgcn,
    /// Interpolation baselines.
    TTransE,
    /// TA-DistMult (simplified composition).
    TaDistMult,
    /// TiRGN-lite (RE-GCN local channel + global history copy).
    Tirgn,
    /// HyTE (hyperplane-based interpolation).
    Hyte,
    /// RE-NET-lite (autoregressive neighborhood encoder).
    Renet,
}

impl Variant {
    /// Stable id used as the cache key.
    pub fn id(self) -> &'static str {
        match self {
            Variant::Retia => "retia",
            Variant::RetiaOffline => "retia-offline",
            Variant::RetiaNoTim => "retia-wo-tim",
            Variant::RetiaNoEam => "retia-wo-eam",
            Variant::RetiaRmNone => "retia-rm-none",
            Variant::RetiaRmMp => "retia-rm-mp",
            Variant::RetiaHrmInit => "retia-hrm-init",
            Variant::RetiaHrmHmp => "retia-hrm-hmp",
            Variant::Regcn => "regcn",
            Variant::Cen => "cen",
            Variant::Rgcrn => "rgcrn",
            Variant::CyGNet => "cygnet",
            Variant::DistMult => "distmult",
            Variant::ComplEx => "complex",
            Variant::ConvE => "conve",
            Variant::ConvTransE => "convtranse",
            Variant::RotatE => "rotate",
            Variant::StaticRgcn => "rgcn-static",
            Variant::TTransE => "ttranse",
            Variant::TaDistMult => "tadistmult",
            Variant::Tirgn => "tirgn",
            Variant::Hyte => "hyte",
            Variant::Renet => "renet",
        }
    }

    /// Display name matching the paper's table rows.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Retia => "RETIA",
            Variant::RetiaOffline => "RETIA (offline)",
            Variant::RetiaNoTim => "wo. TIM",
            Variant::RetiaNoEam => "wo. EAM",
            Variant::RetiaRmNone => "wo. RM / wo. RAM",
            Variant::RetiaRmMp => "w. MP",
            Variant::RetiaHrmInit => "wo. HRM",
            Variant::RetiaHrmHmp => "w. HMP",
            Variant::Regcn => "RE-GCN",
            Variant::Cen => "CEN",
            Variant::Rgcrn => "RGCRN",
            Variant::CyGNet => "CyGNet",
            Variant::DistMult => "DistMult",
            Variant::ComplEx => "ComplEx",
            Variant::ConvE => "ConvE",
            Variant::ConvTransE => "Conv-TransE",
            Variant::RotatE => "RotatE",
            Variant::StaticRgcn => "R-GCN",
            Variant::TTransE => "TTransE",
            Variant::TaDistMult => "TA-DistMult",
            Variant::Tirgn => "TiRGN",
            Variant::Hyte => "HyTE",
            Variant::Renet => "RE-NET",
        }
    }

    /// Maps a paper table row name to the locally measured variant, if any
    /// (paper-only methods return `None`).
    pub fn for_paper_name(name: &str) -> Option<Variant> {
        match name {
            "DistMult" => Some(Variant::DistMult),
            "ConvE" => Some(Variant::ConvE),
            "ComplEx" => Some(Variant::ComplEx),
            "Conv-TransE" => Some(Variant::ConvTransE),
            "RotatE" => Some(Variant::RotatE),
            "R-GCN" => Some(Variant::StaticRgcn),
            "TTransE" => Some(Variant::TTransE),
            "TA-DistMult" => Some(Variant::TaDistMult),
            "CyGNet" => Some(Variant::CyGNet),
            "RE-GCN" => Some(Variant::Regcn),
            "CEN" => Some(Variant::Cen),
            "RGCRN" => Some(Variant::Rgcrn),
            "RETIA" => Some(Variant::Retia),
            "TiRGN" => Some(Variant::Tirgn),
            "HyTE" => Some(Variant::Hyte),
            "RE-NET" => Some(Variant::Renet),
            _ => None,
        }
    }

    /// Instantiates the untrained model for a dataset.
    pub fn build(
        self,
        profile: DatasetProfile,
        ctx: &TkgContext,
        s: &Settings,
    ) -> Box<dyn TkgBaseline> {
        let base = retia_config_for(profile, s);
        let static_cfg = StaticTrainConfig { dim: s.dim, epochs: s.static_epochs };
        // RETIA, its ablations and the RE-GCN family are trainers over
        // different configurations, scored like `retia evaluate` scores them.
        let trainer = |cfg: RetiaConfig| -> Box<dyn TkgBaseline> {
            let model = Retia::with_shape(&cfg, ctx.num_entities, ctx.num_relations);
            Box::new(Trainer::new(model, cfg))
        };
        match self {
            Variant::Retia => trainer(base),
            Variant::RetiaOffline => trainer(RetiaConfig { online: false, ..base }),
            Variant::RetiaNoTim => trainer(RetiaConfig { use_tim: false, ..base }),
            Variant::RetiaNoEam => trainer(RetiaConfig { use_eam: false, ..base }),
            Variant::RetiaRmNone => {
                trainer(RetiaConfig { relation_mode: RelationMode::None, ..base })
            }
            Variant::RetiaRmMp => trainer(RetiaConfig { relation_mode: RelationMode::Mp, ..base }),
            Variant::RetiaHrmInit => {
                trainer(RetiaConfig { hyperrel_mode: HyperrelMode::Init, ..base })
            }
            Variant::RetiaHrmHmp => {
                trainer(RetiaConfig { hyperrel_mode: HyperrelMode::Hmp, ..base })
            }
            Variant::Regcn => trainer(RegcnFlavor::Regcn.config(&base)),
            Variant::Cen => trainer(RegcnFlavor::Cen.config(&base)),
            Variant::Rgcrn => trainer(RegcnFlavor::Rgcrn.config(&base)),
            Variant::CyGNet => Box::new(CyGNetCopy::new(static_cfg, ctx)),
            Variant::DistMult => Box::new(DistMult::new(static_cfg, ctx)),
            Variant::ComplEx => Box::new(ComplEx::new(static_cfg, ctx)),
            Variant::ConvE => Box::new(ConvDecoder::new(static_cfg, ConvFlavor::ConvE, ctx)),
            Variant::ConvTransE => {
                Box::new(ConvDecoder::new(static_cfg, ConvFlavor::ConvTransE, ctx))
            }
            Variant::RotatE => Box::new(RotatE::new(static_cfg, ctx)),
            Variant::StaticRgcn => Box::new(StaticRgcn::new(static_cfg, ctx)),
            Variant::TTransE => Box::new(TTransE::new(static_cfg, ctx)),
            Variant::TaDistMult => Box::new(TaDistMult::new(static_cfg, ctx)),
            Variant::Tirgn => Box::new(TirgnLite::new(&base, ctx)),
            Variant::Hyte => Box::new(HyTE::new(static_cfg, ctx)),
            Variant::Renet => Box::new(RenetLite::new(&base, ctx)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use retia::{Forecaster, Past, Split, TrainError};
    use retia_graph::Snapshot;
    use retia_tensor::Tensor;

    /// Every harness variant: 11 `Trainer` configurations, then the 12
    /// other models.
    const ALL: [Variant; 23] = [
        Variant::Retia,
        Variant::RetiaOffline,
        Variant::RetiaNoTim,
        Variant::RetiaNoEam,
        Variant::RetiaRmNone,
        Variant::RetiaRmMp,
        Variant::RetiaHrmInit,
        Variant::RetiaHrmHmp,
        Variant::Regcn,
        Variant::Cen,
        Variant::Rgcrn,
        Variant::CyGNet,
        Variant::DistMult,
        Variant::ComplEx,
        Variant::ConvE,
        Variant::ConvTransE,
        Variant::RotatE,
        Variant::StaticRgcn,
        Variant::TTransE,
        Variant::TaDistMult,
        Variant::Tirgn,
        Variant::Hyte,
        Variant::Renet,
    ];

    #[test]
    fn variant_ids_are_unique() {
        let ids: std::collections::HashSet<_> = ALL.iter().map(|v| v.id()).collect();
        assert_eq!(ids.len(), ALL.len());
    }

    /// Figures 6–7's "w. MP+LSTM" row reads CEN's run: the two would be one
    /// configuration trained twice.
    #[test]
    fn cen_is_retia_with_mp_lstm_relations() {
        for profile in DatasetProfile::ALL {
            let base = retia_config_for(profile, &Settings::default());
            let mp_lstm = RetiaConfig { relation_mode: RelationMode::MpLstm, ..base.clone() };
            assert_eq!(RegcnFlavor::Cen.config(&base), mp_lstm, "{}", profile.name());
        }
    }

    /// Builds every model that is not a `Trainer` configuration through
    /// `Variant::build`, fits it for one epoch at d=8 on the tiny profile and
    /// scores it with `retia::evaluate`.
    #[test]
    fn every_baseline_variant_fits_and_scores_on_the_tiny_profile() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(5).generate());
        let settings =
            Settings { dim: 8, channels: 4, epochs: 1, static_epochs: 1, refresh: false };
        let facts: usize = ctx.test_idx.iter().map(|&i| ctx.snapshots[i].facts.len()).sum();
        for variant in [
            Variant::CyGNet,
            Variant::DistMult,
            Variant::ComplEx,
            Variant::ConvE,
            Variant::ConvTransE,
            Variant::RotatE,
            Variant::StaticRgcn,
            Variant::TTransE,
            Variant::TaDistMult,
            Variant::Tirgn,
            Variant::Hyte,
            Variant::Renet,
        ] {
            let mut model = variant.build(DatasetProfile::Yago, &ctx, &settings);
            model.fit(&ctx);
            let report = retia::evaluate(model.as_mut(), &ctx, retia::Split::Test).unwrap();
            let name = variant.label();
            for (metrics, count) in [
                (report.entity_raw, 2 * facts),
                (report.entity_filtered, 2 * facts),
                (report.relation_raw, facts),
                (report.relation_filtered, facts),
            ] {
                let (mrr, h1, h3, h10) = metrics.as_percentages();
                assert!(
                    [mrr, h1, h3, h10].iter().all(|x| x.is_finite()),
                    "{name}: non-finite metrics {metrics:?}"
                );
                assert_eq!(metrics.count(), count, "{name}: query count");
            }
        }
    }

    /// A model scored through `retia::evaluate` that keeps the bits of the
    /// last scored snapshot's entity and relation scores.
    struct LastScores<'m> {
        model: &'m mut dyn TkgBaseline,
        bits: RefCell<Vec<u32>>,
    }

    impl LastScores<'_> {
        fn keep(&self, scores: Tensor) -> Tensor {
            self.bits.borrow_mut().extend(scores.data().iter().map(|x| x.to_bits()));
            scores
        }
    }

    impl Forecaster for LastScores<'_> {
        fn begin_snapshot(&mut self, past: Past<'_>) {
            self.bits.get_mut().clear();
            self.model.begin_snapshot(past);
        }

        fn entity_scores(&self, past: Past<'_>, subjects: &[u32], rels: &[u32]) -> Tensor {
            self.keep(self.model.entity_scores(past, subjects, rels))
        }

        fn relation_scores(&self, past: Past<'_>, subjects: &[u32], objects: &[u32]) -> Tensor {
            self.keep(self.model.relation_scores(past, subjects, objects))
        }

        fn end_snapshot(&mut self, past: Past<'_>, revealed: &Snapshot) -> Result<(), TrainError> {
            self.model.end_snapshot(past, revealed)
        }
    }

    /// Scoring is causal end to end. Two tiny-profile contexts differ only
    /// in the subjects and objects of the test snapshots' facts; a fresh
    /// model of each variant (d=8, one epoch) is fitted on each and scored
    /// on the validation split, and the last validation snapshot's scores
    /// must agree bit for bit. A `fit`, a scorer or a protocol that let a
    /// test snapshot reach a model early would tell the two apart.
    #[test]
    fn scores_never_depend_on_later_snapshots() {
        let ds = SyntheticConfig::tiny(5).generate();
        let mut scrambled = ds.clone();
        let mut rng = StdRng::seed_from_u64(1);
        let n = ds.num_entities as u32;
        for q in &mut scrambled.test {
            (q.s, q.o) = (rng.gen_range(0..n), rng.gen_range(0..n));
        }
        let (ctx, other) = (TkgContext::new(&ds), TkgContext::new(&scrambled));
        let times = |c: &TkgContext| c.snapshots.iter().map(|s| s.t).collect::<Vec<_>>();
        assert_eq!(times(&ctx), times(&other));
        assert_eq!((&ctx.valid_idx, &ctx.test_idx), (&other.valid_idx, &other.test_idx));
        assert!(ctx.test_idx.iter().any(|&i| ctx.snapshots[i] != other.snapshots[i]));

        let settings =
            Settings { dim: 8, channels: 4, epochs: 1, static_epochs: 1, refresh: false };
        let last_valid_scores = |variant: Variant, ctx: &TkgContext| {
            let mut model = variant.build(DatasetProfile::Yago, ctx, &settings);
            model.fit(ctx);
            let mut scored = LastScores { model: model.as_mut(), bits: RefCell::default() };
            retia::evaluate(&mut scored, ctx, Split::Valid).unwrap();
            scored.bits.into_inner()
        };
        for variant in ALL {
            let bits = last_valid_scores(variant, &ctx);
            assert!(!bits.is_empty(), "{}: nothing scored", variant.label());
            assert!(
                bits == last_valid_scores(variant, &other),
                "{}: the last validation snapshot's scores read the test snapshots",
                variant.label()
            );
        }
    }

    #[test]
    fn config_for_uses_paper_structure() {
        let s = Settings::default();
        let c14 = retia_config_for(DatasetProfile::Icews14, &s);
        let cy = retia_config_for(DatasetProfile::Yago, &s);
        assert!(c14.k > cy.k, "ICEWS14 uses a longer history than YAGO");
        assert!(c14.static_weight > 0.0 && cy.static_weight == 0.0);
    }
}
