//! Evaluation-protocol invariants across the core trainer and the baseline
//! harness.

use retia::{
    entity_queries, evaluate, relation_queries, Forecaster, Past, Retia, RetiaConfig, Split,
    TkgContext, Trainer,
};
use retia_baselines::{DistMult, StaticTrainConfig, TkgBaseline};
use retia_data::SyntheticConfig;
use retia_eval::{rank_of, rank_of_filtered, FilterSet};
use retia_graph::Snapshot;

#[test]
fn query_counts_match_across_harnesses() {
    let ds = SyntheticConfig::tiny(400).generate();
    let ctx = TkgContext::new(&ds);

    // Core trainer.
    let cfg = RetiaConfig {
        dim: 8,
        channels: 4,
        k: 2,
        epochs: 1,
        patience: 0,
        online: false,
        ..Default::default()
    };
    let mut trainer = Trainer::new(Retia::new(&cfg, &ds), cfg);
    trainer.fit(&ctx);
    let core_rep = trainer.evaluate(&ctx, Split::Test);

    // Baseline harness.
    let mut dm = DistMult::new(StaticTrainConfig { epochs: 1, ..Default::default() }, &ctx);
    dm.fit(&ctx);
    let base_rep = evaluate(&mut dm, &ctx, Split::Test).unwrap();

    assert_eq!(core_rep.entity_raw.count(), base_rep.entity_raw.count());
    assert_eq!(core_rep.relation_raw.count(), base_rep.relation_raw.count());
    assert_eq!(core_rep.entity_raw.count(), ds.test.len() * 2);
    assert_eq!(core_rep.relation_raw.count(), ds.test.len());
}

#[test]
fn harness_and_trainer_score_retia_identically() {
    // The table harness boxes a trainer as a `dyn TkgBaseline` and scores it
    // with `retia::evaluate`; `retia evaluate` calls `Trainer::evaluate`.
    // Two twins trained the same way must report the same bits, online
    // steps included.
    let ds = SyntheticConfig::tiny(13).generate();
    let ctx = TkgContext::new(&ds);
    for online in [false, true] {
        let cfg = RetiaConfig {
            dim: 8,
            channels: 4,
            k: 2,
            epochs: 2,
            patience: 0,
            online,
            ..Default::default()
        };
        let twin = || Trainer::new(Retia::new(&cfg, &ds), cfg.clone());

        let mut boxed: Box<dyn TkgBaseline> = Box::new(twin());
        boxed.fit(&ctx);
        let via_harness = evaluate(boxed.as_mut(), &ctx, Split::Test).unwrap();

        let mut trainer = twin();
        trainer.fit(&ctx);
        let via_trainer = trainer.evaluate(&ctx, Split::Test);

        assert_eq!(via_harness.entity_raw, via_trainer.entity_raw, "online={online}");
        assert_eq!(via_harness.entity_filtered, via_trainer.entity_filtered, "online={online}");
        assert_eq!(via_harness.relation_raw, via_trainer.relation_raw, "online={online}");
        assert_eq!(via_harness.relation_filtered, via_trainer.relation_filtered, "online={online}");
    }
}

#[test]
fn filtered_metrics_dominate_raw() {
    // Removing conflicting ground truths can only improve ranks, for any
    // model — checked via a deterministic scorer.
    let scores = [0.9f32, 0.8, 0.7, 0.6, 0.5];
    for target in 0..scores.len() {
        for other in 0..scores.len() {
            let mut filter = FilterSet::new();
            filter.insert(other as u32);
            assert!(
                rank_of_filtered(&scores, target, &filter) <= rank_of(&scores, target),
                "filtering worsened the rank"
            );
        }
    }
}

#[test]
fn entity_queries_are_invertible() {
    // For each original fact, the subject query's target must be recoverable
    // by swapping the object query.
    let ds = SyntheticConfig::tiny(401).generate();
    let ctx = TkgContext::new(&ds);
    let snap = &ctx.snapshots[0];
    let m = ds.num_relations as u32;
    let (subjects, rels, targets) = entity_queries(snap, ds.num_relations);
    for (i, q) in snap.facts.iter().enumerate() {
        // Even positions: object query; odd: inverse/subject query.
        assert_eq!(subjects[2 * i], q.s);
        assert_eq!(rels[2 * i], q.r);
        assert_eq!(targets[2 * i], q.o);
        assert_eq!(subjects[2 * i + 1], q.o);
        assert_eq!(rels[2 * i + 1], q.r + m);
        assert_eq!(targets[2 * i + 1], q.s);
    }
    let (rs, ro, rt) = relation_queries(snap);
    for (i, q) in snap.facts.iter().enumerate() {
        assert_eq!((rs[i], ro[i], rt[i]), (q.s, q.o, q.r));
    }
}

#[test]
fn online_models_see_strictly_past_information_only() {
    // The begin/end snapshot callbacks must never expose the evaluated
    // snapshot's facts to the model *before* it is scored. We detect this by
    // a probe model that records the order of callbacks, keyed by the index
    // of the scored snapshot (the length of its past).
    struct Probe {
        log: Vec<(usize, &'static str)>,
    }
    impl Forecaster for Probe {
        fn begin_snapshot(&mut self, past: Past<'_>) {
            self.log.push((past.snapshots.len(), "begin"));
        }
        fn entity_scores(
            &self,
            past: Past<'_>,
            subjects: &[u32],
            _rels: &[u32],
        ) -> retia_tensor::Tensor {
            let idx = past.snapshots.len();
            assert_eq!(self.log.last().unwrap(), &(idx, "begin"));
            retia_tensor::Tensor::zeros(subjects.len(), past.num_entities)
        }
        fn relation_scores(
            &self,
            past: Past<'_>,
            subjects: &[u32],
            _objects: &[u32],
        ) -> retia_tensor::Tensor {
            retia_tensor::Tensor::zeros(subjects.len(), past.num_relations)
        }
        fn end_snapshot(
            &mut self,
            past: Past<'_>,
            _revealed: &Snapshot,
        ) -> Result<(), retia::TrainError> {
            self.log.push((past.snapshots.len(), "end"));
            Ok(())
        }
    }

    let ds = SyntheticConfig::tiny(402).generate();
    let ctx = TkgContext::new(&ds);
    let mut probe = Probe { log: Vec::new() };
    evaluate(&mut probe, &ctx, Split::Test).unwrap();
    // Strictly ascending snapshot indices, begin before end for each.
    let mut last_idx = 0usize;
    for pair in probe.log.chunks(2) {
        assert_eq!(pair[0].1, "begin");
        assert_eq!(pair[1].1, "end");
        assert_eq!(pair[0].0, pair[1].0);
        assert!(pair[0].0 >= last_idx);
        last_idx = pair[0].0;
    }
}

#[test]
fn history_never_includes_the_target_snapshot() {
    let ds = SyntheticConfig::tiny(403).generate();
    let ctx = TkgContext::new(&ds);
    for idx in 1..ctx.snapshots.len() {
        let (h, _) = ctx.past(idx).window(4);
        for s in h {
            assert!(s.t < ctx.snapshots[idx].t, "future leak at idx {idx}");
        }
    }
}
