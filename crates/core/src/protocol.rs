//! The evaluation protocol every model is scored by — RE-GCN's, which the
//! paper follows. Per evaluated snapshot: entity queries in both directions
//! and relation queries once per fact, each ranked raw and time-aware
//! filtered. A [`crate::Trainer`] evolves each snapshot's window once, in
//! [`Forecaster::begin_snapshot`], and an online model trains on a snapshot
//! after it is scored (the time-variability strategy, §III-F) through
//! [`Forecaster::end_snapshot`].
//!
//! RETIA, its ablations and every baseline in the table harness go through
//! the one [`evaluate`] here.

use retia_eval::{collect_paired_metrics, rank_of, rank_of_filtered, FilterSet, Metrics};
use retia_graph::Snapshot;
use retia_tensor::Tensor;

use crate::context::{Split, TkgContext};
use crate::model::{entity_queries, relation_queries};
use crate::trainer::TrainError;

/// Evaluation results for one split.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalReport {
    /// Entity forecasting under the raw setting (the paper's headline
    /// metric; subject and object directions averaged).
    pub entity_raw: Metrics,
    /// Entity forecasting under the time-aware filtered setting.
    pub entity_filtered: Metrics,
    /// Relation forecasting under the raw setting.
    pub relation_raw: Metrics,
    /// Relation forecasting under the time-aware filtered setting.
    pub relation_filtered: Metrics,
}

/// A model scored by [`evaluate`].
///
/// `idx` arguments are snapshot indices into [`TkgContext::snapshots`]; the
/// history available to a model when scoring snapshot `idx` is everything
/// strictly before it (ground truth history, the standard protocol).
pub trait Forecaster {
    /// Called before scoring snapshot `idx` — models that index history
    /// (copy mechanisms) bring their caches up to date here, and a
    /// [`crate::Trainer`] evolves the snapshot's history window.
    fn begin_snapshot(&mut self, _ctx: &TkgContext, _idx: usize) {}

    /// Scores `[Q, N]` for entity queries `(subjects[i], rels[i], ?)`
    /// (inverse relation ids `r + M` denote subject queries).
    fn entity_scores(&self, ctx: &TkgContext, idx: usize, subjects: &[u32], rels: &[u32])
        -> Tensor;

    /// Scores `[Q, M]` for relation queries `(subjects[i], ?, objects[i])`.
    fn relation_scores(
        &self,
        ctx: &TkgContext,
        idx: usize,
        subjects: &[u32],
        objects: &[u32],
    ) -> Tensor;

    /// Called after snapshot `idx` is scored — online models take their
    /// continual-training steps here; copy models absorb the new facts.
    fn end_snapshot(&mut self, _ctx: &TkgContext, _idx: usize) -> Result<(), TrainError> {
        Ok(())
    }
}

/// Scores `model` on every snapshot of `split`, in order, calling
/// `begin_snapshot` before and `end_snapshot` after each. Fails only if an
/// `end_snapshot` does (an online step that diverged beyond its recovery
/// budget).
pub fn evaluate<F: Forecaster + ?Sized>(
    model: &mut F,
    ctx: &TkgContext,
    split: Split,
) -> Result<EvalReport, TrainError> {
    let mut report = EvalReport::default();
    for &idx in ctx.split_indices(split) {
        let scoring = retia_obs::span!("eval.snapshot", idx = idx);
        model.begin_snapshot(ctx, idx);
        let target = &ctx.snapshots[idx];

        // ---- entity forecasting (both directions) ----
        let (subjects, rels, targets) = entity_queries(target, ctx.num_relations);
        let scores = model.entity_scores(ctx, idx, &subjects, &rels);
        assert_eq!(scores.shape(), (targets.len(), ctx.num_entities));
        let filters = entity_filters(target, ctx.num_relations);
        // Queries are ranked in parallel over fixed chunks with the partial
        // accumulators merged in chunk order, so the report is the same at
        // any thread count.
        let (raw, filtered) = collect_paired_metrics(targets.len(), scores.cols(), |i| {
            let row = scores.row(i);
            let t = targets[i] as usize;
            (rank_of(row, t), rank_of_filtered(row, t, &filters[i]))
        });
        report.entity_raw.merge(&raw);
        report.entity_filtered.merge(&filtered);

        // ---- relation forecasting ----
        let (rs, ro, rt) = relation_queries(target);
        let scores = model.relation_scores(ctx, idx, &rs, &ro);
        assert_eq!(scores.shape(), (rt.len(), ctx.num_relations));
        let rfilters = relation_filters(target);
        let (raw, filtered) = collect_paired_metrics(rt.len(), scores.cols(), |i| {
            let row = scores.row(i);
            let t = rt[i] as usize;
            (rank_of(row, t), rank_of_filtered(row, t, &rfilters[i]))
        });
        report.relation_raw.merge(&raw);
        report.relation_filtered.merge(&filtered);
        drop(scoring);

        model.end_snapshot(ctx, idx)?;
    }
    Ok(report)
}

/// Time-aware filter sets for the entity queries of a snapshot: for query
/// `(s, r)`, every true object at this timestamp (and symmetrically for
/// inverse queries).
fn entity_filters(snap: &Snapshot, num_relations: usize) -> Vec<FilterSet> {
    use std::collections::HashMap;
    let m = num_relations as u32;
    let mut truths: HashMap<(u32, u32), FilterSet> = HashMap::new();
    for q in &snap.facts {
        truths.entry((q.s, q.r)).or_default().insert(q.o);
        truths.entry((q.o, q.r + m)).or_default().insert(q.s);
    }
    let mut out = Vec::with_capacity(snap.facts.len() * 2);
    for q in &snap.facts {
        out.push(truths[&(q.s, q.r)].clone());
        out.push(truths[&(q.o, q.r + m)].clone());
    }
    out
}

/// Time-aware filter sets for relation queries: for query `(s, o)`, every
/// true relation at this timestamp.
fn relation_filters(snap: &Snapshot) -> Vec<FilterSet> {
    use std::collections::HashMap;
    let mut truths: HashMap<(u32, u32), FilterSet> = HashMap::new();
    for q in &snap.facts {
        truths.entry((q.s, q.o)).or_default().insert(q.r);
    }
    snap.facts.iter().map(|q| truths[&(q.s, q.o)].clone()).collect()
}
