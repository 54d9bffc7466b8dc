//! Precomputed snapshot/hypergraph sequences over a dataset, and the causal
//! view of one of them that a scored model receives.

use std::collections::HashSet;

use retia_data::TkgDataset;
use retia_graph::{group_by_timestamp, HyperSnapshot, Quad, Snapshot};

/// Which evaluation split to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// Validation timestamps.
    Valid,
    /// Test timestamps.
    Test,
}

/// All snapshots of a dataset (train, valid and test), in timestamp order,
/// with their twin hyperrelation subgraphs precomputed, plus the index ranges
/// of each split.
///
/// Evaluation at timestamp index `i` uses the preceding `k` snapshots as
/// ground-truth history — the standard RE-GCN protocol (historical facts are
/// observed once their timestamp has passed).
pub struct TkgContext {
    /// Every snapshot, ascending by timestamp.
    pub snapshots: Vec<Snapshot>,
    /// Twin hyperrelation subgraphs, parallel with `snapshots`.
    pub hypers: Vec<HyperSnapshot>,
    /// Snapshot indices whose facts belong to the training split.
    pub train_idx: Vec<usize>,
    /// Snapshot indices of the validation split.
    pub valid_idx: Vec<usize>,
    /// Snapshot indices of the test split.
    pub test_idx: Vec<usize>,
    /// Number of entities `N`.
    pub num_entities: usize,
    /// Number of original relations `M`.
    pub num_relations: usize,
}

impl TkgContext {
    /// Builds the context from a dataset (precomputing every hyperrelation
    /// subgraph once; they are reused across epochs).
    pub fn new(ds: &TkgDataset) -> Self {
        let valid_ts: HashSet<u32> = ds.valid.iter().map(|q| q.t).collect();
        let test_ts: HashSet<u32> = ds.test.iter().map(|q| q.t).collect();

        let all: Vec<Quad> = ds.all_quads().copied().collect();
        let groups = group_by_timestamp(&all);
        let mut snapshots = Vec::with_capacity(groups.len());
        let mut hypers = Vec::with_capacity(groups.len());
        let (mut train_idx, mut valid_idx, mut test_idx) = (Vec::new(), Vec::new(), Vec::new());
        for (i, (t, facts)) in groups.into_iter().enumerate() {
            let snap = Snapshot::from_quads(&facts, ds.num_entities, ds.num_relations);
            hypers.push(HyperSnapshot::from_snapshot(&snap));
            snapshots.push(snap);
            if test_ts.contains(&t) {
                test_idx.push(i);
            } else if valid_ts.contains(&t) {
                valid_idx.push(i);
            } else {
                train_idx.push(i);
            }
        }
        TkgContext {
            snapshots,
            hypers,
            train_idx,
            valid_idx,
            test_idx,
            num_entities: ds.num_entities,
            num_relations: ds.num_relations,
        }
    }

    /// What a model may read when snapshot `i` is scored: everything
    /// strictly before it.
    pub fn past(&self, i: usize) -> Past<'_> {
        Past {
            snapshots: &self.snapshots[..i],
            hypers: &self.hypers[..i],
            t: self.snapshots[i].t,
            num_entities: self.num_entities,
            num_relations: self.num_relations,
        }
    }

    /// The history window of the `k` snapshots strictly before index `i`:
    /// [`Past::window`] of [`TkgContext::past`].
    pub fn history(&self, i: usize, k: usize) -> (&[Snapshot], &[HyperSnapshot]) {
        self.past(i).window(k)
    }

    /// Snapshot indices of a split.
    pub fn split_indices(&self, split: Split) -> &[usize] {
        match split {
            Split::Valid => &self.valid_idx,
            Split::Test => &self.test_idx,
        }
    }

    /// Total facts in a split's snapshots.
    pub fn split_fact_count(&self, split: Split) -> usize {
        self.split_indices(split).iter().map(|&i| self.snapshots[i].facts.len()).sum()
    }
}

/// The ground truth before the snapshot being scored, the standard
/// protocol's history. Every [`crate::Forecaster`] method reads this, so a
/// scorer has no way to reach the scored snapshot or a later one.
#[derive(Clone, Copy)]
pub struct Past<'a> {
    /// Every snapshot before the scored one, ascending by timestamp.
    pub snapshots: &'a [Snapshot],
    /// Their twin hyperrelation subgraphs, parallel with `snapshots`.
    pub hypers: &'a [HyperSnapshot],
    /// The scored snapshot's timestamp, the query time.
    pub t: u32,
    /// Number of entities `N`.
    pub num_entities: usize,
    /// Number of original relations `M`.
    pub num_relations: usize,
}

impl<'a> Past<'a> {
    /// The last `k` snapshots and their hypergraphs (fewer near the start
    /// of the sequence): the history window a recurrent model evolves.
    pub fn window(&self, k: usize) -> (&'a [Snapshot], &'a [HyperSnapshot]) {
        let start = self.snapshots.len().saturating_sub(k);
        (&self.snapshots[start..], &self.hypers[start..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia_data::SyntheticConfig;

    #[test]
    fn context_covers_all_snapshots_in_order() {
        let ds = SyntheticConfig::tiny(0).generate();
        let ctx = TkgContext::new(&ds);
        assert_eq!(ctx.snapshots.len(), ctx.hypers.len());
        for w in ctx.snapshots.windows(2) {
            assert!(w[0].t < w[1].t);
        }
        let covered = ctx.train_idx.len() + ctx.valid_idx.len() + ctx.test_idx.len();
        assert_eq!(covered, ctx.snapshots.len());
    }

    #[test]
    fn split_indices_are_ordered_train_valid_test() {
        let ds = SyntheticConfig::tiny(0).generate();
        let ctx = TkgContext::new(&ds);
        let max_train = ctx.train_idx.iter().max().unwrap();
        let min_valid = ctx.valid_idx.iter().min().unwrap();
        let max_valid = ctx.valid_idx.iter().max().unwrap();
        let min_test = ctx.test_idx.iter().min().unwrap();
        assert!(max_train < min_valid);
        assert!(max_valid < min_test);
    }

    #[test]
    fn history_window_sizes() {
        let ds = SyntheticConfig::tiny(0).generate();
        let ctx = TkgContext::new(&ds);
        let (h, hh) = ctx.past(0).window(3);
        assert!(h.is_empty() && hh.is_empty());
        let (h, _) = ctx.past(2).window(3);
        assert_eq!(h.len(), 2);
        let (h, _) = ctx.past(10).window(3);
        assert_eq!(h.len(), 3);
        assert!(h[2].t < ctx.snapshots[10].t);
    }

    #[test]
    fn the_past_of_a_snapshot_is_every_earlier_snapshot() {
        let ds = SyntheticConfig::tiny(0).generate();
        let ctx = TkgContext::new(&ds);
        for i in 0..ctx.snapshots.len() {
            let past = ctx.past(i);
            assert_eq!(past.snapshots.len(), i);
            assert_eq!(past.hypers.len(), i);
            assert_eq!(past.t, ctx.snapshots[i].t);
            for (s, held) in ctx.snapshots[..i].iter().zip(past.snapshots) {
                assert!(std::ptr::eq(s, held), "snapshot {i}'s past skips or reorders");
                assert!(held.t < past.t, "snapshot {i}'s past holds t={}", held.t);
            }
        }
    }

    #[test]
    fn split_fact_counts_match_dataset() {
        let ds = SyntheticConfig::tiny(0).generate();
        let ctx = TkgContext::new(&ds);
        assert_eq!(ctx.split_fact_count(Split::Valid), ds.valid.len());
        assert_eq!(ctx.split_fact_count(Split::Test), ds.test.len());
    }
}
