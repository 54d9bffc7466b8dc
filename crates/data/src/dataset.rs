//! The dataset container and its temporal split.

use retia_graph::{check_facts, group_by_timestamp, Quad, Snapshot};

/// Timestamp granularity of a dataset (Table V's `#Granularity` row).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// 24-hour granularity (the ICEWS series).
    Day,
    /// 1-year granularity (YAGO, WIKI).
    Year,
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Granularity::Day => write!(f, "24 hours"),
            Granularity::Year => write!(f, "1 year"),
        }
    }
}

/// A temporal knowledge graph with the standard train/valid/test temporal
/// split (80%/10%/10% by fact count along the time axis, following RE-GCN).
#[derive(Clone, Debug)]
pub struct TkgDataset {
    /// Dataset name (e.g. `"ICEWS14-mini"`).
    pub name: String,
    /// Number of entities `N`.
    pub num_entities: usize,
    /// Number of original relations `M` (inverses excluded).
    pub num_relations: usize,
    /// Timestamp granularity.
    pub granularity: Granularity,
    /// Training facts (earliest timestamps).
    pub train: Vec<Quad>,
    /// Validation facts (middle timestamps).
    pub valid: Vec<Quad>,
    /// Test facts (latest timestamps).
    pub test: Vec<Quad>,
}

/// Table V-style summary statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetStats {
    /// `N`.
    pub entities: usize,
    /// `M`.
    pub relations: usize,
    /// `|train|`.
    pub train: usize,
    /// `|valid|`.
    pub valid: usize,
    /// `|test|`.
    pub test: usize,
    /// Number of distinct timestamps across all splits.
    pub timestamps: usize,
}

impl TkgDataset {
    /// Builds a dataset by splitting `quads` 80/10/10 along the time axis.
    /// The split respects timestamp boundaries: every timestamp's facts land
    /// in exactly one split, with boundaries chosen so the *fact-count*
    /// proportions are as close as possible to 80/10/10.
    pub fn from_quads(
        name: &str,
        num_entities: usize,
        num_relations: usize,
        granularity: Granularity,
        quads: Vec<Quad>,
    ) -> Self {
        let groups = group_by_timestamp(&quads);
        let total: usize = groups.iter().map(|(_, g)| g.len()).sum();
        // Boundary group indices: the first group whose *cumulative* count
        // reaches 80% (train end) / 90% (valid end), clamped so that — when
        // there are at least three timestamps — every split is non-empty.
        let n_groups = groups.len();
        let (mut b1, mut b2) = (n_groups, n_groups);
        let mut acc = 0usize;
        for (i, (_, g)) in groups.iter().enumerate() {
            acc += g.len();
            let frac = acc as f64 / total.max(1) as f64;
            if b1 == n_groups && frac >= 0.8 {
                b1 = i + 1;
            }
            if b2 == n_groups && frac >= 0.9 {
                b2 = i + 1;
            }
        }
        if n_groups >= 3 {
            b1 = b1.clamp(1, n_groups - 2);
            b2 = b2.clamp(b1 + 1, n_groups - 1);
        }
        let mut train = Vec::new();
        let mut valid = Vec::new();
        let mut test = Vec::new();
        for (i, (_, group)) in groups.into_iter().enumerate() {
            if i < b1 {
                train.extend(group);
            } else if i < b2 {
                valid.extend(group);
            } else {
                test.extend(group);
            }
        }
        TkgDataset {
            name: name.to_string(),
            num_entities,
            num_relations,
            granularity,
            train,
            valid,
            test,
        }
    }

    /// Summary statistics in the shape of the paper's Table V.
    pub fn stats(&self) -> DatasetStats {
        let mut ts = std::collections::HashSet::new();
        for q in self.all_quads() {
            ts.insert(q.t);
        }
        DatasetStats {
            entities: self.num_entities,
            relations: self.num_relations,
            train: self.train.len(),
            valid: self.valid.len(),
            test: self.test.len(),
            timestamps: ts.len(),
        }
    }

    /// All facts across splits, in split order.
    pub fn all_quads(&self) -> impl Iterator<Item = &Quad> {
        self.train.iter().chain(self.valid.iter()).chain(self.test.iter())
    }

    /// Snapshots of the training split, sorted by timestamp.
    pub fn train_snapshots(&self) -> Vec<Snapshot> {
        self.snapshots_of(&self.train)
    }

    /// Snapshots of an arbitrary fact list, sorted by timestamp.
    pub fn snapshots_of(&self, quads: &[Quad]) -> Vec<Snapshot> {
        group_by_timestamp(quads)
            .into_iter()
            .map(|(_, g)| Snapshot::from_quads(&g, self.num_entities, self.num_relations))
            .collect()
    }

    /// The newest `k` snapshots across every split, oldest first: a serve
    /// window's boot history, built without the older snapshots it drops.
    pub fn last_snapshots(&self, k: usize) -> Vec<Snapshot> {
        let quads: Vec<Quad> = self.all_quads().copied().collect();
        let groups = group_by_timestamp(&quads);
        let skip = groups.len().saturating_sub(k);
        groups
            .into_iter()
            .skip(skip)
            .map(|(_, g)| Snapshot::from_quads(&g, self.num_entities, self.num_relations))
            .collect()
    }

    /// Validates internal consistency (id ranges, split ordering). Returns a
    /// human-readable error description on failure.
    pub fn validate(&self) -> Result<(), String> {
        for (split, quads) in [("train", &self.train), ("valid", &self.valid), ("test", &self.test)]
        {
            check_facts(quads, None, self.num_entities, self.num_relations)
                .map_err(|e| format!("{split}: {e}"))?;
        }
        let max_train = self.train.iter().map(|q| q.t).max();
        let min_valid = self.valid.iter().map(|q| q.t).min();
        let max_valid = self.valid.iter().map(|q| q.t).max();
        let min_test = self.test.iter().map(|q| q.t).min();
        if let (Some(a), Some(b)) = (max_train, min_valid) {
            if a >= b {
                return Err(format!("train timestamps ({a}) overlap valid ({b})"));
            }
        }
        if let (Some(a), Some(b)) = (max_valid, min_test) {
            if a >= b {
                return Err(format!("valid timestamps ({a}) overlap test ({b})"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_quads(t_max: u32, per_t: u32) -> Vec<Quad> {
        let mut out = Vec::new();
        for t in 0..t_max {
            for i in 0..per_t {
                out.push(Quad::new(i % 5, i % 3, (i + 1) % 5, t));
            }
        }
        out
    }

    #[test]
    fn split_proportions_roughly_80_10_10() {
        let ds = TkgDataset::from_quads("toy", 5, 3, Granularity::Day, uniform_quads(100, 10));
        let total = 1000.0;
        assert!((ds.train.len() as f64 / total - 0.8).abs() < 0.02);
        assert!((ds.valid.len() as f64 / total - 0.1).abs() < 0.02);
        assert!((ds.test.len() as f64 / total - 0.1).abs() < 0.02);
        ds.validate().unwrap();
    }

    #[test]
    fn split_respects_timestamp_boundaries() {
        let ds = TkgDataset::from_quads("toy", 5, 3, Granularity::Day, uniform_quads(50, 4));
        let max_train = ds.train.iter().map(|q| q.t).max().unwrap();
        let min_valid = ds.valid.iter().map(|q| q.t).min().unwrap();
        let max_valid = ds.valid.iter().map(|q| q.t).max().unwrap();
        let min_test = ds.test.iter().map(|q| q.t).min().unwrap();
        assert!(max_train < min_valid);
        assert!(max_valid < min_test);
    }

    #[test]
    fn stats_count_all_splits() {
        let ds = TkgDataset::from_quads("toy", 5, 3, Granularity::Year, uniform_quads(20, 5));
        let s = ds.stats();
        assert_eq!(s.train + s.valid + s.test, 100);
        assert_eq!(s.timestamps, 20);
        assert_eq!(s.entities, 5);
        assert_eq!(s.relations, 3);
    }

    #[test]
    fn snapshots_sorted_by_time() {
        let ds = TkgDataset::from_quads("toy", 5, 3, Granularity::Day, uniform_quads(10, 3));
        let snaps = ds.train_snapshots();
        for w in snaps.windows(2) {
            assert!(w[0].t < w[1].t);
        }
    }

    #[test]
    fn last_snapshots_are_the_newest_of_every_split() {
        let ds = TkgDataset::from_quads("toy", 5, 3, Granularity::Day, uniform_quads(10, 3));
        let all: Vec<Quad> = ds.all_quads().copied().collect();
        let every = ds.snapshots_of(&all);
        for k in [0, 1, 4, 10, 12] {
            assert_eq!(ds.last_snapshots(k), every[10 - k.min(10)..], "k = {k}");
        }
    }

    #[test]
    fn validate_catches_out_of_range() {
        let mut ds = TkgDataset::from_quads("toy", 5, 3, Granularity::Day, uniform_quads(10, 3));
        ds.train.push(Quad::new(99, 0, 0, 0));
        assert!(ds.validate().is_err());
    }

    #[test]
    fn validate_catches_split_overlap() {
        let mut ds = TkgDataset::from_quads("toy", 5, 3, Granularity::Day, uniform_quads(10, 3));
        ds.valid.push(Quad::new(0, 0, 0, 0)); // timestamp 0 belongs to train
        assert!(ds.validate().is_err());
    }
}
