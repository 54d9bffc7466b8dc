//! The sliding window over a forward-only fact stream, and the stream's one
//! rule: ids stay inside the `N`-entity, `M`-relation id space, no timestamp
//! precedes the newest one already in the stream, and facts at the newest
//! timestamp merge into its group after the facts it already holds.
//!
//! [`Window`] applies the rule to the last `k` built [`Snapshot`]s and their
//! [`HyperSnapshot`]s; [`check_facts`] and [`merge_groups`] apply it to an
//! unbounded history of fact groups.

use crate::hypergraph::HyperSnapshot;
use crate::quad::{group_by_timestamp, Quad};
use crate::snapshot::Snapshot;

/// Why a batch of facts, or a boot snapshot, breaks the stream's rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WindowError {
    /// A fact names an entity or a relation outside the id space.
    OutOfRange {
        /// The offending fact.
        fact: Quad,
        /// Entities in the id space.
        num_entities: usize,
        /// Relations in the id space.
        num_relations: usize,
    },
    /// Timestamp `t` precedes `end`, the newest one before it.
    Backwards {
        /// The offending timestamp.
        t: u32,
        /// The newest timestamp before it.
        end: u32,
    },
    /// A snapshot was built over another `(entities, relations)` id space.
    IdSpace {
        /// Timestamp of the snapshot.
        t: u32,
        /// The snapshot's id space.
        found: (usize, usize),
        /// The window's id space.
        expected: (usize, usize),
    },
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::OutOfRange { fact: q, num_entities, num_relations } => write!(
                f,
                "fact ({}, {}, {}, {}) is outside the id space of {num_entities} entities and \
                 {num_relations} relations",
                q.s, q.r, q.o, q.t
            ),
            WindowError::Backwards { t, end } => write!(
                f,
                "timestamp {t} precedes the stream end {end}; facts arrive forward in time only"
            ),
            WindowError::IdSpace { t, found, expected } => write!(
                f,
                "snapshot t={t} is built over {} entities / {} relations; expected {} / {}",
                found.0, found.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for WindowError {}

/// Checks `facts` against a stream whose newest timestamp is `end` (`None`
/// while it is empty) over `num_entities` entities and `num_relations`
/// relations.
pub fn check_facts(
    facts: &[Quad],
    end: Option<u32>,
    num_entities: usize,
    num_relations: usize,
) -> Result<(), WindowError> {
    for &q in facts {
        if q.s as usize >= num_entities
            || q.o as usize >= num_entities
            || q.r as usize >= num_relations
        {
            return Err(WindowError::OutOfRange { fact: q, num_entities, num_relations });
        }
        if let Some(end) = end.filter(|&end| q.t < end) {
            return Err(WindowError::Backwards { t: q.t, end });
        }
    }
    Ok(())
}

/// Appends checked `facts` to a timestamp-ascending fact history in
/// [`group_by_timestamp`] order; a group at the newest timestamp extends it.
pub fn merge_groups(groups: &mut Vec<(u32, Vec<Quad>)>, facts: &[Quad]) {
    for (t, group) in group_by_timestamp(facts) {
        match groups.last_mut() {
            Some((last_t, last)) if *last_t == t => last.extend(group),
            _ => groups.push((t, group)),
        }
    }
}

/// The last `k` snapshots of a forward-only fact stream, oldest first, each
/// with its twin hyperrelation subgraph.
///
/// ```
/// use retia_graph::{Quad, Snapshot, Window};
///
/// let boot = vec![Snapshot::from_quads(&[Quad::new(0, 0, 1, 3)], 2, 1)];
/// let mut window = Window::from_snapshots(2, 2, 1, boot).unwrap();
/// window.push(&[Quad::new(1, 0, 0, 3), Quad::new(0, 0, 1, 4)]).unwrap();
/// assert_eq!((window.start(), window.end()), (Some(3), Some(4)));
/// assert_eq!(window.snapshots()[0].facts.len(), 2); // the same-t merge
/// assert!(window.push(&[Quad::new(0, 0, 1, 2)]).is_err()); // backwards
/// ```
#[derive(Clone, Debug)]
pub struct Window {
    k: usize,
    num_entities: usize,
    num_relations: usize,
    snapshots: Vec<Snapshot>,
    hypers: Vec<HyperSnapshot>,
}

impl Window {
    /// A window of size `k` (at least 1) over the newest `k` of `snapshots`,
    /// kept as passed: their timestamps must ascend strictly, and each must
    /// be built over `num_entities` and `num_relations`. Hypergraphs are
    /// built for the kept snapshots only.
    pub fn from_snapshots(
        k: usize,
        num_entities: usize,
        num_relations: usize,
        mut snapshots: Vec<Snapshot>,
    ) -> Result<Window, WindowError> {
        let k = k.max(1);
        snapshots.drain(..snapshots.len().saturating_sub(k));
        let expected = (num_entities, num_relations);
        for (i, snap) in snapshots.iter().enumerate() {
            let found = (snap.num_entities, snap.num_relations);
            if found != expected {
                return Err(WindowError::IdSpace { t: snap.t, found, expected });
            }
            if let Some(end) = i.checked_sub(1).map(|j| snapshots[j].t).filter(|&e| snap.t <= e) {
                return Err(WindowError::Backwards { t: snap.t, end });
            }
        }
        let hypers = snapshots.iter().map(HyperSnapshot::from_snapshot).collect();
        Ok(Window { k, num_entities, num_relations, snapshots, hypers })
    }

    /// Whether [`Window::push`] would accept `facts`.
    pub fn check(&self, facts: &[Quad]) -> Result<(), WindowError> {
        check_facts(facts, self.end(), self.num_entities, self.num_relations)
    }

    /// Advances the window by `facts`, or leaves it unchanged if they fail
    /// [`Window::check`]. Builds only the snapshots whose facts change: the
    /// newest one when the batch extends its timestamp, and each new
    /// timestamp that stays inside the window.
    pub fn push(&mut self, facts: &[Quad]) -> Result<(), WindowError> {
        self.check(facts)?;
        let mut groups = Vec::new();
        if let Some(end) = self.end().filter(|&end| facts.iter().any(|q| q.t == end)) {
            self.hypers.pop();
            groups.push((end, self.snapshots.pop().map(|s| s.facts).unwrap_or_default()));
        }
        merge_groups(&mut groups, facts);
        let skip = groups.len().saturating_sub(self.k);
        for (_, group) in groups.into_iter().skip(skip) {
            // Never empty: every group holds at least one of the batch's facts.
            let snap = Snapshot::from_quads(&group, self.num_entities, self.num_relations);
            self.hypers.push(HyperSnapshot::from_snapshot(&snap));
            self.snapshots.push(snap);
        }
        let overflow = self.snapshots.len().saturating_sub(self.k);
        self.snapshots.drain(..overflow);
        self.hypers.drain(..overflow);
        Ok(())
    }

    /// The window's snapshots, oldest first (at most `k`).
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Twin hyperrelation subgraphs, parallel with [`Window::snapshots`].
    pub fn hypers(&self) -> &[HyperSnapshot] {
        &self.hypers
    }

    /// Oldest timestamp in the window (`None` while it is empty).
    pub fn start(&self) -> Option<u32> {
        self.snapshots.first().map(|s| s.t)
    }

    /// Newest timestamp in the window and the stream (`None` while empty).
    pub fn end(&self) -> Option<u32> {
        self.snapshots.last().map(|s| s.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const N: usize = 4;
    const M: usize = 2;
    const fn q(s: u32, r: u32, o: u32, t: u32) -> Quad {
        Quad { s, r, o, t }
    }

    fn window(k: usize, boot: &[Quad]) -> Window {
        let snaps =
            group_by_timestamp(boot).into_iter().map(|(_, g)| Snapshot::from_quads(&g, N, M));
        Window::from_snapshots(k, N, M, snaps.collect()).unwrap()
    }

    fn times(w: &Window) -> Vec<u32> {
        w.snapshots().iter().map(|s| s.t).collect()
    }

    /// Each snapshot is what its facts build; each hypergraph, its snapshot's.
    fn assert_built_from_facts(w: &Window) {
        assert_eq!(w.snapshots().len(), w.hypers().len());
        for (s, h) in w.snapshots().iter().zip(w.hypers()) {
            assert_eq!(*s, Snapshot::from_quads(&s.facts, N, M), "snapshot t={}", s.t);
            assert_eq!(*h, HyperSnapshot::from_snapshot(s), "hypergraph t={}", s.t);
        }
    }

    #[test]
    fn merges_spans_and_trims() {
        // Same-t merge: old facts, then the batch's group in timestamp order.
        let mut w = window(3, &[q(3, 1, 2, 10)]);
        w.push(&[q(2, 0, 0, 10), q(1, 1, 3, 10)]).unwrap();
        assert_eq!(w.snapshots()[0].facts, vec![q(3, 1, 2, 10), q(1, 1, 3, 10), q(2, 0, 0, 10)]);
        // One batch over two new timestamps.
        w.push(&[q(2, 0, 3, 12), q(0, 1, 1, 11)]).unwrap();
        assert_eq!(times(&w), vec![10, 11, 12]);
        assert_built_from_facts(&w);
        // Merge, forward append and trim to k = 2 in one batch.
        let mut w = window(2, &[q(0, 0, 1, 10)]);
        w.push(&[q(1, 1, 2, 10), q(2, 0, 3, 11), q(0, 1, 1, 12)]).unwrap();
        assert_eq!(
            (w.start(), w.end(), w.snapshots()[1].facts.clone()),
            (Some(11), Some(12), vec![q(0, 1, 1, 12)])
        );
        // More new timestamps than k: only the newest k are built and kept.
        w.push(&[q(0, 0, 1, 13), q(0, 0, 1, 14), q(0, 0, 1, 15)]).unwrap();
        assert_eq!(times(&w), vec![14, 15]);
        assert_built_from_facts(&w);
    }

    #[test]
    fn rejected_batches_leave_the_window_unchanged() {
        let mut w = window(2, &[q(0, 0, 1, 10), q(1, 1, 2, 11)]);
        let before = w.clone();
        let stale = w.push(&[q(0, 0, 1, 12), q(3, 0, 0, 5)]);
        assert_eq!(stale, Err(WindowError::Backwards { t: 5, end: 11 }));
        for bad in [q(9, 0, 0, 12), q(0, 0, 4, 12), q(0, 2, 1, 12)] {
            let err = Err(WindowError::OutOfRange { fact: bad, num_entities: N, num_relations: M });
            assert_eq!(w.push(&[q(0, 0, 1, 11), bad]), err);
        }
        assert_eq!((w.snapshots(), w.hypers()), (before.snapshots(), before.hypers()));
    }

    #[test]
    fn boot_keeps_the_newest_k_and_rejects_foreign_snapshots() {
        let boot: Vec<Snapshot> =
            (0..5).map(|t| Snapshot::from_quads(&[q(0, 0, 1, t)], N, M)).collect();
        let w = Window::from_snapshots(3, N, M, boot.clone()).unwrap();
        assert_eq!(w.snapshots(), &boot[2..]);
        assert_built_from_facts(&w);
        let mut wide = boot.clone();
        wide[4] = Snapshot::from_quads(&[q(N as u32, 0, 0, 4)], N + 1, M);
        let err = Window::from_snapshots(2, N, M, wide).map(|_| ());
        assert_eq!(err, Err(WindowError::IdSpace { t: 4, found: (N + 1, M), expected: (N, M) }));
        let err = Window::from_snapshots(2, N, M, vec![boot[1].clone(), boot[1].clone()]);
        assert_eq!(err.map(|_| ()), Err(WindowError::Backwards { t: 1, end: 1 }));
        // An empty boot window accepts any timestamp.
        let mut empty = Window::from_snapshots(2, N, M, Vec::new()).unwrap();
        empty.push(&[q(0, 0, 1, 0)]).unwrap();
        assert_eq!((empty.start(), empty.end()), (Some(0), Some(0)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Any valid push sequence keeps the newest `k` groups of the whole
        // history, each built from its facts.
        #[test]
        fn any_push_sequence_matches_the_fact_history(
            k in 1..4usize,
            batches in prop::collection::vec(
                prop::collection::vec((0..N as u32, 0..M as u32, 0..N as u32, 0..3u32), 1..6),
                1..8,
            ),
        ) {
            let mut w = window(k, &[q(0, 0, 1, 0)]);
            let mut history = std::collections::BTreeMap::from([(0, vec![q(0, 0, 1, 0)])]);
            for batch in batches {
                let end = w.end().unwrap_or(0);
                let facts: Vec<Quad> = batch.iter().map(|&(s, r, o, dt)| q(s, r, o, end + dt)).collect();
                w.push(&facts).unwrap();
                for (t, group) in group_by_timestamp(&facts) {
                    history.entry(t).or_default().extend(group);
                }
                let kept: Vec<_> = history.iter().rev().take(k).rev().collect();
                prop_assert_eq!(w.snapshots().len(), kept.len());
                for (s, (t, facts)) in w.snapshots().iter().zip(kept) {
                    prop_assert_eq!((s.t, &s.facts), (*t, facts));
                }
                assert_built_from_facts(&w);
            }
        }
    }
}
