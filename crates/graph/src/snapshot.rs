//! A single timestamp's subgraph, prepared for R-GCN message passing.

use crate::quad::Quad;

/// One timestamp's facts with inverse augmentation and the index structures
/// the entity-aggregating R-GCN (Eq. 4 of the paper) and the twin-interact
/// module's mean pooling (Eq. 7) need.
///
/// Edges are stored as parallel arrays sorted by relation id, so a layer can
/// process one relation's messages as a contiguous block. Every original fact
/// `(s, r, o)` contributes the edge `s --r--> o` and the inverse edge
/// `o --r+M--> s`, so aggregating over in-edges covers both directions, as the
/// paper prescribes ("only the in-degree edges need to be considered").
/// Eq. 4's normalization `1/c_{o,r}` is not stored: `c_{o,r}` is the number
/// of edges sharing a (relation, destination) pair, which the R-GCN counts
/// when it groups the edges into those pairs.
///
/// # Examples
///
/// ```
/// use retia_graph::{Quad, Snapshot};
///
/// let facts = vec![Quad::new(0, 0, 1, 5)];
/// let snap = Snapshot::from_quads(&facts, 2, 1);
/// assert_eq!(snap.t, 5);
/// assert_eq!(snap.num_edges(), 2); // the fact plus its inverse
/// assert_eq!(snap.active_relations(), vec![0, 1]); // r and r + M
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Timestamp this snapshot represents.
    pub t: u32,
    /// Total number of entities `N` in the TKG (not just those active here).
    pub num_entities: usize,
    /// Number of original relations `M`; ids `M..2M` are inverses.
    pub num_relations: usize,
    /// Message sources (subjects), parallel with `rel` / `dst`.
    pub src: Vec<u32>,
    /// Edge relation ids in `0..2M`, sorted ascending.
    pub rel: Vec<u32>,
    /// Message destinations (objects), parallel with `src` / `rel`.
    pub dst: Vec<u32>,
    /// `(start, end)` ranges into the edge arrays per relation id (`0..2M`).
    pub rel_ranges: Vec<(usize, usize)>,
    /// Entities adjacent to each relation id regardless of direction
    /// (the `E_r^t` sets of Eq. 7); indexed by relation id in `0..2M`.
    pub rel_entities: Vec<Vec<u32>>,
    /// Entities appearing in at least one fact at this timestamp (sorted).
    pub active_entities: Vec<u32>,
    /// The original (non-augmented) facts of this timestamp.
    pub facts: Vec<Quad>,
}

impl Snapshot {
    /// Builds a snapshot from the original facts of one timestamp.
    ///
    /// # Panics
    /// Panics if any id is out of range or the facts span several timestamps.
    pub fn from_quads(facts: &[Quad], num_entities: usize, num_relations: usize) -> Self {
        let t = facts.first().map(|q| q.t).unwrap_or(0);
        for q in facts {
            assert!(q.t == t, "facts from multiple timestamps in one snapshot");
            assert!((q.s as usize) < num_entities, "subject id out of range");
            assert!((q.o as usize) < num_entities, "object id out of range");
            assert!((q.r as usize) < num_relations, "relation id out of range");
        }
        let m = num_relations;

        // Augmented edges, sorted by (rel, src, dst) and deduplicated.
        let mut edges: Vec<(u32, u32, u32)> =
            facts.iter().flat_map(|q| [(q.r, q.s, q.o), (q.r + m as u32, q.o, q.s)]).collect();
        edges.sort_unstable();
        edges.dedup();

        let mut src = Vec::with_capacity(edges.len());
        let mut rel = Vec::with_capacity(edges.len());
        let mut dst = Vec::with_capacity(edges.len());
        for &(r, s, o) in &edges {
            rel.push(r);
            src.push(s);
            dst.push(o);
        }

        // Contiguous per-relation ranges (empty for absent relations).
        let mut rel_ranges = vec![(0usize, 0usize); 2 * m];
        {
            let mut i = 0;
            while i < rel.len() {
                let r = rel[i] as usize;
                let start = i;
                while i < rel.len() && rel[i] as usize == r {
                    i += 1;
                }
                rel_ranges[r] = (start, i);
            }
        }

        // E_r^t: entities touching each relation, either side, ascending and
        // deduplicated; the inverse relation r + M touches the same ones.
        let mut touches: Vec<(u32, u32)> =
            facts.iter().flat_map(|q| [(q.r, q.s), (q.r, q.o)]).collect();
        touches.sort_unstable();
        touches.dedup();
        let mut rel_entities = vec![Vec::new(); 2 * m];
        for &(r, e) in &touches {
            rel_entities[r as usize].push(e);
        }
        for r in 0..m {
            rel_entities[r + m] = rel_entities[r].clone();
        }

        let mut active_entities: Vec<u32> = facts.iter().flat_map(|q| [q.s, q.o]).collect();
        active_entities.sort_unstable();
        active_entities.dedup();

        Snapshot {
            t,
            num_entities,
            num_relations,
            src,
            rel,
            dst,
            rel_ranges,
            rel_entities,
            active_entities,
            facts: facts.to_vec(),
        }
    }

    /// Number of augmented (inverse-included) edges.
    pub fn num_edges(&self) -> usize {
        self.rel.len()
    }

    /// Relation ids (in `0..2M`) with at least one edge, ascending.
    pub fn active_relations(&self) -> Vec<u32> {
        self.rel_ranges
            .iter()
            .enumerate()
            .filter(|(_, (a, b))| b > a)
            .map(|(r, _)| r as u32)
            .collect()
    }

    /// An empty snapshot (no facts) for padding histories.
    pub fn empty(t: u32, num_entities: usize, num_relations: usize) -> Self {
        Snapshot::from_quads(&[], num_entities, num_relations).with_t(t)
    }

    fn with_t(mut self, t: u32) -> Self {
        self.t = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn snap(facts: &[(u32, u32, u32)], n: usize, m: usize) -> Snapshot {
        let quads: Vec<Quad> = facts.iter().map(|&(s, r, o)| Quad::new(s, r, o, 0)).collect();
        Snapshot::from_quads(&quads, n, m)
    }

    /// The builder written with hash sets: the oracle the sort + dedup
    /// builder must equal field for field.
    fn hashed_reference(facts: &[Quad], num_entities: usize, num_relations: usize) -> Snapshot {
        let t = facts.first().map(|q| q.t).unwrap_or(0);
        let m = num_relations;
        let mut edges: Vec<(u32, u32, u32)> = Vec::with_capacity(facts.len() * 2);
        let mut seen: HashSet<(u32, u32, u32)> = HashSet::with_capacity(facts.len() * 2);
        for q in facts {
            if seen.insert((q.r, q.s, q.o)) {
                edges.push((q.r, q.s, q.o));
            }
            let inv = (q.r + m as u32, q.o, q.s);
            if seen.insert(inv) {
                edges.push(inv);
            }
        }
        edges.sort_unstable();
        let rel: Vec<u32> = edges.iter().map(|e| e.0).collect();
        let src: Vec<u32> = edges.iter().map(|e| e.1).collect();
        let dst: Vec<u32> = edges.iter().map(|e| e.2).collect();

        let mut rel_ranges = vec![(0usize, 0usize); 2 * m];
        let mut i = 0;
        while i < rel.len() {
            let r = rel[i] as usize;
            let start = i;
            while i < rel.len() && rel[i] as usize == r {
                i += 1;
            }
            rel_ranges[r] = (start, i);
        }

        let mut rel_entity_sets: Vec<HashSet<u32>> = vec![HashSet::new(); 2 * m];
        for q in facts {
            let r = q.r as usize;
            for set in [r, r + m] {
                rel_entity_sets[set].insert(q.s);
                rel_entity_sets[set].insert(q.o);
            }
        }
        let sorted = |set: HashSet<u32>| {
            let mut v: Vec<u32> = set.into_iter().collect();
            v.sort_unstable();
            v
        };
        let active: HashSet<u32> = facts.iter().flat_map(|q| [q.s, q.o]).collect();
        Snapshot {
            t,
            num_entities,
            num_relations,
            src,
            rel,
            dst,
            rel_ranges,
            rel_entities: rel_entity_sets.into_iter().map(sorted).collect(),
            active_entities: sorted(active),
            facts: facts.to_vec(),
        }
    }

    /// Facts over at most 5 entities and 3 relations, so duplicate facts
    /// and `s == o` facts are common; zero facts give the empty snapshot.
    fn arb_facts() -> impl Strategy<Value = (Vec<Quad>, usize, usize)> {
        (1..6u32, 1..4u32).prop_flat_map(|(n, m)| {
            let quad = (0..n, 0..m, 0..n).prop_map(|(s, r, o)| Quad::new(s, r, o, 4));
            (prop::collection::vec(quad, 0..24), Just(n as usize), Just(m as usize))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sorted_builder_equals_the_hashed_one((facts, n, m) in arb_facts()) {
            prop_assert_eq!(Snapshot::from_quads(&facts, n, m), hashed_reference(&facts, n, m));
        }
    }

    /// The cases the random sweep must reach, pinned: a duplicate fact, an
    /// `s == o` fact (whose inverse is a distinct edge) and no facts.
    #[test]
    fn sorted_builder_equals_the_hashed_one_on_edge_cases() {
        let q = |s, r, o| Quad::new(s, r, o, 2);
        for facts in
            [vec![q(0, 1, 2), q(3, 0, 3), q(0, 1, 2), q(3, 0, 3)], vec![q(1, 0, 1)], vec![]]
        {
            assert_eq!(Snapshot::from_quads(&facts, 4, 2), hashed_reference(&facts, 4, 2));
        }
    }

    #[test]
    fn inverse_edges_added() {
        let s = snap(&[(0, 0, 1)], 2, 1);
        assert_eq!(s.num_edges(), 2);
        // Forward: 0 --0--> 1; inverse: 1 --1--> 0 (relation 0 + M with M=1).
        assert_eq!(s.rel, vec![0, 1]);
        assert_eq!(s.src, vec![0, 1]);
        assert_eq!(s.dst, vec![1, 0]);
    }

    #[test]
    fn duplicate_facts_deduplicated() {
        let s = snap(&[(0, 0, 1), (0, 0, 1)], 2, 1);
        assert_eq!(s.num_edges(), 2);
    }

    #[test]
    fn rel_ranges_cover_all_edges() {
        let s = snap(&[(0, 1, 1), (1, 0, 2), (2, 1, 0)], 3, 2);
        let covered: usize = s.rel_ranges.iter().map(|(a, b)| b - a).sum();
        assert_eq!(covered, s.num_edges());
        // Edges within a range all carry that relation.
        for (r, &(a, b)) in s.rel_ranges.iter().enumerate() {
            for i in a..b {
                assert_eq!(s.rel[i] as usize, r);
            }
        }
    }

    #[test]
    fn rel_entities_both_directions() {
        let s = snap(&[(0, 0, 1), (2, 0, 1)], 3, 1);
        assert_eq!(s.rel_entities[0], vec![0, 1, 2]);
        // Inverse relation touches the same entities.
        assert_eq!(s.rel_entities[1], vec![0, 1, 2]);
    }

    #[test]
    fn active_entities_sorted_dedup() {
        let s = snap(&[(2, 0, 1), (1, 0, 2)], 4, 1);
        assert_eq!(s.active_entities, vec![1, 2]);
    }

    #[test]
    fn active_relations_includes_inverses() {
        let s = snap(&[(0, 1, 1)], 2, 3);
        assert_eq!(s.active_relations(), vec![1, 4]);
    }

    #[test]
    fn empty_snapshot() {
        let s = Snapshot::empty(7, 5, 2);
        assert_eq!(s.t, 7);
        assert_eq!(s.num_edges(), 0);
        assert!(s.active_entities.is_empty());
        assert!(s.active_relations().is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple timestamps")]
    fn mixed_timestamps_rejected() {
        let quads = vec![Quad::new(0, 0, 1, 0), Quad::new(0, 0, 1, 1)];
        Snapshot::from_quads(&quads, 2, 1);
    }

    #[test]
    #[should_panic(expected = "relation id out of range")]
    fn out_of_range_relation_rejected() {
        snap(&[(0, 5, 1)], 2, 1);
    }

    #[test]
    fn self_loop_fact_supported() {
        let s = snap(&[(1, 0, 1)], 2, 1);
        assert_eq!(s.num_edges(), 2);
        assert_eq!(s.rel_entities[0], vec![1]);
    }
}
