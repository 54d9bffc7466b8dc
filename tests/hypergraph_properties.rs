//! Property-based tests on the structural substrate: Algorithm 1's
//! hyperrelation construction and the snapshot invariants, over randomized
//! graphs.

use proptest::prelude::*;
use retia_graph::{group_by_timestamp, HyperSnapshot, Quad, Snapshot};

fn arb_facts(max_n: u32, max_m: u32) -> impl Strategy<Value = (Vec<(u32, u32, u32)>, u32, u32)> {
    (2..max_n, 1..max_m).prop_flat_map(|(n, m)| {
        (prop::collection::vec((0..n, 0..m, 0..n), 1..30), Just(n), Just(m))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Eq. 4's per-(dst, rel) normalization is derived by the R-GCN's slot
    // plan, whose weights `retia-nn` checks sum to 1 per slot.
    #[test]
    fn snapshot_edge_count_and_ranges((facts, n, m) in arb_facts(12, 6)) {
        let quads: Vec<Quad> = facts.iter().map(|&(s, r, o)| Quad::new(s, r, o, 0)).collect();
        let snap = Snapshot::from_quads(&quads, n as usize, m as usize);

        // Inverse augmentation doubles the deduplicated fact count.
        let distinct: std::collections::HashSet<_> = facts.iter().collect();
        prop_assert_eq!(snap.num_edges(), distinct.len() * 2);

        // rel_ranges partition the edge list.
        let covered: usize = snap.rel_ranges.iter().map(|(a, b)| b - a).sum();
        prop_assert_eq!(covered, snap.num_edges());
    }

    #[test]
    fn hyperedges_have_witnessing_entities((facts, n, m) in arb_facts(10, 5)) {
        let quads: Vec<Quad> = facts.iter().map(|&(s, r, o)| Quad::new(s, r, o, 0)).collect();
        let snap = Snapshot::from_quads(&quads, n as usize, m as usize);
        let hyper = HyperSnapshot::from_snapshot(&snap);

        // For every forward hyperedge, some entity witnesses the claimed
        // positional association (soundness of Algorithm 1).
        let obj_of = |r: u32| -> std::collections::HashSet<u32> {
            (0..snap.num_edges()).filter(|&i| snap.rel[i] == r).map(|i| snap.dst[i]).collect()
        };
        let subj_of = |r: u32| -> std::collections::HashSet<u32> {
            (0..snap.num_edges()).filter(|&i| snap.rel[i] == r).map(|i| snap.src[i]).collect()
        };
        for (hr, rs, ro) in hyper.edges() {
            if hr >= 4 {
                continue; // inverses checked via their forward twin below
            }
            let ok = match hr {
                0 => !obj_of(rs).is_disjoint(&subj_of(ro)),
                1 => !subj_of(rs).is_disjoint(&obj_of(ro)),
                2 => rs != ro && !obj_of(rs).is_disjoint(&obj_of(ro)),
                3 => rs != ro && !subj_of(rs).is_disjoint(&subj_of(ro)),
                _ => unreachable!(),
            };
            prop_assert!(ok, "unwitnessed hyperedge ({}, {}, {})", hr, rs, ro);
        }

        // Completeness of inverses: every forward edge has its mirror.
        for (hr, rs, ro) in hyper.edges() {
            if hr < 4 {
                prop_assert!(hyper.has_edge(hr + 4, ro, rs));
            } else {
                prop_assert!(hyper.has_edge(hr - 4, ro, rs));
            }
        }
    }

    #[test]
    fn group_by_timestamp_partitions(quads in prop::collection::vec(
        (0u32..5, 0u32..3, 0u32..5, 0u32..10), 0..40)) {
        let quads: Vec<Quad> = quads.into_iter().map(|(s, r, o, t)| Quad::new(s, r, o, t)).collect();
        let groups = group_by_timestamp(&quads);
        let total: usize = groups.iter().map(|(_, g)| g.len()).sum();
        prop_assert_eq!(total, quads.len());
        for w in groups.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        for (t, g) in &groups {
            prop_assert!(g.iter().all(|q| q.t == *t));
        }
    }
}
