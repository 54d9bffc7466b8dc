//! Twin hyperrelation subgraph construction — Algorithm 1 of the paper.
//!
//! The nodes of a [`HyperSnapshot`] are the `2M` relations (inverses
//! included) of the corresponding [`Snapshot`]; two relation nodes are joined
//! by one of four *hyperrelations* describing their positional association
//! through a shared entity:
//!
//! | hyperrelation | meaning |
//! |---|---|
//! | `o-s` | the object of `r_s` is the subject of `r_o` |
//! | `s-o` | the subject of `r_s` is the object of `r_o` |
//! | `o-o` | `r_s` and `r_o` share an object |
//! | `s-s` | `r_s` and `r_o` share a subject |
//!
//! The paper computes these as boolean products of the relation–object and
//! relation–subject incidence matrices (`OS = RO×RS`, `SO = RS×RO`,
//! `OO = RO×RO`, `SS = RS×RS`, with zeroed diagonals for `o-o`/`s-s`). We
//! produce the identical edges by joining on each shared entity instead:
//! every entity's sorted subject and object relation lists pair up into
//! candidate hyperedges, each packed with its inverse into one `u64` key,
//! and a single sort + dedup of the keys yields the edge arrays in
//! `(hyperrelation, r_s, r_o)` order. That costs `O(C log C)` in the `C`
//! candidate pairs, never `O(M²)`, and hashes nothing; the dense product is
//! kept in the tests as a reference oracle.
//!
//! As with ordinary facts, each hyperedge `(r_s, hr, r_o)` also yields the
//! inverse hyperedge `(r_o, hr⁻¹, r_s)`, so only in-edges need aggregating.

use crate::snapshot::Snapshot;

/// Number of forward hyperrelation types (`H` in the paper).
pub const NUM_HYPERRELS: usize = 4;
/// Forward plus inverse hyperrelation types (`2H`).
pub const NUM_HYPERRELS_WITH_INV: usize = 2 * NUM_HYPERRELS;

/// The four positional hyperrelations of Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HyperRel {
    /// Object of `r_s` is the subject of `r_o`.
    ObjectSubject = 0,
    /// Subject of `r_s` is the object of `r_o`.
    SubjectObject = 1,
    /// Shared object.
    ObjectObject = 2,
    /// Shared subject.
    SubjectSubject = 3,
}

impl HyperRel {
    /// All four forward hyperrelations in id order.
    pub const ALL: [HyperRel; 4] = [
        HyperRel::ObjectSubject,
        HyperRel::SubjectObject,
        HyperRel::ObjectObject,
        HyperRel::SubjectSubject,
    ];

    /// Numeric id (`0..4`); the inverse type is `id + 4`.
    pub fn id(self) -> u32 {
        self as u32
    }
}

/// The twin hyperrelation subgraph of one snapshot, prepared for the
/// relation-aggregating R-GCN (Eq. 1) exactly like [`Snapshot`] is for the
/// entity-aggregating one: parallel edge arrays sorted by hyperrelation id
/// and hyperrelation→relation incidence sets. As there, Eq. 1's `1/c_{r_o,
/// hr}` is not stored: the R-GCN counts each (hyperrelation, destination)
/// pair's edges when it groups them.
///
/// # Examples
///
/// ```
/// use retia_graph::{HyperRel, HyperSnapshot, Quad, Snapshot};
///
/// // (0, r0, 1) then (1, r1, 2): the object of r0 is the subject of r1.
/// let facts = vec![Quad::new(0, 0, 1, 0), Quad::new(1, 1, 2, 0)];
/// let snap = Snapshot::from_quads(&facts, 3, 2);
/// let hyper = HyperSnapshot::from_snapshot(&snap);
/// assert!(hyper.has_edge(HyperRel::ObjectSubject.id(), 0, 1));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct HyperSnapshot {
    /// Timestamp (same as the underlying snapshot).
    pub t: u32,
    /// Number of relation nodes, `2M`.
    pub num_rel_nodes: usize,
    /// Message sources (`r_s`), parallel with `hrel` / `dst`.
    pub src: Vec<u32>,
    /// Hyperrelation type ids in `0..8` (4 forward + 4 inverse), ascending.
    pub hrel: Vec<u32>,
    /// Message destinations (`r_o`).
    pub dst: Vec<u32>,
    /// `(start, end)` ranges into the edge arrays per hyperrelation id.
    pub hrel_ranges: Vec<(usize, usize)>,
    /// Relations incident to each hyperrelation type regardless of direction
    /// (the `R_hr^t` sets of Eq. 9); indexed by hyperrelation id in `0..8`.
    pub hrel_relations: Vec<Vec<u32>>,
}

impl HyperSnapshot {
    /// Builds the twin hyperrelation subgraph of `snapshot` (Algorithm 1).
    ///
    /// # Panics
    /// Panics if the snapshot has more than `2^29` relations.
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let num_rel_nodes = 2 * snapshot.num_relations;
        assert!(num_rel_nodes <= NODE_MASK as usize + 1, "too many relations to pack a hyperedge");

        // Per-entity incidence: relations having the entity as subject/object.
        let n = snapshot.num_entities;
        let subj_of = Incidence::new(n, snapshot.src.iter().zip(&snapshot.rel));
        let obj_of = Incidence::new(n, snapshot.dst.iter().zip(&snapshot.rel));

        // Join per entity. A pair reachable through several shared entities
        // appears once per entity; the dedup below keeps one (the boolean
        // product semantics).
        let mut keys: Vec<u64> = Vec::new();
        let mut push = |hr: HyperRel, rs: u32, ro: u32| {
            keys.push(pack(hr.id(), rs, ro));
            // Inverse hyperedge: (r_o, hr + 4, r_s).
            keys.push(pack(hr.id() + NUM_HYPERRELS as u32, ro, rs));
        };
        for e in 0..n {
            let (subs, objs) = (subj_of.of(e), obj_of.of(e));
            for &rs in objs {
                // o-s: object of r_s meets subject of r_o.
                for &ro in subs {
                    push(HyperRel::ObjectSubject, rs, ro);
                }
                // o-o: shared object; no self-loops (zeroed diagonal).
                for &ro in objs.iter().filter(|&&ro| ro != rs) {
                    push(HyperRel::ObjectObject, rs, ro);
                }
            }
            for &rs in subs {
                // s-o: subject of r_s meets object of r_o.
                for &ro in objs {
                    push(HyperRel::SubjectObject, rs, ro);
                }
                // s-s: shared subject; no self-loops.
                for &ro in subs.iter().filter(|&&ro| ro != rs) {
                    push(HyperRel::SubjectSubject, rs, ro);
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();

        let hrel: Vec<u32> = keys.iter().map(|&key| (key >> HREL_SHIFT) as u32).collect();
        let src: Vec<u32> = keys.iter().map(|&key| (key >> NODE_BITS) as u32 & NODE_MASK).collect();
        let dst: Vec<u32> = keys.iter().map(|&key| key as u32 & NODE_MASK).collect();

        // Contiguous per-hyperrelation ranges ((0, 0) for absent types).
        let mut hrel_ranges = vec![(0usize, 0usize); NUM_HYPERRELS_WITH_INV];
        let mut start = 0;
        while start < hrel.len() {
            let h = hrel[start];
            let end = start + hrel[start..].partition_point(|&x| x == h);
            hrel_ranges[h as usize] = (start, end);
            start = end;
        }

        // R_hr^t: relations incident to each hyperrelation type, marked in a
        // dense [2H x 2M] table and read out in ascending order.
        let mut incident = vec![false; NUM_HYPERRELS_WITH_INV * num_rel_nodes];
        for i in 0..keys.len() {
            let row = hrel[i] as usize * num_rel_nodes;
            incident[row + src[i] as usize] = true;
            incident[row + dst[i] as usize] = true;
        }
        let hrel_relations: Vec<Vec<u32>> = (0..NUM_HYPERRELS_WITH_INV)
            .map(|h| {
                let row = &incident[h * num_rel_nodes..(h + 1) * num_rel_nodes];
                (0u32..).zip(row).filter(|&(_, &on)| on).map(|(r, _)| r).collect()
            })
            .collect();

        HyperSnapshot { t: snapshot.t, num_rel_nodes, src, hrel, dst, hrel_ranges, hrel_relations }
    }

    /// Number of hyperedges (inverses included).
    pub fn num_edges(&self) -> usize {
        self.hrel.len()
    }

    /// True when a specific hyperedge exists.
    pub fn has_edge(&self, hr: u32, rs: u32, ro: u32) -> bool {
        let (a, b) = self.hrel_ranges[hr as usize];
        (a..b).any(|i| self.src[i] == rs && self.dst[i] == ro)
    }
}

/// Bits per relation node in a packed hyperedge key.
const NODE_BITS: u32 = 30;
/// Mask of one relation node in a packed key.
const NODE_MASK: u32 = (1 << NODE_BITS) - 1;
/// Shift of the hyperrelation id, above the two relation nodes.
const HREL_SHIFT: u32 = 2 * NODE_BITS;

/// Packs a hyperedge so that keys order as `(hr, r_s, r_o)` tuples do.
fn pack(hr: u32, rs: u32, ro: u32) -> u64 {
    u64::from(hr) << HREL_SHIFT | u64::from(rs) << NODE_BITS | u64::from(ro)
}

/// The distinct relations incident to each entity on one side of its
/// facts, ascending: entity `e`'s are `rels[offsets[e]..offsets[e + 1]]`.
struct Incidence {
    offsets: Vec<usize>,
    rels: Vec<u32>,
}

impl Incidence {
    /// Groups `(entity, relation)` pairs by entity with one sort + dedup.
    fn new<'a>(num_entities: usize, pairs: impl Iterator<Item = (&'a u32, &'a u32)>) -> Self {
        let mut keys: Vec<u64> = pairs.map(|(&e, &r)| u64::from(e) << 32 | u64::from(r)).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut offsets = vec![0usize; num_entities + 1];
        for &key in &keys {
            offsets[(key >> 32) as usize + 1] += 1;
        }
        for e in 0..num_entities {
            offsets[e + 1] += offsets[e];
        }
        Incidence { offsets, rels: keys.iter().map(|&key| key as u32).collect() }
    }

    fn of(&self, e: usize) -> &[u32] {
        &self.rels[self.offsets[e]..self.offsets[e + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad::Quad;
    use std::collections::BTreeSet;

    fn snap(facts: &[(u32, u32, u32)], n: usize, m: usize) -> Snapshot {
        let quads: Vec<Quad> = facts.iter().map(|&(s, r, o)| Quad::new(s, r, o, 3)).collect();
        Snapshot::from_quads(&quads, n, m)
    }

    /// Dense reference implementation: boolean incidence products as written
    /// in Algorithm 1, returning every hyperedge `(hr, r_s, r_o)` (inverses
    /// included) in ascending order.
    #[allow(clippy::needless_range_loop)]
    fn dense_reference(snapshot: &Snapshot) -> Vec<(u32, u32, u32)> {
        let m2 = 2 * snapshot.num_relations;
        let n = snapshot.num_entities;
        let mut ro = vec![vec![false; n]; m2]; // relation has entity as object
        let mut rs = vec![vec![false; n]; m2]; // relation has entity as subject
        for i in 0..snapshot.num_edges() {
            rs[snapshot.rel[i] as usize][snapshot.src[i] as usize] = true;
            ro[snapshot.rel[i] as usize][snapshot.dst[i] as usize] = true;
        }
        let product = |a: &Vec<Vec<bool>>, b: &Vec<Vec<bool>>, zero_diag: bool| {
            let mut out = Vec::new();
            for r1 in 0..m2 {
                for r2 in 0..m2 {
                    if zero_diag && r1 == r2 {
                        continue;
                    }
                    if (0..n).any(|e| a[r1][e] && b[r2][e]) {
                        out.push((r1 as u32, r2 as u32));
                    }
                }
            }
            out
        };
        let mut edges = BTreeSet::new();
        for (hr, pairs) in [
            (0u32, product(&ro, &rs, false)), // o-s
            (1, product(&rs, &ro, false)),    // s-o
            (2, product(&ro, &ro, true)),     // o-o
            (3, product(&rs, &rs, true)),     // s-s
        ] {
            for (r1, r2) in pairs {
                edges.insert((hr, r1, r2));
                edges.insert((hr + 4, r2, r1));
            }
        }
        edges.into_iter().collect()
    }

    /// Asserts that the built subgraph equals the one derived from the
    /// dense oracle, array by array and in order: the edge arrays sorted
    /// by `(hrel, src, dst)`, the per-type ranges ((0, 0) when absent) and
    /// the per-type relation sets. (The R-GCN's slot plan, which derives
    /// Eq. 1's `1/c` from these arrays, is checked against its own oracle.)
    fn assert_matches_oracle(s: &Snapshot, what: &str) {
        let h = HyperSnapshot::from_snapshot(s);
        let want = dense_reference(s);
        let column = |f: fn(&(u32, u32, u32)) -> u32| want.iter().map(f).collect::<Vec<u32>>();
        assert_eq!(h.hrel, column(|e| e.0), "{what}: hrel");
        assert_eq!(h.src, column(|e| e.1), "{what}: src");
        assert_eq!(h.dst, column(|e| e.2), "{what}: dst");

        for hr in 0..NUM_HYPERRELS_WITH_INV as u32 {
            let at: Vec<usize> = (0..want.len()).filter(|&i| want[i].0 == hr).collect();
            let range = match (at.first(), at.last()) {
                (Some(&a), Some(&b)) => (a, b + 1),
                _ => (0, 0),
            };
            assert_eq!(h.hrel_ranges[hr as usize], range, "{what}: hrel_ranges[{hr}]");
            let rels: BTreeSet<u32> = at.iter().flat_map(|&i| [want[i].1, want[i].2]).collect();
            assert_eq!(
                h.hrel_relations[hr as usize],
                rels.into_iter().collect::<Vec<u32>>(),
                "{what}: hrel_relations[{hr}]"
            );
        }
    }

    fn random_snap(rng: &mut rand::rngs::StdRng, n: usize, m: usize, facts: usize) -> Snapshot {
        use rand::Rng;
        let facts: Vec<(u32, u32, u32)> = (0..facts)
            .map(|_| {
                (rng.gen_range(0..n as u32), rng.gen_range(0..m as u32), rng.gen_range(0..n as u32))
            })
            .collect();
        snap(&facts, n, m)
    }

    #[test]
    fn chain_produces_os_edge() {
        // (0, r0, 1) and (1, r1, 2): object of r0 is subject of r1.
        let s = snap(&[(0, 0, 1), (1, 1, 2)], 3, 2);
        let h = HyperSnapshot::from_snapshot(&s);
        assert!(h.has_edge(HyperRel::ObjectSubject.id(), 0, 1));
        // And symmetrically s-o from r1 to r0.
        assert!(h.has_edge(HyperRel::SubjectObject.id(), 1, 0));
    }

    #[test]
    fn shared_object_produces_oo_edge() {
        let s = snap(&[(0, 0, 2), (1, 1, 2)], 3, 2);
        let h = HyperSnapshot::from_snapshot(&s);
        assert!(h.has_edge(HyperRel::ObjectObject.id(), 0, 1));
        assert!(h.has_edge(HyperRel::ObjectObject.id(), 1, 0));
    }

    #[test]
    fn shared_subject_produces_ss_edge() {
        let s = snap(&[(0, 0, 1), (0, 1, 2)], 3, 2);
        let h = HyperSnapshot::from_snapshot(&s);
        assert!(h.has_edge(HyperRel::SubjectSubject.id(), 0, 1));
        assert!(h.has_edge(HyperRel::SubjectSubject.id(), 1, 0));
    }

    #[test]
    fn no_self_loops_for_oo_ss() {
        // Relation 0 used twice with shared object 2 and shared subject 0.
        let s = snap(&[(0, 0, 2), (1, 0, 2), (0, 0, 1)], 3, 1);
        let h = HyperSnapshot::from_snapshot(&s);
        for i in 0..h.num_edges() {
            let hr = h.hrel[i] % 4;
            if hr == HyperRel::ObjectObject.id() || hr == HyperRel::SubjectSubject.id() {
                assert_ne!(h.src[i], h.dst[i], "self-loop hyperedge produced");
            }
        }
    }

    #[test]
    fn inverse_hyperedges_mirror_forward() {
        let s = snap(&[(0, 0, 1), (1, 1, 2), (2, 0, 0)], 3, 2);
        let h = HyperSnapshot::from_snapshot(&s);
        for i in 0..h.num_edges() {
            if h.hrel[i] < 4 {
                assert!(
                    h.has_edge(h.hrel[i] + 4, h.dst[i], h.src[i]),
                    "missing inverse of ({}, {}, {})",
                    h.hrel[i],
                    h.src[i],
                    h.dst[i]
                );
            }
        }
    }

    #[test]
    fn matches_dense_reference_small() {
        let s = snap(&[(0, 0, 1), (1, 1, 2), (2, 0, 0), (0, 2, 2), (3, 1, 1)], 4, 3);
        assert_matches_oracle(&s, "small");
    }

    #[test]
    fn matches_dense_reference_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for case in 0..20 {
            let (n, m, facts) = (rng.gen_range(2..8), rng.gen_range(1..5), rng.gen_range(1..15));
            let s = random_snap(&mut rng, n, m, facts);
            assert_matches_oracle(&s, &format!("case {case} facts {:?}", s.facts));
        }
    }

    #[test]
    fn matches_dense_reference_at_benchmark_size() {
        // The mini profiles' snapshots: dozens of relations, hundreds of
        // facts, relations sharing entities many times over.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for case in 0..4 {
            let (n, m, facts) =
                (rng.gen_range(60..200), rng.gen_range(24..40), rng.gen_range(200..400));
            let s = random_snap(&mut rng, n, m, facts);
            assert_matches_oracle(&s, &format!("case {case}: n={n} m={m} facts={facts}"));
        }
    }

    #[test]
    fn hrel_relations_cover_incident_nodes() {
        let s = snap(&[(0, 0, 1), (1, 1, 2)], 3, 2);
        let h = HyperSnapshot::from_snapshot(&s);
        let os = &h.hrel_relations[HyperRel::ObjectSubject.id() as usize];
        assert!(os.contains(&0) && os.contains(&1));
    }

    #[test]
    fn empty_snapshot_yields_empty_hypergraph() {
        let s = Snapshot::empty(0, 4, 2);
        let h = HyperSnapshot::from_snapshot(&s);
        assert_eq!(h.num_edges(), 0);
        assert_eq!(h.num_rel_nodes, 4);
    }

    #[test]
    fn message_islands_are_bridged() {
        // The paper's motivating example: r0 and r1 share entity 1; in an
        // entity-centric graph messages cannot cross from r0 to r1, but the
        // hyperrelation graph connects them directly.
        let s = snap(&[(0, 0, 1), (1, 1, 2)], 3, 2);
        let h = HyperSnapshot::from_snapshot(&s);
        let connected = (0..h.num_edges())
            .any(|i| (h.src[i] == 0 && h.dst[i] == 1) || (h.src[i] == 1 && h.dst[i] == 0));
        assert!(connected, "relations sharing an entity must be adjacent");
    }
}
