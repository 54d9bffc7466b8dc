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
//! candidate forward hyperedges, each packed into one `u64` key that orders
//! as its (hyperrelation, `r_o`) *slot*, then `r_s`, and a single sort +
//! dedup of the keys yields every slot's distinct sources ascending, slot
//! after slot; one counting pass over them gives the slot bounds. That
//! costs `O(C log C)` in the `C` candidate pairs plus `O(H·M)` slot bounds,
//! never `O(M²)`, and hashes nothing; the dense product is kept in the
//! tests as a reference oracle.
//!
//! The slots are the relation R-GCN's aggregation groups (Eq. 1 normalizes
//! by each slot's size), stored in the order it sums them. As with ordinary
//! facts, each hyperedge `(r_s, hr, r_o)` also yields the inverse hyperedge
//! `(r_o, hr⁻¹, r_s)`, so only in-edges need aggregating. The inverse types
//! take no storage: `o-s⁻¹` joins exactly the pairs `s-o` joins (the subject
//! of one relation is the object of the other), `s-o⁻¹` those of `o-s`, and
//! `o-o` and `s-s` are symmetric, so type `h + 4` reads the slots of type
//! `[1, 0, 2, 3][h]`.

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

/// The forward type whose slots hold the edges of type `hr` (`0..8`): an
/// inverse type `h + 4` joins exactly the pairs of type `[1, 0, 2, 3][h]`.
fn stored_type(hr: u32) -> usize {
    const TWIN: [usize; NUM_HYPERRELS] = [1, 0, 2, 3];
    let hr = hr as usize;
    if hr < NUM_HYPERRELS {
        hr
    } else {
        TWIN[hr - NUM_HYPERRELS]
    }
}

/// The twin hyperrelation subgraph of one snapshot, stored as the
/// relation-aggregating R-GCN (Eq. 1) groups it: one slot per (forward
/// hyperrelation, destination `r_o`) pair, holding its sources `r_s`
/// ascending, plus the hyperrelation→relation incidence sets. As for
/// [`Snapshot`], Eq. 1's `1/c_{r_o, hr}` is not stored: it is one over the
/// slot's size.
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
/// // The o-s slot of r1 also holds r3 = r1⁻¹, whose edge (2, r3, 1) ends
/// // at r1's subject.
/// assert_eq!(hyper.sources(HyperRel::ObjectSubject.id(), 1), [0, 3]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct HyperSnapshot {
    /// Timestamp (same as the underlying snapshot).
    pub t: u32,
    /// Number of relation nodes, `2M`.
    pub num_rel_nodes: usize,
    /// `H·2M + 1` slot bounds: forward type `h`'s sources into `r_o` are
    /// `sources[offsets[h·2M + r_o]..offsets[h·2M + r_o + 1]]`.
    offsets: Vec<u32>,
    /// Every forward slot's distinct sources, ascending within the slot.
    sources: Vec<u32>,
    /// Relations incident to each hyperrelation type regardless of direction
    /// (the `R_hr^t` sets of Eq. 9); indexed by hyperrelation id in `0..8`.
    pub hrel_relations: Vec<Vec<u32>>,
}

impl HyperSnapshot {
    /// Builds the twin hyperrelation subgraph of `snapshot` (Algorithm 1).
    ///
    /// # Panics
    /// Panics if the snapshot has more than `2^29` relations, or its
    /// subgraph `2^32` or more forward hyperedges.
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let m2 = 2 * snapshot.num_relations;
        let num_slots = NUM_HYPERRELS * m2;
        assert!(num_slots as u64 <= 1 << 32, "too many relations to number the hyperedge slots");

        // Per-entity incidence: relations having the entity as subject/object.
        let n = snapshot.num_entities;
        let subj_of = Incidence::new(n, snapshot.src.iter().zip(&snapshot.rel));
        let obj_of = Incidence::new(n, snapshot.dst.iter().zip(&snapshot.rel));

        // Join per entity into keys ordered as (slot, r_s), the slot being
        // `h·2M + r_o`. A pair reachable through several shared entities
        // appears once per entity; the dedup below keeps one (the boolean
        // product semantics).
        let mut keys: Vec<u64> = Vec::new();
        let mut push = |hr: HyperRel, rs: u32, ro: u32| {
            keys.push(((hr as usize * m2 + ro as usize) as u64) << 32 | u64::from(rs));
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
        assert!(u32::try_from(keys.len()).is_ok(), "hyperedge count fits in u32");

        // Slot bounds by counting, marking both ends of every edge in its
        // forward type's R_hr^t row.
        let mut offsets = vec![0u32; num_slots + 1];
        let mut incident = vec![false; num_slots];
        for &key in &keys {
            let slot = (key >> 32) as usize;
            offsets[slot + 1] += 1;
            incident[slot] = true;
            incident[slot - slot % m2 + (key as u32) as usize] = true;
        }
        for slot in 0..num_slots {
            offsets[slot + 1] += offsets[slot];
        }
        let sources = keys.iter().map(|&key| key as u32).collect();

        // Type h + 4 joins type h's pairs reversed: the same incident set.
        let hrel_relations: Vec<Vec<u32>> = (0..NUM_HYPERRELS_WITH_INV)
            .map(|hr| {
                let h = hr % NUM_HYPERRELS;
                let row = &incident[h * m2..(h + 1) * m2];
                (0u32..).zip(row).filter(|&(_, &on)| on).map(|(r, _)| r).collect()
            })
            .collect();

        HyperSnapshot { t: snapshot.t, num_rel_nodes: m2, offsets, sources, hrel_relations }
    }

    /// Number of hyperedges (inverses included).
    pub fn num_edges(&self) -> usize {
        2 * self.sources.len()
    }

    /// The sources `r_s` of the type-`hr` edges into `r_o = dst`, ascending:
    /// one slot of Eq. 1's aggregation. Empty when `dst` is not a relation
    /// node.
    ///
    /// # Panics
    /// Panics if `hr` is not a hyperrelation id (`0..8`).
    pub fn sources(&self, hr: u32, dst: u32) -> &[u32] {
        let dst = dst as usize;
        if dst >= self.num_rel_nodes {
            return &[];
        }
        let slot = stored_type(hr) * self.num_rel_nodes + dst;
        &self.sources[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// Every hyperedge `(hr, r_s, r_o)`, inverses included, in slot order:
    /// by type, then destination, then ascending source.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..NUM_HYPERRELS_WITH_INV as u32).flat_map(move |hr| {
            (0..self.num_rel_nodes as u32)
                .flat_map(move |ro| self.sources(hr, ro).iter().map(move |&rs| (hr, rs, ro)))
        })
    }

    /// True when a specific hyperedge exists.
    pub fn has_edge(&self, hr: u32, rs: u32, ro: u32) -> bool {
        self.sources(hr, ro).binary_search(&rs).is_ok()
    }
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
    /// included) in ascending order. Each inverse type is built from its own
    /// forward type's product, reversed, so agreeing with it on all eight
    /// types also checks that inverse types may read their twins' slots.
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
    /// dense oracle: its edges, read through [`HyperSnapshot::edges`] and
    /// put in `(hrel, src, dst)` order, column by column; the edge count;
    /// the slot order the R-GCN sums in (each type one contiguous run, then
    /// destinations, then sources, strictly ascending), with each type's
    /// run as long as the oracle's; and the per-type relation sets. (The
    /// R-GCN's slot plan, which derives Eq. 1's `1/c` from the slots, is
    /// checked against its own oracle.)
    fn assert_matches_oracle(s: &Snapshot, what: &str) {
        let h = HyperSnapshot::from_snapshot(s);
        let want = dense_reference(s);
        let in_slot_order: Vec<(u32, u32, u32)> = h.edges().collect();
        let mut got = in_slot_order.clone();
        got.sort_unstable();
        let column = |edges: &[(u32, u32, u32)], f: fn(&(u32, u32, u32)) -> u32| {
            edges.iter().map(f).collect::<Vec<u32>>()
        };
        assert_eq!(column(&got, |e| e.0), column(&want, |e| e.0), "{what}: hrel");
        assert_eq!(column(&got, |e| e.1), column(&want, |e| e.1), "{what}: src");
        assert_eq!(column(&got, |e| e.2), column(&want, |e| e.2), "{what}: dst");
        assert_eq!(h.num_edges(), want.len(), "{what}: num_edges");
        assert!(
            in_slot_order.windows(2).all(|w| (w[0].0, w[0].2, w[0].1) < (w[1].0, w[1].2, w[1].1)),
            "{what}: edges() is not in strictly ascending (type, dst, src) order"
        );

        for hr in 0..NUM_HYPERRELS_WITH_INV as u32 {
            let at: Vec<usize> = (0..want.len()).filter(|&i| want[i].0 == hr).collect();
            let run = in_slot_order.iter().filter(|e| e.0 == hr).count();
            assert_eq!(run, at.len(), "{what}: type {hr} edge count");
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
        for (hr, rs, ro) in h.edges() {
            let hr = hr % 4;
            if hr == HyperRel::ObjectObject.id() || hr == HyperRel::SubjectSubject.id() {
                assert_ne!(rs, ro, "self-loop hyperedge produced");
            }
        }
    }

    #[test]
    fn inverse_hyperedges_mirror_forward() {
        let s = snap(&[(0, 0, 1), (1, 1, 2), (2, 0, 0)], 3, 2);
        let h = HyperSnapshot::from_snapshot(&s);
        for (hr, rs, ro) in h.edges() {
            if hr < 4 {
                assert!(h.has_edge(hr + 4, ro, rs), "missing inverse of ({hr}, {rs}, {ro})");
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

    /// Only the four forward types are stored: one source per forward
    /// hyperedge, `num_edges() / 2` in all, behind `H·2M + 1` slot bounds,
    /// and each inverse type reads its twin's slots.
    #[test]
    fn storage_holds_half_the_edges() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for case in 0..24 {
            let (n, m, facts) = match case {
                0 => (3, 2, 0),
                1..20 => (rng.gen_range(2..8), rng.gen_range(1..5), rng.gen_range(1..15)),
                _ => (rng.gen_range(60..200), rng.gen_range(24..40), rng.gen_range(200..400)),
            };
            let h = HyperSnapshot::from_snapshot(&random_snap(&mut rng, n, m, facts));
            assert_eq!(h.sources.len(), h.num_edges() / 2, "case {case}");
            assert_eq!(h.offsets.len(), NUM_HYPERRELS * 2 * m + 1, "case {case}");
            for (hr, twin) in [(4, 1), (5, 0), (6, 2), (7, 3)] {
                for ro in 0..h.num_rel_nodes as u32 {
                    assert!(std::ptr::eq(h.sources(hr, ro), h.sources(twin, ro)), "case {case}");
                }
            }
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
        let connected = h.edges().any(|(_, rs, ro)| (rs == 0 && ro == 1) || (rs == 1 && ro == 0));
        assert!(connected, "relations sharing an entity must be adjacent");
    }
}
