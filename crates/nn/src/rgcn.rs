//! Relational graph convolution layers.
//!
//! [`EntityRgcn`] implements Eq. 4 (the entity-aggregating R-GCN of the EAM):
//! each object entity aggregates `W_r (e_s + r)` from its in-edges (inverse
//! edges included), normalized by `1/c_{o,r}`, plus a self-loop `W_0 e_o`,
//! through an RReLU.
//!
//! [`RelationRgcn`] implements Eq. 1 (the relation-aggregating R-GCN of the
//! RAM) on a hyperrelation subgraph: each relation node aggregates
//! `W_hr (r_s + hr)` from its hyperrelation in-edges plus a self-loop.
//!
//! Per-edge-type weights come in two flavors ([`WeightMode`]): independent
//! matrices per type, or the basis decomposition of Schlichtkrull et al.
//! (`W_r = Σ_b a_{rb} V_b`), which is what large relation vocabularies need.
//!
//! Both layers aggregate through a per-forward `SlotPlan`: messages are
//! summed per (edge type, destination) slot with [`Graph::segment_sum`]
//! before any weight is applied, so a `[d, d]` weight multiplies one row per
//! slot (or per destination, for bases) instead of one row per edge. The
//! slot is also the normalization's neighbor set: `c_{o,r}` is its size,
//! so the plan derives each edge's `1/c` weight from the grouping itself.
//! The entity plan groups a snapshot's edge arrays into slots; a
//! [`HyperSnapshot`] is stored as its slots, so the relation plan reads
//! them in order.

use std::rc::Rc;

use retia_graph::{HyperSnapshot, Snapshot, NUM_HYPERRELS_WITH_INV};
use retia_tensor::{Ops, ParamStore, Segments};

use crate::check_rows;

/// How per-edge-type transforms are parameterized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightMode {
    /// One independent `[d, d]` matrix per edge type.
    PerRelation,
    /// Basis decomposition with the given number of bases.
    Basis(usize),
}

/// The aggregation plan of one edge set, built once per forward pass and
/// shared by every layer. A *slot* is one (edge type, destination) pair,
/// and each of its `c` edges is normalized by `1/c` (Eq. 1/4's
/// `1/c_{o,r}`). The per-type transform is linear, `Σ_i n_i (h_i + e) W =
/// (Σ_i n_i (h_i + e)) W`, so each slot's normalized messages are summed
/// first and a weight is applied once per slot (`PerRelation`) or once per
/// destination (`Basis`), never once per edge.
#[derive(Clone, Debug)]
struct SlotPlan {
    /// Lengths of the (src, type, dst) edge arrays the plan was cut from;
    /// the layers' `edge_arrays` check rejects them unless they agree.
    edge_lens: [usize; 3],
    /// Slot rows from `h_src / c` over each slot's `c` edges.
    src_sum: Rc<Segments>,
    /// Slot rows from `e_type / c` over each slot's `c` edges.
    type_sum: Rc<Segments>,
    /// Edge type of each slot, ascending.
    slot_type: Rc<Vec<u32>>,
    /// Every edge type with at least one edge, ascending.
    types: Vec<TypeSlots>,
    /// Distinct destination nodes, ascending.
    dests: Vec<u32>,
    /// Distinct-destination rows from the slots landing on each (unit
    /// weights, slot order).
    slot_to_dest: Rc<Segments>,
    /// Node rows from the distinct-destination rows.
    dest_to_node: Rc<Segments>,
}

/// One edge type's slots: the rows its weight multiplies and where they
/// land.
#[derive(Clone, Debug)]
struct TypeSlots {
    ty: usize,
    /// Slot indices of this type (contiguous, ascending destination).
    rows: Rc<Vec<u32>>,
    /// Node rows from this type's slot rows.
    to_node: Rc<Segments>,
}

/// Node rows receiving row `i` at `nodes[i]` with unit weight: the
/// transpose of a gather. Nodes out of range are left out; the layers'
/// `edge_dst` check rejects them.
fn place(nodes: &[u32], num_nodes: usize) -> Rc<Segments> {
    let mut groups = vec![Vec::new(); num_nodes];
    for (i, &n) in nodes.iter().enumerate() {
        if let Some(group) = groups.get_mut(n as usize) {
            group.push(i as u32);
        }
    }
    Rc::new(Segments::unit(&groups))
}

impl SlotPlan {
    /// Groups the edges by (type, destination); within a slot, edges keep
    /// their array order, and each weighs `1 / c` in a `c`-edge slot.
    /// Arrays of unequal length are cut to the shortest (the layers'
    /// `edge_arrays` check rejects the mismatch).
    fn new(src: &[u32], etype: &[u32], dst: &[u32], num_nodes: usize) -> Self {
        let edge_lens = [src.len(), etype.len(), dst.len()];
        let n = edge_lens.into_iter().min().unwrap_or(0);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (etype[i], dst[i]));
        let slots = order
            .chunk_by(|&a, &b| (etype[a], dst[a]) == (etype[b], dst[b]))
            .map(|s| (etype[s[0]], dst[s[0]], s.iter().map(|&i| src[i])));
        Self::from_slots(edge_lens, slots, num_nodes)
    }

    /// The plan of non-empty `(type, destination, sources)` slots, ascending
    /// by (type, destination); `edge_lens` are the lengths of the edge
    /// arrays they were cut from.
    fn from_slots<S: Iterator<Item = u32>>(
        edge_lens: [usize; 3],
        slots: impl Iterator<Item = (u32, u32, S)>,
        num_nodes: usize,
    ) -> Self {
        let (mut offsets, mut cols, mut edge_type) = (vec![0usize], Vec::new(), Vec::new());
        let (mut weights, mut slot_type, mut slot_dst) = (Vec::new(), Vec::new(), Vec::new());
        for (ty, dst, sources) in slots {
            let start = cols.len();
            cols.extend(sources);
            let c = cols.len() - start;
            offsets.push(cols.len());
            edge_type.extend(std::iter::repeat_n(ty, c));
            weights.extend(std::iter::repeat_n(1.0 / c as f32, c));
            slot_type.push(ty);
            slot_dst.push(dst);
        }

        let (mut types, mut start) = (Vec::new(), 0);
        for run in slot_type.chunk_by(|a, b| a == b) {
            let range = start..start + run.len();
            types.push(TypeSlots {
                ty: run[0] as usize,
                rows: Rc::new((range.start as u32..range.end as u32).collect()),
                to_node: place(&slot_dst[range.clone()], num_nodes),
            });
            start = range.end;
        }

        let mut dests = slot_dst.clone();
        dests.sort_unstable();
        dests.dedup();
        let dest_row: Vec<u32> =
            slot_dst.iter().map(|d| dests.partition_point(|x| x < d) as u32).collect();

        SlotPlan {
            edge_lens,
            src_sum: Rc::new(Segments::new(offsets.clone(), cols, weights.clone())),
            type_sum: Rc::new(Segments::new(offsets, edge_type, weights)),
            slot_type: Rc::new(slot_type),
            types,
            slot_to_dest: place(&dest_row, dests.len()),
            dest_to_node: place(&dests, num_nodes),
            dests,
        }
    }

    /// The plan of an entity snapshot's (augmented) edges (Eq. 4).
    fn entity(snap: &Snapshot) -> Self {
        Self::new(&snap.src, &snap.rel, &snap.dst, snap.num_entities)
    }

    /// The plan of a hyperrelation subgraph's edges (Eq. 1), read from its
    /// slots with no grouping: they are stored in the order
    /// [`SlotPlan::new`] groups edges in, by type, then destination, each
    /// slot's sources ascending.
    fn relation(hyper: &HyperSnapshot) -> Self {
        let m2 = hyper.num_rel_nodes as u32;
        let slots = (0..NUM_HYPERRELS_WITH_INV as u32).flat_map(|hr| {
            (0..m2).filter_map(move |ro| {
                let sources = hyper.sources(hr, ro);
                (!sources.is_empty()).then(|| (hr, ro, sources.iter().copied()))
            })
        });
        Self::from_slots([hyper.num_edges(); 3], slots, hyper.num_rel_nodes)
    }

    fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

/// Shared implementation over (src, etype, dst) edge arrays.
#[derive(Clone, Debug)]
struct RgcnCore {
    prefix: String,
    num_edge_types: usize,
    mode: WeightMode,
    num_layers: usize,
    dropout: f32,
}

impl RgcnCore {
    fn new(
        store: &mut ParamStore,
        prefix: &str,
        dim: usize,
        num_edge_types: usize,
        mode: WeightMode,
        num_layers: usize,
        dropout: f32,
    ) -> Self {
        for l in 0..num_layers {
            store.register_xavier(&format!("{prefix}.l{l}.wself"), dim, dim);
            match mode {
                WeightMode::PerRelation => {
                    for r in 0..num_edge_types {
                        store.register_xavier(&format!("{prefix}.l{l}.w{r}"), dim, dim);
                    }
                }
                WeightMode::Basis(b) => {
                    assert!(b > 0, "basis count must be positive");
                    for i in 0..b {
                        store.register_xavier(&format!("{prefix}.l{l}.basis{i}"), dim, dim);
                    }
                    store.register_xavier(&format!("{prefix}.l{l}.coef"), num_edge_types, b);
                }
            }
        }
        RgcnCore { prefix: prefix.to_string(), num_edge_types, mode, num_layers, dropout }
    }

    /// The edge-set preconditions the layers rely on: equal-length edge
    /// arrays, edge types with a registered weight, and destinations inside
    /// the `num_nodes` node table. Then every layer over `plan`; each
    /// passes only its output onward, so an inference graph frees a layer's
    /// messages (and the output it consumed) as soon as it returns.
    fn forward<O: Ops>(
        &self,
        g: &mut O,
        store: &ParamStore,
        h_nodes: O::Id,
        edge_emb: O::Id,
        plan: &SlotPlan,
        num_nodes: usize,
    ) -> O::Id {
        let lens = plan.edge_lens;
        g.check("edge_arrays", lens.iter().all(|&l| l == lens[0]), || {
            format!("edge arrays (src, type, dst) have unequal lengths {lens:?}")
        });
        let top = plan.types.last().map_or(0, |ts| ts.ty);
        g.check("edge_type_id", plan.is_empty() || top < self.num_edge_types, || {
            format!("edge type {top} has no registered weight (only {} types)", self.num_edge_types)
        });
        let top_dst = plan.dests.last().map_or(0, |&d| d as usize);
        g.check("edge_dst", plan.is_empty() || top_dst < num_nodes, || {
            format!("edge destination {top_dst} out of range for {num_nodes} nodes")
        });
        let mark = g.num_nodes();
        let mut h = h_nodes;
        for l in 0..self.num_layers {
            h = g
                .frame(&format!("layer {l}"), None, |g| self.layer(g, store, l, h, edge_emb, plan));
            g.release_since(mark, &[h]);
        }
        h
    }

    /// One layer: `h_nodes` `[n, d]`, `edge_emb` `[num_edge_types, d]`
    /// (relation or hyperrelation embeddings added into messages). In
    /// `PerRelation` mode, `w{r}` for an edge type with no edge in the plan
    /// never enters the graph; the model-level audit declares such weights
    /// frozen with a "type absent from the audit window" reason. On an
    /// inference graph every value is freed after its last read: the slot
    /// sums once added into messages, each basis's or edge type's rows once
    /// transformed and its product once added to the running sum, the
    /// messages once transformed, the summands once added.
    fn layer<O: Ops>(
        &self,
        g: &mut O,
        store: &ParamStore,
        layer: usize,
        h_nodes: O::Id,
        edge_emb: O::Id,
        plan: &SlotPlan,
    ) -> O::Id {
        let mark = g.num_nodes();
        let w0 = g.param(store, &format!("{}.l{layer}.wself", self.prefix));
        let mut out = g.matmul(h_nodes, w0);
        if !plan.is_empty() {
            // Σ (h_src + edge_emb) / |slot| per (type, destination) slot.
            let h_sum = g.segment_sum(h_nodes, plan.src_sum.clone());
            let e_sum = g.segment_sum(edge_emb, plan.type_sum.clone());
            let msg = g.add(h_sum, e_sum);
            g.release_since(mark, &[out, msg]);
            let transformed = match self.mode {
                WeightMode::Basis(nb) => {
                    // W_r = Σ_b a_rb V_b: scale slots by their type's
                    // coefficient, sum them per destination, then apply
                    // each basis once per destination.
                    let coef = g.param(store, &format!("{}.l{layer}.coef", self.prefix));
                    let slot_coef = g.gather_rows(coef, plan.slot_type.clone());
                    let t = running_sum(g, 0..nb, |g, b| {
                        let basis_mark = g.num_nodes();
                        let cb = g.slice_cols(slot_coef, b, b + 1);
                        let scaled = g.mul_col(msg, cb);
                        let per_dest = g.segment_sum(scaled, plan.slot_to_dest.clone());
                        g.release_since(basis_mark, &[per_dest]);
                        let vb = g.param(store, &format!("{}.l{layer}.basis{b}", self.prefix));
                        g.matmul(per_dest, vb)
                    })
                    .expect("at least one basis");
                    g.segment_sum(t, plan.dest_to_node.clone())
                }
                WeightMode::PerRelation => running_sum(g, &plan.types, |g, ts| {
                    let type_mark = g.num_nodes();
                    let rows = g.gather_rows(msg, ts.rows.clone());
                    let wr = g.param(store, &format!("{}.l{layer}.w{}", self.prefix, ts.ty));
                    let t = g.matmul(rows, wr);
                    g.release_since(type_mark, &[t]);
                    g.segment_sum(t, ts.to_node.clone())
                })
                .expect("a non-empty plan has at least one edge type"),
            };
            g.release_since(mark, &[out, transformed]);
            out = g.add(out, transformed);
            g.release_since(mark, &[out]);
        }
        let activated = g.rrelu(out);
        g.dropout(activated, self.dropout)
    }
}

/// `term(item)` summed over `items` left to right, or `None` when there are
/// none. On an inference graph only the running sum outlives each step:
/// a term's intermediates and the previous sum are freed as soon as the
/// next sum exists.
fn running_sum<O: Ops, T>(
    g: &mut O,
    items: impl IntoIterator<Item = T>,
    mut term: impl FnMut(&mut O, T) -> O::Id,
) -> Option<O::Id> {
    let (mut acc, mut acc_mark) = (None, g.num_nodes());
    for item in items {
        let mark = g.num_nodes();
        let y = term(g, item);
        let sum = match acc {
            Some(a) => g.add(a, y),
            None => y,
        };
        // The previous sum was made after `acc_mark`, this term after `mark`.
        g.release_since(acc_mark, &[sum]);
        (acc, acc_mark) = (Some(sum), mark);
    }
    acc
}

/// The entity-aggregating R-GCN (Eq. 4).
#[derive(Clone, Debug)]
pub struct EntityRgcn {
    core: RgcnCore,
}

impl EntityRgcn {
    /// Registers an `num_layers`-layer entity R-GCN under `prefix`.
    /// `num_rel_total` is `2M` (inverse relations included).
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        dim: usize,
        num_rel_total: usize,
        mode: WeightMode,
        num_layers: usize,
        dropout: f32,
    ) -> Self {
        EntityRgcn {
            core: RgcnCore::new(store, prefix, dim, num_rel_total, mode, num_layers, dropout),
        }
    }

    /// Aggregates over `snap`: `entities [N, d]`, `relations [2M, d]` →
    /// `[N, d]`.
    pub fn forward<O: Ops>(
        &self,
        g: &mut O,
        store: &ParamStore,
        entities: O::Id,
        relations: O::Id,
        snap: &Snapshot,
    ) -> O::Id {
        g.scoped("EntityRgcn", None, |g| {
            check_rows(g, "entity_count", "entity", entities, snap.num_entities);
            check_rows(g, "relation_count", "relation (2M)", relations, 2 * snap.num_relations);
            let plan = SlotPlan::entity(snap);
            self.core.forward(g, store, entities, relations, &plan, snap.num_entities)
        })
    }
}

/// The relation-aggregating R-GCN over a hyperrelation subgraph (Eq. 1).
#[derive(Clone, Debug)]
pub struct RelationRgcn {
    core: RgcnCore,
}

impl RelationRgcn {
    /// Registers an `num_layers`-layer relation R-GCN under `prefix`. There
    /// are always `2H = 8` hyperrelation edge types.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        dim: usize,
        mode: WeightMode,
        num_layers: usize,
        dropout: f32,
    ) -> Self {
        RelationRgcn {
            core: RgcnCore::new(
                store,
                prefix,
                dim,
                NUM_HYPERRELS_WITH_INV,
                mode,
                num_layers,
                dropout,
            ),
        }
    }

    /// Aggregates over `hyper`: `relations [2M, d]`,
    /// `hyperrelations [2H, d]` → `[2M, d]`.
    pub fn forward<O: Ops>(
        &self,
        g: &mut O,
        store: &ParamStore,
        relations: O::Id,
        hyperrelations: O::Id,
        hyper: &HyperSnapshot,
    ) -> O::Id {
        g.scoped("RelationRgcn", None, |g| {
            check_rows(g, "relation_node_count", "relation node", relations, hyper.num_rel_nodes);
            let hr = NUM_HYPERRELS_WITH_INV;
            check_rows(g, "hyperrelation_count", "hyperrelation", hyperrelations, hr);
            let plan = SlotPlan::relation(hyper);
            self.core.forward(g, store, relations, hyperrelations, &plan, hyper.num_rel_nodes)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use retia_graph::Quad;
    use retia_tensor::{Graph, Tensor, RRELU_EVAL_SLOPE};

    fn toy_snapshot() -> Snapshot {
        let quads = vec![Quad::new(0, 0, 1, 0), Quad::new(2, 1, 1, 0), Quad::new(1, 0, 3, 0)];
        Snapshot::from_quads(&quads, 4, 2)
    }

    fn rrelu_eval(x: f32) -> f32 {
        if x >= 0.0 {
            x
        } else {
            x * RRELU_EVAL_SLOPE
        }
    }

    #[test]
    fn entity_rgcn_shapes_both_modes() {
        for mode in [WeightMode::PerRelation, WeightMode::Basis(2)] {
            let mut store = ParamStore::new(0);
            let rgcn = EntityRgcn::new(&mut store, "e", 8, 4, mode, 2, 0.0);
            let snap = toy_snapshot();
            let mut g = Graph::new(false, 0);
            let e = g.constant(Tensor::ones(4, 8));
            let r = g.constant(Tensor::ones(4, 8));
            let out = rgcn.forward(&mut g, &store, e, r, &snap);
            assert_eq!(g.value(out).shape(), (4, 8));
            assert!(g.value(out).all_finite());
        }
    }

    /// A snapshot where several edges share one (relation, object) pair:
    /// three subjects reach object 1 through relation 0, two reach object 3
    /// through relation 1.
    fn shared_slot_snapshot() -> Snapshot {
        let quads = [(0, 0, 1), (2, 0, 1), (3, 0, 1), (1, 1, 3), (2, 1, 3), (0, 1, 2), (3, 1, 0)];
        let quads: Vec<Quad> = quads.iter().map(|&(s, r, o)| Quad::new(s, r, o, 0)).collect();
        Snapshot::from_quads(&quads, 4, 2)
    }

    /// The weight of edge type `r` as Eq. 1/4 states it: `w{r}`, or
    /// `Σ_b coef[r, b] · basis{b}`.
    fn type_weight(store: &ParamStore, prefix: &str, mode: WeightMode, r: usize) -> Tensor {
        match mode {
            WeightMode::PerRelation => store.value(&format!("{prefix}.l0.w{r}")).clone(),
            WeightMode::Basis(nb) => {
                let coef = store.value(&format!("{prefix}.l0.coef"));
                (0..nb)
                    .map(|b| store.value(&format!("{prefix}.l0.basis{b}")).scale(coef.get(r, b)))
                    .reduce(|a, b| a.add(&b))
                    .expect("at least one basis")
            }
        }
    }

    /// One eval-mode layer as a direct per-edge loop of Eq. 4 / Eq. 1:
    /// `rrelu(W_0 h_o + Σ_(s,r,o) (h_s + e_r) W_r / c_{o,r})`, where
    /// `c_{o,r}` counts the edges of type `r` into `o`.
    #[allow(clippy::too_many_arguments)]
    fn naive_layer(
        store: &ParamStore,
        prefix: &str,
        mode: WeightMode,
        h: &Tensor,
        e: &Tensor,
        src: &[u32],
        etype: &[u32],
        dst: &[u32],
    ) -> Tensor {
        let d = h.cols();
        let mut expected = h.matmul(store.value(&format!("{prefix}.l0.wself")));
        for i in 0..src.len() {
            let (s, r, o) = (src[i] as usize, etype[i] as usize, dst[i] as usize);
            let c = (0..src.len()).filter(|&j| (etype[j], dst[j]) == (etype[i], dst[i])).count();
            let msg: Vec<f32> = h.row(s).iter().zip(e.row(r)).map(|(&a, &b)| a + b).collect();
            let msg = Tensor::from_vec(1, d, msg).scale(1.0 / c as f32);
            let t = msg.matmul(&type_weight(store, prefix, mode, r));
            for j in 0..d {
                expected.set(o, j, expected.get(o, j) + t.get(0, j));
            }
        }
        expected.map_inplace(rrelu_eval);
        expected
    }

    #[test]
    fn both_rgcns_match_the_per_edge_equations_in_both_modes() {
        let d = 5;
        let snap = shared_slot_snapshot();
        let hyper = HyperSnapshot::from_snapshot(&snap);
        let shared = |etype: &[u32], dst: &[u32]| {
            (1..etype.len()).any(|i| (0..i).any(|j| (etype[j], dst[j]) == (etype[i], dst[i])))
        };
        let (hs, ht, ho) = edge_arrays(&hyper);
        assert!(shared(&snap.rel, &snap.dst), "no two entity edges share a slot");
        assert!(shared(&ht, &ho), "no two hyperedges share a slot");
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut rand_t = |r: usize| Tensor::from_fn(r, d, |_, _| rng.gen_range(-1.0f32..1.0));
        let ent = rand_t(4);
        let rel = rand_t(4);
        let hr = rand_t(NUM_HYPERRELS_WITH_INV);

        for mode in [WeightMode::PerRelation, WeightMode::Basis(3)] {
            for entity in [true, false] {
                let mut store = ParamStore::new(7);
                let mut g = Graph::new(false, 0);
                let (got, want) = if entity {
                    let rgcn = EntityRgcn::new(&mut store, "e", d, 4, mode, 1, 0.0);
                    let (e, r) = (g.constant(ent.clone()), g.constant(rel.clone()));
                    let out = rgcn.forward(&mut g, &store, e, r, &snap);
                    let (s, t, o) = (&snap.src, &snap.rel, &snap.dst);
                    (g.value(out).clone(), naive_layer(&store, "e", mode, &ent, &rel, s, t, o))
                } else {
                    let rgcn = RelationRgcn::new(&mut store, "r", d, mode, 1, 0.0);
                    let (r, h) = (g.constant(rel.clone()), g.constant(hr.clone()));
                    let out = rgcn.forward(&mut g, &store, r, h, &hyper);
                    let want = naive_layer(&store, "r", mode, &rel, &hr, &hs, &ht, &ho);
                    (g.value(out).clone(), want)
                };
                let diff = got.max_abs_diff(&want);
                assert!(diff < 1e-5, "entity={entity} {mode:?}: diff {diff}");
            }
        }
    }

    /// A hypergraph's edges as `(src, type, dst)` arrays, in slot order.
    fn edge_arrays(hyper: &HyperSnapshot) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let (mut src, mut etype, mut dst) = (Vec::new(), Vec::new(), Vec::new());
        for (hr, rs, ro) in hyper.edges() {
            src.push(rs);
            etype.push(hr);
            dst.push(ro);
        }
        (src, etype, dst)
    }

    /// Every edge the plan sums, as `(type, src, dst, weight bits)` in slot
    /// order, after checking that the type sums read the same entries.
    fn planned_edges(plan: &SlotPlan) -> Vec<(u32, u32, u32, u32)> {
        let mut slot_dst = vec![0; plan.slot_type.len()];
        for (row, &dst) in plan.dests.iter().enumerate() {
            for &slot in plan.slot_to_dest.row(row).0 {
                slot_dst[slot as usize] = dst;
            }
        }
        let mut edges = Vec::new();
        for (slot, (&ty, &dst)) in plan.slot_type.iter().zip(&slot_dst).enumerate() {
            let ((srcs, w), (types, tw)) = (plan.src_sum.row(slot), plan.type_sum.row(slot));
            assert!(types.iter().all(|&t| t == ty) && tw == w, "slot {slot}: type sum differs");
            edges.extend(srcs.iter().zip(w).map(|(&s, w)| (ty, s, dst, w.to_bits())));
        }
        edges
    }

    /// Eq. 1/4's normalization, written out: edge `i` weighs `1 / c`, `c`
    /// counting the edges that share its (type, destination).
    fn counted_norms(src: &[u32], etype: &[u32], dst: &[u32]) -> Vec<(u32, u32, u32, u32)> {
        let mut count: std::collections::BTreeMap<(u32, u32), u32> = Default::default();
        for i in 0..src.len() {
            *count.entry((etype[i], dst[i])).or_default() += 1;
        }
        let mut edges: Vec<_> = (0..src.len())
            .map(|i| {
                let norm = 1.0 / count[&(etype[i], dst[i])] as f32;
                (etype[i], src[i], dst[i], norm.to_bits())
            })
            .collect();
        edges.sort_unstable();
        edges
    }

    /// Object 2 receives through relation 0 from subjects 0 and 1, so each
    /// of that slot's edges weighs 1/2; each inverse edge is alone in its
    /// slot and weighs 1.
    #[test]
    fn slot_weights_are_inverse_neighbor_counts() {
        let quads = [Quad::new(0, 0, 2, 0), Quad::new(1, 0, 2, 0)];
        let plan = SlotPlan::entity(&Snapshot::from_quads(&quads, 3, 1));
        let (half, one) = (0.5f32.to_bits(), 1.0f32.to_bits());
        let want = vec![(0, 0, 2, half), (0, 1, 2, half), (1, 2, 0, one), (1, 2, 1, one)];
        assert_eq!(planned_edges(&plan), want);
    }

    /// The plan's weights equal `1 / count(type, dst)` bit for bit, for the
    /// entity edges and the hyperedges of random snapshots, small and at
    /// the mini profiles' size (dozens of relations, hundreds of facts).
    #[test]
    fn slot_weights_match_counted_norms_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for case in 0..24 {
            let (n, m, f) = match case {
                0..20 => (rng.gen_range(2..8), rng.gen_range(1..5), rng.gen_range(1..15)),
                _ => (rng.gen_range(60..200), rng.gen_range(24..40), rng.gen_range(200..400)),
            };
            let quads: Vec<Quad> = (0..f)
                .map(|_| {
                    Quad::new(rng.gen_range(0..n), rng.gen_range(0..m), rng.gen_range(0..n), 0)
                })
                .collect();
            let snap = Snapshot::from_quads(&quads, n as usize, m as usize);
            let hyper = HyperSnapshot::from_snapshot(&snap);
            let mut got = planned_edges(&SlotPlan::entity(&snap));
            got.sort_unstable();
            assert_eq!(got, counted_norms(&snap.src, &snap.rel, &snap.dst), "case {case}: entity");
            let mut got = planned_edges(&SlotPlan::relation(&hyper));
            got.sort_unstable();
            let (s, t, o) = edge_arrays(&hyper);
            let want = counted_norms(&s, &t, &o);
            assert_eq!(got, want, "case {case}: hyperedges");
        }
    }

    /// Every field of a plan, weights as bits: the edge-array lengths, the
    /// two slot sums row by row (each row's columns and weights, which fix
    /// the offsets), the slot types, each edge type's rows and placement,
    /// the destinations and their two placements.
    fn plan_fields(plan: &SlotPlan) -> impl PartialEq + std::fmt::Debug {
        type Rows = Vec<(Vec<u32>, Vec<u32>)>;
        let rows = |s: &Segments| -> Rows {
            (0..s.num_rows())
                .map(|r| {
                    let (cols, w) = s.row(r);
                    (cols.to_vec(), w.iter().map(|x| x.to_bits()).collect())
                })
                .collect()
        };
        let types: Vec<(usize, Vec<u32>, Rows)> =
            plan.types.iter().map(|ts| (ts.ty, ts.rows.to_vec(), rows(&ts.to_node))).collect();
        (
            plan.edge_lens,
            (rows(&plan.src_sum), rows(&plan.type_sum)),
            (plan.slot_type.to_vec(), types),
            (plan.dests.clone(), rows(&plan.slot_to_dest), rows(&plan.dest_to_node)),
        )
    }

    /// The relation plan read from the hypergraph's slots equals, field by
    /// field, the plan [`SlotPlan::new`] groups from its edges.
    fn assert_slots_plan_as_grouped(hyper: &HyperSnapshot, what: &str) {
        let (src, etype, dst) = edge_arrays(hyper);
        let grouped = SlotPlan::new(&src, &etype, &dst, hyper.num_rel_nodes);
        assert_eq!(plan_fields(&SlotPlan::relation(hyper)), plan_fields(&grouped), "{what}");
    }

    /// Every snapshot of the ICEWS14-mini profile (seed 7), the benchmark's
    /// first workload.
    #[test]
    fn relation_plan_reads_the_slots_as_grouped_on_the_icews14_profile() {
        use retia_data::{DatasetProfile, SyntheticConfig};
        let ds = SyntheticConfig { seed: 7, ..SyntheticConfig::profile(DatasetProfile::Icews14) }
            .generate();
        let all: Vec<Quad> = ds.all_quads().copied().collect();
        for (t, facts) in retia_graph::group_by_timestamp(&all) {
            let snap = Snapshot::from_quads(&facts, ds.num_entities, ds.num_relations);
            assert_slots_plan_as_grouped(&HyperSnapshot::from_snapshot(&snap), &format!("t={t}"));
        }
    }

    fn arb_facts(max_n: u32, max_m: u32) -> impl Strategy<Value = (Vec<Quad>, usize, usize)> {
        (2..max_n, 1..max_m).prop_flat_map(|(n, m)| {
            let quad = (0..n, 0..m, 0..n).prop_map(|(s, r, o)| Quad::new(s, r, o, 0));
            (prop::collection::vec(quad, 1..30), Just(n as usize), Just(m as usize))
        })
    }

    // Each slot's weights sum to 1: the entity plan's per (dst, rel), the
    // hyperedge plan's per (dst, hyperrelation). The relation plan read from
    // random snapshots' slots is the one grouped from their edges.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn slot_weights_sum_to_one_per_slot((facts, n, m) in arb_facts(12, 6)) {
            let snap = Snapshot::from_quads(&facts, n, m);
            let hyper = HyperSnapshot::from_snapshot(&snap);
            for plan in [SlotPlan::entity(&snap), SlotPlan::relation(&hyper)] {
                for slot in 0..plan.slot_type.len() {
                    let sum: f32 = plan.src_sum.row(slot).1.iter().sum();
                    prop_assert!((sum - 1.0).abs() < 1e-4, "slot {} sums to {}", slot, sum);
                }
            }
        }

        #[test]
        fn relation_plan_reads_the_slots_as_grouped((facts, n, m) in arb_facts(12, 6)) {
            let snap = Snapshot::from_quads(&facts, n, m);
            assert_slots_plan_as_grouped(&HyperSnapshot::from_snapshot(&snap), "random");
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// The most one layer holds at once above its inputs, in floats, as
    /// `RgcnCore::layer` frees its values: `n` node rows, `s` slot rows and
    /// `dests` destination rows of width `d`. Either mode starts with the
    /// self-loop product, two slot sums and the messages. `Basis` then
    /// holds one basis at a time beside the messages, the slot coefficients
    /// and the running sum: first the scaled slots and the destination sum,
    /// then the destination sum, the product and the new sum. `PerRelation`
    /// holds one edge type's rows and product (at most `st` slots), then
    /// that product, its placement on the nodes and the new node sum. Both
    /// end with the self-loop, the transform and their sum.
    fn layer_working_set(plan: &SlotPlan, mode: WeightMode, n: usize, d: usize) -> usize {
        let (s, dests) = (plan.slot_type.len(), plan.dests.len());
        let steps = match mode {
            WeightMode::Basis(nb) => vec![
                (n + 2 * s + 2 * dests) * d + s * (nb + 1),
                (n + s + 4 * dests) * d + s * nb,
                (2 * n + s + dests) * d + s * nb,
            ],
            WeightMode::PerRelation => {
                let st = plan.types.iter().map(|ts| ts.rows.len()).max().unwrap_or(0);
                vec![(2 * n + s + 2 * st) * d, (4 * n + s + st) * d]
            }
        };
        steps.into_iter().chain([(n + 3 * s) * d, 3 * n * d]).max().unwrap_or(0)
    }

    /// Freed value by value, a two-layer forward on an inference graph
    /// peaks at the first layer's output (the second's input) plus one
    /// layer's working set, in both weight modes and for both layers.
    #[test]
    fn rgcn_layers_peak_at_one_layers_working_set() {
        // Four entities and 2M = 4 relation nodes.
        let (n, d) = (4, 8);
        let snap = shared_slot_snapshot();
        let hyper = HyperSnapshot::from_snapshot(&snap);
        for mode in [WeightMode::PerRelation, WeightMode::Basis(3)] {
            let mut store = ParamStore::new(11);
            let ent_rgcn = EntityRgcn::new(&mut store, "e", d, 4, mode, 2, 0.2);
            let rel_rgcn = RelationRgcn::new(&mut store, "r", d, mode, 2, 0.2);
            for entity in [true, false] {
                let mut g = Graph::inference();
                let types = if entity { 4 } else { NUM_HYPERRELS_WITH_INV };
                let nodes = g.constant(Tensor::ones(n, d));
                let edge_emb = g.constant(Tensor::ones(types, d));
                let before = g.value_bytes();
                let plan = if entity {
                    ent_rgcn.forward(&mut g, &store, nodes, edge_emb, &snap);
                    SlotPlan::entity(&snap)
                } else {
                    rel_rgcn.forward(&mut g, &store, nodes, edge_emb, &hyper);
                    SlotPlan::relation(&hyper)
                };
                let bound = n * d + layer_working_set(&plan, mode, n, d);
                let peak = (g.peak_value_bytes() - before) / std::mem::size_of::<f32>();
                assert!(
                    peak <= bound,
                    "entity={entity} {mode:?}: peak {peak} floats, bound {bound}"
                );
            }
        }
    }

    /// On an inference graph each layer frees its messages and the output
    /// it consumed: after a two-layer forward the graph owns the nodes made
    /// before the call plus the output, which equals a recording graph's
    /// bit for bit.
    #[test]
    fn rgcns_keep_only_their_output_on_an_inference_graph() {
        let d = 5;
        let snap = shared_slot_snapshot();
        let hyper = HyperSnapshot::from_snapshot(&snap);
        let table = |rows: usize, k: usize| {
            Tensor::from_fn(rows, d, move |i, j| ((i * 7 + j * k) % 11) as f32 / 5.0 - 1.0)
        };
        for mode in [WeightMode::PerRelation, WeightMode::Basis(3)] {
            let mut store = ParamStore::new(11);
            let ent_rgcn = EntityRgcn::new(&mut store, "e", d, 4, mode, 2, 0.2);
            let rel_rgcn = RelationRgcn::new(&mut store, "r", d, mode, 2, 0.2);
            for entity in [true, false] {
                let run = |g: &mut Graph| {
                    let ent = g.constant(table(4, 3));
                    let rel = g.constant(table(4, 5));
                    let hr = g.constant(table(NUM_HYPERRELS_WITH_INV, 2));
                    let before = g.value_bytes();
                    let out = if entity {
                        ent_rgcn.forward(g, &store, ent, rel, &snap)
                    } else {
                        rel_rgcn.forward(g, &store, rel, hr, &hyper)
                    };
                    (before, g.value_bytes(), g.value(out).clone())
                };
                let (before, after, out) = run(&mut Graph::inference());
                let out_bytes = out.len() * std::mem::size_of::<f32>();
                assert_eq!(after, before + out_bytes, "entity={entity} {mode:?}");
                let (_, _, want) = run(&mut Graph::new(false, 0));
                assert_eq!(bits(&out), bits(&want), "entity={entity} {mode:?}");
            }
        }
    }

    #[test]
    fn relation_rgcn_over_hypergraph() {
        let snap = toy_snapshot();
        let hyper = HyperSnapshot::from_snapshot(&snap);
        assert!(hyper.num_edges() > 0);
        let mut store = ParamStore::new(0);
        let rgcn = RelationRgcn::new(&mut store, "r", 6, WeightMode::PerRelation, 2, 0.0);
        let mut g = Graph::new(false, 0);
        let r = g.constant(Tensor::ones(4, 6));
        let hr = g.constant(Tensor::ones(8, 6));
        let out = rgcn.forward(&mut g, &store, r, hr, &hyper);
        assert_eq!(g.value(out).shape(), (4, 6));
        assert!(g.value(out).all_finite());
    }

    #[test]
    fn gradients_reach_all_layer_params() {
        let snap = toy_snapshot();
        let mut store = ParamStore::new(0);
        store.register_xavier("ent", 4, 5);
        store.register_xavier("rel", 4, 5);
        let rgcn = EntityRgcn::new(&mut store, "e", 5, 4, WeightMode::Basis(2), 2, 0.0);
        let mut g = Graph::new(false, 0);
        let e = g.param(&store, "ent");
        let r = g.param(&store, "rel");
        let out = rgcn.forward(&mut g, &store, e, r, &snap);
        let sq = g.mul(out, out);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut store);
        for name in
            ["ent", "rel", "e.l0.wself", "e.l0.basis0", "e.l0.basis1", "e.l0.coef", "e.l1.wself"]
        {
            assert!(store.grad(name).norm() > 0.0, "no gradient reached `{name}`");
        }
        let _ = rgcn; // silence unused in non-test builds
    }

    #[test]
    fn basis_with_identity_coefficients_matches_per_relation() {
        // With B = num_edge_types and one-hot coefficients, the basis
        // decomposition degenerates to independent per-relation weights:
        // W_r = basis_r. Copy the basis matrices into a per-relation model
        // and the two layers must agree exactly.
        let d = 4;
        let m = 2; // 2M = 4 edge types
        let snap = toy_snapshot();
        let mut store = ParamStore::new(3);
        let basis = EntityRgcn::new(&mut store, "b", d, 2 * m, WeightMode::Basis(2 * m), 1, 0.0);
        let per = EntityRgcn::new(&mut store, "p", d, 2 * m, WeightMode::PerRelation, 1, 0.0);

        // One-hot coefficients.
        *store.value_mut("b.l0.coef") = Tensor::eye(2 * m);
        // Mirror weights.
        let wself = store.value("b.l0.wself").clone();
        *store.value_mut("p.l0.wself") = wself;
        for r in 0..2 * m {
            let w = store.value(&format!("b.l0.basis{r}")).clone();
            *store.value_mut(&format!("p.l0.w{r}")) = w;
        }

        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let ent = Tensor::from_fn(4, d, |_, _| rng.gen_range(-1.0f32..1.0));
        let rel = Tensor::from_fn(4, d, |_, _| rng.gen_range(-1.0f32..1.0));

        let mut g = Graph::new(false, 0);
        let e = g.constant(ent.clone());
        let r = g.constant(rel.clone());
        let out_b = basis.forward(&mut g, &store, e, r, &snap);
        let out_p = per.forward(&mut g, &store, e, r, &snap);
        let diff = g.value(out_b).max_abs_diff(g.value(out_p));
        assert!(diff < 1e-5, "basis/per-relation mismatch: {diff}");
    }

    #[test]
    fn dropout_active_only_in_training_mode() {
        let snap = toy_snapshot();
        let mut store = ParamStore::new(0);
        let rgcn = EntityRgcn::new(&mut store, "e", 6, 4, WeightMode::Basis(2), 1, 0.5);
        let run = |training: bool, seed: u64| {
            let mut g = Graph::new(training, seed);
            let e = g.constant(Tensor::ones(4, 6));
            let r = g.constant(Tensor::ones(4, 6));
            let out = rgcn.forward(&mut g, &store, e, r, &snap);
            g.value(out).clone()
        };
        // Eval is deterministic across seeds; train is not (dropout masks).
        assert_eq!(run(false, 1), run(false, 2));
        assert_ne!(run(true, 1), run(true, 2));
    }

    /// Runs a one-layer entity R-GCN over `snap` (4 entities, 2 relations).
    fn forward_over(snap: &Snapshot) {
        let mut store = ParamStore::new(0);
        let rgcn = EntityRgcn::new(&mut store, "e", 8, 4, WeightMode::PerRelation, 1, 0.0);
        let mut g = Graph::new(false, 0);
        let e = g.constant(Tensor::ones(4, 8));
        let r = g.constant(Tensor::ones(4, 8));
        rgcn.forward(&mut g, &store, e, r, snap);
    }

    #[test]
    #[should_panic(expected = "edge_arrays")]
    fn unequal_edge_arrays_are_rejected_not_cut() {
        let mut snap = toy_snapshot();
        snap.dst.pop();
        forward_over(&snap);
    }

    #[test]
    #[should_panic(expected = "edge_dst")]
    fn out_of_range_destinations_are_rejected_not_dropped() {
        let mut snap = toy_snapshot();
        snap.dst[0] = 99;
        forward_over(&snap);
    }

    #[test]
    fn empty_snapshot_keeps_self_loop_only() {
        let snap = Snapshot::empty(0, 3, 2);
        let mut store = ParamStore::new(0);
        let rgcn = EntityRgcn::new(&mut store, "e", 4, 4, WeightMode::PerRelation, 1, 0.0);
        let mut g = Graph::new(false, 0);
        let e = g.constant(Tensor::ones(3, 4));
        let r = g.constant(Tensor::ones(4, 4));
        let out = rgcn.forward(&mut g, &store, e, r, &snap);
        // Self-loop only: rrelu(e @ W0).
        let expected = {
            let mut t = Tensor::ones(3, 4).matmul(store.value("e.l0.wself"));
            t.map_inplace(rrelu_eval);
            t
        };
        assert!(g.value(out).max_abs_diff(&expected) < 1e-6);
    }
}
