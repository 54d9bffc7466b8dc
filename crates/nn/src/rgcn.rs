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
//! Per-edge-type weights come in two flavors (the [`WeightMode`] ablation of
//! `benches/rgcn.rs`): independent matrices per type, or the basis
//! decomposition of Schlichtkrull et al. (`W_r = Σ_b a_{rb} V_b`), which is
//! what large relation vocabularies need.
//!
//! Both layers aggregate through a per-forward `SlotPlan`: messages are
//! summed per (edge type, destination) slot with [`Graph::segment_sum`]
//! before any weight is applied, so a `[d, d]` weight multiplies one row per
//! slot (or per destination, for bases) instead of one row per edge.

use std::rc::Rc;

use retia_analyze::value::AbsId;
use retia_analyze::AuditCtx;
use retia_graph::{HyperSnapshot, Snapshot, NUM_HYPERRELS_WITH_INV};
use retia_tensor::{Graph, NodeId, ParamStore, Segments};

/// How per-edge-type transforms are parameterized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightMode {
    /// One independent `[d, d]` matrix per edge type.
    PerRelation,
    /// Basis decomposition with the given number of bases.
    Basis(usize),
}

/// The aggregation plan of one edge set, built once per forward pass and
/// shared by every layer. A *slot* is one (edge type, destination) pair.
/// The per-type transform is linear, `Σ_i n_i (h_i + e) W = (Σ_i n_i (h_i +
/// e)) W`, so each slot's degree-normalized messages are summed first and a
/// weight is applied once per slot (`PerRelation`) or once per destination
/// (`Basis`), never once per edge.
#[derive(Clone, Debug)]
struct SlotPlan {
    /// Lengths of the (src, type, dst, norm) edge arrays the plan was cut
    /// from; the audit twin reports them unless they agree.
    edge_lens: [usize; 4],
    /// Slot rows from `norm · h_src` over each slot's edges.
    src_sum: Rc<Segments>,
    /// Slot rows from `norm · e_type` over each slot's edges.
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
/// transpose of a gather. Nodes out of range are left out; the audit twin's
/// `edge_dst` check reports them.
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
    /// their array order. Arrays of unequal length are cut to the shortest
    /// (the audit twin's `edge_arrays` check reports the mismatch).
    fn new(src: &[u32], etype: &[u32], dst: &[u32], norm: &[f32], num_nodes: usize) -> Self {
        let edge_lens = [src.len(), etype.len(), dst.len(), norm.len()];
        let n = edge_lens.into_iter().min().unwrap_or(0);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (etype[i], dst[i]));
        let slots: Vec<&[usize]> =
            order.chunk_by(|&a, &b| (etype[a], dst[a]) == (etype[b], dst[b])).collect();

        let (mut offsets, mut end) = (vec![0usize], 0);
        for slot in &slots {
            end += slot.len();
            offsets.push(end);
        }
        let in_order = |ids: &[u32]| order.iter().map(|&i| ids[i]).collect::<Vec<u32>>();
        let weights: Vec<f32> = order.iter().map(|&i| norm[i]).collect();
        let slot_type: Vec<u32> = slots.iter().map(|s| etype[s[0]]).collect();
        let slot_dst: Vec<u32> = slots.iter().map(|s| dst[s[0]]).collect();

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
            src_sum: Rc::new(Segments::new(offsets.clone(), in_order(src), weights.clone())),
            type_sum: Rc::new(Segments::new(offsets, in_order(etype), weights)),
            slot_type: Rc::new(slot_type),
            types,
            slot_to_dest: place(&dest_row, dests.len()),
            dest_to_node: place(&dests, num_nodes),
            dests,
        }
    }

    /// The plan of an entity snapshot's (augmented) edges (Eq. 4).
    fn entity(snap: &Snapshot) -> Self {
        Self::new(&snap.src, &snap.rel, &snap.dst, &snap.edge_norm, snap.num_entities)
    }

    /// The plan of a hyperrelation subgraph's edges (Eq. 1).
    fn relation(hyper: &HyperSnapshot) -> Self {
        Self::new(&hyper.src, &hyper.hrel, &hyper.dst, &hyper.edge_norm, hyper.num_rel_nodes)
    }

    fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

/// Shared implementation over (src, etype, dst, norm) edge arrays.
#[derive(Clone, Debug)]
struct RgcnCore {
    prefix: String,
    dim: usize,
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
        RgcnCore { prefix: prefix.to_string(), dim, num_edge_types, mode, num_layers, dropout }
    }

    /// One layer: `h_nodes` `[n, d]`, `edge_emb` `[num_edge_types, d]`
    /// (relation or hyperrelation embeddings added into messages).
    fn layer(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        layer: usize,
        h_nodes: NodeId,
        edge_emb: NodeId,
        plan: &SlotPlan,
    ) -> NodeId {
        let w0 = g.param(store, &format!("{}.l{layer}.wself", self.prefix));
        let mut out = g.matmul(h_nodes, w0);
        if !plan.is_empty() {
            // Σ norm·(h_src + edge_emb) per (type, destination) slot.
            let h_sum = g.segment_sum(h_nodes, plan.src_sum.clone());
            let e_sum = g.segment_sum(edge_emb, plan.type_sum.clone());
            let msg = g.add(h_sum, e_sum);
            let transformed = match self.mode {
                WeightMode::Basis(nb) => {
                    // W_r = Σ_b a_rb V_b: scale slots by their type's
                    // coefficient, sum them per destination, then apply
                    // each basis once per destination.
                    let coef = g.param(store, &format!("{}.l{layer}.coef", self.prefix));
                    let slot_coef = g.gather_rows(coef, plan.slot_type.clone());
                    let mut acc: Option<NodeId> = None;
                    for b in 0..nb {
                        let cb = g.slice_cols(slot_coef, b, b + 1);
                        let scaled = g.mul_col(msg, cb);
                        let per_dest = g.segment_sum(scaled, plan.slot_to_dest.clone());
                        let vb = g.param(store, &format!("{}.l{layer}.basis{b}", self.prefix));
                        let y = g.matmul(per_dest, vb);
                        acc = Some(match acc {
                            Some(a) => g.add(a, y),
                            None => y,
                        });
                    }
                    let t = acc.expect("at least one basis");
                    g.segment_sum(t, plan.dest_to_node.clone())
                }
                WeightMode::PerRelation => {
                    let mut acc: Option<NodeId> = None;
                    for ts in &plan.types {
                        let rows = g.gather_rows(msg, ts.rows.clone());
                        let wr = g.param(store, &format!("{}.l{layer}.w{}", self.prefix, ts.ty));
                        let t = g.matmul(rows, wr);
                        let part = g.segment_sum(t, ts.to_node.clone());
                        acc = Some(match acc {
                            Some(x) => g.add(x, part),
                            None => part,
                        });
                    }
                    acc.expect("a non-empty plan has at least one edge type")
                }
            };
            out = g.add(out, transformed);
        }
        let activated = g.rrelu(out);
        g.dropout(activated, self.dropout)
    }

    /// The edge-set preconditions the real forward relies on, checked once
    /// per replay: equal-length edge arrays, edge types with a registered
    /// weight, and destinations inside the `num_nodes` node table.
    fn audit_edges(&self, ctx: &mut AuditCtx, plan: &SlotPlan, num_nodes: usize) {
        let lens = plan.edge_lens;
        ctx.check("edge_arrays", lens.iter().all(|&l| l == lens[0]), || {
            format!("edge arrays (src, type, dst, norm) have unequal lengths {lens:?}")
        });
        let top = plan.types.last().map_or(0, |ts| ts.ty);
        ctx.check("edge_type_id", plan.is_empty() || top < self.num_edge_types, || {
            format!("edge type {top} has no registered weight (only {} types)", self.num_edge_types)
        });
        let top_dst = plan.dests.last().map_or(0, |&d| d as usize);
        ctx.check("edge_dst", plan.is_empty() || top_dst < num_nodes, || {
            format!("edge destination {top_dst} out of range for {num_nodes} nodes")
        });
    }

    /// Value-domain replay of [`RgcnCore::layer`], declaring every layer
    /// parameter the real graph would touch for this plan. In
    /// `PerRelation` mode, `w{r}` for an edge type with no edge in this
    /// window is *not* declared — mirroring the real graph, which never
    /// creates that param node; the model-level audit declares such params
    /// frozen with a "type absent from the audit window" reason.
    fn audit_layer(
        &self,
        ctx: &mut AuditCtx,
        layer: usize,
        h_nodes: AbsId,
        edge_emb: AbsId,
        plan: &SlotPlan,
    ) -> AbsId {
        let scope = format!("layer {layer}");
        ctx.scoped(&scope, None, |ctx| {
            let w0 = ctx.param(&format!("{}.l{layer}.wself", self.prefix), self.dim, self.dim);
            let mut out = ctx.matmul(h_nodes, w0);
            if !plan.is_empty() {
                // Slot sums are bounded by the plan's measured norm mass.
                let h_sum = ctx.segment_sum(h_nodes, &plan.src_sum);
                let e_sum = ctx.segment_sum(edge_emb, &plan.type_sum);
                let msg = ctx.add(h_sum, e_sum);
                let transformed = match self.mode {
                    WeightMode::Basis(nb) => {
                        let coef = ctx.param(
                            &format!("{}.l{layer}.coef", self.prefix),
                            self.num_edge_types,
                            nb,
                        );
                        let slot_coef = ctx.gather_rows(coef, &plan.slot_type);
                        let mut acc: Option<AbsId> = None;
                        for b in 0..nb {
                            let cb = ctx.slice_cols(slot_coef, b, b + 1);
                            let scaled = ctx.mul_col(msg, cb);
                            let per_dest = ctx.segment_sum(scaled, &plan.slot_to_dest);
                            let vb = ctx.param(
                                &format!("{}.l{layer}.basis{b}", self.prefix),
                                self.dim,
                                self.dim,
                            );
                            let y = ctx.matmul(per_dest, vb);
                            acc = Some(match acc {
                                Some(a) => ctx.add(a, y),
                                None => y,
                            });
                        }
                        let t = acc.unwrap_or(msg);
                        ctx.segment_sum(t, &plan.dest_to_node)
                    }
                    WeightMode::PerRelation => {
                        let mut acc: Option<AbsId> = None;
                        for ts in &plan.types {
                            let rows = ctx.gather_rows(msg, &ts.rows);
                            let wr = ctx.param(
                                &format!("{}.l{layer}.w{}", self.prefix, ts.ty),
                                self.dim,
                                self.dim,
                            );
                            let t = ctx.matmul(rows, wr);
                            let part = ctx.segment_sum(t, &ts.to_node);
                            acc = Some(match acc {
                                Some(x) => ctx.add(x, part),
                                None => part,
                            });
                        }
                        acc.expect("a non-empty plan has at least one edge type")
                    }
                };
                out = ctx.add(out, transformed);
            }
            let activated = ctx.rrelu(out);
            ctx.dropout(activated, f64::from(self.dropout))
        })
    }
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
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        entities: NodeId,
        relations: NodeId,
        snap: &Snapshot,
    ) -> NodeId {
        let _m = retia_obs::module_scope("EntityRgcn");
        assert_eq!(g.value(entities).rows(), snap.num_entities, "entity count mismatch");
        assert_eq!(g.value(relations).rows(), 2 * snap.num_relations, "relation count mismatch");
        let plan = SlotPlan::entity(snap);
        let mut h = entities;
        for l in 0..self.core.num_layers {
            h = self.core.layer(g, store, l, h, relations, &plan);
        }
        h
    }

    /// Value-domain replay of [`EntityRgcn::forward`] over `snap`'s real
    /// edge arrays, declaring the layer weights the real graph would touch.
    pub fn audit(
        &self,
        ctx: &mut AuditCtx,
        entities: AbsId,
        relations: AbsId,
        snap: &Snapshot,
    ) -> AbsId {
        ctx.scoped("EntityRgcn", None, |ctx| {
            let (n, m2) = (ctx.shape(entities).0, ctx.shape(relations).0);
            ctx.check("entity_count", n == snap.num_entities, || {
                format!("{n} entity embedding rows, snapshot has {} entities", snap.num_entities)
            });
            ctx.check("relation_count", m2 == 2 * snap.num_relations, || {
                format!(
                    "{m2} relation embedding rows, expected {} (2M with inverses)",
                    2 * snap.num_relations
                )
            });
            let plan = SlotPlan::entity(snap);
            self.core.audit_edges(ctx, &plan, snap.num_entities);
            let mut h = entities;
            for l in 0..self.core.num_layers {
                h = self.core.audit_layer(ctx, l, h, relations, &plan);
            }
            h
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
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        relations: NodeId,
        hyperrelations: NodeId,
        hyper: &HyperSnapshot,
    ) -> NodeId {
        let _m = retia_obs::module_scope("RelationRgcn");
        assert_eq!(g.value(relations).rows(), hyper.num_rel_nodes, "relation node count mismatch");
        assert_eq!(
            g.value(hyperrelations).rows(),
            NUM_HYPERRELS_WITH_INV,
            "hyperrelation embedding count mismatch"
        );
        let plan = SlotPlan::relation(hyper);
        let mut h = relations;
        for l in 0..self.core.num_layers {
            h = self.core.layer(g, store, l, h, hyperrelations, &plan);
        }
        h
    }

    /// Value-domain replay of [`RelationRgcn::forward`] over `hyper`'s real
    /// edge arrays.
    pub fn audit(
        &self,
        ctx: &mut AuditCtx,
        relations: AbsId,
        hyperrelations: AbsId,
        hyper: &HyperSnapshot,
    ) -> AbsId {
        ctx.scoped("RelationRgcn", None, |ctx| {
            let (m2, h2) = (ctx.shape(relations).0, ctx.shape(hyperrelations).0);
            ctx.check("relation_node_count", m2 == hyper.num_rel_nodes, || {
                format!(
                    "{m2} relation embedding rows, hypergraph has {} relation nodes",
                    hyper.num_rel_nodes
                )
            });
            ctx.check("hyperrelation_count", h2 == NUM_HYPERRELS_WITH_INV, || {
                format!("{h2} hyperrelation embedding rows, expected {NUM_HYPERRELS_WITH_INV}")
            });
            let plan = SlotPlan::relation(hyper);
            self.core.audit_edges(ctx, &plan, hyper.num_rel_nodes);
            let mut h = relations;
            for l in 0..self.core.num_layers {
                h = self.core.audit_layer(ctx, l, h, hyperrelations, &plan);
            }
            h
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia_graph::Quad;
    use retia_tensor::{Tensor, RRELU_EVAL_SLOPE};

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
    /// `rrelu(W_0 h_o + Σ_(s,r,o) norm · (h_s + e_r) W_r)`.
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
        norm: &[f32],
    ) -> Tensor {
        let d = h.cols();
        let mut expected = h.matmul(store.value(&format!("{prefix}.l0.wself")));
        for i in 0..src.len() {
            let (s, r, o) = (src[i] as usize, etype[i] as usize, dst[i] as usize);
            let msg: Vec<f32> = h.row(s).iter().zip(e.row(r)).map(|(&a, &b)| a + b).collect();
            let msg = Tensor::from_vec(1, d, msg).scale(norm[i]);
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
        assert!(shared(&snap.rel, &snap.dst), "no two entity edges share a slot");
        assert!(shared(&hyper.hrel, &hyper.dst), "no two hyperedges share a slot");
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
                    let (s, t, o, n) = (&snap.src, &snap.rel, &snap.dst, &snap.edge_norm);
                    (g.value(out).clone(), naive_layer(&store, "e", mode, &ent, &rel, s, t, o, n))
                } else {
                    let rgcn = RelationRgcn::new(&mut store, "r", d, mode, 1, 0.0);
                    let (r, h) = (g.constant(rel.clone()), g.constant(hr.clone()));
                    let out = rgcn.forward(&mut g, &store, r, h, &hyper);
                    let (s, t, o, n) = (&hyper.src, &hyper.hrel, &hyper.dst, &hyper.edge_norm);
                    (g.value(out).clone(), naive_layer(&store, "r", mode, &rel, &hr, s, t, o, n))
                };
                let diff = got.max_abs_diff(&want);
                assert!(diff < 1e-5, "entity={entity} {mode:?}: diff {diff}");
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
