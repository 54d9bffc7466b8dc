//! Negative audit tests: every public NN layer, run over an `AuditCtx` with
//! deliberately mismatched dimensions, must produce at least one shape
//! finding whose path names the layer — the guarantee `retia audit` builds
//! on.

use retia_analyze::value::AbsId;
use retia_analyze::{AuditCtx, AuditKind};
use retia_graph::{HyperSnapshot, Quad, Snapshot, NUM_HYPERRELS_WITH_INV};
use retia_nn::{
    mean_pool_segments, ConvTransE, EntityRgcn, GruCell, Linear, LstmCell, RelationRgcn, WeightMode,
};
use retia_tensor::transfer::Interval;
use retia_tensor::ParamStore;

/// A `[rows, cols]` input inside `[-1, 1]`.
fn input(ctx: &mut AuditCtx, rows: usize, cols: usize) -> AbsId {
    ctx.source(rows, cols, Interval::new(-1.0, 1.0))
}

/// Runs `f` in a fresh context and asserts it produced at least one shape
/// finding naming `layer` in its path.
fn expect_finding_naming(layer: &str, f: impl FnOnce(&mut AuditCtx)) {
    let mut ctx = AuditCtx::new();
    f(&mut ctx);
    let report = ctx.finish();
    assert!(
        report.issues.iter().any(|i| i.kind == AuditKind::Shape && i.path.contains(layer)),
        "{layer}: no shape finding names the layer:\n{report}"
    );
}

fn snapshot() -> Snapshot {
    Snapshot::from_quads(&[Quad::new(0, 0, 2, 0), Quad::new(2, 1, 1, 0)], 4, 2)
}

#[test]
fn linear_rejects_wrong_input_width() {
    let mut store = ParamStore::new(0);
    let lin = Linear::new(&mut store, "l", 3, 5);
    expect_finding_naming("Linear", |ctx| {
        let x = input(ctx, 2, 4);
        lin.forward(ctx, &store, x);
    });
}

#[test]
fn gru_rejects_wrong_input_width() {
    let mut store = ParamStore::new(0);
    let gru = GruCell::new(&mut store, "g", 8, 8);
    expect_finding_naming("GruCell", |ctx| {
        let (x, h) = (input(ctx, 4, 7), input(ctx, 4, 8));
        gru.forward(ctx, &store, x, h);
    });
}

#[test]
fn gru_rejects_mismatched_hidden_rows() {
    let mut store = ParamStore::new(0);
    let gru = GruCell::new(&mut store, "g", 8, 8);
    expect_finding_naming("GruCell", |ctx| {
        let (x, h) = (input(ctx, 4, 8), input(ctx, 5, 8));
        gru.forward(ctx, &store, x, h);
    });
}

#[test]
fn lstm_rejects_wrong_input_width() {
    let mut store = ParamStore::new(0);
    let lstm = LstmCell::new(&mut store, "l", 16, 8);
    expect_finding_naming("LstmCell", |ctx| {
        let (x, h, c) = (input(ctx, 4, 8), input(ctx, 4, 8), input(ctx, 4, 8));
        lstm.forward(ctx, &store, x, h, c);
    });
}

#[test]
fn lstm_rejects_mismatched_cell_state() {
    let mut store = ParamStore::new(0);
    let lstm = LstmCell::new(&mut store, "l", 16, 8);
    expect_finding_naming("LstmCell", |ctx| {
        let (x, h, c) = (input(ctx, 4, 16), input(ctx, 4, 8), input(ctx, 4, 9));
        lstm.forward(ctx, &store, x, h, c);
    });
}

#[test]
fn entity_rgcn_rejects_wrong_entity_count() {
    let snap = snapshot();
    let mut store = ParamStore::new(0);
    let rgcn = EntityRgcn::new(&mut store, "eam", 8, 4, WeightMode::Basis(2), 1, 0.0);
    expect_finding_naming("EntityRgcn", |ctx| {
        // 5 entity rows vs the snapshot's 4 entities.
        let (e, r) = (input(ctx, 5, 8), input(ctx, 4, 8));
        rgcn.forward(ctx, &store, e, r, &snap);
    });
}

#[test]
fn entity_rgcn_rejects_wrong_relation_width() {
    let snap = snapshot();
    let mut store = ParamStore::new(0);
    let rgcn = EntityRgcn::new(&mut store, "eam", 8, 4, WeightMode::Basis(2), 1, 0.0);
    expect_finding_naming("EntityRgcn", |ctx| {
        // Relation embeddings narrower than d: the edge-message add breaks.
        let (e, r) = (input(ctx, 4, 8), input(ctx, 4, 6));
        rgcn.forward(ctx, &store, e, r, &snap);
    });
}

#[test]
fn relation_rgcn_rejects_wrong_hyperrel_count() {
    let snap = snapshot();
    let hyper = HyperSnapshot::from_snapshot(&snap);
    let mut store = ParamStore::new(0);
    let rgcn = RelationRgcn::new(&mut store, "ram", 8, WeightMode::PerRelation, 1, 0.0);
    expect_finding_naming("RelationRgcn", |ctx| {
        // 3 hyperrelation rows instead of NUM_HYPERRELS_WITH_INV (8).
        let (r, hr) = (input(ctx, hyper.num_rel_nodes, 8), input(ctx, 3, 8));
        rgcn.forward(ctx, &store, r, hr, &hyper);
    });
}

#[test]
fn conv_transe_rejects_wrong_query_width() {
    let mut store = ParamStore::new(0);
    let dec = ConvTransE::new(&mut store, "dec", 8, 4, 3, 0.0);
    expect_finding_naming("ConvTransE", |ctx| {
        let (a, b, cand) = (input(ctx, 2, 9), input(ctx, 2, 9), input(ctx, 5, 8));
        dec.forward(ctx, &store, a, b, cand);
    });
}

#[test]
fn conv_transe_rejects_mismatched_query_parts() {
    let mut store = ParamStore::new(0);
    let dec = ConvTransE::new(&mut store, "dec", 8, 4, 3, 0.0);
    expect_finding_naming("ConvTransE", |ctx| {
        let (a, b, cand) = (input(ctx, 2, 8), input(ctx, 3, 8), input(ctx, 5, 8));
        dec.forward(ctx, &store, a, b, cand);
    });
}

#[test]
fn mean_pool_rejects_out_of_range_member() {
    expect_finding_naming("mean_pool_segments", |ctx| {
        // Segment member 5 in a 3-row input.
        let x = input(ctx, 3, 4);
        mean_pool_segments(ctx, x, &[vec![0, 5], vec![1]]);
    });
}

#[test]
fn rgcn_rejects_unequal_edge_arrays() {
    let mut snap = snapshot();
    snap.dst.pop();
    let mut store = ParamStore::new(0);
    let rgcn = EntityRgcn::new(&mut store, "eam", 8, 4, WeightMode::PerRelation, 1, 0.0);
    expect_finding_naming("EntityRgcn", |ctx| {
        let (e, r) = (input(ctx, 4, 8), input(ctx, 4, 8));
        rgcn.forward(ctx, &store, e, r, &snap);
    });
}

#[test]
fn valid_layers_pass() {
    let snap = snapshot();
    let hyper = HyperSnapshot::from_snapshot(&snap);
    let mut store = ParamStore::new(0);
    let mut ctx = AuditCtx::new();
    let lin = Linear::new(&mut store, "l", 3, 5);
    let x = input(&mut ctx, 2, 3);
    lin.forward(&mut ctx, &store, x);
    let gru = GruCell::new(&mut store, "g", 8, 8);
    let (x, h) = (input(&mut ctx, 4, 8), input(&mut ctx, 4, 8));
    gru.forward(&mut ctx, &store, x, h);
    let lstm = LstmCell::new(&mut store, "ls", 16, 8);
    let (x, h, c) = (input(&mut ctx, 4, 16), input(&mut ctx, 4, 8), input(&mut ctx, 4, 8));
    lstm.forward(&mut ctx, &store, x, h, c);
    let eam = EntityRgcn::new(&mut store, "eam", 8, 4, WeightMode::Basis(2), 2, 0.0);
    let (e, r) = (input(&mut ctx, 4, 8), input(&mut ctx, 4, 8));
    eam.forward(&mut ctx, &store, e, r, &snap);
    let ram = RelationRgcn::new(&mut store, "ram", 8, WeightMode::PerRelation, 2, 0.0);
    let r = input(&mut ctx, hyper.num_rel_nodes, 8);
    let hr = input(&mut ctx, NUM_HYPERRELS_WITH_INV, 8);
    ram.forward(&mut ctx, &store, r, hr, &hyper);
    let dec = ConvTransE::new(&mut store, "dec", 8, 4, 3, 0.0);
    let (a, b, cand) = (input(&mut ctx, 2, 8), input(&mut ctx, 2, 8), input(&mut ctx, 5, 8));
    dec.forward(&mut ctx, &store, a, b, cand);
    let x = input(&mut ctx, 4, 8);
    mean_pool_segments(&mut ctx, x, &[vec![0, 1], vec![], vec![3]]);
    let report = ctx.finish();
    assert!(report.is_clean(), "valid layers produced findings:\n{report}");
    assert!(report.ops_checked > 30);
}
