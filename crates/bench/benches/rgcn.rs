//! Substrate microbench: R-GCN weight modes (DESIGN.md §4 ablation).
//!
//! Per-relation weight matrices multiply each relation's (relation,
//! destination) slot sums as a separate small matmul; basis decomposition
//! runs a few dense matmuls over every distinct destination. The crossover
//! governs which mode the EAM should use as the relation vocabulary grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use retia_graph::{Quad, Snapshot};
use retia_nn::{EntityRgcn, WeightMode};
use retia_tensor::{Graph, ParamStore, Segments, Tensor};
use std::hint::black_box;

fn random_snapshot(n: usize, m: usize, edges: usize, seed: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let quads: Vec<Quad> = (0..edges)
        .map(|_| {
            Quad::new(
                rng.gen_range(0..n as u32),
                rng.gen_range(0..m as u32),
                rng.gen_range(0..n as u32),
                0,
            )
        })
        .collect();
    Snapshot::from_quads(&quads, n, m)
}

fn bench_rgcn(c: &mut Criterion) {
    let mut group = c.benchmark_group("rgcn_weight_mode");
    let (n, m, d) = (300usize, 24usize, 32usize);
    let snap = random_snapshot(n, m, 600, 1);

    for (label, mode) in
        [("per_relation", WeightMode::PerRelation), ("basis4", WeightMode::Basis(4))]
    {
        let mut store = ParamStore::new(0);
        store.register_xavier("ent", n, d);
        store.register_xavier("rel", 2 * m, d);
        let rgcn = EntityRgcn::new(&mut store, "g", d, 2 * m, mode, 2, 0.0);
        group.bench_with_input(BenchmarkId::new(label, "fwd_bwd"), &0, |b, _| {
            b.iter(|| {
                let mut g = Graph::new(false, 0);
                let e = g.param(&store, "ent");
                let r = g.param(&store, "rel");
                let out = rgcn.forward(&mut g, &store, e, r, &snap);
                let sq = g.mul(out, out);
                let loss = g.mean_all(sq);
                g.backward(loss, &mut store);
                store.zero_grad();
                black_box(g.num_nodes())
            })
        });
    }

    // Segment-sum vs naive per-edge messaging (the DESIGN.md ablation).
    let mut store = ParamStore::new(0);
    store.register_xavier("ent", n, d);
    store.register_xavier("rel", 2 * m, d);
    group.bench_function("naive_per_edge_forward", |b| {
        let ent = store.value("ent").clone();
        let rel = store.value("rel").clone();
        b.iter(|| {
            let mut out = Tensor::zeros(n, d);
            for i in 0..snap.num_edges() {
                let (s, r, o) = (snap.src[i] as usize, snap.rel[i] as usize, snap.dst[i] as usize);
                let w = snap.edge_norm[i];
                for k in 0..d {
                    let v = out.get(o, k) + w * (ent.get(s, k) + rel.get(r, k));
                    out.set(o, k, v);
                }
            }
            black_box(out)
        })
    });
    group.bench_function("segment_sum_forward", |b| {
        let ent = store.value("ent").clone();
        let rel = store.value("rel").clone();
        // One CSR row per destination over its in-edges, weighted by norm.
        let mut order: Vec<usize> = (0..snap.num_edges()).collect();
        order.sort_by_key(|&i| snap.dst[i]);
        let mut offsets = vec![0usize; n + 1];
        for &i in &order {
            offsets[snap.dst[i] as usize + 1] += 1;
        }
        for o in 0..n {
            offsets[o + 1] += offsets[o];
        }
        let norm: Vec<f32> = order.iter().map(|&i| snap.edge_norm[i]).collect();
        let col = |ids: &[u32]| order.iter().map(|&i| ids[i]).collect::<Vec<u32>>();
        let by_src = Segments::new(offsets.clone(), col(&snap.src), norm.clone());
        let by_rel = Segments::new(offsets, col(&snap.rel), norm);
        b.iter(|| black_box(ent.segment_sum(&by_src).add(&rel.segment_sum(&by_rel))))
    });
    group.finish();
}

criterion_group!(benches, bench_rgcn);
criterion_main!(benches);
