//! Substrate microbench: hyperrelation subgraph construction (Algorithm 1).
//!
//! DESIGN.md §4 ablation: the sparse per-entity join (packed candidate keys,
//! one sort + dedup) versus the paper's literal dense boolean incidence
//! products (`RO×RS` etc.), which are `O(M² · N)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use retia_graph::{HyperSnapshot, Quad, Snapshot};
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

/// The dense boolean-product construction, as literally written in
/// Algorithm 1 (reference implementation, quadratic in relations).
#[allow(clippy::needless_range_loop)]
fn dense_construction(snapshot: &Snapshot) -> usize {
    let m2 = 2 * snapshot.num_relations;
    let n = snapshot.num_entities;
    let mut ro = vec![vec![false; n]; m2];
    let mut rs = vec![vec![false; n]; m2];
    for i in 0..snapshot.num_edges() {
        rs[snapshot.rel[i] as usize][snapshot.src[i] as usize] = true;
        ro[snapshot.rel[i] as usize][snapshot.dst[i] as usize] = true;
    }
    let mut count = 0usize;
    let product = |a: &Vec<Vec<bool>>, b: &Vec<Vec<bool>>, zero_diag: bool, count: &mut usize| {
        for r1 in 0..m2 {
            for r2 in 0..m2 {
                if zero_diag && r1 == r2 {
                    continue;
                }
                if (0..n).any(|e| a[r1][e] && b[r2][e]) {
                    *count += 1;
                }
            }
        }
    };
    product(&ro, &rs, false, &mut count);
    product(&rs, &ro, false, &mut count);
    product(&ro, &ro, true, &mut count);
    product(&rs, &rs, true, &mut count);
    count
}

fn bench_hypergraph(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypergraph_construction");
    for &(n, m, edges) in &[(100usize, 12usize, 200usize), (300, 24, 600)] {
        let snap = random_snapshot(n, m, edges, 7);
        group.bench_with_input(
            BenchmarkId::new("sparse_sorted_join", format!("n{n}_m{m}_e{edges}")),
            &snap,
            |b, s| b.iter(|| black_box(HyperSnapshot::from_snapshot(s).num_edges())),
        );
        group.bench_with_input(
            BenchmarkId::new("dense_boolean_product", format!("n{n}_m{m}_e{edges}")),
            &snap,
            |b, s| b.iter(|| black_box(dense_construction(s))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_hypergraph);
criterion_main!(benches);
