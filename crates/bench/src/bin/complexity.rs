//! Validates the paper's §III-G computational-complexity analysis:
//!
//! * hyperrelation subgraph construction is `O(V)` in the facts per
//!   timestamp at bounded entity degree (Algorithm 1 via sparse joins,
//!   whose candidate pairs grow with the square of each entity's degree);
//! * relation aggregation is `O(M)`-dominated, entity aggregation `O(N)`;
//! * mean pooling is `O(MP)`; the LSTM is `O(d²)`.
//!
//! For each axis the binary doubles the driving size and reports the
//! measured time ratio, with the asymptotic expectation stated per axis in
//! the output (small sizes damp the quadratic terms; the RAM axis stays
//! super-linear through its O(E d) aggregation, because the hyperedge count
//! itself grows with co-occurrence).

use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use retia_bench::report::Report;
use retia_graph::{HyperSnapshot, Quad, Snapshot};
use retia_nn::{mean_pool_segments, EntityRgcn, LstmCell, RelationRgcn, WeightMode};
use retia_tensor::{Graph, ParamStore, Tensor};

fn random_snapshot(n: usize, m: usize, facts: usize, seed: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let quads: Vec<Quad> = (0..facts)
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

fn time_it(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let mut rep = Report::new("Complexity validation (paper §III-G)");
    rep.line("Each axis doubles its driving size; reported is time(2x)/time(1x).");
    rep.line("Interpretation per axis:");
    rep.line("  * Algorithm 1 vs V        — one sort of packed forward candidate keys,");
    rep.line("    O(C log C) in the candidates C = sum over entities e of (|S_e| + |O_e|)^2.");
    rep.line("    Here N stays at 400, so doubling V doubles every entity's relation lists");
    rep.line("    and C grows up to 4x: the ratio reads 3-4. With N doubling alongside V");
    rep.line("    (per-entity degree fixed) the same build reads ~2.1, linear up to the log.");
    rep.line("  * EAM vs N, fixed edges   — between 1 and 2: only the O(N d^2) self-loop");
    rep.line("    doubles; the message term is edge-bound. On a shared 2-vCPU host the");
    rep.line("    ratio reads 1.2-1.3 and run-to-run noise can take it just under 1.");
    rep.line("  * RAM vs M, fixed facts   — the weight transform is O(H M d^2): one row per");
    rep.line("    (hyperrelation, destination) slot, at most 2H x 2M. The super-linear rest");
    rep.line("    is the O(E d) slot-sum aggregation, the hyperedge count E growing with");
    rep.line("    relation co-occurrence (why the paper bounds it by M x max-degree P').");
    rep.line("  * Mean pooling vs P       — linear in gathered rows (plus fixed overhead).");
    rep.line("  * LSTM vs d               — O(d^2) asymptotically; at small d the graph");
    rep.line("    overhead damps the ratio below 4.");
    rep.blank();

    // O(V): hypergraph construction vs facts per snapshot.
    {
        let s1 = random_snapshot(400, 24, 400, 1);
        let s2 = random_snapshot(400, 24, 800, 2);
        let t1 = time_it(20, || {
            let _ = HyperSnapshot::from_snapshot(&s1);
        });
        let t2 = time_it(20, || {
            let _ = HyperSnapshot::from_snapshot(&s2);
        });
        rep.line(&format!(
            "Algorithm 1 vs V (400 -> 800 facts):      ratio {:.2}  ({:.3} ms -> {:.3} ms)",
            t2 / t1,
            t1 * 1e3,
            t2 * 1e3
        ));
    }

    // O(N): entity aggregation vs entity count (facts fixed).
    {
        let d = 32;
        let run = |n: usize| {
            let snap = random_snapshot(n, 16, 600, 3);
            let mut store = ParamStore::new(0);
            store.register_xavier("e", n, d);
            store.register_xavier("r", 32, d);
            let rgcn = EntityRgcn::new(&mut store, "g", d, 32, WeightMode::Basis(4), 2, 0.0);
            time_it(10, || {
                let mut g = Graph::new(false, 0);
                let e = g.param(&store, "e");
                let r = g.param(&store, "r");
                let _ = rgcn.forward(&mut g, &store, e, r, &snap);
            })
        };
        let (t1, t2) = (run(400), run(800));
        rep.line(&format!(
            "EAM aggregation vs N (400 -> 800):        ratio {:.2}  ({:.3} ms -> {:.3} ms)",
            t2 / t1,
            t1 * 1e3,
            t2 * 1e3
        ));
    }

    // O(M): relation aggregation vs relation count (hyperedges scaled with M).
    {
        let d = 32;
        let run = |m: usize| {
            let snap = random_snapshot(300, m, 900, 4);
            let hyper = HyperSnapshot::from_snapshot(&snap);
            let mut store = ParamStore::new(0);
            store.register_xavier("r", 2 * m, d);
            store.register_xavier("h", 8, d);
            let rgcn = RelationRgcn::new(&mut store, "g", d, WeightMode::PerRelation, 2, 0.0);
            time_it(10, || {
                let mut g = Graph::new(false, 0);
                let r = g.param(&store, "r");
                let h = g.param(&store, "h");
                let _ = rgcn.forward(&mut g, &store, r, h, &hyper);
            })
        };
        let (t1, t2) = (run(12), run(24));
        rep.line(&format!(
            "RAM aggregation vs M (12 -> 24):          ratio {:.2}  ({:.3} ms -> {:.3} ms)",
            t2 / t1,
            t1 * 1e3,
            t2 * 1e3
        ));
    }

    // O(MP): mean pooling vs adjacency size.
    {
        let d = 32;
        let run = |p: usize| {
            let mut rng = StdRng::seed_from_u64(5);
            let segments: Vec<Vec<u32>> =
                (0..48).map(|_| (0..p).map(|_| rng.gen_range(0..500u32)).collect()).collect();
            let x = Tensor::ones(500, d);
            time_it(20, || {
                let mut g = Graph::new(false, 0);
                let xn = g.constant(x.clone());
                let _ = mean_pool_segments(&mut g, xn, &segments);
            })
        };
        let (t1, t2) = (run(20), run(40));
        rep.line(&format!(
            "Mean pooling vs P (20 -> 40 per segment): ratio {:.2}  ({:.3} ms -> {:.3} ms)",
            t2 / t1,
            t1 * 1e3,
            t2 * 1e3
        ));
    }

    // O(d^2): LSTM step vs embedding width.
    {
        let run = |d: usize| {
            let mut store = ParamStore::new(0);
            let cell = LstmCell::new(&mut store, "l", 2 * d, d);
            let x = Tensor::ones(64, 2 * d);
            let h = Tensor::zeros(64, d);
            time_it(20, || {
                let mut g = Graph::new(false, 0);
                let xn = g.constant(x.clone());
                let hn = g.constant(h.clone());
                let cn = g.constant(h.clone());
                let _ = cell.forward(&mut g, &store, xn, hn, cn);
            })
        };
        let (t1, t2) = (run(32), run(64));
        rep.line(&format!(
            "LSTM step vs d (32 -> 64):                ratio {:.2}  ({:.3} ms -> {:.3} ms)",
            t2 / t1,
            t1 * 1e3,
            t2 * 1e3
        ));
    }

    rep.blank();
    rep.line("Paper total: O(k(M + N + MP + HP' + d^2) + V). The RAM applies each");
    rep.line("hyperrelation weight once per (type, destination) slot, so its transform");
    rep.line("is bounded by 2H x 2M rows whatever the hyperedge count; only its O(E d)");
    rep.line("slot sums still grow with relation co-occurrence.");
    rep.finish("complexity");
}
