//! Property-based gradient checks: random chains of differentiable ops are
//! validated against central finite differences. This complements the
//! per-op checks in `autodiff::tests` by exercising op *compositions* the
//! model actually builds.

use proptest::prelude::*;
use retia_tensor::{Graph, NodeId, ParamStore, Segments, Tensor};
use std::rc::Rc;

/// The smooth unary ops eligible for random chaining (ReLU-family excluded:
/// finite differences are unreliable at kinks).
#[derive(Clone, Copy, Debug)]
enum UnaryOp {
    Sigmoid,
    Tanh,
    Sin,
    Cos,
    Scale,
    AddScalar,
    SoftmaxRows,
    NormalizeRows,
}

fn apply(op: UnaryOp, g: &mut Graph, x: NodeId) -> NodeId {
    match op {
        UnaryOp::Sigmoid => g.sigmoid(x),
        UnaryOp::Tanh => g.tanh(x),
        UnaryOp::Sin => g.sin(x),
        UnaryOp::Cos => g.cos(x),
        UnaryOp::Scale => g.scale(x, 0.7),
        UnaryOp::AddScalar => g.add_scalar(x, -0.3),
        UnaryOp::SoftmaxRows => g.softmax_rows(x),
        UnaryOp::NormalizeRows => g.normalize_rows(x),
    }
}

fn arb_op() -> impl Strategy<Value = UnaryOp> {
    prop_oneof![
        Just(UnaryOp::Sigmoid),
        Just(UnaryOp::Tanh),
        Just(UnaryOp::Sin),
        Just(UnaryOp::Cos),
        Just(UnaryOp::Scale),
        Just(UnaryOp::AddScalar),
        Just(UnaryOp::SoftmaxRows),
        Just(UnaryOp::NormalizeRows),
    ]
}

fn run_chain(ops: &[UnaryOp], x0: &Tensor, weights: &Tensor) -> (f32, Tensor) {
    let mut store = ParamStore::new(0);
    store.register("x", x0.clone());
    let mut g = Graph::new(false, 0);
    let mut node = g.param(&store, "x");
    for &op in ops {
        node = apply(op, &mut g, node);
    }
    // Mix with fixed weights so every coordinate matters, then reduce.
    let w = g.constant(weights.clone());
    let mixed = g.mul(node, w);
    let loss = g.sum_all(mixed);
    let v = g.value(loss).item();
    g.backward(loss, &mut store);
    (v, store.grad("x").into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_op_chains_gradcheck(
        ops in prop::collection::vec(arb_op(), 1..5),
        data in prop::collection::vec(0.2f32..1.5, 6),
        wdata in prop::collection::vec(0.5f32..1.0, 6),
    ) {
        let x0 = Tensor::from_vec(2, 3, data);
        let weights = Tensor::from_vec(2, 3, wdata);
        let (_, analytic) = run_chain(&ops, &x0, &weights);

        let h = 1e-3f32;
        for i in 0..2 {
            for j in 0..3 {
                let mut xp = x0.clone();
                xp.set(i, j, x0.get(i, j) + h);
                let (fp, _) = run_chain(&ops, &xp, &weights);
                let mut xm = x0.clone();
                xm.set(i, j, x0.get(i, j) - h);
                let (fm, _) = run_chain(&ops, &xm, &weights);
                let numeric = (fp - fm) / (2.0 * h);
                let a = analytic.get(i, j);
                let scale = a.abs().max(numeric.abs()).max(0.1);
                prop_assert!(
                    (a - numeric).abs() / scale < 0.05,
                    "ops {:?} at ({},{}): analytic {} vs numeric {}",
                    ops, i, j, a, numeric
                );
            }
        }
    }

    #[test]
    fn gather_matmul_chain_gradcheck(
        data in prop::collection::vec(-1.0f32..1.0, 12),
        idx in prop::collection::vec(0u32..4, 5),
    ) {
        let x0 = Tensor::from_vec(4, 3, data);
        let w = Tensor::from_fn(3, 2, |i, j| 0.3 * (i as f32 - j as f32));
        let idx = Rc::new(idx);

        let run = |x0: &Tensor| -> (f32, Tensor) {
            let mut store = ParamStore::new(0);
            store.register("x", x0.clone());
            let mut g = Graph::new(false, 0);
            let x = g.param(&store, "x");
            let gathered = g.gather_rows(x, idx.clone());
            let wn = g.constant(w.clone());
            let y = g.matmul(gathered, wn);
            let t = g.tanh(y);
            let loss = g.sum_all(t);
            let v = g.value(loss).item();
            g.backward(loss, &mut store);
            (v, store.grad("x").into_owned())
        };
        let (_, analytic) = run(&x0);
        let h = 1e-3f32;
        for i in 0..4 {
            for j in 0..3 {
                let mut xp = x0.clone();
                xp.set(i, j, x0.get(i, j) + h);
                let mut xm = x0.clone();
                xm.set(i, j, x0.get(i, j) - h);
                let numeric = (run(&xp).0 - run(&xm).0) / (2.0 * h);
                let a = analytic.get(i, j);
                prop_assert!(
                    (a - numeric).abs() < 0.02,
                    "({},{}) analytic {} numeric {}", i, j, a, numeric
                );
            }
        }
    }

    #[test]
    fn segment_sum_chain_gradcheck(
        data in prop::collection::vec(-1.0f32..1.0, 12),
        cols in prop::collection::vec(0u32..4, 7),
        weights in prop::collection::vec(-1.5f32..1.5, 7),
        cuts in prop::collection::vec(0usize..8, 2),
    ) {
        // Three output rows over seven entries: columns repeat, weights
        // take both signs, and the cut points may leave a row empty.
        let x0 = Tensor::from_vec(4, 3, data);
        let (a, b) = (cuts[0].min(cuts[1]), cuts[0].max(cuts[1]));
        let seg = Rc::new(Segments::new(vec![0, a, b, 7], cols, weights));
        let w = Tensor::from_fn(3, 2, |i, j| 0.4 * (i as f32 - j as f32) + 0.1);

        let run = |x0: &Tensor| -> (f32, Tensor) {
            let mut store = ParamStore::new(0);
            store.register("x", x0.clone());
            let mut g = Graph::new(false, 0);
            let x = g.param(&store, "x");
            let summed = g.segment_sum(x, seg.clone());
            let wn = g.constant(w.clone());
            let y = g.matmul(summed, wn);
            let t = g.tanh(y);
            let loss = g.sum_all(t);
            let v = g.value(loss).item();
            g.backward(loss, &mut store);
            (v, store.grad("x").into_owned())
        };
        let (_, analytic) = run(&x0);
        let h = 1e-3f32;
        for i in 0..4 {
            for j in 0..3 {
                let mut xp = x0.clone();
                xp.set(i, j, x0.get(i, j) + h);
                let mut xm = x0.clone();
                xm.set(i, j, x0.get(i, j) - h);
                let numeric = (run(&xp).0 - run(&xm).0) / (2.0 * h);
                let a = analytic.get(i, j);
                prop_assert!(
                    (a - numeric).abs() < 0.03,
                    "({},{}) analytic {} numeric {}", i, j, a, numeric
                );
            }
        }
    }
}
