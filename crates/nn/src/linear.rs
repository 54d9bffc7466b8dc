//! Affine projection.

use retia_tensor::{Ops, ParamStore};

use crate::check_width;

/// `y = x @ W + b` with Xavier-initialized `W` and zero `b`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: String,
    b: String,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers `prefix.w` (`[in_dim, out_dim]`) and `prefix.b`
    /// (`[1, out_dim]`) in `store`.
    pub fn new(store: &mut ParamStore, prefix: &str, in_dim: usize, out_dim: usize) -> Self {
        let w = format!("{prefix}.w");
        let b = format!("{prefix}.b");
        store.register_xavier(&w, in_dim, out_dim);
        store.register_zeros(&b, 1, out_dim);
        Linear { w, b, in_dim, out_dim }
    }

    /// Applies the projection to `x` (`[n, in_dim] -> [n, out_dim]`).
    pub fn forward<O: Ops>(&self, g: &mut O, store: &ParamStore, x: O::Id) -> O::Id {
        g.scoped("Linear", None, |g| {
            check_width(g, "input_width", "Linear input", x, self.in_dim);
            let w = g.param(store, &self.w);
            let b = g.param(store, &self.b);
            let y = g.matmul(x, w);
            g.add_bias(y, b)
        })
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia_tensor::{optim::Adam, Graph, Tensor};

    #[test]
    fn forward_shape() {
        let mut store = ParamStore::new(0);
        let lin = Linear::new(&mut store, "l", 3, 5);
        let mut g = Graph::new(false, 0);
        let x = g.constant(Tensor::ones(2, 3));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (2, 5));
        assert_eq!(lin.out_dim(), 5);
    }

    #[test]
    fn fits_affine_function() {
        let mut store = ParamStore::new(3);
        let lin = Linear::new(&mut store, "l", 2, 1);
        let mut adam = Adam::new(0.05);
        // Target: y = 2*x0 - x1 + 0.5.
        let xs = Tensor::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let ys = Tensor::from_vec(4, 1, vec![0.5, 2.5, -0.5, 1.5]);
        let mut last = f32::MAX;
        for _ in 0..500 {
            let mut g = Graph::new(true, 0);
            let x = g.constant(xs.clone());
            let y = g.constant(ys.clone());
            let pred = lin.forward(&mut g, &store, x);
            let d = g.sub(pred, y);
            let sq = g.mul(d, d);
            let loss = g.mean_all(sq);
            last = g.value(loss).item();
            g.backward(loss, &mut store);
            adam.step(&mut store);
            store.zero_grad();
        }
        assert!(last < 1e-3, "loss {last}");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_input_width() {
        let mut store = ParamStore::new(0);
        let lin = Linear::new(&mut store, "l", 3, 5);
        let mut g = Graph::new(false, 0);
        let x = g.constant(Tensor::ones(2, 4));
        lin.forward(&mut g, &store, x);
    }
}
