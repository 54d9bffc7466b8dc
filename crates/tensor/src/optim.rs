//! First-order optimizers operating on a [`ParamStore`].

use crate::param::ParamStore;

/// Adam's first-moment decay.
const BETA1: f32 = 0.9;
/// Adam's second-moment decay.
const BETA2: f32 = 0.999;
/// Adam's numerical stabilizer.
const EPS: f32 = 1e-8;

/// Adam optimizer (Kingma & Ba, 2015) — the optimizer the RETIA paper uses
/// (`lr = 0.001` for both general and online continual training), with the
/// standard `(0.9, 0.999, 1e-8)` hyperparameters.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate (the trainer's rollback backoff lowers it).
    pub lr: f32,
    t: u64,
}

impl Adam {
    /// Adam at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Adam { lr, t: 0 }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Restores the step counter (bias-correction schedule) from a
    /// checkpoint so a resumed run continues the exact update sequence.
    pub fn set_steps(&mut self, t: u64) {
        self.t = t;
    }

    /// Applies one update using the gradients currently accumulated in the
    /// store. Does not zero the gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for p in store.params_mut() {
            // Copies the value buffer only while a live graph or a cloned
            // store still shares it; makes absent state buffers (zeros).
            let (value, grad, pm, pv) = p.step_state();
            for (i, &g) in grad.iter().enumerate() {
                let m = BETA1 * pm[i] + (1.0 - BETA1) * g;
                let v = BETA2 * pv[i] + (1.0 - BETA2) * g * g;
                pm[i] = m;
                pv[i] = v;
                let m_hat = m / bc1;
                let v_hat = v / bc2;
                value[i] -= self.lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
    }
}

/// Rescales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm. This is the standard recurrent-network
/// stabilizer (RETIA's reference implementation clips at 1.0).
pub fn clip_grad_norm(store: &mut ParamStore, max_norm: f32) -> f32 {
    let norm = store.grad_norm();
    if norm > max_norm && norm > 0.0 {
        store.scale_grads(max_norm / norm);
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, Tensor};

    fn quadratic_loss(store: &mut ParamStore) -> f32 {
        // loss = sum((w - 3)^2)
        let mut g = Graph::new(false, 0);
        let w = g.param(store, "w");
        let t = g.add_scalar(w, -3.0);
        let sq = g.mul(t, t);
        let loss = g.sum_all(sq);
        let v = g.value(loss).item();
        g.backward(loss, store);
        v
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new(0);
        store.register("w", Tensor::from_vec(1, 3, vec![10.0, -5.0, 0.0]));
        let mut adam = Adam::new(0.3);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            last = quadratic_loss(&mut store);
            adam.step(&mut store);
            store.zero_grad();
        }
        assert!(last < 1e-3, "loss {last}");
        for &w in store.value("w").data() {
            assert!((w - 3.0).abs() < 0.05);
        }
    }

    #[test]
    fn clip_grad_norm_rescales() {
        let mut store = ParamStore::new(0);
        let id = store.register("w", Tensor::zeros(1, 2));
        store.accumulate_grad(id, &Tensor::from_vec(1, 2, vec![3.0, 4.0]));
        let pre = clip_grad_norm(&mut store, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
        // Clipping below the threshold is a no-op.
        let pre2 = clip_grad_norm(&mut store, 10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }
}
