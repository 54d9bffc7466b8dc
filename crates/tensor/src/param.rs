//! Named parameter store.
//!
//! Models register their learnable tensors here once; every training step the
//! autodiff [`crate::Graph`] pulls current values out by name and pushes
//! gradients back in, and the optimizer updates values (and its per-parameter
//! moment estimates) in place.
//!
//! Each value lives behind an `Arc`: [`crate::Graph::param`] keeps a handle
//! to the store's buffer instead of a copy, and every write goes through
//! `Arc::make_mut`, which copies only while a graph (or a cloned store)
//! still holds the old buffer. A graph that outlives a store write
//! therefore keeps seeing the value it was built with.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::init;
use crate::tensor::Tensor;

/// Opaque handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

#[derive(Clone, Debug)]
pub(crate) struct Param {
    pub(crate) name: String,
    pub(crate) value: Arc<Tensor>,
    pub(crate) grad: Tensor,
    /// First-moment estimate (Adam).
    pub(crate) m: Tensor,
    /// Second-moment estimate (Adam).
    pub(crate) v: Tensor,
}

/// Collection of named learnable tensors with their gradients and optimizer
/// state. All registration happens up front; training only reads and writes.
#[derive(Clone, Debug)]
pub struct ParamStore {
    by_name: HashMap<String, ParamId>,
    params: Vec<Param>,
    seed: u64,
    next_init: u64,
}

impl ParamStore {
    /// Creates an empty store whose initializers derive from `seed`.
    pub fn new(seed: u64) -> Self {
        ParamStore { by_name: HashMap::new(), params: Vec::new(), seed, next_init: 0 }
    }

    /// Registers a parameter with an explicit initial value.
    ///
    /// # Panics
    /// Panics if a parameter with the same name already exists.
    pub fn register(&mut self, name: &str, value: Tensor) -> ParamId {
        assert!(!self.by_name.contains_key(name), "parameter `{name}` registered twice");
        let (r, c) = value.shape();
        let id = ParamId(self.params.len());
        self.params.push(Param {
            name: name.to_string(),
            value: Arc::new(value),
            grad: Tensor::zeros(r, c),
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Registers a parameter initialized with Xavier/Glorot uniform values.
    pub fn register_xavier(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        let mut rng = self.next_rng();
        let t = init::xavier_uniform(rows, cols, &mut rng);
        self.register(name, t)
    }

    /// Registers a parameter initialized to zeros (typical for biases).
    pub fn register_zeros(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.register(name, Tensor::zeros(rows, cols))
    }

    /// Registers a parameter with normal(0, std) values.
    pub fn register_normal(&mut self, name: &str, rows: usize, cols: usize, std: f32) -> ParamId {
        let mut rng = self.next_rng();
        let t = init::normal(rows, cols, std, &mut rng);
        self.register(name, t)
    }

    fn next_rng(&mut self) -> StdRng {
        let s = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(self.next_init);
        self.next_init += 1;
        StdRng::seed_from_u64(s)
    }

    /// Looks up a parameter id by name.
    ///
    /// # Panics
    /// Panics if no such parameter exists.
    pub fn id(&self, name: &str) -> ParamId {
        assert!(self.by_name.contains_key(name), "unknown parameter `{name}`");
        self.by_name[name]
    }

    /// True if a parameter with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Current value of a parameter by name.
    pub fn value(&self, name: &str) -> &Tensor {
        &self.params[self.id(name).0].value
    }

    /// Current value by id.
    pub fn value_by_id(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// The shared buffer behind a parameter's value: what
    /// [`crate::Graph::param`] holds instead of a copy.
    pub(crate) fn shared_value(&self, id: ParamId) -> Arc<Tensor> {
        Arc::clone(&self.params[id.0].value)
    }

    /// Mutable value by name (used by tests and manual tweaks). Copies the
    /// buffer first if a graph or another store still shares it.
    pub fn value_mut(&mut self, name: &str) -> &mut Tensor {
        let id = self.id(name);
        Arc::make_mut(&mut self.params[id.0].value)
    }

    /// Replaces a parameter's value with `t`, installing it as a fresh
    /// buffer (a shared old buffer is left to its other holders, not copied
    /// just to be overwritten). Used when restoring a checkpoint.
    ///
    /// # Panics
    /// Panics if the parameter does not exist (checkpoint loaders validate
    /// names and shapes first and report a typed error).
    pub(crate) fn set_value(&mut self, name: &str, t: Tensor) {
        let id = self.id(name);
        self.params[id.0].value = Arc::new(t);
    }

    /// Accumulated gradient of a parameter by name.
    pub fn grad(&self, name: &str) -> &Tensor {
        &self.params[self.id(name).0].grad
    }

    /// Adds `g` into the gradient accumulator of `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        self.params[id.0].grad.add_assign(g);
    }

    /// Zeroes all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad.fill_zero();
        }
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn num_tensors(&self) -> usize {
        self.params.len()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Iterates over `(name, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.params.iter().map(|p| (p.name.as_str(), &*p.value))
    }

    /// Iterates over `(name, gradient)` pairs in registration order. Used by
    /// training-health instrumentation (per-parameter norms, NaN scans).
    pub fn iter_grads(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.params.iter().map(|p| (p.name.as_str(), &p.grad))
    }

    /// Mutable access to every gradient accumulator in registration order.
    /// Exists for fault injection (the chaos harness poisons gradients
    /// in-place between backward and the optimizer step).
    pub fn iter_grads_mut(&mut self) -> impl Iterator<Item = (&str, &mut Tensor)> {
        self.params.iter_mut().map(|p| (p.name.as_str(), &mut p.grad))
    }

    /// Iterates over `(name, m, v)` Adam moment estimates in registration
    /// order. Used by full train-state checkpoints.
    pub fn iter_moments(&self) -> impl Iterator<Item = (&str, &Tensor, &Tensor)> {
        self.params.iter().map(|p| (p.name.as_str(), &p.m, &p.v))
    }

    /// Overwrites one Adam moment estimate (`first == true` selects `m`,
    /// otherwise `v`). Used when restoring a train-state checkpoint.
    ///
    /// # Panics
    /// Panics if the parameter does not exist (checkpoint loaders validate
    /// names first and report a typed error).
    pub fn set_moment(&mut self, name: &str, first: bool, t: Tensor) {
        let id = self.id(name);
        let p = &mut self.params[id.0];
        if first {
            p.m = t;
        } else {
            p.v = t;
        }
    }

    /// Global gradient L2 norm over all parameters.
    pub fn grad_norm(&self) -> f32 {
        self.params.iter().map(|p| p.grad.norm_sq()).sum::<f32>().sqrt()
    }

    /// Scales all gradients by `s` (used by gradient clipping).
    pub fn scale_grads(&mut self, s: f32) {
        for p in &mut self.params {
            p.grad.map_inplace(|x| x * s);
        }
    }

    pub(crate) fn params_mut(&mut self) -> &mut [Param] {
        &mut self.params
    }

    /// Copies all parameter values from `other` (shapes and names must match;
    /// optimizer state is not copied). Used by online-training checkpoints.
    /// The two stores share the buffers until either one writes.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(self.params.len(), other.params.len(), "param count mismatch");
        for (dst, src) in self.params.iter_mut().zip(other.params.iter()) {
            assert_eq!(dst.name, src.name, "param name mismatch");
            dst.value = Arc::clone(&src.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut s = ParamStore::new(1);
        let id = s.register("w", Tensor::ones(2, 3));
        assert_eq!(s.id("w"), id);
        assert_eq!(s.value("w").shape(), (2, 3));
        assert_eq!(s.num_tensors(), 1);
        assert_eq!(s.num_scalars(), 6);
        assert!(s.contains("w"));
        assert!(!s.contains("nope"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let mut s = ParamStore::new(1);
        s.register("w", Tensor::ones(1, 1));
        s.register("w", Tensor::ones(1, 1));
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn unknown_name_panics() {
        let s = ParamStore::new(1);
        s.id("missing");
    }

    #[test]
    fn grad_accumulation_and_zero() {
        let mut s = ParamStore::new(1);
        let id = s.register("w", Tensor::zeros(1, 2));
        s.accumulate_grad(id, &Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        s.accumulate_grad(id, &Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        assert_eq!(s.grad("w").data(), &[2.0, 4.0]);
        assert!((s.grad_norm() - 20.0f32.sqrt()).abs() < 1e-6);
        s.zero_grad();
        assert_eq!(s.grad("w").data(), &[0.0, 0.0]);
    }

    #[test]
    fn xavier_init_is_deterministic_per_seed() {
        let mut a = ParamStore::new(42);
        let mut b = ParamStore::new(42);
        a.register_xavier("w", 4, 4);
        b.register_xavier("w", 4, 4);
        assert_eq!(a.value("w"), b.value("w"));

        let mut c = ParamStore::new(43);
        c.register_xavier("w", 4, 4);
        assert_ne!(a.value("w"), c.value("w"));
    }

    #[test]
    fn same_store_distinct_params_differ() {
        let mut s = ParamStore::new(7);
        s.register_xavier("a", 4, 4);
        s.register_xavier("b", 4, 4);
        assert_ne!(s.value("a"), s.value("b"));
    }

    #[test]
    fn copy_values_from_other_store() {
        let mut a = ParamStore::new(1);
        a.register("w", Tensor::ones(2, 2));
        let mut b = ParamStore::new(2);
        b.register("w", Tensor::zeros(2, 2));
        b.copy_values_from(&a);
        assert_eq!(b.value("w"), a.value("w"));
    }
}
