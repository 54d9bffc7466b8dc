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
//!
//! A parameter's gradient and Adam moments are made on the first write that
//! needs each of them (a backward pass, an optimizer step, a moment
//! restore). Until then every reader sees the zero tensor of the
//! parameter's shape, so a store that only serves or decodes holds its
//! values alone.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::init;
use crate::tensor::Tensor;

/// Opaque handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// One parameter. The three state buffers are `None` until first written
/// and read as zeros of the value's shape until then.
#[derive(Clone, Debug)]
pub(crate) struct Param {
    name: String,
    value: Arc<Tensor>,
    grad: Option<Tensor>,
    /// First-moment estimate (Adam).
    m: Option<Tensor>,
    /// Second-moment estimate (Adam).
    v: Option<Tensor>,
}

/// A state buffer as its readers see it: the buffer, or the zeros of
/// `shape` it stands for while absent.
fn read(buf: &Option<Tensor>, (rows, cols): (usize, usize)) -> Cow<'_, Tensor> {
    buf.as_ref().map_or_else(|| Cow::Owned(Tensor::zeros(rows, cols)), Cow::Borrowed)
}

/// A state buffer for writing: made (zeros of `shape`) on the first write.
fn made(buf: &mut Option<Tensor>, (rows, cols): (usize, usize)) -> &mut Tensor {
    buf.get_or_insert_with(|| Tensor::zeros(rows, cols))
}

impl Param {
    /// What an optimizer step reads and writes: `(value, grad, m, v)`, with
    /// every absent state buffer made first, as if it had been allocated at
    /// registration.
    pub(crate) fn step_state(&mut self) -> (&mut [f32], &[f32], &mut [f32], &mut [f32]) {
        let shape = self.value.shape();
        (
            Arc::make_mut(&mut self.value).data_mut(),
            made(&mut self.grad, shape).data(),
            made(&mut self.m, shape).data_mut(),
            made(&mut self.v, shape).data_mut(),
        )
    }
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
        let id = ParamId(self.params.len());
        self.params.push(Param {
            name: name.to_string(),
            value: Arc::new(value),
            grad: None,
            m: None,
            v: None,
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

    /// Accumulated gradient of a parameter by name (zeros of the
    /// parameter's shape before any gradient reached it).
    pub fn grad(&self, name: &str) -> Cow<'_, Tensor> {
        let p = &self.params[self.id(name).0];
        read(&p.grad, p.value.shape())
    }

    /// Adds `g` into the gradient accumulator of `id`, making the
    /// accumulator (zeros) on the first write.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        let p = &mut self.params[id.0];
        made(&mut p.grad, p.value.shape()).add_assign(g);
    }

    /// Zeroes all gradient accumulators (keeping their buffers for the next
    /// step).
    pub fn zero_grad(&mut self) {
        for grad in self.params.iter_mut().filter_map(|p| p.grad.as_mut()) {
            grad.fill_zero();
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
    pub fn iter_grads(&self) -> impl Iterator<Item = (&str, Cow<'_, Tensor>)> {
        self.params.iter().map(|p| (p.name.as_str(), read(&p.grad, p.value.shape())))
    }

    /// Mutable access to every gradient accumulator in registration order,
    /// made (zeros) where absent. Exists for fault injection (the chaos
    /// harness poisons gradients in-place between backward and the
    /// optimizer step).
    pub fn iter_grads_mut(&mut self) -> impl Iterator<Item = (&str, &mut Tensor)> {
        self.params.iter_mut().map(|p| (p.name.as_str(), made(&mut p.grad, p.value.shape())))
    }

    /// Iterates over `(name, m, v)` Adam moment estimates in registration
    /// order. Used by full train-state checkpoints.
    pub fn iter_moments(&self) -> impl Iterator<Item = (&str, Cow<'_, Tensor>, Cow<'_, Tensor>)> {
        self.params.iter().map(|p| {
            let shape = p.value.shape();
            (p.name.as_str(), read(&p.m, shape), read(&p.v, shape))
        })
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
            p.m = Some(t);
        } else {
            p.v = Some(t);
        }
    }

    /// Global gradient L2 norm over all parameters. An absent gradient adds
    /// the `+0.0` a zero tensor's squared norm is.
    pub fn grad_norm(&self) -> f32 {
        self.params.iter().map(|p| p.grad.as_ref().map_or(0.0, Tensor::norm_sq)).sum::<f32>().sqrt()
    }

    /// Scales all gradients by `s` (used by gradient clipping, whose factor
    /// is finite, so an absent gradient stays zero).
    pub fn scale_grads(&mut self, s: f32) {
        for grad in self.params.iter_mut().filter_map(|p| p.grad.as_mut()) {
            grad.map_inplace(|x| x * s);
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

    /// A copy holding only the parameter values, sharing their buffers
    /// until either store writes: no gradient or optimizer state. What a
    /// last-good or best-validation snapshot keeps, and what a served copy
    /// of a model is built from.
    pub fn values_only(&self) -> ParamStore {
        let params = self
            .params
            .iter()
            .map(|p| Param {
                name: p.name.clone(),
                value: Arc::clone(&p.value),
                grad: None,
                m: None,
                v: None,
            })
            .collect();
        ParamStore { by_name: self.by_name.clone(), params, ..*self }
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

    fn two_param_store() -> ParamStore {
        let mut s = ParamStore::new(3);
        s.register_xavier("w", 3, 4);
        s.register_zeros("b", 1, 4);
        s
    }

    fn holds_state(s: &ParamStore) -> Vec<(bool, bool, bool)> {
        s.params.iter().map(|p| (p.grad.is_some(), p.m.is_some(), p.v.is_some())).collect()
    }

    #[test]
    fn a_fresh_store_holds_no_gradient_or_moment() {
        let s = two_param_store();
        assert_eq!(holds_state(&s), vec![(false, false, false); 2]);
        assert_eq!(holds_state(&s.values_only()), vec![(false, false, false); 2]);
    }

    /// Every reader of an absent buffer sees what the store read when it
    /// allocated zeroed buffers at registration.
    #[test]
    fn absent_state_reads_as_the_eager_zeros() {
        let lazy = two_param_store();
        let mut eager = lazy.clone();
        for (_, g) in eager.iter_grads_mut() {
            g.fill_zero();
        }
        for (name, (r, c)) in [("w", (3, 4)), ("b", (1, 4))] {
            eager.set_moment(name, true, Tensor::zeros(r, c));
            eager.set_moment(name, false, Tensor::zeros(r, c));
        }
        assert_eq!(holds_state(&eager), vec![(true, true, true); 2]);

        assert_eq!(lazy.grad("w").shape(), (3, 4));
        assert_eq!(*lazy.grad("w"), *eager.grad("w"));
        assert_eq!(lazy.grad_norm().to_bits(), eager.grad_norm().to_bits());
        let grads = |s: &ParamStore| {
            s.iter_grads().map(|(n, g)| (n.to_string(), g.into_owned())).collect::<Vec<_>>()
        };
        assert_eq!(grads(&lazy), grads(&eager));
        assert_eq!(lazy.moments_payloads(), eager.moments_payloads());
        // Reading made nothing.
        assert_eq!(holds_state(&lazy), vec![(false, false, false); 2]);

        // A present gradient beside an absent one: the norm's bits match.
        let (mut lazy, mut eager) = (lazy, eager);
        let g = Tensor::from_vec(1, 4, vec![0.5, -1.5, 2.0, 0.25]);
        lazy.accumulate_grad(lazy.id("b"), &g);
        eager.accumulate_grad(eager.id("b"), &g);
        assert_eq!(holds_state(&lazy), vec![(false, false, false), (true, false, false)]);
        assert_eq!(lazy.grad_norm().to_bits(), eager.grad_norm().to_bits());
    }

    #[test]
    fn an_optimizer_step_makes_every_parameters_state() {
        let mut s = two_param_store();
        s.accumulate_grad(s.id("b"), &Tensor::ones(1, 4));
        crate::optim::Adam::new(0.1).step(&mut s);
        assert_eq!(holds_state(&s), vec![(true, true, true); 2]);
        // The values-only copy shares the values and drops the state.
        let copy = s.values_only();
        assert_eq!(holds_state(&copy), vec![(false, false, false); 2]);
        assert!(Arc::ptr_eq(&s.shared_value(s.id("w")), &copy.shared_value(copy.id("w"))));
    }

    /// Restoring the moments and then writing a gradient must not replace
    /// the restored moments with zeros.
    #[test]
    fn restored_moments_survive_the_next_gradient_write() {
        let mut trained = two_param_store();
        trained.accumulate_grad(trained.id("w"), &Tensor::full(3, 4, 0.5));
        crate::optim::Adam::new(0.1).step(&mut trained);
        let (m, v) = trained.moments_payloads();

        let mut resumed = two_param_store();
        resumed.load_moments_payloads(&m, &v).unwrap();
        assert_eq!(holds_state(&resumed), vec![(false, true, true); 2]);
        resumed.accumulate_grad(resumed.id("w"), &Tensor::ones(3, 4));
        assert_eq!(resumed.moments_payloads(), (m, v));
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
