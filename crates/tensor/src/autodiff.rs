//! Reverse-mode automatic differentiation.
//!
//! A [`Graph`] is an append-only arena of nodes; node ids are therefore a
//! topological order, and backpropagation is a single reverse sweep. Each
//! training step builds a fresh graph (the RETIA recurrence unrolls `k`
//! snapshots inside one graph), calls [`Graph::backward`], and lets the
//! optimizer consume the gradients accumulated in the [`ParamStore`].
//!
//! Ops store the context their backward pass needs (saved masks, index lists,
//! activation outputs) inside the op enum itself, so backward is a plain
//! `match` with no dynamic dispatch.
//!
//! Parameter nodes hold the [`ParamStore`]'s own buffer (no copy), and an
//! inference graph can free the values a recurrence no longer needs with
//! [`Graph::release_since`], so a k-snapshot evolve holds one snapshot of
//! intermediates at a time.

use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::param::{ParamId, ParamStore};
use crate::segments::Segments;
use crate::tensor::Tensor;
use crate::RRELU_EVAL_SLOPE;

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

enum Op {
    /// Constant input; no gradient flows past it.
    Leaf,
    /// Learnable parameter; gradients are pushed into the [`ParamStore`].
    Param(ParamId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    /// `x + b` with `b` a `[1, d]` row broadcast over the rows of `x`.
    AddBias(NodeId, NodeId),
    /// `x * w` with `w` a `[1, d]` row broadcast over the rows of `x`.
    MulBias(NodeId, NodeId),
    /// `x * c` with `c` a `[n, 1]` column broadcast over the columns of `x`.
    MulCol(NodeId, NodeId),
    Scale(NodeId, f32),
    AddScalar(NodeId),
    MatMul(NodeId, NodeId),
    /// `a @ b^T`.
    MatMulNT(NodeId, NodeId),
    /// Saved value = sigmoid(x).
    Sigmoid(NodeId),
    /// Saved value = tanh(x).
    Tanh(NodeId),
    Relu(NodeId),
    /// Elementwise sine (RotatE phase rotations).
    Sin(NodeId),
    /// Elementwise cosine.
    Cos(NodeId),
    /// Leaky ReLU with a per-element negative slope (implements RReLU).
    LeakyRelu(NodeId, Tensor),
    Abs(NodeId),
    /// Dropout with the saved (already inverse-scaled) mask.
    Dropout(NodeId, Tensor),
    GatherRows(NodeId, Rc<Vec<u32>>),
    /// Multiplies row `i` by `weights[i]` (degree normalization in R-GCN).
    RowScale(NodeId, Rc<Vec<f32>>),
    /// Applies a constant sparse row operator (R-GCN slot sums, pooling).
    SegmentSum(NodeId, Rc<Segments>),
    ConcatCols(NodeId, NodeId),
    SliceCols(NodeId, usize, usize),
    /// Row-wise softmax; saved value = probabilities.
    SoftmaxRows(NodeId),
    /// `out[i, 0] = x[i, cols[i]]`.
    GatherCols(NodeId, Rc<Vec<u32>>),
    /// `ln(x + eps)` elementwise.
    Ln(NodeId, f32),
    MeanAll(NodeId),
    SumAll(NodeId),
    /// `out[i, 0] = sum_j x[i, j]`.
    SumRows(NodeId),
    /// Sum of several same-shape tensors.
    AddN(Vec<NodeId>),
    /// Row-wise L2 normalization; saved value = normalized rows.
    NormalizeRows(NodeId, f32),
    /// Row-wise layer normalization (no affine); saved stats (mean, inv_std)
    /// per row.
    LayerNormRows(NodeId, Rc<Vec<(f32, f32)>>),
    /// 1-D convolution: x `[batch, in_ch*width]`, w `[out_ch, in_ch*ksize]`,
    /// b `[1, out_ch]`, 'same' zero padding. Output `[batch, out_ch*width]`.
    Conv1d {
        x: NodeId,
        w: NodeId,
        b: NodeId,
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
    },
    /// Fused softmax + cross-entropy against integer targets; saved probs.
    SoftmaxXent(NodeId, Rc<Vec<u32>>),
}

impl Op {
    /// Stable key tying each recorded op to its value-domain transfer
    /// function and reduction-order entries in [`crate::transfer`].
    /// `Leaf`/`Param` are inputs, not computations, and have no key. The
    /// lockstep test below keeps this match and the transfer tables from
    /// drifting apart.
    fn transfer_key(&self) -> Option<&'static str> {
        Some(match self {
            Op::Leaf | Op::Param(_) => return None,
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::AddBias(..) => "add_bias",
            Op::MulBias(..) => "mul_bias",
            Op::MulCol(..) => "mul_col",
            Op::Scale(..) => "scale",
            Op::AddScalar(..) => "add_scalar",
            Op::MatMul(..) => "matmul",
            Op::MatMulNT(..) => "matmul_nt",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::Relu(..) => "relu",
            Op::Sin(..) => "sin",
            Op::Cos(..) => "cos",
            Op::LeakyRelu(..) => "rrelu",
            Op::Abs(..) => "abs",
            Op::Dropout(..) => "dropout",
            Op::GatherRows(..) => "gather_rows",
            Op::RowScale(..) => "row_scale",
            Op::SegmentSum(..) => "segment_sum",
            Op::ConcatCols(..) => "concat_cols",
            Op::SliceCols(..) => "slice_cols",
            Op::SoftmaxRows(..) => "softmax_rows",
            Op::GatherCols(..) => "gather_cols",
            Op::Ln(..) => "ln",
            Op::MeanAll(..) => "mean_all",
            Op::SumAll(..) => "sum_all",
            Op::SumRows(..) => "sum_rows",
            Op::AddN(..) => "add_n",
            Op::NormalizeRows(..) => "normalize_rows",
            Op::LayerNormRows(..) => "layer_norm_rows",
            Op::Conv1d { .. } => "conv1d",
            Op::SoftmaxXent(..) => "softmax_xent",
        })
    }
}

/// Where a node's forward value lives.
enum Value {
    /// Computed by this graph (or handed to it as a constant).
    Owned(Tensor),
    /// A buffer shared with its owner: a parameter's, with the
    /// [`ParamStore`], or a cached input's ([`Graph::shared_constant`]).
    Shared(Arc<Tensor>),
    /// Freed by [`Graph::release_since`].
    Released,
}

impl Value {
    fn tensor(&self) -> Option<&Tensor> {
        match self {
            Value::Owned(t) => Some(t),
            Value::Shared(t) => Some(t),
            Value::Released => None,
        }
    }
}

struct Node {
    value: Value,
    op: Op,
}

/// A single forward computation with reverse-mode gradients.
///
/// `training` toggles stochastic ops (dropout masks, RReLU slope sampling);
/// `seed` makes them reproducible. A graph built with [`Graph::inference`]
/// additionally skips the tape: every node is stored as `Op::Leaf`, so no
/// backward contexts (index lists, dropout masks, saved softmax outputs) are
/// allocated and [`Graph::backward`] is unavailable.
pub struct Graph {
    nodes: Vec<Node>,
    training: bool,
    record: bool,
    rng: StdRng,
}

impl Graph {
    /// Creates an empty graph. `training=false` turns dropout into identity
    /// and RReLU into a fixed-slope leaky ReLU.
    pub fn new(training: bool, seed: u64) -> Self {
        Graph { nodes: Vec::new(), training, record: true, rng: StdRng::seed_from_u64(seed) }
    }

    /// Creates an inference-only graph: eval mode (`training=false`) and no
    /// autodiff tape. Forward values are bitwise identical to a recording
    /// eval graph — ops compute values before the tape entry is stored, so
    /// dropping the entry cannot perturb them — but backward contexts are
    /// never allocated and [`Graph::backward`] panics.
    pub fn inference() -> Self {
        Graph { nodes: Vec::new(), training: false, record: false, rng: StdRng::seed_from_u64(0) }
    }

    /// Whether stochastic ops are active.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Whether this graph records an autodiff tape (`false` for
    /// [`Graph::inference`] graphs).
    pub fn is_recording(&self) -> bool {
        self.record
    }

    /// Number of nodes currently in the graph.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes carrying backward context (anything other than
    /// `Op::Leaf`). Always `0` for an inference graph — the assertion the
    /// no-grad tests and the serve engine rely on.
    pub fn tape_ops(&self) -> usize {
        self.nodes.iter().filter(|n| !matches!(n.op, Op::Leaf)).count()
    }

    /// Transfer keys of every recorded op on the tape, in execution order.
    /// Lets the abstract interpreter (and its tests) check that each op a
    /// real forward pass records has a transfer function in
    /// [`crate::transfer`].
    pub fn tape_transfer_keys(&self) -> Vec<&'static str> {
        self.nodes.iter().filter_map(|n| n.op.transfer_key()).collect()
    }

    /// Bytes held in the values this graph owns. Parameter nodes share the
    /// store's buffers and count zero, as do values freed by
    /// [`Graph::release_since`].
    pub fn value_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.value {
                Value::Owned(t) => t.len() * std::mem::size_of::<f32>(),
                Value::Shared(_) | Value::Released => 0,
            })
            .sum()
    }

    /// Frees the values of every node created since `mark` (a
    /// [`Graph::num_nodes`] reading) except the nodes in `keep`. A
    /// recurrence calls this after each step with the state it carries
    /// forward, so an inference graph holds one step of intermediates
    /// instead of all of them. A recording graph needs every value for
    /// [`Graph::backward`], so there this is a no-op. Reading a freed node
    /// panics.
    pub fn release_since(&mut self, mark: usize, keep: &[NodeId]) {
        if self.record {
            return;
        }
        for (i, node) in self.nodes.iter_mut().enumerate().skip(mark) {
            if !keep.contains(&NodeId(i)) {
                node.value = Value::Released;
            }
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        self.push_value(Value::Owned(value), op)
    }

    fn push_value(&mut self, value: Value, op: Op) -> NodeId {
        let op = if self.record { op } else { Op::Leaf };
        self.nodes.push(Node { value, op });
        NodeId(self.nodes.len() - 1)
    }

    /// The forward value of a node.
    ///
    /// # Panics
    /// Panics if [`Graph::release_since`] freed the node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        self.nodes[id.0]
            .value
            .tensor()
            .expect("node value was freed by Graph::release_since: pass the node in `keep`")
    }

    /// An owned copy of a node's value, with no gradient connection. For a
    /// parameter node this copies the store's buffer.
    ///
    /// # Panics
    /// Panics if [`Graph::release_since`] freed the node.
    pub fn detach(&self, id: NodeId) -> Tensor {
        self.value(id).clone()
    }

    // ---- inputs -----------------------------------------------------------

    /// Inserts a constant (non-differentiable) input.
    pub fn constant(&mut self, t: Tensor) -> NodeId {
        self.push(t, Op::Leaf)
    }

    /// Inserts a constant that shares `t`'s buffer instead of owning a copy
    /// of it (a cached window state entering a decode graph). Like a
    /// parameter node, it counts zero in [`Graph::value_bytes`].
    pub fn shared_constant(&mut self, t: Arc<Tensor>) -> NodeId {
        self.push_value(Value::Shared(t), Op::Leaf)
    }

    /// Inserts a learnable parameter by name. The node shares the store's
    /// buffer instead of copying it; a later store write (an optimizer step,
    /// a checkpoint restore) copies the buffer first if this graph still
    /// holds it, so the node keeps the value it was built with. Gradients
    /// flow back into the store on [`Graph::backward`].
    pub fn param(&mut self, store: &ParamStore, name: &str) -> NodeId {
        let pid = store.id(name);
        self.push_value(Value::Shared(store.shared_value(pid)), Op::Param(pid))
    }

    // ---- arithmetic -------------------------------------------------------

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// `x + bias` where `bias` is `[1, d]`, broadcast over rows.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let xb = self.value(bias);
        assert_eq!(xb.rows(), 1, "bias must be a single row");
        assert_eq!(xb.cols(), self.value(x).cols(), "bias width mismatch");
        let mut v = self.value(x).clone();
        for i in 0..v.rows() {
            let row = v.row_mut(i);
            for (r, &bb) in row.iter_mut().zip(xb.row(0).iter()) {
                *r += bb;
            }
        }
        self.push(v, Op::AddBias(x, bias))
    }

    /// `x * w` where `w` is `[1, d]`, broadcast over rows.
    pub fn mul_bias(&mut self, x: NodeId, w: NodeId) -> NodeId {
        let xw = self.value(w);
        assert_eq!(xw.rows(), 1, "broadcast weight must be a single row");
        assert_eq!(xw.cols(), self.value(x).cols(), "broadcast width mismatch");
        let mut v = self.value(x).clone();
        for i in 0..v.rows() {
            let row = v.row_mut(i);
            for (r, &ww) in row.iter_mut().zip(xw.row(0).iter()) {
                *r *= ww;
            }
        }
        self.push(v, Op::MulBias(x, w))
    }

    /// `x * c` where `c` is `[n, 1]`, broadcast over columns (per-row learned
    /// scaling; the basis-coefficient kernel of R-GCN basis decomposition).
    pub fn mul_col(&mut self, x: NodeId, c: NodeId) -> NodeId {
        let cv = self.value(c);
        assert_eq!(cv.cols(), 1, "column broadcast must be a single column");
        assert_eq!(cv.rows(), self.value(x).rows(), "column broadcast height mismatch");
        let mut v = self.value(x).clone();
        for i in 0..v.rows() {
            let s = cv.get(i, 0);
            v.row_mut(i).iter_mut().for_each(|val| *val *= s);
        }
        self.push(v, Op::MulCol(x, c))
    }

    /// `x * s` for a constant scalar.
    pub fn scale(&mut self, x: NodeId, s: f32) -> NodeId {
        let v = self.value(x).scale(s);
        self.push(v, Op::Scale(x, s))
    }

    /// `x + s` for a constant scalar.
    pub fn add_scalar(&mut self, x: NodeId, s: f32) -> NodeId {
        let v = self.value(x).map(|v| v + s);
        self.push(v, Op::AddScalar(x))
    }

    /// Matrix product `a @ b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Matrix product `a @ b^T` (decoder scoring kernel).
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul_nt(self.value(b));
        self.push(v, Op::MatMulNT(a, b))
    }

    // ---- activations ------------------------------------------------------

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|v| 1.0 / (1.0 + (-v).exp()));
        self.push(v, Op::Sigmoid(x))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f32::tanh);
        self.push(v, Op::Tanh(x))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|v| v.max(0.0));
        self.push(v, Op::Relu(x))
    }

    /// Elementwise sine.
    pub fn sin(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f32::sin);
        self.push(v, Op::Sin(x))
    }

    /// Elementwise cosine.
    pub fn cos(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f32::cos);
        self.push(v, Op::Cos(x))
    }

    /// Leaky ReLU with a fixed negative slope. A graph without a tape
    /// applies the slope directly; a recording graph keeps the per-element
    /// slopes its backward reads.
    pub fn leaky_relu(&mut self, x: NodeId, slope: f32) -> NodeId {
        if !self.record {
            let v = self.value(x).map(|val| if val >= 0.0 { val } else { val * slope });
            return self.push(v, Op::Leaf);
        }
        let (r, c) = self.value(x).shape();
        self.leaky_relu_with(x, Tensor::full(r, c, slope))
    }

    /// Randomized leaky ReLU: slopes ~ U(1/8, 1/3) per element in training,
    /// the mean slope in evaluation — PyTorch `RReLU` semantics, the
    /// activation used throughout RETIA's R-GCNs.
    pub fn rrelu(&mut self, x: NodeId) -> NodeId {
        if !self.training {
            return self.leaky_relu(x, RRELU_EVAL_SLOPE);
        }
        let (r, c) = self.value(x).shape();
        let rng = &mut self.rng;
        let slopes = Tensor::from_fn(r, c, |_, _| rng.gen_range(0.125f32..(1.0 / 3.0)));
        self.leaky_relu_with(x, slopes)
    }

    fn leaky_relu_with(&mut self, x: NodeId, slopes: Tensor) -> NodeId {
        let xv = self.value(x);
        assert_eq!(xv.shape(), slopes.shape());
        let v = Tensor::from_fn(xv.rows(), xv.cols(), |i, j| {
            let val = xv.get(i, j);
            if val >= 0.0 {
                val
            } else {
                val * slopes.get(i, j)
            }
        });
        self.push(v, Op::LeakyRelu(x, slopes))
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f32::abs);
        self.push(v, Op::Abs(x))
    }

    /// Inverted dropout with keep-prob `1 - p`. Identity in evaluation mode
    /// or when `p == 0`.
    pub fn dropout(&mut self, x: NodeId, p: f32) -> NodeId {
        if !self.training || p <= 0.0 {
            return x;
        }
        assert!(p < 1.0, "dropout probability must be < 1");
        let (r, c) = self.value(x).shape();
        let keep = 1.0 - p;
        let rng = &mut self.rng;
        let mask =
            Tensor::from_fn(r, c, |_, _| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 });
        let v = self.value(x).mul(&mask);
        self.push(v, Op::Dropout(x, mask))
    }

    // ---- structure --------------------------------------------------------

    /// Gathers rows of `x` by index (embedding lookup / edge endpoint fetch).
    pub fn gather_rows(&mut self, x: NodeId, indices: Rc<Vec<u32>>) -> NodeId {
        let v = self.value(x).gather_rows(&indices);
        self.push(v, Op::GatherRows(x, indices))
    }

    /// Multiplies each row `i` by `weights[i]` (degree normalization).
    pub fn row_scale(&mut self, x: NodeId, weights: Rc<Vec<f32>>) -> NodeId {
        let xv = self.value(x);
        assert_eq!(xv.rows(), weights.len(), "row_scale weight count mismatch");
        let mut v = xv.clone();
        for i in 0..v.rows() {
            let w = weights[i];
            v.row_mut(i).iter_mut().for_each(|val| *val *= w);
        }
        self.push(v, Op::RowScale(x, weights))
    }

    /// Applies the constant sparse row operator `seg`: output row `r` is
    /// `Σ_k w[k] · x[col[k]]` over row `r`'s entries, summed in storage
    /// order. R-GCN layers sum each (edge type, destination) slot's
    /// degree-normalized messages with it before applying any weight and
    /// place the transformed rows on their nodes with it (a scatter-add is
    /// the unit-weight transpose of a gather); segment mean pooling is this
    /// with unit weights plus [`Graph::row_scale`]. The backward applies the
    /// transposed operator.
    pub fn segment_sum(&mut self, x: NodeId, seg: Rc<Segments>) -> NodeId {
        let v = self.value(x).segment_sum(&seg);
        self.push(v, Op::SegmentSum(x, seg))
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).concat_cols(self.value(b));
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Columns `start..end` of `x`.
    pub fn slice_cols(&mut self, x: NodeId, start: usize, end: usize) -> NodeId {
        let v = self.value(x).slice_cols(start, end);
        self.push(v, Op::SliceCols(x, start, end))
    }

    // ---- probabilistic / reductions ----------------------------------------

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).softmax_rows();
        self.push(v, Op::SoftmaxRows(x))
    }

    /// `out[i, 0] = x[i, cols[i]]` — picks one entry per row (ground-truth
    /// probability extraction in the time-variability loss).
    pub fn gather_cols(&mut self, x: NodeId, cols: Rc<Vec<u32>>) -> NodeId {
        let xv = self.value(x);
        assert_eq!(xv.rows(), cols.len(), "gather_cols index count mismatch");
        #[cfg(debug_assertions)]
        for (pos, &c) in cols.iter().enumerate() {
            assert!(
                (c as usize) < xv.cols(),
                "gather_cols: column index {c} (row {pos}) out of range for {} columns \
                 (called from {})",
                xv.cols(),
                retia_obs::current_module(),
            );
        }
        let v = Tensor::from_fn(xv.rows(), 1, |i, _| xv.get(i, cols[i] as usize));
        self.push(v, Op::GatherCols(x, cols))
    }

    /// `ln(x + eps)` elementwise.
    pub fn ln(&mut self, x: NodeId, eps: f32) -> NodeId {
        let v = self.value(x).map(|v| (v + eps).ln());
        self.push(v, Op::Ln(x, eps))
    }

    /// Mean over all elements, as a `1 x 1` tensor.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        let v = Tensor::scalar(self.value(x).mean());
        self.push(v, Op::MeanAll(x))
    }

    /// Sum over all elements, as a `1 x 1` tensor.
    pub fn sum_all(&mut self, x: NodeId) -> NodeId {
        let v = Tensor::scalar(self.value(x).sum());
        self.push(v, Op::SumAll(x))
    }

    /// Row sums: `[n, d] -> [n, 1]`.
    pub fn sum_rows(&mut self, x: NodeId) -> NodeId {
        let xv = self.value(x);
        let v = Tensor::from_fn(xv.rows(), 1, |i, _| xv.row(i).iter().sum());
        self.push(v, Op::SumRows(x))
    }

    /// Sum of several same-shape tensors.
    pub fn add_n(&mut self, xs: &[NodeId]) -> NodeId {
        assert!(!xs.is_empty(), "add_n needs at least one input");
        let mut v = self.value(xs[0]).clone();
        for &x in &xs[1..] {
            v.add_assign(self.value(x));
        }
        self.push(v, Op::AddN(xs.to_vec()))
    }

    /// Row-wise L2 normalization (RE-GCN-style embedding normalization).
    pub fn normalize_rows(&mut self, x: NodeId) -> NodeId {
        let eps = 1e-12f32;
        let v = self.value(x).l2_normalize_rows(eps);
        self.push(v, Op::NormalizeRows(x, eps))
    }

    /// Row-wise layer normalization without affine parameters; compose with
    /// [`Graph::mul_bias`] and [`Graph::add_bias`] for the affine form.
    pub fn layer_norm_rows(&mut self, x: NodeId) -> NodeId {
        let eps = 1e-5f32;
        let xv = self.value(x);
        let mut stats = Vec::with_capacity(xv.rows());
        let mut v = xv.clone();
        let d = xv.cols() as f32;
        for i in 0..v.rows() {
            let row = v.row_mut(i);
            let mean = row.iter().sum::<f32>() / d;
            let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / d;
            let inv_std = 1.0 / (var + eps).sqrt();
            row.iter_mut().for_each(|x| *x = (*x - mean) * inv_std);
            stats.push((mean, inv_std));
        }
        self.push(v, Op::LayerNormRows(x, Rc::new(stats)))
    }

    /// 1-D convolution with 'same' zero padding.
    ///
    /// `x` is `[batch, in_ch * width]` (channels-major rows), `w` is
    /// `[out_ch, in_ch * ksize]`, `b` is `[1, out_ch]`. Output is
    /// `[batch, out_ch * width]`. This is the Conv-TransE kernel: the decoder
    /// stacks 2 embeddings as 2 input channels over width `d`.
    pub fn conv1d(
        &mut self,
        x: NodeId,
        w: NodeId,
        b: NodeId,
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
    ) -> NodeId {
        let xv = self.value(x);
        let wv = self.value(w);
        let bv = self.value(b);
        assert_eq!(xv.cols() % in_ch, 0, "conv1d: width not divisible by in_ch");
        assert_eq!(wv.shape(), (out_ch, in_ch * ksize), "conv1d: bad kernel shape");
        assert_eq!(bv.shape(), (1, out_ch), "conv1d: bad bias shape");
        let width = xv.cols() / in_ch;
        let pad = ksize / 2;
        let batch = xv.rows();
        let _t = retia_obs::kernel_span("conv1d");
        let mut out = Tensor::zeros(batch, out_ch * width);
        let ow = out_ch * width;
        // Batch rows are independent, so the batch dimension chunks cleanly;
        // each output value keeps its sequential (ic, kk) accumulation order.
        let cost = 2 * ow * in_ch * ksize;
        crate::parallel::for_each_row_chunk(out.data_mut(), ow, cost, |first_row, chunk| {
            for (d, orow) in chunk.chunks_mut(ow).enumerate() {
                let xr = xv.row(first_row + d);
                for oc in 0..out_ch {
                    let wrow = wv.row(oc);
                    let bias = bv.get(0, oc);
                    for pos in 0..width {
                        let mut acc = bias;
                        for ic in 0..in_ch {
                            for kk in 0..ksize {
                                let src = pos as isize + kk as isize - pad as isize;
                                if src < 0 || src >= width as isize {
                                    continue;
                                }
                                acc += xr[ic * width + src as usize] * wrow[ic * ksize + kk];
                            }
                        }
                        orow[oc * width + pos] = acc;
                    }
                }
            }
        });
        self.push(out, Op::Conv1d { x, w, b, in_ch, out_ch, ksize })
    }

    /// Fused softmax cross-entropy against integer class targets; returns the
    /// mean loss as a `1 x 1` tensor.
    pub fn softmax_xent(&mut self, logits: NodeId, targets: Rc<Vec<u32>>) -> NodeId {
        let probs = self.value(logits).softmax_rows();
        assert_eq!(probs.rows(), targets.len(), "softmax_xent target count mismatch");
        let mut loss = 0.0f32;
        for (i, &t) in targets.iter().enumerate() {
            loss -= (probs.get(i, t as usize) + 1e-12).ln();
        }
        loss /= targets.len().max(1) as f32;
        // Save probs as the node "context" by re-deriving in backward; cheaper
        // to store them in the op? We store targets only and recompute probs
        // from the saved logits value during backward.
        self.push(Tensor::scalar(loss), Op::SoftmaxXent(logits, targets))
    }

    // ---- backward ---------------------------------------------------------

    /// Backpropagates from `loss` (must be `1 x 1`), accumulating parameter
    /// gradients into `store`.
    pub fn backward(&mut self, loss: NodeId, store: &mut ParamStore) {
        assert!(self.record, "backward() on an inference graph: no tape was recorded");
        assert_eq!(self.value(loss).shape(), (1, 1), "backward() expects a scalar loss node");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for id in (0..=loss.0).rev() {
            let g = match grads[id].take() {
                Some(g) => g,
                None => continue,
            };
            match &self.nodes[id].op {
                Op::Leaf => {}
                Op::Param(pid) => store.accumulate_grad(*pid, &g),
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    Self::acc(&mut grads, a, g.clone());
                    Self::acc(&mut grads, b, g);
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    Self::acc(&mut grads, a, g.clone());
                    Self::acc(&mut grads, b, g.scale(-1.0));
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    let ga = g.mul(self.value(b));
                    let gb = g.mul(self.value(a));
                    Self::acc(&mut grads, a, ga);
                    Self::acc(&mut grads, b, gb);
                }
                Op::AddBias(x, bias) => {
                    let (x, bias) = (*x, *bias);
                    let mut gb = Tensor::zeros(1, g.cols());
                    for i in 0..g.rows() {
                        let row = g.row(i);
                        let dst = gb.row_mut(0);
                        for (d, &s) in dst.iter_mut().zip(row.iter()) {
                            *d += s;
                        }
                    }
                    Self::acc(&mut grads, x, g);
                    Self::acc(&mut grads, bias, gb);
                }
                Op::MulBias(x, w) => {
                    let (x, w) = (*x, *w);
                    let wt = self.value(w);
                    let xv = self.value(x);
                    let mut gx = g.clone();
                    for i in 0..gx.rows() {
                        let row = gx.row_mut(i);
                        for (r, &ww) in row.iter_mut().zip(wt.row(0).iter()) {
                            *r *= ww;
                        }
                    }
                    let mut gw = Tensor::zeros(1, g.cols());
                    for i in 0..g.rows() {
                        for j in 0..g.cols() {
                            let v = gw.get(0, j) + g.get(i, j) * xv.get(i, j);
                            gw.set(0, j, v);
                        }
                    }
                    Self::acc(&mut grads, x, gx);
                    Self::acc(&mut grads, w, gw);
                }
                Op::MulCol(x, c) => {
                    let (x, c) = (*x, *c);
                    let cv = self.value(c);
                    let xv = self.value(x);
                    let mut gx = g.clone();
                    for i in 0..gx.rows() {
                        let s = cv.get(i, 0);
                        gx.row_mut(i).iter_mut().for_each(|v| *v *= s);
                    }
                    let mut gc = Tensor::zeros(cv.rows(), 1);
                    for i in 0..g.rows() {
                        let dot: f32 =
                            g.row(i).iter().zip(xv.row(i).iter()).map(|(&a, &b)| a * b).sum();
                        gc.set(i, 0, dot);
                    }
                    Self::acc(&mut grads, x, gx);
                    Self::acc(&mut grads, c, gc);
                }
                Op::Scale(x, s) => {
                    let (x, s) = (*x, *s);
                    Self::acc(&mut grads, x, g.scale(s));
                }
                Op::AddScalar(x) => {
                    let x = *x;
                    Self::acc(&mut grads, x, g);
                }
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    // y = a @ b: da = g @ b^T, db = a^T @ g.
                    let ga = g.matmul_nt(self.value(b));
                    let gb = self.value(a).matmul_tn(&g);
                    Self::acc(&mut grads, a, ga);
                    Self::acc(&mut grads, b, gb);
                }
                Op::MatMulNT(a, b) => {
                    let (a, b) = (*a, *b);
                    // y = a @ b^T: da = g @ b, db = g^T @ a.
                    let ga = g.matmul(self.value(b));
                    let gb = g.matmul_tn(self.value(a));
                    Self::acc(&mut grads, a, ga);
                    Self::acc(&mut grads, b, gb);
                }
                Op::Sigmoid(x) => {
                    let x = *x;
                    let y = self.value(NodeId(id));
                    let gx = g.zip(y, |g, y| g * y * (1.0 - y));
                    Self::acc(&mut grads, x, gx);
                }
                Op::Tanh(x) => {
                    let x = *x;
                    let y = self.value(NodeId(id));
                    let gx = g.zip(y, |g, y| g * (1.0 - y * y));
                    Self::acc(&mut grads, x, gx);
                }
                Op::Relu(x) => {
                    let x = *x;
                    let xv = self.value(x);
                    let gx = g.zip(xv, |g, x| if x > 0.0 { g } else { 0.0 });
                    Self::acc(&mut grads, x, gx);
                }
                Op::Sin(x) => {
                    let x = *x;
                    let xv = self.value(x);
                    let gx = g.zip(xv, |g, x| g * x.cos());
                    Self::acc(&mut grads, x, gx);
                }
                Op::Cos(x) => {
                    let x = *x;
                    let xv = self.value(x);
                    let gx = g.zip(xv, |g, x| -g * x.sin());
                    Self::acc(&mut grads, x, gx);
                }
                Op::LeakyRelu(x, slopes) => {
                    let xid = *x;
                    let xv = self.value(xid);
                    let gx = Tensor::from_fn(g.rows(), g.cols(), |i, j| {
                        if xv.get(i, j) >= 0.0 {
                            g.get(i, j)
                        } else {
                            g.get(i, j) * slopes.get(i, j)
                        }
                    });
                    Self::acc(&mut grads, xid, gx);
                }
                Op::Abs(x) => {
                    let x = *x;
                    let xv = self.value(x);
                    let gx = g.zip(xv, |g, x| if x >= 0.0 { g } else { -g });
                    Self::acc(&mut grads, x, gx);
                }
                Op::Dropout(x, mask) => {
                    let xid = *x;
                    let gx = g.mul(mask);
                    Self::acc(&mut grads, xid, gx);
                }
                Op::GatherRows(x, idx) => {
                    let xid = *x;
                    let n = self.value(xid).rows();
                    let gx = g.scatter_add_rows(idx, n);
                    Self::acc(&mut grads, xid, gx);
                }
                Op::RowScale(x, weights) => {
                    let xid = *x;
                    let mut gx = g.clone();
                    for i in 0..gx.rows() {
                        let w = weights[i];
                        gx.row_mut(i).iter_mut().for_each(|v| *v *= w);
                    }
                    Self::acc(&mut grads, xid, gx);
                }
                Op::SegmentSum(x, seg) => {
                    let xid = *x;
                    let n = self.value(xid).rows();
                    let gx = g.segment_sum(&seg.transpose(n));
                    Self::acc(&mut grads, xid, gx);
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let ca = self.value(a).cols();
                    let cb = self.value(b).cols();
                    let ga = g.slice_cols(0, ca);
                    let gb = g.slice_cols(ca, ca + cb);
                    Self::acc(&mut grads, a, ga);
                    Self::acc(&mut grads, b, gb);
                }
                Op::SliceCols(x, start, _end) => {
                    let (xid, start) = (*x, *start);
                    let xv = self.value(xid);
                    let mut gx = Tensor::zeros(xv.rows(), xv.cols());
                    for i in 0..g.rows() {
                        for j in 0..g.cols() {
                            gx.set(i, start + j, g.get(i, j));
                        }
                    }
                    Self::acc(&mut grads, xid, gx);
                }
                Op::SoftmaxRows(x) => {
                    let xid = *x;
                    let p = self.value(NodeId(id));
                    // dx = p * (g - sum_j g_j p_j) per row.
                    let mut gx = Tensor::zeros(g.rows(), g.cols());
                    for i in 0..g.rows() {
                        let dot: f32 =
                            g.row(i).iter().zip(p.row(i).iter()).map(|(&a, &b)| a * b).sum();
                        let dst = gx.row_mut(i);
                        for (j, d) in dst.iter_mut().enumerate() {
                            *d = p.get(i, j) * (g.get(i, j) - dot);
                        }
                    }
                    Self::acc(&mut grads, xid, gx);
                }
                Op::GatherCols(x, cols) => {
                    let xid = *x;
                    let xv = self.value(xid);
                    let mut gx = Tensor::zeros(xv.rows(), xv.cols());
                    for (i, &c) in cols.iter().enumerate() {
                        gx.set(i, c as usize, g.get(i, 0));
                    }
                    Self::acc(&mut grads, xid, gx);
                }
                Op::Ln(x, eps) => {
                    let (xid, eps) = (*x, *eps);
                    let xv = self.value(xid);
                    let gx = g.zip(xv, |g, x| g / (x + eps));
                    Self::acc(&mut grads, xid, gx);
                }
                Op::MeanAll(x) => {
                    let xid = *x;
                    let xv = self.value(xid);
                    let scale = g.item() / xv.len().max(1) as f32;
                    let gx = Tensor::full(xv.rows(), xv.cols(), scale);
                    Self::acc(&mut grads, xid, gx);
                }
                Op::SumAll(x) => {
                    let xid = *x;
                    let xv = self.value(xid);
                    let gx = Tensor::full(xv.rows(), xv.cols(), g.item());
                    Self::acc(&mut grads, xid, gx);
                }
                Op::SumRows(x) => {
                    let xid = *x;
                    let xv = self.value(xid);
                    let mut gx = Tensor::zeros(xv.rows(), xv.cols());
                    for i in 0..xv.rows() {
                        let gi = g.get(i, 0);
                        gx.row_mut(i).iter_mut().for_each(|v| *v = gi);
                    }
                    Self::acc(&mut grads, xid, gx);
                }
                Op::AddN(xs) => {
                    let xs = xs.clone();
                    for x in xs {
                        Self::acc(&mut grads, x, g.clone());
                    }
                }
                Op::NormalizeRows(x, eps) => {
                    let (xid, eps) = (*x, *eps);
                    let xv = self.value(xid);
                    let y = self.value(NodeId(id));
                    let mut gx = Tensor::zeros(g.rows(), g.cols());
                    for i in 0..g.rows() {
                        let n = xv.row(i).iter().map(|&v| v * v).sum::<f32>().sqrt();
                        if n <= eps {
                            // Forward was identity on this row.
                            gx.row_mut(i).copy_from_slice(g.row(i));
                            continue;
                        }
                        let dot: f32 =
                            g.row(i).iter().zip(y.row(i).iter()).map(|(&a, &b)| a * b).sum();
                        for j in 0..g.cols() {
                            gx.set(i, j, (g.get(i, j) - dot * y.get(i, j)) / n);
                        }
                    }
                    Self::acc(&mut grads, xid, gx);
                }
                Op::LayerNormRows(x, stats) => {
                    let xid = *x;
                    let stats = stats.clone();
                    let y = self.value(NodeId(id));
                    let d = y.cols() as f32;
                    let mut gx = Tensor::zeros(g.rows(), g.cols());
                    for i in 0..g.rows() {
                        let (_, inv_std) = stats[i];
                        let gsum: f32 = g.row(i).iter().sum();
                        let gydot: f32 =
                            g.row(i).iter().zip(y.row(i).iter()).map(|(&a, &b)| a * b).sum();
                        for j in 0..g.cols() {
                            let v = inv_std * (g.get(i, j) - gsum / d - y.get(i, j) * gydot / d);
                            gx.set(i, j, v);
                        }
                    }
                    Self::acc(&mut grads, xid, gx);
                }
                Op::Conv1d { x, w, b, in_ch, out_ch, ksize } => {
                    let (x, w, b) = (*x, *w, *b);
                    let (in_ch, out_ch, ksize) = (*in_ch, *out_ch, *ksize);
                    let xv = self.value(x);
                    let wv = self.value(w);
                    let width = xv.cols() / in_ch;
                    let pad = ksize / 2;
                    let batch = xv.rows();
                    let iw = in_ch * width;
                    let cost = 2 * out_ch * width * in_ch * ksize;
                    // gx rows depend only on the matching batch row: chunk the
                    // batch, disjoint writes, same per-element order.
                    let mut gx = Tensor::zeros(batch, iw);
                    crate::parallel::for_each_row_chunk(
                        gx.data_mut(),
                        iw,
                        cost,
                        |first_row, chunk| {
                            for (d, gxr) in chunk.chunks_mut(iw).enumerate() {
                                let grow = g.row(first_row + d);
                                for oc in 0..out_ch {
                                    let wrow = wv.row(oc);
                                    for pos in 0..width {
                                        let go = grow[oc * width + pos];
                                        if go == 0.0 {
                                            continue;
                                        }
                                        for ic in 0..in_ch {
                                            for kk in 0..ksize {
                                                let src = pos as isize + kk as isize - pad as isize;
                                                if src < 0 || src >= width as isize {
                                                    continue;
                                                }
                                                gxr[ic * width + src as usize] +=
                                                    go * wrow[ic * ksize + kk];
                                            }
                                        }
                                    }
                                }
                            }
                        },
                    );
                    // gw/gb reduce over the batch: per-chunk partials (each
                    // accumulated in the sequential order within its chunk)
                    // merged in ascending chunk order — a fixed function of
                    // the batch size, independent of thread count.
                    let partials = crate::parallel::map_row_chunks(batch, cost, |range| {
                        let mut gw = Tensor::zeros(out_ch, in_ch * ksize);
                        let mut gb = Tensor::zeros(1, out_ch);
                        for bi in range {
                            let xr = xv.row(bi);
                            let grow = g.row(bi);
                            for oc in 0..out_ch {
                                for pos in 0..width {
                                    let go = grow[oc * width + pos];
                                    if go == 0.0 {
                                        continue;
                                    }
                                    let gbv = gb.get(0, oc) + go;
                                    gb.set(0, oc, gbv);
                                    for ic in 0..in_ch {
                                        for kk in 0..ksize {
                                            let src = pos as isize + kk as isize - pad as isize;
                                            if src < 0 || src >= width as isize {
                                                continue;
                                            }
                                            let src = src as usize;
                                            let gwv = gw.get(oc, ic * ksize + kk)
                                                + go * xr[ic * width + src];
                                            gw.set(oc, ic * ksize + kk, gwv);
                                        }
                                    }
                                }
                            }
                        }
                        (gw, gb)
                    });
                    let mut gw = Tensor::zeros(out_ch, in_ch * ksize);
                    let mut gb = Tensor::zeros(1, out_ch);
                    for (pw, pb) in partials {
                        gw.add_assign(&pw);
                        gb.add_assign(&pb);
                    }
                    Self::acc(&mut grads, x, gx);
                    Self::acc(&mut grads, w, gw);
                    Self::acc(&mut grads, b, gb);
                }
                Op::SoftmaxXent(logits, targets) => {
                    let lid = *logits;
                    let targets = targets.clone();
                    let probs = self.value(lid).softmax_rows();
                    let n = targets.len().max(1) as f32;
                    let mut gx = probs;
                    for (i, &t) in targets.iter().enumerate() {
                        let v = gx.get(i, t as usize) - 1.0;
                        gx.set(i, t as usize, v);
                    }
                    let s = g.item() / n;
                    gx.map_inplace(|v| v * s);
                    Self::acc(&mut grads, lid, gx);
                }
            }
        }
    }

    fn acc(grads: &mut [Option<Tensor>], id: NodeId, g: Tensor) {
        match &mut grads[id.0] {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamStore;

    /// Central finite-difference gradient check for a scalar-valued function
    /// of a single parameter tensor named "x".
    fn grad_check(x0: Tensor, build: impl Fn(&mut Graph, NodeId) -> NodeId, tol: f32) {
        let mut store = ParamStore::new(0);
        store.register("x", x0.clone());

        // Analytic gradient.
        let mut g = Graph::new(false, 0);
        let x = g.param(&store, "x");
        let loss = build(&mut g, x);
        g.backward(loss, &mut store);
        let analytic = store.grad("x").into_owned();
        let numeric = numeric_grad(&x0, &build);
        let diff = analytic.max_abs_diff(&numeric);
        assert!(
            diff < tol,
            "gradient mismatch {diff} > {tol}\nanalytic: {analytic:?}\nnumeric: {numeric:?}"
        );
    }

    /// Central finite-difference gradient of `build` with respect to its
    /// input, evaluated at `x0`.
    fn numeric_grad(x0: &Tensor, build: &impl Fn(&mut Graph, NodeId) -> NodeId) -> Tensor {
        let h = 1e-3f32;
        let mut numeric = Tensor::zeros(x0.rows(), x0.cols());
        for i in 0..x0.rows() {
            for j in 0..x0.cols() {
                for (sign, slot) in [(1.0f32, 0), (-1.0f32, 1)] {
                    let mut xp = x0.clone();
                    xp.set(i, j, x0.get(i, j) + sign * h);
                    let mut g = Graph::new(false, 0);
                    let xn = g.constant(xp);
                    let l = build(&mut g, xn);
                    let v = g.value(l).item();
                    if slot == 0 {
                        numeric.set(i, j, v);
                    } else {
                        let fwd = numeric.get(i, j);
                        numeric.set(i, j, (fwd - v) / (2.0 * h));
                    }
                }
            }
        }
        numeric
    }

    fn sample(r: usize, c: usize, seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_fn(r, c, |_, _| rng.gen_range(-1.0f32..1.0))
    }

    #[test]
    fn grad_matmul() {
        let w = sample(3, 2, 1);
        grad_check(
            sample(2, 3, 0),
            move |g, x| {
                let w = g.constant(w.clone());
                let y = g.matmul(x, w);
                let sq = g.mul(y, y);
                g.mean_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_nt() {
        let w = sample(4, 3, 2);
        grad_check(
            sample(2, 3, 0),
            move |g, x| {
                let w = g.constant(w.clone());
                let y = g.matmul_nt(x, w);
                let sq = g.mul(y, y);
                g.mean_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_sigmoid_tanh_relu() {
        grad_check(
            sample(3, 3, 0),
            |g, x| {
                let s = g.sigmoid(x);
                let t = g.tanh(s);
                let r = g.leaky_relu(t, 0.1);
                g.sum_all(r)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_add_sub_mul_scale() {
        let b = sample(2, 2, 5);
        grad_check(
            sample(2, 2, 0),
            move |g, x| {
                let b = g.constant(b.clone());
                let a = g.add(x, b);
                let s = g.sub(a, x);
                let m = g.mul(s, x);
                let sc = g.scale(m, 0.7);
                let sh = g.add_scalar(sc, 0.3);
                g.mean_all(sh)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_bias_broadcast() {
        grad_check(
            sample(1, 3, 0),
            |g, x| {
                let base = g.constant(sample(4, 3, 9));
                let y = g.add_bias(base, x);
                let z = g.mul_bias(y, x);
                let sq = g.mul(z, z);
                g.sum_all(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_mul_col() {
        grad_check(
            sample(3, 1, 0),
            |g, c| {
                let x = g.constant(sample(3, 4, 17));
                let y = g.mul_col(x, c);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            2e-2,
        );
        grad_check(
            sample(3, 4, 0),
            |g, x| {
                let c = g.constant(sample(3, 1, 18));
                let y = g.mul_col(x, c);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_gather_scatter() {
        grad_check(
            sample(4, 2, 0),
            |g, x| {
                let idx = Rc::new(vec![3u32, 0, 3, 1]);
                let gathered = g.gather_rows(x, idx);
                let scatter = Segments::unit(&[vec![0, 2], vec![1], vec![3]]);
                let back = g.segment_sum(gathered, Rc::new(scatter));
                let sq = g.mul(back, back);
                g.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_row_scale() {
        grad_check(
            sample(3, 2, 0),
            |g, x| {
                let w = Rc::new(vec![0.5f32, -1.0, 2.0]);
                let y = g.row_scale(x, w);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_concat_slice() {
        grad_check(
            sample(2, 3, 0),
            |g, x| {
                let y = g.concat_cols(x, x);
                let s = g.slice_cols(y, 1, 5);
                let sq = g.mul(s, s);
                g.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_ln_gather() {
        grad_check(
            sample(3, 4, 0),
            |g, x| {
                let p = g.softmax_rows(x);
                let picked = g.gather_cols(p, Rc::new(vec![1u32, 0, 3]));
                let lp = g.ln(picked, 1e-9);
                let m = g.mean_all(lp);
                g.scale(m, -1.0)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_xent_matches_composed() {
        // The fused op must produce the same loss and gradient as the
        // composed softmax -> gather -> ln -> mean pipeline.
        let x0 = sample(5, 7, 0);
        let targets = vec![2u32, 0, 6, 3, 3];

        let mut store = ParamStore::new(0);
        store.register("x", x0.clone());
        let mut g = Graph::new(false, 0);
        let x = g.param(&store, "x");
        let loss = g.softmax_xent(x, Rc::new(targets.clone()));
        let fused_loss = g.value(loss).item();
        g.backward(loss, &mut store);
        let fused_grad = store.grad("x").into_owned();

        let mut store2 = ParamStore::new(0);
        store2.register("x", x0);
        let mut g2 = Graph::new(false, 0);
        let x = g2.param(&store2, "x");
        let p = g2.softmax_rows(x);
        let picked = g2.gather_cols(p, Rc::new(targets));
        let lp = g2.ln(picked, 1e-12);
        let m = g2.mean_all(lp);
        let loss2 = g2.scale(m, -1.0);
        let composed_loss = g2.value(loss2).item();
        g2.backward(loss2, &mut store2);
        let composed_grad = store2.grad("x").into_owned();

        assert!((fused_loss - composed_loss).abs() < 1e-5);
        assert!(fused_grad.max_abs_diff(&composed_grad) < 1e-5);
    }

    #[test]
    fn softmax_xent_survives_fully_masked_row() {
        // Forward and backward both re-derive probabilities through
        // `softmax_rows`, so the masked-row stabilization must hold in both
        // directions: finite loss, finite gradients, no NaN poisoning of
        // the unmasked rows.
        let x0 = Tensor::from_vec(
            2,
            3,
            vec![f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY, 0.5, -0.5, 0.25],
        );
        let mut store = ParamStore::new(0);
        store.register("x", x0);
        let mut g = Graph::new(false, 0);
        let x = g.param(&store, "x");
        let loss = g.softmax_xent(x, Rc::new(vec![1u32, 2]));
        let v = g.value(loss).item();
        assert!(v.is_finite(), "loss {v}");
        g.backward(loss, &mut store);
        let grad = store.grad("x");
        assert!(grad.all_finite(), "{grad:?}");
        // Masked row's probabilities are all zero → gradient is exactly
        // (p - onehot)/n on the target and p/n = 0 elsewhere.
        assert_eq!(grad.get(0, 0), 0.0);
        assert_eq!(grad.get(0, 2), 0.0);
        assert!((grad.get(0, 1) - (-0.5)).abs() < 1e-6);
    }

    #[test]
    fn grad_normalize_rows() {
        grad_check(
            sample(3, 4, 0),
            |g, x| {
                let y = g.normalize_rows(x);
                let c = g.constant(sample(3, 4, 11));
                let m = g.mul(y, c);
                g.sum_all(m)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_layer_norm() {
        grad_check(
            sample(3, 5, 0),
            |g, x| {
                let y = g.layer_norm_rows(x);
                let c = g.constant(sample(3, 5, 13));
                let m = g.mul(y, c);
                g.sum_all(m)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_conv1d() {
        let w0 = sample(3, 2 * 3, 21);
        let b0 = sample(1, 3, 22);
        grad_check(
            sample(2, 2 * 5, 0),
            move |g, x| {
                let w = g.constant(w0.clone());
                let b = g.constant(b0.clone());
                let y = g.conv1d(x, w, b, 2, 3, 3);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_conv1d_weights() {
        let x0 = sample(2, 2 * 5, 31);
        let b0 = sample(1, 3, 32);
        grad_check(
            sample(3, 2 * 3, 0),
            move |g, w| {
                let x = g.constant(x0.clone());
                let b = g.constant(b0.clone());
                let y = g.conv1d(x, w, b, 2, 3, 3);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_sin_cos() {
        grad_check(
            sample(3, 3, 0),
            |g, x| {
                let s = g.sin(x);
                let c = g.cos(x);
                let m = g.mul(s, c);
                g.sum_all(m)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_abs_sum_rows() {
        grad_check(
            sample(3, 4, 0),
            |g, x| {
                let a = g.abs(x);
                let s = g.sum_rows(a);
                let sq = g.mul(s, s);
                g.mean_all(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_add_n() {
        grad_check(
            sample(2, 2, 0),
            |g, x| {
                let y = g.scale(x, 2.0);
                let z = g.add_n(&[x, y, x]);
                let sq = g.mul(z, z);
                g.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn dropout_identity_in_eval() {
        let mut g = Graph::new(false, 0);
        let x = g.constant(sample(3, 3, 0));
        let y = g.dropout(x, 0.5);
        assert_eq!(x, y, "eval-mode dropout must be the identity node");
    }

    #[test]
    fn dropout_scales_in_train() {
        let mut g = Graph::new(true, 42);
        let x = g.constant(Tensor::ones(100, 100));
        let y = g.dropout(x, 0.5);
        let v = g.value(y);
        // Kept elements are scaled to 1/keep = 2.
        let kept: usize = v.data().iter().filter(|&&x| x > 0.0).count();
        assert!(v.data().iter().all(|&x| x == 0.0 || (x - 2.0).abs() < 1e-6));
        let frac = kept as f32 / v.len() as f32;
        assert!((frac - 0.5).abs() < 0.05, "kept fraction {frac}");
    }

    #[test]
    fn rrelu_eval_uses_mean_slope() {
        let mut g = Graph::new(false, 0);
        let x = g.constant(Tensor::from_vec(1, 2, vec![-1.0, 2.0]));
        let y = g.rrelu(x);
        let v = g.value(y);
        assert!((v.get(0, 0) + crate::RRELU_EVAL_SLOPE).abs() < 1e-6);
        assert_eq!(v.get(0, 1), 2.0);
    }

    #[test]
    fn rrelu_train_slopes_in_range() {
        let mut g = Graph::new(true, 7);
        let x = g.constant(Tensor::full(10, 10, -1.0));
        let y = g.rrelu(x);
        let v = g.value(y);
        assert!(v.data().iter().all(|&x| (-1.0 / 3.0 - 1e-6..=-0.125 + 1e-6).contains(&x)));
    }

    #[test]
    fn param_grads_accumulate_into_store() {
        let mut store = ParamStore::new(0);
        store.register("w", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let mut g = Graph::new(false, 0);
        let w = g.param(&store, "w");
        let sq = g.mul(w, w);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut store);
        // d/dw sum(w^2) = 2w.
        assert_eq!(store.grad("w").data(), &[2.0, 4.0]);
    }

    #[test]
    fn shared_node_grads_sum_over_uses() {
        let mut store = ParamStore::new(0);
        store.register("w", Tensor::scalar(3.0));
        let mut g = Graph::new(false, 0);
        let w = g.param(&store, "w");
        // loss = w*w + w => dloss/dw = 2w + 1 = 7.
        let sq = g.mul(w, w);
        let s = g.add(sq, w);
        let loss = g.sum_all(s);
        g.backward(loss, &mut store);
        assert_eq!(store.grad("w").item(), 7.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut store = ParamStore::new(0);
        let mut g = Graph::new(false, 0);
        let x = g.constant(Tensor::ones(2, 2));
        g.backward(x, &mut store);
    }

    /// A small op mix covering the serve-relevant forward surface: gather,
    /// matmul, bias, nonlinearity, softmax.
    fn forward_mix(g: &mut Graph, store: &ParamStore) -> Tensor {
        let w = g.param(store, "w");
        let rows = g.gather_rows(w, std::rc::Rc::new(vec![2u32, 0, 1]));
        let prod = g.matmul_nt(rows, w);
        let b = g.constant(sample(1, 4, 9));
        let biased = g.add_bias(prod, b);
        let act = g.tanh(biased);
        let p = g.softmax_rows(act);
        g.detach(p)
    }

    #[test]
    fn inference_matches_recording_eval_bitwise() {
        let mut store = ParamStore::new(0);
        store.register("w", sample(4, 3, 7));

        let mut rec = Graph::new(false, 0);
        let expected = forward_mix(&mut rec, &store);
        assert!(rec.tape_ops() > 0, "recording graph should carry a tape");

        let mut inf = Graph::inference();
        let got = forward_mix(&mut inf, &store);
        assert_eq!(expected.data(), got.data(), "inference forward must be bit-identical");
    }

    #[test]
    fn inference_allocates_no_tape() {
        let mut store = ParamStore::new(0);
        store.register("w", sample(4, 3, 7));
        let mut g = Graph::inference();
        let _ = forward_mix(&mut g, &store);
        assert!(!g.is_recording());
        assert!(!g.is_training());
        assert!(g.num_nodes() > 0);
        assert_eq!(g.tape_ops(), 0, "inference graph must store Leaf ops only");
    }

    #[test]
    #[should_panic(expected = "inference graph")]
    fn backward_rejects_inference_graph() {
        let mut store = ParamStore::new(0);
        store.register("w", Tensor::scalar(2.0));
        let mut g = Graph::inference();
        let w = g.param(&store, "w");
        let loss = g.sum_all(w);
        g.backward(loss, &mut store);
    }

    #[test]
    fn param_node_shares_store_buffer() {
        let mut store = ParamStore::new(0);
        store.register("w", sample(4, 3, 7));
        for mut g in [Graph::new(false, 0), Graph::inference()] {
            let w = g.param(&store, "w");
            assert_eq!(
                g.value(w).data().as_ptr(),
                store.value("w").data().as_ptr(),
                "a parameter node must hold the store's buffer, not a copy"
            );
            assert_eq!(g.value_bytes(), 0, "a shared parameter buffer is not owned by the graph");
        }
    }

    #[test]
    fn store_write_under_a_live_graph_copies_on_write() {
        let x0 = sample(3, 4, 3);
        let build = |g: &mut Graph, x: NodeId| {
            let t = g.tanh(x);
            let sq = g.mul(t, x);
            g.sum_all(sq)
        };
        let mut store = ParamStore::new(0);
        let id = store.register("x", x0.clone());
        store.accumulate_grad(id, &sample(3, 4, 4));

        let mut g = Graph::new(false, 0);
        let x = g.param(&store, "x");
        let loss = build(&mut g, x);
        let mut adam = crate::optim::Adam::new(0.1);
        adam.step(&mut store);
        store.zero_grad();
        assert_eq!(g.value(x), &x0, "the graph must keep the value it was built with");
        assert_ne!(store.value("x"), &x0, "the optimizer must update the store");
        assert_ne!(g.value(x).data().as_ptr(), store.value("x").data().as_ptr());

        // Backward through the outlived graph differentiates at the value
        // the graph saw, not the updated one.
        g.backward(loss, &mut store);
        let diff = store.grad("x").max_abs_diff(&numeric_grad(&x0, &build));
        assert!(diff < 1e-2, "gradient mismatch {diff}");
    }

    #[test]
    fn release_since_is_a_no_op_on_a_recording_graph() {
        let mut g = Graph::new(false, 0);
        let x = g.constant(sample(2, 3, 1));
        let mark = g.num_nodes();
        let y = g.tanh(x);
        let z = g.scale(y, 2.0);
        let before = g.value_bytes();
        g.release_since(mark, &[z]);
        assert_eq!(g.value_bytes(), before);
        assert!(g.value(y).all_finite(), "backward needs every recorded value");
    }

    #[test]
    fn release_since_frees_all_but_kept_nodes_on_an_inference_graph() {
        let mut store = ParamStore::new(0);
        store.register("w", sample(3, 3, 2));
        let mut g = Graph::inference();
        let x = g.constant(sample(2, 3, 1));
        let mark = g.num_nodes();
        let w = g.param(&store, "w");
        let y = g.matmul(x, w);
        let z = g.tanh(y);
        let expected = g.detach(z);
        g.release_since(mark, &[z]);
        assert_eq!(g.value(z), &expected, "kept nodes stay readable");
        assert_eq!(g.value(x).shape(), (2, 3), "nodes before the mark are untouched");
        assert_eq!(g.value_bytes(), 2 * (2 * 3) * std::mem::size_of::<f32>());
    }

    #[test]
    #[should_panic(expected = "release_since")]
    fn reading_a_released_node_names_release_since() {
        let mut g = Graph::inference();
        let x = g.constant(sample(2, 2, 1));
        let mark = g.num_nodes();
        let y = g.tanh(x);
        let z = g.scale(y, 2.0);
        g.release_since(mark, &[z]);
        let _ = g.value(y);
    }

    /// Lockstep between the op vocabulary and the transfer tables: exercise
    /// every computing op once and check (a) each records a transfer key,
    /// (b) every reduction-site op in `crate::transfer` is a real key.
    #[test]
    fn every_op_has_a_transfer_key_and_reduction_sites_match() {
        let mut store = ParamStore::new(0);
        store.register("w", sample(3, 3, 1));
        let mut g = Graph::new(true, 7);
        let a = g.param(&store, "w");
        let b = g.constant(sample(3, 3, 2));
        let bias = g.constant(sample(1, 3, 3));
        let col = g.constant(sample(3, 1, 4));
        let s = g.add(a, b);
        let s = g.sub(s, b);
        let s = g.mul(s, b);
        let s = g.add_bias(s, bias);
        let s = g.mul_bias(s, bias);
        let s = g.mul_col(s, col);
        let s = g.scale(s, 0.5);
        let s = g.add_scalar(s, 1.0);
        let s = g.matmul(s, b);
        let s = g.matmul_nt(s, b);
        let sig = g.sigmoid(s);
        let th = g.tanh(s);
        let re = g.relu(s);
        let sn = g.sin(s);
        let co = g.cos(s);
        let rr = g.rrelu(s);
        let ab = g.abs(s);
        let dr = g.dropout(s, 0.5);
        let mix = g.add_n(&[sig, th, re, sn, co, rr, ab, dr]);
        let gr = g.gather_rows(mix, Rc::new(vec![0, 2, 1]));
        let seg = Segments::new(vec![0, 2, 2, 3], vec![2, 0, 1], vec![0.5, -1.0, 2.0]);
        let ss = g.segment_sum(gr, Rc::new(seg));
        let rs = g.row_scale(ss, Rc::new(vec![0.5, 1.0, 2.0]));
        let cc = g.concat_cols(rs, b);
        let sl = g.slice_cols(cc, 0, 3);
        let sm = g.softmax_rows(sl);
        let gc = g.gather_cols(sm, Rc::new(vec![0, 1, 2]));
        let ln = g.ln(gc, 1e-6);
        let nr = g.normalize_rows(sl);
        let lnorm = g.layer_norm_rows(nr);
        let cw = g.constant(sample(2, 3, 5));
        let cb = g.constant(sample(1, 2, 6));
        let cv = g.conv1d(lnorm, cw, cb, 1, 2, 3);
        let xe = g.softmax_xent(cv, Rc::new(vec![0, 1, 2]));
        let srows = g.sum_rows(xe);
        let sall = g.sum_all(srows);
        let mall = g.mean_all(sall);
        let _ = (mall, ln);

        let keys = g.tape_transfer_keys();
        // Every non-input node recorded a key (the one `Param` node is on
        // the tape but is an input, not a computation).
        assert_eq!(keys.len() + 1, g.tape_ops());
        let expected = [
            "add",
            "sub",
            "mul",
            "add_bias",
            "mul_bias",
            "mul_col",
            "scale",
            "add_scalar",
            "matmul",
            "matmul_nt",
            "sigmoid",
            "tanh",
            "relu",
            "sin",
            "cos",
            "rrelu",
            "abs",
            "dropout",
            "add_n",
            "gather_rows",
            "segment_sum",
            "row_scale",
            "concat_cols",
            "slice_cols",
            "softmax_rows",
            "gather_cols",
            "ln",
            "normalize_rows",
            "layer_norm_rows",
            "conv1d",
            "softmax_xent",
            "sum_rows",
            "sum_all",
            "mean_all",
        ];
        for k in expected {
            assert!(keys.contains(&k), "op `{k}` missing from the recorded tape keys");
        }
        // The reduction-order map only names ops that exist.
        for site in crate::transfer::REDUCTION_SITES {
            assert!(
                expected.contains(&site.op),
                "reduction site `{} {}` names an unknown op",
                site.op,
                site.site
            );
        }
    }
}
