//! The op vocabulary the RETIA layers and model are written against.
//!
//! [`Ops`] has two implementations. [`Graph`] runs each op on tensors and
//! records the autodiff tape; `retia_analyze::AuditCtx` runs the same ops
//! over shapes and value intervals, without touching tensor data. Code
//! written once, generic over `O: Ops`, is both the real forward and its
//! `retia audit`, so the two cannot drift. Besides the ops (one entry point,
//! [`Ops::apply`], under per-op methods), the trait carries what differs
//! between the two runs: how inputs enter, how a precondition fails
//! ([`Ops::check`]), and how code is attributed.

use std::rc::Rc;

use retia_obs::SpanGuard;

use crate::autodiff::{Graph, NodeId};
use crate::param::ParamStore;
use crate::segments::Segments;
use crate::tensor::Tensor;

/// One op of the vocabulary over handles `I`, with the argument types the
/// real kernels take.
#[derive(Clone, Debug)]
pub enum OpCall<'a, I> {
    /// Elementwise `a + b`.
    Add(I, I),
    /// Elementwise `a - b`.
    Sub(I, I),
    /// Elementwise `a * b`.
    Mul(I, I),
    /// `x + bias`, `bias: [1, x.cols]`.
    AddBias(I, I),
    /// `x * c`, `c: [x.rows, 1]`.
    MulCol(I, I),
    /// `x * s`.
    Scale(I, f32),
    /// `x + s`.
    AddScalar(I, f32),
    /// `a @ b`.
    MatMul(I, I),
    /// `a @ b^T`.
    MatMulNT(I, I),
    /// 1-D convolution `(x, w, b, in_ch, out_ch, ksize)` with 'same'
    /// padding (see [`Graph::conv1d`]).
    Conv1d(I, I, I, usize, usize, usize),
    /// Logistic sigmoid.
    Sigmoid(I),
    /// Hyperbolic tangent.
    Tanh(I),
    /// Rectified linear unit.
    Relu(I),
    /// Randomized leaky ReLU.
    RRelu(I),
    /// Inverted dropout at the given rate.
    Dropout(I, f32),
    /// Row gather.
    GatherRows(I, Rc<Vec<u32>>),
    /// Constant sparse row operator.
    SegmentSum(I, Rc<Segments>),
    /// Row `i` times `weights[i]`.
    RowScale(I, Rc<Vec<f32>>),
    /// `[a | b]`.
    ConcatCols(I, I),
    /// Columns `start..end`.
    SliceCols(I, usize, usize),
    /// `out[i, 0] = x[i, cols[i]]`.
    GatherCols(I, Rc<Vec<u32>>),
    /// Row-wise softmax.
    SoftmaxRows(I),
    /// `ln(x + eps)`.
    Ln(I, f32),
    /// Mean of every element, `[1, 1]`.
    MeanAll(I),
    /// Per-row sums, `[rows, 1]`.
    SumRows(I),
    /// Sum of several same-shape tensors.
    AddN(&'a [I]),
    /// Row-wise L2 normalization.
    NormalizeRows(I),
    /// Row-wise layer normalization without affine parameters.
    LayerNormRows(I),
}

/// An execution of the op vocabulary: the real [`Graph`] or the abstract
/// audit (see the module docs). The provided defaults are an execution that
/// holds no data and reports no telemetry; [`Graph`] overrides them.
pub trait Ops {
    /// Handle to a value of this execution.
    type Id: Copy;

    /// Runs one op.
    fn apply(&mut self, call: OpCall<'_, Self::Id>) -> Self::Id;

    /// `(rows, cols)` of a value.
    fn shape(&self, x: Self::Id) -> (usize, usize);

    /// A layer precondition that no single op checks: a graph panics with
    /// `op: detail` unless `cond` holds; the audit records a shape finding
    /// and goes on.
    fn check(&mut self, op: &str, cond: bool, detail: impl FnOnce() -> String);

    /// Runs `f` under the finding path `name [eq]`: the audit's attribution
    /// of a model region. A graph runs `f` unchanged.
    fn frame<R>(&mut self, name: &str, eq: Option<&str>, f: impl FnOnce(&mut Self) -> R) -> R;

    /// A trainable parameter by its store name.
    fn param(&mut self, store: &ParamStore, name: &str) -> Self::Id;

    /// A parameter's current value entered as a constant: no gradient
    /// reaches the store (the ablations that freeze an embedding).
    fn frozen_param(&mut self, store: &ParamStore, name: &str) -> Self::Id;

    /// A constant zero `[rows, cols]` input.
    fn zeros(&mut self, rows: usize, cols: usize) -> Self::Id;

    /// Runs `f` inside the layer `name` (with its paper equation, if any).
    /// The audit attributes findings to `name [eq]`; a graph tags the
    /// thread with the module name for kernel diagnostics instead.
    fn scoped<R>(
        &mut self,
        name: &'static str,
        eq: Option<&str>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.frame(name, eq, f)
    }

    /// Opens a timing span (`retia_obs::span!`) where the execution is
    /// timed: on a graph.
    fn span(&self, _name: &str, _fields: &[(&str, f64)]) -> Option<SpanGuard> {
        None
    }

    /// Values created so far (a mark for [`Ops::release_since`]).
    fn num_nodes(&self) -> usize {
        0
    }

    /// Frees the values created since `mark` except `keep`, where the
    /// execution holds data (see [`Graph::release_since`]).
    fn release_since(&mut self, _mark: usize, _keep: &[Self::Id]) {}

    /// Elementwise `a + b` (same shape).
    fn add(&mut self, a: Self::Id, b: Self::Id) -> Self::Id {
        self.apply(OpCall::Add(a, b))
    }

    /// Elementwise `a - b` (same shape).
    fn sub(&mut self, a: Self::Id, b: Self::Id) -> Self::Id {
        self.apply(OpCall::Sub(a, b))
    }

    /// Elementwise `a * b` (same shape).
    fn mul(&mut self, a: Self::Id, b: Self::Id) -> Self::Id {
        self.apply(OpCall::Mul(a, b))
    }

    /// `x + bias`, `bias: [1, x.cols]` broadcast over rows.
    fn add_bias(&mut self, x: Self::Id, bias: Self::Id) -> Self::Id {
        self.apply(OpCall::AddBias(x, bias))
    }

    /// `x * c`, `c: [x.rows, 1]` broadcast over columns.
    fn mul_col(&mut self, x: Self::Id, c: Self::Id) -> Self::Id {
        self.apply(OpCall::MulCol(x, c))
    }

    /// `x * s`.
    fn scale(&mut self, x: Self::Id, s: f32) -> Self::Id {
        self.apply(OpCall::Scale(x, s))
    }

    /// `x + s`.
    fn add_scalar(&mut self, x: Self::Id, s: f32) -> Self::Id {
        self.apply(OpCall::AddScalar(x, s))
    }

    /// `a @ b`.
    fn matmul(&mut self, a: Self::Id, b: Self::Id) -> Self::Id {
        self.apply(OpCall::MatMul(a, b))
    }

    /// `a @ b^T`.
    fn matmul_nt(&mut self, a: Self::Id, b: Self::Id) -> Self::Id {
        self.apply(OpCall::MatMulNT(a, b))
    }

    /// 1-D convolution with 'same' padding (see [`Graph::conv1d`]).
    fn conv1d(
        &mut self,
        x: Self::Id,
        w: Self::Id,
        b: Self::Id,
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
    ) -> Self::Id {
        self.apply(OpCall::Conv1d(x, w, b, in_ch, out_ch, ksize))
    }

    /// Logistic sigmoid.
    fn sigmoid(&mut self, x: Self::Id) -> Self::Id {
        self.apply(OpCall::Sigmoid(x))
    }

    /// Hyperbolic tangent.
    fn tanh(&mut self, x: Self::Id) -> Self::Id {
        self.apply(OpCall::Tanh(x))
    }

    /// Rectified linear unit.
    fn relu(&mut self, x: Self::Id) -> Self::Id {
        self.apply(OpCall::Relu(x))
    }

    /// Randomized leaky ReLU (see [`Graph::rrelu`]).
    fn rrelu(&mut self, x: Self::Id) -> Self::Id {
        self.apply(OpCall::RRelu(x))
    }

    /// Inverted dropout at rate `p` (see [`Graph::dropout`]).
    fn dropout(&mut self, x: Self::Id, p: f32) -> Self::Id {
        self.apply(OpCall::Dropout(x, p))
    }

    /// Rows of `x` by index.
    fn gather_rows(&mut self, x: Self::Id, indices: Rc<Vec<u32>>) -> Self::Id {
        self.apply(OpCall::GatherRows(x, indices))
    }

    /// The constant sparse row operator `seg` applied to `x`.
    fn segment_sum(&mut self, x: Self::Id, seg: Rc<Segments>) -> Self::Id {
        self.apply(OpCall::SegmentSum(x, seg))
    }

    /// Row `i` of `x` times `weights[i]`.
    fn row_scale(&mut self, x: Self::Id, weights: Rc<Vec<f32>>) -> Self::Id {
        self.apply(OpCall::RowScale(x, weights))
    }

    /// Horizontal concatenation `[a | b]`.
    fn concat_cols(&mut self, a: Self::Id, b: Self::Id) -> Self::Id {
        self.apply(OpCall::ConcatCols(a, b))
    }

    /// Columns `start..end` of `x`.
    fn slice_cols(&mut self, x: Self::Id, start: usize, end: usize) -> Self::Id {
        self.apply(OpCall::SliceCols(x, start, end))
    }

    /// `out[i, 0] = x[i, cols[i]]`.
    fn gather_cols(&mut self, x: Self::Id, cols: Rc<Vec<u32>>) -> Self::Id {
        self.apply(OpCall::GatherCols(x, cols))
    }

    /// Row-wise softmax.
    fn softmax_rows(&mut self, x: Self::Id) -> Self::Id {
        self.apply(OpCall::SoftmaxRows(x))
    }

    /// `ln(x + eps)`.
    fn ln(&mut self, x: Self::Id, eps: f32) -> Self::Id {
        self.apply(OpCall::Ln(x, eps))
    }

    /// Mean of every element, as `[1, 1]`.
    fn mean_all(&mut self, x: Self::Id) -> Self::Id {
        self.apply(OpCall::MeanAll(x))
    }

    /// Per-row sums, `[rows, 1]`.
    fn sum_rows(&mut self, x: Self::Id) -> Self::Id {
        self.apply(OpCall::SumRows(x))
    }

    /// Sum of several same-shape tensors.
    fn add_n(&mut self, xs: &[Self::Id]) -> Self::Id {
        self.apply(OpCall::AddN(xs))
    }

    /// Row-wise L2 normalization.
    fn normalize_rows(&mut self, x: Self::Id) -> Self::Id {
        self.apply(OpCall::NormalizeRows(x))
    }

    /// Row-wise layer normalization without affine parameters.
    fn layer_norm_rows(&mut self, x: Self::Id) -> Self::Id {
        self.apply(OpCall::LayerNormRows(x))
    }
}

/// The real execution: each op is the graph's own inherent op.
impl Ops for Graph {
    type Id = NodeId;

    fn apply(&mut self, call: OpCall<'_, NodeId>) -> NodeId {
        match call {
            OpCall::Add(a, b) => Graph::add(self, a, b),
            OpCall::Sub(a, b) => Graph::sub(self, a, b),
            OpCall::Mul(a, b) => Graph::mul(self, a, b),
            OpCall::AddBias(x, b) => Graph::add_bias(self, x, b),
            OpCall::MulCol(x, c) => Graph::mul_col(self, x, c),
            OpCall::Scale(x, s) => Graph::scale(self, x, s),
            OpCall::AddScalar(x, s) => Graph::add_scalar(self, x, s),
            OpCall::MatMul(a, b) => Graph::matmul(self, a, b),
            OpCall::MatMulNT(a, b) => Graph::matmul_nt(self, a, b),
            OpCall::Conv1d(x, w, b, i, o, k) => Graph::conv1d(self, x, w, b, i, o, k),
            OpCall::Sigmoid(x) => Graph::sigmoid(self, x),
            OpCall::Tanh(x) => Graph::tanh(self, x),
            OpCall::Relu(x) => Graph::relu(self, x),
            OpCall::RRelu(x) => Graph::rrelu(self, x),
            OpCall::Dropout(x, p) => Graph::dropout(self, x, p),
            OpCall::GatherRows(x, idx) => Graph::gather_rows(self, x, idx),
            OpCall::SegmentSum(x, seg) => Graph::segment_sum(self, x, seg),
            OpCall::RowScale(x, w) => Graph::row_scale(self, x, w),
            OpCall::ConcatCols(a, b) => Graph::concat_cols(self, a, b),
            OpCall::SliceCols(x, start, end) => Graph::slice_cols(self, x, start, end),
            OpCall::GatherCols(x, cols) => Graph::gather_cols(self, x, cols),
            OpCall::SoftmaxRows(x) => Graph::softmax_rows(self, x),
            OpCall::Ln(x, eps) => Graph::ln(self, x, eps),
            OpCall::MeanAll(x) => Graph::mean_all(self, x),
            OpCall::SumRows(x) => Graph::sum_rows(self, x),
            OpCall::AddN(xs) => Graph::add_n(self, xs),
            OpCall::NormalizeRows(x) => Graph::normalize_rows(self, x),
            OpCall::LayerNormRows(x) => Graph::layer_norm_rows(self, x),
        }
    }

    fn shape(&self, x: NodeId) -> (usize, usize) {
        self.value(x).shape()
    }

    fn check(&mut self, op: &str, cond: bool, detail: impl FnOnce() -> String) {
        assert!(cond, "{op}: {}", detail());
    }

    fn frame<R>(&mut self, _name: &str, _eq: Option<&str>, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    fn param(&mut self, store: &ParamStore, name: &str) -> NodeId {
        Graph::param(self, store, name)
    }

    fn frozen_param(&mut self, store: &ParamStore, name: &str) -> NodeId {
        self.constant(store.value(name).clone())
    }

    fn zeros(&mut self, rows: usize, cols: usize) -> NodeId {
        self.constant(Tensor::zeros(rows, cols))
    }

    fn scoped<R>(
        &mut self,
        name: &'static str,
        _eq: Option<&str>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let _m = retia_obs::module_scope(name);
        f(self)
    }

    fn span(&self, name: &str, fields: &[(&str, f64)]) -> Option<SpanGuard> {
        Some(SpanGuard::enter(name, fields))
    }

    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }

    fn release_since(&mut self, mark: usize, keep: &[NodeId]) {
        Graph::release_since(self, mark, keep);
    }
}
