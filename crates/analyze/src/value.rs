//! The abstract interpreter behind `retia audit`.
//!
//! [`AuditCtx`] erases every tensor down to its shape and an [`Interval`] —
//! `[lo, hi]` bounds in f64 plus may-be-NaN / may-be-inf flags — and
//! implements [`retia_tensor::Ops`] over that domain using the per-op
//! transfer functions that live next to the kernels in
//! [`retia_tensor::transfer`]. The NN layers and the model step are written
//! once against that trait, so the audit runs the model's own forward code,
//! at any size, without touching tensor data. Four coupled analyses run
//! over one abstract execution:
//!
//! 1. **Shapes and index spaces**: every op checks the dimension and index
//!    preconditions its real kernel asserts (matmul inner dims, broadcast
//!    shapes, gather and segment-sum indices in range, ...). A failed check
//!    records an [`AuditKind::Shape`] finding and the op returns the shape
//!    it *would* have produced, so one pass collects every mismatch rather
//!    than the first. Layers add their own preconditions (row counts, edge
//!    ranges) through `Ops::check`, which panics on a real graph.
//! 2. **Finiteness**: any op whose abstract output admits NaN/inf *when its
//!    inputs did not* records an [`AuditIssue`] blaming the enclosing
//!    module/equation scope (the same poison-recovery discipline: the
//!    replay continues, downstream ops do not re-report inherited
//!    non-finiteness).
//! 3. **Gradient-flow reachability** ([`crate::gradflow`]): every op also
//!    records its input edges, building an abstract tape. After the loss is
//!    built, [`AuditCtx::check_gradient_flow`] walks it backward and
//!    reports trainable parameters the walk never reaches — unless they are
//!    declared frozen (with a reason) for the configuration under audit.
//!    Inference audits ([`AuditCtx::inference`]) use
//!    [`AuditCtx::check_no_trainable_params`] to prove the opposite: zero
//!    parameters on the tape at all.
//! 4. **Reduction-order sensitivity**: [`AuditCtx::reorder`] declares an
//!    intent to reorder a kernel loop (sharding, vectorization) and checks
//!    it against `retia_tensor::transfer::REDUCTION_SITES` — reordering an
//!    order-sensitive accumulation is a finding.

use std::fmt;

use retia_tensor::transfer::{self, Interval};
use retia_tensor::{OpCall, Ops, ParamStore};

use crate::gradflow;

/// Assumed magnitude envelope for trained parameters (and the entity /
/// relation embeddings they initialize). Xavier init keeps weights well
/// under 1 and the optimizer clips gradients, so |w| <= 8 is generous; the
/// audit proves finiteness of the whole model step under this envelope.
pub const PARAM_BOUND: f64 = 8.0;

/// Handle to an abstract tensor inside an [`AuditCtx`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbsId(usize);

/// One node of the abstract tape: shape + interval + backward edges.
#[derive(Clone, Debug)]
pub(crate) struct AbsNode {
    pub rows: usize,
    pub cols: usize,
    pub iv: Interval,
    pub inputs: Vec<usize>,
    /// `Some(store_name)` when this node is a trainable parameter input.
    pub param: Option<String>,
    /// Scope path active when the node was created (used to blame
    /// unreachable parameters at their declaration site).
    pub path: String,
}

/// Which analysis a finding belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditKind {
    /// A dimension or index-space precondition fails.
    Shape,
    /// The op's abstract output admits NaN or `±inf`.
    NonFinite,
    /// Gradient-flow reachability disagrees with the declared frozen set.
    GradFlow,
    /// An undeclared (or unsound) reduction reorder.
    Reorder,
}

impl AuditKind {
    pub fn as_str(self) -> &'static str {
        match self {
            AuditKind::Shape => "shape",
            AuditKind::NonFinite => "non-finite",
            AuditKind::GradFlow => "gradient-flow",
            AuditKind::Reorder => "reduction-order",
        }
    }
}

/// One audit finding, tagged with the module/equation scope path.
#[derive(Clone, Debug)]
pub struct AuditIssue {
    /// Module/equation scope path active when the check failed.
    pub path: String,
    /// The op (or parameter) that failed.
    pub op: String,
    pub kind: AuditKind,
    /// Human-readable description with the offending abstract values.
    pub detail: String,
}

impl fmt::Display for AuditIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{} {}: {}", self.kind.as_str(), self.op, self.detail)
        } else {
            write!(f, "[{}] {} {}: {}", self.path, self.kind.as_str(), self.op, self.detail)
        }
    }
}

/// A parameter expected to receive no gradient under the audited
/// configuration, with the ablation flag that freezes it.
#[derive(Clone, Debug)]
pub struct FrozenParam {
    pub name: String,
    pub reason: String,
}

impl FrozenParam {
    pub fn new(name: impl Into<String>, reason: impl Into<String>) -> Self {
        FrozenParam { name: name.into(), reason: reason.into() }
    }
}

/// A declared detach boundary (e.g. `FrozenModel` snapshotting evolved
/// states): the backward walk is *supposed* to stop here.
#[derive(Clone, Debug)]
pub struct DeclaredDetach {
    /// Scope path of the detach site.
    pub path: String,
    pub reason: String,
}

/// Outcome of a completed value-domain replay.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    pub issues: Vec<AuditIssue>,
    /// Number of op/flow checks performed (distinguishes "0 issues" from
    /// "0 checks").
    pub ops_checked: usize,
    /// Distinct trainable parameters declared on the abstract tape.
    pub params_declared: usize,
    /// Distinct parameters reached by the backward walk from the loss.
    pub params_reached: usize,
    /// Detach boundaries that were declared (not findings).
    pub detaches: Vec<DeclaredDetach>,
}

impl AuditReport {
    /// True when the replay found no findings.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} audit finding(s) in {} checked op(s) ({} param(s) declared, {} reached):",
            self.issues.len(),
            self.ops_checked,
            self.params_declared,
            self.params_reached
        )?;
        for issue in &self.issues {
            writeln!(f, "  - {issue}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AuditReport {}

/// The abstract interpreter: the second implementation of
/// [`retia_tensor::Ops`]. Ops record findings instead of panicking and
/// return the abstract value they would have produced, so one pass collects
/// everything.
#[derive(Debug, Default)]
pub struct AuditCtx {
    scope: Vec<String>,
    issues: Vec<AuditIssue>,
    ops_checked: usize,
    nodes: Vec<AbsNode>,
    detaches: Vec<DeclaredDetach>,
    params_declared: usize,
    params_reached: usize,
    /// Parameters enter as constant sources, as a `Graph::inference` graph
    /// records no tape.
    inference: bool,
}

impl AuditCtx {
    pub fn new() -> Self {
        Self::default()
    }

    /// The audit of an inference graph: every parameter enters as a
    /// constant source under the [`PARAM_BOUND`] envelope, so
    /// [`AuditCtx::check_no_trainable_params`] can prove the tape holds
    /// none.
    pub fn inference() -> Self {
        AuditCtx { inference: true, ..Self::default() }
    }

    /// Pushes `module` (and optionally a paper-equation tag) onto the scope
    /// path that findings are attributed to, until [`AuditCtx::pop_scope`].
    pub fn push_scope(&mut self, module: &str, equation: Option<&str>) {
        self.scope.push(match equation {
            Some(eq) => format!("{module} [{eq}]"),
            None => module.to_string(),
        });
    }

    /// Pops the innermost scope frame.
    pub fn pop_scope(&mut self) {
        self.scope.pop();
    }

    /// Number of op/flow checks performed so far.
    pub fn ops_checked(&self) -> usize {
        self.ops_checked
    }

    /// Findings recorded so far (drained by [`AuditCtx::finish`]).
    pub fn issues(&self) -> &[AuditIssue] {
        &self.issues
    }

    /// Consumes the context into an [`AuditReport`].
    pub fn finish(self) -> AuditReport {
        AuditReport {
            issues: self.issues,
            ops_checked: self.ops_checked,
            params_declared: self.params_declared,
            params_reached: self.params_reached,
            detaches: self.detaches,
        }
    }

    // ---- inputs -----------------------------------------------------------

    fn push(&mut self, rows: usize, cols: usize, iv: Interval, inputs: Vec<usize>) -> AbsId {
        self.nodes.push(AbsNode {
            rows,
            cols,
            iv,
            inputs,
            param: None,
            path: self.scope.join(" / "),
        });
        AbsId(self.nodes.len() - 1)
    }

    /// A non-trainable input (constants, data tensors, frozen states) with
    /// a declared value envelope.
    pub fn source(&mut self, rows: usize, cols: usize, iv: Interval) -> AbsId {
        self.push(rows, cols, iv, Vec::new())
    }

    /// A trainable parameter, by its `ParamStore` name, bounded by the
    /// [`PARAM_BOUND`] envelope. Declaring the same name at several sites
    /// (as the per-snapshot loops do) references one parameter.
    pub(crate) fn declare_param(&mut self, name: &str, rows: usize, cols: usize) -> AbsId {
        let id = self.push(rows, cols, param_envelope(), Vec::new());
        self.nodes[id.0].param = Some(name.to_string());
        id
    }

    /// A *declared* detach boundary: the value flows forward but the
    /// backward walk stops here, and that is intentional (`reason` lands in
    /// the report's detach table, not in the findings).
    pub fn detach(&mut self, x: AbsId, reason: &str) -> AbsId {
        let (rows, cols, iv) = {
            let n = &self.nodes[x.0];
            (n.rows, n.cols, n.iv)
        };
        let id = self.push(rows, cols, iv, Vec::new());
        self.detaches
            .push(DeclaredDetach { path: self.nodes[id.0].path.clone(), reason: reason.into() });
        id
    }

    /// The abstract value of a node.
    pub fn interval(&self, x: AbsId) -> Interval {
        self.nodes[x.0].iv
    }

    // ---- finding machinery ------------------------------------------------

    fn record(&mut self, kind: AuditKind, op: impl Into<String>, detail: String) {
        self.issues.push(AuditIssue { path: self.scope.join(" / "), op: op.into(), kind, detail });
    }

    /// Registers the output of op `key` over `inputs`: flags a finiteness
    /// finding iff the op *introduces* non-finiteness (all inputs finite,
    /// output admits NaN/inf), then pushes the node so the replay continues.
    fn op(
        &mut self,
        key: &'static str,
        inputs: &[AbsId],
        (rows, cols): (usize, usize),
        iv: Interval,
    ) -> AbsId {
        self.ops_checked += 1;
        let inputs_finite = inputs.iter().all(|i| {
            let n = &self.nodes[i.0];
            !n.iv.nan && !n.iv.inf
        });
        if inputs_finite && (iv.nan || iv.inf) {
            let what = match (iv.nan, iv.inf) {
                (true, true) => "NaN and inf",
                (true, false) => "NaN",
                _ => "inf",
            };
            self.record(
                AuditKind::NonFinite,
                key,
                format!("abstract output {iv} admits {what} from finite inputs"),
            );
        }
        self.push(rows, cols, iv, inputs.iter().map(|i| i.0).collect())
    }

    /// An op over `x` alone that keeps its shape.
    fn map(&mut self, key: &'static str, x: AbsId, f: impl FnOnce(Interval) -> Interval) -> AbsId {
        let iv = f(self.interval(x));
        self.op(key, &[x], self.shape(x), iv)
    }

    /// An elementwise op over two operands of equal shape.
    fn zip(&mut self, key: &'static str, a: AbsId, b: AbsId, f: Transfer2) -> AbsId {
        self.same_shape(key, a, b);
        self.op(key, &[a, b], self.shape(a), f(self.interval(a), self.interval(b)))
    }

    fn same_shape(&mut self, op: &str, a: AbsId, b: AbsId) {
        let (sa, sb) = (self.shape(a), self.shape(b));
        self.check(op, sa == sb, || format!("operand shapes differ: {} vs {}", dims(sa), dims(sb)));
    }

    /// A row broadcast: `w` must be `[1, x.cols]`.
    fn row_broadcast(&mut self, key: &'static str, x: AbsId, w: AbsId, f: Transfer2) -> AbsId {
        let (sx, sw) = (self.shape(x), self.shape(w));
        self.check(key, sw == (1, sx.1), || {
            format!("{} does not broadcast over {}", dims(sw), dims(sx))
        });
        self.op(key, &[x, w], sx, f(self.interval(x), self.interval(w)))
    }

    /// One index per row of `x`, each addressing a column of `x` (the
    /// `gather_cols` and `softmax_xent` target lists).
    fn one_per_row(&mut self, op: &str, x: AbsId, cols: &[u32]) {
        let (rows, width) = self.shape(x);
        self.check(op, cols.len() == rows, || {
            format!("{} column indices for {rows} rows", cols.len())
        });
        let bad = cols.iter().find(|&&c| c as usize >= width);
        self.check(op, bad.is_none(), || {
            format!("column index {} out of range for {width} columns", bad.unwrap_or(&0))
        });
    }

    // ---- ops outside the model's vocabulary (property tests) -------------

    /// Row-broadcast multiply (`w: [1, x.cols]`).
    pub fn mul_bias(&mut self, x: AbsId, w: AbsId) -> AbsId {
        self.row_broadcast("mul_bias", x, w, transfer::mul)
    }

    pub fn sum_all(&mut self, x: AbsId) -> AbsId {
        let (r, c) = self.shape(x);
        let iv = transfer::sum(self.interval(x), r * c);
        self.op("sum_all", &[x], (1, 1), iv)
    }

    /// Unguarded exponential — the overflow rule flags any input that can
    /// exceed `ln(f32::MAX)`. The shipped model has no bare `exp`; this is
    /// the op the audit exists to veto in future kernels.
    pub fn exp(&mut self, x: AbsId) -> AbsId {
        self.map("exp", x, transfer::exp)
    }

    /// Elementwise division — pole rule from [`transfer::div`].
    pub fn div(&mut self, a: AbsId, b: AbsId) -> AbsId {
        self.zip("div", a, b, transfer::div)
    }

    /// Fused softmax + cross-entropy, one target class per logit row: the
    /// per-row losses `[rows, 1]`.
    pub fn softmax_xent(&mut self, x: AbsId, targets: &[u32]) -> AbsId {
        self.one_per_row("softmax_xent", x, targets);
        let iv = transfer::softmax_xent(self.interval(x));
        self.op("softmax_xent", &[x], (self.shape(x).0, 1), iv)
    }

    // ---- reduction-order declarations ------------------------------------

    /// Declares an intent to reorder the `site` loop of op `op` (sharding /
    /// vectorization). Checked against the sensitivity map: reordering an
    /// order-sensitive accumulation, or a loop the map does not know,
    /// records a finding.
    pub fn reorder(&mut self, op: &str, site: &str) {
        self.ops_checked += 1;
        match transfer::reduction_site(op, site) {
            None => self.record(
                AuditKind::Reorder,
                format!("{op}/{site}"),
                "not a known reduction site — add it to \
                 retia_tensor::transfer::REDUCTION_SITES first"
                    .to_string(),
            ),
            Some(s) if s.order == transfer::ReductionOrder::Sensitive => self.record(
                AuditKind::Reorder,
                format!("{op}/{site}"),
                format!("reorders an order-sensitive accumulation ({})", s.note),
            ),
            Some(_) => {}
        }
    }

    // ---- gradient flow ----------------------------------------------------

    /// Walks the abstract tape backward from `loss` and reconciles the
    /// reached parameter set with the declared frozen set: an expected-
    /// trainable parameter the walk misses is a finding (blamed at its
    /// declaration scope), as is an expected-frozen parameter the walk
    /// reaches. Backprop starts from a scalar, so `loss` must be `[1, 1]`.
    pub fn check_gradient_flow(&mut self, loss: AbsId, frozen: &[FrozenParam]) {
        let shape = self.shape(loss);
        self.check("backward", shape == (1, 1), || {
            format!("loss is {}, expected the scalar [1, 1]", dims(shape))
        });
        let reached = gradflow::reachable(&self.nodes, loss.0);
        let flows = gradflow::param_flows(&self.nodes, &reached);
        self.params_declared = flows.len();
        self.params_reached = flows.iter().filter(|p| p.reached).count();
        for p in &flows {
            self.ops_checked += 1;
            let frozen_reason = frozen.iter().find(|f| f.name == p.name).map(|f| &f.reason);
            match (p.reached, frozen_reason) {
                (false, None) => self.issues.push(AuditIssue {
                    path: p.path.clone(),
                    op: format!("param `{}`", p.name),
                    kind: AuditKind::GradFlow,
                    detail: "trainable parameter is never reached by the backward walk \
                             from the loss (detached or unused); declare it frozen for \
                             this configuration or fix the wiring"
                        .to_string(),
                }),
                (true, Some(reason)) => self.issues.push(AuditIssue {
                    path: p.path.clone(),
                    op: format!("param `{}`", p.name),
                    kind: AuditKind::GradFlow,
                    detail: format!("declared frozen ({reason}) but the backward walk reaches it"),
                }),
                _ => {}
            }
        }
    }

    /// Names of every distinct parameter declared on the abstract tape.
    pub fn declared_param_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.nodes.iter().filter_map(|n| n.param.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Inference-graph proof: records a finding for every trainable
    /// parameter on the tape (there must be none — `Graph::inference`
    /// stores leaves only, so a parameter here means the serving path would
    /// allocate backward state).
    pub fn check_no_trainable_params(&mut self) {
        self.ops_checked += 1;
        for name in self.declared_param_names() {
            let path = self
                .nodes
                .iter()
                .find(|n| n.param.as_deref() == Some(name.as_str()))
                .map(|n| n.path.clone())
                .unwrap_or_default();
            self.issues.push(AuditIssue {
                path,
                op: format!("param `{name}`"),
                kind: AuditKind::GradFlow,
                detail: "inference graph must prove zero reachable parameters, but this \
                         parameter is on the abstract tape"
                    .to_string(),
            });
        }
    }
}

/// The abstract execution of the shared layer and model code: each op
/// checks its kernel's shape and index preconditions and applies its
/// transfer function.
impl Ops for AuditCtx {
    type Id = AbsId;

    fn apply(&mut self, call: OpCall<'_, AbsId>) -> AbsId {
        match call {
            OpCall::Add(a, b) => self.zip("add", a, b, transfer::add),
            OpCall::Sub(a, b) => self.zip("sub", a, b, transfer::sub),
            OpCall::Mul(a, b) => self.zip("mul", a, b, transfer::mul),
            OpCall::AddBias(x, b) => self.row_broadcast("add_bias", x, b, transfer::add),
            OpCall::MulCol(x, c) => {
                let (sx, sc) = (self.shape(x), self.shape(c));
                self.check("mul_col", sc == (sx.0, 1), || {
                    format!("column {} does not broadcast over {}", dims(sc), dims(sx))
                });
                self.op("mul_col", &[x, c], sx, transfer::mul(self.interval(x), self.interval(c)))
            }
            OpCall::Scale(x, s) => self.map("scale", x, |iv| transfer::scale(iv, f64::from(s))),
            OpCall::AddScalar(x, s) => {
                self.map("add_scalar", x, |iv| transfer::add_scalar(iv, f64::from(s)))
            }
            OpCall::MatMul(a, b) => {
                let ((ar, k), (br, bc)) = (self.shape(a), self.shape(b));
                self.check("matmul", k == br, || {
                    format!("inner dims differ: {} x {}", dims((ar, k)), dims((br, bc)))
                });
                self.op(
                    "matmul",
                    &[a, b],
                    (ar, bc),
                    transfer::dot(self.interval(a), self.interval(b), k),
                )
            }
            OpCall::MatMulNT(a, b) => {
                let ((ar, k), (br, bc)) = (self.shape(a), self.shape(b));
                self.check("matmul_nt", k == bc, || {
                    format!("column counts differ: {} x {}^T", dims((ar, k)), dims((br, bc)))
                });
                self.op(
                    "matmul_nt",
                    &[a, b],
                    (ar, br),
                    transfer::dot(self.interval(a), self.interval(b), k),
                )
            }
            OpCall::Conv1d(x, w, b, in_ch, out_ch, ksize) => {
                // 'same' padding over `[batch, in_ch * width]` rows:
                // accumulation over `in_ch * ksize` taps plus the bias.
                let ((rows, cols), sw, sb) = (self.shape(x), self.shape(w), self.shape(b));
                self.check("conv1d", in_ch > 0 && cols.is_multiple_of(in_ch), || {
                    format!("input width {cols} is not a multiple of in_ch={in_ch}")
                });
                let taps = in_ch * ksize;
                self.check("conv1d", sw == (out_ch, taps), || {
                    format!("kernel is {}, expected [{out_ch}, {taps}] for ksize={ksize}", dims(sw))
                });
                self.check("conv1d", sb == (1, out_ch), || {
                    format!("bias is {}, expected [1, {out_ch}]", dims(sb))
                });
                let acc = transfer::dot(self.interval(x), self.interval(w), taps);
                let width = cols.checked_div(in_ch).unwrap_or(0);
                let iv = transfer::add(acc, self.interval(b));
                self.op("conv1d", &[x, w, b], (rows, out_ch * width), iv)
            }
            OpCall::Sigmoid(x) => self.map("sigmoid", x, transfer::sigmoid),
            OpCall::Tanh(x) => self.map("tanh", x, transfer::tanh),
            OpCall::Relu(x) => self.map("relu", x, transfer::relu),
            OpCall::RRelu(x) => self.map("rrelu", x, transfer::rrelu),
            OpCall::Dropout(x, p) => {
                self.map("dropout", x, |iv| transfer::dropout(iv, f64::from(p)))
            }
            OpCall::GatherRows(x, indices) => {
                let (rows, c) = self.shape(x);
                let bad = indices.iter().find(|&&i| i as usize >= rows);
                self.check("gather_rows", bad.is_none(), || {
                    format!("index {} out of range for {rows} rows", bad.unwrap_or(&0))
                });
                self.op("gather_rows", &[x], (indices.len(), c), self.interval(x))
            }
            OpCall::SegmentSum(x, seg) => {
                // Bounded by the operator's measured per-row weight mass.
                let (rows, c) = self.shape(x);
                let bad = seg.cols().iter().find(|&&i| i as usize >= rows);
                self.check("segment_sum", bad.is_none(), || {
                    format!("column index {} out of range for {rows} rows", bad.unwrap_or(&0))
                });
                let iv = transfer::segment_sum(self.interval(x), seg.mass());
                self.op("segment_sum", &[x], (seg.num_rows(), c), iv)
            }
            OpCall::RowScale(x, weights) => {
                let r = self.shape(x).0;
                self.check("row_scale", weights.len() == r, || {
                    format!("{} weights for {r} rows", weights.len())
                });
                self.map("row_scale", x, |iv| transfer::mul(iv, spanning(&weights)))
            }
            OpCall::ConcatCols(a, b) => {
                let ((r, ac), (br, bc)) = (self.shape(a), self.shape(b));
                self.check("concat_cols", r == br, || {
                    format!("row counts differ: {} vs {}", dims((r, ac)), dims((br, bc)))
                });
                self.op(
                    "concat_cols",
                    &[a, b],
                    (r, ac + bc),
                    self.interval(a).hull(self.interval(b)),
                )
            }
            OpCall::SliceCols(x, start, end) => {
                let (r, c) = self.shape(x);
                self.check("slice_cols", start <= end && end <= c, || {
                    format!("slice {start}..{end} out of range for {c} columns")
                });
                self.op("slice_cols", &[x], (r, end.saturating_sub(start)), self.interval(x))
            }
            OpCall::GatherCols(x, cols) => {
                self.one_per_row("gather_cols", x, &cols);
                self.op("gather_cols", &[x], (self.shape(x).0, 1), self.interval(x))
            }
            OpCall::SoftmaxRows(x) => self.map("softmax_rows", x, transfer::softmax),
            OpCall::Ln(x, eps) => self.map("ln", x, |iv| transfer::ln(iv, f64::from(eps))),
            OpCall::MeanAll(x) => {
                let (r, c) = self.shape(x);
                self.check("mean_all", r > 0 && c > 0, || {
                    format!("mean of empty tensor {}", dims((r, c)))
                });
                self.op("mean_all", &[x], (1, 1), transfer::mean(self.interval(x)))
            }
            OpCall::SumRows(x) => {
                let (r, c) = self.shape(x);
                self.op("sum_rows", &[x], (r, 1), transfer::sum(self.interval(x), c))
            }
            OpCall::AddN(xs) => {
                self.check("add_n", !xs.is_empty(), || "needs at least one input".to_string());
                for pair in xs.windows(2) {
                    self.same_shape("add_n", pair[0], pair[1]);
                }
                let ivs: Vec<Interval> = xs.iter().map(|x| self.interval(*x)).collect();
                let shape = xs.first().map_or((0, 0), |x| self.shape(*x));
                self.op("add_n", xs, shape, transfer::add_n(&ivs))
            }
            OpCall::NormalizeRows(x) => self.map("normalize_rows", x, transfer::normalize_rows),
            OpCall::LayerNormRows(x) => {
                let c = self.shape(x).1;
                self.map("layer_norm_rows", x, |iv| transfer::layer_norm(iv, c))
            }
        }
    }

    fn shape(&self, x: AbsId) -> (usize, usize) {
        (self.nodes[x.0].rows, self.nodes[x.0].cols)
    }

    /// Records an [`AuditKind::Shape`] finding against `op` unless `cond`
    /// holds, and goes on.
    fn check(&mut self, op: &str, cond: bool, detail: impl FnOnce() -> String) {
        if !cond {
            self.record(AuditKind::Shape, op, detail());
        }
    }

    fn frame<R>(&mut self, name: &str, eq: Option<&str>, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_scope(name, eq);
        let out = f(self);
        self.pop_scope();
        out
    }

    /// Declared by its store name and shape (the value is never read).
    fn param(&mut self, store: &ParamStore, name: &str) -> AbsId {
        if self.inference {
            return self.frozen_param(store, name);
        }
        let (rows, cols) = store.value(name).shape();
        self.declare_param(name, rows, cols)
    }

    fn frozen_param(&mut self, store: &ParamStore, name: &str) -> AbsId {
        let (rows, cols) = store.value(name).shape();
        self.source(rows, cols, param_envelope())
    }

    fn zeros(&mut self, rows: usize, cols: usize) -> AbsId {
        self.source(rows, cols, Interval::point(0.0))
    }
}

/// A two-operand transfer function.
type Transfer2 = fn(Interval, Interval) -> Interval;

/// The value envelope of a parameter: `[-PARAM_BOUND, PARAM_BOUND]`.
fn param_envelope() -> Interval {
    Interval::new(-PARAM_BOUND, PARAM_BOUND)
}

/// The smallest interval holding every value in `values` (a point at zero
/// when there are none: nothing is multiplied by it).
fn spanning(values: &[f32]) -> Interval {
    let points = values.iter().map(|&v| Interval::point(f64::from(v)));
    points.reduce(Interval::hull).unwrap_or(Interval::point(0.0))
}

/// `[rows, cols]`, the way findings print a shape.
fn dims((rows, cols): (usize, usize)) -> String {
    format!("[{rows}, {cols}]")
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;

    /// A `[rows, cols]` source inside `[-1, 1]`.
    fn src(ctx: &mut AuditCtx, rows: usize, cols: usize) -> AbsId {
        ctx.source(rows, cols, Interval::new(-1.0, 1.0))
    }

    #[test]
    fn shape_mismatches_are_recorded_not_fatal() {
        let mut ctx = AuditCtx::new();
        let (a, b) = (src(&mut ctx, 2, 3), src(&mut ctx, 4, 5));
        // The finding is recorded and the op returns the shape it would
        // have produced, so the replay goes on and finds the next mismatch.
        let y = ctx.scoped("eam.rgcn", Some("Eq. 4"), |ctx| {
            ctx.scoped("layer 0", None, |ctx| ctx.matmul(a, b))
        });
        assert_eq!(ctx.shape(y), (2, 5));
        let z = src(&mut ctx, 9, 9);
        let sum = ctx.add(y, z);
        assert_eq!(ctx.shape(sum), (2, 5));
        let report = ctx.finish();
        assert_eq!(report.issues.len(), 2, "{report}");
        let first = &report.issues[0];
        assert_eq!((first.kind, first.op.as_str()), (AuditKind::Shape, "matmul"));
        assert_eq!(
            first.to_string(),
            "[eam.rgcn [Eq. 4] / layer 0] shape matmul: inner dims differ: [2, 3] x [4, 5]"
        );
    }

    #[test]
    fn every_op_checks_its_kernel_preconditions() {
        // One violation per op. That valid uses raise nothing is checked
        // against real execution in tests/value_soundness.rs.
        let mut ctx = AuditCtx::new();
        let x = src(&mut ctx, 4, 3);
        let (row, col, wide) = (src(&mut ctx, 1, 3), src(&mut ctx, 4, 1), src(&mut ctx, 5, 3));
        let (kernel, bias) = (src(&mut ctx, 16, 6), src(&mut ctx, 1, 16));
        ctx.add_bias(x, col);
        ctx.mul_col(x, row);
        ctx.matmul_nt(x, col);
        ctx.concat_cols(x, wide);
        ctx.slice_cols(x, 2, 4);
        ctx.row_scale(x, Rc::new(vec![0.5; 3]));
        ctx.conv1d(x, kernel, bias, 2, 16, 3);
        ctx.softmax_xent(x, &[0, 1]);
        ctx.add_n(&[x, wide]);
        ctx.check_gradient_flow(x, &[]);
        let report = ctx.finish();
        assert!(report.issues.iter().all(|i| i.kind == AuditKind::Shape), "{report}");
        let ops: Vec<&str> = report.issues.iter().map(|i| i.op.as_str()).collect();
        let expected = [
            "add_bias",
            "mul_col",
            "matmul_nt",
            "concat_cols",
            "slice_cols",
            "row_scale",
            "conv1d",
            "softmax_xent",
            "add_n",
            "backward",
        ];
        assert_eq!(ops, expected);
        assert!(report.issues[6].detail.contains("input width 3 is not a multiple"), "{report}");
    }

    #[test]
    fn finiteness_finding_blames_scope_once() {
        let mut ctx = AuditCtx::new();
        let x = ctx.source(2, 2, Interval::new(-1000.0, 1000.0));
        let e = ctx.scoped("decode.entity", Some("Eq. 11/13"), |ctx| ctx.exp(x));
        // Downstream ops inherit the poison without re-reporting.
        let _ = ctx.scale(e, 2.0);
        let report = ctx.finish();
        assert_eq!(report.issues.len(), 1);
        let issue = &report.issues[0];
        assert_eq!(issue.kind, AuditKind::NonFinite);
        assert_eq!(issue.op, "exp");
        assert!(issue.path.contains("decode.entity [Eq. 11/13]"));
    }

    #[test]
    fn guarded_ops_stay_finite() {
        let mut ctx = AuditCtx::new();
        let x = ctx.source(4, 8, Interval::new(-1e6, 1e6));
        let s = ctx.sigmoid(x);
        let t = ctx.tanh(x);
        let sm = ctx.softmax_rows(x);
        let prod = ctx.mul(s, t);
        let l = ctx.ln(sm, 1e-9);
        let m = ctx.mean_all(l);
        assert!(ctx.interval(prod).is_finite());
        assert!(ctx.interval(m).is_finite());
        assert!(ctx.finish().is_clean());
    }

    #[test]
    fn gradient_flow_reports_detached_param() {
        let mut ctx = AuditCtx::new();
        let w =
            ctx.scoped("tim.lstm", Some("Eq. 7-8"), |ctx| ctx.declare_param("tim_lstm.w", 4, 4));
        let used =
            ctx.scoped("ram", Some("Eq. 1-2"), |ctx| ctx.declare_param("ram.l0.wself", 4, 4));
        // `w` flows only into a detached value; `used` reaches the loss.
        let h = ctx.tanh(w);
        let _cut = ctx.detach(h, "test boundary");
        let loss = ctx.mean_all(used);
        ctx.check_gradient_flow(loss, &[]);
        let report = ctx.finish();
        assert_eq!(report.params_declared, 2);
        assert_eq!(report.params_reached, 1);
        assert_eq!(report.issues.len(), 1);
        let issue = &report.issues[0];
        assert_eq!(issue.kind, AuditKind::GradFlow);
        assert!(issue.op.contains("tim_lstm.w"));
        assert!(issue.path.contains("tim.lstm [Eq. 7-8]"));
        assert_eq!(report.detaches.len(), 1);
    }

    #[test]
    fn frozen_declarations_flip_both_ways() {
        // Declared frozen and indeed unreached: clean.
        let mut ctx = AuditCtx::new();
        let w = ctx.declare_param("hyper0", 2, 2);
        let live = ctx.source(2, 2, Interval::new(-1.0, 1.0));
        let _ = ctx.tanh(w);
        let loss = ctx.mean_all(live);
        ctx.check_gradient_flow(loss, &[FrozenParam::new("hyper0", "ablated")]);
        assert!(ctx.finish().is_clean());

        // Declared frozen but reached: finding.
        let mut ctx = AuditCtx::new();
        let w = ctx.declare_param("hyper0", 2, 2);
        let loss = ctx.mean_all(w);
        ctx.check_gradient_flow(loss, &[FrozenParam::new("hyper0", "ablated")]);
        let report = ctx.finish();
        assert_eq!(report.issues.len(), 1);
        assert!(report.issues[0].detail.contains("ablated"));
    }

    #[test]
    fn reorder_declarations_check_the_map() {
        let mut ctx = AuditCtx::new();
        ctx.reorder("matmul_nt", "output-lanes");
        assert!(ctx.issues().is_empty());
        ctx.scoped("decode.entity", Some("Eq. 11/13"), |ctx| {
            ctx.reorder("softmax_rows", "row-sum");
        });
        ctx.reorder("sigmoid", "no-such-loop");
        let report = ctx.finish();
        assert_eq!(report.issues.len(), 2);
        assert_eq!(report.issues[0].kind, AuditKind::Reorder);
        assert!(report.issues[0].path.contains("decode.entity"));
        assert!(report.issues[1].detail.contains("not a known reduction site"));
    }

    #[test]
    fn inference_proof_flags_any_param() {
        let mut ctx = AuditCtx::new();
        let s = ctx.source(2, 2, Interval::new(-1.0, 1.0));
        let _ = ctx.softmax_rows(s);
        ctx.check_no_trainable_params();
        assert!(ctx.issues().is_empty());
        let _ = ctx.declare_param("dec_e.fc.w", 2, 2);
        ctx.check_no_trainable_params();
        let report = ctx.finish();
        assert_eq!(report.issues.len(), 1);
        assert!(report.issues[0].op.contains("dec_e.fc.w"));
    }
}
