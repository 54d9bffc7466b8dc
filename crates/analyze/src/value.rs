//! Value-domain abstract interpreter.
//!
//! Where [`crate::shape`] erases tensors down to dimensions, this module
//! erases them down to an [`Interval`] per tensor — `[lo, hi]` bounds in
//! f64 plus may-be-NaN / may-be-inf flags — and replays the model's op
//! vocabulary over that domain using the per-op transfer functions that
//! live next to the kernels in [`retia_tensor::transfer`]. Three coupled
//! analyses run over one abstract execution:
//!
//! 1. **Finiteness**: any op whose abstract output admits NaN/inf *when its
//!    inputs did not* records an [`AuditIssue`] blaming the enclosing
//!    module/equation scope (same poison-recovery discipline as the shape
//!    interpreter: the replay continues, downstream ops do not re-report
//!    inherited non-finiteness).
//! 2. **Gradient-flow reachability** ([`crate::gradflow`]): every op also
//!    records its input edges, building an abstract tape. After the loss is
//!    built, [`AuditCtx::check_gradient_flow`] walks it backward and
//!    reports trainable parameters the walk never reaches — unless they are
//!    declared frozen (with a reason) for the configuration under audit.
//!    Inference graphs use [`AuditCtx::check_no_trainable_params`] to prove
//!    the opposite: zero parameters on the tape at all.
//! 3. **Reduction-order sensitivity**: [`AuditCtx::reorder`] declares an
//!    intent to reorder a kernel loop (sharding, vectorization) and checks
//!    it against `retia_tensor::transfer::REDUCTION_SITES` — reordering an
//!    order-sensitive accumulation is a finding.

use std::fmt;

use retia_tensor::transfer::{self, Interval};
use retia_tensor::Segments;

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
            AuditKind::NonFinite => "non-finite",
            AuditKind::GradFlow => "gradient-flow",
            AuditKind::Reorder => "reduction-order",
        }
    }
}

/// One audit finding, tagged like a [`crate::ShapeIssue`] with the
/// module/equation scope path.
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

/// The value-domain interpreter. API mirrors [`crate::ShapeCtx`]: ops
/// record findings instead of panicking and return the abstract value they
/// would have produced, so one pass collects everything.
#[derive(Debug, Default)]
pub struct AuditCtx {
    scope: Vec<String>,
    issues: Vec<AuditIssue>,
    ops_checked: usize,
    nodes: Vec<AbsNode>,
    detaches: Vec<DeclaredDetach>,
    params_declared: usize,
    params_reached: usize,
}

impl AuditCtx {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with `module` (and optionally a paper-equation tag) pushed
    /// onto the scope path; findings recorded inside are attributed to it.
    pub fn scoped<R>(
        &mut self,
        module: &str,
        equation: Option<&str>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let frame = match equation {
            Some(eq) => format!("{module} [{eq}]"),
            None => module.to_string(),
        };
        self.scope.push(frame);
        let out = f(self);
        self.scope.pop();
        out
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
    pub fn param(&mut self, name: &str, rows: usize, cols: usize) -> AbsId {
        let id = self.push(rows, cols, Interval::new(-PARAM_BOUND, PARAM_BOUND), Vec::new());
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

    /// `(rows, cols)` of a node.
    pub fn shape(&self, x: AbsId) -> (usize, usize) {
        (self.nodes[x.0].rows, self.nodes[x.0].cols)
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
        rows: usize,
        cols: usize,
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

    fn iv(&self, x: AbsId) -> Interval {
        self.nodes[x.0].iv
    }

    // ---- elementwise ------------------------------------------------------

    pub fn add(&mut self, a: AbsId, b: AbsId) -> AbsId {
        let iv = transfer::add(self.iv(a), self.iv(b));
        let (r, c) = self.shape(a);
        self.op("add", &[a, b], r, c, iv)
    }

    pub fn sub(&mut self, a: AbsId, b: AbsId) -> AbsId {
        let iv = transfer::sub(self.iv(a), self.iv(b));
        let (r, c) = self.shape(a);
        self.op("sub", &[a, b], r, c, iv)
    }

    pub fn mul(&mut self, a: AbsId, b: AbsId) -> AbsId {
        let iv = transfer::mul(self.iv(a), self.iv(b));
        let (r, c) = self.shape(a);
        self.op("mul", &[a, b], r, c, iv)
    }

    /// Row-broadcast add (`x + bias`).
    pub fn add_bias(&mut self, x: AbsId, bias: AbsId) -> AbsId {
        let iv = transfer::add(self.iv(x), self.iv(bias));
        let (r, c) = self.shape(x);
        self.op("add_bias", &[x, bias], r, c, iv)
    }

    /// Row-broadcast multiply.
    pub fn mul_bias(&mut self, x: AbsId, w: AbsId) -> AbsId {
        let iv = transfer::mul(self.iv(x), self.iv(w));
        let (r, c) = self.shape(x);
        self.op("mul_bias", &[x, w], r, c, iv)
    }

    /// Column-broadcast multiply.
    pub fn mul_col(&mut self, x: AbsId, c: AbsId) -> AbsId {
        let iv = transfer::mul(self.iv(x), self.iv(c));
        let (r, cols) = self.shape(x);
        self.op("mul_col", &[x, c], r, cols, iv)
    }

    pub fn scale(&mut self, x: AbsId, s: f64) -> AbsId {
        let iv = transfer::scale(self.iv(x), s);
        let (r, c) = self.shape(x);
        self.op("scale", &[x], r, c, iv)
    }

    pub fn add_scalar(&mut self, x: AbsId, s: f64) -> AbsId {
        let iv = transfer::add_scalar(self.iv(x), s);
        let (r, c) = self.shape(x);
        self.op("add_scalar", &[x], r, c, iv)
    }

    /// Elementwise division — pole rule from [`transfer::div`].
    pub fn div(&mut self, a: AbsId, b: AbsId) -> AbsId {
        let iv = transfer::div(self.iv(a), self.iv(b));
        let (r, c) = self.shape(a);
        self.op("div", &[a, b], r, c, iv)
    }

    // ---- matmul family ----------------------------------------------------

    /// `a @ b`: inner accumulation over `a.cols` terms.
    pub fn matmul(&mut self, a: AbsId, b: AbsId) -> AbsId {
        let k = self.shape(a).1;
        let iv = transfer::dot(self.iv(a), self.iv(b), k);
        let (ar, _) = self.shape(a);
        let (_, bc) = self.shape(b);
        self.op("matmul", &[a, b], ar, bc, iv)
    }

    /// `a @ b^T`.
    pub fn matmul_nt(&mut self, a: AbsId, b: AbsId) -> AbsId {
        let k = self.shape(a).1;
        let iv = transfer::dot(self.iv(a), self.iv(b), k);
        let (ar, _) = self.shape(a);
        let (br, _) = self.shape(b);
        self.op("matmul_nt", &[a, b], ar, br, iv)
    }

    /// 1-D convolution (`'same'` padding): accumulation over
    /// `in_ch * ksize` taps plus the channel bias.
    pub fn conv1d(
        &mut self,
        x: AbsId,
        w: AbsId,
        b: AbsId,
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
    ) -> AbsId {
        let acc = transfer::dot(self.iv(x), self.iv(w), in_ch * ksize);
        let iv = transfer::add(acc, self.iv(b));
        let (rows, cols) = self.shape(x);
        let width = cols.checked_div(in_ch).unwrap_or(0);
        self.op("conv1d", &[x, w, b], rows, out_ch * width, iv)
    }

    // ---- nonlinearities ---------------------------------------------------

    pub fn sigmoid(&mut self, x: AbsId) -> AbsId {
        let iv = transfer::sigmoid(self.iv(x));
        let (r, c) = self.shape(x);
        self.op("sigmoid", &[x], r, c, iv)
    }

    pub fn tanh(&mut self, x: AbsId) -> AbsId {
        let iv = transfer::tanh(self.iv(x));
        let (r, c) = self.shape(x);
        self.op("tanh", &[x], r, c, iv)
    }

    pub fn relu(&mut self, x: AbsId) -> AbsId {
        let iv = transfer::relu(self.iv(x));
        let (r, c) = self.shape(x);
        self.op("relu", &[x], r, c, iv)
    }

    /// Randomized leaky ReLU (negative slope in `[0, 1]`).
    pub fn rrelu(&mut self, x: AbsId) -> AbsId {
        let iv = transfer::rrelu(self.iv(x));
        let (r, c) = self.shape(x);
        self.op("rrelu", &[x], r, c, iv)
    }

    /// Unguarded exponential — the overflow rule flags any input that can
    /// exceed `ln(f32::MAX)`. The shipped model has no bare `exp`; this is
    /// the op the audit exists to veto in future kernels.
    pub fn exp(&mut self, x: AbsId) -> AbsId {
        let iv = transfer::exp(self.iv(x));
        let (r, c) = self.shape(x);
        self.op("exp", &[x], r, c, iv)
    }

    /// `ln(x + eps)` — pole rule from [`transfer::ln`].
    pub fn ln(&mut self, x: AbsId, eps: f64) -> AbsId {
        let iv = transfer::ln(self.iv(x), eps);
        let (r, c) = self.shape(x);
        self.op("ln", &[x], r, c, iv)
    }

    /// Inverted dropout at the given rate.
    pub fn dropout(&mut self, x: AbsId, rate: f64) -> AbsId {
        let iv = transfer::dropout(self.iv(x), rate);
        let (r, c) = self.shape(x);
        self.op("dropout", &[x], r, c, iv)
    }

    // ---- gathers / segment sums / layout ---------------------------------

    /// Gather `count` rows: values are drawn from `x`.
    pub fn gather_rows(&mut self, x: AbsId, count: usize) -> AbsId {
        let iv = self.iv(x);
        let (_, c) = self.shape(x);
        self.op("gather_rows", &[x], count, c, iv)
    }

    /// Sparse row operator `seg` applied to `x`, bounded by the operator's
    /// measured per-row weight mass.
    pub fn segment_sum(&mut self, x: AbsId, seg: &Segments) -> AbsId {
        let iv = transfer::segment_sum(self.iv(x), seg.mass());
        let (_, c) = self.shape(x);
        self.op("segment_sum", &[x], seg.num_rows(), c, iv)
    }

    /// Per-row scaling by data-dependent weights inside `weights`.
    pub fn row_scale(&mut self, x: AbsId, weights: Interval) -> AbsId {
        let iv = transfer::mul(self.iv(x), weights);
        let (r, c) = self.shape(x);
        self.op("row_scale", &[x], r, c, iv)
    }

    pub fn concat_cols(&mut self, a: AbsId, b: AbsId) -> AbsId {
        let iv = self.iv(a).hull(self.iv(b));
        let (r, ac) = self.shape(a);
        let (_, bc) = self.shape(b);
        self.op("concat_cols", &[a, b], r, ac + bc, iv)
    }

    pub fn slice_cols(&mut self, x: AbsId, start: usize, end: usize) -> AbsId {
        let iv = self.iv(x);
        let (r, _) = self.shape(x);
        self.op("slice_cols", &[x], r, end.saturating_sub(start), iv)
    }

    /// `out[i, 0] = x[i, cols[i]]`.
    pub fn gather_cols(&mut self, x: AbsId) -> AbsId {
        let iv = self.iv(x);
        let (r, _) = self.shape(x);
        self.op("gather_cols", &[x], r, 1, iv)
    }

    // ---- reductions / normalizers ----------------------------------------

    pub fn softmax_rows(&mut self, x: AbsId) -> AbsId {
        let iv = transfer::softmax(self.iv(x));
        let (r, c) = self.shape(x);
        self.op("softmax_rows", &[x], r, c, iv)
    }

    /// Fused softmax + cross-entropy.
    pub fn softmax_xent(&mut self, x: AbsId) -> AbsId {
        let iv = transfer::softmax_xent(self.iv(x));
        let (r, _) = self.shape(x);
        self.op("softmax_xent", &[x], r, 1, iv)
    }

    pub fn mean_all(&mut self, x: AbsId) -> AbsId {
        let iv = transfer::mean(self.iv(x));
        self.op("mean_all", &[x], 1, 1, iv)
    }

    pub fn sum_all(&mut self, x: AbsId) -> AbsId {
        let (r, c) = self.shape(x);
        let iv = transfer::sum(self.iv(x), r * c);
        self.op("sum_all", &[x], 1, 1, iv)
    }

    pub fn sum_rows(&mut self, x: AbsId) -> AbsId {
        let (r, c) = self.shape(x);
        let iv = transfer::sum(self.iv(x), c);
        self.op("sum_rows", &[x], r, 1, iv)
    }

    pub fn add_n(&mut self, xs: &[AbsId]) -> AbsId {
        let ivs: Vec<Interval> = xs.iter().map(|x| self.iv(*x)).collect();
        let iv = transfer::add_n(&ivs);
        let (r, c) = xs.first().map(|x| self.shape(*x)).unwrap_or((0, 0));
        self.op("add_n", xs, r, c, iv)
    }

    pub fn normalize_rows(&mut self, x: AbsId) -> AbsId {
        let iv = transfer::normalize_rows(self.iv(x));
        let (r, c) = self.shape(x);
        self.op("normalize_rows", &[x], r, c, iv)
    }

    pub fn layer_norm_rows(&mut self, x: AbsId) -> AbsId {
        let (r, c) = self.shape(x);
        let iv = transfer::layer_norm(self.iv(x), c);
        self.op("layer_norm_rows", &[x], r, c, iv)
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
    /// reaches.
    pub fn check_gradient_flow(&mut self, loss: AbsId, frozen: &[FrozenParam]) {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let w = ctx.scoped("tim.lstm", Some("Eq. 7-8"), |ctx| ctx.param("tim_lstm.w", 4, 4));
        let used = ctx.scoped("ram", Some("Eq. 1-2"), |ctx| ctx.param("ram.l0.wself", 4, 4));
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
        let w = ctx.param("hyper0", 2, 2);
        let live = ctx.source(2, 2, Interval::new(-1.0, 1.0));
        let _ = ctx.tanh(w);
        let loss = ctx.mean_all(live);
        ctx.check_gradient_flow(loss, &[FrozenParam::new("hyper0", "ablated")]);
        assert!(ctx.finish().is_clean());

        // Declared frozen but reached: finding.
        let mut ctx = AuditCtx::new();
        let w = ctx.param("hyper0", 2, 2);
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
        let _ = ctx.param("dec_e.fc.w", 2, 2);
        ctx.check_no_trainable_params();
        let report = ctx.finish();
        assert_eq!(report.issues.len(), 1);
        assert!(report.issues[0].op.contains("dec_e.fc.w"));
    }
}
