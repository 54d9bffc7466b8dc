//! Abstract shape interpreter.
//!
//! A [`ShapeTensor`] is a tensor with its data erased: two dimensions and
//! nothing else. [`ShapeCtx`] replays the exact op vocabulary of the autodiff
//! graph (`matmul`/`matmul_nt`/`matmul_tn`, gather, `segment_sum`, `conv1d`,
//! softmax-CE, the RNN/R-GCN building blocks) over shapes only — no
//! allocation, no floating point — checking every dimension and index-space
//! precondition the real kernels would assert at runtime.
//!
//! Mismatches do not abort the replay. Each failed check records a
//! [`ShapeIssue`] tagged with the enclosing module/equation scope (see
//! [`ShapeCtx::scoped`]) and the op returns the shape it *would* have
//! produced, so one pass over a model collects every inconsistency rather
//! than the first. Callers drain the result with [`ShapeCtx::finish`].

use std::fmt;

use retia_tensor::Segments;

/// A tensor reduced to its shape: `rows x cols`. Copy, 16 bytes, no data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeTensor {
    pub rows: usize,
    pub cols: usize,
}

impl ShapeTensor {
    /// Shape-only stand-in for a `rows x cols` tensor.
    pub fn new(rows: usize, cols: usize) -> Self {
        ShapeTensor { rows, cols }
    }

    /// `(rows, cols)`, mirroring `Tensor::shape`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

impl fmt::Display for ShapeTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.rows, self.cols)
    }
}

/// One failed shape/index-space check, tagged with where in the model it
/// happened (module scope path, e.g. `eam.rgcn [Eq. 4] / layer 0`).
#[derive(Clone, Debug)]
pub struct ShapeIssue {
    /// Module/equation scope path active when the check failed.
    pub path: String,
    /// The op whose precondition failed (`matmul`, `gather_rows`, ...).
    pub op: &'static str,
    /// Human-readable description with the concrete offending dimensions.
    pub detail: String,
}

impl fmt::Display for ShapeIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}: {}", self.op, self.detail)
        } else {
            write!(f, "[{}] {}: {}", self.path, self.op, self.detail)
        }
    }
}

/// Outcome of a completed shape replay: every issue found plus the number of
/// op checks performed (so "0 issues" can be distinguished from "0 checks").
#[derive(Clone, Debug, Default)]
pub struct ShapeReport {
    pub issues: Vec<ShapeIssue>,
    pub ops_checked: usize,
}

impl ShapeReport {
    /// True when the replay found no inconsistencies.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl fmt::Display for ShapeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} shape issue(s) in {} checked op(s):", self.issues.len(), self.ops_checked)?;
        for issue in &self.issues {
            writeln!(f, "  - {issue}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ShapeReport {}

/// The abstract interpreter: replays graph ops over [`ShapeTensor`]s,
/// collecting [`ShapeIssue`]s instead of panicking.
#[derive(Debug, Default)]
pub struct ShapeCtx {
    scope: Vec<String>,
    issues: Vec<ShapeIssue>,
    ops_checked: usize,
}

impl ShapeCtx {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with `module` (and optionally a paper-equation tag) pushed
    /// onto the scope path; issues recorded inside are attributed to it.
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

    /// Number of op checks performed so far.
    pub fn ops_checked(&self) -> usize {
        self.ops_checked
    }

    /// Issues recorded so far (drained by [`ShapeCtx::finish`]).
    pub fn issues(&self) -> &[ShapeIssue] {
        &self.issues
    }

    /// Consumes the context into a [`ShapeReport`].
    pub fn finish(self) -> ShapeReport {
        ShapeReport { issues: self.issues, ops_checked: self.ops_checked }
    }

    /// Records a custom precondition failure unless `cond` holds. Used by
    /// layer validators for checks that are not a single graph op (e.g.
    /// "LSTM input width must equal `input_dim`").
    pub fn check(&mut self, op: &'static str, cond: bool, detail: impl FnOnce() -> String) {
        self.ops_checked += 1;
        if !cond {
            self.record(op, detail());
        }
    }

    fn record(&mut self, op: &'static str, detail: String) {
        self.issues.push(ShapeIssue { path: self.scope.join(" / "), op, detail });
    }

    fn op(
        &mut self,
        op: &'static str,
        cond: bool,
        detail: impl FnOnce() -> String,
        out: ShapeTensor,
    ) -> ShapeTensor {
        self.ops_checked += 1;
        if !cond {
            self.record(op, detail());
        }
        out
    }

    // ---- elementwise -------------------------------------------------------

    fn same_shape(&mut self, op: &'static str, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.op(op, a == b, || format!("operand shapes differ: {a} vs {b}"), a)
    }

    pub fn add(&mut self, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.same_shape("add", a, b)
    }

    pub fn sub(&mut self, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.same_shape("sub", a, b)
    }

    pub fn mul(&mut self, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.same_shape("mul", a, b)
    }

    /// Any shape-preserving unary op (`sigmoid`, `tanh`, `relu`, `rrelu`,
    /// `dropout`, `scale`, `softmax_rows`, `ln`, `normalize_rows`,
    /// `layer_norm_rows`, ...). Named so issues elsewhere can reference it.
    pub fn unary(&mut self, op: &'static str, x: ShapeTensor) -> ShapeTensor {
        self.op(op, true, String::new, x)
    }

    /// Row-broadcast add: `bias` must be `[1, x.cols]`.
    pub fn add_bias(&mut self, x: ShapeTensor, bias: ShapeTensor) -> ShapeTensor {
        self.op(
            "add_bias",
            bias.rows == 1 && bias.cols == x.cols,
            || format!("bias {bias} does not broadcast over {x}"),
            x,
        )
    }

    /// Row-broadcast multiply: `w` must be `[1, x.cols]`.
    pub fn mul_bias(&mut self, x: ShapeTensor, w: ShapeTensor) -> ShapeTensor {
        self.op(
            "mul_bias",
            w.rows == 1 && w.cols == x.cols,
            || format!("weight {w} does not broadcast over {x}"),
            x,
        )
    }

    /// Column-broadcast multiply: `c` must be `[x.rows, 1]`.
    pub fn mul_col(&mut self, x: ShapeTensor, c: ShapeTensor) -> ShapeTensor {
        self.op(
            "mul_col",
            c.cols == 1 && c.rows == x.rows,
            || format!("column {c} does not broadcast over {x}"),
            x,
        )
    }

    // ---- matmul family -----------------------------------------------------

    /// `a @ b`: inner dimensions must agree.
    pub fn matmul(&mut self, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.op(
            "matmul",
            a.cols == b.rows,
            || format!("inner dims differ: {a} x {b}"),
            ShapeTensor::new(a.rows, b.cols),
        )
    }

    /// `a @ b^T`: column counts must agree.
    pub fn matmul_nt(&mut self, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.op(
            "matmul_nt",
            a.cols == b.cols,
            || format!("column counts differ: {a} x {b}^T"),
            ShapeTensor::new(a.rows, b.rows),
        )
    }

    /// `a^T @ b`: row counts must agree.
    pub fn matmul_tn(&mut self, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.op(
            "matmul_tn",
            a.rows == b.rows,
            || format!("row counts differ: {a}^T x {b}"),
            ShapeTensor::new(a.cols, b.cols),
        )
    }

    // ---- structure ---------------------------------------------------------

    /// Row gather: every index must address a row of `x`.
    pub fn gather_rows(&mut self, x: ShapeTensor, indices: &[u32]) -> ShapeTensor {
        let bad = indices.iter().find(|&&i| (i as usize) >= x.rows);
        self.op(
            "gather_rows",
            bad.is_none(),
            || format!("index {} out of range for {} rows", bad.unwrap_or(&0), x.rows),
            ShapeTensor::new(indices.len(), x.cols),
        )
    }

    /// Sparse row operator `seg` applied to `x`: every column index must
    /// address a row of `x`; the output has one row per operator row.
    pub fn segment_sum(&mut self, x: ShapeTensor, seg: &Segments) -> ShapeTensor {
        let bad = seg.cols().iter().find(|&&c| (c as usize) >= x.rows);
        self.op(
            "segment_sum",
            bad.is_none(),
            || format!("column index {} out of range for {} rows", bad.unwrap_or(&0), x.rows),
            ShapeTensor::new(seg.num_rows(), x.cols),
        )
    }

    /// Per-row scaling: one weight per row of `x`.
    pub fn row_scale(&mut self, x: ShapeTensor, num_weights: usize) -> ShapeTensor {
        self.op(
            "row_scale",
            num_weights == x.rows,
            || format!("{num_weights} weights for {} rows", x.rows),
            x,
        )
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.op(
            "concat_cols",
            a.rows == b.rows,
            || format!("row counts differ: {a} vs {b}"),
            ShapeTensor::new(a.rows, a.cols + b.cols),
        )
    }

    /// Columns `start..end` of `x`.
    pub fn slice_cols(&mut self, x: ShapeTensor, start: usize, end: usize) -> ShapeTensor {
        self.op(
            "slice_cols",
            start <= end && end <= x.cols,
            || format!("slice {start}..{end} out of range for {} columns", x.cols),
            ShapeTensor::new(x.rows, end.saturating_sub(start)),
        )
    }

    /// `out[i, 0] = x[i, cols[i]]`: one column index per row, in range.
    pub fn gather_cols(&mut self, x: ShapeTensor, cols: &[u32]) -> ShapeTensor {
        let bad = cols.iter().find(|&&c| (c as usize) >= x.cols);
        let count_ok = cols.len() == x.rows;
        self.op(
            "gather_cols",
            count_ok && bad.is_none(),
            || {
                if !count_ok {
                    format!("{} column indices for {} rows", cols.len(), x.rows)
                } else {
                    format!(
                        "column index {} out of range for {} columns",
                        bad.unwrap_or(&0),
                        x.cols
                    )
                }
            },
            ShapeTensor::new(x.rows, 1),
        )
    }

    // ---- reductions --------------------------------------------------------

    /// Mean over all elements -> `[1, 1]`.
    pub fn mean_all(&mut self, x: ShapeTensor) -> ShapeTensor {
        self.op("mean_all", x.rows > 0 && x.cols > 0, || format!("mean of empty tensor {x}"), {
            ShapeTensor::new(1, 1)
        })
    }

    /// Sum over all elements -> `[1, 1]`.
    pub fn sum_all(&mut self, _x: ShapeTensor) -> ShapeTensor {
        self.op("sum_all", true, String::new, ShapeTensor::new(1, 1))
    }

    /// Row sums: `[n, d] -> [n, 1]`.
    pub fn sum_rows(&mut self, x: ShapeTensor) -> ShapeTensor {
        self.op("sum_rows", true, String::new, ShapeTensor::new(x.rows, 1))
    }

    /// Sum of several same-shape tensors.
    pub fn add_n(&mut self, xs: &[ShapeTensor]) -> ShapeTensor {
        let first = xs.first().copied().unwrap_or(ShapeTensor::new(0, 0));
        let bad = xs.iter().find(|&&x| x != first);
        self.op(
            "add_n",
            !xs.is_empty() && bad.is_none(),
            || match bad {
                Some(b) => format!("input shapes differ: {first} vs {b}"),
                None => "needs at least one input".to_string(),
            },
            first,
        )
    }

    // ---- fused / conv ------------------------------------------------------

    /// 1-D 'same' convolution over `[batch, in_ch * width]` rows with kernel
    /// `[out_ch, in_ch * ksize]` and bias `[1, out_ch]` ->
    /// `[batch, out_ch * width]`.
    pub fn conv1d(
        &mut self,
        x: ShapeTensor,
        w: ShapeTensor,
        b: ShapeTensor,
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
    ) -> ShapeTensor {
        let width_ok = in_ch > 0 && x.cols.is_multiple_of(in_ch);
        let w_ok = w.shape() == (out_ch, in_ch * ksize);
        let b_ok = b.shape() == (1, out_ch);
        let width = if in_ch > 0 { x.cols / in_ch.max(1) } else { 0 };
        self.op(
            "conv1d",
            width_ok && w_ok && b_ok,
            || {
                if !width_ok {
                    format!("input width {} is not a multiple of in_ch={in_ch}", x.cols)
                } else if !w_ok {
                    format!(
                        "kernel is {w}, expected [{out_ch}, {}] for in_ch={in_ch}, ksize={ksize}",
                        in_ch * ksize
                    )
                } else {
                    format!("bias is {b}, expected [1, {out_ch}]")
                }
            },
            ShapeTensor::new(x.rows, out_ch * width),
        )
    }

    /// Fused softmax + cross-entropy: one target class per logit row ->
    /// scalar loss `[1, 1]`.
    pub fn softmax_xent(&mut self, logits: ShapeTensor, num_targets: usize) -> ShapeTensor {
        self.op(
            "softmax_xent",
            num_targets == logits.rows,
            || format!("{num_targets} targets for {} logit rows", logits.rows),
            ShapeTensor::new(1, 1),
        )
    }

    /// Backprop entry point: the loss must be a scalar.
    pub fn backward(&mut self, loss: ShapeTensor) {
        self.ops_checked += 1;
        if loss.shape() != (1, 1) {
            self.record("backward", format!("loss is {loss}, expected the scalar [1, 1]"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(r: usize, c: usize) -> ShapeTensor {
        ShapeTensor::new(r, c)
    }

    #[test]
    fn matmul_family_shapes() {
        let mut ctx = ShapeCtx::new();
        assert_eq!(ctx.matmul(st(2, 3), st(3, 5)), st(2, 5));
        assert_eq!(ctx.matmul_nt(st(2, 3), st(5, 3)), st(2, 5));
        assert_eq!(ctx.matmul_tn(st(3, 2), st(3, 5)), st(2, 5));
        assert!(ctx.issues().is_empty());
        assert_eq!(ctx.ops_checked(), 3);
    }

    #[test]
    fn mismatches_are_recorded_not_fatal() {
        let mut ctx = ShapeCtx::new();
        // Inner-dim mismatch: issue recorded, poison shape keeps the replay
        // alive so later mismatches are found too.
        let y = ctx.matmul(st(2, 3), st(4, 5));
        assert_eq!(y, st(2, 5));
        let z = ctx.add(y, st(9, 9));
        assert_eq!(z, st(2, 5));
        let report = ctx.finish();
        assert_eq!(report.issues.len(), 2);
        assert!(report.issues[0].detail.contains("[2, 3]"));
    }

    #[test]
    fn scope_path_is_attached_to_issues() {
        let mut ctx = ShapeCtx::new();
        ctx.scoped("eam.rgcn", Some("Eq. 4"), |ctx| {
            ctx.scoped("layer 0", None, |ctx| {
                ctx.matmul(st(2, 3), st(4, 5));
            });
        });
        let report = ctx.finish();
        assert_eq!(report.issues[0].path, "eam.rgcn [Eq. 4] / layer 0");
        let text = report.to_string();
        assert!(text.contains("eam.rgcn"), "{text}");
    }

    #[test]
    fn index_space_checks() {
        let mut ctx = ShapeCtx::new();
        assert_eq!(ctx.gather_rows(st(10, 4), &[0, 9]), st(2, 4));
        assert!(ctx.issues().is_empty());
        ctx.gather_rows(st(10, 4), &[10]);
        ctx.gather_cols(st(3, 5), &[0, 5, 1]);
        assert_eq!(ctx.issues().len(), 2);
        assert!(ctx.issues()[0].detail.contains("index 10"));
        let seg = Segments::unit(&[vec![0, 3], vec![], vec![4]]);
        assert_eq!(ctx.segment_sum(st(5, 2), &seg), st(3, 2));
        assert_eq!(ctx.issues().len(), 2);
        ctx.segment_sum(st(4, 2), &seg);
        assert!(ctx.issues()[2].detail.contains("column index 4"));
    }

    #[test]
    fn conv1d_rules() {
        let mut ctx = ShapeCtx::new();
        // Conv-TransE shape: 2 channels over width 8, 16 output channels.
        let y = ctx.conv1d(st(5, 16), st(16, 6), st(1, 16), 2, 16, 3);
        assert_eq!(y, st(5, 128));
        assert!(ctx.issues().is_empty());
        ctx.conv1d(st(5, 15), st(16, 6), st(1, 16), 2, 16, 3);
        ctx.conv1d(st(5, 16), st(16, 7), st(1, 16), 2, 16, 3);
        ctx.conv1d(st(5, 16), st(16, 6), st(1, 15), 2, 16, 3);
        assert_eq!(ctx.issues().len(), 3);
    }

    #[test]
    fn broadcast_and_reduction_rules() {
        let mut ctx = ShapeCtx::new();
        assert_eq!(ctx.add_bias(st(4, 3), st(1, 3)), st(4, 3));
        assert_eq!(ctx.mul_col(st(4, 3), st(4, 1)), st(4, 3));
        assert_eq!(ctx.concat_cols(st(4, 3), st(4, 2)), st(4, 5));
        assert_eq!(ctx.slice_cols(st(4, 5), 1, 3), st(4, 2));
        assert_eq!(ctx.sum_rows(st(4, 5)), st(4, 1));
        assert_eq!(ctx.mean_all(st(4, 5)), st(1, 1));
        assert_eq!(ctx.softmax_xent(st(4, 9), 4), st(1, 1));
        assert_eq!(ctx.add_n(&[st(2, 2), st(2, 2)]), st(2, 2));
        assert!(ctx.issues().is_empty());
        ctx.add_bias(st(4, 3), st(1, 4));
        ctx.backward(st(2, 2));
        assert_eq!(ctx.issues().len(), 2);
    }
}
