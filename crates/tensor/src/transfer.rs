//! Value-domain transfer functions for the abstract interpreter.
//!
//! Each autodiff op (see `Op::transfer_key` in `autodiff.rs`) has a
//! transfer function here that maps abstract inputs — an [`Interval`]
//! `[lo, hi]` in f64 plus may-be-NaN / may-be-inf flags — to an abstract
//! output that *contains* every value the concrete f32 kernel can produce.
//! `retia-analyze` replays the model step over this domain to prove
//! finiteness before the kernels are vectorized (see DESIGN.md §8).
//!
//! The file also owns the **reduction-order sensitivity map**
//! ([`REDUCTION_SITES`]): for every kernel loop that accumulates, whether
//! reordering it preserves bit-identity. `retia-lint` diffs the rendered
//! map against `scripts/reduction-order.txt` so any new reduction site (or
//! reclassification) shows up in review.
//!
//! Soundness conventions:
//! - Bounds are tracked in f64 and padded by a small relative slack
//!   (`Interval::widened`) so f32 rounding in the concrete kernels cannot
//!   escape the abstract interval.
//! - Any bound whose magnitude exceeds `f32::MAX` sets the may-be-inf flag:
//!   the concrete kernel would have overflowed to `±inf` even though the
//!   f64 bound is still representable.
//! - Saturating ops (`sigmoid`, `tanh`) absorb infinite inputs — the shipped
//!   kernels compute them via guarded exponentials that return a value in
//!   the closed output range for every non-NaN input.

/// `ln(f32::MAX)`: `exp(x)` overflows f32 above this input.
pub const F32_EXP_OVERFLOW: f64 = 88.722_839;

/// `sqrt(f32::MAX)`: squaring overflows f32 above this magnitude (layer
/// norm and L2 norms square their inputs in f32).
pub const F32_SQUARE_OVERFLOW: f64 = 1.844_674_3e19;

const F32_MAX: f64 = 3.402_823_466_385_288_6e38;

/// Abstract value: a closed interval plus non-finiteness flags.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive, in f64).
    pub lo: f64,
    /// Upper bound (inclusive, in f64).
    pub hi: f64,
    /// Some concrete element may be NaN.
    pub nan: bool,
    /// Some concrete element may be `±inf`.
    pub inf: bool,
}

/// Converts a count to f64 without a bare `as` cast (counts above `u32`
/// range saturate to infinity, which is sound for upper bounds).
fn count_f64(n: usize) -> f64 {
    u32::try_from(n).map(f64::from).unwrap_or(f64::INFINITY)
}

impl Interval {
    /// A finite interval (bounds are sorted; f32 overflow sets the inf flag).
    pub fn new(a: f64, b: f64) -> Self {
        Interval { lo: a.min(b), hi: a.max(b), nan: false, inf: false }.normalized()
    }

    /// The single value `v`.
    pub fn point(v: f64) -> Self {
        Interval::new(v, v)
    }

    /// The unbounded domain: any value including NaN and `±inf`.
    pub fn top() -> Self {
        Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY, nan: true, inf: true }
    }

    /// Sorts bounds and raises the inf flag when a bound escapes f32 range.
    fn normalized(mut self) -> Self {
        if self.lo > self.hi {
            std::mem::swap(&mut self.lo, &mut self.hi);
        }
        if self.lo.is_nan() || self.hi.is_nan() {
            // A NaN bound means the arithmetic itself was undefined.
            return Interval::top();
        }
        if self.hi > F32_MAX || self.lo < -F32_MAX {
            self.inf = true;
        }
        self
    }

    /// Pads bounds with relative slack so f32 rounding in concrete kernels
    /// stays inside the abstract interval. Padding never crosses zero: f32
    /// rounding preserves sign, so an exact zero bound (softmax/relu/exp
    /// lower bounds) stays exact — crossing it would trip pole rules
    /// downstream (`ln(0 + eps)`).
    fn widened(mut self) -> Self {
        let pad = |v: f64| v.abs() * 1e-4 + 1e-6;
        self.lo =
            if self.lo >= 0.0 { (self.lo - pad(self.lo)).max(0.0) } else { self.lo - pad(self.lo) };
        self.hi =
            if self.hi <= 0.0 { (self.hi + pad(self.hi)).min(0.0) } else { self.hi + pad(self.hi) };
        self.normalized()
    }

    /// Whether every admitted value is a finite f32.
    pub fn is_finite(&self) -> bool {
        !self.nan && !self.inf && self.lo.is_finite() && self.hi.is_finite()
    }

    /// The smallest interval containing both operands.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            nan: self.nan || other.nan,
            inf: self.inf || other.inf,
        }
        .normalized()
    }

    /// Soundness check used by the property tests: does the abstract value
    /// admit this concrete f32?
    pub fn contains(&self, v: f32) -> bool {
        if v.is_nan() {
            return self.nan;
        }
        if v.is_infinite() {
            return self.inf;
        }
        let v = f64::from(v);
        v >= self.lo && v <= self.hi
    }

    fn flags_from(a: Interval, b: Interval) -> (bool, bool) {
        (a.nan || b.nan, a.inf || b.inf)
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.3e}, {:.3e}]", self.lo, self.hi)?;
        if self.nan {
            write!(f, " may-be-NaN")?;
        }
        if self.inf {
            write!(f, " may-be-inf")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Elementwise arithmetic
// ---------------------------------------------------------------------------

/// `a + b` elementwise (also `add_bias`; `inf + -inf` admits NaN).
pub fn add(a: Interval, b: Interval) -> Interval {
    let (nan, inf) = Interval::flags_from(a, b);
    let nan = nan || (a.inf && b.inf);
    Interval { lo: a.lo + b.lo, hi: a.hi + b.hi, nan, inf }.widened()
}

/// `a - b` elementwise.
pub fn sub(a: Interval, b: Interval) -> Interval {
    let (nan, inf) = Interval::flags_from(a, b);
    let nan = nan || (a.inf && b.inf);
    Interval { lo: a.lo - b.hi, hi: a.hi - b.lo, nan, inf }.widened()
}

/// `a * b` elementwise (also `mul_bias`, `mul_col`, `row_scale`;
/// `inf * 0` admits NaN).
pub fn mul(a: Interval, b: Interval) -> Interval {
    let (nan, inf) = Interval::flags_from(a, b);
    let spans_zero = |x: Interval| x.lo <= 0.0 && x.hi >= 0.0;
    let nan = nan || (a.inf && spans_zero(b)) || (b.inf && spans_zero(a));
    let ps = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
    let lo = ps.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Interval { lo, hi, nan, inf }.widened()
}

/// `a * c` with a compile-time-known scalar.
pub fn scale(a: Interval, c: f64) -> Interval {
    mul(a, Interval::point(c))
}

/// `a + c` with a compile-time-known scalar.
pub fn add_scalar(a: Interval, c: f64) -> Interval {
    add(a, Interval::point(c))
}

/// `a / b` elementwise. Pole rule: a denominator interval spanning zero
/// admits `±inf` (`x/0`), and NaN too when the numerator also spans zero
/// (`0/0`).
pub fn div(a: Interval, b: Interval) -> Interval {
    let (mut nan, mut inf) = Interval::flags_from(a, b);
    if b.lo <= 0.0 && b.hi >= 0.0 {
        inf = true;
        if a.lo <= 0.0 && a.hi >= 0.0 {
            nan = true;
        }
        // Quotients are unbounded near the pole.
        return Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY, nan, inf };
    }
    let qs = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
    let lo = qs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = qs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Interval { lo, hi, nan, inf }.widened()
}

// ---------------------------------------------------------------------------
// Accumulating ops (matmul / conv / sums)
// ---------------------------------------------------------------------------

/// A `k`-term accumulated product: each output element of `matmul` /
/// `matmul_nt` / `conv1d` is a sum of `k` products of one element from each
/// operand.
pub fn dot(a: Interval, b: Interval, k: usize) -> Interval {
    let p = mul(a, b);
    let k = count_f64(k);
    Interval { lo: k * p.lo.min(0.0), hi: k * p.hi.max(0.0), nan: p.nan, inf: p.inf }.widened()
}

/// A sum of `n` elements each drawn from `a` (`sum_rows`, `sum_all`).
pub fn sum(a: Interval, n: usize) -> Interval {
    let n = count_f64(n);
    Interval { lo: n * a.lo.min(0.0), hi: n * a.hi.max(0.0), nan: a.nan, inf: a.inf }.widened()
}

/// The mean of elements drawn from `a` stays inside `a`.
pub fn mean(a: Interval) -> Interval {
    a.widened()
}

/// Elementwise sum of `n` same-shape tensors.
pub fn add_n(parts: &[Interval]) -> Interval {
    let mut lo = 0.0;
    let mut hi = 0.0;
    let mut nan = false;
    let mut inf = false;
    for p in parts {
        lo += p.lo;
        hi += p.hi;
        nan |= p.nan;
        inf |= p.inf;
    }
    Interval { lo, hi, nan, inf }.widened()
}

/// The weight mass of a constant sparse row operator
/// (`retia_tensor::Segments::mass`), taken over its actual f32 weights.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RowMass {
    /// Largest per-row sum of the positive weights.
    pub pos: f64,
    /// Largest per-row sum of the magnitudes of the negative weights.
    pub neg: f64,
    /// Most entries in one row.
    pub terms: usize,
}

/// `segment_sum`: each output element is `Σ_k w_k x_k` over one row's
/// entries, accumulated from `0.0` in f32. The exact sum lies in
/// `[pos·min(lo,0) - neg·max(hi,0), pos·max(hi,0) + neg·max(-lo,0)]`, and
/// recursive f32 summation of `n` products errs by at most
/// `γ_n · Σ|w_k x_k|` with `γ_n = n·u / (1 - n·u)`, `u = 2^-24` (Higham,
/// *Accuracy and Stability of Numerical Algorithms*, §3.1), so the bounds
/// are padded by that. Bounding by the plan's measured mass rather than
/// an assumed 1 matters: `c` copies of `f32(1/c)` need not sum to 1.
pub fn segment_sum(x: Interval, mass: RowMass) -> Interval {
    let up = mass.pos * x.hi.max(0.0) + mass.neg * (-x.lo).max(0.0);
    let down = mass.pos * x.lo.min(0.0) - mass.neg * x.hi.max(0.0);
    let nu = count_f64(mass.terms) * f64::from(f32::EPSILON) / 2.0;
    let gamma = if nu < 1.0 { nu / (1.0 - nu) } else { f64::INFINITY };
    let err = gamma * (mass.pos + mass.neg) * x.lo.abs().max(x.hi.abs());
    // A bound that is exactly 0 stays exact: every term then has that
    // sign, and f32 rounding preserves sign.
    let lo = if down < 0.0 { down - err } else { down };
    let hi = if up > 0.0 { up + err } else { up };
    Interval { lo, hi, nan: x.nan || x.inf, inf: x.inf }.widened()
}

// ---------------------------------------------------------------------------
// Nonlinearities
// ---------------------------------------------------------------------------

/// Logistic sigmoid: monotone into `[0, 1]`. Saturating — the kernel
/// computes `1 / (1 + exp(-v))`, which is finite for every non-NaN input
/// (the transient `exp` overflow divides away), so only NaN propagates.
pub fn sigmoid(x: Interval) -> Interval {
    let s = |v: f64| 1.0 / (1.0 + (-v).exp());
    Interval { lo: s(x.lo).max(0.0), hi: s(x.hi).min(1.0), nan: x.nan, inf: false }.widened()
}

/// Hyperbolic tangent: monotone into `[-1, 1]`, saturating like [`sigmoid`].
pub fn tanh(x: Interval) -> Interval {
    Interval { lo: x.lo.tanh().max(-1.0), hi: x.hi.tanh().min(1.0), nan: x.nan, inf: false }
        .widened()
}

/// `max(x, 0)` (propagates `+inf`).
pub fn relu(x: Interval) -> Interval {
    Interval { lo: x.lo.max(0.0), hi: x.hi.max(0.0), nan: x.nan, inf: x.inf }.widened()
}

/// Leaky/randomized ReLU with negative slope in `[0, 1]`.
pub fn rrelu(x: Interval) -> Interval {
    Interval { lo: x.lo.min(0.0), hi: x.hi.max(0.0), nan: x.nan, inf: x.inf }
        .hull(relu(x))
        .widened()
}

/// `|x|`.
pub fn abs(x: Interval) -> Interval {
    let lo = if x.lo <= 0.0 && x.hi >= 0.0 { 0.0 } else { x.lo.abs().min(x.hi.abs()) };
    Interval { lo, hi: x.lo.abs().max(x.hi.abs()), nan: x.nan, inf: x.inf }.widened()
}

/// `exp(x)`. Overflow rule: any input above [`F32_EXP_OVERFLOW`] admits
/// `+inf` in f32 — this is the unguarded-exponential finding the audit
/// exists to catch.
pub fn exp(x: Interval) -> Interval {
    let inf = x.inf || x.hi > F32_EXP_OVERFLOW;
    Interval { lo: x.lo.exp().max(0.0), hi: x.hi.exp(), nan: x.nan, inf }.widened()
}

/// `ln(x + eps)`. Pole rule: a shifted input that can reach zero admits
/// `-inf`, and one that can go negative admits NaN.
pub fn ln(x: Interval, eps: f64) -> Interval {
    let slo = x.lo + eps;
    let shi = x.hi + eps;
    let mut nan = x.nan;
    let mut inf = x.inf;
    if slo < 0.0 {
        nan = true;
    }
    if slo <= 0.0 {
        inf = true;
    }
    let lo = if slo > 0.0 { slo.ln() } else { f64::NEG_INFINITY };
    let hi = if shi > 0.0 { shi.ln() } else { f64::NEG_INFINITY };
    Interval { lo, hi, nan, inf }.widened()
}

/// Row-wise softmax. The kernel subtracts the row max before
/// exponentiating, so any finite input maps into `[0, 1]`; an infinite
/// input admits NaN (`inf - inf` inside the stabilization).
pub fn softmax(x: Interval) -> Interval {
    Interval { lo: 0.0, hi: 1.0, nan: x.nan || x.inf, inf: false }.widened()
}

/// Fused softmax + cross-entropy: `-ln(p + 1e-12)` with `p` in `[0, 1]`.
pub fn softmax_xent(x: Interval) -> Interval {
    let hi = -(1e-12f64.ln());
    Interval { lo: 0.0, hi, nan: x.nan || x.inf, inf: false }.widened()
}

/// Inverted dropout: elements are zeroed or scaled by `1/(1-rate)`.
pub fn dropout(x: Interval, rate: f64) -> Interval {
    let keep = (1.0 - rate).max(f64::MIN_POSITIVE);
    scale(x, 1.0 / keep).hull(Interval::point(0.0)).widened()
}

/// Row-wise L2 normalization: unit rows, with sub-`eps` rows passed through
/// unscaled (those elements are below `eps <= 1` in magnitude), so the
/// output is inside `[-1, 1]` clamped to the input's sign. Squaring the
/// input can overflow f32 above [`F32_SQUARE_OVERFLOW`].
pub fn normalize_rows(x: Interval) -> Interval {
    let lo = if x.lo >= 0.0 { 0.0 } else { -1.0 };
    let hi = if x.hi <= 0.0 { 0.0 } else { 1.0 };
    let overflow = x.lo.abs().max(x.hi.abs()) > F32_SQUARE_OVERFLOW;
    Interval { lo, hi, nan: x.nan || x.inf || overflow, inf: false }.widened()
}

/// Row-wise layer normalization over `cols` columns: standardized values
/// are bounded by `sqrt(cols)`. Squaring can overflow f32 above
/// [`F32_SQUARE_OVERFLOW`].
pub fn layer_norm(x: Interval, cols: usize) -> Interval {
    let b = count_f64(cols).sqrt();
    let overflow = x.lo.abs().max(x.hi.abs()) > F32_SQUARE_OVERFLOW;
    Interval { lo: -b, hi: b, nan: x.nan || x.inf || overflow, inf: false }.widened()
}

// ---------------------------------------------------------------------------
// Reduction-order sensitivity map
// ---------------------------------------------------------------------------

/// Whether reordering a kernel loop preserves bit-identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReductionOrder {
    /// Iterations are independent (no shared fp accumulator): shard or
    /// vectorize freely, results stay bit-identical.
    Invariant,
    /// Iterations fold into a shared fp accumulator: reordering changes
    /// rounding and breaks the bit-identity tests.
    Sensitive,
}

impl ReductionOrder {
    /// The lowercase label used in the rendered reduction-order map.
    pub fn as_str(self) -> &'static str {
        match self {
            ReductionOrder::Invariant => "invariant",
            ReductionOrder::Sensitive => "sensitive",
        }
    }
}

/// One loop inside a kernel that the SIMD/shard work might reorder.
#[derive(Clone, Copy, Debug)]
pub struct ReductionSite {
    /// The op's transfer key (`Op::transfer_key`).
    pub op: &'static str,
    /// Which loop inside the kernel.
    pub site: &'static str,
    /// Whether reordering this loop preserves bit-identity.
    pub order: ReductionOrder,
    /// Why — one line, rendered into the checked-in map.
    pub note: &'static str,
}

/// Every reduction site in the kernel set, the machine-checked list of
/// which loops may be reordered. `retia-lint` diffs the rendered map
/// against `scripts/reduction-order.txt`.
pub const REDUCTION_SITES: &[ReductionSite] = &[
    ReductionSite {
        op: "matmul",
        site: "output-lanes",
        order: ReductionOrder::Invariant,
        note: "each output element is an independent dot product",
    },
    ReductionSite {
        op: "matmul",
        site: "inner-accumulation",
        order: ReductionOrder::Sensitive,
        note: "sequential fp sum over the shared k dimension",
    },
    ReductionSite {
        op: "matmul_nt",
        site: "output-lanes",
        order: ReductionOrder::Invariant,
        note: "each output element is an independent dot product",
    },
    ReductionSite {
        op: "matmul_nt",
        site: "inner-accumulation",
        order: ReductionOrder::Sensitive,
        note: "sequential fp sum over the shared k dimension",
    },
    ReductionSite {
        op: "conv1d",
        site: "output-lanes",
        order: ReductionOrder::Invariant,
        note: "each (row, channel, position) output is independent",
    },
    ReductionSite {
        op: "conv1d",
        site: "kernel-accumulation",
        order: ReductionOrder::Sensitive,
        note: "sequential fp sum over in_ch * ksize taps",
    },
    ReductionSite {
        op: "sum_rows",
        site: "row-accumulation",
        order: ReductionOrder::Sensitive,
        note: "sequential fp sum across each row",
    },
    ReductionSite {
        op: "sum_all",
        site: "global-accumulation",
        order: ReductionOrder::Sensitive,
        note: "single fp accumulator over every element",
    },
    ReductionSite {
        op: "mean_all",
        site: "global-accumulation",
        order: ReductionOrder::Sensitive,
        note: "single fp accumulator over every element",
    },
    ReductionSite {
        op: "add_n",
        site: "operand-order",
        order: ReductionOrder::Sensitive,
        note: "operands fold left-to-right into one fp accumulator",
    },
    ReductionSite {
        op: "gather_rows",
        site: "backward-scatter",
        order: ReductionOrder::Sensitive,
        note: "the gradient scatter-adds colliding rows in index order",
    },
    ReductionSite {
        op: "segment_sum",
        site: "output-lanes",
        order: ReductionOrder::Invariant,
        note: "output rows are independent (row-chunked forward)",
    },
    ReductionSite {
        op: "segment_sum",
        site: "entry-accumulation",
        order: ReductionOrder::Sensitive,
        note: "each row's weighted entries add in CSR storage order",
    },
    ReductionSite {
        op: "softmax_rows",
        site: "row-max",
        order: ReductionOrder::Invariant,
        note: "max is associative and commutative over floats without NaN",
    },
    ReductionSite {
        op: "softmax_rows",
        site: "row-sum",
        order: ReductionOrder::Sensitive,
        note: "normalizer is a sequential fp sum across the row",
    },
    ReductionSite {
        op: "softmax_xent",
        site: "row-sum",
        order: ReductionOrder::Sensitive,
        note: "normalizer is a sequential fp sum across the row",
    },
    ReductionSite {
        op: "layer_norm_rows",
        site: "moment-accumulation",
        order: ReductionOrder::Sensitive,
        note: "mean/variance are sequential fp sums across the row",
    },
    ReductionSite {
        op: "normalize_rows",
        site: "norm-accumulation",
        order: ReductionOrder::Sensitive,
        note: "squared-norm is a sequential fp sum across the row",
    },
];

/// Looks up a reduction site by op key and loop name.
pub fn reduction_site(op: &str, site: &str) -> Option<&'static ReductionSite> {
    REDUCTION_SITES.iter().find(|s| s.op == op && s.site == site)
}

/// Renders the sensitivity map in the checked-in format of
/// `scripts/reduction-order.txt`.
pub fn render_reduction_map() -> String {
    let mut out = String::from(
        "# Reduction-order sensitivity map — generated from\n\
         # retia_tensor::transfer::REDUCTION_SITES by\n\
         # `cargo run -p retia-analyze --bin retia-lint -- --write-reduction-map`.\n\
         # Do not edit by hand; retia-lint fails on any drift.\n",
    );
    for s in REDUCTION_SITES {
        out.push_str(&format!("{} {} {}  # {}\n", s.op, s.site, s.order.as_str(), s.note));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let i = Interval::new(3.0, -1.0);
        assert_eq!((i.lo, i.hi), (-1.0, 3.0));
        assert!(i.is_finite());
        assert!(i.contains(0.0));
        assert!(!i.contains(4.0));
        assert!(!i.contains(f32::NAN));
        assert!(Interval::top().contains(f32::NAN));
        assert!(Interval::top().contains(f32::INFINITY));
    }

    #[test]
    fn f32_overflow_sets_inf_flag() {
        let big = Interval::point(1e39);
        assert!(big.inf);
        let product = mul(Interval::point(1e20), Interval::point(1e20));
        assert!(product.inf);
    }

    #[test]
    fn exp_overflow_rule() {
        assert!(exp(Interval::new(0.0, 100.0)).inf);
        assert!(!exp(Interval::new(-10.0, 10.0)).inf);
        assert!(exp(Interval::new(-1000.0, 0.0)).is_finite());
    }

    #[test]
    fn ln_pole_rule() {
        let pole = ln(Interval::new(0.0, 1.0), 0.0);
        assert!(pole.inf && !pole.nan);
        let neg = ln(Interval::new(-1.0, 1.0), 1e-9);
        assert!(neg.nan && neg.inf);
        let safe = ln(Interval::new(0.0, 1.0), 1e-9);
        assert!(safe.is_finite());
    }

    #[test]
    fn div_pole_rule() {
        let pole = div(Interval::new(1.0, 2.0), Interval::new(-1.0, 1.0));
        assert!(pole.inf && !pole.nan);
        let zero_over_zero = div(Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0));
        assert!(zero_over_zero.nan && zero_over_zero.inf);
        let safe = div(Interval::new(-4.0, 4.0), Interval::new(2.0, 8.0));
        assert!(safe.is_finite());
        assert!(safe.contains(-2.0) && safe.contains(2.0));
    }

    #[test]
    fn saturating_ops_absorb_inf() {
        let mut x = Interval::new(-1e6, 1e6);
        x.inf = true;
        assert!(sigmoid(x).is_finite());
        assert!(tanh(x).is_finite());
        // Softmax's stabilization subtracts a possibly-infinite max.
        assert!(softmax(x).nan);
    }

    #[test]
    fn segment_sum_bounds_follow_the_measured_mass() {
        let unit = RowMass { pos: 3.0, neg: 0.0, terms: 3 };
        let y = segment_sum(Interval::new(0.0, 2.0), unit);
        assert_eq!(y.lo, 0.0, "nonnegative terms keep an exact zero bound");
        assert!(y.hi >= 6.0 && y.hi < 6.01, "{y}");
        let mixed = RowMass { pos: 1.0, neg: 0.5, terms: 2 };
        let y = segment_sum(Interval::new(-1.0, 2.0), mixed);
        assert!(y.contains(2.5) && y.contains(-2.0) && y.is_finite(), "{y}");
        let mut x = Interval::new(-1.0, 1.0);
        x.inf = true;
        assert!(segment_sum(x, unit).nan, "inf terms of both signs can cancel to NaN");
    }

    #[test]
    fn reduction_map_lookup_and_render() {
        assert_eq!(
            reduction_site("matmul_nt", "output-lanes").unwrap().order,
            ReductionOrder::Invariant
        );
        assert_eq!(
            reduction_site("softmax_rows", "row-sum").unwrap().order,
            ReductionOrder::Sensitive
        );
        assert!(reduction_site("sigmoid", "anything").is_none());
        let map = render_reduction_map();
        assert!(map.contains("matmul inner-accumulation sensitive"));
        assert!(map.lines().count() > REDUCTION_SITES.len());
        // Site keys are unique.
        let mut keys: Vec<_> = REDUCTION_SITES.iter().map(|s| (s.op, s.site)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), REDUCTION_SITES.len());
    }
}
