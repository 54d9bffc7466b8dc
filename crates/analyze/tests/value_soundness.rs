//! Property tests: the abstract interpreter must be *sound* against real
//! f32 execution. Random valid op sequences are replayed both ways —
//! through [`retia_analyze::AuditCtx`] (abstract) and through a real
//! [`retia_tensor::Graph`] in training mode (concrete, including the random
//! dropout masks and rrelu slopes). At every step the abstract shape must
//! equal the concrete one, every concrete element must lie inside the
//! abstract interval, and no valid op may raise a shape finding. Directed
//! tests then pin the edges the random walk is unlikely to reach:
//! out-of-range gathers and segment sums, exponential overflow, the log
//! pole, division through zero, `inf - inf`, and softmax saturation.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retia_analyze::value::AbsId;
use retia_analyze::{AuditCtx, AuditKind};
use retia_tensor::transfer::{self, Interval, RowMass, F32_EXP_OVERFLOW};
use retia_tensor::{Graph, NodeId, Segments, Tensor};

/// One live value tracked through both executions.
#[derive(Clone, Copy)]
struct Twin {
    real: NodeId,
    abst: AbsId,
}

/// A fresh leaf: concrete values drawn uniformly from `[a, b]`, abstract
/// value the interval `[a, b]` itself.
fn fresh(g: &mut Graph, ctx: &mut AuditCtx, rng: &mut StdRng, rows: usize, cols: usize) -> Twin {
    let a = rng.gen_range(-4.0f32..-0.5);
    let b = rng.gen_range(0.5f32..4.0);
    let t = Tensor::from_fn(rows, cols, |_, _| rng.gen_range(a..b));
    Twin {
        real: g.constant(t),
        abst: ctx.source(rows, cols, Interval::new(f64::from(a), f64::from(b))),
    }
}

/// Every concrete element must be admitted by the abstract value, the
/// abstract shape must match the concrete one, and the valid op must not
/// have raised a shape finding.
fn assert_contained(g: &Graph, ctx: &AuditCtx, t: Twin, seed: u64, step: usize, op: &str) {
    let iv = ctx.interval(t.abst);
    let real = g.value(t.real);
    assert_eq!(real.shape(), ctx.shape(t.abst), "seed {seed} step {step} {op}: shape diverged");
    let shape_findings: Vec<_> =
        ctx.issues().iter().filter(|i| i.kind == AuditKind::Shape).collect();
    assert!(
        shape_findings.is_empty(),
        "seed {seed} step {step} {op}: a valid op raised shape findings: {shape_findings:?}"
    );
    for (i, &v) in real.data().iter().enumerate() {
        assert!(
            iv.contains(v),
            "seed {seed} step {step} {op}: concrete element {i} = {v} escapes abstract {iv:?}"
        );
    }
}

#[test]
fn random_op_sequences_stay_inside_the_abstract_interval() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xF10A + seed);
        // Training mode: dropout masks and rrelu slopes are live, so the
        // abstract transfer functions must cover the stochastic kernels too.
        let mut g = Graph::new(true, seed);
        let mut ctx = AuditCtx::new();
        let mut pool: Vec<Twin> = (0..3)
            .map(|_| {
                let (r, c) = (rng.gen_range(1..6usize), rng.gen_range(1..6usize));
                fresh(&mut g, &mut ctx, &mut rng, r, c)
            })
            .collect();

        for step in 0..30 {
            let t = pool[rng.gen_range(0..pool.len())];
            let (rows, cols) = ctx.shape(t.abst);
            let (result, op) = match rng.gen_range(0..25u32) {
                0 => {
                    let b = fresh(&mut g, &mut ctx, &mut rng, rows, cols);
                    (Twin { real: g.add(t.real, b.real), abst: ctx.add(t.abst, b.abst) }, "add")
                }
                1 => {
                    let b = fresh(&mut g, &mut ctx, &mut rng, rows, cols);
                    (Twin { real: g.sub(t.real, b.real), abst: ctx.sub(t.abst, b.abst) }, "sub")
                }
                2 => {
                    let b = fresh(&mut g, &mut ctx, &mut rng, rows, cols);
                    (Twin { real: g.mul(t.real, b.real), abst: ctx.mul(t.abst, b.abst) }, "mul")
                }
                3 => {
                    let b = fresh(&mut g, &mut ctx, &mut rng, 1, cols);
                    (
                        Twin {
                            real: g.add_bias(t.real, b.real),
                            abst: ctx.add_bias(t.abst, b.abst),
                        },
                        "add_bias",
                    )
                }
                4 => {
                    let b = fresh(&mut g, &mut ctx, &mut rng, 1, cols);
                    (
                        Twin {
                            real: g.mul_bias(t.real, b.real),
                            abst: ctx.mul_bias(t.abst, b.abst),
                        },
                        "mul_bias",
                    )
                }
                5 => {
                    let c = fresh(&mut g, &mut ctx, &mut rng, rows, 1);
                    (
                        Twin { real: g.mul_col(t.real, c.real), abst: ctx.mul_col(t.abst, c.abst) },
                        "mul_col",
                    )
                }
                6 => {
                    let s = rng.gen_range(-2.0f32..2.0);
                    (
                        Twin { real: g.scale(t.real, s), abst: ctx.scale(t.abst, f64::from(s)) },
                        "scale",
                    )
                }
                7 => {
                    let s = rng.gen_range(-2.0f32..2.0);
                    (
                        Twin {
                            real: g.add_scalar(t.real, s),
                            abst: ctx.add_scalar(t.abst, f64::from(s)),
                        },
                        "add_scalar",
                    )
                }
                8 => {
                    let n = rng.gen_range(1..6usize);
                    let b = fresh(&mut g, &mut ctx, &mut rng, cols, n);
                    (
                        Twin { real: g.matmul(t.real, b.real), abst: ctx.matmul(t.abst, b.abst) },
                        "matmul",
                    )
                }
                9 => {
                    let n = rng.gen_range(1..6usize);
                    let b = fresh(&mut g, &mut ctx, &mut rng, n, cols);
                    (
                        Twin {
                            real: g.matmul_nt(t.real, b.real),
                            abst: ctx.matmul_nt(t.abst, b.abst),
                        },
                        "matmul_nt",
                    )
                }
                10 => (Twin { real: g.sigmoid(t.real), abst: ctx.sigmoid(t.abst) }, "sigmoid"),
                11 => (Twin { real: g.tanh(t.real), abst: ctx.tanh(t.abst) }, "tanh"),
                12 => (Twin { real: g.relu(t.real), abst: ctx.relu(t.abst) }, "relu"),
                13 => (Twin { real: g.rrelu(t.real), abst: ctx.rrelu(t.abst) }, "rrelu"),
                14 => {
                    let p = rng.gen_range(0.0f32..0.5);
                    (
                        Twin {
                            real: g.dropout(t.real, p),
                            abst: ctx.dropout(t.abst, f64::from(p)),
                        },
                        "dropout",
                    )
                }
                15 => {
                    let count = rng.gen_range(1..8usize);
                    let idx: Vec<u32> = (0..count)
                        .map(|_| u32::try_from(rng.gen_range(0..rows)).expect("small index"))
                        .collect();
                    (
                        Twin {
                            abst: ctx.gather_rows(t.abst, &idx),
                            real: g.gather_rows(t.real, Rc::new(idx)),
                        },
                        "gather_rows",
                    )
                }
                16 => {
                    // A scatter-add: each input row lands on a random output
                    // row, untouched rows stay zero.
                    let out_rows = rows + rng.gen_range(0..3usize);
                    let mut groups = vec![Vec::new(); out_rows];
                    for i in 0..rows {
                        groups[rng.gen_range(0..out_rows)]
                            .push(u32::try_from(i).expect("small index"));
                    }
                    let seg = Segments::unit(&groups);
                    (
                        Twin {
                            abst: ctx.segment_sum(t.abst, &seg),
                            real: g.segment_sum(t.real, Rc::new(seg)),
                        },
                        "segment_sum (scatter)",
                    )
                }
                17 => {
                    let w: Vec<f32> = (0..rows).map(|_| rng.gen_range(0.0f32..1.0)).collect();
                    (
                        Twin {
                            abst: ctx.row_scale(t.abst, w.len(), Interval::new(0.0, 1.0)),
                            real: g.row_scale(t.real, Rc::new(w)),
                        },
                        "row_scale",
                    )
                }
                18 => {
                    let n = rng.gen_range(1..5usize);
                    let b = fresh(&mut g, &mut ctx, &mut rng, rows, n);
                    (
                        Twin {
                            real: g.concat_cols(t.real, b.real),
                            abst: ctx.concat_cols(t.abst, b.abst),
                        },
                        "concat_cols",
                    )
                }
                19 => {
                    let start = rng.gen_range(0..cols);
                    let end = rng.gen_range(start + 1..cols + 1);
                    (
                        Twin {
                            real: g.slice_cols(t.real, start, end),
                            abst: ctx.slice_cols(t.abst, start, end),
                        },
                        "slice_cols",
                    )
                }
                20 => (
                    Twin { real: g.softmax_rows(t.real), abst: ctx.softmax_rows(t.abst) },
                    "softmax_rows",
                ),
                21 => (Twin { real: g.sum_rows(t.real), abst: ctx.sum_rows(t.abst) }, "sum_rows"),
                22 => {
                    let b = fresh(&mut g, &mut ctx, &mut rng, rows, cols);
                    let c = fresh(&mut g, &mut ctx, &mut rng, rows, cols);
                    (
                        Twin {
                            real: g.add_n(&[t.real, b.real, c.real]),
                            abst: ctx.add_n(&[t.abst, b.abst, c.abst]),
                        },
                        "add_n",
                    )
                }
                23 => {
                    // Rows of 0-4 entries over `t`'s rows, weights of both
                    // signs (repeats allowed, empty rows too).
                    let out_rows = rng.gen_range(1..6usize);
                    let mut offsets = vec![0usize];
                    let (mut idx, mut w) = (Vec::new(), Vec::new());
                    for _ in 0..out_rows {
                        for _ in 0..rng.gen_range(0..5usize) {
                            idx.push(u32::try_from(rng.gen_range(0..rows)).expect("small index"));
                            w.push(rng.gen_range(-1.5f32..1.5));
                        }
                        offsets.push(idx.len());
                    }
                    let seg = Segments::new(offsets, idx, w);
                    (
                        Twin {
                            abst: ctx.segment_sum(t.abst, &seg),
                            real: g.segment_sum(t.real, Rc::new(seg)),
                        },
                        "segment_sum",
                    )
                }
                _ => (
                    Twin { real: g.layer_norm_rows(t.real), abst: ctx.layer_norm_rows(t.abst) },
                    "layer_norm_rows",
                ),
            };
            assert_contained(&g, &ctx, result, seed, step, op);
            pool.push(result);
        }

        // Close each sequence with the reductions the loss path uses.
        let t = pool[rng.gen_range(0..pool.len())];
        for (result, op) in [
            (
                Twin { real: g.normalize_rows(t.real), abst: ctx.normalize_rows(t.abst) },
                "normalize",
            ),
            (Twin { real: g.sum_all(t.real), abst: ctx.sum_all(t.abst) }, "sum_all"),
            (Twin { real: g.mean_all(t.real), abst: ctx.mean_all(t.abst) }, "mean_all"),
        ] {
            assert_contained(&g, &ctx, result, seed, 99, op);
        }
    }
}

#[test]
fn gather_cols_ln_and_xent_stay_inside_the_abstract_interval() {
    // The loss path: softmax -> gather the target column -> ln(p + eps).
    let mut rng = StdRng::seed_from_u64(0x105E);
    for round in 0..20 {
        let n = rng.gen_range(1..6usize);
        let c = rng.gen_range(2..7usize);
        let mut g = Graph::new(true, round);
        let mut ctx = AuditCtx::new();
        let x = fresh(&mut g, &mut ctx, &mut rng, n, c);
        let probs = Twin { real: g.softmax_rows(x.real), abst: ctx.softmax_rows(x.abst) };
        let targets: Vec<u32> =
            (0..n).map(|_| u32::try_from(rng.gen_range(0..c)).expect("small index")).collect();
        let picked = Twin {
            real: g.gather_cols(probs.real, Rc::new(targets.clone())),
            abst: ctx.gather_cols(probs.abst, &targets),
        };
        assert_contained(&g, &ctx, picked, round, 0, "gather_cols");
        let nll = Twin { real: g.ln(picked.real, 1e-9), abst: ctx.ln(picked.abst, 1e-9) };
        assert_contained(&g, &ctx, nll, round, 1, "ln");
        // The fused kernel mean-reduces the per-row losses to a scalar.
        let per_row = ctx.softmax_xent(x.abst, &targets);
        let fused =
            Twin { real: g.softmax_xent(x.real, Rc::new(targets)), abst: ctx.mean_all(per_row) };
        assert_contained(&g, &ctx, fused, round, 2, "softmax_xent");
    }
}

#[test]
fn conv1d_stays_inside_the_abstract_interval() {
    let mut rng = StdRng::seed_from_u64(0xC0);
    for round in 0..20 {
        let width = rng.gen_range(2..9usize);
        let in_ch = 2usize;
        let out_ch = rng.gen_range(1..6usize);
        let ksize = rng.gen_range(1..4usize);
        let n = rng.gen_range(1..5usize);
        let mut g = Graph::new(true, round);
        let mut ctx = AuditCtx::new();
        let x = fresh(&mut g, &mut ctx, &mut rng, n, in_ch * width);
        let w = fresh(&mut g, &mut ctx, &mut rng, out_ch, in_ch * ksize);
        let b = fresh(&mut g, &mut ctx, &mut rng, 1, out_ch);
        let result = Twin {
            real: g.conv1d(x.real, w.real, b.real, in_ch, out_ch, ksize),
            abst: ctx.conv1d(x.abst, w.abst, b.abst, in_ch, out_ch, ksize),
        };
        assert_contained(&g, &ctx, result, round, 0, "conv1d");
    }
}

#[test]
fn segment_sum_bound_covers_weight_mass_above_one() {
    // Row 0: a hub slot's c degree norms f32(1/c), summed sequentially in
    // f32 over unit inputs, overshoots 1 by ~6e-4. Row 1: three f32(1/3),
    // whose exact sum is above 1. Row 2 is empty, row 3 mixes signs.
    let c = 50_000usize;
    let third = 1.0f32 / 3.0;
    let mut cols = vec![0u32; c];
    let mut weights = vec![1.0 / 50_000.0f32; c];
    cols.extend([1, 2, 3, 0, 3]);
    weights.extend([third, third, third, -0.75, 1.25]);
    let seg = Segments::new(vec![0, c, c + 3, c + 3, c + 5], cols, weights);
    let thirds = Segments::new(vec![0, 3], vec![1, 2, 3], vec![third; 3]);
    assert!(thirds.mass().pos > 1.0, "three f32(1/3) weights sum above 1");

    let mut g = Graph::new(false, 0);
    let mut ctx = AuditCtx::new();
    let x = Twin {
        real: g.constant(Tensor::from_vec(4, 1, vec![1.0, 1.0, 1.0, 0.25])),
        abst: ctx.source(4, 1, Interval::new(0.25, 1.0)),
    };
    let summed =
        Twin { abst: ctx.segment_sum(x.abst, &seg), real: g.segment_sum(x.real, Rc::new(seg)) };
    assert_contained(&g, &ctx, summed, 0, 0, "segment_sum");
    let hub = g.value(summed.real).get(0, 0);
    assert!(hub > 1.0005, "the f32 hub sum should overshoot 1, got {hub}");
    // A rule that assumed unit mass and ignored rounding would miss it.
    let assumed =
        transfer::segment_sum(Interval::new(0.25, 1.0), RowMass { pos: 1.0, neg: 0.0, terms: 0 });
    assert!(!assumed.contains(hub), "{assumed} unexpectedly contains {hub}");
}

// ---- directed out-of-range indices -----------------------------------------

/// Runs `f` over a `[3, 4]` source and returns the one shape finding it
/// raised, which must be against `op`.
fn single_shape_finding(op: &str, f: impl FnOnce(&mut AuditCtx, AbsId)) -> String {
    let mut ctx = AuditCtx::new();
    let x = ctx.source(3, 4, Interval::new(-1.0, 1.0));
    f(&mut ctx, x);
    let report = ctx.finish();
    assert_eq!(report.issues.len(), 1, "{report}");
    let issue = &report.issues[0];
    assert_eq!((issue.kind, issue.op.as_str()), (AuditKind::Shape, op), "{report}");
    issue.detail.clone()
}

#[test]
fn gather_rows_out_of_range_is_a_shape_finding() {
    let detail = single_shape_finding("gather_rows", |ctx, x| {
        let y = ctx.gather_rows(x, &[0, 3]);
        // The replay continues with the shape the gather would produce.
        assert_eq!(ctx.shape(y), (2, 4));
    });
    assert!(detail.contains("index 3 out of range for 3 rows"), "{detail}");
}

#[test]
fn gather_cols_out_of_range_is_a_shape_finding() {
    let detail = single_shape_finding("gather_cols", |ctx, x| {
        ctx.gather_cols(x, &[0, 4, 1]);
    });
    assert!(detail.contains("column index 4 out of range for 4 columns"), "{detail}");
    let detail = single_shape_finding("gather_cols", |ctx, x| {
        ctx.gather_cols(x, &[0, 1]);
    });
    assert!(detail.contains("2 column indices for 3 rows"), "{detail}");
}

#[test]
fn segment_sum_out_of_range_is_a_shape_finding() {
    let detail = single_shape_finding("segment_sum", |ctx, x| {
        let y = ctx.segment_sum(x, &Segments::unit(&[vec![0, 2], vec![], vec![3]]));
        assert_eq!(ctx.shape(y), (3, 4));
    });
    assert!(detail.contains("column index 3 out of range for 3 rows"), "{detail}");
}

// ---- directed non-finiteness edges ----------------------------------------

#[test]
fn exp_overflow_is_admitted_and_flagged() {
    let mut ctx = AuditCtx::new();
    let x = ctx.source(1, 1, Interval::new(80.0, 90.0));
    let y = ctx.exp(x);
    let iv = ctx.interval(y);
    // 89 > ln(f32::MAX): the concrete kernel overflows to +inf.
    assert!(iv.contains(89.0f32.exp()), "exp(89) = {} escapes {iv:?}", 89.0f32.exp());
    assert!(89.0f32.exp().is_infinite());
    assert!(iv.inf, "interval crossing {F32_EXP_OVERFLOW} must admit +inf");
    // Finiteness introduction: finite inputs, non-finite output -> finding.
    let report = ctx.finish();
    assert!(report.issues.iter().any(|i| i.op == "exp"), "{report}");
    // Below the overflow threshold no finding is recorded.
    let mut ok = AuditCtx::new();
    let x = ok.source(1, 1, Interval::new(-5.0, 5.0));
    let y = ok.exp(x);
    assert!(ok.interval(y).contains(5.0f32.exp()));
    assert!(ok.finish().is_clean());
}

#[test]
fn log_pole_is_admitted_and_flagged() {
    // An unshifted log over an interval reaching zero admits -inf; going
    // negative admits NaN. The concrete kernel computes ln(x + eps).
    let mut ctx = AuditCtx::new();
    let x = ctx.source(1, 1, Interval::new(0.0, 1.0));
    let y = ctx.ln(x, 0.0);
    let iv = ctx.interval(y);
    assert!(iv.inf, "ln over [0,1] with eps=0 must admit -inf");
    assert!(iv.contains((0.0f32).ln()), "ln(0) = -inf escapes {iv:?}");
    assert!(!ctx.finish().is_clean());
    // The shipped eps guard removes the pole: ln(p + 1e-9) over [0,1] is
    // finite, and the concrete extremes stay inside.
    let mut ok = AuditCtx::new();
    let p = ok.source(1, 1, Interval::new(0.0, 1.0));
    let y = ok.ln(p, 1e-9);
    let iv = ok.interval(y);
    assert!(iv.contains((0.0f32 + 1e-9).ln()), "ln(eps) escapes {iv:?}");
    assert!(iv.contains((1.0f32 + 1e-9).ln()));
    assert!(ok.finish().is_clean());
}

#[test]
fn division_through_zero_is_admitted_and_flagged() {
    let mut ctx = AuditCtx::new();
    let a = ctx.source(1, 1, Interval::new(1.0, 2.0));
    let b = ctx.source(1, 1, Interval::new(-1.0, 1.0));
    let y = ctx.div(a, b);
    let iv = ctx.interval(y);
    // The numerator is bounded away from zero, so 1/0 = +-inf is the edge.
    assert!(iv.contains(1.0f32 / 0.0f32), "1/0 escapes {iv:?}");
    assert!(iv.inf, "division through zero must admit inf: {iv:?}");
    assert!(!ctx.finish().is_clean());
    // With zero over zero possible, NaN must be admitted too.
    let mut zz = AuditCtx::new();
    let a = zz.source(1, 1, Interval::new(-1.0, 1.0));
    let b = zz.source(1, 1, Interval::new(-1.0, 1.0));
    let y = zz.div(a, b);
    let iv = zz.interval(y);
    assert!(iv.contains(f32::NAN), "0/0 (NaN) escapes {iv:?}");
    assert!(iv.nan, "0/0 must admit NaN: {iv:?}");
    // A denominator bounded away from zero divides cleanly.
    let mut ok = AuditCtx::new();
    let a = ok.source(1, 1, Interval::new(1.0, 2.0));
    let b = ok.source(1, 1, Interval::new(0.5, 1.0));
    let y = ok.div(a, b);
    assert!(ok.interval(y).contains(2.0 / 0.5));
    assert!(ok.finish().is_clean());
}

#[test]
fn inf_minus_inf_is_admitted_as_nan() {
    let mut ctx = AuditCtx::new();
    // Bounds beyond f32::MAX: the concrete value would already be +-inf.
    let a = ctx.source(1, 1, Interval::new(0.0, 1e39));
    let b = ctx.source(1, 1, Interval::new(0.0, 1e39));
    assert!(ctx.interval(a).inf, "a bound beyond f32::MAX must set the inf flag");
    let y = ctx.sub(a, b);
    let iv = ctx.interval(y);
    assert!(iv.contains(f32::INFINITY - f32::INFINITY), "inf - inf (NaN) escapes {iv:?}");
    assert!(iv.nan, "inf - inf must admit NaN: {iv:?}");
}

#[test]
fn softmax_saturates_finite_inputs_and_poisons_infinite_ones() {
    // Finite logits, however large: the max-subtracting kernel lands in
    // [0, 1] and the abstract output is finite.
    let mut ctx = AuditCtx::new();
    let x = ctx.source(2, 4, Interval::new(-200.0, 200.0));
    let y = ctx.softmax_rows(x);
    let iv = ctx.interval(y);
    let mut g = Graph::new(false, 0);
    let big = g.constant(Tensor::from_fn(2, 4, |i, j| if i == j { 200.0 } else { -200.0 }));
    let sm = g.softmax_rows(big);
    for &v in g.value(sm).data() {
        assert!(iv.contains(v), "softmax({v}) escapes {iv:?}");
    }
    assert!(!iv.inf && !iv.nan, "finite logits softmax cleanly: {iv:?}");
    assert!(ctx.finish().is_clean());
    // Infinite logits poison the row: inf - inf inside the stabilization.
    let mut bad = AuditCtx::new();
    let x = bad.source(2, 4, Interval::new(-1e39, 1e39));
    let y = bad.softmax_rows(x);
    assert!(bad.interval(y).nan, "softmax of +-inf logits must admit NaN");
}
