//! Property tests: the abstract shape interpreter must agree with real
//! tensor execution on every op it models. Random valid op sequences are
//! replayed both ways — through [`retia_analyze::ShapeCtx`] and through a
//! real [`retia_tensor::Graph`] — and the predicted shape must equal the
//! concrete one at every step, with no issues recorded.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retia_analyze::{ShapeCtx, ShapeTensor};
use retia_tensor::{Graph, NodeId, Segments, Tensor};

/// One live value tracked through both executions.
#[derive(Clone, Copy)]
struct Twin {
    real: NodeId,
    abst: ShapeTensor,
}

fn fresh(g: &mut Graph, rows: usize, cols: usize) -> Twin {
    Twin { real: g.constant(Tensor::ones(rows, cols)), abst: ShapeTensor::new(rows, cols) }
}

fn shape_of(g: &Graph, t: Twin) -> (usize, usize) {
    g.value(t.real).shape()
}

#[test]
fn random_op_sequences_agree_with_real_execution() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xABCD + seed);
        let mut g = Graph::new(false, 0);
        let mut ctx = ShapeCtx::new();
        let mut pool: Vec<Twin> = (0..3)
            .map(|_| fresh(&mut g, rng.gen_range(1..6usize), rng.gen_range(1..6usize)))
            .collect();

        for step in 0..25 {
            let t = pool[rng.gen_range(0..pool.len())];
            let (rows, cols) = shape_of(&g, t);
            let result = match rng.gen_range(0..12u32) {
                0 => {
                    let b = fresh(&mut g, cols, rng.gen_range(1..6usize));
                    Twin { real: g.matmul(t.real, b.real), abst: ctx.matmul(t.abst, b.abst) }
                }
                1 => {
                    let b = fresh(&mut g, rng.gen_range(1..6usize), cols);
                    Twin { real: g.matmul_nt(t.real, b.real), abst: ctx.matmul_nt(t.abst, b.abst) }
                }
                2 => {
                    let b = fresh(&mut g, rows, cols);
                    Twin { real: g.add(t.real, b.real), abst: ctx.add(t.abst, b.abst) }
                }
                3 => {
                    let b = fresh(&mut g, rows, cols);
                    Twin { real: g.mul(t.real, b.real), abst: ctx.mul(t.abst, b.abst) }
                }
                4 => {
                    let b = fresh(&mut g, 1, cols);
                    Twin { real: g.add_bias(t.real, b.real), abst: ctx.add_bias(t.abst, b.abst) }
                }
                5 => {
                    let b = fresh(&mut g, rows, rng.gen_range(1..5usize));
                    Twin {
                        real: g.concat_cols(t.real, b.real),
                        abst: ctx.concat_cols(t.abst, b.abst),
                    }
                }
                6 => {
                    let start = rng.gen_range(0..cols);
                    let end = rng.gen_range(start + 1..cols + 1);
                    Twin {
                        real: g.slice_cols(t.real, start, end),
                        abst: ctx.slice_cols(t.abst, start, end),
                    }
                }
                7 => {
                    let idx: Vec<u32> = (0..rng.gen_range(1..8usize))
                        .map(|_| rng.gen_range(0..rows) as u32)
                        .collect();
                    Twin {
                        real: g.gather_rows(t.real, Rc::new(idx.clone())),
                        abst: ctx.gather_rows(t.abst, &idx),
                    }
                }
                8 => {
                    // A scatter-add: each input row lands on a random output row.
                    let out_rows = rows + rng.gen_range(0..3usize);
                    let mut groups = vec![Vec::new(); out_rows];
                    for i in 0..rows {
                        groups[rng.gen_range(0..out_rows)].push(i as u32);
                    }
                    let seg = Segments::unit(&groups);
                    Twin {
                        abst: ctx.segment_sum(t.abst, &seg),
                        real: g.segment_sum(t.real, Rc::new(seg)),
                    }
                }
                9 => {
                    let w: Vec<f32> = (0..rows).map(|_| 1.0).collect();
                    Twin {
                        real: g.row_scale(t.real, Rc::new(w.clone())),
                        abst: ctx.row_scale(t.abst, w.len()),
                    }
                }
                10 => Twin { real: g.relu(t.real), abst: ctx.unary("relu", t.abst) },
                _ => Twin { real: g.sum_rows(t.real), abst: ctx.sum_rows(t.abst) },
            };
            assert!(
                ctx.issues().is_empty(),
                "seed {seed} step {step}: interpreter flagged a valid op: {:?}",
                ctx.issues()
            );
            assert_eq!(
                shape_of(&g, result),
                result.abst.shape(),
                "seed {seed} step {step}: abstract shape diverged from real execution"
            );
            pool.push(result);
        }

        // Reductions at the end of each sequence.
        let t = pool[rng.gen_range(0..pool.len())];
        let real = g.mean_all(t.real);
        let abst = ctx.mean_all(t.abst);
        assert_eq!(g.value(real).shape(), abst.shape());
        assert!(ctx.finish().is_clean());
    }
}

#[test]
fn conv1d_agrees_with_real_execution() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..20 {
        let width = rng.gen_range(2..9usize);
        let in_ch = 2usize;
        let out_ch = rng.gen_range(1..6usize);
        let ksize = rng.gen_range(1..4usize);
        let n = rng.gen_range(1..5usize);
        let mut g = Graph::new(false, 0);
        let mut ctx = ShapeCtx::new();
        let x = fresh(&mut g, n, in_ch * width);
        let w = fresh(&mut g, out_ch, in_ch * ksize);
        let b = fresh(&mut g, 1, out_ch);
        let real = g.conv1d(x.real, w.real, b.real, in_ch, out_ch, ksize);
        let abst = ctx.conv1d(x.abst, w.abst, b.abst, in_ch, out_ch, ksize);
        assert_eq!(g.value(real).shape(), abst.shape());
        assert!(ctx.finish().is_clean());
    }
}

#[test]
fn softmax_xent_agrees_with_real_execution() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..20 {
        let n = rng.gen_range(1..6usize);
        let c = rng.gen_range(2..7usize);
        let mut g = Graph::new(false, 0);
        let mut ctx = ShapeCtx::new();
        let x = fresh(&mut g, n, c);
        let targets: Vec<u32> = (0..n).map(|_| rng.gen_range(0..c) as u32).collect();
        let real = g.softmax_xent(x.real, Rc::new(targets.clone()));
        let abst = ctx.softmax_xent(x.abst, targets.len());
        assert_eq!(g.value(real).shape(), abst.shape());
        assert!(ctx.finish().is_clean());
    }
}
