//! Bit-identity of the chunked-parallel kernels across thread counts.
//!
//! The parallel layer's contract is that the execution plan is a function of
//! shape only, so every kernel must produce bit-for-bit the same output at
//! any `RETIA_NUM_THREADS`. Shapes here are chosen large enough to clear the
//! `should_par` work threshold, so the multi-thread runs genuinely spawn
//! workers.

use retia_tensor::{parallel, Graph, ParamStore, Segments, Tensor};
use std::sync::{Mutex, MutexGuard};

/// The thread-count override is process-global; serialize tests that sweep it.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic pseudo-random tensor (SplitMix64, fixed seed per call site).
fn rand_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed;
    Tensor::from_fn(rows, cols, |_, _| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 40) as f32) / (1u64 << 24) as f32 - 0.5
    })
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.data().iter().zip(b.data().iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: value differs across thread counts");
    }
}

/// Runs `f` once per thread count and asserts all results are bit-identical.
fn sweep_threads(what: &str, f: impl Fn() -> Tensor) {
    let _guard = lock();
    parallel::set_num_threads(1);
    let reference = f();
    for threads in [2usize, 3, 8] {
        parallel::set_num_threads(threads);
        let got = f();
        assert_bits_eq(&reference, &got, what);
    }
    parallel::set_num_threads(0);
}

#[test]
fn matmul_bit_identical_across_threads() {
    let a = rand_tensor(200, 64, 1);
    let b = rand_tensor(64, 80, 2);
    assert!(parallel::should_par(200, 2 * 64 * 80), "shape must exercise the parallel path");
    sweep_threads("matmul", || a.matmul(&b));
}

#[test]
fn matmul_nt_bit_identical_across_threads() {
    let a = rand_tensor(200, 64, 3);
    let b = rand_tensor(80, 64, 4);
    sweep_threads("matmul_nt", || a.matmul_nt(&b));
}

#[test]
fn matmul_nt_range_shards_concatenate_bit_identical() {
    // The entity-sharded decode contract: scoring candidate row ranges with
    // "matmul_nt_range" and concatenating the columns must reproduce the
    // unsharded matmul_nt bit for bit, at any thread count and any shard
    // split (each output element is the same sequential dot product).
    let a = rand_tensor(50, 64, 30);
    let b = rand_tensor(80, 64, 31);
    let reference = {
        let _guard = lock();
        parallel::set_num_threads(1);
        let r = a.matmul_nt(&b);
        parallel::set_num_threads(0);
        r
    };
    for shards in [1usize, 2, 3, 7, 80] {
        let bounds: Vec<usize> = (0..=shards).map(|s| s * b.rows() / shards).collect();
        let parts: Vec<Tensor> =
            bounds.windows(2).map(|w| a.matmul_nt_range(&b, w[0], w[1])).collect();
        let mut stitched = Tensor::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            let mut col = 0usize;
            for part in &parts {
                let dst = i * b.rows() + col;
                stitched.data_mut()[dst..dst + part.cols()].copy_from_slice(part.row(i));
                col += part.cols();
            }
        }
        assert_bits_eq(&reference, &stitched, &format!("matmul_nt_range at {shards} shards"));
    }
}

#[test]
fn matmul_tn_bit_identical_across_threads() {
    let a = rand_tensor(64, 200, 5);
    let b = rand_tensor(64, 80, 6);
    assert!(parallel::should_par(200, 2 * 64 * 80));
    sweep_threads("matmul_tn", || a.matmul_tn(&b));
}

#[test]
fn matmul_tn_matches_explicit_transpose() {
    // The tn kernel was restructured for row-chunking; pin its values to the
    // unambiguous reference `transpose().matmul()` computed the plain way.
    let a = rand_tensor(64, 200, 7);
    let b = rand_tensor(64, 80, 8);
    let got = a.matmul_tn(&b);
    let want = a.transpose().matmul(&b);
    assert_eq!(got.shape(), want.shape());
    for (x, y) in got.data().iter().zip(want.data().iter()) {
        // Same multiply-add sequence per element in both kernels.
        assert_eq!(x.to_bits(), y.to_bits(), "tn kernel drifted from reference");
    }
}

/// The i-k-j loop's semantics written as a plain triple loop: each element
/// sums `a[i][kk] * b[kk][j]` from `+0.0` with `kk` ascending, skipping
/// terms whose left factor is `±0`.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    Tensor::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0f32;
        for kk in 0..a.cols() {
            let x = a.get(i, kk);
            if x == 0.0 {
                continue;
            }
            acc += x * b.get(kk, j);
        }
        acc
    })
}

#[test]
fn matmul_family_matches_naive_triple_loop_at_every_tile_edge() {
    // m, k and n straddle the 8x32 register tile and the 16-row thread
    // chunk. The left operand carries zeros and a -0.0 (the skipped terms);
    // the second pass puts inf and NaN in the right-operand rows only those
    // zeros multiply, which must still be skipped (0 * inf is NaN), and
    // sends every product down the non-finite path.
    for m in [1usize, 7, 8, 9, 16, 17, 200] {
        for k in [0usize, 1, 33, 200] {
            for n in [1usize, 31, 32, 33, 600] {
                let mut a = rand_tensor(m, k, 40);
                for (idx, x) in a.data_mut().iter_mut().enumerate() {
                    if idx % 7 == 3 {
                        *x = 0.0;
                    }
                }
                let b = rand_tensor(k, n, 41);
                let mut poisoned = b.clone();
                if k > 0 {
                    a.set(m - 1, k - 1, -0.0);
                    // Column 0 of the left operand is all zeros, so row 0 of
                    // the right operand only ever meets skipped terms.
                    for i in 0..m {
                        a.set(i, 0, if i % 2 == 0 { 0.0 } else { -0.0 });
                    }
                    for j in 0..n {
                        poisoned.set(0, j, if j % 2 == 0 { f32::INFINITY } else { f32::NAN });
                    }
                }
                let at = a.transpose();
                for (rhs, what) in [(&b, "finite"), (&poisoned, "inf/NaN rows")] {
                    let want = naive_matmul(&a, rhs);
                    for (got, kernel) in
                        [(a.matmul(rhs), "matmul"), (at.matmul_tn(rhs), "matmul_tn")]
                    {
                        assert_eq!(got.shape(), want.shape(), "{kernel} {m}x{k}x{n}: shape");
                        let differs = (got.data().iter().zip(want.data()))
                            .position(|(x, y)| x.to_bits() != y.to_bits());
                        assert_eq!(
                            differs, None,
                            "{kernel} {m}x{k}x{n}, {what}: first element off the naive loop"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn matmul_tile_path_bit_identical_across_threads() {
    // Full tiles plus partial edge rows and columns on both shapes.
    for (m, k, n) in [(37usize, 65usize, 70usize), (200, 200, 600)] {
        let a = rand_tensor(m, k, 42);
        let b = rand_tensor(k, n, 43);
        sweep_threads("matmul", || a.matmul(&b));
    }
}

#[test]
fn matmul_tn_tile_path_bit_identical_across_threads() {
    for (k, m, n) in [(65usize, 37usize, 70usize), (200, 200, 600)] {
        let a = rand_tensor(k, m, 44);
        let b = rand_tensor(k, n, 45);
        sweep_threads("matmul_tn", || a.matmul_tn(&b));
    }
}

#[test]
fn gather_softmax_bit_identical_across_threads() {
    let table = rand_tensor(300, 48, 9);
    let indices: Vec<u32> = (0..4096u32).map(|i| (i * 37) % 300).collect();
    sweep_threads("gather_rows", || table.gather_rows(&indices));

    let logits = rand_tensor(400, 96, 10);
    sweep_threads("softmax_rows", || logits.softmax_rows());
}

#[test]
fn scatter_add_rows_bit_identical_across_threads() {
    // scatter_add_rows executes sequentially by design (destination rows
    // collide), but it sits in the same kernel family and its output must
    // still be invariant to the configured thread count.
    let msgs = rand_tensor(4096, 48, 14);
    let indices: Vec<u32> = (0..4096u32).map(|i| (i * 131) % 300).collect();
    sweep_threads("scatter_add_rows", || msgs.scatter_add_rows(&indices, 300));
}

/// A fixed sparse row operator: 600 output rows of 0-15 entries over a
/// 300-row input, columns repeating, weights of both signs.
fn slot_plan() -> Segments {
    let mut offsets = vec![0usize];
    let (mut cols, mut weights) = (Vec::new(), Vec::new());
    for r in 0..600usize {
        for k in 0..(r * 7) % 16 {
            cols.push(u32::try_from((r * 13 + k * 31) % 300).expect("small index"));
            weights.push(((r + k) % 5) as f32 * 0.25 - 0.5);
        }
        offsets.push(cols.len());
    }
    Segments::new(offsets, cols, weights)
}

#[test]
fn segment_sum_forward_and_backward_bit_identical_across_threads() {
    let seg = std::rc::Rc::new(slot_plan());
    let x0 = rand_tensor(300, 64, 18);
    let mean_row = seg.nnz().div_ceil(seg.num_rows());
    assert!(parallel::should_par(seg.num_rows(), 2 * 64 * mean_row));
    sweep_threads("segment_sum", || x0.segment_sum(&seg));

    // The backward applies the transposed operator (300 rows, ~15 entries
    // each), which takes the parallel path too.
    sweep_threads("segment_sum backward", || {
        let mut store = ParamStore::new(0);
        store.register("x", x0.clone());
        let mut g = Graph::new(false, 0);
        let x = g.param(&store, "x");
        let y = g.segment_sum(x, seg.clone());
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut store);
        store.grad("x").clone()
    });
}

#[test]
fn kernels_pass_write_set_tracking() {
    // Debug-assertions race detector: run the row-chunked kernels with
    // write-set recording on and assert each invocation verified disjoint,
    // exactly-covering chunk writes (release builds: tracking is a no-op).
    let _guard = lock();
    parallel::writeset::set_tracking(true);
    let before = parallel::writeset::verified_count();
    parallel::set_num_threads(4);
    let a = rand_tensor(200, 64, 15);
    let b = rand_tensor(64, 80, 16);
    let _ = a.matmul(&b);
    let table = rand_tensor(300, 48, 17);
    let indices: Vec<u32> = (0..4096u32).map(|i| (i * 37) % 300).collect();
    let _ = table.gather_rows(&indices);
    let _ = rand_tensor(300, 64, 19).segment_sum(&slot_plan());
    parallel::set_num_threads(0);
    parallel::writeset::set_tracking(false);
    if cfg!(debug_assertions) {
        assert!(
            parallel::writeset::verified_count() > before,
            "write-set tracker verified nothing in a debug build"
        );
    }
}

#[test]
fn conv1d_forward_and_backward_bit_identical_across_threads() {
    let (batch, in_ch, out_ch, width, ksize) = (128usize, 2usize, 3usize, 64usize, 3usize);
    assert!(parallel::should_par(batch, 2 * out_ch * width * in_ch * ksize));
    let x0 = rand_tensor(batch, in_ch * width, 11);
    let w0 = rand_tensor(out_ch, in_ch * ksize, 12);
    let b0 = rand_tensor(1, out_ch, 13);
    let targets = std::rc::Rc::new(
        (0..batch as u32).map(|i| i % (out_ch as u32 * width as u32)).collect::<Vec<u32>>(),
    );

    let run = || -> (Tensor, Tensor, Tensor, Tensor) {
        let mut store = ParamStore::new(0);
        store.register("x", x0.clone());
        store.register("w", w0.clone());
        store.register("b", b0.clone());
        let mut g = Graph::new(true, 0);
        let x = g.param(&store, "x");
        let w = g.param(&store, "w");
        let b = g.param(&store, "b");
        let y = g.conv1d(x, w, b, in_ch, out_ch, ksize);
        let loss = g.softmax_xent(y, targets.clone());
        let out = g.value(y).clone();
        g.backward(loss, &mut store);
        (out, store.grad("x").clone(), store.grad("w").clone(), store.grad("b").clone())
    };

    let _guard = lock();
    parallel::set_num_threads(1);
    let (y1, gx1, gw1, gb1) = run();
    for threads in [2usize, 8] {
        parallel::set_num_threads(threads);
        let (y, gx, gw, gb) = run();
        assert_bits_eq(&y1, &y, "conv1d forward");
        assert_bits_eq(&gx1, &gx, "conv1d grad x");
        assert_bits_eq(&gw1, &gw, "conv1d grad w");
        assert_bits_eq(&gb1, &gb, "conv1d grad b");
    }
    parallel::set_num_threads(0);
}
