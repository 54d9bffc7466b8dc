//! Dense, row-major `f32` matrix.
//!
//! Everything in the RETIA stack is rank-2: embedding tables are
//! `[num_items, dim]`, batches of queries are `[batch, dim]`, scalars are
//! `[1, 1]`. Convolutional activations are stored channels-major inside the
//! row (`[batch, channels * width]`); the convolution op carries the channel
//! count out-of-band.

use crate::segments::{index, Segments};

/// A dense `rows x cols` matrix of `f32` in row-major order.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A `rows x cols` tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// A `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a tensor from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// Builds a tensor by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Tensor { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// A `1 x 1` tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Tensor { rows: 1, cols: 1, data: vec![value] }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets the element at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = value;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let c = self.cols;
        &self.data[i * c..(i + 1) * c]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let c = self.cols;
        &mut self.data[i * c..(i + 1) * c]
    }

    /// The value of a `1 x 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise addition. Shapes must match.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction. Shapes must match.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product. Shapes must match.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise combination with `f`. Shapes must match.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in elementwise op");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// `self += other`. Shapes must match.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += scale * other`. Shapes must match.
    pub fn add_scaled_assign(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_scaled_assign");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Matrix product `self @ other` (`[m,k] @ [k,n] -> [m,n]`).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} @ {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let _t = retia_obs::kernel_span("matmul");
        let mut out = vec![0.0f32; m * n];
        let product = Product::<false>::new(self, other);
        // Output rows are independent, so row-chunked execution computes each
        // element with the same kk-ascending accumulation as one sequential
        // pass (see `Product` for why the tiles do too).
        crate::parallel::for_each_row_chunk(&mut out, n, 2 * k * n, |first_row, chunk| {
            product.rows_into(first_row, chunk)
        });
        Tensor { rows: m, cols: n, data: out }
    }

    /// Matrix product with the right operand transposed:
    /// `self @ other^T` (`[m,k] @ [n,k]^T -> [m,n]`).
    ///
    /// This is the decoder-scoring kernel (`query @ embeddings^T`); keeping it
    /// fused avoids materializing large transposed embedding tables.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt shape mismatch: {:?} @ {:?}^T",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let _t = retia_obs::kernel_span("matmul_nt");
        let mut out = vec![0.0f32; m * n];
        // Each output element is an independent dot product; chunking rows
        // changes nothing about its accumulation order.
        crate::parallel::for_each_row_chunk(&mut out, n, 2 * k * n, |first_row, chunk| {
            for (d, o_row) in chunk.chunks_mut(n).enumerate() {
                let i = first_row + d;
                let a_row = &self.data[i * k..(i + 1) * k];
                for (j, o) in o_row.iter_mut().enumerate() {
                    let b_row = &other.data[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                        acc += a * b;
                    }
                    *o = acc;
                }
            }
        });
        Tensor { rows: m, cols: n, data: out }
    }

    /// Matrix product with the left operand transposed:
    /// `self^T @ other` (`[k,m]^T @ [k,n] -> [m,n]`).
    ///
    /// This is the weight-gradient kernel (`x^T @ dy`).
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?}^T @ {:?}",
            self.shape(),
            other.shape()
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let _t = retia_obs::kernel_span("matmul_tn");
        let mut out = vec![0.0f32; m * n];
        // Restructured from the kk-outer scatter loop to an output-row loop
        // so rows can be chunked: `self` is read as the transposed left
        // operand, and per element the accumulation is still kk-ascending
        // with the same `a == 0.0` skip.
        let product = Product::<true>::new(self, other);
        crate::parallel::for_each_row_chunk(&mut out, n, 2 * k * n, |first_row, chunk| {
            product.rows_into(first_row, chunk)
        });
        Tensor { rows: m, cols: n, data: out }
    }

    /// The transpose as a new tensor.
    pub fn transpose(&self) -> Tensor {
        Tensor::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>()
    }

    /// Index of the maximum element in row `i` (first on ties).
    pub fn argmax_row(&self, i: usize) -> usize {
        let row = self.row(i);
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (j, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = j;
            }
        }
        best
    }

    /// Horizontal concatenation `[self | other]`. Row counts must match.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(other.row(i));
        }
        Tensor { rows: self.rows, cols, data }
    }

    /// Vertical concatenation. Column counts must match.
    pub fn concat_rows(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "concat_rows col mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Tensor { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Columns `start..end` as a new tensor.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        let cols = end - start;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(&self.row(i)[start..end]);
        }
        Tensor { rows: self.rows, cols, data }
    }

    /// Rows selected by `indices` (with repetition allowed), as a new tensor.
    ///
    /// Debug builds check every index up front and name the offending index,
    /// the row count, and the calling module; release builds rely on the raw
    /// slice bounds check.
    pub fn gather_rows(&self, indices: &[u32]) -> Tensor {
        let cols = self.cols;
        #[cfg(debug_assertions)]
        for (pos, &ix) in indices.iter().enumerate() {
            assert!(
                (ix as usize) < self.rows,
                "gather_rows: index {ix} (position {pos} of {}) out of range for {} rows \
                 (called from {})",
                indices.len(),
                self.rows,
                retia_obs::current_module(),
            );
        }
        let _t = retia_obs::kernel_span("gather_rows");
        let mut data = vec![0.0f32; indices.len() * cols];
        // Pure per-row copies; the cost estimate is the row width (a copy,
        // not flops), so only very large gathers spawn threads.
        crate::parallel::for_each_row_chunk(&mut data, cols, cols, |first_row, chunk| {
            for (d, dst) in chunk.chunks_mut(cols).enumerate() {
                dst.copy_from_slice(self.row(indices[first_row + d] as usize));
            }
        });
        Tensor { rows: indices.len(), cols, data }
    }

    /// Scatter-add of rows: `out[indices[i]] += self[i]` into an
    /// `out_rows x cols` zero tensor.
    ///
    /// Debug builds check every destination index up front and name the
    /// offending index, the output row count, and the calling module.
    pub fn scatter_add_rows(&self, indices: &[u32], out_rows: usize) -> Tensor {
        assert_eq!(indices.len(), self.rows, "scatter_add_rows index count mismatch");
        #[cfg(debug_assertions)]
        for (pos, &ix) in indices.iter().enumerate() {
            assert!(
                (ix as usize) < out_rows,
                "scatter_add_rows: destination index {ix} (position {pos} of {}) out of range \
                 for {out_rows} output rows (called from {})",
                indices.len(),
                retia_obs::current_module(),
            );
        }
        let _t = retia_obs::kernel_span("scatter_add_rows");
        let mut out = Tensor::zeros(out_rows, self.cols);
        for (i, &dst) in indices.iter().enumerate() {
            let src = self.row(i);
            let dst_row = out.row_mut(dst as usize);
            for (d, &s) in dst_row.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
        out
    }

    /// Applies the constant sparse row operator `seg`: output row `r` is
    /// `Σ_k w[k] · self[col[k]]` over row `r`'s entries, accumulated from
    /// `0.0` in storage order (see [`Segments`]).
    ///
    /// Debug builds check every column index up front and name the
    /// offending entry, the input row count, and the calling module.
    pub fn segment_sum(&self, seg: &Segments) -> Tensor {
        #[cfg(debug_assertions)]
        for (pos, &ix) in seg.cols().iter().enumerate() {
            assert!(
                index(ix) < self.rows,
                "segment_sum: column {ix} (entry {pos} of {}) out of range for {} rows \
                 (called from {})",
                seg.nnz(),
                self.rows,
                retia_obs::current_module(),
            );
        }
        let _t = retia_obs::kernel_span("segment_sum");
        let (rows, cols) = (seg.num_rows(), self.cols);
        let mut data = vec![0.0f32; rows * cols];
        // Output rows are independent and each sums its own entries in
        // storage order, so row-chunked execution is bit-identical to the
        // sequential loop. The cost estimate is the mean row's multiply-adds.
        let cost = 2 * cols * seg.nnz().div_ceil(rows.max(1));
        crate::parallel::for_each_row_chunk(&mut data, cols, cost, |first_row, chunk| {
            for (d, o_row) in chunk.chunks_mut(cols).enumerate() {
                let (idx, w) = seg.row(first_row + d);
                for (&c, &wk) in idx.iter().zip(w) {
                    for (o, &x) in o_row.iter_mut().zip(self.row(index(c))) {
                        *o += wk * x;
                    }
                }
            }
        });
        Tensor { rows, cols, data }
    }

    /// L2-normalizes each row (rows with norm below `eps` are left unscaled).
    pub fn l2_normalize_rows(&self, eps: f32) -> Tensor {
        let mut out = self.clone();
        for i in 0..out.rows {
            let row = out.row_mut(i);
            let n = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
            if n > eps {
                row.iter_mut().for_each(|x| *x /= n);
            }
        }
        out
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let _t = retia_obs::kernel_span("softmax_rows");
        let mut out = self.clone();
        let cols = self.cols;
        // Rows are independent; ~4 passes over each row.
        crate::parallel::for_each_row_chunk(&mut out.data, cols, 4 * cols, |_, chunk| {
            for row in chunk.chunks_mut(cols) {
                Tensor::softmax_row_in_place(row);
            }
        });
        out
    }

    /// True when all elements are finite.
    pub fn all_finite(&self) -> bool {
        // A branch-free fold per block vectorizes; the blocks keep the
        // early exit. This scan gates the matmul tiles on every product.
        self.data.chunks(256).all(|block| block.iter().fold(true, |ok, x| ok & x.is_finite()))
    }

    /// Stabilized softmax of one row, shared by the sequential and
    /// chunked-parallel paths (and by `softmax_xent`'s backward, which must
    /// reproduce the forward probabilities bit-for-bit).
    pub(crate) fn softmax_row_in_place(row: &mut [f32]) {
        softmax_row_in_place(row)
    }

    /// Maximum absolute elementwise difference between two same-shape tensors.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in max_abs_diff");
        self.data.iter().zip(other.data.iter()).map(|(&a, &b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

/// Max-stabilized softmax over one row. A row whose every entry is `-inf`
/// (a fully masked row) becomes a zero row: the naive stabilization would
/// compute `exp(-inf - -inf) = exp(NaN)` and poison downstream sums.
fn softmax_row_in_place(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        row.iter_mut().for_each(|x| *x = 0.0);
        return;
    }
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        row.iter_mut().for_each(|x| *x /= sum);
    }
}

/// Rows of the matmul micro-kernel's accumulator tile. Divides
/// [`crate::parallel::CHUNK_ROWS`], so a tile never straddles a thread chunk.
const TILE_ROWS: usize = 8;
/// Columns of the accumulator tile: two 16-lane registers per row under
/// AVX-512, so the whole 8×32 tile lives in 16 of its 32 vector registers.
const TILE_COLS: usize = 32;

/// `lhs @ rhs` (`[m,k] @ [k,n]`), computed output row by output row.
/// `TRANSPOSED` names how `lhs` is stored: `[m,k]` row-major for `matmul`,
/// or `[k,m]` for `matmul_tn`, which multiplies by its transpose.
///
/// Every element is accumulated from `+0.0` over `kk` ascending, one
/// multiply and one add per term (Rust never fuses them), skipping terms
/// whose left factor is `±0`. That is the i-k-j loop ([`Product::row`]),
/// which handles edge rows and columns. Aligned groups of [`TILE_ROWS`]
/// rows run [`Product::tile`] instead, which keeps an accumulator tile in
/// registers and performs the same operation sequence per element, minus
/// the skip. Adding a zero term gives the same bits as skipping it whenever
/// its right factor is finite, because the accumulator starts at `+0.0`
/// and a round-to-nearest sum is never `-0.0` unless both addends are. So
/// tiles run only when `rhs` is all finite (`tiles`), and every output bit
/// equals the i-k-j loop's.
struct Product<'a, const TRANSPOSED: bool> {
    lhs: &'a [f32],
    rhs: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
    tiles: bool,
}

impl<'a, const TRANSPOSED: bool> Product<'a, TRANSPOSED> {
    /// The product of `lhs` (transposed when `TRANSPOSED`) and `rhs`. The
    /// one pass over `rhs` that gates the tiles is skipped when no full
    /// tile fits.
    fn new(lhs: &'a Tensor, rhs: &'a Tensor) -> Self {
        let m = if TRANSPOSED { lhs.cols } else { lhs.rows };
        let (k, n) = rhs.shape();
        let tiles = m >= TILE_ROWS && n >= TILE_COLS && rhs.all_finite();
        Product { lhs: &lhs.data, rhs: &rhs.data, m, k, n, tiles }
    }

    /// The left factor `a[i, kk]`.
    #[inline(always)]
    fn a(&self, i: usize, kk: usize) -> f32 {
        if TRANSPOSED {
            self.lhs[kk * self.m + i]
        } else {
            self.lhs[i * self.k + kk]
        }
    }

    /// Writes output rows `first_row..` into `chunk` (whole rows of width
    /// `n`), through the AVX-512 instance of the kernel when the CPU has it.
    fn rows_into(&self, first_row: usize, chunk: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `avx512f` was detected on this CPU at run time just above.
            return unsafe { self.rows_into_avx512(first_row, chunk) };
        }
        self.rows_into_portable(first_row, chunk)
    }

    /// The kernel compiled for the build's baseline target: the only
    /// instance that runs on CPUs without AVX-512.
    fn rows_into_portable(&self, first_row: usize, chunk: &mut [f32]) {
        self.rows_body(first_row, chunk)
    }

    /// The same kernel body compiled with AVX-512 enabled.
    ///
    /// # Safety
    /// Calling this on a CPU without `avx512f` is undefined behaviour, so
    /// every caller checks `is_x86_feature_detected!("avx512f")` first.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn rows_into_avx512(&self, first_row: usize, chunk: &mut [f32]) {
        self.rows_body(first_row, chunk)
    }

    #[inline(always)]
    fn rows_body(&self, first_row: usize, chunk: &mut [f32]) {
        let n = self.n;
        let rows = chunk.len() / n;
        let tile_cols = if self.tiles { n - n % TILE_COLS } else { 0 };
        let tile_rows = if tile_cols > 0 { rows - rows % TILE_ROWS } else { 0 };
        let (tiled, rest) = chunk.split_at_mut(tile_rows * n);
        for (g, group) in tiled.chunks_mut(TILE_ROWS * n).enumerate() {
            let i0 = first_row + g * TILE_ROWS;
            for j0 in (0..tile_cols).step_by(TILE_COLS) {
                self.tile(i0, j0, group);
            }
            for (r, o_row) in group.chunks_mut(n).enumerate() {
                self.row(i0 + r, tile_cols, o_row);
            }
        }
        for (d, o_row) in rest.chunks_mut(n).enumerate() {
            self.row(first_row + tile_rows + d, 0, o_row);
        }
    }

    /// The i-k-j loop over columns `j_lo..n` of output row `i`.
    #[inline(always)]
    fn row(&self, i: usize, j_lo: usize, o_row: &mut [f32]) {
        let o_row = &mut o_row[j_lo..];
        for kk in 0..self.k {
            let a = self.a(i, kk);
            if a == 0.0 {
                continue;
            }
            let b_row = &self.rhs[kk * self.n + j_lo..(kk + 1) * self.n];
            for (o, &b) in o_row.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
    }

    /// The `TILE_ROWS × TILE_COLS` block at rows `i0..`, columns `j0..`,
    /// accumulated in registers and stored into `group` (the tile's rows).
    ///
    /// The rows are written out one statement each, and the only loop over
    /// `acc` has a constant trip count: that is what lets LLVM keep the
    /// accumulators in vector registers. A loop over the rows, or a loop
    /// over `acc` whose trip count it cannot see, leaves them in memory as
    /// scalar code.
    #[inline(always)]
    fn tile(&self, i0: usize, j0: usize, group: &mut [f32]) {
        let mut acc = [[0.0f32; TILE_COLS]; TILE_ROWS];
        for (kk, b_full) in self.rhs.chunks_exact(self.n).take(self.k).enumerate() {
            let b: &[f32; TILE_COLS] =
                b_full[j0..j0 + TILE_COLS].try_into().expect("a tile's columns lie inside rhs");
            let [r0, r1, r2, r3, r4, r5, r6, r7] = &mut acc;
            add_product(r0, self.a(i0, kk), b);
            add_product(r1, self.a(i0 + 1, kk), b);
            add_product(r2, self.a(i0 + 2, kk), b);
            add_product(r3, self.a(i0 + 3, kk), b);
            add_product(r4, self.a(i0 + 4, kk), b);
            add_product(r5, self.a(i0 + 5, kk), b);
            add_product(r6, self.a(i0 + 6, kk), b);
            add_product(r7, self.a(i0 + 7, kk), b);
        }
        for (r, acc_row) in acc.iter().enumerate() {
            group[r * self.n + j0..][..TILE_COLS].copy_from_slice(acc_row);
        }
    }
}

/// `acc[c] += a * b[c]` across one tile row, a separate multiply and add
/// per element.
#[inline(always)]
fn add_product(acc: &mut [f32; TILE_COLS], a: f32, b: &[f32; TILE_COLS]) {
    for (o, &x) in acc.iter_mut().zip(b) {
        *o += a * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn zeros_ones_full_eye() {
        assert_eq!(Tensor::zeros(2, 2).sum(), 0.0);
        assert_eq!(Tensor::ones(2, 3).sum(), 6.0);
        assert_eq!(Tensor::full(2, 2, 0.5).sum(), 2.0);
        let e = Tensor::eye(3);
        assert_eq!(e.get(1, 1), 1.0);
        assert_eq!(e.get(0, 1), 0.0);
        assert_eq!(e.sum(), 3.0);
    }

    #[test]
    fn matmul_basic() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let c = a.matmul(&Tensor::eye(2));
        assert_eq!(c, a);
    }

    /// The output bits of one kernel instance `run`, called chunk by chunk
    /// over `m` rows of width `n` as `Tensor::matmul` does on one thread.
    fn by_chunks(m: usize, n: usize, run: impl Fn(usize, &mut [f32])) -> Vec<u32> {
        let rows = crate::parallel::CHUNK_ROWS;
        let mut out = vec![0.0f32; m * n];
        for (c, chunk) in out.chunks_mut(rows * n).enumerate() {
            run(c * rows, chunk);
        }
        out.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matmul_kernel_instances_agree_bit_for_bit() {
        // The portable instance is the only one CPUs without AVX-512 run,
        // so the test calls it directly, even where `matmul` dispatches to
        // the AVX-512 one. 37 rows and 70 columns leave partial tiles, and
        // the zeros (one of them -0.0) hit the skip.
        let (m, k, n) = (37usize, 65usize, 70usize);
        let a = Tensor::from_fn(m, k, |i, j| match (i * k + j) % 9 {
            0 => 0.0,
            4 => -0.0,
            r => (r as f32 - 4.5) * 0.37 + i as f32 * 0.01,
        });
        let b = Tensor::from_fn(k, n, |i, j| ((i * n + j) % 13) as f32 * 0.21 - 1.3);
        let at = a.transpose();
        let mm = Product::<false>::new(&a, &b);
        let tn = Product::<true>::new(&at, &b);
        assert!(mm.tiles && tn.tiles, "these operands must take the tile path");
        let portable = by_chunks(m, n, |row, chunk| mm.rows_into_portable(row, chunk));
        let want: Vec<u32> = a.matmul(&b).data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(portable, want, "portable instance vs matmul");
        let tn_portable = by_chunks(m, n, |row, chunk| tn.rows_into_portable(row, chunk));
        assert_eq!(portable, tn_portable, "matmul_tn portable instance");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `avx512f` was detected on this CPU just above.
            let avx512 = by_chunks(m, n, |row, chunk| unsafe { mm.rows_into_avx512(row, chunk) });
            assert_eq!(portable, avx512, "matmul AVX-512 instance");
            // SAFETY: as above.
            let avx512 = by_chunks(m, n, |row, chunk| unsafe { tn.rows_into_avx512(row, chunk) });
            assert_eq!(portable, avx512, "matmul_tn AVX-512 instance");
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = Tensor::from_vec(4, 3, vec![1.0; 12]);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose());
        assert!(via_nt.max_abs_diff(&via_t) < 1e-6);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|x| x as f32).collect());
        let via_tn = a.matmul_tn(&b);
        let via_t = a.transpose().matmul(&b);
        assert!(via_tn.max_abs_diff(&via_t) < 1e-6);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn concat_and_slice() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 1, vec![9.0, 8.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 9.0]);
        assert_eq!(c.row(1), &[3.0, 4.0, 8.0]);
        let s = c.slice_cols(1, 3);
        assert_eq!(s.row(0), &[2.0, 9.0]);
        let v = a.concat_rows(&a);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(3), &[3.0, 4.0]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
        let s = g.scatter_add_rows(&[2, 0, 2], 3);
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
        assert_eq!(s.row(2), &[10.0, 12.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let p = t.softmax_rows();
        for i in 0..2 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Softmax is monotone: larger logits, larger probs.
        assert!(p.get(0, 2) > p.get(0, 1));
    }

    #[test]
    fn softmax_handles_large_logits() {
        let t = Tensor::from_vec(1, 2, vec![1000.0, 999.0]);
        let p = t.softmax_rows();
        assert!(p.all_finite());
        assert!(p.get(0, 0) > p.get(0, 1));
    }

    #[test]
    fn softmax_fully_masked_row_is_zero_not_nan() {
        // `-inf` logits are how callers mask candidates; a row with *every*
        // candidate masked used to produce `exp(-inf - -inf) = NaN` across
        // the whole row. The contract is now: fully masked row → zero row.
        let t = Tensor::from_vec(
            2,
            3,
            vec![f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY, 1.0, 2.0, 3.0],
        );
        let p = t.softmax_rows();
        assert!(p.all_finite());
        assert_eq!(p.row(0), &[0.0, 0.0, 0.0]);
        let s: f32 = p.row(1).iter().sum();
        assert!((s - 1.0).abs() < 1e-6, "unmasked rows are unaffected");
    }

    #[test]
    fn softmax_partially_masked_row_renormalizes() {
        let t = Tensor::from_vec(1, 3, vec![f32::NEG_INFINITY, 0.0, 0.0]);
        let p = t.softmax_rows();
        assert_eq!(p.get(0, 0), 0.0);
        assert!((p.get(0, 1) - 0.5).abs() < 1e-6);
        assert!((p.get(0, 2) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let t = Tensor::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        let n = t.l2_normalize_rows(1e-12);
        assert!((n.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((n.row(0)[1] - 0.8).abs() < 1e-6);
        // Zero row stays zero rather than dividing by ~0.
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn argmax_row_first_on_ties() {
        let t = Tensor::from_vec(1, 4, vec![1.0, 3.0, 3.0, 2.0]);
        assert_eq!(t.argmax_row(0), 1);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert!((t.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }
}
