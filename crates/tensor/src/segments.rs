//! Constant sparse row operators for [`crate::Graph::segment_sum`].
//!
//! A [`Segments`] is a `rows x cols` sparse matrix in compressed-row (CSR)
//! form whose entries are fixed at graph-build time: degree norms, unit
//! pooling weights, slot groupings. Applied to a dense `[cols, d]` input it
//! yields `[rows, d]`, output row `r` being `Σ_k weights[k] · x[cols[k]]`
//! over `k in offsets[r]..offsets[r + 1]`, accumulated from `0.0` in
//! storage order. Gather (one unit entry per row), scatter-add (the
//! transpose of a gather) and segment sums are all special cases, so one
//! kernel with one transfer rule serves every sparse aggregation of the
//! model.

use crate::transfer::RowMass;

/// A constant sparse row operator in CSR form (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Segments {
    offsets: Vec<usize>,
    cols: Vec<u32>,
    weights: Vec<f32>,
}

/// `u32` index to `usize` (lossless on every supported target).
#[inline]
pub(crate) fn index(i: u32) -> usize {
    usize::try_from(i).expect("u32 index fits in usize")
}

impl Segments {
    /// Builds the operator from `offsets` (`rows + 1` non-decreasing entries
    /// from `0` to `cols.len()`) and one column index and weight per entry.
    ///
    /// # Panics
    /// Panics if the offsets are malformed or `cols` and `weights` differ in
    /// length. Column indices are checked against the input when the
    /// operator is applied.
    pub fn new(offsets: Vec<usize>, cols: Vec<u32>, weights: Vec<f32>) -> Self {
        assert_eq!(
            cols.len(),
            weights.len(),
            "segments: {} column indices for {} weights",
            cols.len(),
            weights.len()
        );
        assert_eq!(offsets.first(), Some(&0), "segments: offsets must start at 0");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "segments: offsets must not decrease");
        assert_eq!(
            offsets.last(),
            Some(&cols.len()),
            "segments: last offset must equal the entry count"
        );
        Segments { offsets, cols, weights }
    }

    /// Unit-weight rows: output row `i` sums `x[j]` for `j in groups[i]`, in
    /// the listed order. An empty group yields a zero row.
    pub fn unit(groups: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(groups.len() + 1);
        offsets.push(0);
        let mut cols = Vec::new();
        for group in groups {
            cols.extend_from_slice(group);
            offsets.push(cols.len());
        }
        let weights = vec![1.0; cols.len()];
        Segments { offsets, cols, weights }
    }

    /// Number of output rows.
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Column indices of every entry, in storage order.
    pub fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// Column indices and weights of output row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let range = self.offsets[r]..self.offsets[r + 1];
        (&self.cols[range.clone()], &self.weights[range])
    }

    /// The largest per-row positive and negative weight mass and entry
    /// count — what the interval rule of `segment_sum` needs. Summed in f64
    /// from the f32 weights the kernel actually multiplies by, so a row of
    /// `c` copies of `f32(1/c)` reports its true mass, which can exceed 1.
    pub fn mass(&self) -> RowMass {
        let mut mass = RowMass { pos: 0.0, neg: 0.0, terms: 0 };
        for r in 0..self.num_rows() {
            let (_, w) = self.row(r);
            let pos: f64 = w.iter().filter(|&&v| v > 0.0).map(|&v| f64::from(v)).sum();
            let neg: f64 = w.iter().filter(|&&v| v < 0.0).map(|&v| -f64::from(v)).sum();
            mass.pos = mass.pos.max(pos);
            mass.neg = mass.neg.max(neg);
            mass.terms = mass.terms.max(w.len());
        }
        mass
    }

    /// The transposed operator over an input of `num_cols` rows (the
    /// backward of `segment_sum`). Entries of each transposed row keep
    /// ascending (row, storage) order: the order a sequential scatter-add
    /// of the output rows would accumulate them in.
    ///
    /// # Panics
    /// Panics if a column index is `>= num_cols`.
    pub fn transpose(&self, num_cols: usize) -> Segments {
        let mut offsets = vec![0usize; num_cols + 1];
        for &c in &self.cols {
            let c = index(c);
            assert!(c < num_cols, "segments: column {c} out of range for {num_cols} rows");
            offsets[c + 1] += 1;
        }
        for i in 0..num_cols {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..num_cols].to_vec();
        let mut cols = vec![0u32; self.nnz()];
        let mut weights = vec![0.0f32; self.nnz()];
        for r in 0..self.num_rows() {
            let r32 = u32::try_from(r).expect("segment row index fits in u32");
            let (idx, w) = self.row(r);
            for (&c, &wk) in idx.iter().zip(w) {
                let slot = &mut next[index(c)];
                cols[*slot] = r32;
                weights[*slot] = wk;
                *slot += 1;
            }
        }
        Segments { offsets, cols, weights }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_rows_and_mass() {
        let s = Segments::unit(&[vec![0, 2], vec![], vec![1, 1, 1]]);
        assert_eq!(s.num_rows(), 3);
        assert_eq!(s.nnz(), 5);
        assert_eq!(s.row(1), (&[][..], &[][..]));
        assert_eq!(s.mass(), RowMass { pos: 3.0, neg: 0.0, terms: 3 });
    }

    #[test]
    fn transpose_groups_by_column_in_row_order() {
        let s = Segments::new(vec![0, 2, 3], vec![1, 0, 1], vec![0.5, -2.0, 3.0]);
        let t = s.transpose(3);
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.row(0), (&[0u32][..], &[-2.0f32][..]));
        assert_eq!(t.row(1), (&[0u32, 1][..], &[0.5f32, 3.0][..]));
        assert_eq!(t.row(2), (&[][..], &[][..]));
        // Transposing back regroups each row's entries by column.
        let sorted = Segments::new(vec![0, 2, 3], vec![0, 1, 1], vec![-2.0, 0.5, 3.0]);
        assert_eq!(t.transpose(2), sorted);
        assert_eq!(s.mass(), RowMass { pos: 3.0, neg: 2.0, terms: 2 });
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn rejects_offsets_past_the_entries() {
        let _ = Segments::new(vec![0, 3], vec![0], vec![1.0]);
    }
}
