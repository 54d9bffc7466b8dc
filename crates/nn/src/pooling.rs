//! Segment mean pooling — the `MP`/`HMP` operators of Eq. 7 and Eq. 9.

use std::rc::Rc;

use retia_tensor::{Ops, Segments};

/// Mean-pools rows of `x` (`[n, d]`) over `segments`: output row `i` is the
/// mean of `x[j]` for `j in segments[i]`. Empty segments yield zero rows
/// (absent relations / hyperrelations keep no pooled signal, matching the
/// reference implementation).
pub fn mean_pool_segments<O: Ops>(g: &mut O, x: O::Id, segments: &[Vec<u32>]) -> O::Id {
    g.scoped("mean_pool_segments", Some("Eq. 7/9"), |g| {
        let plan = Segments::unit(segments);
        if plan.nnz() == 0 {
            // All segments empty: a zero tensor with no gradient path.
            let d = g.shape(x).1;
            return g.zeros(segments.len(), d);
        }
        let inv_counts: Vec<f32> = segments
            .iter()
            .map(|seg| if seg.is_empty() { 0.0 } else { 1.0 / seg.len() as f32 })
            .collect();
        let summed = g.segment_sum(x, Rc::new(plan));
        g.row_scale(summed, Rc::new(inv_counts))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia_tensor::{Graph, ParamStore, Tensor};

    #[test]
    fn pools_means_per_segment() {
        let mut g = Graph::new(false, 0);
        let x = g.constant(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let out = mean_pool_segments(&mut g, x, &[vec![0, 1], vec![2], vec![]]);
        let v = g.value(out);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(0), &[2.0, 3.0]);
        assert_eq!(v.row(1), &[5.0, 6.0]);
        assert_eq!(v.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn matches_gather_scatter_scale_bitwise() {
        // The pooled means are the same additions in the same order as the
        // gather -> scatter-add -> row-scale composition they replace.
        let x0 = Tensor::from_fn(6, 5, |i, j| ((i * 5 + j) as f32 * 0.37).sin() * 3.1);
        let segments = vec![vec![0, 3, 5, 3], vec![], vec![2], vec![1, 4, 0, 2, 5, 3, 1]];
        let mut g = Graph::new(false, 0);
        let x = g.constant(x0.clone());
        let out = mean_pool_segments(&mut g, x, &segments);
        let flat: Vec<u32> = segments.iter().flatten().copied().collect();
        let ids: Vec<u32> = segments
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |_| i as u32))
            .collect();
        let summed = x0.gather_rows(&flat).scatter_add_rows(&ids, segments.len());
        for (i, seg) in segments.iter().enumerate() {
            let inv = if seg.is_empty() { 0.0 } else { 1.0 / seg.len() as f32 };
            for (a, b) in g.value(out).row(i).iter().zip(summed.row(i)) {
                assert_eq!(a.to_bits(), (b * inv).to_bits(), "segment {i}");
            }
        }
    }

    #[test]
    fn repeated_indices_allowed() {
        let mut g = Graph::new(false, 0);
        let x = g.constant(Tensor::from_vec(2, 1, vec![1.0, 3.0]));
        let out = mean_pool_segments(&mut g, x, &[vec![0, 0, 1]]);
        let v = g.value(out);
        assert!((v.get(0, 0) - 5.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn all_empty_segments() {
        let mut g = Graph::new(false, 0);
        let x = g.constant(Tensor::ones(2, 3));
        let out = mean_pool_segments(&mut g, x, &[vec![], vec![]]);
        assert_eq!(g.value(out).shape(), (2, 3));
        assert_eq!(g.value(out).sum(), 0.0);
    }

    #[test]
    fn gradients_flow_through_pooling() {
        let mut store = ParamStore::new(0);
        store.register("x", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut g = Graph::new(false, 0);
        let x = g.param(&store, "x");
        let out = mean_pool_segments(&mut g, x, &[vec![0, 1]]);
        let loss = g.sum_all(out);
        g.backward(loss, &mut store);
        // d mean / d each source = 0.5 per column.
        assert_eq!(store.grad("x").data(), &[0.5, 0.5, 0.5, 0.5]);
    }
}
