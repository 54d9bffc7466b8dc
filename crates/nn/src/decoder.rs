//! Conv-TransE score decoder (Shang et al., 2019) — Eq. 11/12 of the paper.
//!
//! Two query embeddings (subject+relation for entity forecasting,
//! subject+object for relation forecasting) are stacked as a 2-channel
//! 1-D "image" over the embedding dimension, convolved, projected back to
//! `d`, and scored against every candidate embedding by inner product.
//!
//! The paper's configuration: kernel `3 x 2` (width 3 over the embedding
//! axis, spanning both stacked rows — i.e. 2 input channels), 50 kernels,
//! dropout 0.2. The reference implementation's batch norms are replaced by
//! layer norm here (our substrate has no running-statistics batch norm);
//! the substitution is recorded in DESIGN.md.

use retia_tensor::{Ops, ParamStore};

use crate::check_width;

/// Convolutional decoder producing `[queries, candidates]` score matrices.
#[derive(Clone, Debug)]
pub struct ConvTransE {
    conv_w: String,
    conv_b: String,
    fc_w: String,
    fc_b: String,
    dim: usize,
    channels: usize,
    ksize: usize,
    dropout: f32,
}

impl ConvTransE {
    /// Registers decoder parameters under `prefix`. `dim` is the embedding
    /// width, `channels` the number of kernels, `ksize` the kernel width.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        dim: usize,
        channels: usize,
        ksize: usize,
        dropout: f32,
    ) -> Self {
        let conv_w = format!("{prefix}.conv.w");
        let conv_b = format!("{prefix}.conv.b");
        let fc_w = format!("{prefix}.fc.w");
        let fc_b = format!("{prefix}.fc.b");
        store.register_xavier(&conv_w, channels, 2 * ksize);
        store.register_zeros(&conv_b, 1, channels);
        store.register_xavier(&fc_w, channels * dim, dim);
        store.register_zeros(&fc_b, 1, dim);
        ConvTransE { conv_w, conv_b, fc_w, fc_b, dim, channels, ksize, dropout }
    }

    /// The paper's configuration: 50 kernels of width 3, dropout 0.2.
    pub fn paper_config(store: &mut ParamStore, prefix: &str, dim: usize) -> Self {
        Self::new(store, prefix, dim, 50, 3, 0.2)
    }

    /// Embeds a query pair into a `[queries, dim]` representation (the part
    /// of the decoder before candidate scoring).
    fn query_repr<O: Ops>(&self, g: &mut O, store: &ParamStore, a: O::Id, b: O::Id) -> O::Id {
        g.scoped("ConvTransE", Some("Eq. 11/12"), |g| {
            check_width(g, "query_width", "decoder input", a, self.dim);
            let (sa, sb) = (g.shape(a), g.shape(b));
            g.check("query_parts", sa == sb, || {
                format!("query part shape mismatch: [{}, {}] vs [{}, {}]", sa.0, sa.1, sb.0, sb.1)
            });
            // Channels-major stacking: [a | b] is channel 0 then channel 1.
            let stacked = g.concat_cols(a, b);
            let x = g.dropout(stacked, self.dropout);
            let cw = g.param(store, &self.conv_w);
            let cb = g.param(store, &self.conv_b);
            let conv = g.conv1d(x, cw, cb, 2, self.channels, self.ksize);
            let normed = g.layer_norm_rows(conv);
            let act = g.relu(normed);
            let act = g.dropout(act, self.dropout);
            let fw = g.param(store, &self.fc_w);
            let fb = g.param(store, &self.fc_b);
            let proj = g.matmul(act, fw);
            let proj = g.add_bias(proj, fb);
            let normed2 = g.layer_norm_rows(proj);
            let act2 = g.relu(normed2);
            g.dropout(act2, self.dropout)
        })
    }

    /// Scores every candidate for every query:
    /// `(a, b) x candidates -> [queries, num_candidates]` logits.
    ///
    /// The `queries x candidates` scoring product dominates evaluation cost;
    /// it (and the conv/projection above) runs on the chunk-parallel kernels
    /// in `retia_tensor::parallel`, whose output is bit-identical at any
    /// `RETIA_NUM_THREADS`.
    pub fn forward<O: Ops>(
        &self,
        g: &mut O,
        store: &ParamStore,
        a: O::Id,
        b: O::Id,
        candidates: O::Id,
    ) -> O::Id {
        let q = self.query_repr(g, store, a, b);
        // The scoring product runs outside the module tag; the audit still
        // attributes it to the decoder.
        g.frame("ConvTransE", Some("Eq. 11/12"), |g| g.matmul_nt(q, candidates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia_tensor::{optim::Adam, Graph, Tensor};
    use std::rc::Rc;

    #[test]
    fn score_shape() {
        let mut store = ParamStore::new(0);
        let dec = ConvTransE::new(&mut store, "dec", 8, 5, 3, 0.0);
        let mut g = Graph::new(false, 0);
        let a = g.constant(Tensor::ones(4, 8));
        let b = g.constant(Tensor::ones(4, 8));
        let cand = g.constant(Tensor::ones(11, 8));
        let scores = dec.forward(&mut g, &store, a, b, cand);
        assert_eq!(g.value(scores).shape(), (4, 11));
        assert!(g.value(scores).all_finite());
    }

    #[test]
    fn learns_to_rank_correct_candidate() {
        // 6 entities, 2 relations; facts (e, r) -> target; the decoder plus
        // embeddings must push the target's score to the top.
        let n = 6usize;
        let d = 8usize;
        let mut store = ParamStore::new(11);
        store.register_xavier("ent", n, d);
        store.register_xavier("rel", 2, d);
        let dec = ConvTransE::new(&mut store, "dec", d, 6, 3, 0.0);
        let mut adam = Adam::new(0.02);
        let queries: Vec<(u32, u32, u32)> =
            vec![(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 4), (4, 0, 5), (5, 1, 0)];
        let subjects: Rc<Vec<u32>> = Rc::new(queries.iter().map(|q| q.0).collect());
        let rels: Rc<Vec<u32>> = Rc::new(queries.iter().map(|q| q.1).collect());
        let targets: Rc<Vec<u32>> = Rc::new(queries.iter().map(|q| q.2).collect());
        let mut last = f32::MAX;
        for _ in 0..300 {
            let mut g = Graph::new(true, 1);
            let ent = g.param(&store, "ent");
            let rel = g.param(&store, "rel");
            let s_emb = g.gather_rows(ent, subjects.clone());
            let r_emb = g.gather_rows(rel, rels.clone());
            let scores = dec.forward(&mut g, &store, s_emb, r_emb, ent);
            let loss = g.softmax_xent(scores, targets.clone());
            last = g.value(loss).item();
            g.backward(loss, &mut store);
            adam.step(&mut store);
            store.zero_grad();
        }
        assert!(last < 0.2, "final loss {last}");

        // Eval: the argmax must be the target for most queries.
        let mut g = Graph::new(false, 0);
        let ent = g.param(&store, "ent");
        let rel = g.param(&store, "rel");
        let s_emb = g.gather_rows(ent, subjects.clone());
        let r_emb = g.gather_rows(rel, rels);
        let scores = dec.forward(&mut g, &store, s_emb, r_emb, ent);
        let sc = g.value(scores);
        let correct =
            (0..queries.len()).filter(|&i| sc.argmax_row(i) == targets[i] as usize).count();
        assert!(correct >= 5, "only {correct}/6 queries ranked correctly");
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let mut store = ParamStore::new(0);
        let dec = ConvTransE::new(&mut store, "dec", 8, 4, 3, 0.5);
        let run = |seed: u64| {
            let mut g = Graph::new(false, seed);
            let a = g.constant(Tensor::full(2, 8, 0.3));
            let b = g.constant(Tensor::full(2, 8, -0.2));
            let cand = g.constant(Tensor::ones(5, 8));
            let s = dec.forward(&mut g, &store, a, b, cand);
            g.value(s).clone()
        };
        assert_eq!(run(1), run(999), "dropout must be off in eval mode");
    }
}
