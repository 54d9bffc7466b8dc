//! The one training loop of the static and interpolation baselines, and
//! what their losses and scores share. Each model builds its score in one
//! graph function: `fit` trains a loss on it through
//! [`MinibatchLoss::fit_minibatches`], and the score methods run it in an
//! inference graph ([`infer`]). The distance models (RotatE, TTransE, HyTE)
//! take their query rows from it and scan every candidate ([`l1_distances`]).

use std::iter::repeat_n;
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use retia::TkgContext;
use retia_tensor::optim::Adam;
use retia_tensor::{Graph, NodeId, ParamStore, Tensor};

/// Seed of every minibatch baseline's initialization, shuffles, negative
/// samples and dropout masks.
pub(crate) const SEED: u64 = 7;
/// Adam learning rate.
const LR: f32 = 1e-2;
/// Minibatch size in facts.
pub(crate) const BATCH: usize = 512;
/// Corrupted objects drawn per fact by [`margin_loss`].
const NUM_NEGATIVES: usize = 8;

/// A training fact `(s, r, o, t)`.
pub(crate) type Fact = (u32, u32, u32, u32);

/// Every fact of the training split, each followed by its inverse
/// `(o, r + M, s, t)`: the rows `fit` shuffles into minibatches.
fn train_facts(ctx: &TkgContext) -> Vec<Fact> {
    let m = ctx.num_relations as u32;
    let facts = ctx.train_idx.iter().flat_map(|&i| &ctx.snapshots[i].facts);
    facts.flat_map(|q| [(q.s, q.r, q.o, q.t), (q.o, q.r + m, q.s, q.t)]).collect()
}

/// Facts or queries, column by column, as the graph's gathers take them.
pub(crate) struct Batch {
    pub(crate) subjects: Rc<Vec<u32>>,
    pub(crate) rels: Rc<Vec<u32>>,
    /// Targets; empty for entity queries being scored.
    pub(crate) objects: Rc<Vec<u32>>,
    pub(crate) times: Rc<Vec<u32>>,
}

impl Batch {
    fn new(facts: &[Fact], rows: &[usize]) -> Batch {
        let column = |f: fn(&Fact) -> u32| Rc::new(rows.iter().map(|&i| f(&facts[i])).collect());
        let (subjects, rels) = (column(|f| f.0), column(|f| f.1));
        Batch { subjects, rels, objects: column(|f| f.2), times: column(|f| f.3) }
    }

    /// Entity queries `(s, r, ?)` at timestamp `t`.
    pub(crate) fn queries(subjects: &[u32], rels: &[u32], t: u32) -> Batch {
        let times = Rc::new(vec![t; subjects.len()]);
        Batch { subjects: ids(subjects), rels: ids(rels), objects: Rc::default(), times }
    }

    /// Relation queries `(s, ?, o)` at timestamp `t`, one row per original
    /// relation, query-major: per-row scores lay out as a `[Q, M]` matrix.
    pub(crate) fn relation_pairs(subjects: &[u32], objects: &[u32], m: usize, t: u32) -> Batch {
        let repeat = |c: &[u32]| Rc::new(c.iter().flat_map(|&x| repeat_n(x, m)).collect());
        let rels = (0..subjects.len()).flat_map(|_| 0..m as u32).collect();
        let times = Rc::new(vec![t; subjects.len() * m]);
        Batch { subjects: repeat(subjects), rels: Rc::new(rels), objects: repeat(objects), times }
    }
}

/// A baseline trained by minibatch: its parameters, and the loss of one
/// minibatch, built on the graph score the model ranks with.
pub(crate) trait MinibatchLoss {
    fn store_mut(&mut self) -> &mut ParamStore;

    /// The loss of `batch` in the training graph `g`; `rng` draws any
    /// negative samples.
    fn batch_loss(&self, g: &mut Graph, batch: &Batch, rng: &mut StdRng) -> NodeId;

    /// The one training loop: `epochs` seeded-shuffle passes over the
    /// training facts and their inverses, one Adam step per minibatch of
    /// `batch` facts, epoch `e`'s dropout masks seeded `SEED ^ e`. Returns
    /// the timestamps it trained.
    fn fit_minibatches(&mut self, ctx: &TkgContext, epochs: usize, batch: usize) -> Timestamps {
        let facts = train_facts(ctx);
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut adam = Adam::new(LR);
        let mut order: Vec<usize> = (0..facts.len()).collect();
        for epoch in 0..epochs {
            order.shuffle(&mut rng);
            for rows in order.chunks(batch) {
                let mut g = Graph::new(true, SEED ^ epoch as u64);
                let loss = self.batch_loss(&mut g, &Batch::new(&facts, rows), &mut rng);
                let store = self.store_mut();
                g.backward(loss, store);
                // The graph shares the parameter buffers: drop it so the
                // step updates them in place instead of copying them first.
                drop(g);
                adam.step(store);
                store.zero_grad();
            }
        }
        Timestamps { max_trained: facts.iter().map(|f| f.3).max().unwrap_or(0) }
    }
}

/// The negative-sampling loss of the distance models (Sun et al., 2019):
/// `-mean ln σ(γ - d⁺) - (1/K) Σ_K mean ln σ(d⁻ - γ)`, where
/// `distance(g, objects)` gives each query's L1 distance to `objects`: `d⁺`
/// to the batch's objects, each `d⁻` to `K` uniformly drawn entities.
pub(crate) fn margin_loss(
    g: &mut Graph,
    batch: &Batch,
    gamma: f32,
    num_entities: usize,
    rng: &mut StdRng,
    mut distance: impl FnMut(&mut Graph, Rc<Vec<u32>>) -> NodeId,
) -> NodeId {
    let d_pos = distance(g, Rc::clone(&batch.objects));
    let neg_d = g.scale(d_pos, -1.0);
    let margin_pos = g.add_scalar(neg_d, gamma);
    let sp = g.sigmoid(margin_pos);
    let lp = g.ln(sp, 1e-9);
    let mp = g.mean_all(lp);
    let mut loss = g.scale(mp, -1.0);
    let n = num_entities as u32;
    for _ in 0..NUM_NEGATIVES {
        let negs = Rc::new((0..batch.objects.len()).map(|_| rng.gen_range(0..n)).collect());
        let d_neg = distance(g, negs);
        let margin_neg = g.add_scalar(d_neg, -gamma);
        let sn = g.sigmoid(margin_neg);
        let ln = g.ln(sn, 1e-9);
        let mn = g.mean_all(ln);
        let term = g.scale(mn, -1.0 / NUM_NEGATIVES as f32);
        loss = g.add(loss, term);
    }
    loss
}

/// The timestamp table of the interpolation baselines: one parameter row
/// per timestamp of the dataset, of which training reaches the training
/// split's. A later query reads the last trained row, the most favorable
/// choice for a method that cannot extrapolate.
#[derive(Clone, Copy, Default)]
pub(crate) struct Timestamps {
    pub(crate) max_trained: u32,
}

impl Timestamps {
    /// Rows of a per-timestamp table over `ctx`'s dataset.
    pub(crate) fn num_ts(ctx: &TkgContext) -> usize {
        ctx.snapshots.last().map(|s| s.t + 1).unwrap_or(1) as usize
    }

    /// The row a query at `t` reads.
    pub(crate) fn clamp(&self, t: u32) -> u32 {
        t.min(self.max_trained)
    }
}

/// Runs a score function in a no-tape inference graph and returns the
/// scores it builds.
pub(crate) fn infer(score: impl FnOnce(&mut Graph) -> NodeId) -> Tensor {
    let mut g = Graph::inference();
    let out = score(&mut g);
    let out = g.share(out);
    drop(g);
    Arc::unwrap_or_clone(out)
}

/// A query column as the graph's gathers take it.
pub(crate) fn ids(column: &[u32]) -> Rc<Vec<u32>> {
    Rc::new(column.to_vec())
}

/// The `M` original relations, the candidates of a relation query.
pub(crate) fn all_relations(num_relations: usize) -> Rc<Vec<u32>> {
    Rc::new((0..num_relations as u32).collect())
}

/// `Σ_c |a[i, c] - b[j, c]|` for each row pair `(i, j)` of `pairs`, summed
/// from zero over `cols` in order: a distance model's per-fact distance,
/// taken against every candidate without a `[pairs, d]` intermediate.
pub(crate) fn l1_distances(
    a: &Tensor,
    b: &Tensor,
    pairs: impl Iterator<Item = (usize, usize)>,
    cols: &[usize],
) -> Vec<f32> {
    let l1 = |x: &[f32], y: &[f32]| cols.iter().fold(0.0, |sum, &c| sum + (x[c] - y[c]).abs());
    pairs.map(|(i, j)| l1(a.row(i), b.row(j))).collect()
}

/// Every `(query, candidate)` row pair, query-major: the layout of a
/// `[queries, candidates]` score matrix.
pub(crate) fn all_pairs(queries: usize, candidates: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..queries).flat_map(move |i| (0..candidates).map(move |j| (i, j)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorization::tables;
    use crate::{
        rotate, temporal, ComplEx, ConvDecoder, ConvFlavor, DistMult, HyTE, RotatE, StaticRgcn,
        StaticTrainConfig, TTransE, TaDistMult, TkgBaseline,
    };
    use retia::{entity_queries, Forecaster};
    use retia_data::SyntheticConfig;

    #[test]
    fn train_facts_include_inverses() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(3).generate());
        let facts = train_facts(&ctx);
        assert_eq!(facts.len() % 2, 0);
        let m = ctx.num_relations as u32;
        assert!(facts.iter().any(|f| f.1 >= m));
        assert!(facts.iter().any(|f| f.1 < m));
    }

    /// `f` in an eval-mode graph: the loss's graph, without dropout.
    fn eval_graph(f: impl FnOnce(&mut Graph) -> Vec<f32>) -> Vec<f32> {
        f(&mut Graph::new(false, 0))
    }

    /// For the facts of the last training snapshot, the score
    /// `entity_scores` gives each target against the value `fit`'s loss
    /// reads for the same fact: the target's logit under a softmax loss, the
    /// distance `d` under the margin loss (scored `-d`, or `γ - d` for
    /// RotatE). Bit for bit, except RotatE: its scan adds the real and
    /// imaginary terms at each `k`, while its graph sums each half first.
    #[test]
    fn every_baseline_ranks_with_what_it_trains() {
        let ctx = TkgContext::new(&SyntheticConfig::tiny(9).generate());
        let cfg = StaticTrainConfig { dim: 8, epochs: 1 };
        let idx = *ctx.train_idx.last().expect("training split");
        let (subjects, rels, targets) = entity_queries(&ctx.snapshots[idx], ctx.num_relations);
        let facts = Batch {
            objects: ids(&targets),
            ..Batch::queries(&subjects, &rels, ctx.snapshots[idx].t)
        };
        let at_targets = |logits: &Tensor| -> Vec<f32> {
            targets.iter().enumerate().map(|(i, &o)| logits.get(i, o as usize)).collect()
        };
        let negated = |d: &Tensor| -> Vec<f32> { d.data().iter().map(|&d| -d).collect() };
        let compare = |name: &str, m: &dyn Forecaster, trained: Vec<f32>, rel_tol: f32| {
            let scores = m.entity_scores(ctx.past(idx), &subjects, &rels);
            assert_eq!(trained.len(), targets.len(), "{name}");
            for (i, (&o, want)) in targets.iter().zip(trained).enumerate() {
                let got = scores.get(i, o as usize);
                assert!(
                    got.to_bits() == want.to_bits()
                        || (got - want).abs() <= rel_tol * want.abs().max(1.0),
                    "{name}: query {i} scored {got}, trained on {want}"
                );
            }
        };

        let mut dm = DistMult::new(cfg.clone(), &ctx);
        dm.fit(&ctx);
        let trained = eval_graph(|g| {
            let tables = tables(g, &dm.store);
            let l = DistMult::entity_logits(g, tables, &facts);
            at_targets(g.value(l))
        });
        compare("DistMult", &dm, trained, 0.0);

        let mut cx = ComplEx::new(cfg.clone(), &ctx);
        cx.fit(&ctx);
        let trained = eval_graph(|g| {
            let l = cx.entity_logits(g, &facts);
            at_targets(g.value(l))
        });
        compare("ComplEx", &cx, trained, 0.0);

        for flavor in [ConvFlavor::ConvE, ConvFlavor::ConvTransE] {
            let mut cv = ConvDecoder::new(cfg.clone(), flavor, &ctx);
            cv.fit(&ctx);
            let trained = eval_graph(|g| {
                let tables = tables(g, &cv.store);
                let l = cv.entity_logits(g, tables, &facts);
                at_targets(g.value(l))
            });
            compare(&format!("{flavor:?}"), &cv, trained, 0.0);
        }

        let mut rg = StaticRgcn::new(cfg.clone(), &ctx);
        rg.fit(&ctx);
        let trained = eval_graph(|g| {
            let encoded = rg.encode(g);
            let l = DistMult::entity_logits(g, encoded, &facts);
            at_targets(g.value(l))
        });
        compare("R-GCN", &rg, trained, 0.0);

        let mut ta = TaDistMult::new(cfg.clone(), &ctx);
        ta.fit(&ctx);
        let trained = eval_graph(|g| {
            let l = ta.entity_logits(g, &facts);
            at_targets(g.value(l))
        });
        compare("TA-DistMult", &ta, trained, 0.0);

        let mut tt = TTransE::new(cfg.clone(), &ctx);
        tt.fit(&ctx);
        let trained = eval_graph(|g| {
            let tables = temporal::tables(g, &tt.store);
            let q = TTransE::query(g, tables, &facts);
            let d = TTransE::distance(g, tables.0, q, Rc::clone(&facts.objects));
            negated(g.value(d))
        });
        compare("TTransE", &tt, trained, 0.0);

        let mut hy = HyTE::new(cfg.clone(), &ctx);
        hy.fit(&ctx);
        let trained = eval_graph(|g| {
            let tables = tables(g, &hy.store);
            let w_unit = hy.normals(g, Rc::clone(&facts.times));
            let q = HyTE::query(g, tables, w_unit, &facts);
            let d = HyTE::distance(g, tables.0, w_unit, q, Rc::clone(&facts.objects));
            negated(g.value(d))
        });
        compare("HyTE", &hy, trained, 0.0);

        let mut ro = RotatE::new(cfg, &ctx);
        ro.fit(&ctx);
        let trained = eval_graph(|g| {
            let tables = ro.tables(g);
            let q = ro.rotate_query(g, tables, &facts);
            let d = ro.l1_distance(g, q, tables.0, Rc::clone(&facts.objects));
            g.value(d).data().iter().map(|&d| rotate::GAMMA - d).collect()
        });
        compare("RotatE", &ro, trained, 1e-5);
    }
}
