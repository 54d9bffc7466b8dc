//! Read-only serving façade over a trained [`Retia`].
//!
//! The serving path splits the paper's decode (Eq. 11–14) into two halves
//! with very different costs: the EAM/RAM/TIM recurrence over the history
//! window (expensive, query-independent) and the Conv-TransE decode against
//! the last `k` evolved states (cheap, query-dependent). [`FrozenModel`]
//! runs the recurrence once in a no-tape inference graph and hands back the
//! detached last-`k` embedding matrices as a [`FrozenStates`] value that can
//! be cached per window and decoded against arbitrarily many times — with
//! scores bit-identical to [`Retia::predict_entity`] on the same window,
//! because the decode replays the exact same float ops on the exact same
//! input tensors.

use std::rc::Rc;

use retia_analyze::value::PARAM_BOUND;
use retia_analyze::{AuditCtx, AuditReport};
use retia_graph::{HyperSnapshot, Snapshot};
use retia_tensor::transfer::Interval;
use retia_tensor::{Graph, Tensor};

use crate::config::RetiaConfig;
use crate::model::{last_k, EvolvedState, Retia};

/// Detached last-`k` evolved embeddings for one history window: the
/// query-independent half of the decode, safe to cache and share.
#[derive(Clone, Debug)]
pub struct FrozenStates {
    /// `(E_t, R_t)` pairs for the window's last `k` timestamps, oldest
    /// first. `E_t` is `[N, d]`, `R_t` is `[2M, d]` (inverses included).
    pub states: Vec<(Tensor, Tensor)>,
}

impl FrozenStates {
    /// Approximate resident size in bytes (for cache accounting).
    pub fn num_bytes(&self) -> usize {
        self.states
            .iter()
            .map(|(e, r)| (e.data().len() + r.data().len()) * std::mem::size_of::<f32>())
            .sum()
    }
}

/// An immutable, inference-only view of a trained model. Construction takes
/// ownership of the [`Retia`]; nothing here can mutate parameters.
pub struct FrozenModel {
    model: Retia,
}

impl FrozenModel {
    /// Freezes a trained model for serving.
    pub fn new(model: Retia) -> Self {
        FrozenModel { model }
    }

    /// The configuration the model was trained with.
    pub fn cfg(&self) -> &RetiaConfig {
        &self.model.cfg
    }

    /// Number of entities `N`.
    pub fn num_entities(&self) -> usize {
        self.model.num_entities()
    }

    /// Number of original relations `M` (inverses excluded).
    pub fn num_relations(&self) -> usize {
        self.model.num_relations()
    }

    /// Runs the RAM/EAM/TIM recurrence once over `history` in a no-tape
    /// inference graph and returns the detached last-`k` states.
    ///
    /// Panics if the inference graph recorded any tape op — the no-grad
    /// guarantee the serve engine advertises.
    pub fn evolve_window(&self, history: &[Snapshot], hypers: &[HyperSnapshot]) -> FrozenStates {
        let _t = retia_obs::span!("serve.evolve", window = history.len());
        let mut g = Graph::inference();
        let states = self.model.evolve(&mut g, history, hypers);
        let last = last_k(&states, self.model.cfg.k);
        assert_eq!(g.tape_ops(), 0, "inference evolve must not allocate a tape");
        FrozenStates {
            states: last.iter().map(|st| (g.detach(st.entities), g.detach(st.relations))).collect(),
        }
    }

    /// Entity decode against cached states: summed per-timestamp
    /// probabilities `[Q, N]` for queries `(subjects[i], rels[i], ?)`.
    /// `rels` may contain inverse ids (`r + M`) for subject forecasting.
    ///
    /// Bit-identical to [`Retia::predict_entity`] over the window the states
    /// were evolved from.
    pub fn decode_entity(
        &self,
        states: &FrozenStates,
        subjects: Vec<u32>,
        rels: Vec<u32>,
    ) -> Tensor {
        let (mut g, evolved) = self.replay(states);
        let p = self.model.entity_prob_sum(&mut g, &evolved, Rc::new(subjects), Rc::new(rels));
        assert_eq!(g.tape_ops(), 0, "inference decode must not allocate a tape");
        g.detach(p)
    }

    /// Entity decode with candidate scoring sharded across `shards` threads
    /// by entity range — bit-identical to [`FrozenModel::decode_entity`].
    ///
    /// The decode splits into three phases with different parallelism:
    ///
    /// 1. **Query representations** (engine thread, graph): gather + the
    ///    Conv-TransE head, one detached `[Q, d]` tensor per timestamp.
    /// 2. **Candidate scoring** (scoped shard threads): each shard computes
    ///    `q_t @ E_t[lo..hi]^T` for every timestamp with
    ///    [`Tensor::matmul_nt_range`]. Every logit is the same independent
    ///    sequential dot product the fused path computes, so slicing the
    ///    candidate rows changes no bit of it.
    /// 3. **Normalize + accumulate** (engine thread): shard columns are
    ///    stitched back into full `[Q, N]` logit matrices (a pure copy),
    ///    then softmax and the across-timestamp sum run in the exact
    ///    single-thread order (`softmax_rows`, then `add_assign` oldest
    ///    first — the same association the graph's `add_n` uses). Softmax
    ///    must happen *after* the merge: its row sum is global across all
    ///    `N` candidates, so normalizing per shard would change the result.
    pub fn decode_entity_sharded(
        &self,
        states: &FrozenStates,
        subjects: Vec<u32>,
        rels: Vec<u32>,
        shards: usize,
    ) -> Tensor {
        let n = self.num_entities();
        let shards = shards.clamp(1, n.max(1));
        if shards == 1 {
            return self.decode_entity(states, subjects, rels);
        }
        let _t = retia_obs::span!("serve.decode_sharded", shards = shards);
        let queries = subjects.len();
        let (mut g, evolved) = self.replay(states);
        let reprs =
            self.model.entity_query_reprs(&mut g, &evolved, Rc::new(subjects), Rc::new(rels));
        assert_eq!(g.tape_ops(), 0, "inference decode must not allocate a tape");

        let ranges: Vec<(usize, usize)> = retia_eval::shard_ranges(n, shards);
        // Interval-overlap proof for the column sharding: the shard ranges
        // must partition the candidate columns exactly, or two threads
        // would score (and later stitch) the same logit column.
        let col_plan: Vec<std::ops::Range<usize>> = ranges.iter().map(|&(lo, hi)| lo..hi).collect();
        let plan = retia_tensor::parallel::verify_col_plan(n, &col_plan);
        assert!(plan.is_ok(), "decode shard plan failed the column race prover: {plan:?}");
        // Phase 2: shard threads score candidate ranges. Only the detached
        // tensors are borrowed into the scope, and results come back in
        // shard order via the join handles, so the merge is deterministic.
        // Each shard adopts the request traces active on the engine thread,
        // so its `serve.decode.shard` span lands in every request of the
        // fused batch with per-shard timings.
        let frames = retia_obs::trace::current_frames();
        let per_shard: Vec<Vec<Tensor>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .enumerate()
                .map(|(shard, &(lo, hi))| {
                    let reprs = &reprs;
                    let frozen = &states.states;
                    let frames = frames.clone();
                    scope.spawn(move || {
                        let _adopted = retia_obs::trace::adopt(frames);
                        let _s =
                            retia_obs::span!("serve.decode.shard", shard = shard, lo = lo, hi = hi);
                        reprs
                            .iter()
                            .zip(frozen.iter())
                            .map(|(q, (e_t, _))| q.matmul_nt_range(e_t, lo, hi))
                            .collect::<Vec<Tensor>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("decode shard thread panicked")).collect()
        });

        // Phase 3: stitch columns, normalize globally, accumulate in the
        // single-thread order.
        let mut acc: Option<Tensor> = None;
        for t in 0..reprs.len() {
            let mut logits = Tensor::zeros(queries, n);
            for (shard, &(lo, hi)) in per_shard.iter().zip(ranges.iter()) {
                let part = &shard[t];
                for i in 0..queries {
                    let dst = i * n + lo;
                    logits.data_mut()[dst..dst + (hi - lo)].copy_from_slice(part.row(i));
                }
            }
            let probs = logits.softmax_rows();
            match acc.as_mut() {
                None => acc = Some(probs),
                Some(a) => a.add_assign(&probs),
            }
        }
        acc.expect("frozen states hold at least one timestamp")
    }

    /// Relation decode against cached states: summed probabilities `[Q, M]`
    /// for queries `(subjects[i], ?, objects[i])`.
    pub fn decode_relation(
        &self,
        states: &FrozenStates,
        subjects: Vec<u32>,
        objects: Vec<u32>,
    ) -> Tensor {
        let (mut g, evolved) = self.replay(states);
        let p = self.model.relation_prob_sum(&mut g, &evolved, Rc::new(subjects), Rc::new(objects));
        assert_eq!(g.tape_ops(), 0, "inference decode must not allocate a tape");
        g.detach(p)
    }

    /// Builds a fresh trainable [`Retia`] carrying this model's parameter
    /// values (Adam moments start at zero). The continual trainer seeds
    /// itself from the served model this way, and the drift monitor uses it
    /// to rebuild a last-good model for rollback — the frozen model itself
    /// stays immutable throughout.
    pub fn clone_model(&self) -> Retia {
        let mut model =
            Retia::with_shape(&self.model.cfg, self.num_entities(), self.num_relations());
        model.store_mut().copy_values_from(self.model.store());
        model
    }

    /// Joint forecasting loss of `target` given `history`, computed in a
    /// no-tape inference graph (no gradients, no parameter mutation). This
    /// is the drift monitor's signal: the same Eq. 13/14 objective training
    /// minimizes, evaluated by the served (or candidate) weights on the
    /// facts that just arrived.
    pub fn window_loss(
        &self,
        history: &[Snapshot],
        hypers: &[HyperSnapshot],
        target: &Snapshot,
    ) -> f64 {
        let mut g = Graph::inference();
        let states = self.model.evolve(&mut g, history, hypers);
        let decode_states = last_k(&states, self.model.cfg.k).to_vec();
        let (loss, _, _) = self.model.loss(&mut g, &decode_states, target);
        assert_eq!(g.tape_ops(), 0, "inference loss must not allocate a tape");
        g.value(loss).item() as f64
    }

    /// Audit of the serving decode: replays the cached-state decode
    /// (Eq. 11–14 without the loss) over shapes and intervals, with the
    /// frozen window states entering as *declared* detach boundaries and
    /// the decoder weights as constant sources — then proves the abstract
    /// tape declares zero trainable parameters, which is exactly the
    /// no-grad guarantee the `tape_ops() == 0` asserts enforce at runtime.
    /// The sharded decode's column split is declared as a reorder of the
    /// `matmul_nt` output lanes, which the sensitivity map must rule legal.
    ///
    /// The serve boot check runs this before accepting traffic.
    pub fn audit(&self) -> AuditReport {
        let mut ctx = AuditCtx::new();
        let cfg = self.cfg();
        let n = self.num_entities();
        let m = self.num_relations();
        let m2 = 2 * m;
        let d = cfg.dim;
        let k = cfg.k.max(1);
        let env = Interval::new(-PARAM_BOUND, PARAM_BOUND);
        // Queries address the first and last id of each index space, so a
        // mis-sized table shows up as an out-of-range gather; intervals are
        // row-uniform, so two queries bound any batch.
        let ends = |count: usize| [0, count.max(1) as u32 - 1];
        let (ent_ids, rel_ids) = (ends(n), ends(m2));
        let orig: Vec<u32> = (0..m as u32).collect();

        ctx.scoped("serve", None, |ctx| {
            // The entity-sharded decode splits candidate columns across
            // threads: a reorder of the scoring matmul's output lanes.
            ctx.reorder("matmul_nt", "output-lanes");

            let states: Vec<_> = (0..k)
                .map(|_| {
                    let e_raw = ctx.source(n, d, env);
                    let e = ctx.detach(
                        e_raw,
                        "frozen window states: evolve_window detaches the last-k \
                         entity embeddings",
                    );
                    let r_raw = ctx.source(m2, d, env);
                    let r = ctx.detach(
                        r_raw,
                        "frozen window states: evolve_window detaches the last-k \
                         relation embeddings",
                    );
                    (e, r)
                })
                .collect();

            ctx.scoped("decode.entity", Some("Eq. 11/13"), |ctx| {
                let mut probs = Vec::with_capacity(states.len());
                for &(e_t, r_t) in &states {
                    let s_emb = ctx.gather_rows(e_t, &ent_ids);
                    let r_emb = ctx.gather_rows(r_t, &rel_ids);
                    let logits = self.model.dec_entity.audit_frozen(ctx, s_emb, r_emb, e_t);
                    probs.push(ctx.softmax_rows(logits));
                }
                ctx.add_n(&probs)
            });

            ctx.scoped("decode.relation", Some("Eq. 12/14"), |ctx| {
                let mut probs = Vec::with_capacity(states.len());
                for &(e_t, r_t) in &states {
                    let s_emb = ctx.gather_rows(e_t, &ent_ids);
                    let o_emb = ctx.gather_rows(e_t, &ent_ids);
                    let cand = ctx.gather_rows(r_t, &orig);
                    let logits = self.model.dec_relation.audit_frozen(ctx, s_emb, o_emb, cand);
                    probs.push(ctx.softmax_rows(logits));
                }
                ctx.add_n(&probs)
            });
        });

        ctx.check_no_trainable_params();
        ctx.finish()
    }

    /// Re-inserts cached embedding matrices as constants of a fresh
    /// inference graph.
    fn replay(&self, states: &FrozenStates) -> (Graph, Vec<EvolvedState>) {
        assert!(!states.states.is_empty(), "frozen states must hold at least one timestamp");
        let mut g = Graph::inference();
        let evolved = states
            .states
            .iter()
            .map(|(e, r)| EvolvedState {
                entities: g.constant(e.clone()),
                relations: g.constant(r.clone()),
            })
            .collect();
        (g, evolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{entity_queries, relation_queries, Retia, RetiaConfig, TkgContext};
    use retia_data::SyntheticConfig;

    fn setup() -> (FrozenModel, TkgContext) {
        let ds = SyntheticConfig::tiny(3).generate();
        let ctx = TkgContext::new(&ds);
        let cfg = RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() };
        let model = Retia::new(&cfg, &ds);
        (FrozenModel::new(model), ctx)
    }

    #[test]
    fn cached_decode_is_bitwise_identical_to_direct_predict() {
        let (fm, ctx) = setup();
        let idx = ctx.test_idx[0];
        let (history, hypers) = ctx.history(idx, fm.cfg().k);
        let target = &ctx.snapshots[idx];

        let (subjects, rels, _) = entity_queries(target, ctx.num_relations);
        let direct = fm.model.predict_entity(history, hypers, subjects.clone(), rels.clone());
        let frozen = fm.evolve_window(history, hypers);
        let cached = fm.decode_entity(&frozen, subjects, rels);
        assert_eq!(direct.data(), cached.data(), "entity scores must be bit-identical");

        let (rs, ro, _) = relation_queries(target);
        let direct = fm.model.predict_relation(history, hypers, rs.clone(), ro.clone());
        let cached = fm.decode_relation(&frozen, rs, ro);
        assert_eq!(direct.data(), cached.data(), "relation scores must be bit-identical");
    }

    #[test]
    fn sharded_decode_is_bitwise_identical_to_fused_decode() {
        let (fm, ctx) = setup();
        let idx = ctx.test_idx[0];
        let (history, hypers) = ctx.history(idx, fm.cfg().k);
        let target = &ctx.snapshots[idx];
        let (subjects, rels, _) = entity_queries(target, ctx.num_relations);

        let frozen = fm.evolve_window(history, hypers);
        let fused = fm.decode_entity(&frozen, subjects.clone(), rels.clone());
        // ≥2 shard counts, including one that doesn't divide N and one per
        // entity, per the sharding acceptance criterion.
        for shards in [2usize, 3, fm.num_entities()] {
            let sharded = fm.decode_entity_sharded(&frozen, subjects.clone(), rels.clone(), shards);
            assert_eq!(fused.shape(), sharded.shape());
            for (a, b) in fused.data().iter().zip(sharded.data().iter()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "sharded decode diverged from fused at {shards} shards"
                );
            }
        }
        // shards=1 must route through the fused path unchanged.
        let one = fm.decode_entity_sharded(&frozen, subjects, rels, 1);
        assert_eq!(one.data(), fused.data());
    }

    #[test]
    fn serving_audit_is_clean_with_zero_params_and_declared_detaches() {
        let (fm, _) = setup();
        let report = fm.audit();
        assert!(report.is_clean(), "serving audit found:\n{report}");
        assert_eq!(report.params_declared, 0, "inference replay declared trainable params");
        assert!(!report.detaches.is_empty(), "frozen-state detaches were not declared");
        assert!(report.ops_checked > 10);
    }

    #[test]
    fn clone_model_carries_exact_parameter_values() {
        let (fm, ctx) = setup();
        let clone = fm.clone_model();
        for ((name_a, a), (name_b, b)) in fm.model.store().iter().zip(clone.store().iter()) {
            assert_eq!(name_a, name_b);
            assert_eq!(a.data(), b.data(), "param `{name_a}` diverged in the clone");
        }
        // The clone decodes bit-identically to the original.
        let idx = ctx.test_idx[0];
        let (history, hypers) = ctx.history(idx, fm.cfg().k);
        let target = &ctx.snapshots[idx];
        let (subjects, rels, _) = entity_queries(target, ctx.num_relations);
        let a = fm.model.predict_entity(history, hypers, subjects.clone(), rels.clone());
        let b = clone.predict_entity(history, hypers, subjects, rels);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn window_loss_is_finite_deterministic_and_pure() {
        let (fm, ctx) = setup();
        let idx = ctx.test_idx[0];
        let (history, hypers) = ctx.history(idx, fm.cfg().k);
        let target = &ctx.snapshots[idx];
        let before: Vec<f32> = fm.model.store().value("ent0").data().to_vec();
        let l1 = fm.window_loss(history, hypers, target);
        let l2 = fm.window_loss(history, hypers, target);
        assert!(l1.is_finite() && l1 > 0.0, "joint loss should be a positive NLL: {l1}");
        assert_eq!(l1.to_bits(), l2.to_bits(), "window loss must be deterministic");
        assert_eq!(
            before,
            fm.model.store().value("ent0").data(),
            "window loss must not mutate params"
        );
        // Empty history decodes from the initial state and still yields a loss.
        let l0 = fm.window_loss(&[], &[], target);
        assert!(l0.is_finite());
    }

    /// The per-snapshot release in `Retia::evolve` must keep everything a
    /// later read needs in every ablation mode: the inference paths (which
    /// release) and a recording graph (which releases nothing) agree bit for
    /// bit across the 45 configs `retia audit --all-configs` sweeps.
    #[test]
    fn inference_release_is_bit_identical_in_every_ablation_config() {
        use crate::{HyperrelMode, RelationMode};
        let ds = SyntheticConfig::tiny(3).generate();
        let ctx = TkgContext::new(&ds);
        let idx = ctx.test_idx[0];
        let (history, hypers) = ctx.history(idx, 4);
        let target = &ctx.snapshots[idx];
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut configs = 0;
        for rm in [
            RelationMode::None,
            RelationMode::Static,
            RelationMode::Mp,
            RelationMode::MpLstm,
            RelationMode::MpLstmAgg,
        ] {
            for hm in [HyperrelMode::Init, HyperrelMode::Hmp, HyperrelMode::HmpHlstm] {
                for (tim, eam) in [(true, true), (false, true), (true, false)] {
                    let cfg = RetiaConfig {
                        dim: 8,
                        channels: 4,
                        k: 3,
                        static_weight: 0.3,
                        relation_mode: rm,
                        hyperrel_mode: hm,
                        use_tim: tim,
                        use_eam: eam,
                        ..Default::default()
                    };
                    let label = format!("{rm:?}/{hm:?}/tim={tim}/eam={eam}");
                    let fm = FrozenModel::new(Retia::new(&cfg, &ds));
                    let frozen = fm.evolve_window(history, hypers);
                    let loss = fm.window_loss(history, hypers, target);

                    let mut g = Graph::new(false, 0);
                    let states = fm.model.evolve(&mut g, history, hypers);
                    let last = last_k(&states, cfg.k).to_vec();
                    assert_eq!(frozen.states.len(), last.len(), "{label}");
                    for ((e, r), st) in frozen.states.iter().zip(&last) {
                        assert_eq!(bits(e), bits(g.value(st.entities)), "E_t diverged: {label}");
                        assert_eq!(bits(r), bits(g.value(st.relations)), "R_t diverged: {label}");
                    }
                    let (rec_loss, _, _) = fm.model.loss(&mut g, &last, target);
                    let rec_loss = f64::from(g.value(rec_loss).item());
                    assert_eq!(loss.to_bits(), rec_loss.to_bits(), "loss diverged: {label}");
                    configs += 1;
                }
            }
        }
        assert_eq!(configs, 45);
    }

    #[test]
    fn frozen_states_hold_last_k_windows() {
        let (fm, ctx) = setup();
        let idx = *ctx.test_idx.last().expect("test split");
        let (history, hypers) = ctx.history(idx, 5);
        let frozen = fm.evolve_window(history, hypers);
        assert_eq!(frozen.states.len(), fm.cfg().k.min(history.len().max(1)));
        assert!(frozen.num_bytes() > 0);
        for (e, r) in &frozen.states {
            assert_eq!(e.shape(), (fm.num_entities(), fm.cfg().dim));
            assert_eq!(r.shape(), (2 * fm.num_relations(), fm.cfg().dim));
        }
    }
}
