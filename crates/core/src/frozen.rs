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
//! input tensors. [`FrozenModel::audit`] runs that same decode code over
//! the abstract interpreter, so the serving audit checks what serves.

use std::rc::Rc;
use std::sync::Arc;

use retia_analyze::value::PARAM_BOUND;
use retia_analyze::{AuditCtx, AuditReport};
use retia_graph::{HyperSnapshot, Snapshot};
use retia_tensor::transfer::Interval;
use retia_tensor::{Graph, Ops, Tensor};

use crate::config::RetiaConfig;
use crate::model::{last_k, EvolvedState, Retia};

/// Detached last-`k` evolved embeddings for one history window: the
/// query-independent half of the decode, safe to cache and share. Each
/// decode graph shares these buffers instead of copying them.
#[derive(Clone, Debug)]
pub struct FrozenStates {
    /// `(E_t, R_t)` pairs for the window's last `k` timestamps, oldest
    /// first. `E_t` is `[N, d]`, `R_t` is `[2M, d]` (inverses included).
    pub states: Vec<(Arc<Tensor>, Arc<Tensor>)>,
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
        let detach = |id| Arc::new(g.detach(id));
        FrozenStates {
            states: last.iter().map(|st| (detach(st.entities), detach(st.relations))).collect(),
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

    /// Forwards to [`FrozenModel::decode_entity`]; `_shards` is ignored.
    /// Kept only because the repository benchmark (`perfbench`) calls it;
    /// it goes when the benchmark next changes.
    pub fn decode_entity_sharded(
        &self,
        states: &FrozenStates,
        subjects: Vec<u32>,
        rels: Vec<u32>,
        _shards: usize,
    ) -> Tensor {
        self.decode_entity(states, subjects, rels)
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

    /// A trainable [`Retia`] carrying this model's parameter values
    /// ([`Retia::values_copy`]: shared buffers, Adam moments start at zero).
    /// The continual trainer seeds itself from the served model this way,
    /// and the drift monitor uses it to rebuild a last-good model for
    /// rollback — the frozen model itself stays immutable throughout.
    pub fn clone_model(&self) -> Retia {
        self.model.values_copy()
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

    /// Audit of the serving decode: runs the model's own two decodes
    /// ([`Retia::entity_prob_sum`], [`Retia::relation_prob_sum`]; Eq. 11–14
    /// without the loss) over an inference-mode [`AuditCtx`], with the
    /// frozen window states entering as *declared* detach boundaries and
    /// the decoder weights as constant sources — then proves the abstract
    /// tape declares zero trainable parameters, which is exactly the
    /// no-grad guarantee the `tape_ops() == 0` asserts enforce at runtime.
    ///
    /// The serve boot check runs this before accepting traffic.
    pub fn audit(&self) -> AuditReport {
        let mut ctx = AuditCtx::inference();
        let (n, m2, d) = (self.num_entities(), 2 * self.num_relations(), self.cfg().dim);
        let env = Interval::new(-PARAM_BOUND, PARAM_BOUND);
        // Queries address the first and last id of each index space, so a
        // mis-sized table shows up as an out-of-range gather; intervals are
        // row-uniform, so two queries bound any batch.
        let ends = |count: usize| Rc::new(vec![0, count.max(1) as u32 - 1]);

        ctx.frame("serve", None, |ctx| {
            let states: Vec<EvolvedState<_>> = (0..self.cfg().k.max(1))
                .map(|_| {
                    let e_raw = ctx.source(n, d, env);
                    let entities = ctx.detach(
                        e_raw,
                        "frozen window states: evolve_window detaches the last-k \
                         entity embeddings",
                    );
                    let r_raw = ctx.source(m2, d, env);
                    let relations = ctx.detach(
                        r_raw,
                        "frozen window states: evolve_window detaches the last-k \
                         relation embeddings",
                    );
                    EvolvedState { entities, relations }
                })
                .collect();
            self.model.entity_prob_sum(ctx, &states, ends(n), ends(m2));
            self.model.relation_prob_sum(ctx, &states, ends(n), ends(n));
        });

        ctx.check_no_trainable_params();
        ctx.finish()
    }

    /// Re-inserts cached embedding matrices into a fresh inference graph as
    /// constants sharing the cache's buffers (the decode writes none of
    /// them).
    fn replay(&self, states: &FrozenStates) -> (Graph, Vec<EvolvedState>) {
        assert!(!states.states.is_empty(), "frozen states must hold at least one timestamp");
        let mut g = Graph::inference();
        let evolved = states
            .states
            .iter()
            .map(|(e, r)| EvolvedState {
                entities: g.shared_constant(Arc::clone(e)),
                relations: g.shared_constant(Arc::clone(r)),
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
        let cached = fm.decode_entity(&frozen, subjects.clone(), rels.clone());
        assert_eq!(direct.data(), cached.data(), "entity scores must be bit-identical");
        let stub = fm.decode_entity_sharded(&frozen, subjects, rels, 1);
        assert_eq!(stub.data(), cached.data(), "the benchmark's decode entry point diverged");

        let (rs, ro, _) = relation_queries(target);
        let direct = fm.model.predict_relation(history, hypers, rs.clone(), ro.clone());
        let cached = fm.decode_relation(&frozen, rs, ro);
        assert_eq!(direct.data(), cached.data(), "relation scores must be bit-identical");
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

    /// The releases in `Retia::evolve`, in each layer and in each decoded
    /// timestamp must keep everything a later read needs in every ablation
    /// mode: the inference paths (which release) and a recording graph
    /// (which releases nothing) agree bit for bit across the 45 configs
    /// `retia audit --all-configs` sweeps, and at the paper's model size,
    /// where the released buffers are largest.
    #[test]
    fn inference_release_is_bit_identical_in_every_ablation_config() {
        let ds = SyntheticConfig::tiny(3).generate();
        let ctx = TkgContext::new(&ds);
        let idx = ctx.test_idx[0];
        let (history, hypers) = ctx.history(idx, 4);
        let target = &ctx.snapshots[idx];
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let check = |cfg: &RetiaConfig| {
            let label = cfg.ablation_label();
            let fm = FrozenModel::new(Retia::new(cfg, &ds));
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
        };
        let mut configs = 0;
        let base =
            RetiaConfig { dim: 8, channels: 4, k: 3, static_weight: 0.3, ..Default::default() };
        for cfg in base.ablation_grid() {
            check(&cfg);
            configs += 1;
        }
        assert_eq!(configs, 45);
        check(&RetiaConfig { dim: 200, channels: 50, ..Default::default() });
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
