//! The one inference route. Every query at a timestamp is scored against
//! the same last-`k` evolved states (Eq. 11–14), so [`Retia::evolve_window`]
//! runs the EAM/RAM/TIM recurrence once in a no-tape inference graph and
//! returns the detached states as a [`FrozenStates`] value, which
//! [`Retia::decode_entity`], [`Retia::decode_relation`] and
//! [`Retia::window_loss`] read as often as needed. `predict_*` is one evolve
//! and one decode; evaluation evolves once per scored snapshot, the server
//! once per window, and the drift monitor once per model and round.
//!
//! [`FrozenModel`] only owns a model nothing may mutate (it derefs to
//! [`Retia`], never mutably); [`FrozenModel::audit`] runs the decode over the
//! abstract interpreter, so the serving audit checks what serves.

use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;

use retia_analyze::value::PARAM_BOUND;
use retia_analyze::{AuditCtx, AuditReport};
use retia_graph::{HyperSnapshot, Snapshot};
use retia_tensor::transfer::Interval;
use retia_tensor::{Graph, Ops, Tensor};

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

    /// Re-inserts the cached embedding matrices into a fresh inference
    /// graph as constants sharing the cache's buffers (a decode writes none
    /// of them).
    fn replay(&self) -> (Graph, Vec<EvolvedState>) {
        assert!(!self.states.is_empty(), "frozen states must hold at least one timestamp");
        let mut g = Graph::inference();
        let evolved = self
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

impl Retia {
    /// Runs the RAM/EAM/TIM recurrence once over `history` in a no-tape
    /// inference graph and returns the detached last-`k` states.
    ///
    /// Panics if the inference graph recorded any tape op — the no-grad
    /// guarantee the serve engine advertises.
    pub fn evolve_window(&self, history: &[Snapshot], hypers: &[HyperSnapshot]) -> FrozenStates {
        let mut g = Graph::inference();
        let states = self.evolve(&mut g, history, hypers);
        let last = last_k(&states, self.cfg.k);
        assert_eq!(g.tape_ops(), 0, "inference evolve must not allocate a tape");
        let detach = |id| Arc::new(g.detach(id));
        FrozenStates {
            states: last.iter().map(|st| (detach(st.entities), detach(st.relations))).collect(),
        }
    }

    /// Entity decode against evolved states: summed per-timestamp
    /// probabilities `[Q, N]` for queries `(subjects[i], rels[i], ?)`.
    /// `rels` may contain inverse ids (`r + M`) for subject forecasting.
    pub fn decode_entity(
        &self,
        states: &FrozenStates,
        subjects: Vec<u32>,
        rels: Vec<u32>,
    ) -> Tensor {
        let (mut g, evolved) = states.replay();
        let p = self.entity_prob_sum(&mut g, &evolved, Rc::new(subjects), Rc::new(rels));
        assert_eq!(g.tape_ops(), 0, "inference decode must not allocate a tape");
        g.detach(p)
    }

    /// Relation decode against evolved states: summed probabilities
    /// `[Q, M]` for queries `(subjects[i], ?, objects[i])`.
    pub fn decode_relation(
        &self,
        states: &FrozenStates,
        subjects: Vec<u32>,
        objects: Vec<u32>,
    ) -> Tensor {
        let (mut g, evolved) = states.replay();
        let p = self.relation_prob_sum(&mut g, &evolved, Rc::new(subjects), Rc::new(objects));
        assert_eq!(g.tape_ops(), 0, "inference decode must not allocate a tape");
        g.detach(p)
    }

    /// Joint forecasting loss of `target` from evolved states, computed in a
    /// no-tape inference graph (no gradients, no parameter mutation). This
    /// is the drift monitor's signal: the same Eq. 13/14 objective training
    /// minimizes, evaluated by the served (or candidate) weights on the
    /// facts that just arrived.
    pub fn window_loss(&self, states: &FrozenStates, target: &Snapshot) -> f64 {
        let (mut g, evolved) = states.replay();
        let (loss, _, _) = self.loss(&mut g, &evolved, target);
        assert_eq!(g.tape_ops(), 0, "inference loss must not allocate a tape");
        f64::from(g.value(loss).item())
    }
}

/// An immutable, inference-only model. Construction takes ownership of the
/// [`Retia`]; the inference route is reached through `Deref`, and nothing
/// here can mutate parameters.
pub struct FrozenModel {
    model: Retia,
}

impl Deref for FrozenModel {
    type Target = Retia;

    fn deref(&self) -> &Retia {
        &self.model
    }
}

impl FrozenModel {
    /// Freezes a trained model for serving.
    pub fn new(model: Retia) -> Self {
        FrozenModel { model }
    }

    /// Forwards to [`Retia::decode_entity`]; `_shards` is ignored. Kept
    /// only because the repository benchmark (`perfbench`) calls it; it goes
    /// when the benchmark next changes.
    pub fn decode_entity_sharded(
        &self,
        states: &FrozenStates,
        subjects: Vec<u32>,
        rels: Vec<u32>,
        _shards: usize,
    ) -> Tensor {
        self.decode_entity(states, subjects, rels)
    }

    /// Forwards to [`Retia::values_copy`]. Kept only because the repository
    /// benchmark (`perfbench`) calls it; it goes when the benchmark next
    /// changes.
    pub fn clone_model(&self) -> Retia {
        self.values_copy()
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
        let (n, m2, d) = (self.num_entities(), 2 * self.num_relations(), self.cfg.dim);
        let env = Interval::new(-PARAM_BOUND, PARAM_BOUND);
        // Queries address the first and last id of each index space, so a
        // mis-sized table shows up as an out-of-range gather; intervals are
        // row-uniform, so two queries bound any batch.
        let ends = |count: usize| Rc::new(vec![0, count.max(1) as u32 - 1]);

        ctx.frame("serve", None, |ctx| {
            let states: Vec<EvolvedState<_>> = (0..self.cfg.k.max(1))
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
        let (history, hypers) = ctx.history(idx, fm.cfg.k);
        let target = &ctx.snapshots[idx];

        // The reference: evolve and decode on one recording eval graph, the
        // path the training loss takes.
        let mut g = Graph::new(false, 0);
        let evolved = fm.evolve(&mut g, history, hypers);
        let last = last_k(&evolved, fm.cfg.k);

        let (subjects, rels, _) = entity_queries(target, ctx.num_relations);
        let p = fm.entity_prob_sum(&mut g, last, Rc::new(subjects.clone()), Rc::new(rels.clone()));
        let direct = g.detach(p);
        let frozen = fm.evolve_window(history, hypers);
        let cached = fm.decode_entity(&frozen, subjects.clone(), rels.clone());
        assert_eq!(direct.data(), cached.data(), "entity scores must be bit-identical");
        let stub = fm.decode_entity_sharded(&frozen, subjects, rels, 1);
        assert_eq!(stub.data(), cached.data(), "the benchmark's decode entry point diverged");

        let (rs, ro, _) = relation_queries(target);
        let p = fm.relation_prob_sum(&mut g, last, Rc::new(rs.clone()), Rc::new(ro.clone()));
        let direct = g.detach(p);
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
        let (history, hypers) = ctx.history(idx, fm.cfg.k);
        let target = &ctx.snapshots[idx];
        let (subjects, rels, _) = entity_queries(target, ctx.num_relations);
        let a = fm.predict_entity(history, hypers, subjects.clone(), rels.clone());
        let b = clone.predict_entity(history, hypers, subjects, rels);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn window_loss_is_finite_deterministic_and_pure() {
        let (fm, ctx) = setup();
        let idx = ctx.test_idx[0];
        let (history, hypers) = ctx.history(idx, fm.cfg.k);
        let target = &ctx.snapshots[idx];
        let before: Vec<f32> = fm.model.store().value("ent0").data().to_vec();
        let states = fm.evolve_window(history, hypers);
        let l1 = fm.window_loss(&states, target);
        let l2 = fm.window_loss(&states, target);
        assert!(l1.is_finite() && l1 > 0.0, "joint loss should be a positive NLL: {l1}");
        assert_eq!(l1.to_bits(), l2.to_bits(), "window loss must be deterministic");
        assert_eq!(
            before,
            fm.model.store().value("ent0").data(),
            "window loss must not mutate params"
        );
        // Empty history decodes from the initial state and still yields a loss.
        let l0 = fm.window_loss(&fm.evolve_window(&[], &[]), target);
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
            let loss = fm.window_loss(&frozen, target);

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
        assert_eq!(frozen.states.len(), fm.cfg.k.min(history.len().max(1)));
        assert!(frozen.num_bytes() > 0);
        for (e, r) in &frozen.states {
            assert_eq!(e.shape(), (fm.num_entities(), fm.cfg.dim));
            assert_eq!(r.shape(), (2 * fm.num_relations(), fm.cfg.dim));
        }
    }
}
