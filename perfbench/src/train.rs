//! The `train` scenario: the preflight, `Trainer::try_train_step` in time
//! order over a fixed prefix of the training snapshots, then
//! `evaluate_offline` over the validation split.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use retia::{entity_queries, relation_queries, RecoveryPolicy, Retia, Split, TkgContext, Trainer};
use retia_bench::{retia_config_for, Settings};
use retia_eval::{rank_of, rank_of_filtered, FilterSet};
use retia_graph::Snapshot;
use retia_nn::{
    mean_pool_segments, ConvTransE, EntityRgcn, GruCell, LstmCell, RelationRgcn, WeightMode,
};
use retia_tensor::optim::{clip_grad_norm, Adam};
use retia_tensor::{Graph, ParamStore, Tensor};

use crate::plan::{
    Workload, EVAL_PASSES, LOSS_BAND, MRR_BAND, STEP_CLOSURE_TOLERANCE, TRAIN_STEPS,
};
use crate::result::{Check, Metric, ScenarioResult};
use crate::spans::Tracer;
use crate::stats::{mean, median};
use crate::{elapsed_ms, layer_metric, Args};

/// The first `steps` training targets with a full `k`-snapshot history, so
/// every step does the same amount of recurrence.
fn step_targets(ctx: &TkgContext, k: usize, steps: usize) -> Vec<usize> {
    ctx.train_idx.iter().copied().filter(|&i| i >= k).take(steps).collect()
}

/// Runs the scenario.
pub fn run(args: &Args, w: &Workload, process_start: Instant) -> Result<ScenarioResult, String> {
    let mut out = ScenarioResult { scenario: "train".to_string(), ..Default::default() };
    let ds = w.dataset(args.seed).generate();
    let ctx = TkgContext::new(&ds);
    let cfg = retia_config_for(w.profile, &Settings::default());
    let mut trainer = Trainer::new(Retia::new(&cfg, &ds), cfg.clone());
    // `retia train` runs with divergence recovery on.
    trainer.set_recovery(Some(RecoveryPolicy::default()));
    let shapes = trainer.model.validate();
    let audit = trainer.model.audit();
    out.checks.push(Check::new(
        "preflight validate + audit clean",
        shapes.is_clean() && audit.is_clean(),
        format!("{} shape issue(s), {} audit issue(s)", shapes.issues.len(), audit.issues.len()),
    ));
    out.setup_s = process_start.elapsed().as_secs_f64();
    if args.setup_only {
        return Ok(out);
    }
    let targets = step_targets(&ctx, cfg.k, TRAIN_STEPS);
    if args.trace {
        trace(args, w, &ds, &ctx, &targets, &mut out)?;
        return Ok(out);
    }

    let (mut step_ms, mut losses, mut facts) = (Vec::new(), Vec::new(), 0usize);
    for &idx in &targets {
        let t = Instant::now();
        let loss = trainer.try_train_step(&ctx, idx).map_err(|e| format!("train step: {e}"))?;
        step_ms.push(elapsed_ms(t));
        losses.push(loss.joint);
        facts += ctx.snapshots[idx].facts.len();
    }
    let finite = losses.iter().all(|l| l.is_finite());
    out.checks.push(Check::new(
        "every loss finite",
        finite,
        format!("{} of {} finite", losses.iter().filter(|l| l.is_finite()).count(), losses.len()),
    ));
    let mean_loss = mean(&losses);
    let (lo, hi) = LOSS_BAND;
    out.checks.push(Check::new(
        "mean loss within tolerance",
        (lo..=hi).contains(&mean_loss),
        format!("{mean_loss:.4} in [{lo}, {hi}]"),
    ));

    let valid_facts = ctx.split_fact_count(Split::Valid);
    // Entity queries in both directions plus one relation query per fact.
    let queries_per_pass = 3 * valid_facts;
    let mut pass_qps = Vec::new();
    let mut mrr = 0.0;
    for _ in 0..EVAL_PASSES {
        let t = Instant::now();
        let report = trainer.evaluate_offline(&ctx, Split::Valid);
        pass_qps.push(queries_per_pass as f64 / t.elapsed().as_secs_f64());
        mrr = report.entity_raw.mrr();
    }
    let (lo, hi) = MRR_BAND;
    out.checks.push(Check::new(
        "validation MRR within tolerance",
        (lo..=hi).contains(&mrr),
        format!("entity raw MRR {mrr:.4} in [{lo}, {hi}]"),
    ));

    let step_total_s: f64 = step_ms.iter().sum::<f64>() / 1e3;
    out.metrics.push(Metric::new("train_step_ms_p50", "ms", median(&step_ms), step_ms.len()));
    out.metrics.push(Metric::new(
        "train_facts_per_s",
        "facts/s",
        facts as f64 / step_total_s,
        step_ms.len(),
    ));
    out.metrics.push(Metric::new(
        "eval_queries_per_s",
        "queries/s",
        median(&pass_qps),
        pass_qps.len(),
    ));
    out.attempted = (targets.len() + EVAL_PASSES) as u64;
    out.failed = losses.iter().filter(|l| !l.is_finite()).count() as u64;
    out.counts.insert("train.steps".into(), targets.len() as f64);
    out.counts.insert("train.target_facts_per_step".into(), facts as f64 / targets.len() as f64);
    out.counts.insert("eval.queries_ranked".into(), (queries_per_pass * EVAL_PASSES) as f64);
    out.counts.insert("train.mean_loss".into(), mean_loss);
    out.counts.insert("eval.entity_mrr".into(), mrr);
    Ok(out)
}

/// The traced replay: the step composed from the public calls
/// `Trainer::try_train_step` makes, one validation pass, and the layer
/// calls at this workload's shapes.
fn trace(
    args: &Args,
    w: &Workload,
    ds: &retia_data::TkgDataset,
    ctx: &TkgContext,
    targets: &[usize],
    out: &mut ScenarioResult,
) -> Result<(), String> {
    let cfg = retia_config_for(w.profile, &Settings::default());
    let mut tr = Tracer::default();

    // Preflight and data generation.
    let model = Retia::new(&cfg, ds);
    for i in 0..3 {
        tr.span("analyze.validate", i, |_| model.validate());
        tr.span("analyze.audit", i, |_| model.audit());
        tr.span("data.generate", i, |_| w.dataset(args.seed).generate());
    }

    // The composed step, interleaved step by step with the untraced
    // `try_train_step` on a twin trainer, so both see the same host
    // conditions. The trainer's graph seeds start at 0x5EED and advance
    // before each step; replaying them replays the same dropout.
    let mut trainer = Trainer::new(Retia::new(&cfg, ds), cfg.clone());
    trainer.set_recovery(Some(RecoveryPolicy::default()));
    let mut model = model;
    let mut adam = Adam::new(cfg.lr);
    let mut step_seed: u64 = 0x5EED;
    let (mut untraced, mut step_totals) = (Vec::new(), Vec::new());
    for (i, &idx) in targets.iter().enumerate() {
        let t = Instant::now();
        trainer.try_train_step(ctx, idx).map_err(|e| format!("train step: {e}"))?;
        untraced.push(elapsed_ms(t));

        let req = i as u64;
        let (history, hypers) = ctx.history(idx, cfg.k);
        let target = &ctx.snapshots[idx];
        step_seed = step_seed.wrapping_add(1);
        let t = Instant::now();
        tr.span("train.step", req, |tr| {
            let mut g = Graph::new(true, step_seed);
            let states = tr.span("core.evolve", req, |_| model.evolve(&mut g, history, hypers));
            let (loss, _, _) = tr.span("core.loss", req, |_| model.loss(&mut g, &states, target));
            tr.span("tensor.backward", req, |_| g.backward(loss, model.store_mut()));
            tr.span("core.optim", req, |_| {
                clip_grad_norm(model.store_mut(), cfg.grad_clip);
                adam.step(model.store_mut());
                model.store_mut().zero_grad();
            });
        });
        step_totals.push(elapsed_ms(t));
    }

    // One validation pass through the public prediction and ranking calls.
    for (n, &idx) in ctx.split_indices(Split::Valid).iter().enumerate() {
        let (history, hypers) = ctx.history(idx, cfg.k);
        let target = &ctx.snapshots[idx];
        let req = n as u64;
        tr.span("eval.snapshot", req, |tr| {
            let (subjects, rels, answers) = entity_queries(target, ctx.num_relations);
            let filters = entity_filters(target, ctx.num_relations as u32);
            let probs = tr.span("core.predict_entity", req, |_| {
                model.predict_entity(history, hypers, subjects, rels)
            });
            for (i, &a) in answers.iter().enumerate() {
                tr.span("eval.rank", req, |_| {
                    (
                        rank_of(probs.row(i), a as usize),
                        rank_of_filtered(probs.row(i), a as usize, &filters[i]),
                    )
                });
            }
            let (rs, ro, rt) = relation_queries(target);
            let probs = tr.span("core.predict_relation", req, |_| {
                model.predict_relation(history, hypers, rs, ro)
            });
            for (i, &a) in rt.iter().enumerate() {
                tr.span("eval.rank", req, |_| rank_of(probs.row(i), a as usize));
            }
        });
    }

    nn_layers(&cfg, ctx, targets, &mut tr);
    kernels(&cfg, ctx, targets, &mut tr);

    let times = tr.self_times_ms();
    let split = ["core.evolve", "core.loss", "tensor.backward", "core.optim"];
    for name in split.iter().chain(&["analyze.validate", "analyze.audit", "data.generate"]) {
        out.layers.push(layer_metric(&times, name, "ms", &format!("{name}.ms"), 1.0));
    }
    out.layers.push(layer_metric(&times, "eval.rank", "us", "eval.rank.us", 1e3));
    for name in ["nn.eam", "nn.ram", "nn.tim", "nn.decode", "tensor.softmax_rows"] {
        out.layers.push(layer_metric(&times, name, "ms", &format!("{name}.ms"), 1.0));
    }
    let gs = &times["tensor.gather_scatter"];
    let gs_bytes = gather_scatter_bytes(&cfg, ctx, targets);
    out.layers.push(Metric::new(
        "tensor.gather_scatter.gbps",
        "GB/s",
        gs_bytes / (median(gs) * 1e-3) / 1e9,
        gs.len(),
    ));
    out.layers.push(Metric::new("tensor.gather_scatter.bytes", "B", gs_bytes, gs.len()));
    let (q, n) = softmax_shape(ctx, targets);
    out.layers.push(Metric::new("tensor.softmax_rows.ops", "count", (3 * q * n) as f64, 1));
    out.layers.push(Metric::new("tensor.softmax_rows.bytes", "B", (2 * 4 * q * n) as f64, 1));

    // Closure: the four parts against the untraced step beside them.
    let per_step: Vec<f64> =
        (0..targets.len()).map(|i| split.iter().map(|s| times[*s][i]).sum()).collect();
    let (parts, step) = (median(&per_step), median(&untraced));
    let gap = step - parts;
    out.layers.push(Metric::new("train_step.unaccounted_ms", "ms", gap, per_step.len()));
    out.layers.push(Metric::new(
        "obs.trace_overhead_pct.train",
        "%",
        (median(&step_totals) - step) / step * 100.0,
        step_totals.len(),
    ));
    out.checks.push(Check::new(
        "train step split closes",
        (gap / step).abs() <= STEP_CLOSURE_TOLERANCE,
        format!(
            "core.evolve + core.loss + tensor.backward + core.optim = {parts:.3} ms vs untraced \
             try_train_step p50 {step:.3} ms (tolerance {:.0}%)",
            STEP_CLOSURE_TOLERANCE * 100.0
        ),
    ));
    tr.write_jsonl(&args.out_dir.join("spans-train.jsonl")).map_err(|e| format!("spans: {e}"))
}

/// Time-aware filter sets for a snapshot's entity queries, in query order.
fn entity_filters(snap: &Snapshot, m: u32) -> Vec<FilterSet> {
    let mut truths: HashMap<(u32, u32), FilterSet> = HashMap::new();
    for q in &snap.facts {
        truths.entry((q.s, q.r)).or_default().insert(q.o);
        truths.entry((q.o, q.r + m)).or_default().insert(q.s);
    }
    snap.facts
        .iter()
        .flat_map(|q| [truths[&(q.s, q.r)].clone(), truths[&(q.o, q.r + m)].clone()])
        .collect()
}

/// EAM, RAM, TIM and the entity decode head, each timed alone in a
/// training graph on the last history snapshot of every step target.
fn nn_layers(cfg: &retia::RetiaConfig, ctx: &TkgContext, targets: &[usize], tr: &mut Tracer) {
    let (n, m2, d) = (ctx.num_entities, 2 * ctx.num_relations, cfg.dim);
    let mut store = ParamStore::new(cfg.seed);
    store.register_xavier("ent", n, d);
    store.register_xavier("rel", m2, d);
    store.register_xavier("hyper", retia_graph::NUM_HYPERRELS_WITH_INV, d);
    let eam = EntityRgcn::new(
        &mut store,
        "eam",
        d,
        m2,
        WeightMode::Basis(cfg.num_bases.min(m2)),
        cfg.rgcn_layers,
        cfg.dropout,
    );
    let ram = RelationRgcn::new(
        &mut store,
        "ram",
        d,
        WeightMode::PerRelation,
        cfg.rgcn_layers,
        cfg.dropout,
    );
    let ent_gru = GruCell::new(&mut store, "ent_gru", d, d);
    let rel_gru = GruCell::new(&mut store, "rel_gru", d, d);
    let lstm = LstmCell::new(&mut store, "lstm", 2 * d, d);
    let dec = ConvTransE::new(&mut store, "dec", d, cfg.channels, cfg.ksize, cfg.dropout);
    for (i, &idx) in targets.iter().enumerate() {
        let req = i as u64;
        let snap = &ctx.snapshots[idx - 1];
        let hyper = &ctx.hypers[idx - 1];
        let mut g = Graph::new(true, req);
        let e = g.param(&store, "ent");
        let r = g.param(&store, "rel");
        let hr = g.param(&store, "hyper");
        tr.span("nn.eam", req, |_| {
            let agg = eam.forward(&mut g, &store, e, r, snap);
            ent_gru.forward(&mut g, &store, agg, e)
        });
        tr.span("nn.ram", req, |_| {
            let agg = ram.forward(&mut g, &store, r, hr, hyper);
            rel_gru.forward(&mut g, &store, agg, r)
        });
        tr.span("nn.tim", req, |_| {
            let pooled = mean_pool_segments(&mut g, e, &snap.rel_entities);
            let x = g.concat_cols(r, pooled);
            let c0 = g.constant(Tensor::zeros(m2, d));
            lstm.forward(&mut g, &store, x, r, c0)
        });
        let (subjects, rels, _) = entity_queries(&ctx.snapshots[idx], ctx.num_relations);
        tr.span("nn.decode", req, |_| {
            let s = g.gather_rows(e, Rc::new(subjects));
            let q = g.gather_rows(r, Rc::new(rels));
            dec.forward(&mut g, &store, s, q, e)
        });
    }
}

/// `[Q, N]` of the loss softmax: both entity query directions of a target.
fn softmax_shape(ctx: &TkgContext, targets: &[usize]) -> (usize, usize) {
    let q =
        targets.iter().map(|&i| 2 * ctx.snapshots[i].facts.len()).sum::<usize>() / targets.len();
    (q, ctx.num_entities)
}

/// Bytes EAM message passing moves per call: the gathered source rows and
/// the scattered messages, read and written once each.
fn gather_scatter_bytes(cfg: &retia::RetiaConfig, ctx: &TkgContext, targets: &[usize]) -> f64 {
    let edges: usize =
        targets.iter().map(|&i| ctx.snapshots[i - 1].src.len()).sum::<usize>() / targets.len();
    (2 * edges * cfg.dim * 4 * 2) as f64
}

/// The `[Q, N]` softmax and EAM gather/scatter kernels at this workload's
/// shapes.
fn kernels(cfg: &retia::RetiaConfig, ctx: &TkgContext, targets: &[usize], tr: &mut Tracer) {
    let (q, n) = softmax_shape(ctx, targets);
    let logits = Tensor::from_fn(q, n, |i, j| ((i * 31 + j * 17) % 97) as f32 / 97.0);
    let emb = Tensor::from_fn(n, cfg.dim, |i, j| ((i + 3 * j) % 13) as f32 / 13.0);
    for (i, &idx) in targets.iter().enumerate() {
        let req = i as u64;
        tr.span("tensor.softmax_rows", req, |_| std::hint::black_box(logits.softmax_rows()));
        let snap = &ctx.snapshots[idx - 1];
        tr.span("tensor.gather_scatter", req, |_| {
            let msgs = emb.gather_rows(&snap.src);
            std::hint::black_box(msgs.scatter_add_rows(&snap.dst, n))
        });
    }
}
