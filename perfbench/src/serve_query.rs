//! The `serve_query` scenario: a read-only server at the paper's
//! hyperparameters, driven by Poisson single-query requests at a fixed
//! `low` rate, a fixed `high` rate, then a short ladder of rates.

use std::time::Instant;

use retia::{FrozenModel, Retia, RetiaConfig, TkgContext};
use retia_data::{load_dataset, save_dataset};
use retia_json::Value;
use retia_serve::{
    parse_query_request, query_response_json, QueryResponse, ServeConfig, Server, TopK,
};
use retia_tensor::{Graph, Tensor};

use crate::host;
use crate::http;
use crate::load::{self, Outcome, Planned};
use crate::plan::{Workload, QUERY};
use crate::result::{Check, Metric, ScenarioResult};
use crate::schedule::{poisson_arrivals, Rng};
use crate::serve::{
    lag_warning, phase_report, probe_check, reference_answers, reply_candidates, run_plans,
    tail_warning, CounterDelta, Forecast, ServerCounters, Timings,
};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::{layer_metric, Args};

/// Probes checked against the reference at boot.
const PROBES: usize = 12;

/// The reported tail. At the paper's dimensions one query costs ~20 ms of
/// engine time, so a phase of a few seconds holds a few hundred samples:
/// enough to keep ten beyond the 90th percentile, not beyond the 99th.
const TAIL_PCT: f64 = 90.0;

/// One point of the rate ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Rung {
    /// Offered rate, requests per second.
    rate: f64,
    /// The larger of its p90 latency and the median latency of its last
    /// quarter (which exceeds the p90 when the backlog grows), ms.
    latency_ms: f64,
    /// Every request answered.
    answered: bool,
}

impl Rung {
    /// The point one phase's outcomes make at `rate`.
    fn of(rate: f64, outcomes: &[&Outcome]) -> Rung {
        let latency = Timings::of(outcomes).latency;
        let tail = if latency.is_empty() { f64::INFINITY } else { percentile(&latency, TAIL_PCT) };
        Rung {
            rate,
            latency_ms: tail.max(end_p50_ms(outcomes)),
            answered: outcomes.iter().all(|o| o.status == 200),
        }
    }

    /// Every request answered within `limit_ms`, without a growing backlog.
    fn passes(&self, limit_ms: f64) -> bool {
        self.answered && self.latency_ms <= limit_ms
    }
}

/// The highest rate that meets `limit_ms` without a growing backlog. Below
/// the first failing rung the answer lies between it and the rung before,
/// read off the straight line between their latencies (a rung with
/// unanswered requests gives no line, so the lower rate stands). No passing
/// rung gives 0; no failing rung gives the top rate.
fn max_rate(ladder: &[Rung], limit_ms: f64) -> f64 {
    let Some(f) = ladder.iter().position(|r| !r.passes(limit_ms)) else {
        return ladder.last().map_or(0.0, |r| r.rate);
    };
    if f == 0 {
        return 0.0;
    }
    let (lo, hi) = (ladder[f - 1], ladder[f]);
    if !hi.answered {
        return lo.rate;
    }
    let frac = (limit_ms - lo.latency_ms) / (hi.latency_ms - lo.latency_ms);
    lo.rate + (hi.rate - lo.rate) * frac.clamp(0.0, 1.0)
}

/// Median latency (ms) of the last quarter of requests by due time: it
/// exceeds the limit when the backlog grows through the phase.
fn end_p50_ms(outcomes: &[&Outcome]) -> f64 {
    let mut late: Vec<&&Outcome> = outcomes.iter().collect();
    late.sort_by_key(|o| o.due);
    let tail = &late[late.len() * 3 / 4..];
    let ms: Vec<f64> =
        tail.iter().map(|o| o.latency().map_or(f64::INFINITY, |l| l.as_secs_f64() * 1e3)).collect();
    if ms.is_empty() {
        0.0
    } else {
        median(&ms)
    }
}

/// The paper's hyperparameters: d = 200, 50 kernels, the profile's k.
fn paper_config(w: &Workload) -> RetiaConfig {
    RetiaConfig { k: w.profile.paper_history_len(), ..RetiaConfig::paper_scale() }
}

struct PhaseRun {
    name: String,
    rate: f64,
    outcomes: Vec<Outcome>,
    bodies: Vec<Value>,
    delta: CounterDelta,
    /// Minor page faults the process took during the phase.
    faults: f64,
}

/// Runs the scenario.
pub fn run(args: &Args, w: &Workload, process_start: Instant) -> Result<ScenarioResult, String> {
    let mut out = ScenarioResult { scenario: "serve_query".to_string(), ..Default::default() };
    // Boot as `retia serve --data DIR` does: the dataset comes from disk.
    let data_dir = args.out_dir.join("serve_query-data");
    save_dataset(&data_dir, &w.dataset(args.seed).generate()).map_err(|e| e.to_string())?;
    let ds = load_dataset(&data_dir).map_err(|e| e.to_string())?;
    let ctx = TkgContext::new(&ds);
    let cfg = paper_config(w);
    // The window ends one timestamp before the data does; queries forecast
    // the final timestamp.
    let last = ctx.snapshots.len() - 1;
    let next_facts = &ctx.snapshots[last].facts;
    let m = ds.num_relations as u32;
    let serve_cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let server = Server::start(
        FrozenModel::new(Retia::new(&cfg, &ds)),
        ctx.snapshots[..last].to_vec(),
        &serve_cfg,
    )
    .map_err(|e| format!("serve boot: {e}"))?;
    let addr = server.addr();

    let mut rng = Rng::new(args.seed, 100);
    let probes: Vec<Forecast> =
        (0..PROBES).map(|_| Forecast::draw(&mut rng, next_facts, m)).collect();
    if args.setup_only {
        // Set-up ends at the first answered query; the process exit stops
        // the server's threads.
        let (status, _) = load::request(
            addr,
            &http::post_json("/v1/query", &probes[0].body().to_string_compact()),
        )?;
        out.setup_s = process_start.elapsed().as_secs_f64();
        return if status == 200 { Ok(out) } else { Err(format!("first query answered {status}")) };
    }
    let window = last - cfg.k..last;
    let (check, first_reply) =
        probe_check("boot probes equal the reference", addr, &probes, || {
            let model = Retia::new(&cfg, &ds);
            reference_answers(
                &model,
                &ctx.snapshots[window.clone()],
                &ctx.hypers[window.clone()],
                &probes,
            )
        })?;
    out.setup_s = first_reply.duration_since(process_start).as_secs_f64();
    out.checks.push(check);

    let q = &QUERY;
    // `--seconds` stretches or shrinks every phase; the rates stay fixed.
    let scale = args.seconds / crate::PLAN_SECONDS;
    let mut phases = vec![
        ("low".to_string(), q.low_rps, q.phase_s.0 * scale),
        ("high".to_string(), q.high_rps, q.phase_s.1 * scale),
    ];
    if !args.trace {
        for (i, &r) in q.ladder_rps.iter().enumerate() {
            phases.push((format!("ladder-{}", i + 1), r, q.rung_s * scale));
        }
    }
    let mut runs = Vec::new();
    for (pi, (name, rate, secs)) in phases.into_iter().enumerate() {
        let mut bodies = Vec::new();
        let plans: Vec<Vec<Planned>> = (0..2u64)
            .map(|c| {
                let mut rng = Rng::new(args.seed, 1000 + 2 * pi as u64 + c);
                poisson_arrivals(&mut rng, rate / 2.0, std::time::Duration::from_secs_f64(secs))
                    .into_iter()
                    .map(|due| {
                        let body = Forecast::draw(&mut rng, next_facts, m).body();
                        let p = Planned::post(due, "/v1/query", &body);
                        bodies.push(body);
                        p
                    })
                    .collect()
            })
            .collect();
        let before = ServerCounters::scrape(addr)?;
        let faults = host::minor_faults();
        let outcomes: Vec<Outcome> = run_plans(addr, &plans).into_iter().flatten().collect();
        let faults = host::minor_faults() - faults;
        let after = ServerCounters::scrape(addr)?;
        // From `high` on every phase is a ladder point; the climb stops at
        // the first that fails the limit.
        let refs: Vec<&Outcome> = outcomes.iter().collect();
        let over = pi > 0 && !Rung::of(rate, &refs).passes(q.p90_limit_ms);
        runs.push(PhaseRun {
            name,
            rate,
            outcomes,
            bodies,
            delta: CounterDelta::between(&before, &after),
            faults,
        });
        if over {
            break;
        }
    }
    server.shutdown();

    // The `high` phase is the ladder's base point; the rungs climb from it.
    let mut ladder: Vec<Rung> = Vec::new();
    for run in &runs {
        let refs: Vec<&Outcome> = run.outcomes.iter().collect();
        let phase = phase_report(&run.name, run.rate, &refs);
        let t = Timings::of(&refs);
        out.attempted += phase.sent;
        out.failed += phase.sent - phase.succeeded;
        let n = t.latency.len();
        if n == 0 {
            return Err(format!("phase {} had no successful request", run.name));
        }
        let tail = percentile(&t.latency, TAIL_PCT);
        out.warnings.extend(tail_warning(&run.name, TAIL_PCT, n));
        out.warnings.extend(lag_warning(&phase));
        if run.name == "low" || run.name == "high" {
            out.metrics.push(Metric::new(
                &format!("query_p50_ms.{}", run.name),
                "ms",
                median(&t.latency),
                n,
            ));
            out.metrics.push(Metric::new(&format!("query_p90_ms.{}", run.name), "ms", tail, n));
        }
        if run.name != "low" {
            ladder.push(Rung::of(run.rate, &refs));
            out.counts.insert(format!("{}.p90_ms", run.name), tail);
            out.counts.insert(format!("{}.end_p50_ms", run.name), end_p50_ms(&refs));
        }
        out.counts.insert(format!("{}.decode_batches", run.name), run.delta.decode_batches);
        out.counts.insert(format!("{}.batch_queries_mean", run.name), run.delta.mean_batch());
        out.counts.insert(format!("{}.cache_hits", run.name), run.delta.cache_hits);
        out.counts.insert(format!("{}.cache_misses", run.name), run.delta.cache_misses);
        out.counts.insert(format!("{}.minor_faults", run.name), run.faults);
        out.phases.push(phase);
    }
    if !args.trace {
        let max = max_rate(&ladder, q.p90_limit_ms);
        out.metrics.push(Metric::new("query_max_rps", "req/s", max, ladder.len()));
    }
    let hits: f64 = runs.iter().map(|r| r.delta.cache_hits).sum();
    let misses: f64 = runs.iter().map(|r| r.delta.cache_misses).sum();
    out.checks.push(Check::new(
        "read-only load never misses the embedding cache",
        misses == 0.0 && hits > 0.0,
        format!("{hits} hits, {misses} misses"),
    ));

    if args.trace {
        trace(args, w, &ds, &ctx, &runs, &mut out)?;
    }
    Ok(out)
}

/// Per-request splits from the timing blocks, then the engine's layers
/// replayed through their public calls on this phase's own window and
/// bodies.
fn trace(
    args: &Args,
    w: &Workload,
    ds: &retia_data::TkgDataset,
    ctx: &TkgContext,
    runs: &[PhaseRun],
    out: &mut ScenarioResult,
) -> Result<(), String> {
    let mut tr = Tracer::default();
    // Client-side request spans with the engine's split as children.
    for (pi, run) in runs.iter().enumerate() {
        for (i, o) in run.outcomes.iter().enumerate() {
            let Some(done) = o.done else { continue };
            let req = (pi as u64) << 32 | i as u64;
            let (start, end) = (o.due.as_nanos() as u64, done.as_nanos() as u64);
            let root = tr.record(&format!("serve.request.{}", run.name), start, end, None, req);
            if let Some((qw, svc)) = o.json().as_ref().and_then(crate::serve::reply_timing) {
                let svc_ns = (svc * 1e6) as u64;
                let qw_ns = (qw * 1e6) as u64;
                let svc_start = end.saturating_sub(svc_ns);
                tr.record("serve.service", svc_start, end, Some(root), req);
                tr.record(
                    "serve.queue_wait",
                    svc_start.saturating_sub(qw_ns),
                    svc_start,
                    Some(root),
                    req,
                );
            }
        }
    }
    let phase = |name: &str| runs.iter().find(|r| r.name == name).expect("phase ran");
    let (low, high) = (phase("low"), phase("high"));
    let low_t = Timings::of(&low.outcomes.iter().collect::<Vec<_>>());
    let high_t = Timings::of(&high.outcomes.iter().collect::<Vec<_>>());
    let n_low = low_t.latency.len();
    out.layers.push(Metric::new("serve.http_ms.p50", "ms", median(&low_t.http), n_low));
    out.layers.push(Metric::new("serve.service_ms.p50", "ms", median(&low_t.service), n_low));
    out.layers.push(Metric::new(
        "serve.queue_wait_ms.p50",
        "ms",
        median(&high_t.queue_wait),
        high_t.latency.len(),
    ));
    out.layers.push(Metric::new(
        "serve.queue_wait_ms.p90",
        "ms",
        percentile(&high_t.queue_wait, TAIL_PCT),
        high_t.latency.len(),
    ));
    let gap = median(&low_t.latency)
        - median(&low_t.http)
        - median(&low_t.service)
        - median(&low_t.queue_wait);
    out.layers.push(Metric::new("serve_request.unaccounted_ms", "ms", gap, n_low));
    out.layers.push(Metric::new(
        "serve.batch_queries.mean",
        "queries",
        high.delta.mean_batch(),
        high.delta.decode_batches as usize,
    ));
    let sent: usize = runs.iter().map(|r| r.outcomes.len()).sum();
    out.layers.push(Metric::new(
        "serve.minor_faults_per_query",
        "count",
        runs.iter().map(|r| r.faults).sum::<f64>() / sent as f64,
        sent,
    ));
    let (hits, misses) = runs
        .iter()
        .fold((0.0, 0.0), |(h, m), r| (h + r.delta.cache_hits, m + r.delta.cache_misses));
    out.layers.push(Metric::new(
        "serve.cache_hit_ratio",
        "fraction",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 1.0 },
        (hits + misses) as usize,
    ));
    let shed: u64 = out.phases.iter().map(|p| p.shed).sum();
    out.layers.push(Metric::new(
        "serve.shed",
        "count",
        shed as f64,
        out.phases.iter().map(|p| p.sent as usize).sum(),
    ));

    // The engine's decode, replayed on the served window.
    let cfg = paper_config(w);
    let frozen = FrozenModel::new(Retia::new(&cfg, ds));
    let last = ctx.snapshots.len() - 1;
    let window = last - cfg.k..last;
    let states = tr.span("core.evolve_window.boot", 0, |_| {
        frozen.evolve_window(&ctx.snapshots[window.clone()], &ctx.hypers[window])
    });
    let queries: Vec<Forecast> = low.bodies.iter().filter_map(body_forecast).collect();
    let entity: Vec<(u32, u32)> = queries
        .iter()
        .filter_map(|q| match *q {
            Forecast::Object { s, r } => Some((s, r)),
            Forecast::Subject { o, r_inv } => Some((o, r_inv)),
            Forecast::Relation { .. } => None,
        })
        .collect();
    let relation: Vec<(u32, u32)> = queries
        .iter()
        .filter_map(|q| match *q {
            Forecast::Relation { s, o } => Some((s, o)),
            _ => None,
        })
        .collect();
    let reps = 100.min(entity.len()).min(relation.len());
    for i in 0..reps {
        let (s, r) = entity[i];
        let probs = tr.span("core.decode_entity.b1", i as u64, |_| {
            frozen.decode_entity_sharded(&states, vec![s], vec![r], 1)
        });
        tr.span("eval.top_k", i as u64, |_| retia_eval::top_k(probs.row(0), crate::plan::QUERY_K));
        let (s, o) = relation[i];
        tr.span("core.decode_relation", i as u64, |_| {
            frozen.decode_relation(&states, vec![s], vec![o])
        });
    }
    let bmean = high.delta.mean_batch().round().max(1.0) as usize;
    for (i, chunk) in entity.chunks(bmean).filter(|c| c.len() == bmean).take(50).enumerate() {
        let (s, r): (Vec<u32>, Vec<u32>) = chunk.iter().copied().unzip();
        tr.span("core.decode_entity.bmean", i as u64, |_| {
            frozen.decode_entity_sharded(&states, s, r, 1)
        });
    }
    for i in 0..3 {
        tr.span("analyze.frozen_audit", i, |_| frozen.audit());
    }
    kernels(&frozen, ctx.num_entities, &mut tr);
    json_codec(low, &mut tr);

    let times = tr.self_times_ms();
    out.layers.push(layer_metric(
        &times,
        "core.decode_entity.b1",
        "ms",
        "core.decode_entity.ms.b1",
        1.0,
    ));
    out.layers.push(layer_metric(
        &times,
        "core.decode_entity.bmean",
        "ms",
        "core.decode_entity.ms.bmean",
        1.0,
    ));
    out.layers.push(layer_metric(
        &times,
        "core.decode_relation",
        "ms",
        "core.decode_relation.ms",
        1.0,
    ));
    out.layers.push(layer_metric(&times, "eval.top_k", "us", "eval.top_k.us", 1e3));
    out.layers.push(layer_metric(
        &times,
        "analyze.frozen_audit",
        "ms",
        "analyze.frozen_audit.ms",
        1.0,
    ));
    out.layers.push(layer_metric(&times, "json.query_codec", "us", "json.query_codec.us", 1e3));
    out.layers.push(layer_metric(&times, "tensor.conv1d", "ms", "tensor.conv1d.ms", 1.0));
    let d = cfg.dim;
    let fc = (cfg.channels * d) as f64;
    let n = ctx.num_entities as f64;
    let mm_flops = 2.0 * fc * d as f64;
    let mm_bytes = 4.0 * (fc + fc * d as f64 + d as f64);
    let mm = median(&times["tensor.matmul"]);
    out.layers.push(Metric::new(
        "tensor.matmul.gflops",
        "GFLOP/s",
        mm_flops / (mm * 1e-3) / 1e9,
        times["tensor.matmul"].len(),
    ));
    out.layers.push(Metric::new("tensor.matmul.flops", "count", mm_flops, 1));
    out.layers.push(Metric::new("tensor.matmul.bytes", "B", mm_bytes, 1));
    let nt_flops = 2.0 * n * d as f64;
    let nt = median(&times["tensor.matmul_nt"]);
    out.layers.push(Metric::new(
        "tensor.matmul_nt.gflops",
        "GFLOP/s",
        nt_flops / (nt * 1e-3) / 1e9,
        times["tensor.matmul_nt"].len(),
    ));
    out.layers.push(Metric::new("tensor.matmul_nt.flops", "count", nt_flops, 1));
    out.layers.push(Metric::new(
        "tensor.matmul_nt.bytes",
        "B",
        4.0 * (d as f64 + n * d as f64 + n),
        1,
    ));
    let conv_flops = 2.0 * (cfg.channels * d * 2 * cfg.ksize) as f64;
    out.layers.push(Metric::new("tensor.conv1d.flops", "count", conv_flops, 1));
    out.layers.push(Metric::new(
        "tensor.conv1d.bytes",
        "B",
        4.0 * (2 * d + cfg.channels * 2 * cfg.ksize + cfg.channels + cfg.channels * d) as f64,
        1,
    ));
    out.counts.insert("serve.decode_batch_mean".into(), bmean as f64);
    tr.write_jsonl(&args.out_dir.join("spans-serve_query.jsonl")).map_err(|e| format!("spans: {e}"))
}

/// The forecast a query body carries.
fn body_forecast(body: &Value) -> Option<Forecast> {
    let q = parse_query_request(body).ok()?.into_iter().next()?;
    Some(match q.kind {
        retia_serve::QueryKind::Entity => Forecast::Object { s: q.subject, r: q.b },
        retia_serve::QueryKind::Relation => Forecast::Relation { s: q.subject, o: q.b },
    })
}

/// The decode kernels at batch 1 and the paper's shapes: the Conv-TransE
/// FC projection, candidate scoring against every entity, and the conv.
fn kernels(frozen: &FrozenModel, n: usize, tr: &mut Tracer) {
    let model = frozen.clone_model();
    let fc = model.store().value("dec_e.fc.w").clone();
    let (width, d) = fc.shape();
    let act = Tensor::from_fn(1, width, |_, j| (j % 7) as f32 / 7.0);
    let cand = Tensor::from_fn(n, d, |i, j| ((i + j) % 11) as f32 / 11.0);
    let q = Tensor::from_fn(1, d, |_, j| (j % 5) as f32 / 5.0);
    let conv_w = model.store().value("dec_e.conv.w").clone();
    let conv_b = model.store().value("dec_e.conv.b").clone();
    let x = Tensor::from_fn(1, 2 * d, |_, j| (j % 3) as f32 / 3.0);
    let channels = conv_w.rows();
    let ksize = conv_w.cols() / 2;
    for i in 0..200u64 {
        tr.span("tensor.matmul", i, |_| std::hint::black_box(act.matmul(&fc)));
        tr.span("tensor.matmul_nt", i, |_| std::hint::black_box(q.matmul_nt(&cand)));
        let mut g = Graph::inference();
        let (xi, wi, bi) =
            (g.constant(x.clone()), g.constant(conv_w.clone()), g.constant(conv_b.clone()));
        tr.span("tensor.conv1d", i, |_| {
            std::hint::black_box(g.conv1d(xi, wi, bi, 2, channels, ksize))
        });
    }
}

/// `retia_json::parse` plus the `retia_serve::api` parse and encode, on the
/// phase's own request bodies and replies.
fn json_codec(run: &PhaseRun, tr: &mut Tracer) {
    for (i, (body, o)) in run.bodies.iter().zip(&run.outcomes).enumerate().take(500) {
        let Some(reply) = o.json() else { continue };
        let Some(candidates) = reply_candidates(&reply) else { continue };
        let text = body.to_string_compact();
        let resp = QueryResponse {
            window_end: reply.get("window_end").and_then(Value::as_u64).unwrap_or(0) as u32,
            epoch: reply.get("epoch").and_then(Value::as_u64).unwrap_or(0),
            results: vec![TopK { candidates }],
            queue_wait_ns: 0,
            service_ns: 0,
        };
        tr.span("json.query_codec", i as u64, |_| {
            let parsed = retia_json::parse(&text).expect("own body parses");
            let queries = parse_query_request(&parsed).expect("own body is a valid query");
            std::hint::black_box(queries);
            std::hint::black_box(query_response_json(&resp).to_string_compact())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, latency_ms: f64) -> Rung {
        Rung { rate, latency_ms, answered: true }
    }

    #[test]
    fn max_rate_interpolates_to_the_limit() {
        let ladder = [rung(25.0, 50.0), rung(32.0, 100.0), rung(38.0, 200.0)];
        assert_eq!(max_rate(&ladder, 150.0), 35.0);
        // Every rung passes: the top rate.
        assert_eq!(max_rate(&ladder, 250.0), 38.0);
        // The base fails: nothing is sustainable.
        assert_eq!(max_rate(&ladder, 40.0), 0.0);
    }

    #[test]
    fn unanswered_requests_stop_at_the_rung_below() {
        let ladder = [rung(25.0, 50.0), Rung { rate: 32.0, latency_ms: 90.0, answered: false }];
        assert_eq!(max_rate(&ladder, 150.0), 25.0);
    }
}
