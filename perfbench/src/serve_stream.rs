//! The `serve_stream` scenario: a store-backed server takes the rest of the
//! stream as ingests, one whole timestamp per request on a fixed schedule,
//! while a second connection sends Poisson single-query requests.

use std::path::Path;
use std::time::{Duration, Instant};

use retia::{FrozenModel, Retia, TkgContext};
use retia_bench::{retia_config_for, Settings};
use retia_graph::{HyperSnapshot, Quad, Snapshot};
use retia_json::Value;
use retia_serve::{
    ingest_response_json, parse_ingest_request, IngestResponse, ServeConfig, Server,
};
use retia_store::{Appender, Store};

use crate::http;
use crate::load::{self, Outcome, Planned};
use crate::plan::{Workload, STREAM};
use crate::result::{Check, Metric, ScenarioResult};
use crate::schedule::{fixed_arrivals, poisson_arrivals, Rng};
use crate::serve::{
    lag_warning, phase_report, probe_check, reference_answers, run_plans, tail_warning,
    CounterDelta, Forecast, ServerCounters, Timings,
};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::{layer_metric, Args};

/// Probes checked against the store-rebuilt window after the stream.
const PROBES: usize = 12;

/// Creates a store holding `head` under the dataset's synthetic names, as
/// `retia ingest` would.
fn build_store(dir: &Path, ds: &retia_data::TkgDataset, head: &[Quad]) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut store = Store::create(dir, &ds.name, ds.granularity).map_err(|e| e.to_string())?;
    let ents: Vec<String> = (0..ds.num_entities).map(|i| format!("e{i}")).collect();
    let rels: Vec<String> = (0..ds.num_relations).map(|i| format!("r{i}")).collect();
    store.ensure_names(&ents, &rels).map_err(|e| e.to_string())?;
    store.append_quads(head).map_err(|e| e.to_string())?;
    Ok(())
}

fn ingest_body(facts: &[Quad]) -> Value {
    let facts = facts
        .iter()
        .map(|q| {
            let mut f = Value::object();
            f.insert("subject", Value::from(q.s));
            f.insert("relation", Value::from(q.r));
            f.insert("object", Value::from(q.o));
            f.insert("timestamp", Value::from(q.t));
            f
        })
        .collect();
    let mut body = Value::object();
    body.insert("facts", Value::Array(facts));
    body
}

/// Runs the scenario.
pub fn run(args: &Args, w: &Workload, process_start: Instant) -> Result<ScenarioResult, String> {
    let mut out = ScenarioResult { scenario: "serve_stream".to_string(), ..Default::default() };
    let ds = w.dataset(args.seed).generate();
    let stream: Vec<(u32, Vec<Quad>)> = {
        let all: Vec<Quad> = ds.all_quads().copied().collect();
        retia_graph::group_by_timestamp(&all)
    };
    let head_len = STREAM.head_timestamps;
    let head: Vec<Quad> = stream[..head_len].iter().flat_map(|(_, f)| f.iter().copied()).collect();
    let tail = &stream[head_len..];
    let dir = args.out_dir.join("serve_stream-store");
    build_store(&dir, &ds, &head)?;

    // Boot as `retia serve --store DIR` does.
    let store = Store::open(&dir).map_err(|e| e.to_string())?;
    let boot = store.dataset();
    drop(store);
    let ctx = TkgContext::new(&boot);
    let cfg = retia_config_for(w.profile, &Settings::default());
    let k = cfg.k;
    let serve_cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server =
        Server::start(FrozenModel::new(Retia::new(&cfg, &boot)), ctx.snapshots.clone(), &serve_cfg)
            .map_err(|e| format!("serve boot: {e}"))?;
    let addr = server.addr();
    let m = boot.num_relations as u32;
    let mut rng = Rng::new(args.seed, 200);
    let first = Forecast::draw(&mut rng, &tail[0].1, m).body().to_string_compact();
    let (status, _) = load::request(addr, &http::post_json("/v1/query", &first))?;
    out.setup_s = process_start.elapsed().as_secs_f64();
    if status != 200 {
        return Err(format!("first query answered {status}"));
    }
    if args.setup_only {
        server.shutdown();
        return Ok(out);
    }

    // Connection A: the stream, one timestamp per ingest. Connection B:
    // queries drawn from the timestamp after the window end the schedule
    // has reached at their due time.
    let interval = Duration::from_secs_f64(STREAM.ingest_interval_ms / 1e3);
    let ingest_plan: Vec<Planned> = fixed_arrivals(tail.len(), interval)
        .into_iter()
        .zip(tail)
        .map(|(due, (_, facts))| Planned::post(due, "/v1/ingest", &ingest_body(facts)))
        .collect();
    let span = interval * (tail.len() as u32 + 1);
    let mut qrng = Rng::new(args.seed, 300);
    let query_plan: Vec<Planned> = poisson_arrivals(&mut qrng, STREAM.query_rps, span)
        .into_iter()
        .map(|due| {
            let reached =
                ((due.as_secs_f64() / interval.as_secs_f64()) as usize).min(tail.len() - 1);
            let body = Forecast::draw(&mut qrng, &tail[reached].1, m).body();
            Planned::post(due, "/v1/query", &body)
        })
        .collect();
    let before = ServerCounters::scrape(addr)?;
    let mut results = run_plans(addr, &[ingest_plan, query_plan]);
    let after = ServerCounters::scrape(addr)?;
    let delta = CounterDelta::between(&before, &after);
    let queries = results.pop().expect("query outcomes");
    let ingests = results.pop().expect("ingest outcomes");

    // Every ingest reply must show the window sliding by one timestamp.
    let mut slid = 0;
    for (j, o) in ingests.iter().enumerate() {
        let window = o.json().and_then(|v| v.get("window").cloned());
        let field = |k: &str| window.as_ref().and_then(|w| w.get(k)).and_then(Value::as_u64);
        let all: Vec<u32> = stream[..head_len + j + 1].iter().map(|(t, _)| *t).collect();
        let expect_start = all[all.len().saturating_sub(k)];
        if o.status == 200
            && field("end") == Some(u64::from(tail[j].0))
            && field("length") == Some(k.min(all.len()) as u64)
            && field("start") == Some(u64::from(expect_start))
        {
            slid += 1;
        }
    }
    out.checks.push(Check::new(
        "every ingest slides the window one timestamp",
        slid == ingests.len(),
        format!("{slid} of {} ingest replies show the expected window", ingests.len()),
    ));

    // After the stream: answers over the window rebuilt from the store.
    let mut rng = Rng::new(args.seed, 400);
    let last_facts = &tail[tail.len() - 1].1;
    let probes: Vec<Forecast> =
        (0..PROBES).map(|_| Forecast::draw(&mut rng, last_facts, m)).collect();
    let (check, _) =
        probe_check("post-stream probes equal the store-window reference", addr, &probes, || {
            let store = Store::open(&dir).expect("store reopens after the stream");
            let window = store.window(k);
            let hypers: Vec<HyperSnapshot> =
                window.iter().map(HyperSnapshot::from_snapshot).collect();
            let model = Retia::new(&cfg, &boot);
            reference_answers(&model, &window, &hypers, &probes)
        })?;
    out.checks.push(check);
    server.shutdown();

    let ing: Vec<&Outcome> = ingests.iter().collect();
    let qry: Vec<&Outcome> = queries.iter().collect();
    let (ti, tq) = (Timings::of(&ing), Timings::of(&qry));
    for phase in [
        phase_report("ingest", 1.0 / interval.as_secs_f64(), &ing),
        phase_report("query", STREAM.query_rps, &qry),
    ] {
        out.attempted += phase.sent;
        out.failed += phase.sent - phase.succeeded;
        out.warnings.extend(lag_warning(&phase));
        out.phases.push(phase);
    }
    out.warnings.extend(tail_warning("query", 99.0, tq.latency.len()));
    out.warnings.extend(tail_warning("ingest", 90.0, ti.latency.len()));
    if tq.latency.is_empty() || ti.latency.is_empty() {
        return Err("the stream phase had no successful query or ingest".to_string());
    }
    out.metrics.push(Metric::new("query_p50_ms", "ms", median(&tq.latency), tq.latency.len()));
    out.metrics.push(Metric::new(
        "query_p99_ms",
        "ms",
        percentile(&tq.latency, 99.0),
        tq.latency.len(),
    ));
    out.metrics.push(Metric::new("ingest_p50_ms", "ms", median(&ti.latency), ti.latency.len()));
    out.metrics.push(Metric::new(
        "ingest_p90_ms",
        "ms",
        percentile(&ti.latency, 90.0),
        ti.latency.len(),
    ));
    out.counts.insert("store.appends".into(), delta.store_appends);
    out.counts.insert("serve.ingest_facts".into(), delta.ingest_facts);
    out.counts.insert("serve.cache_hits".into(), delta.cache_hits);
    out.counts.insert("serve.cache_misses".into(), delta.cache_misses);
    out.counts.insert("serve.decode_batches".into(), delta.decode_batches);

    if args.trace {
        trace(args, w, &ds, &boot, &stream, head_len, (&ti, &tq), &ingests, delta, &mut out)?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn trace(
    args: &Args,
    w: &Workload,
    ds: &retia_data::TkgDataset,
    boot: &retia_data::TkgDataset,
    stream: &[(u32, Vec<Quad>)],
    head_len: usize,
    (ti, tq): (&Timings, &Timings),
    ingests: &[Outcome],
    delta: CounterDelta,
    out: &mut ScenarioResult,
) -> Result<(), String> {
    let mut tr = Tracer::default();
    let cfg = retia_config_for(w.profile, &Settings::default());
    let (n, m) = (ds.num_entities, ds.num_relations);

    // Every stream window: the graphs the engine rebuilds, then the evolve.
    let frozen = FrozenModel::new(Retia::new(&cfg, boot));
    for j in head_len..stream.len() {
        let req = j as u64;
        let window = &stream[(j + 1).saturating_sub(cfg.k)..=j];
        let snaps: Vec<Snapshot> = window
            .iter()
            .map(|(t, facts)| {
                tr.span("graph.snapshot", req, |_| {
                    let mut s = Snapshot::from_quads(facts, n, m);
                    s.t = *t;
                    s
                })
            })
            .collect();
        let hypers: Vec<HyperSnapshot> = snaps
            .iter()
            .map(|s| tr.span("graph.hyper", req, |_| HyperSnapshot::from_snapshot(s)))
            .collect();
        tr.span("core.evolve_window", req, |_| frozen.evolve_window(&snaps, &hypers));
    }

    // The durable append path on a scratch copy, then opening it.
    let dir = args.out_dir.join("serve_stream-scratch-store");
    let head: Vec<Quad> = stream[..head_len].iter().flat_map(|(_, f)| f.iter().copied()).collect();
    build_store(&dir, ds, &head)?;
    let mut appender = Appender::open(&dir).map_err(|e| e.to_string())?;
    for (j, (_, facts)) in stream[head_len..].iter().enumerate() {
        tr.span("store.append", j as u64, |_| appender.append_quads(facts))
            .map_err(|e| e.to_string())?;
    }
    drop(appender);
    for i in 0..5 {
        tr.span("store.open", i, |_| Store::open(&dir)).map_err(|e| e.to_string())?;
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The ingest bodies through the JSON layer and the API schema.
    for (j, (_, facts)) in stream[head_len..].iter().enumerate() {
        let text = ingest_body(facts).to_string_compact();
        let resp = IngestResponse {
            accepted: facts.len(),
            window_start: 0,
            window_end: facts[0].t,
            window_len: cfg.k,
            epoch: j as u64,
            queue_wait_ns: 0,
            service_ns: 0,
        };
        tr.span("json.ingest_codec", j as u64, |_| {
            let parsed = retia_json::parse(&text).expect("own body parses");
            std::hint::black_box(
                parse_ingest_request(&parsed).expect("own body is a valid ingest"),
            );
            std::hint::black_box(ingest_response_json(&resp).to_string_compact())
        });
    }
    for (j, o) in ingests.iter().enumerate() {
        if let Some(done) = o.done {
            tr.record(
                "serve.ingest",
                o.due.as_nanos() as u64,
                done.as_nanos() as u64,
                None,
                j as u64,
            );
        }
    }

    let times = tr.self_times_ms();
    for (name, unit, scale) in [
        ("graph.snapshot", "us", 1e3),
        ("graph.hyper", "us", 1e3),
        ("core.evolve_window", "ms", 1.0),
        ("store.append", "ms", 1.0),
        ("store.open", "ms", 1.0),
        ("json.ingest_codec", "us", 1e3),
    ] {
        out.layers.push(layer_metric(&times, name, unit, &format!("{name}.{unit}"), scale));
    }
    out.layers.push(Metric::new(
        "serve.ingest_service_ms.p50",
        "ms",
        median(&ti.service),
        ti.service.len(),
    ));
    out.layers.push(Metric::new("serve.http_ms.p50.stream", "ms", median(&tq.http), tq.http.len()));
    out.layers.push(Metric::new(
        "serve.queue_wait_ms.p99.stream",
        "ms",
        percentile(&tq.queue_wait, 99.0),
        tq.queue_wait.len(),
    ));
    out.layers.push(Metric::new(
        "serve.cache_hit_ratio.stream",
        "fraction",
        delta.hit_ratio(),
        (delta.cache_hits + delta.cache_misses) as usize,
    ));
    tr.write_jsonl(&args.out_dir.join("spans-serve_stream.jsonl"))
        .map_err(|e| format!("spans: {e}"))
}
