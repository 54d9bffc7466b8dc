//! What both serve scenarios share: request bodies, the probe check against
//! an in-process reference, load phases over two generator threads, and
//! their per-request accounting.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use retia::Retia;
use retia_graph::{HyperSnapshot, Quad, Snapshot};
use retia_json::Value;

use crate::http;
use crate::load::{self, Outcome, Planned};
use crate::plan::{LAG_BOUND_MS, QUERY_K};
use crate::result::{Check, Phase};
use crate::schedule::Rng;
use crate::stats::percentile;

/// One forecast query, as the benchmark sends it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Forecast {
    /// `(s, r, ?)`.
    Object { s: u32, r: u32 },
    /// `(o, r⁻¹, ?)`: the relation id is `r + M`.
    Subject { o: u32, r_inv: u32 },
    /// `(s, ?, o)`.
    Relation { s: u32, o: u32 },
}

impl Forecast {
    /// One of the three forecasts of `fact`, chosen by `rng`.
    pub fn draw(rng: &mut Rng, facts: &[Quad], num_relations: u32) -> Forecast {
        let q = facts[rng.below(facts.len())];
        match rng.below(3) {
            0 => Forecast::Object { s: q.s, r: q.r },
            1 => Forecast::Subject { o: q.o, r_inv: q.r + num_relations },
            _ => Forecast::Relation { s: q.s, o: q.o },
        }
    }

    /// The `POST /v1/query` body carrying this one query.
    pub fn body(self) -> Value {
        let mut query = Value::object();
        let kind = match self {
            Forecast::Object { s, r } => {
                query.insert("subject", Value::from(s));
                query.insert("relation", Value::from(r));
                "entity"
            }
            Forecast::Subject { o, r_inv } => {
                query.insert("subject", Value::from(o));
                query.insert("relation", Value::from(r_inv));
                "entity"
            }
            Forecast::Relation { s, o } => {
                query.insert("subject", Value::from(s));
                query.insert("object", Value::from(o));
                "relation"
            }
        };
        let mut body = Value::object();
        body.insert("kind", Value::from(kind));
        body.insert("k", Value::from(QUERY_K));
        body.insert("queries", Value::Array(vec![query]));
        body
    }
}

/// Candidates `(id, score)` of the first result of a query reply.
pub fn reply_candidates(reply: &Value) -> Option<Vec<(u32, f32)>> {
    let results = reply.get("results")?.as_array()?;
    results
        .first()?
        .get("candidates")?
        .as_array()?
        .iter()
        .map(|c| Some((u32::try_from(c.get("id")?.as_u64()?).ok()?, c.get("score")?.as_f32()?)))
        .collect()
}

/// `(queue_wait_ms, service_ms)` from a reply's `timing` block.
pub fn reply_timing(reply: &Value) -> Option<(f64, f64)> {
    let t = reply.get("timing")?;
    Some((t.get("queue_wait_ms")?.as_f64()?, t.get("service_ms")?.as_f64()?))
}

/// The in-process answer to `probes` over `window`: `predict_entity` or
/// `predict_relation` (one batched call per kind), then `top_k`.
pub fn reference_answers(
    model: &Retia,
    window: &[Snapshot],
    hypers: &[HyperSnapshot],
    probes: &[Forecast],
) -> Vec<Vec<(u32, f32)>> {
    let (mut es, mut er, mut rs, mut ro) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for p in probes {
        match *p {
            Forecast::Object { s, r } => {
                es.push(s);
                er.push(r);
            }
            Forecast::Subject { o, r_inv } => {
                es.push(o);
                er.push(r_inv);
            }
            Forecast::Relation { s, o } => {
                rs.push(s);
                ro.push(o);
            }
        }
    }
    let ent = (!es.is_empty()).then(|| model.predict_entity(window, hypers, es, er));
    let rel = (!rs.is_empty()).then(|| model.predict_relation(window, hypers, rs, ro));
    let (mut ei, mut ri) = (0, 0);
    probes
        .iter()
        .map(|p| {
            let row = match p {
                Forecast::Relation { .. } => {
                    ri += 1;
                    rel.as_ref().expect("relation probes scored").row(ri - 1)
                }
                _ => {
                    ei += 1;
                    ent.as_ref().expect("entity probes scored").row(ei - 1)
                }
            };
            retia_eval::top_k(row, QUERY_K)
        })
        .collect()
}

/// Sends each probe as its own request, in order, and compares every
/// answer bit for bit with `reference`. Returns the check and the time the
/// first reply arrived.
pub fn probe_check(
    name: &str,
    addr: SocketAddr,
    probes: &[Forecast],
    reference: impl FnOnce() -> Vec<Vec<(u32, f32)>>,
) -> Result<(Check, Instant), String> {
    let mut answers = Vec::with_capacity(probes.len());
    let mut first = None;
    for p in probes {
        let (status, body) =
            load::request(addr, &http::post_json("/v1/query", &p.body().to_string_compact()))?;
        first.get_or_insert_with(Instant::now);
        if status != 200 {
            return Err(format!("probe {p:?} answered {status}: {}", body.to_string_compact()));
        }
        answers.push(reply_candidates(&body).ok_or("probe reply without candidates")?);
    }
    let reference = reference();
    let equal = answers.iter().zip(&reference).filter(|(a, r)| a == r).count();
    let check = Check::new(
        name,
        equal == probes.len() && !probes.is_empty(),
        format!("{equal} of {} probe answers bit-identical to predict + top_k", probes.len()),
    );
    Ok((check, first.expect("at least one probe")))
}

/// Counters and histogram summaries from `GET /metrics`.
pub struct ServerCounters(Value);

impl ServerCounters {
    /// Scrapes `GET /metrics`.
    pub fn scrape(addr: SocketAddr) -> Result<ServerCounters, String> {
        match load::request(addr, &http::get("/metrics"))? {
            (200, body) => Ok(ServerCounters(body)),
            (status, _) => Err(format!("GET /metrics answered {status}")),
        }
    }

    /// A counter (0 when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.0.get("counters").and_then(|c| c.get(name)).and_then(Value::as_f64).unwrap_or(0.0)
    }

    /// `(count, sum)` of a histogram ((0, 0) when absent).
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        let h = self.0.get("histograms").and_then(|h| h.get(name));
        let field = |k| h.and_then(|h| h.get(k)).and_then(Value::as_f64).unwrap_or(0.0);
        (field("count"), field("sum"))
    }
}

/// Server-side counters over one phase: the difference of two scrapes.
#[derive(Clone, Copy, Debug, Default)]
pub struct CounterDelta {
    /// Embedding-cache hits.
    pub cache_hits: f64,
    /// Embedding-cache misses.
    pub cache_misses: f64,
    /// Decode batches.
    pub decode_batches: f64,
    /// Queries across those batches.
    pub batched_queries: f64,
    /// Store appends.
    pub store_appends: f64,
    /// Facts ingested.
    pub ingest_facts: f64,
}

impl CounterDelta {
    /// `after - before`.
    pub fn between(before: &ServerCounters, after: &ServerCounters) -> CounterDelta {
        let c = |n| after.counter(n) - before.counter(n);
        let (count_a, sum_a) = after.histogram("serve.batch_queries");
        let (count_b, sum_b) = before.histogram("serve.batch_queries");
        CounterDelta {
            cache_hits: c("serve.cache_hit"),
            cache_misses: c("serve.cache_miss"),
            decode_batches: count_a - count_b,
            batched_queries: sum_a - sum_b,
            store_appends: c("store.appends"),
            ingest_facts: c("serve.ingest_facts"),
        }
    }

    /// Hits over cache consultations (1 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0.0 {
            1.0
        } else {
            self.cache_hits / total
        }
    }

    /// Mean queries per decode batch.
    pub fn mean_batch(&self) -> f64 {
        if self.decode_batches == 0.0 {
            0.0
        } else {
            self.batched_queries / self.decode_batches
        }
    }
}

/// Per-request figures of one phase's successful replies, in ms.
#[derive(Clone, Debug, Default)]
pub struct Timings {
    /// Latency from the due time.
    pub latency: Vec<f64>,
    /// Engine queue wait from the reply's timing block.
    pub queue_wait: Vec<f64>,
    /// Engine service time from the reply's timing block.
    pub service: Vec<f64>,
    /// The rest: parsing, JSON, the write, loopback and pipeline waits.
    pub http: Vec<f64>,
}

impl Timings {
    /// Splits every 2xx outcome's latency into its parts.
    pub fn of(outcomes: &[&Outcome]) -> Timings {
        let mut t = Timings::default();
        for o in outcomes.iter().filter(|o| o.status == 200) {
            let (Some(lat), Some((qw, svc))) =
                (o.latency(), o.json().as_ref().and_then(reply_timing))
            else {
                continue;
            };
            let lat = lat.as_secs_f64() * 1e3;
            t.latency.push(lat);
            t.queue_wait.push(qw);
            t.service.push(svc);
            t.http.push(lat - qw - svc);
        }
        t
    }
}

/// A warning when `n` samples leave fewer than ten beyond percentile `p`.
pub fn tail_warning(what: &str, p: f64, n: usize) -> Option<String> {
    (!crate::stats::tail_supported(p, n))
        .then(|| format!("{what}: p{p} has fewer than ten of its {n} samples beyond it"))
}

/// A warning when the generator fell behind its schedule in `phase`.
pub fn lag_warning(phase: &Phase) -> Option<String> {
    (!phase.valid).then(|| {
        format!(
            "phase {} INVALID: generator send lag p90 {:.2} ms exceeds {LAG_BOUND_MS} ms",
            phase.name, phase.lag_p90_ms
        )
    })
}

/// Accounting for one phase's outcomes.
pub fn phase_report(name: &str, rate: f64, outcomes: &[&Outcome]) -> Phase {
    let lags: Vec<f64> = outcomes.iter().map(|o| o.lag().as_secs_f64() * 1e3).collect();
    let count = |f: &dyn Fn(&Outcome) -> bool| outcomes.iter().filter(|o| f(o)).count() as u64;
    let lag = |p| if lags.is_empty() { 0.0 } else { percentile(&lags, p) };
    let (lag_p90, lag_p99) = (lag(90.0), lag(99.0));
    Phase {
        name: name.to_string(),
        rate,
        sent: outcomes.len() as u64,
        succeeded: count(&|o| o.status == 200),
        failed: count(&|o| o.status != 200 && o.status != 429),
        shed: count(&|o| o.status == 429),
        lag_p90_ms: lag_p90,
        lag_p99_ms: lag_p99,
        lag_max_ms: lags.iter().copied().fold(0.0, f64::max),
        valid: lag_p90 <= LAG_BOUND_MS,
    }
}

/// Runs one plan per connection concurrently (one generator thread each)
/// from a shared start instant.
pub fn run_plans(addr: SocketAddr, plans: &[Vec<Planned>]) -> Vec<Vec<Outcome>> {
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                s.spawn(move || load::run_connection(addr, start, plan, Duration::from_secs(10)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    })
}
