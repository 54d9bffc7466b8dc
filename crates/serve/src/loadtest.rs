//! Load generator for a running retia-serve instance.
//!
//! Replays a synthetic query/ingest mix over **keep-alive** connections at a
//! ladder of concurrency levels and reports p50/p99 latency and QPS per
//! level, written as `BENCH_serve.json` by `retia loadtest`. Lives in the
//! library so the CLI and the tests share one client and one report shape.
//!
//! The generator is deterministic: query ids derive from a SplitMix64 hash
//! of `(level, connection, request)`, and every ingest reuses the fixed
//! timestamp `window_end + 1` probed at startup — always valid under the
//! engine's forward-only rule no matter how concurrent ingests interleave
//! (the first one advances the window end to it; later ones append facts at
//! the same timestamp).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use retia_json::Value;
use retia_obs::slo::{self, SloSpec};

/// What to replay and against whom.
#[derive(Clone, Debug)]
pub struct LoadtestConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrency ladder: one measurement per connection count.
    pub levels: Vec<usize>,
    /// Requests sent per connection at every level.
    pub requests_per_conn: usize,
    /// Every `ingest_every`-th request is an ingest (`0` = queries only).
    pub ingest_every: usize,
    /// Candidates requested per query.
    pub k: usize,
    /// Entity-id space to draw subjects/objects from (must not exceed the
    /// server's entity count, or queries bounce with 422).
    pub entities: u32,
    /// Relation-id space (non-inverse ids only, for the same reason).
    pub relations: u32,
    /// Per-request socket timeout.
    pub timeout: Duration,
    /// Latency SLOs evaluated **client-side** against each level's measured
    /// latencies (the spec's `metric` is ignored here — the samples are the
    /// loadtest's own stopwatch, not a server histogram). Any burning
    /// objective marks the run as failed.
    pub slos: Vec<SloSpec>,
}

impl Default for LoadtestConfig {
    fn default() -> LoadtestConfig {
        LoadtestConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            levels: vec![1, 2, 4, 8, 16, 32, 64],
            requests_per_conn: 50,
            ingest_every: 25,
            k: 5,
            entities: 1,
            relations: 1,
            timeout: Duration::from_secs(30),
            slos: Vec::new(),
        }
    }
}

/// One SLO evaluated against a level's client-measured latencies.
#[derive(Clone, Debug)]
pub struct SloOutcome {
    /// The spec's name.
    pub name: String,
    /// Required fraction of requests at or below the threshold.
    pub objective: f64,
    /// Latency threshold in milliseconds.
    pub threshold_ms: f64,
    /// Observed fraction at or below the threshold (1.0 when no samples).
    pub compliance: f64,
    /// Error-budget burn rate: miss fraction over allowed miss fraction.
    pub burn: f64,
    /// Whether the budget burns faster than it accrues (`burn > 1.0`).
    pub burning: bool,
}

/// One concurrency level's aggregate results. `slos` holds the client-side
/// verdict for every configured objective.
#[derive(Clone, Debug)]
pub struct LevelStats {
    /// Connections (client threads) at this level.
    pub connections: usize,
    /// Successful (2xx) requests.
    pub completed: usize,
    /// Requests shed with 429.
    pub shed_429: usize,
    /// Other 4xx responses.
    pub other_4xx: usize,
    /// 5xx responses — the loadtest treats any as failure.
    pub status_5xx: usize,
    /// Socket-level failures (reconnects count here).
    pub io_errors: usize,
    /// Wall-clock for the whole level, seconds.
    pub wall_s: f64,
    /// Successful requests per second of wall clock.
    pub qps: f64,
    /// Median per-request latency (ms) over successful requests.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency (ms).
    pub p99_ms: f64,
    /// Each configured SLO evaluated against this level's latencies.
    pub slos: Vec<SloOutcome>,
}

/// The full ladder, ready to serialize as `BENCH_serve.json`.
#[derive(Clone, Debug)]
pub struct LoadtestReport {
    /// One entry per requested concurrency level, in order.
    pub levels: Vec<LevelStats>,
}

impl LoadtestReport {
    /// Total 5xx responses across all levels.
    pub fn total_5xx(&self) -> usize {
        self.levels.iter().map(|l| l.status_5xx).sum()
    }

    /// Total successful requests across all levels.
    pub fn total_completed(&self) -> usize {
        self.levels.iter().map(|l| l.completed).sum()
    }

    /// Human-readable description of every burning SLO across the ladder —
    /// empty means all objectives held. The CLI turns a non-empty list into
    /// a nonzero exit.
    pub fn burning_slos(&self) -> Vec<String> {
        let mut out = Vec::new();
        for l in &self.levels {
            for s in l.slos.iter().filter(|s| s.burning) {
                out.push(format!(
                    "{} conns: `{}` burning — {:.2}% of requests <= {}ms (objective {:.2}%, \
                     burn {:.1}x)",
                    l.connections,
                    s.name,
                    s.compliance * 100.0,
                    s.threshold_ms,
                    s.objective * 100.0,
                    s.burn
                ));
            }
        }
        out
    }

    /// The `BENCH_serve.json` document.
    pub fn to_json(&self, cfg: &LoadtestConfig) -> Value {
        let mut doc = Value::object();
        doc.insert("bench", Value::from("serve_loadtest"));
        let mut c = Value::object();
        c.insert("requests_per_conn", Value::from(cfg.requests_per_conn));
        c.insert("ingest_every", Value::from(cfg.ingest_every));
        c.insert("k", Value::from(cfg.k));
        doc.insert("config", c);
        doc.insert("levels", self.levels_json());
        doc
    }

    /// Just the per-level stats array — what `to_json` embeds as `levels`
    /// and what the CLI's `--online` pass embeds under `train_active`.
    pub fn levels_json(&self) -> Value {
        let levels: Vec<Value> = self
            .levels
            .iter()
            .map(|l| {
                let mut v = Value::object();
                v.insert("connections", Value::from(l.connections));
                v.insert("completed", Value::from(l.completed));
                v.insert("shed_429", Value::from(l.shed_429));
                v.insert("other_4xx", Value::from(l.other_4xx));
                v.insert("status_5xx", Value::from(l.status_5xx));
                v.insert("io_errors", Value::from(l.io_errors));
                v.insert("wall_s", Value::from(l.wall_s));
                v.insert("qps", Value::from(l.qps));
                v.insert("p50_ms", Value::from(l.p50_ms));
                v.insert("p99_ms", Value::from(l.p99_ms));
                if !l.slos.is_empty() {
                    let slos: Vec<Value> = l
                        .slos
                        .iter()
                        .map(|s| {
                            let mut o = Value::object();
                            o.insert("name", Value::from(s.name.as_str()));
                            o.insert("objective", Value::from(s.objective));
                            o.insert("threshold_ms", Value::from(s.threshold_ms));
                            o.insert("compliance", Value::from(s.compliance));
                            o.insert("burn", Value::from(s.burn));
                            o.insert("burning", Value::from(s.burning));
                            o
                        })
                        .collect();
                    v.insert("slos", Value::from(slos));
                }
                v
            })
            .collect();
        Value::from(levels)
    }
}

/// A keep-alive HTTP/1.1 client: one connection, many requests, leftover
/// bytes carried between responses.
struct Client {
    stream: TcpStream,
    leftover: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, leftover: Vec::new() })
    }

    /// Sends one JSON POST and reads one response; the connection stays
    /// usable for the next call.
    fn call(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: loadtest\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let mut buf = std::mem::take(&mut self.leftover);
        let mut chunk = [0u8; 4096];
        // Head first.
        let head_end = loop {
            if let Some(pos) = find_head_end(&buf) {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
        let status: u16 = head.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())
                    .flatten()
            })
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "response without a length")
            })?;
        while buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&buf[head_end..head_end + length]).to_string();
        // Bytes past this response (a pipelined follow-up's head) carry over.
        self.leftover = buf.split_off(head_end + length);
        Ok((status, body))
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Evaluates each SLO spec against one level's merged latency samples using
/// the same budget arithmetic the server-side engine applies to its
/// histograms ([`slo::burn_of_samples`]).
fn evaluate_slos(specs: &[SloSpec], latencies_ms: &[f64]) -> Vec<SloOutcome> {
    specs
        .iter()
        .map(|s| {
            let (compliance, burn) =
                slo::burn_of_samples(latencies_ms, s.objective, s.threshold_ms);
            SloOutcome {
                name: s.name.clone(),
                objective: s.objective,
                threshold_ms: s.threshold_ms,
                compliance,
                burn,
                burning: burn > 1.0,
            }
        })
        .collect()
}

/// SplitMix64 — deterministic id mixing without a RNG dependency.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-thread tally, merged after the level joins.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    completed: usize,
    shed_429: usize,
    other_4xx: usize,
    status_5xx: usize,
    io_errors: usize,
}

/// Runs the full ladder. Fails fast if the server cannot be probed at all;
/// per-request failures are tallied, not fatal.
pub fn run(cfg: &LoadtestConfig) -> Result<LoadtestReport, String> {
    // Probe: one query both sanity-checks the server and yields the window
    // end every ingest timestamp derives from.
    let mut probe = Client::connect(cfg.addr, cfg.timeout)
        .map_err(|e| format!("cannot connect to {}: {e}", cfg.addr))?;
    let (status, body) = probe
        .call("/v1/query", &query_body(cfg, 0))
        .map_err(|e| format!("probe query failed: {e}"))?;
    if status != 200 {
        return Err(format!("probe query got status {status}: {body}"));
    }
    let window_end = retia_json::parse(&body)
        .ok()
        .and_then(|v| v.get("window_end").and_then(Value::as_u64))
        .ok_or_else(|| format!("probe response lacks window_end: {body}"))?;
    let ingest_ts = (window_end as u32).saturating_add(1);
    drop(probe);

    let mut levels = Vec::with_capacity(cfg.levels.len());
    for (level_idx, &conns) in cfg.levels.iter().enumerate() {
        let conns = conns.max(1);
        let started = Instant::now();
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|conn_idx| {
                    scope.spawn(move || client_thread(cfg, level_idx, conn_idx, ingest_ts))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("loadtest client thread panicked"))
                .collect()
        });
        let wall_s = started.elapsed().as_secs_f64().max(1e-9);

        let mut merged = Tally::default();
        for t in tallies {
            merged.latencies_ms.extend(t.latencies_ms);
            merged.completed += t.completed;
            merged.shed_429 += t.shed_429;
            merged.other_4xx += t.other_4xx;
            merged.status_5xx += t.status_5xx;
            merged.io_errors += t.io_errors;
        }
        merged.latencies_ms.sort_by(f64::total_cmp);
        levels.push(LevelStats {
            connections: conns,
            completed: merged.completed,
            shed_429: merged.shed_429,
            other_4xx: merged.other_4xx,
            status_5xx: merged.status_5xx,
            io_errors: merged.io_errors,
            wall_s,
            qps: merged.completed as f64 / wall_s,
            p50_ms: percentile(&merged.latencies_ms, 50.0),
            p99_ms: percentile(&merged.latencies_ms, 99.0),
            slos: evaluate_slos(&cfg.slos, &merged.latencies_ms),
        });
    }
    Ok(LoadtestReport { levels })
}

/// One connection's request loop: keep-alive, reconnecting (and tallying an
/// io error) when the transport drops.
fn client_thread(cfg: &LoadtestConfig, level_idx: usize, conn_idx: usize, ingest_ts: u32) -> Tally {
    let mut tally = Tally::default();
    let mut client = match Client::connect(cfg.addr, cfg.timeout) {
        Ok(c) => c,
        Err(_) => {
            tally.io_errors += 1;
            return tally;
        }
    };
    for i in 0..cfg.requests_per_conn {
        let seed = (level_idx as u64) << 40 | (conn_idx as u64) << 20 | i as u64;
        let is_ingest = cfg.ingest_every > 0 && (i + 1) % cfg.ingest_every == 0;
        let (path, body) = if is_ingest {
            ("/v1/ingest", ingest_body(cfg, seed, ingest_ts))
        } else {
            ("/v1/query", query_body(cfg, seed))
        };
        let begun = Instant::now();
        match client.call(path, &body) {
            Ok((status, _)) => {
                let ms = begun.elapsed().as_secs_f64() * 1e3;
                match status {
                    200..=299 => {
                        tally.completed += 1;
                        tally.latencies_ms.push(ms);
                    }
                    429 => tally.shed_429 += 1,
                    500..=599 => tally.status_5xx += 1,
                    _ => tally.other_4xx += 1,
                }
            }
            Err(_) => {
                tally.io_errors += 1;
                match Client::connect(cfg.addr, cfg.timeout) {
                    Ok(c) => client = c,
                    Err(_) => return tally,
                }
            }
        }
    }
    tally
}

fn query_body(cfg: &LoadtestConfig, seed: u64) -> String {
    let subject = (mix(seed) % cfg.entities.max(1) as u64) as u32;
    let relation = (mix(seed ^ 0x5151) % cfg.relations.max(1) as u64) as u32;
    format!(
        r#"{{"kind":"entity","k":{},"queries":[{{"subject":{subject},"relation":{relation}}}]}}"#,
        cfg.k
    )
}

fn ingest_body(cfg: &LoadtestConfig, seed: u64, ts: u32) -> String {
    let s = (mix(seed ^ 0xA0A0) % cfg.entities.max(1) as u64) as u32;
    let r = (mix(seed ^ 0xB1B1) % cfg.relations.max(1) as u64) as u32;
    let o = (mix(seed ^ 0xC2C2) % cfg.entities.max(1) as u64) as u32;
    format!(r#"{{"facts":[{{"subject":{s},"relation":{r},"object":{o},"timestamp":{ts}}}]}}"#)
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when empty).
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn bodies_are_valid_json_with_in_range_ids() {
        let cfg = LoadtestConfig { entities: 7, relations: 3, ..Default::default() };
        for seed in 0..50u64 {
            let q = retia_json::parse(&query_body(&cfg, seed)).expect("query body parses");
            let item = &q.get("queries").and_then(Value::as_array).expect("array")[0];
            assert!(item.get("subject").and_then(Value::as_u64).expect("subject") < 7);
            assert!(item.get("relation").and_then(Value::as_u64).expect("relation") < 3);
            let ing = retia_json::parse(&ingest_body(&cfg, seed, 42)).expect("ingest body parses");
            let fact = &ing.get("facts").and_then(Value::as_array).expect("array")[0];
            assert_eq!(fact.get("timestamp").and_then(Value::as_u64), Some(42));
        }
    }

    #[test]
    fn slo_outcomes_flag_burning_objectives() {
        let specs = vec![
            SloSpec {
                name: "strict".to_string(),
                metric: String::new(),
                objective: 0.99,
                threshold_ms: 10.0,
                window_s: 60.0,
            },
            SloSpec {
                name: "loose".to_string(),
                metric: String::new(),
                objective: 0.5,
                threshold_ms: 10.0,
                window_s: 60.0,
            },
        ];
        // 80 fast + 20 slow requests: 80% compliance.
        let mut samples = vec![1.0; 80];
        samples.extend(vec![100.0; 20]);
        let out = evaluate_slos(&specs, &samples);
        assert_eq!(out.len(), 2);
        assert!((out[0].compliance - 0.8).abs() < 1e-9);
        assert!(out[0].burning, "20% misses against a 1% budget must burn: {out:?}");
        assert!(out[0].burn > 10.0, "burn {} should be ~20x", out[0].burn);
        assert!(!out[1].burning, "20% misses fit a 50% budget: {out:?}");
        // No samples: perfectly compliant, nothing burns.
        let idle = evaluate_slos(&specs, &[]);
        assert!(idle.iter().all(|o| o.compliance == 1.0 && !o.burning));
    }

    #[test]
    fn burning_slos_render_per_level_lines() {
        let level = LevelStats {
            connections: 4,
            completed: 10,
            shed_429: 0,
            other_4xx: 0,
            status_5xx: 0,
            io_errors: 0,
            wall_s: 1.0,
            qps: 10.0,
            p50_ms: 1.0,
            p99_ms: 100.0,
            slos: vec![SloOutcome {
                name: "p99".to_string(),
                objective: 0.99,
                threshold_ms: 50.0,
                compliance: 0.8,
                burn: 20.0,
                burning: true,
            }],
        };
        let report = LoadtestReport { levels: vec![level] };
        let lines = report.burning_slos();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("`p99`") && lines[0].contains("4 conns"), "{lines:?}");
        let json = report.to_json(&LoadtestConfig::default()).to_string_compact();
        assert!(json.contains("\"burning\":true"), "{json}");
    }

    #[test]
    fn find_head_end_locates_terminator() {
        assert_eq!(find_head_end(b"HTTP/1.1 200 OK\r\nA: b\r\n\r\nrest"), Some(25));
        assert_eq!(find_head_end(b"HTTP/1.1 200 OK\r\n"), None);
    }
}
