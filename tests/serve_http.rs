//! End-to-end tests for the `retia-serve` subsystem over real sockets:
//! score bit-identity with the eval path, cache correctness across ingest,
//! HTTP robustness under chaos-corrupted inputs, and graceful shutdown that
//! drains in-flight requests.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use retia::{FrozenModel, Retia, RetiaConfig, TkgContext};
use retia_data::{SyntheticConfig, TkgDataset};
use retia_graph::{HyperSnapshot, Quad, Snapshot};
use retia_json::Value;
use retia_serve::{ServeConfig, Server};

fn dataset() -> TkgDataset {
    SyntheticConfig::tiny(6).generate()
}

fn model_config() -> RetiaConfig {
    RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() }
}

fn start_server() -> (Server, TkgContext) {
    start_server_with(|_| {})
}

fn start_server_with(tune: impl FnOnce(&mut ServeConfig)) -> (Server, TkgContext) {
    let ds = dataset();
    let ctx = TkgContext::new(&ds);
    let model = Retia::new(&model_config(), &ds);
    let mut serve_cfg = ServeConfig { workers: 2, ..Default::default() };
    tune(&mut serve_cfg);
    let server = Server::start(FrozenModel::new(model), ctx.snapshots.clone(), &serve_cfg)
        .expect("bind ephemeral port");
    (server, ctx)
}

/// Sends raw bytes, half-closes the write side, reads the full response.
fn raw_roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    // Sends may fail mid-stream if the server already rejected the request
    // and reset the connection — that is a valid outcome for hostile input.
    let _ = s.write_all(raw);
    let _ = s.shutdown(Shutdown::Write);
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf); // resets are acceptable for hostile input
    String::from_utf8_lossy(&buf).into_owned()
}

fn status_of(response: &str) -> Option<u16> {
    let line = response.lines().next()?;
    let code = line.strip_prefix("HTTP/1.1 ")?.split(' ').next()?;
    code.parse().ok()
}

fn body_of(response: &str) -> Value {
    let text = response.split("\r\n\r\n").nth(1).expect("response has a body");
    retia_json::parse(text).expect("response body is JSON")
}

fn request(addr: SocketAddr, method: &str, path: &str, json: Option<&str>) -> (u16, Value) {
    let raw = match json {
        None => format!("{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n"),
        Some(body) => format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    };
    let response = raw_roundtrip(addr, raw.as_bytes());
    let status = status_of(&response).expect("well-formed response");
    (status, body_of(&response))
}

/// Extracts `results[i]` as `(id, score)` pairs.
fn candidates(body: &Value, i: usize) -> Vec<(u32, f32)> {
    body.get("results")
        .and_then(Value::as_array)
        .and_then(|r| r.get(i))
        .and_then(|r| r.get("candidates"))
        .and_then(Value::as_array)
        .expect("candidates array")
        .iter()
        .map(|c| {
            (
                c.get("id").and_then(Value::as_u64).expect("id") as u32,
                c.get("score").and_then(Value::as_f64).expect("score") as f32,
            )
        })
        .collect()
}

#[test]
fn query_scores_are_bit_identical_to_the_eval_forward() {
    let (server, ctx) = start_server();
    let addr = server.addr();

    let (status, body) = request(
        addr,
        "POST",
        "/v1/query",
        Some(r#"{"kind": "entity", "k": 5, "queries": [{"subject": 0, "relation": 1}]}"#),
    );
    assert_eq!(status, 200, "{body:?}");

    // Reference: the offline eval forward over the same last-k window,
    // through a freshly built identical model.
    let ds = dataset();
    let model = Retia::new(&model_config(), &ds);
    let k = model_config().k;
    let lo = ctx.snapshots.len() - k;
    let probs = model.predict_entity(&ctx.snapshots[lo..], &ctx.hypers[lo..], vec![0], vec![1]);
    let expected = retia_eval::top_k(probs.row(0), 5);

    assert_eq!(candidates(&body, 0), expected, "served scores must match eval bitwise");
    server.shutdown();
}

#[test]
fn relation_queries_and_healthz_work() {
    let (server, _ctx) = start_server();
    let addr = server.addr();

    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(body.get("status").and_then(Value::as_str), Some("ok"));

    let (status, body) = request(
        addr,
        "POST",
        "/v1/query",
        Some(r#"{"kind": "relation", "k": 2, "queries": [{"subject": 0, "object": 1}]}"#),
    );
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(candidates(&body, 0).len(), 2);
    server.shutdown();
}

#[test]
fn ingest_then_query_matches_a_cold_rebuild_bitwise() {
    let (server, ctx) = start_server();
    let addr = server.addr();
    let t_next = ctx.snapshots.last().expect("snapshots").t + 1;

    let ingest = format!(
        r#"{{"facts": [
            {{"subject": 0, "relation": 0, "object": 1, "timestamp": {t_next}}},
            {{"subject": 2, "relation": 1, "object": 0, "timestamp": {t_next}}}]}}"#
    );
    let (status, body) = request(addr, "POST", "/v1/ingest", Some(&ingest));
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("accepted").and_then(Value::as_u64), Some(2));
    assert_eq!(
        body.get("window").and_then(|w| w.get("end")).and_then(Value::as_u64),
        Some(t_next as u64)
    );

    let (status, body) = request(
        addr,
        "POST",
        "/v1/query",
        Some(r#"{"kind": "entity", "k": 7, "queries": [{"subject": 1, "relation": 0}]}"#),
    );
    assert_eq!(status, 200, "{body:?}");
    let served = candidates(&body, 0);

    // Cold rebuild: a fresh model over the extended history, no cache, no
    // server — the scores must agree bit for bit.
    let ds = dataset();
    let cold = Retia::new(&model_config(), &ds);
    let mut history = ctx.snapshots.clone();
    let new_facts = vec![Quad::new(0, 0, 1, t_next), Quad::new(2, 1, 0, t_next)];
    let mut snap = Snapshot::from_quads(&new_facts, ctx.num_entities, ctx.num_relations);
    snap.t = t_next;
    history.push(snap);
    let hypers: Vec<HyperSnapshot> = history.iter().map(HyperSnapshot::from_snapshot).collect();
    let lo = history.len() - model_config().k;
    let probs = cold.predict_entity(&history[lo..], &hypers[lo..], vec![1], vec![0]);
    let expected = retia_eval::top_k(probs.row(0), 7);

    assert_eq!(served, expected, "post-ingest scores must match a cold rebuild bitwise");
    server.shutdown();
}

#[test]
fn typed_errors_never_panics() {
    let (server, ctx) = start_server();
    let addr = server.addr();

    // Unknown route / wrong method / wrong content-type / schema violations.
    let (status, body) = request(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    assert!(body.get("error").is_some());
    let (status, _) = request(addr, "GET", "/v1/query", None);
    assert_eq!(status, 405);
    let (status, _) = request(addr, "DELETE", "/healthz", None);
    assert_eq!(status, 405);

    let raw = "POST /v1/query HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nhi";
    let response = raw_roundtrip(addr, raw.as_bytes());
    assert_eq!(status_of(&response), Some(415));

    let (status, body) = request(addr, "POST", "/v1/query", Some("{not json"));
    assert_eq!(status, 400);
    assert_eq!(
        body.get("error").and_then(|e| e.get("code")).and_then(Value::as_str),
        Some("bad_request")
    );

    // Valid JSON, invalid schema → 422.
    let (status, _) = request(addr, "POST", "/v1/query", Some(r#"{"queries": 7}"#));
    assert_eq!(status, 422);
    // Valid schema, out-of-range ids → 422 from the engine.
    let big = ctx.num_entities;
    let (status, body) = request(
        addr,
        "POST",
        "/v1/query",
        Some(&format!(r#"{{"queries": [{{"subject": {big}, "relation": 0}}]}}"#)),
    );
    assert_eq!(status, 422);
    assert_eq!(
        body.get("error").and_then(|e| e.get("code")).and_then(Value::as_str),
        Some("unprocessable")
    );

    // Oversized body cap → 413 without reading the body.
    let raw = format!(
        "POST /v1/ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        retia_serve::MAX_BODY_BYTES + 1
    );
    let response = raw_roundtrip(addr, raw.as_bytes());
    assert_eq!(status_of(&response), Some(413));

    // Malformed request line and truncated head → 400 (or a clean close).
    for raw in ["BOGUS\r\n\r\n", "GET /x HTTP/1.1\r\nTrunca"] {
        let response = raw_roundtrip(addr, raw.as_bytes());
        if let Some(status) = status_of(&response) {
            assert_eq!(status, 400, "raw {raw:?}");
        }
    }

    // Still alive after all of that.
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn chaos_corrupted_requests_yield_4xx_never_a_panic() {
    let (server, _ctx) = start_server();
    let addr = server.addr();
    let valid = b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
                  Content-Length: 45\r\n\r\n{\"queries\": [{\"subject\": 0, \"relation\": 0}]}X";
    // (Content-Length is deliberately one byte past the JSON so truncation
    // sweeps also cover the body-shorter-than-declared path.)

    // Bit flips across the whole request, one per offset stride.
    for bit in (0..valid.len() * 8).step_by(37) {
        let corrupted = retia_analyze::chaos::bit_flipped(valid, bit);
        let response = raw_roundtrip(addr, &corrupted);
        if let Some(status) = status_of(&response) {
            assert!((200..=599).contains(&status), "bit {bit}: unparseable status in {response:?}");
        }
        // No response at all (connection reset) is acceptable for hostile
        // bytes; a panic is not — the liveness check below catches that.
    }
    // Truncations at every prefix length stride.
    for len in (0..valid.len()).step_by(13) {
        let corrupted = retia_analyze::chaos::truncated(valid, len);
        let response = raw_roundtrip(addr, &corrupted);
        if let Some(status) = status_of(&response) {
            assert!(status == 400 || status == 200, "len {len}: got {status}");
        }
    }

    // Every worker still answers: as many healthz probes as pool slots.
    for _ in 0..2 {
        let (status, _) = request(addr, "GET", "/healthz", None);
        assert_eq!(status, 200, "a worker died during the chaos sweep");
    }
    server.shutdown(); // would propagate any worker/engine panic
}

#[test]
fn metrics_report_requests_batches_and_cache_traffic() {
    let (server, _ctx) = start_server();
    let addr = server.addr();

    for _ in 0..3 {
        let (status, _) = request(
            addr,
            "POST",
            "/v1/query",
            Some(r#"{"queries": [{"subject": 0, "relation": 0}]}"#),
        );
        assert_eq!(status, 200);
    }
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let counter = |name: &str| {
        body.get("counters").and_then(|c| c.get(name)).and_then(Value::as_u64).unwrap_or(0)
    };
    assert!(counter("serve.requests") >= 4, "{body:?}");
    assert!(counter("serve.queries") >= 3, "{body:?}");
    assert!(counter("serve.cache_miss") >= 1, "{body:?}");
    assert!(counter("serve.cache_hit") >= 2, "{body:?}");
    let batches = body
        .get("histograms")
        .and_then(|h| h.get("serve.batch_queries"))
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(batches >= 3, "{body:?}");
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (server, _ctx) = start_server();
    let addr = server.addr();

    // Open a request and send only the head: the worker is now mid-request,
    // blocked reading the body.
    let body = r#"{"queries": [{"subject": 0, "relation": 0}]}"#;
    let mut in_flight = TcpStream::connect(addr).expect("connect");
    in_flight.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let head = format!(
        "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    in_flight.write_all(head.as_bytes()).expect("send head");
    std::thread::sleep(Duration::from_millis(50));

    // Trigger the drain through the admin endpoint while that request is in
    // flight.
    let (status, resp) = request(addr, "POST", "/admin/shutdown", None);
    assert_eq!(status, 200);
    assert_eq!(resp.get("draining").and_then(Value::as_bool), Some(true));

    // Now finish the in-flight request: it must be answered, not dropped.
    in_flight.write_all(body.as_bytes()).expect("send body");
    in_flight.shutdown(Shutdown::Write).expect("half-close");
    let mut buf = Vec::new();
    in_flight.read_to_end(&mut buf).expect("read response");
    let response = String::from_utf8_lossy(&buf).into_owned();
    assert_eq!(status_of(&response), Some(200), "in-flight request dropped during drain");
    assert!(!candidates(&body_of(&response), 0).is_empty());

    server.wait(); // joins workers + engine; panics if anything was dropped uncleanly
}

const QUERY_JSON: &str = r#"{"queries": [{"subject": 0, "relation": 0}]}"#;

fn query_raw() -> String {
    format!(
        "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{QUERY_JSON}",
        QUERY_JSON.len()
    )
}

/// Reads exactly one response (head + declared body) off a keep-alive
/// socket, leaving any pipelined follow-up bytes in `carry`.
fn read_one_response(s: &mut TcpStream, carry: &mut Vec<u8>) -> String {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let n = s.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before a full response head");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&carry[..head_end]).into_owned();
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok()).flatten()
        })
        .expect("response declares Content-Length");
    while carry.len() < head_end + len {
        let n = s.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed before the full response body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let resp = String::from_utf8_lossy(&carry[..head_end + len]).into_owned();
    carry.drain(..head_end + len);
    resp
}

#[test]
fn keep_alive_connection_serves_many_sequential_requests() {
    let (server, _ctx) = start_server();
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut carry = Vec::new();
    // One socket, several request/response round trips — the old transport
    // answered `Connection: close` and died after the first.
    for i in 0..5 {
        s.write_all(query_raw().as_bytes()).expect("send");
        let resp = read_one_response(&mut s, &mut carry);
        assert_eq!(status_of(&resp), Some(200), "round trip {i}");
        assert!(!candidates(&body_of(&resp), 0).is_empty(), "round trip {i}");
    }
    // An explicit `Connection: close` is honored: response, then EOF.
    let raw = format!(
        "POST /v1/query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{QUERY_JSON}",
        QUERY_JSON.len()
    );
    s.write_all(raw.as_bytes()).expect("send");
    let resp = read_one_response(&mut s, &mut carry);
    assert_eq!(status_of(&resp), Some(200));
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).expect("read eof");
    assert!(rest.is_empty(), "server wrote past Connection: close");
    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (server, _ctx) = start_server();
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    // Three requests in one write, no waiting in between: HTTP/1.1
    // pipelining. All three must come back, in order, on this socket.
    let burst = query_raw().repeat(3);
    s.write_all(burst.as_bytes()).expect("send burst");
    let mut carry = Vec::new();
    for i in 0..3 {
        let resp = read_one_response(&mut s, &mut carry);
        assert_eq!(status_of(&resp), Some(200), "pipelined response {i}");
    }
    server.shutdown();
}

#[test]
fn malformed_request_mid_pipeline_answers_400_and_closes() {
    let (server, _ctx) = start_server();
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    // Valid request, then garbage, then another valid request. The valid
    // one is answered; the garbage gets a 400 and the connection closes —
    // the third request must NOT be answered (the parser cannot resync).
    let burst = format!("{}BOGUS GARBAGE\r\n\r\n{}", query_raw(), query_raw());
    s.write_all(burst.as_bytes()).expect("send burst");
    let mut carry = Vec::new();
    let first = read_one_response(&mut s, &mut carry);
    assert_eq!(status_of(&first), Some(200));
    let second = read_one_response(&mut s, &mut carry);
    assert_eq!(status_of(&second), Some(400));
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).expect("read eof");
    assert!(rest.is_empty(), "server kept answering after a malformed request: {rest:?}");
    server.shutdown();
}

#[test]
fn smuggling_shaped_content_lengths_are_rejected() {
    let (server, _ctx) = start_server();
    let addr = server.addr();
    // Conflicting duplicate Content-Length: the classic request-smuggling
    // shape. Must be 400, never "pick one and keep parsing".
    let raw = format!(
        "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nContent-Length: 0\r\n\r\n{QUERY_JSON}",
        QUERY_JSON.len()
    );
    let response = raw_roundtrip(addr, raw.as_bytes());
    assert_eq!(status_of(&response), Some(400), "{response:?}");

    // Sign-prefixed length (`+44`): Rust's usize parser accepts it, RFC
    // 9110 does not. Must be 400, not a 44-byte body read.
    let raw = format!(
        "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: +{}\r\n\r\n{QUERY_JSON}",
        QUERY_JSON.len()
    );
    let response = raw_roundtrip(addr, raw.as_bytes());
    assert_eq!(status_of(&response), Some(400), "{response:?}");

    // Identical duplicates are legal (RFC 9110 §8.6) and still served.
    let raw = format!(
        "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {0}\r\nContent-Length: {0}\r\n\r\n{QUERY_JSON}",
        QUERY_JSON.len()
    );
    let response = raw_roundtrip(addr, raw.as_bytes());
    assert_eq!(status_of(&response), Some(200), "{response:?}");
    server.shutdown();
}

#[test]
fn queue_overflow_answers_429_with_retry_after() {
    // Cap below the worker count, so concurrent requests overflow the
    // engine queue instead of serializing in the workers.
    let (server, _ctx) = start_server_with(|cfg| {
        cfg.workers = 4;
        cfg.queue_cap = 2;
    });
    let addr = server.addr();
    let handle = server.engine_handle();
    // Park the engine between jobs; admitted queries now pile up unpopped.
    let guard = handle.pause().expect("engine accepts the pause job");

    // Two queries fill the queue to its cap. Each goes on its own thread
    // because the sender blocks until the engine resumes — and each must be
    // *queued* before the next connects, so the connections land on
    // distinct workers (a worker blocked in the engine cannot accept).
    let mut fillers = Vec::new();
    for i in 0..2usize {
        fillers.push(std::thread::spawn(move || {
            let response = raw_roundtrip(addr, query_raw().as_bytes());
            status_of(&response)
        }));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.queue_depth() < i + 1 {
            assert!(std::time::Instant::now() < deadline, "queue never reached depth {}", i + 1);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // The queue is full: the next query must be shed with 429 and a
    // Retry-After hint, synchronously, while the engine is still parked.
    let response = raw_roundtrip(addr, query_raw().as_bytes());
    assert_eq!(status_of(&response), Some(429), "{response:?}");
    assert!(
        response.lines().any(|l| l.trim().eq_ignore_ascii_case("retry-after: 1")),
        "429 without Retry-After: {response:?}"
    );
    let body = body_of(&response);
    assert_eq!(
        body.get("error").and_then(|e| e.get("code")).and_then(Value::as_str),
        Some("overloaded")
    );

    // Resume: the queued requests complete normally — shed, not dropped.
    drop(guard);
    for f in fillers {
        assert_eq!(f.join().expect("filler thread"), Some(200));
    }
    server.shutdown();
}

#[test]
fn stalled_partial_request_gets_408_and_idle_sockets_reap_silently() {
    let (server, _ctx) = start_server_with(|cfg| {
        cfg.idle_timeout = Duration::from_millis(150);
    });
    let addr = server.addr();

    // Half a request head, then silence: the idle deadline converts the
    // stall into 408 Request Timeout (the head was seen, so a response is
    // owed) and closes.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stalled.write_all(b"POST /v1/query HTTP/1.1\r\nHos").expect("send partial");
    let mut buf = Vec::new();
    stalled.read_to_end(&mut buf).expect("read");
    let response = String::from_utf8_lossy(&buf).into_owned();
    assert_eq!(status_of(&response), Some(408), "{response:?}");
    assert_eq!(
        body_of(&response).get("error").and_then(|e| e.get("code")).and_then(Value::as_str),
        Some("request_timeout")
    );

    // A connection that never sent a byte is reaped silently — EOF, no
    // response bytes wasted on it.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut buf = Vec::new();
    idle.read_to_end(&mut buf).expect("read");
    assert!(buf.is_empty(), "idle socket got bytes: {buf:?}");
    server.shutdown();
}

// ---- request tracing, SLOs, Prometheus -------------------------------------

/// Extracts a response header value, case-insensitively.
fn header_of(response: &str, name: &str) -> Option<String> {
    response.split("\r\n\r\n").next()?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
    })
}

fn trace_id_of(response: &str) -> u64 {
    header_of(response, "X-Trace-Id")
        .expect("every response carries X-Trace-Id")
        .parse()
        .expect("trace id is a decimal u64")
}

/// Polls `GET /v1/traces` until the given trace id shows up (the store is
/// written a hair after the response bytes) or the deadline passes.
fn find_trace(addr: SocketAddr, trace_id: u64, deadline: Duration) -> Option<Value> {
    let until = std::time::Instant::now() + deadline;
    loop {
        let (status, body) = request(addr, "GET", "/v1/traces", None);
        assert_eq!(status, 200, "{body:?}");
        let hit = body.get("traces").and_then(Value::as_array).and_then(|arr| {
            arr.iter().find(|t| t.get("trace_id").and_then(Value::as_u64) == Some(trace_id))
        });
        if let Some(t) = hit {
            return Some(t.clone());
        }
        if std::time::Instant::now() > until {
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn stage<'a>(t: &'a Value, name: &str) -> Option<&'a Value> {
    t.get("stages")
        .and_then(Value::as_array)
        .expect("trace has a stages array")
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
}

fn span_id_of(s: &Value) -> u64 {
    s.get("span_id").and_then(Value::as_u64).expect("stage has a span id")
}

fn parent_of(s: &Value) -> u64 {
    s.get("parent").and_then(Value::as_u64).expect("stage has a parent")
}

fn dur_ms_of(s: &Value) -> f64 {
    s.get("dur_ms").and_then(Value::as_f64).expect("stage has a duration")
}

/// Asserts one query's trace reconstructs the pipeline as a tree: socket
/// read, queue wait and response write at the root; cache and top-k nested
/// under the decode span.
fn assert_query_trace_tree(trace_id: u64, t: &Value) {
    assert_eq!(t.get("trace_id").and_then(Value::as_u64), Some(trace_id));
    assert_eq!(t.get("endpoint").and_then(Value::as_str), Some("/v1/query"));
    assert_eq!(t.get("status").and_then(Value::as_u64), Some(200));
    for name in ["serve.recv", "serve.queue_wait", "serve.write"] {
        let s = stage(t, name).unwrap_or_else(|| panic!("missing stage {name} in {t:?}"));
        assert_eq!(parent_of(s), 0, "{name} must parent at the request root");
    }
    let decode = stage(t, "serve.decode").expect("decode stage");
    assert_eq!(parent_of(decode), 0, "decode parents at the request root");
    let cache = stage(t, "serve.cache").expect("cache stage");
    assert_eq!(parent_of(cache), span_id_of(decode), "cache nests under decode");
    let topk = stage(t, "serve.topk").expect("topk stage");
    assert_eq!(parent_of(topk), span_id_of(decode), "topk nests under decode");
    // A cache miss runs the window evolve inside the cache consultation.
    if let Some(evolve) = stage(t, "serve.evolve") {
        assert_eq!(parent_of(evolve), span_id_of(cache), "evolve nests under cache");
    }
    // Queue wait and service segments fit inside the request total.
    let total = t.get("total_ms").and_then(Value::as_f64).expect("total_ms");
    let wait = dur_ms_of(stage(t, "serve.queue_wait").expect("queue_wait stage"));
    let decode_ms = dur_ms_of(decode);
    assert!(
        wait + decode_ms <= total + 1.0,
        "queue wait {wait}ms + decode {decode_ms}ms exceed the trace total {total}ms"
    );
}

/// Three pipelined queries on one keep-alive socket must come back as three
/// distinct, fully-parented trace trees. The trace policy is process-global
/// and every `Server::start` (including concurrent tests') re-asserts its
/// own, so keep re-arming keep-everything sampling and retry until one burst
/// runs wholly under it.
#[test]
fn pipelined_queries_produce_three_distinct_trace_trees() {
    let (server, _ctx) = start_server_with(|cfg| cfg.trace_sample_every = 1);
    let addr = server.addr();
    let mut captured: Option<Vec<(u64, Value)>> = None;
    'attempt: for _ in 0..50 {
        retia_obs::trace::set_policy(retia_obs::trace::TracePolicy {
            sample_every: 1,
            ..Default::default()
        });
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        s.write_all(query_raw().repeat(3).as_bytes()).expect("send burst");
        let mut carry = Vec::new();
        let mut ids = Vec::new();
        let begun = std::time::Instant::now();
        for i in 0..3 {
            let resp = read_one_response(&mut s, &mut carry);
            assert_eq!(status_of(&resp), Some(200), "pipelined response {i}");
            ids.push(trace_id_of(&resp));
            let timing = body_of(&resp).get("timing").cloned().expect("timing object");
            let wait = timing.get("queue_wait_ms").and_then(Value::as_f64).expect("queue_wait_ms");
            let service = timing.get("service_ms").and_then(Value::as_f64).expect("service_ms");
            assert!(wait >= 0.0 && service >= 0.0, "negative timing segment: {timing:?}");
            let wall_ms = begun.elapsed().as_secs_f64() * 1e3;
            assert!(
                wait + service <= wall_ms + 1.0,
                "queue wait {wait}ms + engine service {service}ms exceed the client wall \
                 clock {wall_ms}ms"
            );
        }
        let distinct: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 3, "pipelined requests must get distinct trace ids: {ids:?}");
        let mut found = Vec::new();
        for &id in &ids {
            match find_trace(addr, id, Duration::from_millis(500)) {
                Some(t) => found.push((id, t)),
                // A concurrent Server::start stomped the sampling policy
                // mid-burst; re-arm and try again.
                None => continue 'attempt,
            }
        }
        captured = Some(found);
        break;
    }
    let captured = captured.expect("no burst of 3 queries survived the sampling policy races");
    for (id, t) in &captured {
        assert_query_trace_tree(*id, t);
    }
    server.shutdown();
}

#[test]
fn paused_engine_query_is_tail_sampled_with_nonzero_queue_wait() {
    let (server, _ctx) = start_server();
    let addr = server.addr();
    let handle = server.engine_handle();

    // Park the engine, land one query in its queue, and keep it waiting
    // long past the 250ms slow threshold before releasing.
    let guard = handle.pause().expect("engine accepts the pause job");
    let worker = std::thread::spawn(move || raw_roundtrip(addr, query_raw().as_bytes()));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.queue_depth() < 1 {
        assert!(std::time::Instant::now() < deadline, "query never reached the engine queue");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(400));
    drop(guard);

    let response = worker.join().expect("query thread");
    assert_eq!(status_of(&response), Some(200), "{response:?}");
    let trace_id = trace_id_of(&response);
    let timing = body_of(&response).get("timing").cloned().expect("timing object");
    let wait_ms = timing.get("queue_wait_ms").and_then(Value::as_f64).expect("queue_wait_ms");
    assert!(wait_ms >= 250.0, "engine parked ~400ms but queue_wait_ms is {wait_ms}");

    // Tail sampling must keep the outlier as "slow" (no policy in this test
    // binary raises slow_ms above the 250ms default), with the queue-wait
    // segment explicit in the tree.
    let t = find_trace(addr, trace_id, Duration::from_secs(5))
        .expect("slow query missing from /v1/traces");
    assert_eq!(t.get("kept").and_then(Value::as_str), Some("slow"));
    assert_query_trace_tree(trace_id, &t);
    let wait_stage_ms = dur_ms_of(stage(&t, "serve.queue_wait").expect("queue_wait stage"));
    assert!(wait_stage_ms >= 250.0, "queue_wait stage records {wait_stage_ms}ms");
    let total = t.get("total_ms").and_then(Value::as_f64).expect("total_ms");
    assert!(total >= wait_stage_ms, "total {total}ms below its queue wait {wait_stage_ms}ms");
    server.shutdown();
}

#[test]
fn prometheus_exposition_round_trips_over_http() {
    let (server, _ctx) = start_server();
    let addr = server.addr();
    for _ in 0..3 {
        let (status, _) = request(addr, "POST", "/v1/query", Some(QUERY_JSON));
        assert_eq!(status, 200);
    }
    let raw = "GET /metrics?format=prom HTTP/1.1\r\nHost: t\r\n\r\n";
    let response = raw_roundtrip(addr, raw.as_bytes());
    assert_eq!(status_of(&response), Some(200), "{response:?}");
    let ct = header_of(&response, "Content-Type").expect("Content-Type header");
    assert!(ct.starts_with("text/plain"), "prom exposition content type: {ct}");
    let body = response.split("\r\n\r\n").nth(1).expect("text body");

    assert!(
        body.lines().any(|l| l == "# TYPE serve_requests counter"),
        "missing counter TYPE line:\n{body}"
    );
    assert!(
        body.lines().any(|l| l == "# TYPE serve_request_ms histogram"),
        "missing histogram TYPE line:\n{body}"
    );
    // The request_ms histogram: bucket counts cumulative in le order, the
    // +Inf bucket equal to _count, and at least our three queries counted
    // (the registry is process-global, so other tests may add more).
    let mut prev = 0.0f64;
    let mut inf: Option<f64> = None;
    let mut count: Option<f64> = None;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("serve_request_ms_bucket{le=\"") {
            let (le, val) = rest.split_once("\"} ").expect("bucket line shape");
            let v: f64 = val.trim().parse().expect("bucket count parses");
            assert!(v >= prev, "bucket counts must be cumulative: {line}");
            prev = v;
            if le == "+Inf" {
                inf = Some(v);
            }
        } else if let Some(v) = line.strip_prefix("serve_request_ms_count ") {
            count = Some(v.trim().parse().expect("count parses"));
        }
    }
    let (inf, count) = (inf.expect("+Inf bucket line"), count.expect("_count line"));
    assert_eq!(inf, count, "+Inf bucket must equal _count");
    assert!(count >= 3.0, "at least this test's queries are counted");
    server.shutdown();
}

#[test]
fn configured_slos_export_burn_rate_gauges() {
    let (server, _ctx) = start_server_with(|cfg| {
        cfg.slos = vec![retia_serve::SloSpec {
            name: "query".to_string(),
            metric: "serve.request_ms.query".to_string(),
            objective: 0.99,
            threshold_ms: 30_000.0, // nothing in a test run misses this
            window_s: 300.0,
        }];
    });
    let addr = server.addr();
    for _ in 0..3 {
        let (status, _) = request(addr, "POST", "/v1/query", Some(QUERY_JSON));
        assert_eq!(status, 200);
    }
    // /metrics force-ticks the SLO engine, so the gauges are fresh.
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let gauge = |name: &str| body.get("gauges").and_then(|g| g.get(name)).and_then(Value::as_f64);
    assert_eq!(gauge("slo.query.objective"), Some(0.99), "{body:?}");
    let compliance = gauge("slo.query.compliance").expect("compliance gauge");
    assert!(compliance >= 0.99, "a 30s threshold cannot be missed in tests: {compliance}");
    assert_eq!(gauge("slo.query.burning"), Some(0.0), "{body:?}");
    assert!(gauge("slo.query.burn_long").is_some() && gauge("slo.query.burn_short").is_some());
    server.shutdown();
}
