//! End-to-end tests for self-healing online learning in `retia-serve`:
//! fault isolation (a NaN-storming or panicking trainer never perturbs
//! served answers and never surfaces as 5xx), the degradation ladder on
//! `/healthz` (`?ready=1` flips 503 while liveness stays 200), drift
//! rollback via `/v1/drift`, and the store-backed window surviving
//! restarts with a corrupt log tail.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use retia::{FrozenModel, Retia, RetiaConfig, TkgContext};
use retia_analyze::{ChaosPlan, GradFault};
use retia_data::{SyntheticConfig, TkgDataset};
use retia_graph::Quad;
use retia_json::Value;
use retia_serve::{OnlineOptions, ServeConfig, Server};
use retia_store::log::{encode_record, LogRecord};
use retia_store::manifest::StoreManifest;
use retia_store::Store;

fn dataset() -> TkgDataset {
    SyntheticConfig::tiny(6).generate()
}

fn model_config() -> RetiaConfig {
    RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() }
}

/// Fast supervisor cadence for tests; drift gate wide open so only the
/// scenario under test trips it. 20 steps per round means an all-faulted
/// round exhausts the recovery budget (5 rollbacks at 3 bad steps each)
/// *within* the round — `fit_window` returns `Diverged` and the degraded
/// flag latches until a round completes cleanly, instead of flickering.
fn fast_online() -> OnlineOptions {
    OnlineOptions {
        steps: 20,
        interval: Duration::from_millis(5),
        max_staleness: 10_000,
        drift_threshold: 1e9,
        drift_window: 3,
        ..Default::default()
    }
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
    let _ = s.write_all(raw);
    let _ = s.shutdown(Shutdown::Write);
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    String::from_utf8_lossy(&buf).into_owned()
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
    let line = response.lines().next().expect("status line");
    let status: u16 = line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse().ok())
        .expect("well-formed status line");
    let text = response.split("\r\n\r\n").nth(1).expect("response has a body");
    (status, retia_json::parse(text).expect("response body is JSON"))
}

const PROBE_QUERY: &str = r#"{"kind":"entity","k":5,"queries":[{"subject":0,"relation":1}]}"#;

/// Issues the fixed probe query, asserting it succeeds, and returns the
/// `(id, score_bits)` candidate list — the bit-exact served answer.
fn probe_answer(addr: SocketAddr) -> Vec<(u64, u32)> {
    let (status, body) = request(addr, "POST", "/v1/query", Some(PROBE_QUERY));
    assert_eq!(status, 200, "probe query must never fail: {body:?}");
    body.get("results")
        .and_then(Value::as_array)
        .and_then(|r| r.first())
        .and_then(|r| r.get("candidates"))
        .and_then(Value::as_array)
        .expect("candidates array")
        .iter()
        .map(|c| {
            (
                c.get("id").and_then(Value::as_u64).expect("id"),
                (c.get("score").and_then(Value::as_f64).expect("score") as f32).to_bits(),
            )
        })
        .collect()
}

fn ingest_one(addr: SocketAddr, t: u32) {
    let body = format!(r#"{{"facts":[{{"subject":0,"relation":0,"object":1,"timestamp":{t}}}]}}"#);
    let (status, resp) = request(addr, "POST", "/v1/ingest", Some(&body));
    assert_eq!(status, 200, "ingest must succeed: {resp:?}");
}

fn healthz(addr: SocketAddr) -> Value {
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "liveness probe must answer 200: {body:?}");
    body
}

fn health_status(body: &Value) -> String {
    body.get("status").and_then(Value::as_str).expect("status field").to_string()
}

#[test]
fn nan_storm_never_perturbs_served_answers() {
    // Every gradient step the trainer ever takes is poisoned: recovery
    // skips/rolls back until the budget exhausts (Diverged -> degraded),
    // and no candidate with changed weights can ever publish. Served
    // answers must therefore stay bit-identical to a trainer-free control
    // server fed the exact same ingests (ingests legitimately move the
    // window, so the boot answer is not the reference — the control is).
    let storm = ChaosPlan::none().with_grad_fault_range(GradFault::Nan, 0, 1_000_000);
    let (server, ctx) =
        start_server_with(|cfg| cfg.online = Some(OnlineOptions { chaos: storm, ..fast_online() }));
    let (control, _) = start_server_with(|_| {});
    let addr = server.addr();
    assert_eq!(probe_answer(addr), probe_answer(control.addr()));

    // Keep feeding fresh windows so the trainer keeps (failing at)
    // training; every all-faulted round diverges, so `degraded` must
    // appear and latch.
    let mut t = ctx.snapshots.last().expect("window").t;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut saw_degraded = false;
    while !saw_degraded {
        assert!(Instant::now() < deadline, "trainer never reported degraded under a NaN storm");
        t += 1;
        ingest_one(addr, t);
        ingest_one(control.addr(), t);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            probe_answer(addr),
            probe_answer(control.addr()),
            "a NaN-storming trainer leaked into serving"
        );
        saw_degraded = health_status(&healthz(addr)) == "degraded";
    }

    // Degraded is a readout, not an outage: liveness stays 200, the
    // readiness variant flips 503, and answers are still the last-good ones.
    let (status, body) = request(addr, "GET", "/healthz?ready=1", None);
    assert_eq!(status, 503, "readiness must fail while degraded: {body:?}");
    assert_eq!(probe_answer(addr), probe_answer(control.addr()));
    control.shutdown();
    server.shutdown();
}

#[test]
fn trainer_self_heals_after_finite_storm() {
    // Faults cover only the first 100 gradient steps. The step counter
    // advances even through skipped steps, so the storm window passes on
    // its own: degraded appears (budget exhausted) and then clears without
    // any restart once a round completes cleanly.
    let storm = ChaosPlan::none().with_grad_fault_range(GradFault::Nan, 0, 99);
    let (server, ctx) =
        start_server_with(|cfg| cfg.online = Some(OnlineOptions { chaos: storm, ..fast_online() }));
    let addr = server.addr();
    assert!(!probe_answer(addr).is_empty());

    let mut t = ctx.snapshots.last().expect("window").t;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut saw_degraded = false;
    loop {
        assert!(
            Instant::now() < deadline,
            "no self-recovery within the deadline (saw_degraded = {saw_degraded})"
        );
        t += 1;
        ingest_one(addr, t);
        std::thread::sleep(Duration::from_millis(20));
        // Queries must keep answering through the whole cycle.
        assert!(!probe_answer(addr).is_empty());
        let status = health_status(&healthz(addr));
        saw_degraded |= status == "degraded";
        if saw_degraded && status == "ok" {
            break; // degraded appeared AND cleared, in-process
        }
    }
    // Still serving; the healed model may legitimately differ from boot.
    assert!(!probe_answer(addr).is_empty());
    server.shutdown();
}

#[test]
fn panicking_trainer_isolates_and_staleness_degrades_readiness() {
    // Every training round panics before its first gradient step: the
    // supervisor must contain the panic (no thread death, no 5xx), mark
    // serving degraded, and the staleness counter must grow unbounded
    // while answers stay bit-identical to boot.
    let chaos = ChaosPlan::none().with_trainer_panic_range(0, 1_000_000);
    let (server, ctx) = start_server_with(|cfg| {
        cfg.online = Some(OnlineOptions { max_staleness: 0, chaos, ..fast_online() })
    });
    let (control, _) = start_server_with(|_| {});
    let addr = server.addr();

    // Before any ingest: fresh model, nothing stale, ready.
    let body = healthz(addr);
    assert_eq!(health_status(&body), "ok");
    assert_eq!(body.get("staleness").and_then(Value::as_u64), Some(0));
    let (status, _) = request(addr, "GET", "/healthz?ready=1", None);
    assert_eq!(status, 200);

    let t = ctx.snapshots.last().expect("window").t + 1;
    ingest_one(addr, t);
    ingest_one(control.addr(), t);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "degraded never surfaced for a panicking trainer");
        let body = healthz(addr);
        if health_status(&body) == "degraded" {
            // One un-trained ingest epoch against --max-staleness 0.
            assert_eq!(body.get("staleness").and_then(Value::as_u64), Some(1), "{body:?}");
            assert_eq!(body.get("ingest_epoch").and_then(Value::as_u64), Some(1), "{body:?}");
            assert_eq!(body.get("model_epoch").and_then(Value::as_u64), Some(0), "{body:?}");
            let trainer = body.get("trainer").and_then(Value::as_str).expect("trainer field");
            assert!(
                ["idle", "training", "backoff"].contains(&trainer),
                "unexpected trainer state {trainer:?}"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, _) = request(addr, "GET", "/healthz?ready=1", None);
    assert_eq!(status, 503);
    assert_eq!(
        probe_answer(addr),
        probe_answer(control.addr()),
        "a panicking trainer leaked into serving"
    );
    control.shutdown();
    server.shutdown();
}

#[test]
fn sustained_drift_rolls_back_to_last_good() {
    // drift_threshold = -1 makes every candidate evaluation a breach, and
    // drift_window = 1 rolls back on the first one: the engine must swap
    // back to the last-good parameters (the boot model — nothing better
    // ever published), surface it on /v1/drift, and keep answering
    // bit-identically.
    let (server, ctx) = start_server_with(|cfg| {
        cfg.online = Some(OnlineOptions { drift_threshold: -1.0, drift_window: 1, ..fast_online() })
    });
    let (control, _) = start_server_with(|_| {});
    let addr = server.addr();

    let (status, body) = request(addr, "GET", "/v1/drift", None);
    assert_eq!(status, 200);
    assert_eq!(body.get("enabled").and_then(Value::as_bool), Some(true), "{body:?}");

    let mut t = ctx.snapshots.last().expect("window").t;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "drift rollback never fired");
        t += 1;
        ingest_one(addr, t);
        ingest_one(control.addr(), t);
        std::thread::sleep(Duration::from_millis(20));
        let (status, drift) = request(addr, "GET", "/v1/drift", None);
        assert_eq!(status, 200);
        if drift.get("rollbacks").and_then(Value::as_u64).unwrap_or(0) >= 1 {
            assert!(
                drift.get("evaluations").and_then(Value::as_u64).unwrap_or(0) >= 1,
                "{drift:?}"
            );
            assert_eq!(drift.get("swaps").and_then(Value::as_u64), Some(0), "{drift:?}");
            break;
        }
    }
    assert_eq!(
        probe_answer(addr),
        probe_answer(control.addr()),
        "rollback must restore the last-good answers"
    );
    assert_eq!(health_status(&healthz(addr)), "degraded");
    control.shutdown();
    server.shutdown();
}

#[test]
fn disabled_online_reports_disabled_everywhere() {
    let (server, _ctx) = start_server_with(|_| {});
    let addr = server.addr();
    let body = healthz(addr);
    assert_eq!(health_status(&body), "ok");
    assert_eq!(body.get("trainer").and_then(Value::as_str), Some("disabled"));
    assert_eq!(body.get("staleness").and_then(Value::as_u64), Some(0));
    let (status, _) = request(addr, "GET", "/healthz?ready=1", None);
    assert_eq!(status, 200, "no trainer: readiness always holds");
    let (status, drift) = request(addr, "GET", "/v1/drift", None);
    assert_eq!(status, 200);
    assert_eq!(drift.get("enabled").and_then(Value::as_bool), Some(false), "{drift:?}");
    let (status, _) = request(addr, "POST", "/v1/drift", None);
    assert_eq!(status, 405, "drift endpoint is GET-only");
    server.shutdown();
}

#[test]
fn store_replays_after_restart_and_truncates_corrupt_tail() {
    let dir =
        std::env::temp_dir().join(format!("retia-serve-online-{}-durability", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The store holds the dataset's stream under its synthetic names, as
    // `retia ingest --from-data` writes it; every life boots its window from
    // the reopened store and appends its ingests to it.
    let ds = dataset();
    let mut store = Store::create(&dir, &ds.name, ds.granularity).expect("create store");
    store.append_dataset(&ds).expect("seed the store");
    let t0 = store.end_t().expect("seeded facts");
    drop(store);
    let boot = || {
        let window = Store::open(&dir).expect("store opens").window(model_config().k);
        let model = Retia::new(&model_config(), &ds);
        let cfg = ServeConfig { workers: 2, store: Some(dir.clone()), ..Default::default() };
        Server::start(FrozenModel::new(model), window, &cfg).expect("bind ephemeral port")
    };

    // First life: two durable ingests, then a clean shutdown.
    let server = boot();
    let addr = server.addr();
    ingest_one(addr, t0 + 1);
    ingest_one(addr, t0 + 2);
    let after_ingest = probe_answer(addr);
    server.shutdown();

    // Crash damage: a torn half-record at the tail of the store's log.
    let log = dir.join(StoreManifest::load(&dir).expect("store manifest").log_file());
    let mut bytes = std::fs::read(&log).expect("store log exists");
    let clean_len = bytes.len();
    let torn =
        encode_record(&LogRecord { facts: vec![Quad::new(0, 0, 1, t0 + 3)], ..Default::default() });
    bytes.extend_from_slice(&torn[..torn.len() / 2]);
    std::fs::write(&log, &bytes).expect("append torn tail");

    // Second life: reopening must truncate the torn tail, keep both valid
    // ingest records, and serve bit-identically to the pre-restart window.
    let server = boot();
    assert_eq!(
        probe_answer(server.addr()),
        after_ingest,
        "replayed window must serve bit-identical answers"
    );
    server.shutdown();
    assert_eq!(
        std::fs::read(&log).expect("store log exists").len(),
        clean_len,
        "boot replay must truncate the log back to the last valid record"
    );

    // Third life: the repaired log replays cleanly again.
    let server = boot();
    assert_eq!(probe_answer(server.addr()), after_ingest);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
