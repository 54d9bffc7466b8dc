//! Smoke test for `retia serve`: generate → train → evaluate and predict
//! the model file → serve it on an ephemeral port → query → ingest →
//! re-query → inspect the trace store, Prometheus exposition and SLO gauges
//! → drain — all through the real binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use retia_tensor::serialize::{read_container, write_container};

fn retia(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_retia"));
    cmd.args(args);
    cmd
}

/// Runs `retia` to success and returns its stdout.
fn run(args: &[&str]) -> String {
    let out = retia(args).output().expect("spawn retia");
    assert!(
        out.status.success(),
        "retia {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Raw HTTP/1.1 exchange; returns (status, body).
fn http(addr: &str, method: &str, path: &str, json: Option<&str>) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let raw = match json {
        None => format!("{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n"),
        Some(body) => format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    };
    s.write_all(raw.as_bytes()).expect("send");
    s.shutdown(Shutdown::Write).expect("half-close");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let status = buf
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.split(' ').next())
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {buf:?}"));
    let body = buf.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

/// Kills the child on drop so a failed assertion never leaks a server.
struct Reap(Child);
impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_smoke_query_ingest_requery_shutdown() {
    let dir = std::env::temp_dir().join(format!("retia-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data");
    let ckpts = dir.join("ckpts");
    let data_s = data.to_string_lossy().into_owned();
    let ckpt_s = ckpts.to_string_lossy().into_owned();
    let model_s = dir.join("model.bin").to_string_lossy().into_owned();

    run(&["generate", "--profile", "tiny", "--out", &data_s]);
    run(&[
        "train",
        "--data",
        &data_s,
        "--out",
        &model_s,
        "--dim",
        "8",
        "--channels",
        "4",
        "--k",
        "2",
        "--epochs",
        "1",
        "--checkpoint-dir",
        &ckpt_s,
        "--log-level",
        "off",
    ]);

    // `train --out` wrote one model file (no config sidecar), which the
    // other readers of a model load too.
    assert!(!dir.join("model.bin.config.json").exists(), "train wrote a config sidecar");
    let eval = run(&["evaluate", "--data", &data_s, "--model", &model_s, "--log-level", "off"]);
    assert!(eval.contains("entity   (raw): MRR"), "evaluate output: {eval}");
    // A train-state checkpoint of the same run is a model file too.
    let ckpt = ckpts.join("ckpt-00001.retia").to_string_lossy().into_owned();
    let eval_ckpt = run(&["evaluate", "--data", &data_s, "--model", &ckpt, "--log-level", "off"]);
    let results =
        |out: &str| out.lines().take_while(|l| !l.is_empty()).collect::<Vec<_>>().join("\n");
    assert_eq!(results(&eval_ckpt), results(&eval), "checkpoint and model file disagree");
    let pred = run(&[
        "predict",
        "--data",
        &data_s,
        "--model",
        &model_s,
        "--subject",
        "0",
        "--relation",
        "0",
    ]);
    assert!(pred.contains("top-") && pred.contains("#1"), "predict output: {pred}");

    // A stored config that fails validation is a typed error naming the
    // field (exit 1), not a panic.
    let bytes = std::fs::read(&model_s).expect("read model file");
    let sections = read_container(&bytes).expect("model file is a container");
    let patched: Vec<(&str, Vec<u8>)> = sections
        .iter()
        .map(|(name, payload)| match name.as_str() {
            "config" => {
                let text = String::from_utf8_lossy(payload);
                ("config", text.replace("\"k\": 2", "\"k\": 0").into_bytes())
            }
            other => (other, payload.to_vec()),
        })
        .collect();
    let bad = dir.join("bad-config.bin");
    std::fs::write(&bad, write_container(&patched)).expect("write model file");
    let out = retia(&["evaluate", "--data", &data_s, "--model", &bad.to_string_lossy()])
        .output()
        .expect("spawn retia");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: ") && stderr.contains("k must be positive"), "{stderr}");

    // Port 0 → the kernel picks; the server prints the resolved address.
    let mut child = Reap(
        retia(&[
            "serve",
            "--data",
            &data_s,
            "--model",
            &model_s,
            "--port",
            "0",
            "--workers",
            "2",
            // Keep every request in the trace store (sample 1-in-1) and
            // install a latency SLO nothing in a smoke run can miss, so the
            // endpoints below have data to show.
            "--trace-sample",
            "1",
            "--slo",
            "query:99:30000",
            "--log-level",
            "off",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve"),
    );

    let stdout = child.0.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines.next().expect("server exited before announcing").expect("read stdout");
    let addr = first
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected startup line: {first:?}"))
        .to_string();

    let (status, body) = http(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");

    let query = r#"{"k": 3, "queries": [{"subject": 0, "relation": 0}]}"#;
    let (status, before) = http(&addr, "POST", "/v1/query", Some(query));
    assert_eq!(status, 200, "{before}");
    let before = retia_json::parse(&before).expect("query response is JSON");
    assert!(before.get("results").is_some(), "{before:?}");

    // Ingest one fact one step past the current window, then re-query: the
    // window (and therefore the scores' epoch) must advance.
    let end = before
        .get("window_end")
        .and_then(retia_json::Value::as_u64)
        .expect("window_end in query response");
    let ingest = format!(
        r#"{{"facts": [{{"subject": 0, "relation": 0, "object": 1, "timestamp": {}}}]}}"#,
        end + 1
    );
    let (status, body) = http(&addr, "POST", "/v1/ingest", Some(&ingest));
    assert_eq!(status, 200, "{body}");
    let body = retia_json::parse(&body).expect("ingest response is JSON");
    assert_eq!(body.get("accepted").and_then(retia_json::Value::as_u64), Some(1), "{body:?}");

    let (status, after) = http(&addr, "POST", "/v1/query", Some(query));
    assert_eq!(status, 200, "{after}");
    let after = retia_json::parse(&after).expect("query response is JSON");
    assert_eq!(
        after.get("window_end").and_then(retia_json::Value::as_u64),
        Some(end + 1),
        "window did not advance: {after:?}"
    );

    let (status, body) = http(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let metrics = retia_json::parse(&body).expect("metrics snapshot is JSON");
    assert_eq!(
        metrics
            .get("gauges")
            .and_then(|g| g.get("slo.query.objective"))
            .and_then(retia_json::Value::as_f64),
        Some(0.99),
        "--slo did not surface as gauges: {metrics:?}"
    );

    // Prometheus text exposition of the same registry.
    let (status, prom) = http(&addr, "GET", "/metrics?format=prom", None);
    assert_eq!(status, 200);
    assert!(prom.lines().any(|l| l == "# TYPE serve_requests counter"), "{prom}");
    assert!(prom.contains("serve_request_ms_bucket{le="), "{prom}");

    // With 1-in-1 sampling every request above is in the trace store; the
    // query traces carry the full stage tree.
    let (status, body) = http(&addr, "GET", "/v1/traces", None);
    assert_eq!(status, 200);
    let traces = retia_json::parse(&body).expect("traces document is JSON");
    let arr = traces
        .get("traces")
        .and_then(retia_json::Value::as_array)
        .expect("traces array in /v1/traces");
    assert!(!arr.is_empty(), "trace store is empty after served traffic");
    let query_trace = arr
        .iter()
        .find(|t| t.get("endpoint").and_then(retia_json::Value::as_str) == Some("/v1/query"))
        .expect("a /v1/query trace is stored");
    let stage_names: Vec<&str> = query_trace
        .get("stages")
        .and_then(retia_json::Value::as_array)
        .expect("stages array")
        .iter()
        .filter_map(|s| s.get("name").and_then(retia_json::Value::as_str))
        .collect();
    for want in ["serve.recv", "serve.queue_wait", "serve.decode", "serve.write"] {
        assert!(stage_names.contains(&want), "stage {want} missing: {stage_names:?}");
    }

    let (status, body) = http(&addr, "POST", "/admin/shutdown", None);
    assert_eq!(status, 200, "{body}");

    let status = child.0.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status}");

    cleanup(&dir);
}

/// An option `serve` does not read fails the command before any work: the
/// deleted JSONL log flag, or a typo of `--store`, must not boot a server
/// that silently drops durability, and the deleted decode-sharding flag
/// and checkpoint-directory flag (`--model` names the file to serve) must
/// not look accepted. The dataset path does not exist, so only the flag
/// check can produce the error.
#[test]
fn serve_rejects_options_it_does_not_read() {
    for flag in ["--ingest-log", "--stroe", "--decode-shards", "--resume"] {
        let args = [
            "serve",
            "--data",
            "no-such-data",
            "--model",
            "no-such-model",
            "--port",
            "0",
            flag,
            "x",
        ];
        let out = retia(&args).output().expect("spawn retia");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "serve accepted {flag}");
        assert!(stderr.contains(flag), "error does not name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "serve did work before rejecting {flag}");
    }
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
