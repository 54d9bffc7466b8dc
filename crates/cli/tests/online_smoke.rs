//! Smoke test for `retia serve --online --store`: generate → `ingest
//! --from-data` → train and serve from the store with the continual trainer
//! live → ingest under training → kill -9 the process mid-operation →
//! restart on the same store and verify the replayed window serves cleanly
//! — all through the real binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn retia(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_retia"));
    cmd.args(args);
    cmd
}

fn run(args: &[&str]) {
    let out = retia(args).output().expect("spawn retia");
    assert!(
        out.status.success(),
        "retia {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
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
/// Holds the stdout pipe open for the child's whole life: dropping the read
/// end would turn the server's own status prints into broken-pipe panics.
struct Reap(Child, Option<BufReader<std::process::ChildStdout>>);
impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_serve(store: &str, model: &str) -> (Reap, String) {
    let mut child = Reap(
        retia(&[
            "serve",
            "--store",
            store,
            "--model",
            model,
            "--port",
            "0",
            "--workers",
            "2",
            "--online",
            "--online-interval-ms",
            "20",
            "--log-level",
            "off",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve"),
        None,
    );
    let stdout = child.0.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read stdout");
    let addr = first
        .trim_end()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected startup line: {first:?}"))
        .to_string();
    child.1 = Some(reader);
    (child, addr)
}

fn window_end(addr: &str) -> u64 {
    let query = r#"{"k": 3, "queries": [{"subject": 0, "relation": 0}]}"#;
    let (status, body) = http(addr, "POST", "/v1/query", Some(query));
    assert_eq!(status, 200, "{body}");
    let body = retia_json::parse(&body).expect("query response is JSON");
    body.get("window_end").and_then(retia_json::Value::as_u64).expect("window_end in response")
}

#[test]
fn online_serve_survives_kill_dash_nine_and_replays_store() {
    let dir = std::env::temp_dir().join(format!("retia-online-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data");
    let store = dir.join("store");
    let data_s = data.to_string_lossy().into_owned();
    let store_s = store.to_string_lossy().into_owned();
    let model_s = dir.join("model.bin").to_string_lossy().into_owned();

    run(&["generate", "--profile", "tiny", "--out", &data_s]);
    run(&["ingest", "--store", &store_s, "--from-data", &data_s]);
    run(&[
        "train",
        "--store",
        &store_s,
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
        "--log-level",
        "off",
    ]);

    // Life 1: the trainer is live and the store absorbs a new fact.
    let (mut child, addr) = spawn_serve(&store_s, &model_s);

    let (status, body) = http(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    let health = retia_json::parse(&body).expect("healthz is JSON");
    let trainer = health.get("trainer").and_then(retia_json::Value::as_str).expect("trainer");
    assert_ne!(trainer, "disabled", "--online did not enable the trainer: {health:?}");

    let (status, body) = http(&addr, "GET", "/v1/drift", None);
    assert_eq!(status, 200, "{body}");
    let drift = retia_json::parse(&body).expect("drift is JSON");
    assert_eq!(drift.get("enabled").and_then(retia_json::Value::as_bool), Some(true), "{drift:?}");

    let end = window_end(&addr);
    let ingest = format!(
        r#"{{"facts": [{{"subject": 0, "relation": 0, "object": 1, "timestamp": {}}}]}}"#,
        end + 1
    );
    let (status, body) = http(&addr, "POST", "/v1/ingest", Some(&ingest));
    assert_eq!(status, 200, "{body}");
    assert_eq!(window_end(&addr), end + 1, "ingest did not advance the window");

    // Give the continual trainer a chance to be mid-round, then kill -9: no
    // drain, no shutdown hook — the durability story is the store alone.
    std::thread::sleep(Duration::from_millis(50));
    child.0.kill().expect("kill -9 serve");
    drop(child);

    // Life 2: boot reads the store; the ingested fact must still be in the
    // window and serving must come up clean (liveness + readiness).
    let (mut child, addr) = spawn_serve(&store_s, &model_s);
    assert_eq!(window_end(&addr), end + 1, "ingest log was not replayed after kill -9");
    let (status, body) = http(&addr, "GET", "/healthz?ready=1", None);
    assert_eq!(status, 200, "restarted server is not ready: {body}");

    let (status, body) = http(&addr, "POST", "/admin/shutdown", None);
    assert_eq!(status, 200, "{body}");
    let status = child.0.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status}");

    cleanup(&dir);
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
