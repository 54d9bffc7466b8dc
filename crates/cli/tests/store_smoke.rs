//! Smoke test for the durable store, end to end through the real binary:
//! generate → `ingest --from-data` → two named `--append`s (vocabulary ids
//! must stay pinned) → `compact` → `train --store` → `serve --store` →
//! HTTP ingest → kill -9 → restart on the same store and verify the
//! acknowledged fact survived — plus `query`/`path`/`stats`/`communities`/
//! `export` over the resulting store.

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

/// Runs the binary and returns its stdout; panics on nonzero exit.
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
struct Reap(Child, Option<BufReader<std::process::ChildStdout>>);
impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_serve(args: &[&str]) -> (Reap, String) {
    let base = ["serve", "--port", "0", "--workers", "2", "--log-level", "off"];
    let all: Vec<&str> = base.iter().chain(args.iter()).copied().collect();
    let mut child = Reap(
        retia(&all).stdout(Stdio::piped()).stderr(Stdio::null()).spawn().expect("spawn serve"),
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

/// Position of `name` in the exported entity vocabulary — the durable id.
fn entity_id(store: &str, name: &str) -> usize {
    let text = run(&["export", "--store", store, "--format", "json"]);
    let doc = retia_json::parse(&text).expect("export is JSON");
    let entities = doc.get("entities").and_then(retia_json::Value::as_array).expect("entities");
    entities
        .iter()
        .position(|e| e.as_str() == Some(name))
        .unwrap_or_else(|| panic!("{name} not in exported vocabulary"))
}

#[test]
fn store_lifecycle_survives_kill_dash_nine() {
    let dir = std::env::temp_dir().join(format!("retia-store-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data_s = dir.join("data").to_string_lossy().into_owned();
    let store_s = dir.join("store").to_string_lossy().into_owned();
    let model_s = dir.join("model.bin").to_string_lossy().into_owned();

    run(&["generate", "--profile", "tiny", "--out", &data_s]);
    let summary = run(&["ingest", "--store", &store_s, "--from-data", &data_s]);
    assert!(summary.contains("appended"), "unexpected ingest output: {summary}");

    // Two named appends introducing fresh entities and a fresh relation:
    // ids must extend in insertion order and never renumber (the second
    // append and a compaction in between must not move `zeta`).
    let f1 = dir.join("f1.tsv");
    std::fs::write(&f1, "zeta\tr0\te0\t100000\n").expect("write f1");
    run(&["ingest", "--store", &store_s, "--facts", &f1.to_string_lossy(), "--append"]);
    let zeta_before = entity_id(&store_s, "zeta");

    run(&["compact", "--store", &store_s]);

    let f2 = dir.join("f2.tsv");
    std::fs::write(&f2, "e0\tmentors\tyeta\t100001\n# comment\n").expect("write f2");
    run(&["ingest", "--store", &store_s, "--facts", &f2.to_string_lossy(), "--append"]);
    assert_eq!(entity_id(&store_s, "zeta"), zeta_before, "append renumbered zeta");
    assert_eq!(entity_id(&store_s, "yeta"), zeta_before + 1, "yeta not appended after zeta");

    // Analytics subcommands all run over the compacted + live-log store.
    let q = run(&["query", "--store", &store_s, "--subject", "zeta"]);
    assert!(q.contains("zeta") && q.contains("t=100000"), "query output: {q}");
    let p = run(&["path", "--store", &store_s, "--from", "zeta", "--to", "yeta"]);
    assert!(p.contains("mentors"), "path output: {p}");
    let s = run(&["stats", "--store", &store_s]);
    assert!(s.contains("PageRank") || s.contains("pagerank"), "stats output: {s}");
    run(&["communities", "--store", &store_s]);

    // Train from the store, then serve from the same store: both sides of
    // the acceptance criterion boot the same window.
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

    // Life 1: ingest over HTTP (acknowledged == durably in the store), then
    // kill -9 — no drain, no shutdown hook.
    let (mut child, addr) = spawn_serve(&["--store", &store_s, "--model", &model_s]);
    let end = window_end(&addr);
    let ingest = format!(
        r#"{{"facts": [{{"subject": 0, "relation": 0, "object": 1, "timestamp": {}}}]}}"#,
        end + 1
    );
    let (status, body) = http(&addr, "POST", "/v1/ingest", Some(&ingest));
    assert_eq!(status, 200, "{body}");
    assert_eq!(window_end(&addr), end + 1, "ingest did not advance the window");
    child.0.kill().expect("kill -9 serve");
    drop(child);

    // Life 2: the restarted server boots its window from the store alone.
    let (mut child, addr) = spawn_serve(&["--store", &store_s, "--model", &model_s]);
    assert_eq!(window_end(&addr), end + 1, "acknowledged fact lost across kill -9");
    let (status, body) = http(&addr, "POST", "/admin/shutdown", None);
    assert_eq!(status, 200, "{body}");
    let status = child.0.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status}");

    cleanup(&dir);
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
