//! The host fingerprint printed with every result, and process memory.

use std::path::Path;
use std::process::Command;

/// What the numbers were measured on.
pub fn fingerprint(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("tensor_threads", retia_tensor::parallel::num_threads().to_string()),
        ("git_commit", git_commit()),
        ("rustc", command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("seed", seed.to_string()),
    ]
}

/// The commit of the checkout, when it is a git work tree itself (a plain
/// source export has no `.git` and reports `unknown`).
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minor page faults this process has taken so far (`/proc/self/stat`).
pub fn minor_faults() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name: state, ppid,
            // pgrp, session, tty_nr, tpgid, flags, minflt.
            let rest = s.rsplit_once(')')?.1;
            rest.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}
