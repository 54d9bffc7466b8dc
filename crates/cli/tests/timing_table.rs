//! One timing table: `train` and `evaluate` print, as their end-of-run
//! table, exactly the rows `retia report` prints for the same run's
//! `--trace-out` file; kernel timers (on at `--log-level debug`) print as a
//! table of their own, outside the module shares.

use std::process::Command;

/// Runs `retia` to success and returns its stdout.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_retia")).args(args).output().expect("spawn retia");
    assert!(
        out.status.success(),
        "retia {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The table printed under the first line starting with `heading`: every
/// line after it up to a blank line or the end of the output.
fn table_after(stdout: &str, heading: &str) -> Vec<String> {
    let mut lines = stdout.lines().skip_while(|l| !l.starts_with(heading));
    assert!(lines.next().is_some(), "no `{heading}` in:\n{stdout}");
    lines.take_while(|l| !l.trim().is_empty()).map(str::to_string).collect()
}

/// The data rows of a breakdown table (no header, no `(sum)` line), as
/// `(module, share %)`.
fn shares(table: &[String]) -> Vec<(String, f64)> {
    table[1..]
        .iter()
        .filter(|l| !l.starts_with("(sum)"))
        .map(|l| {
            let module = l.split_whitespace().next().expect("module column").to_string();
            let share = l.split_whitespace().last().expect("share column");
            (module, share.trim_end_matches('%').parse().expect("share is a number"))
        })
        .collect()
}

fn assert_sums_to_100(rows: &[(String, f64)]) {
    let sum: f64 = rows.iter().map(|(_, s)| s).sum();
    assert!((sum - 100.0).abs() < 0.05, "shares sum to {sum}: {rows:?}");
}

#[test]
fn end_of_run_table_is_the_report_of_the_runs_trace() {
    let dir = std::env::temp_dir().join(format!("retia-timing-table-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (data, model) = (path("data"), path("model.bin"));
    let (train_trace, eval_trace) = (path("train.jsonl"), path("eval.jsonl"));

    run(&["generate", "--profile", "tiny", "--seed", "7", "--out", &data]);
    let train = run(&[
        "train",
        "--data",
        &data,
        "--out",
        &model,
        "--dim",
        "8",
        "--channels",
        "4",
        "--k",
        "2",
        "--epochs",
        "1",
        "--seed",
        "9",
        "--trace-out",
        &train_trace,
    ]);
    let table = table_after(&train, "per-module wall clock:");
    let report = run(&["report", "--trace", &train_trace]);
    assert_eq!(table, table_after(&report, "per-module time breakdown of"), "{train}\n{report}");
    let modules = shares(&table);
    for m in ["eam", "ram", "tim", "decode", "backward", "train"] {
        assert!(modules.iter().any(|(name, _)| name == m), "no `{m}` row: {modules:?}");
    }
    assert_sums_to_100(&modules);
    assert!(!train.contains("per-kernel wall clock"), "kernel timers are off below debug");

    // At debug the kernel timers run too: the module rows still equal the
    // report's, and the kernels come back in a table of their own.
    let eval = run(&[
        "evaluate",
        "--data",
        &data,
        "--model",
        &model,
        "--trace-out",
        &eval_trace,
        "--log-level",
        "debug",
    ]);
    let table = table_after(&eval, "per-module wall clock:");
    let report = run(&["report", "--trace", &eval_trace]);
    assert_eq!(table, table_after(&report, "per-module time breakdown of"), "{eval}\n{report}");
    let modules = shares(&table);
    assert!(modules.iter().all(|(name, _)| !name.starts_with("kernel")), "{modules:?}");
    assert_sums_to_100(&modules);
    let kernels = shares(&table_after(&eval, "per-kernel wall clock"));
    assert!(kernels.iter().any(|(name, _)| name == "kernel.matmul"), "{kernels:?}");
    assert_sums_to_100(&kernels);

    std::fs::remove_dir_all(&dir).ok();
}
