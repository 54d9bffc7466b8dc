//! Runs the repository benchmark (`perfbench/`) on two checkouts in
//! alternating pairs and summarizes its gated metrics: the procedure for
//! judging a change against its parent on one workload.
//!
//! ```sh
//! cargo run --release -p retia-bench --bin perf_pairs -- \
//!     --parent ../parent --change . --workload icews14 --pairs 10 --first-seed 501
//! ```
//!
//! Both checkouts must have perfbench built (`cargo build --release
//! --offline --manifest-path perfbench/Cargo.toml` in each). Pair `i` runs
//! seed `first-seed + i` on both sides, each from its own checkout root, as
//! the benchmark's 40-second untraced run (`perfbench --workload W --seed S
//! --seconds 40 --trace 0`); the parent goes first in even pairs and the
//! change in odd ones, so a drift of the host's speed falls on both sides
//! alike. `--log-dir DIR` keeps each run's output as
//! `DIR/{parent,change}-seed{S}.txt`.
//!
//! For each metric on perfbench's summary line (the gated ones, in the
//! direction the parent's `BENCHMARK.json` gives them: the definition the
//! change is judged against), it prints each side's median and quartiles,
//! the pairs the change won, and whether the change's median is better than
//! the parent's by more than the parent's interquartile range. It stops
//! with exit code 1 at the first run that exits nonzero or reads
//! `"correct":false`, and at the first seed whose `train.mean_loss` or
//! `eval.entity_mrr` count line differs between the sides: those print
//! every digit, and a change that keeps the bits keeps them.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Count lines that must read alike on both sides for one seed.
const CHECKED_COUNTS: [&str; 2] = ["train.mean_loss", "eval.entity_mrr"];

const USAGE: &str = "usage: perf_pairs --parent DIR --change DIR --workload NAME --pairs N \
                     --first-seed S [--log-dir DIR]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    parent: PathBuf,
    change: PathBuf,
    workload: String,
    pairs: u64,
    first_seed: u64,
    log_dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut parent, mut change, mut workload, mut pairs, mut first_seed) =
        (None, None, None, None, None);
    let mut log_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(value)),
            "--change" => change = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--pairs" => pairs = Some(number()?),
            "--first-seed" => first_seed = Some(number()?),
            "--log-dir" => log_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("{name} is required");
    let args = Args {
        parent: parent.ok_or_else(|| missing("--parent"))?,
        change: change.ok_or_else(|| missing("--change"))?,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        pairs: pairs.ok_or_else(|| missing("--pairs"))?,
        first_seed: first_seed.ok_or_else(|| missing("--first-seed"))?,
        log_dir,
    };
    if args.pairs == 0 {
        return Err("--pairs must be positive".into());
    }
    Ok(args)
}

/// What one perfbench run reported: its summary line and checked counts.
#[derive(Debug, PartialEq)]
struct RunOutput {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The summary line's metrics, in its order.
    metrics: Vec<(String, f64)>,
    /// The `CHECKED_COUNTS` lines found, as printed.
    counts: Vec<(String, String)>,
}

/// Parses a perfbench run's standard output: the last line is its summary
/// (`{"correct", "attempted", "failed", "metrics"}`), and scenario counts
/// print as `count NAME = VALUE` lines.
fn parse_output(stdout: &str) -> Result<RunOutput, String> {
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
    let summary = retia_json::parse(last).map_err(|e| format!("summary line: {e}"))?;
    let field = |name: &str| summary.get(name).ok_or(format!("summary line has no `{name}`"));
    let metrics = match field("metrics")? {
        retia_json::Value::Object(entries) => entries
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(|v| v.as_f64());
                value.map(|v| (name.clone(), v)).ok_or(format!("metric `{name}` has no value"))
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("summary `metrics` is not an object".into()),
    };
    let counts = stdout
        .lines()
        .filter_map(|l| l.trim().strip_prefix("count ")?.split_once(" = "))
        .filter(|(name, _)| CHECKED_COUNTS.contains(name))
        .map(|(name, value)| (name.to_string(), value.to_string()))
        .collect();
    Ok(RunOutput {
        correct: field("correct")?.as_bool().ok_or("`correct` is not a bool")?,
        attempted: field("attempted")?.as_u64().ok_or("`attempted` is not a count")?,
        failed: field("failed")?.as_u64().ok_or("`failed` is not a count")?,
        metrics,
        counts,
    })
}

/// Both sides printed every checked count, and printed it alike.
fn compare_counts(parent: &RunOutput, change: &RunOutput) -> Result<(), String> {
    for name in CHECKED_COUNTS {
        let read = |r: &RunOutput| r.counts.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone());
        match (read(parent), read(change)) {
            (Some(p), Some(c)) if p == c => {}
            (p, c) => return Err(format!("count {name}: parent {p:?}, change {c:?}")),
        }
    }
    Ok(())
}

/// The `q` quantile of `xs`, interpolating linearly between order
/// statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Whether `BENCHMARK.json` under `root` marks `metric` higher-is-better;
/// lower is better otherwise.
fn higher_is_better(root: &Path, metric: &str) -> bool {
    let Ok(text) = std::fs::read_to_string(root.join("BENCHMARK.json")) else { return false };
    let Ok(bench) = retia_json::parse(&text) else { return false };
    bench
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .into_iter()
        .flatten()
        .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(metric))
        .and_then(|m| m.get("better").and_then(|b| b.as_str()))
        == Some("higher")
}

/// One side's run of `seed`, from its own checkout root.
fn run_side(args: &Args, side: &str, root: &Path, seed: u64) -> Result<RunOutput, String> {
    let exe = root.join("perfbench/target/release/perfbench");
    let out = Command::new(&exe)
        .args(["--workload", &args.workload, "--seed", &seed.to_string()])
        .args(["--seconds", "40", "--trace", "0"])
        .current_dir(root)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{side}: {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if let Some(dir) = &args.log_dir {
        let path = dir.join(format!("{side}-seed{seed}.txt"));
        std::fs::write(&path, &stdout).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if !out.status.success() {
        return Err(format!("{side}, seed {seed}: perfbench exited with {}", out.status));
    }
    let run = parse_output(&stdout).map_err(|e| format!("{side}, seed {seed}: {e}"))?;
    if !run.correct {
        return Err(format!("{side}, seed {seed}: \"correct\":false"));
    }
    Ok(run)
}

/// Runs every pair, printing each as it completes; the per-side runs come
/// back in pair order.
fn run_pairs(args: &Args) -> Result<Vec<(RunOutput, RunOutput)>, String> {
    let mut pairs = Vec::new();
    for i in 0..args.pairs {
        let seed = args.first_seed + i;
        let parent_first = i % 2 == 0;
        let (parent, change) = if parent_first {
            let p = run_side(args, "parent", &args.parent, seed)?;
            (p, run_side(args, "change", &args.change, seed)?)
        } else {
            let c = run_side(args, "change", &args.change, seed)?;
            (run_side(args, "parent", &args.parent, seed)?, c)
        };
        compare_counts(&parent, &change).map_err(|e| format!("seed {seed}: {e}"))?;
        let values = |r: &RunOutput| {
            r.metrics.iter().map(|(n, v)| format!("{n} {v:.4}")).collect::<Vec<_>>().join("  ")
        };
        println!(
            "pair {:>2} seed {seed} ({} first): parent {} [attempted {}, failed {}] | change {} \
             [attempted {}, failed {}]",
            i + 1,
            if parent_first { "parent" } else { "change" },
            values(&parent),
            parent.attempted,
            parent.failed,
            values(&change),
            change.attempted,
            change.failed
        );
        pairs.push((parent, change));
    }
    Ok(pairs)
}

/// The per-metric summary lines over completed pairs.
fn summarize(
    pairs: &[(RunOutput, RunOutput)],
    higher_better: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<14} {:>26} {:>26} {:>10}  {}",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "change won", "beyond IQR"
    )];
    let Some((first, _)) = pairs.first() else { return lines };
    for (name, _) in &first.metrics {
        let column = |side: fn(&(RunOutput, RunOutput)) -> &RunOutput| -> Vec<f64> {
            let value = |r: &RunOutput| r.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
            pairs.iter().map(|pair| value(side(pair)).unwrap_or(f64::NAN)).collect()
        };
        let (parent, change) = (column(|p| &p.0), column(|p| &p.1));
        // Signed so that a positive gain is an improvement.
        let sign = if higher_better(name) { 1.0 } else { -1.0 };
        let won = parent.iter().zip(&change).filter(|(p, c)| sign * (*c - *p) > 0.0).count();
        let quartiles = |xs: &[f64]| {
            format!(
                "{:.4} [{:.4}, {:.4}]",
                quantile(xs, 0.5),
                quantile(xs, 0.25),
                quantile(xs, 0.75)
            )
        };
        let gain = sign * (quantile(&change, 0.5) - quantile(&parent, 0.5));
        let iqr = quantile(&parent, 0.75) - quantile(&parent, 0.25);
        lines.push(format!(
            "{name:<14} {:>26} {:>26} {:>10}  {}",
            quartiles(&parent),
            quartiles(&change),
            format!("{won}/{}", pairs.len()),
            if gain > iqr { "yes" } else { "no" }
        ));
    }
    lines
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_pairs: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Absolute roots: each run's executable path must not depend on the
    // directory it runs in.
    for root in [&mut args.parent, &mut args.change] {
        match root.canonicalize() {
            Ok(abs) => *root = abs,
            Err(e) => {
                eprintln!("perf_pairs: {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
        let exe = root.join("perfbench/target/release/perfbench");
        if !exe.is_file() {
            eprintln!("perf_pairs: {} is missing; build perfbench in that checkout", exe.display());
            return ExitCode::from(2);
        }
    }
    if let Some(dir) = &args.log_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perf_pairs: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "perf_pairs: {}, {} pairs, seeds {}..={}, parent {}, change {}",
        args.workload,
        args.pairs,
        args.first_seed,
        args.first_seed + args.pairs - 1,
        args.parent.display(),
        args.change.display()
    );
    let pairs = match run_pairs(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perf_pairs: {e}");
            return ExitCode::from(1);
        }
    };
    println!();
    for line in summarize(&pairs, |metric| higher_is_better(&args.parent, metric)) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(peak: f64, loss: &str) -> String {
        format!(
            "perfbench: workload icews14, seed 7, untraced run\n\
             [train] setup 0.100 s, peak RSS 50.0 MB\n\
             \x20 count eval.entity_mrr = 0.123456789\n\
             \x20 count minor_faults = 1234\n\
             \x20 count train.mean_loss = {loss}\n\
             {{\"correct\":true,\"attempted\":400,\"failed\":0,\"metrics\":\
             {{\"setup_s\":{{\"value\":0.31,\"unit\":\"s\"}},\
             \"peak_rss_mb\":{{\"value\":{peak},\"unit\":\"MB\"}}}}}}\n"
        )
    }

    #[test]
    fn parses_the_summary_line_and_the_checked_counts() {
        let run = parse_output(&output(68.5, "4.25")).unwrap();
        assert_eq!(
            run,
            RunOutput {
                correct: true,
                attempted: 400,
                failed: 0,
                metrics: vec![("setup_s".into(), 0.31), ("peak_rss_mb".into(), 68.5)],
                counts: vec![
                    ("eval.entity_mrr".into(), "0.123456789".into()),
                    ("train.mean_loss".into(), "4.25".into())
                ],
            }
        );
        assert!(parse_output("no summary here").is_err());
    }

    #[test]
    fn counts_must_read_alike_on_both_sides() {
        let parent = parse_output(&output(68.5, "4.25")).unwrap();
        assert!(compare_counts(&parent, &parse_output(&output(65.0, "4.25")).unwrap()).is_ok());
        let err = compare_counts(&parent, &parse_output(&output(65.0, "4.2500001")).unwrap());
        assert!(err.unwrap_err().contains("train.mean_loss"));
        let mut missing = parse_output(&output(65.0, "4.25")).unwrap();
        missing.counts.clear();
        assert!(compare_counts(&parent, &missing).is_err());
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn summary_counts_wins_in_the_metrics_direction() {
        let pairs: Vec<(RunOutput, RunOutput)> = (0..4)
            .map(|i| {
                let p = parse_output(&output(68.0 + i as f64 * 0.1, "1")).unwrap();
                let c = parse_output(&output(64.0 + i as f64 * 0.1, "1")).unwrap();
                (p, c)
            })
            .collect();
        let lines = summarize(&pairs, |_| false);
        let peak = lines.iter().find(|l| l.starts_with("peak_rss_mb")).unwrap();
        assert!(peak.contains("4/4") && peak.ends_with("yes"), "{peak}");
        let setup = lines.iter().find(|l| l.starts_with("setup_s")).unwrap();
        assert!(setup.contains("0/4") && setup.ends_with("no"), "{setup}");
        let higher = summarize(&pairs, |_| true);
        assert!(higher.iter().any(|l| l.starts_with("peak_rss_mb") && l.contains("0/4")));
    }
}
