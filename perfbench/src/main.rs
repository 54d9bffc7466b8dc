//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload icews14 --seed 7 --seconds 40 --trace 0
//! ```
//!
//! One run executes the three scenarios — `train`, `serve_query` and
//! `serve_stream` — over the workload's dataset, each in a fresh process
//! (this binary re-invoked with `--scenario`), and prints every end-to-end
//! metric by name with its unit and sample count. `--trace 1` instead runs
//! each scenario untraced and then traced, and prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 1 when
//! an output check fails and 2 when a scenario could not run or its load
//! generator fell behind its schedule; neither of those prints the line.

mod host;
mod http;
mod load;
mod plan;
mod result;
mod schedule;
mod serve;
mod serve_query;
mod serve_stream;
mod spans;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use result::{Check, Metric, ScenarioResult};

/// The scenarios every run executes, in order.
const SCENARIOS: [&str; 3] = ["train", "serve_query", "serve_stream"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (see `plan::WORKLOADS`).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds; scales the `serve_query` phases.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Child mode: the one scenario to run.
    pub scenario: Option<String>,
    /// Child mode: stop after set-up.
    pub setup_only: bool,
    /// Where results, spans and scratch stores go.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

/// Seconds the plans are sized for; `--seconds` scales the serve phases.
pub const PLAN_SECONDS: f64 = 40.0;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: PLAN_SECONDS,
        trace: false,
        scenario: None,
        setup_only: false,
        out_dir: PathBuf::new(),
    };
    let mut seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            "--scenario" => args.scenario = Some(value.clone()),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    args.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    if plan::workload(&args.workload).is_none() {
        let names: Vec<&str> = plan::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown --workload {:?}: expected one of {names:?}", args.workload));
    }
    Ok(args)
}

/// Milliseconds since `t`.
pub fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The median self time of the spans named `span`, scaled from ms by
/// `scale`, as the layer metric `name` with its call count.
pub fn layer_metric(
    times: &BTreeMap<String, Vec<f64>>,
    span: &str,
    unit: &str,
    name: &str,
    scale: f64,
) -> Metric {
    let calls = times.get(span).map_or(&[][..], Vec::as_slice);
    let value = if calls.is_empty() { f64::NAN } else { stats::median(calls) * scale };
    Metric::new(name, unit, value, calls.len())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.scenario {
        Some(name) => run_scenario(&args, name, process_start),
        None => orchestrate(&args),
    }
}

/// Child mode: run one scenario and write its result file.
fn run_scenario(args: &Args, name: &str, process_start: Instant) -> ExitCode {
    let w = plan::workload(&args.workload).expect("workload validated by parse_args");
    let outcome = match name {
        "train" => train::run(args, w, process_start),
        "serve_query" => serve_query::run(args, w, process_start),
        "serve_stream" => serve_stream::run(args, w, process_start),
        other => Err(format!("unknown scenario {other}")),
    };
    let mut result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {name}: {e}");
            return ExitCode::from(2);
        }
    };
    result.peak_rss_mb = host::peak_rss_mb();
    result.counts.insert("tensor_threads".into(), retia_tensor::parallel::num_threads() as f64);
    result.counts.insert("minor_faults".into(), host::minor_faults());
    if let Some(m) = result.metrics.iter().chain(&result.layers).find(|m| !m.value.is_finite()) {
        eprintln!("perfbench {name}: {} measured no finite value", m.name);
        return ExitCode::from(2);
    }
    let path = args.out_dir.join(result_file(name, args.trace, args.setup_only));
    match std::fs::write(&path, result.to_json().to_string_pretty()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {name}: {}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}

fn result_file(scenario: &str, trace: bool, setup_only: bool) -> String {
    let mode = if setup_only {
        "setup"
    } else if trace {
        "traced"
    } else {
        "untraced"
    };
    format!("{scenario}-{mode}.json")
}

/// Runs one scenario in a fresh process and reads its result.
fn spawn(
    args: &Args,
    scenario: &str,
    trace: bool,
    setup_only: bool,
) -> Result<ScenarioResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--scenario", scenario, "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdout(Stdio::null());
    if setup_only {
        cmd.arg("--setup-only");
    }
    if scenario != "train" {
        cmd.env("RETIA_NUM_THREADS", plan::SERVE_TENSOR_THREADS.to_string());
    }
    let status = cmd.status().map_err(|e| format!("spawn {scenario}: {e}"))?;
    if !status.success() {
        return Err(format!("scenario {scenario} exited with {status}"));
    }
    let path = args.out_dir.join(result_file(scenario, trace, setup_only));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = retia_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    ScenarioResult::from_json(&value)
        .ok_or_else(|| format!("{}: not a scenario result", path.display()))
}

/// One run: every scenario in its own process, then the report.
fn orchestrate(args: &Args) -> ExitCode {
    let mut args = args.clone();
    args.out_dir = PathBuf::from(".perfbench").join(format!(
        "{}-seed{}-trace{}-{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench: workload {}, seed {}, {} run",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let host: Vec<String> =
        host::fingerprint(args.seed).into_iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("host: {}", host.join("  "));

    let Runs { untraced, traced, setups, rejected } = match run_all(&args) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    for r in &rejected {
        println!("\n[{}] attempt set aside: its load generator fell behind", r.scenario);
        print_phases(r);
    }
    let mut checks: Vec<Check> = Vec::new();
    for r in untraced.iter().chain(&traced) {
        println!("\n[{}] setup {:.3} s, peak RSS {:.1} MB", r.scenario, r.setup_s, r.peak_rss_mb);
        for c in &r.checks {
            println!("  check {}: {} ({})", if c.ok { "ok  " } else { "FAIL" }, c.name, c.detail);
            checks.push(c.clone());
        }
        print_phases(r);
        for (k, v) in &r.counts {
            println!("  count {k} = {v}");
        }
        for w in &r.warnings {
            println!("  warning: {w}");
        }
    }

    let unmeasured: Vec<&str> = untraced
        .iter()
        .chain(&traced)
        .filter(|r| !measured(r))
        .map(|r| r.scenario.as_str())
        .collect();
    let attempted: u64 = untraced.iter().map(|r| r.attempted).sum();
    let failed: u64 = untraced.iter().map(|r| r.failed).sum();
    let metrics = if args.trace {
        layer_report(&untraced, &traced)
    } else {
        end_to_end(&untraced, &setups, attempted, failed)
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} measured no finite value", m.name);
        return ExitCode::from(2);
    }
    // Untraced, the summary line carries only the gated metrics; the rest
    // print in the table (see `plan::GATED`).
    let gated = |m: &Metric| args.trace || plan::GATED.contains(&m.name.as_str());
    println!("\n{:<36} {:>14}  {:<10} {:>8}", "metric", "value", "unit", "samples");
    for m in &metrics {
        let note = if gated(m) { "" } else { "  (reported, not gated)" };
        println!("{:<36} {:>14.6}  {:<10} {:>8}{note}", m.name, m.value, m.unit, m.samples);
    }
    if !unmeasured.is_empty() {
        eprintln!(
            "perfbench: the load generator fell behind its schedule in {unmeasured:?}; \
             their metrics are left out and the run measured nothing"
        );
        return ExitCode::from(2);
    }
    let correct = checks.iter().all(|c| c.ok);
    if !correct {
        println!("\noutput checks failed: {}", checks.iter().filter(|c| !c.ok).count());
    }
    let summary: Vec<Metric> = metrics.into_iter().filter(|m| gated(m)).collect();
    println!("{}", result::summary_line(correct, attempted.max(1), failed, &summary));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_phases(r: &ScenarioResult) {
    for p in &r.phases {
        println!(
            "  phase {:<9} rate {:>7.1}/s  sent {:>5}  ok {:>5}  failed {:>3}  shed {:>3}  lag p90 {:.3} ms p99 {:.3} ms max {:.3} ms  {}",
            p.name, p.rate, p.sent, p.succeeded, p.failed, p.shed, p.lag_p90_ms, p.lag_p99_ms, p.lag_max_ms,
            if p.valid { "valid" } else { "INVALID: generator fell behind" }
        );
    }
}

/// What one run's scenario processes returned.
#[derive(Default)]
struct Runs {
    untraced: Vec<ScenarioResult>,
    traced: Vec<ScenarioResult>,
    /// Set-up times per scenario, s.
    setups: BTreeMap<&'static str, Vec<f64>>,
    /// Attempts set aside because their load generator fell behind.
    rejected: Vec<ScenarioResult>,
}

/// Every scenario, each in fresh processes: the untraced runs (with extra
/// set-up-only runs when untraced), then the traced runs when tracing.
fn run_all(args: &Args) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for scenario in SCENARIOS {
        let samples = runs.setups.entry(scenario).or_default();
        if !args.trace {
            for _ in 1..plan::SETUP_SAMPLES {
                samples.push(spawn(args, scenario, false, true)?.setup_s);
            }
        }
        let r = measure(args, scenario, false, &mut runs.rejected)?;
        samples.push(r.setup_s);
        runs.untraced.push(r);
        if args.trace {
            runs.traced.push(measure(args, scenario, true, &mut runs.rejected)?);
        }
    }
    Ok(runs)
}

/// Runs a measuring scenario process, and again in a fresh one while its
/// load generator fell behind, up to `plan::ATTEMPTS` processes in all. The
/// attempts set aside go to `rejected`; the last one comes back whether or
/// not it kept to its schedule.
fn measure(
    args: &Args,
    scenario: &str,
    trace: bool,
    rejected: &mut Vec<ScenarioResult>,
) -> Result<ScenarioResult, String> {
    for _ in 1..plan::ATTEMPTS {
        let r = spawn(args, scenario, trace, false)?;
        if measured(&r) {
            return Ok(r);
        }
        rejected.push(r);
    }
    spawn(args, scenario, trace, false)
}

/// Whether every load phase of `r` kept to its schedule. Where the
/// generator fell behind, the latencies time the generator, not the
/// program, so that scenario's metrics are left out of the report.
fn measured(r: &ScenarioResult) -> bool {
    r.phases.iter().all(|p| p.valid)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    runs: &[ScenarioResult],
    setups: &BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let setup: f64 = setups.values().map(|s| stats::median(s)).sum();
    let samples: usize = setups.values().map(Vec::len).sum();
    let mut out = vec![
        Metric::new("setup_s", "s", setup, samples),
        Metric::new(
            "peak_rss_mb",
            "MB",
            runs.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
            runs.len(),
        ),
        Metric::new(
            "failed_ratio",
            "fraction",
            failed as f64 / attempted.max(1) as f64,
            attempted as usize,
        ),
    ];
    for r in runs.iter().filter(|r| measured(r)) {
        out.extend(r.metrics.iter().cloned());
    }
    out
}

/// The per-layer metrics of a traced run, plus each serve scenario's
/// tracing overhead against its untraced run.
fn layer_report(untraced: &[ScenarioResult], traced: &[ScenarioResult]) -> Vec<Metric> {
    let find = |runs: &[ScenarioResult], scenario: &str, metric: &str| {
        runs.iter()
            .find(|r| r.scenario == scenario && measured(r))
            .and_then(|r| r.metric(metric))
            .map(|m| m.value)
    };
    let mut out: Vec<Metric> =
        traced.iter().filter(|r| measured(r)).flat_map(|r| r.layers.iter().cloned()).collect();

    for (scenario, metric) in
        [("serve_query", "query_p50_ms.low"), ("serve_stream", "ingest_p50_ms")]
    {
        let (Some(t), Some(u)) = (find(traced, scenario, metric), find(untraced, scenario, metric))
        else {
            continue;
        };
        out.push(Metric::new(
            &format!("obs.trace_overhead_pct.{scenario}"),
            "%",
            (t - u) / u * 100.0,
            1,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use result::Phase;

    fn scenario(name: &str, metric: &str, valid: bool) -> ScenarioResult {
        ScenarioResult {
            scenario: name.to_string(),
            metrics: vec![Metric::new(metric, "ms", 20.0, 120)],
            layers: vec![Metric::new(&format!("{name}.layer"), "ms", 1.0, 120)],
            phases: vec![Phase {
                name: "low".to_string(),
                rate: 12.0,
                sent: 120,
                succeeded: 120,
                failed: 0,
                shed: 0,
                lag_p90_ms: if valid { 0.3 } else { 15.0 },
                lag_p99_ms: if valid { 0.5 } else { 25.0 },
                lag_max_ms: if valid { 1.0 } else { 40.0 },
                valid,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn a_phase_whose_generator_fell_behind_keeps_its_metrics_out() {
        let runs = [
            scenario("serve_query", "query_p50_ms.low", false),
            scenario("serve_stream", "ingest_p50_ms", true),
        ];
        let names = |ms: Vec<Metric>| ms.into_iter().map(|m| m.name).collect::<Vec<_>>();
        let e2e = names(end_to_end(&runs, &BTreeMap::new(), 240, 0));
        assert!(!e2e.iter().any(|n| n == "query_p50_ms.low"), "{e2e:?}");
        assert!(e2e.iter().any(|n| n == "ingest_p50_ms"), "{e2e:?}");

        let layers = names(layer_report(&runs, &runs));
        assert!(!layers.iter().any(|n| n.starts_with("serve_query")), "{layers:?}");
        assert!(!layers.iter().any(|n| n.ends_with(".serve_query")), "{layers:?}");
        assert!(layers.iter().any(|n| n == "serve_stream.layer"), "{layers:?}");
        assert!(layers.iter().any(|n| n == "obs.trace_overhead_pct.serve_stream"), "{layers:?}");
    }
}
