//! Subcommand implementations.

use std::path::{Path, PathBuf};

use retia::{Retia, RetiaConfig, Split, TkgContext, Trainer};
use retia_data::{
    characterize, load_dataset, save_dataset, DatasetProfile, SyntheticConfig, TkgDataset,
};
use retia_obs::{event, Level};

use crate::args::Args;

fn load_data(args: &Args) -> Result<TkgDataset, String> {
    let dir = PathBuf::from(args.require("data")?);
    load_dataset(&dir).map_err(|e| e.to_string())
}

/// Loads the dataset from `--store DIR` (the durable store, split 80/10/10
/// by timestamp exactly like a generated dataset) or from `--data DIR`.
fn load_data_or_store(args: &Args) -> Result<TkgDataset, String> {
    match args.get("store") {
        Some(dir) => {
            let store = retia_store::Store::open(Path::new(dir)).map_err(|e| e.to_string())?;
            Ok(store.dataset())
        }
        None => load_data(args),
    }
}

/// Options [`init_obs`] reads; every command that runs a model takes them.
const OBS: &[&str] = &["log-level", "trace-out"];
/// Hyperparameters [`model_config_from`] reads (plus `--no-tim`, `--no-eam`).
const MODEL: &[&str] =
    &["dim", "k", "channels", "epochs", "lr", "lambda", "seed", "static-weight", "patience"];
/// Continual-learning options [`parse_online_options`] reads.
const ONLINE: &[&str] =
    &["online-steps", "online-interval-ms", "max-staleness", "drift-threshold", "drift-window"];
/// Server knobs of `serve` and of the server `loadtest` self-hosts.
const SERVER: &[&str] = &["workers", "queue-cap"];

/// The sinks [`init_obs`] installed; [`finish_obs`] detaches them.
struct ObsSinks {
    trace: Option<retia_obs::SinkId>,
    breakdown: Option<(retia_obs::SinkId, retia_obs::report::BreakdownSink)>,
}

/// Applies the shared observability options: `--log-level` overrides the
/// `RETIA_LOG` stderr verbosity (at `debug` and above it also turns on the
/// kernel timers), and `--trace-out FILE` installs a JSONL sink receiving
/// every span and event. With `breakdown`, a live breakdown sink folds the
/// same spans into the module table [`finish_obs`] prints.
fn init_obs(args: &Args, breakdown: bool) -> Result<ObsSinks, String> {
    if let Some(level) = args.get("log-level") {
        retia_obs::set_log_level(Level::parse(level).map_err(|e| format!("--log-level: {e}"))?);
    }
    retia_obs::set_kernel_timing(retia_obs::log_level() >= Level::Debug);
    let trace = match args.get("trace-out") {
        None => None,
        Some(path) => {
            let sink = retia_obs::JsonlSink::create(Path::new(path))
                .map_err(|e| format!("--trace-out {path}: {e}"))?;
            Some(retia_obs::add_sink(Box::new(sink)))
        }
    };
    let breakdown = breakdown.then(|| {
        let live = retia_obs::report::BreakdownSink::default();
        (retia_obs::add_sink(Box::new(live.clone())), live)
    });
    Ok(ObsSinks { trace, breakdown })
}

/// Flushes and detaches the sinks installed by [`init_obs`], then prints
/// the live breakdown: the rows `retia report` prints for this run's
/// `--trace-out` file. Kernel timers, when on, print as a table of their
/// own, outside the module shares.
fn finish_obs(sinks: ObsSinks) {
    retia_obs::flush_sinks();
    if let Some(id) = sinks.trace {
        retia_obs::remove_sink(id);
    }
    let Some((id, live)) = sinks.breakdown else { return };
    retia_obs::remove_sink(id);
    let rows = live.rows();
    if !rows.is_empty() {
        println!("\nper-module wall clock:");
        print!("{}", retia_obs::report::render_breakdown(&rows));
    }
    let kernels = retia_obs::kernel_timing_snapshot();
    if !kernels.is_empty() {
        println!("\nper-kernel wall clock (inside the module rows above):");
        print!("{}", retia_obs::report::render_breakdown(&kernels));
    }
}

/// `retia generate --profile P --out DIR [--seed N]`.
pub fn generate(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[], &[&["profile", "out", "seed"]])?;
    let profile = args.require("profile")?;
    let out = PathBuf::from(args.require("out")?);
    let mut cfg = match profile {
        "icews14" => SyntheticConfig::profile(DatasetProfile::Icews14),
        "icews0515" => SyntheticConfig::profile(DatasetProfile::Icews0515),
        "icews18" => SyntheticConfig::profile(DatasetProfile::Icews18),
        "yago" => SyntheticConfig::profile(DatasetProfile::Yago),
        "wiki" => SyntheticConfig::profile(DatasetProfile::Wiki),
        "tiny" => SyntheticConfig::tiny(0),
        other => return Err(format!("unknown profile `{other}`")),
    };
    if let Some(seed) = args.get("seed") {
        cfg.seed = seed.parse().map_err(|e| format!("bad --seed: {e}"))?;
    }
    let ds = cfg.generate();
    ds.validate()?;
    save_dataset(&out, &ds).map_err(|e| e.to_string())?;
    let s = ds.stats();
    println!(
        "wrote `{}` to {}: {} entities, {} relations, {} timestamps, {}/{}/{} facts",
        ds.name,
        out.display(),
        s.entities,
        s.relations,
        s.timestamps,
        s.train,
        s.valid,
        s.test
    );
    Ok(())
}

/// `retia stats --data DIR` or `retia stats --store DIR` (store summary +
/// deterministic graph analytics).
pub fn stats(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[], &[&["data", "store"]])?;
    if args.get("store").is_some() {
        return crate::store_commands::store_stats(&args);
    }
    let ds = load_data(&args)?;
    let s = ds.stats();
    println!("dataset      : {}", ds.name);
    println!("entities     : {}", s.entities);
    println!("relations    : {}", s.relations);
    println!("timestamps   : {}", s.timestamps);
    println!("granularity  : {}", ds.granularity);
    println!("train/valid/test facts: {}/{}/{}", s.train, s.valid, s.test);
    let c = characterize(&ds);
    println!("temporal structure:");
    println!("  test repetition rate : {:5.1}%", c.test_repetition_rate * 100.0);
    println!("  test persistence rate: {:5.1}%", c.test_persistence_rate * 100.0);
    println!("  test unseen rate     : {:5.1}%", c.test_unseen_rate * 100.0);
    println!("  mean occurrences/triple: {:.2}", c.mean_occurrences);
    println!("  mean facts/timestamp   : {:.1}", c.mean_snapshot_size);
    Ok(())
}

fn model_config_from(args: &Args) -> Result<RetiaConfig, String> {
    let mut cfg = RetiaConfig {
        dim: args.get_or("dim", 32usize)?,
        k: args.get_or("k", 3usize)?,
        channels: args.get_or("channels", 16usize)?,
        epochs: args.get_or("epochs", 10usize)?,
        lr: args.get_or("lr", 1e-3f32)?,
        lambda: args.get_or("lambda", 0.7f32)?,
        seed: args.get_or("seed", 42u64)?,
        static_weight: args.get_or("static-weight", 0.0f32)?,
        patience: args.get_or("patience", 0usize)?,
        online: false,
        ..Default::default()
    };
    if args.flag("no-tim") {
        cfg.use_tim = false;
    }
    if args.flag("no-eam") {
        cfg.use_eam = false;
    }
    cfg.validate()?;
    Ok(cfg)
}

/// `retia audit [--data DIR] [--all-configs] [hyperparameters...]`: static
/// audit of one full training step — shape and index-space checks,
/// interval/finiteness abstract interpretation, gradient-flow reachability
/// from the loss, and reduction-order declarations — without touching any
/// floating-point tensor data. Reports every finding with the module and
/// paper-equation name, in milliseconds even at paper scale. With
/// `--all-configs`, sweeps every relation/hyperrelation ablation mode the
/// paper exercises.
pub fn audit(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["no-tim", "no-eam", "all-configs"], &[&["data"], MODEL])?;
    let cfg = model_config_from(&args)?;
    let (name, n, m) = match args.get("data") {
        Some(_) => {
            let ds = load_data(&args)?;
            (ds.name.clone(), ds.num_entities, ds.num_relations)
        }
        // No dataset on hand: audit against a stand-in shape (the findings
        // this catches are independent of N and M).
        None => ("stand-in shape".to_string(), 128, 16),
    };
    let start = std::time::Instant::now();
    if args.flag("all-configs") {
        let mut ops = 0usize;
        let mut configs = 0usize;
        for (cfg, report) in retia::audit_ablation_grid(&cfg, n, m) {
            if !report.is_clean() {
                return Err(format!(
                    "audit failed for {} against `{name}` ({n} entities, {m} relations):\n{report}",
                    cfg.ablation_label()
                ));
            }
            ops += report.ops_checked;
            configs += 1;
        }
        println!(
            "ok: {ops} ops audited across {configs} configurations against \
             `{name}` ({n} entities, {m} relations) in {:.1?}",
            start.elapsed()
        );
        return Ok(());
    }
    let report = retia::audit_config(&cfg, n, m);
    if report.is_clean() {
        println!(
            "ok: {} ops audited against `{name}` ({n} entities, {m} relations) in \
             {:.1?} — {} param(s) declared, {} reached, {} declared detach(es)",
            report.ops_checked,
            start.elapsed(),
            report.params_declared,
            report.params_reached,
            report.detaches.len()
        );
        Ok(())
    } else {
        Err(format!("audit failed against `{name}` ({n} entities, {m} relations):\n{report}"))
    }
}

/// `retia train (--data DIR | --store DIR) --out FILE [--resume DIR]
/// [--checkpoint-dir DIR] [hyperparameters...]`. With `--store`, the
/// training stream is the durable store's fact history (same 80/10/10
/// timestamp split a generated dataset gets).
pub fn train(raw: &[String]) -> Result<(), String> {
    let own = ["data", "store", "out", "resume", "checkpoint-dir", "checkpoint-every", "keep"];
    let args = Args::parse(raw, &["no-tim", "no-eam", "no-recovery"], &[&own, MODEL, OBS])?;
    let obs = init_obs(&args, true)?;
    let ds = load_data_or_store(&args)?;
    let out = PathBuf::from(args.require("out")?);
    let ctx = TkgContext::new(&ds);

    // Progress goes through the tracing pipeline (stderr at the RETIA_LOG
    // level plus any --trace-out sink); per-epoch losses are emitted live by
    // the trainer itself. Stdout stays reserved for the result tables.
    let mut trainer = match args.get("resume") {
        Some(dir) => {
            // Architecture and hyperparameters come from the checkpoint's
            // embedded config; only --epochs may override, to extend a
            // finished run.
            let dir = PathBuf::from(dir);
            let mut t =
                Trainer::resume(&dir, &ds).map_err(|e| format!("{}: {e}", dir.display()))?;
            if let Some(epochs) = args.get("epochs") {
                t.cfg.epochs = epochs.parse().map_err(|e| format!("bad --epochs: {e}"))?;
            }
            event!(
                Level::Info,
                "train.resume",
                epochs_done = t.epochs_done(),
                steps = t.steps(),
                epochs = t.cfg.epochs;
                format!(
                    "resumed from {} at epoch {}/{} (step {})",
                    dir.display(),
                    t.epochs_done(),
                    t.cfg.epochs,
                    t.steps()
                )
            );
            t
        }
        None => {
            let cfg = model_config_from(&args)?;
            let model = Retia::new(&cfg, &ds);
            event!(
                Level::Info,
                "train.start",
                parameters = model.num_parameters(),
                k = cfg.k,
                epochs = cfg.epochs;
                format!(
                    "training RETIA on `{}`: {} parameters, k={}, {} epochs",
                    ds.name,
                    model.num_parameters(),
                    cfg.k,
                    cfg.epochs
                )
            );
            Trainer::new(model, cfg)
        }
    };

    // Divergence recovery is on by default: skip non-finite steps, roll
    // back after a streak, abort when the retry budget runs out.
    // --no-recovery restores the reference warn-only behavior.
    if !args.flag("no-recovery") {
        trainer.set_recovery(Some(retia::RecoveryPolicy::default()));
    }
    // RETIA_CHAOS (e.g. `grad-nan@5;grad-inf@10-12`) arms deterministic
    // fault injection for testing the recovery machinery end to end.
    let chaos = retia_analyze::ChaosPlan::from_env().map_err(|e| format!("RETIA_CHAOS: {e}"))?;
    if !chaos.is_empty() {
        event!(
            Level::Warn,
            "chaos.armed";
            "RETIA_CHAOS fault plan armed: this run will inject gradient faults"
        );
        trainer.set_chaos(chaos);
    }
    // Periodic full-train-state checkpoints. Resumed runs keep saving into
    // their source directory unless --checkpoint-dir says otherwise.
    let ckpt_dir = args
        .get("checkpoint-dir")
        .map(PathBuf::from)
        .or_else(|| args.get("resume").map(PathBuf::from));
    if let Some(dir) = ckpt_dir {
        let mut policy = retia::CheckpointPolicy::new(dir);
        policy.every_epochs = args.get_or("checkpoint-every", 1usize)?;
        policy.keep = args.get_or("keep", 3usize)?;
        trainer.set_checkpointing(Some(policy));
    }

    trainer.try_fit(&ctx).map_err(|e| e.to_string())?;
    let report = trainer.evaluate_offline(&ctx, Split::Valid);
    println!("validation: {}", report.entity_raw);

    trainer.save_model(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("saved model to {}", out.display());
    finish_obs(obs);
    Ok(())
}

/// The model file `--model` names (what `train --out` writes, or a
/// train-state checkpoint), built for `ds`.
fn load_model(args: &Args, ds: &TkgDataset) -> Result<Retia, String> {
    let path = PathBuf::from(args.require("model")?);
    Retia::load(&path, ds).map_err(|e| format!("{}: {e}", path.display()))
}

/// `retia evaluate --data DIR --model FILE [--split valid|test] [--online] [--filtered]`.
pub fn evaluate(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["online", "filtered"], &[&["data", "model", "split"], OBS])?;
    let obs = init_obs(&args, true)?;
    let ds = load_data(&args)?;
    let model = load_model(&args, &ds)?;
    let cfg = RetiaConfig { online: args.flag("online"), ..model.cfg.clone() };
    let split = match args.get("split").unwrap_or("test") {
        "valid" => Split::Valid,
        "test" => Split::Test,
        other => return Err(format!("unknown split `{other}`")),
    };
    let ctx = TkgContext::new(&ds);
    let mut trainer = Trainer::new(model, cfg);
    let report = trainer.evaluate(&ctx, split);
    if args.flag("filtered") {
        println!("entity   (time-filtered): {}", report.entity_filtered);
        println!("relation (time-filtered): {}", report.relation_filtered);
    } else {
        println!("entity   (raw): {}", report.entity_raw);
        println!("relation (raw): {}", report.relation_raw);
    }
    finish_obs(obs);
    Ok(())
}

/// Parses a comma-separated `--slo` list. Each entry is
/// `name:objective:threshold_ms[:window_s]` — e.g. `query:99:50` ("99% of
/// query requests under 50ms") or `query:0.999:25:600`. `name` doubles as
/// the endpoint label: the server evaluates the objective against the
/// `serve.request_ms.<name>` histogram. The objective accepts a percentile
/// (`99`, `99.9`) or a fraction (`0.99`); the window defaults to 300s.
fn parse_slos(spec: &str) -> Result<Vec<retia_serve::SloSpec>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').collect();
        if !(3..=4).contains(&parts.len()) {
            return Err(format!(
                "bad --slo entry `{entry}`: expected name:objective:threshold_ms[:window_s]"
            ));
        }
        let name = parts[0].to_string();
        if name.is_empty() {
            return Err(format!("bad --slo entry `{entry}`: empty name"));
        }
        let mut objective: f64 =
            parts[1].parse().map_err(|e| format!("bad --slo objective in `{entry}`: {e}"))?;
        if objective > 1.0 {
            objective /= 100.0; // percentile spelling: 99 -> 0.99
        }
        if !(0.0..1.0).contains(&objective) {
            return Err(format!(
                "bad --slo objective in `{entry}`: must be a fraction in [0, 1) or a \
                 percentile in (1, 100)"
            ));
        }
        let threshold_ms: f64 =
            parts[2].parse().map_err(|e| format!("bad --slo threshold in `{entry}`: {e}"))?;
        if !threshold_ms.is_finite() || threshold_ms <= 0.0 {
            return Err(format!("bad --slo threshold in `{entry}`: must be positive"));
        }
        let window_s: f64 = match parts.get(3) {
            None => 300.0,
            Some(w) => w.parse().map_err(|e| format!("bad --slo window in `{entry}`: {e}"))?,
        };
        if !window_s.is_finite() || window_s <= 0.0 {
            return Err(format!("bad --slo window in `{entry}`: must be positive"));
        }
        out.push(retia_serve::SloSpec {
            metric: format!("serve.request_ms.{name}"),
            name,
            objective,
            threshold_ms,
            window_s,
        });
    }
    Ok(out)
}

/// Builds the continual-learning options for `serve --online` /
/// `loadtest --online` from the shared flag set, arming `RETIA_CHAOS`
/// fault injection against the online trainer when the env var is set.
fn parse_online_options(args: &Args) -> Result<retia_serve::OnlineOptions, String> {
    let d = retia_serve::OnlineOptions::default();
    let chaos = retia_analyze::ChaosPlan::from_env().map_err(|e| format!("RETIA_CHAOS: {e}"))?;
    if !chaos.is_empty() {
        event!(
            Level::Warn,
            "chaos.armed";
            "RETIA_CHAOS fault plan armed: the online trainer will inject faults"
        );
    }
    Ok(retia_serve::OnlineOptions {
        steps: args.get_or("online-steps", d.steps)?,
        interval: std::time::Duration::from_millis(
            args.get_or("online-interval-ms", d.interval.as_millis() as u64)?,
        ),
        max_staleness: args.get_or("max-staleness", d.max_staleness)?,
        drift_threshold: args.get_or("drift-threshold", d.drift_threshold)?,
        drift_window: args.get_or("drift-window", d.drift_window)?,
        chaos,
    })
}

/// `retia serve (--data DIR | --store DIR) --model FILE [--port N]
/// [--host H] [--workers N] [--online]`: online inference over HTTP from a
/// model file. With `--store` the boot window comes from the
/// durable store (the same snapshots `train --store` saw) and every
/// accepted ingest is appended to it before the window advances.
/// `--online` adds the isolated continual trainer (atomic swaps, drift
/// rollback; tune with `--online-steps`, `--online-interval-ms`,
/// `--max-staleness`, `--drift-threshold`, `--drift-window`).
pub fn serve(raw: &[String]) -> Result<(), String> {
    let own = ["data", "store", "model", "port", "host", "slo", "trace-slow-ms", "trace-sample"];
    let args = Args::parse(raw, &["online"], &[&own, SERVER, OBS, ONLINE])?;
    let obs = init_obs(&args, false)?;
    let ds = load_data_or_store(&args)?;
    let model = load_model(&args, &ds)?;
    // The window keeps the newest `k` snapshots and builds their
    // hypergraphs itself; nothing older is built.
    let window = ds.last_snapshots(model.cfg.k);

    let port: u16 = args.get_or("port", 8080u16)?;
    let host = args.get_or("host", "127.0.0.1".to_string())?;
    let defaults = retia_serve::ServeConfig::default();
    let cfg = retia_serve::ServeConfig {
        addr: format!("{host}:{port}"),
        workers: args.get_or("workers", 4usize)?,
        queue_cap: args.get_or("queue-cap", defaults.queue_cap)?,
        slos: match args.get("slo") {
            Some(spec) => parse_slos(spec)?,
            None => Vec::new(),
        },
        trace_slow_ms: args.get_or("trace-slow-ms", defaults.trace_slow_ms)?,
        trace_sample_every: args.get_or("trace-sample", defaults.trace_sample_every)?,
        online: if args.flag("online") { Some(parse_online_options(&args)?) } else { None },
        // `--store` is both the boot source (above) and the append target.
        store: args.get("store").map(PathBuf::from),
        ..defaults
    };
    let server = retia_serve::Server::start(retia::FrozenModel::new(model), window, &cfg)
        .map_err(|e| format!("{}: {e}", cfg.addr))?;
    // The smoke test and scripts discover the ephemeral port from this line;
    // keep its shape stable.
    println!("listening on http://{}", server.addr());
    println!(
        "endpoints: POST /v1/query  POST /v1/ingest  GET /healthz  GET /metrics  \
         GET /v1/traces  GET /v1/drift  POST /admin/shutdown"
    );
    if cfg.online.is_some() {
        println!("online continual trainer enabled (watch GET /v1/drift and /healthz)");
    }
    server.wait();
    println!("drained and stopped");
    finish_obs(obs);
    Ok(())
}

/// Self-hosts the loadtest's tiny synthetic server on an ephemeral port,
/// optionally with the continual trainer enabled. Returns the server plus
/// the id spaces the generator may draw from.
fn self_host_tiny(
    args: &Args,
    online: Option<retia_serve::OnlineOptions>,
) -> Result<(retia_serve::Server, u32, u32), String> {
    let ds = SyntheticConfig::tiny(7).generate();
    let cfg = RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() };
    let model = Retia::new(&cfg, &ds);
    let defaults = retia_serve::ServeConfig::default();
    let scfg = retia_serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: args.get_or("workers", 4usize)?,
        queue_cap: args.get_or("queue-cap", defaults.queue_cap)?,
        online,
        ..defaults
    };
    let window = ds.last_snapshots(cfg.k);
    let server = retia_serve::Server::start(retia::FrozenModel::new(model), window, &scfg)
        .map_err(|e| format!("{}: {e}", scfg.addr))?;
    Ok((server, ds.num_entities as u32, ds.num_relations as u32))
}

/// `retia loadtest [--addr HOST:PORT] [--connections LIST] [--requests N]
/// [--ingest-every N] [--k N] [--out FILE]`: replay a synthetic query/ingest
/// mix over keep-alive connections at a ladder of concurrency levels and
/// write p50/p99/QPS per level as `BENCH_serve.json`.
///
/// Without `--addr` it self-hosts a tiny untrained model on an ephemeral
/// port (so CI can smoke the whole serving stack with one command); the
/// self-hosted server honors `--workers` and `--queue-cap`. Exits nonzero
/// if any response was a 5xx or no request succeeded at all.
pub fn loadtest(raw: &[String]) -> Result<(), String> {
    // The ladder's shape, then an `--addr` target and its id spaces.
    let ladder = ["connections", "requests", "ingest-every", "k", "out", "slo"];
    let target = ["addr", "entities", "relations"];
    let args = Args::parse(raw, &["online"], &[&ladder, &target, SERVER, ONLINE])?;
    let online = args.flag("online");
    let levels: Vec<usize> = args
        .get("connections")
        .unwrap_or("1,2,4,8,16,32,64")
        .split(',')
        .map(|s| s.trim().parse::<usize>().map_err(|e| format!("bad --connections `{s}`: {e}")))
        .collect::<Result<_, _>>()?;
    let out = PathBuf::from(args.get("out").unwrap_or("BENCH_serve.json"));
    if online && args.get("addr").is_some() {
        return Err(
            "--online self-hosts its train-active server; it cannot target --addr".to_string()
        );
    }

    // Target a live server, or self-host a tiny synthetic one on port 0.
    let (addr, entities, relations, server) = match args.get("addr") {
        Some(a) => {
            let addr = a.parse().map_err(|e| format!("bad --addr `{a}`: {e}"))?;
            // Ids 0..entities must be valid on the target server; the
            // defaults stay minimal so any model accepts them.
            (addr, args.get_or("entities", 1u32)?, args.get_or("relations", 1u32)?, None)
        }
        None => {
            let (server, entities, relations) = self_host_tiny(&args, None)?;
            println!("self-hosted tiny model at http://{}", server.addr());
            (server.addr(), entities, relations, Some(server))
        }
    };

    let cfg = retia_serve::loadtest::LoadtestConfig {
        addr,
        levels,
        requests_per_conn: args.get_or("requests", 50usize)?,
        ingest_every: args.get_or("ingest-every", 25usize)?,
        k: args.get_or("k", 5usize)?,
        entities,
        relations,
        slos: match args.get("slo") {
            Some(spec) => parse_slos(spec)?,
            None => Vec::new(),
        },
        ..Default::default()
    };
    let result = retia_serve::loadtest::run(&cfg);
    if let Some(server) = server {
        server.shutdown();
    }
    let report = result?;

    // `--online`: a second identical ladder against a self-hosted server
    // whose continual trainer is live — every ingest wakes a training round
    // and atomic swaps land under query load, so the `train_active` section
    // measures serving latency with training concurrency.
    let train_active = if online {
        let (server, _, _) = self_host_tiny(&args, Some(parse_online_options(&args)?))?;
        println!("train-active pass (online trainer enabled) at http://{}", server.addr());
        let active_cfg =
            retia_serve::loadtest::LoadtestConfig { addr: server.addr(), ..cfg.clone() };
        let result = retia_serve::loadtest::run(&active_cfg);
        server.shutdown();
        Some(result?)
    } else {
        None
    };

    println!(
        "{:>5}  {:>9}  {:>8}  {:>8}  {:>9}  {:>4}  {:>4}",
        "conns", "qps", "p50_ms", "p99_ms", "completed", "429", "5xx"
    );
    for l in &report.levels {
        println!(
            "{:>5}  {:>9.1}  {:>8.2}  {:>8.2}  {:>9}  {:>4}  {:>4}",
            l.connections, l.qps, l.p50_ms, l.p99_ms, l.completed, l.shed_429, l.status_5xx
        );
    }
    if let Some(active) = &train_active {
        println!("train-active (continual trainer running):");
        for l in &active.levels {
            println!(
                "{:>5}  {:>9.1}  {:>8.2}  {:>8.2}  {:>9}  {:>4}  {:>4}",
                l.connections, l.qps, l.p50_ms, l.p99_ms, l.completed, l.shed_429, l.status_5xx
            );
        }
    }
    let mut doc = report.to_json(&cfg);
    if let Some(active) = &train_active {
        let mut section = retia_json::Value::object();
        section.insert("levels", active.levels_json());
        doc.insert("train_active", section);
    }
    std::fs::write(&out, doc.to_string_compact()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());

    if !cfg.slos.is_empty() {
        println!("SLO verdicts (client-measured latencies):");
        for l in &report.levels {
            for s in &l.slos {
                println!(
                    "  {:>5} conns  {:<12} {:>6.2}% <= {:>7.2}ms  (objective {:>6.2}%)  \
                     burn {:>6.2}x  {}",
                    l.connections,
                    s.name,
                    s.compliance * 100.0,
                    s.threshold_ms,
                    s.objective * 100.0,
                    s.burn,
                    if s.burning { "BURNING" } else { "ok" }
                );
            }
        }
    }

    if report.total_completed() == 0 {
        return Err("loadtest failed: no request succeeded".to_string());
    }
    if report.total_5xx() > 0 {
        return Err(format!("loadtest failed: {} responses were 5xx", report.total_5xx()));
    }
    if let Some(active) = &train_active {
        // The fault-isolation contract: a live trainer must never surface
        // as 5xx (or total failure) on the serving path.
        if active.total_completed() == 0 {
            return Err("loadtest failed: no request succeeded while training".to_string());
        }
        if active.total_5xx() > 0 {
            return Err(format!(
                "loadtest failed: {} responses were 5xx while training",
                active.total_5xx()
            ));
        }
    }
    let burning = report.burning_slos();
    if !burning.is_empty() {
        return Err(format!("loadtest failed: SLO burn\n  {}", burning.join("\n  ")));
    }
    Ok(())
}

/// `retia report --trace FILE [--requests]`: per-module time breakdown of a
/// JSONL trace, or — with `--requests` — per-request stage trees from a
/// saved `GET /v1/traces` document (`curl .../v1/traces > traces.json`).
pub fn report(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["requests"], &[&["trace"]])?;
    let path = PathBuf::from(args.require("trace")?);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if args.flag("requests") {
        let doc = retia_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let rendered = retia_obs::report::render_requests(&doc)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        print!("{rendered}");
        return Ok(());
    }
    let events =
        retia_obs::report::parse_trace(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = retia_obs::report::module_breakdown(&events);
    if rows.is_empty() {
        println!(
            "{}: {} events, no timing spans (was the producer run with --trace-out?)",
            path.display(),
            events.len()
        );
        return Ok(());
    }
    println!("per-module time breakdown of {} ({} events):", path.display(), events.len());
    print!("{}", retia_obs::report::render_breakdown(&rows));
    Ok(())
}

/// `retia predict --data DIR --model FILE --subject N --relation N [--topk N]`.
pub fn predict(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[], &[&["data", "model", "subject", "relation", "topk"]])?;
    let ds = load_data(&args)?;
    let model = load_model(&args, &ds)?;
    let subject: u32 =
        args.require("subject")?.parse().map_err(|e| format!("bad --subject: {e}"))?;
    let relation: u32 =
        args.require("relation")?.parse().map_err(|e| format!("bad --relation: {e}"))?;
    let topk: usize = args.get_or("topk", 10usize)?;
    if subject as usize >= ds.num_entities {
        return Err(format!("subject {subject} out of range 0..{}", ds.num_entities));
    }
    if relation as usize >= 2 * ds.num_relations {
        return Err(format!("relation {relation} out of range 0..{}", 2 * ds.num_relations));
    }

    let ctx = TkgContext::new(&ds);
    let idx = *ctx.test_idx.first().ok_or("dataset has no test timestamps")?;
    let (hist, hypers) = ctx.history(idx, model.cfg.k);
    let probs = model.predict_entity(hist, hypers, vec![subject], vec![relation]);
    let mut ranked: Vec<(usize, f32)> = probs.row(0).iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top-{topk} objects for (e{subject}, r{relation}, ?, t{}):", ctx.snapshots[idx].t);
    for (rank, (ent, p)) in ranked.iter().take(topk).enumerate() {
        println!("  #{:<3} e{:<6} p={:.4}", rank + 1, ent, p);
    }
    Ok(())
}
