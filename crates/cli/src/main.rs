//! `retia` — command-line interface for the RETIA reproduction.
//!
//! ```text
//! retia generate --profile icews14 --out data/icews14      # synthesize a dataset
//! retia stats    --data data/icews14                       # Table-V statistics + temporal structure
//! retia audit    --data data/icews14 --dim 200             # static audit: shapes, finiteness, gradient flow
//! retia train    --data data/icews14 --out model.bin --epochs 10
//! retia evaluate --data data/icews14 --model model.bin --split test --online
//! retia predict  --data data/icews14 --model model.bin --subject 3 --relation 2 --topk 5
//! retia serve    --data data/icews14 --resume ckpts/ --port 8080
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod args;
mod commands;
mod store_commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate(rest),
        "stats" => commands::stats(rest),
        "audit" => commands::audit(rest),
        "train" => commands::train(rest),
        "evaluate" => commands::evaluate(rest),
        "predict" => commands::predict(rest),
        "serve" => commands::serve(rest),
        "loadtest" => commands::loadtest(rest),
        "report" => commands::report(rest),
        "ingest" => store_commands::ingest(rest),
        "compact" => store_commands::compact(rest),
        "query" => store_commands::query(rest),
        "path" => store_commands::path(rest),
        "communities" => store_commands::communities(rest),
        "export" => store_commands::export(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
retia — temporal knowledge graph extrapolation (RETIA, ICDE 2023)

USAGE:
    retia <command> [options]

COMMANDS:
    generate   synthesize a benchmark-shaped dataset
               --profile icews14|icews0515|icews18|yago|wiki|tiny  --out DIR [--seed N]
    stats      print dataset statistics and temporal structure
               --data DIR | --store DIR (adds temporal PageRank top-10 and
               community-evolution totals from the durable store)
    audit      static audit of a configuration (no training): abstract
               interpretation of evolve -> decode -> loss -> backward that
               checks every shape and index-space precondition, proves
               finiteness under the parameter envelope, reconciles
               gradient-flow reachability with the configuration's frozen set,
               and checks reduction-order declarations; reports every finding
               with the module and paper-equation name;
               --all-configs sweeps every ablation mode
               [--data DIR] [--all-configs] [--dim N] [--k N] [--channels N]
               [--no-tim] [--no-eam]
    train      train a RETIA model and write a checkpoint
               (--data DIR | --store DIR) --out FILE
               [--dim N] [--k N] [--epochs N] [--channels N]
               [--lr F] [--lambda F] [--seed N] [--no-tim] [--no-eam] [--static-weight F]
               [--log-level L] [--trace-out FILE]
               fault tolerance:
               [--checkpoint-dir DIR]  save full train state there every epoch
               [--checkpoint-every N]  save cadence in epochs (default 1)
               [--keep K]              checkpoints retained by rotation, plus
                                       the best-validation one (default 3)
               [--resume DIR]          continue from DIR's latest checkpoint,
                                       bit-identically to an uninterrupted run
                                       (only --epochs may override the stored
                                       config, to extend a finished run)
               [--no-recovery]         disable divergence recovery (skip bad
                                       steps / rollback / lr backoff), keeping
                                       the reference warn-only behavior
    evaluate   score a checkpoint on a split
               --data DIR --model FILE [--split valid|test] [--online] [--filtered]
               [--log-level L] [--trace-out FILE]
    predict    rank candidate objects for a query (s, r, ?) at the first test timestamp
               --data DIR --model FILE --subject N --relation N [--topk N]
    serve      online inference over HTTP from a train checkpoint directory
               (--data DIR | --store DIR) --resume CKPT_DIR
               [--port N] [--host H] [--workers N]
               [--queue-cap N] [--decode-shards N]
               [--slo LIST] [--trace-slow-ms F] [--trace-sample N]
               [--log-level L] [--trace-out FILE]
               port 0 binds an ephemeral port (printed on stdout at startup);
               endpoints: POST /v1/query, POST /v1/ingest, GET /healthz
               (?ready=1 for a 503-on-degraded readiness probe),
               GET /metrics (?format=prom for Prometheus text), GET /v1/traces
               (tail-sampled request traces), GET /v1/drift (online drift
               monitor readout), POST /admin/shutdown (drains, then exits);
               --queue-cap bounds the engine queue (overflow answers 429 with
               Retry-After), --decode-shards fans candidate scoring out over
               N threads with bit-identical ranks; --slo installs latency
               objectives exported as slo.* burn-rate gauges; every request
               slower than --trace-slow-ms (plus a 1-in---trace-sample
               deterministic sample) is kept in the trace store
               online learning:
               [--online]              continual trainer: fine-tunes on newly
                                       ingested windows in an isolated thread,
                                       publishes via atomic model swaps, rolls
                                       back on sustained drift; trainer faults
                                       degrade /healthz, never serving
               [--online-steps N]      gradient steps per training round (4)
               [--online-interval-ms N] poll cadence between rounds (200)
               [--max-staleness N]     ingest epochs the served model may lag
                                       before /healthz degrades (8)
               [--drift-threshold F]   relative loss/MRR regression vs the
                                       boot baseline that counts as a breach (0.5)
               [--drift-window N]      consecutive breaches before rollback (3)
               durability:
               [--store DIR]           boot the window from the durable store
                                       and append every accepted ingest to it
                                       before the window advances; survives
                                       kill -9 at any byte offset
               [--ingest-log FILE]     deprecated alias for --store: migrates
                                       the legacy JSONL log into {FILE}.store
                                       once (FILE is renamed FILE.migrated)
                                       and serves from that store thereafter
    loadtest   replay a synthetic query/ingest mix and write BENCH_serve.json
               (p50/p99 latency and QPS per concurrency level)
               [--addr HOST:PORT] [--connections 1,2,4,...] [--requests N]
               [--ingest-every N] [--k N] [--out FILE] [--slo LIST]
               [--entities N] [--relations N]   id spaces for --addr targets
               without --addr, self-hosts a tiny untrained model (honoring
               [--workers N] [--queue-cap N] [--decode-shards N]); exits
               nonzero on any 5xx, if no request succeeded, or if any --slo
               objective burns against the client-measured latencies
               [--online]  adds a second self-hosted ladder with the continual
               trainer live, written as the train_active section
    report     per-module time breakdown of a JSONL trace written by --trace-out
               --trace FILE [--requests]
               with --requests, FILE is a saved GET /v1/traces document and
               the output is one stage tree per request (offset, duration,
               exclusive time per stage)

STORE COMMANDS (durable temporal-KG store: CRC'd fact log + compacted segments):
    ingest     create a store or append facts to one
               --store DIR (--facts FILE.tsv | --from-data DIR) [--append]
               [--name NAME] [--granularity day|year] [--compact]
               FILE.tsv rows are `subject<TAB>relation<TAB>object<TAB>t`
               (# comments allowed); new names extend the vocabulary in
               insertion order and ids are never renumbered; timestamps are
               forward-only (same-t facts merge into the latest group)
    compact    seal the fact log into an immutable snapshot segment
               --store DIR
    query      filter facts by name or id
               --store DIR [--subject X] [--relation X] [--object X]
               [--since T] [--until T] [--limit N] [--json]
    path       time-respecting path between two entities (each hop leaves no
               earlier than the previous hop's arrival)
               --store DIR --from X --to X [--since T] [--max-hops N] [--json]
    communities connected components per snapshot and their evolution
               (continued/born/died via best-Jaccard matching)
               --store DIR [--at T] [--json]
    export     write the whole store as an interchange document
               --store DIR --format json|csv|graphml|cypher [--out FILE]
               all four formats reimport bit-identically via `retia ingest`

SLO SPECS (--slo):
    comma-separated name:objective:threshold_ms[:window_s] entries, e.g.
    `query:99:50` = 99% of /v1/query requests under 50ms (window 300s).
    serve evaluates them against the serve.request_ms.<name> histograms;
    loadtest evaluates them against its own measured latencies.

OBSERVABILITY:
    --log-level L     stderr log verbosity: off|error|warn|info|debug|trace
                      (defaults to the RETIA_LOG environment variable, then `info`)
    --trace-out FILE  append every span/event as JSON lines to FILE
                      (feed it to `retia report --trace FILE`)
";

/// Shared checkpoint-sidecar: the config a model was trained with.
pub(crate) fn config_sidecar(model_path: &Path) -> PathBuf {
    let mut p = model_path.to_path_buf();
    let name = p
        .file_name()
        .map(|f| format!("{}.config.json", f.to_string_lossy()))
        .unwrap_or_else(|| "model.config.json".into());
    p.set_file_name(name);
    p
}
