//! The fixed workload plans: inputs, rates, limits and tolerances.
//!
//! Every number that decides what a run measures lives here, so a change to
//! it is a change to the benchmark. The serve rates are absolute, set
//! against the `serve_query` capacity measured on the commit that introduced
//! the benchmark (2-vCPU host, see README.md). Both workloads share every
//! plan; only the dataset differs.

use retia_data::{DatasetProfile, SyntheticConfig};

/// Generator send lag (90th percentile, ms) beyond which a phase is
/// reported invalid: the generator, not the server, fell behind. Not the
/// 99th: on the shared 2-vCPU host the hypervisor takes a fifth of the CPU
/// time at busy hours, and a stall of the whole VM delays a few sends and
/// the server alike (those requests count the stall, timed from their due
/// time); in one ten-run set it pushed some phase's lag p99 past 10 ms in 4
/// of 7 runs. A generator that cannot keep its schedule lags on many sends.
pub const LAG_BOUND_MS: f64 = 10.0;

/// Processes a scenario may take to measure with every phase valid. A long
/// stall of the shared host can still push a phase's lag p90 past
/// `LAG_BOUND_MS` (none did in the tuning runs, whose largest read 3.7 ms),
/// so a scenario whose generator fell behind runs again in a fresh process.
/// The attempts set aside are printed; none of their figures is reported.
pub const ATTEMPTS: usize = 3;

/// Tolerated relative gap between the traced train-step split
/// (`core.evolve + core.loss + tensor.backward + core.optim`) and the
/// untraced `train_step_ms_p50`.
pub const STEP_CLOSURE_TOLERANCE: f64 = 0.15;

/// The end-to-end metrics a regression is judged on, in report order: set-up
/// time and peak memory. The others print beside them, but in ten-seed (and
/// five-seed tuning) sets on the shared 2-vCPU host their spread
/// (interquartile range over median) came near or above the largest bound a
/// gate may use, 0.25, in at least one set. The host's speed on identical
/// CPU-bound work drifts from minute to minute (the hypervisor took up to a
/// fifth of the CPU time at busy hours), so every timing moves with it:
/// `train_step_ms_p50`, `train_facts_per_s` and `eval_queries_per_s`, at
/// the two tensor threads `train` runs at, read up to 0.49; `ingest_p50_ms`
/// read 0.13-0.23 over ten seeds and 0.31 over five. Every `serve_query`
/// latency also moves with the allocator: each process settles into
/// re-faulting one to four copies of the 8 MB decode FC weight per query
/// (~1,950 minor faults each), so a process's `low` p50 reads ~23 ms with
/// one copy and ~43 ms with four (`query_p50_ms.low` up to 0.52,
/// `query_p50_ms.high` up to 0.63, their p90s up to 0.80, `query_max_rps`
/// up to 2.3, as it reads 0 where `high` already misses the limit). The
/// stream's query p50 sits where queries start to wait behind ingests, so
/// it jumps with ingest cost (`query_p50_ms` up to 2.7, `query_p99_ms` up
/// to 0.31, `ingest_p90_ms` up to 0.51).
pub const GATED: [&str; 2] = ["setup_s", "peak_rss_mb"];

/// Tensor threads in the two serve scenario processes (`RETIA_NUM_THREADS`,
/// which `retia serve` reads too). Their load generator runs in the same
/// process, with a sender and a reply reader per connection: at the default
/// of one thread per vCPU, the kernels' scoped threads take both cores of
/// the 2-vCPU host from those threads, and replies wait to be read. `train`
/// has no generator and runs at the default.
pub const SERVE_TENSOR_THREADS: usize = 1;

/// Candidates per query request.
pub const QUERY_K: usize = 10;

/// How many set-ups each scenario runs per benchmark run (the main run's
/// own set-up included); `setup_s` sums the per-scenario medians.
pub const SETUP_SAMPLES: usize = 3;

/// Training steps, in time order from the first training snapshot with a
/// full history window.
pub const TRAIN_STEPS: usize = 25;

/// Validation passes; `eval_queries_per_s` is their median.
pub const EVAL_PASSES: usize = 3;

/// Accepted mean joint loss over the steps: every tuning run read 2.62-2.82
/// on `icews14` and 2.68-2.79 on `icews0515`. Divergence or a broken loss
/// leaves it.
pub const LOSS_BAND: (f64, f64) = (2.0, 3.5);

/// Accepted validation entity MRR (raw): the same runs read 0.15-0.22 and
/// 0.14-0.17, where random ranking of 200-220 entities scores ~0.03 and a
/// leak near 1.
pub const MRR_BAND: (f64, f64) = (0.08, 0.4);

/// The `serve_query` phases.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// The `low` rate, requests per second.
    pub low_rps: f64,
    /// The `high` rate.
    pub high_rps: f64,
    /// Seconds at each of `low` and `high`.
    pub phase_s: (f64, f64),
    /// The ladder's rates above `high`, ascending; the climb stops at the
    /// first rung that fails the limit.
    pub ladder_rps: &'static [f64],
    /// Seconds per ladder rung.
    pub rung_s: f64,
    /// The p90 limit the ladder's points must meet, ms.
    pub p90_limit_ms: f64,
}

/// One paper-size query costs ~21 ms of engine time, so the engine
/// saturates near 45 req/s. `low` is about a quarter of that and `high`
/// about two fifths: at three quarters, queueing multiplied the host's
/// speed drift into 50% swings of the phase's latency. The ladder climbs
/// past that capacity, so a failing rung brackets it. (A process that
/// re-faults more copies of the decode weight per query, see `GATED`,
/// saturates sooner.)
pub const QUERY: QueryPlan = QueryPlan {
    low_rps: 12.0,
    high_rps: 18.0,
    phase_s: (10.0, 7.0),
    ladder_rps: &[32.0, 44.0, 50.0, 56.0],
    rung_s: 4.0,
    p90_limit_ms: 150.0,
};

/// The `serve_stream` scenario.
#[derive(Clone, Debug)]
pub struct StreamPlan {
    /// Timestamps the boot store holds; the rest of the stream is ingested.
    pub head_timestamps: usize,
    /// Gap between ingests, ms.
    pub ingest_interval_ms: f64,
    /// Query rate beside the stream, requests per second.
    pub query_rps: f64,
}

/// 100 ingests leave ten beyond their p90; 120 req/s for the ~10 s stream
/// leave ten queries beyond their p99.
pub const STREAM: StreamPlan =
    StreamPlan { head_timestamps: 20, ingest_interval_ms: 100.0, query_rps: 120.0 };

/// One benchmark workload: the dataset the three scenarios run over.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Harness profile the dataset and the `train`/`serve_stream` model
    /// config come from.
    pub profile: DatasetProfile,
}

impl Workload {
    /// The dataset generator for `seed`.
    pub fn dataset(&self, seed: u64) -> SyntheticConfig {
        SyntheticConfig { seed, ..SyntheticConfig::profile(self.profile) }
    }
}

/// Every workload: the harness's ICEWS14-mini and ICEWS05-15-mini profiles
/// (the paper's Table V datasets, scaled down). Both have 120 daily
/// timestamps and share the harness model config (k = 6) and the paper's
/// k = 9, so every plan fits both.
pub const WORKLOADS: [Workload; 2] = [
    Workload { name: "icews14", profile: DatasetProfile::Icews14 },
    Workload { name: "icews0515", profile: DatasetProfile::Icews0515 },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
