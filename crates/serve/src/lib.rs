#![warn(missing_docs)]

//! # retia-serve
//!
//! Online inference for a trained RETIA model: the subsystem that turns the
//! repo's batch trainer into something that can answer a live query
//! `(s, r, ?, t+1)` over HTTP.
//!
//! Architecture (one box per thread):
//!
//! ```text
//!        TcpListener (shared, non-blocking, ephemeral port ok)
//!             │ accept (polled)
//!   ┌─────────┼─────────┐
//!   worker  worker ... worker      fixed pool of keep-alive poll loops:
//!   └─────────┼─────────┘          each owns its connections, parses
//!             │                    pipelined HTTP/1.1 incrementally, reaps
//!             │                    idle sockets, writes JSON responses
//!             │ BOUNDED job queue (Mutex + Condvar; overflow → 429)
//!        engine thread             drains the whole queue per wake:
//!             │                    consecutive query jobs fuse into ONE
//!             │                    batched Conv-TransE decode (micro-batch)
//!      ┌──────┴────────────┐
//!      frozen model        embedding cache
//!      (no-grad forward)   (detached last-k E_t/R_t per window epoch)
//! ```
//!
//! The split mirrors the paper's decode strategy: scores are summed over the
//! last `k` evolved snapshot states (Eq. 13/14), so those `k` embedding
//! matrices fully determine every answer until the window moves. The engine
//! computes them once per window epoch in a no-tape inference graph
//! ([`retia::Retia::evolve_window`], on the [`retia::FrozenModel`] it owns)
//! and caches them; per-query work is one decode batch plus a bounded top-k
//! heap. `POST /v1/ingest` appends facts, advances the window and recomputes
//! the cache — the online extrapolation setting, minus parameter updates.
//!
//! Endpoints: `POST /v1/query`, `POST /v1/ingest`, `GET /healthz` (status,
//! model/ingest epochs, staleness and trainer state; `?ready=1` turns it
//! into a readiness probe that answers 503 while degraded), `GET /metrics`
//! (the `retia-obs` registry snapshot; `?format=prom` for the Prometheus
//! text exposition), `GET /v1/traces` (the tail-sampled request trace
//! store, newest first), `GET /v1/drift` (the continual trainer's drift
//! monitor readout), `POST /admin/shutdown` (drains in-flight requests,
//! then stops).
//!
//! With [`ServeConfig::online`] set, the [`online`] module runs a continual
//! trainer beside the engine: newly ingested windows are fine-tuned on an
//! isolated thread and published via atomic model swaps; trainer faults
//! degrade `/healthz`, never serving (see DESIGN.md §12).
//!
//! Every request is traced: a trace id is assigned when its first bytes
//! arrive (echoed back as `X-Trace-Id`), the `serve.recv`/`serve.queue_wait`
//! /`serve.decode`/`serve.write` stages reconstruct its lifecycle as a tree
//! (see [`stages`]), and the store keeps slow outliers plus a deterministic
//! 1-in-N sample. Latency SLOs from [`ServeConfig::slos`] are evaluated over
//! the per-endpoint histograms and exported as `slo.*` gauges.
//!
//! Everything is `std`-only: no hyper, no tokio, no serde — the offline
//! build environment rules them out. Readiness is `set_nonblocking` polling
//! with short adaptive sleeps (no `epoll` binding without dependencies);
//! workers holding a single connection park in a blocking read instead, so
//! the common ping-pong client pays no poll latency.

mod api;
mod engine;
mod http;
pub mod loadtest;
pub mod online;
mod server;
pub mod stages;

pub use api::{
    ingest_response_json, parse_ingest_request, parse_query_request, query_response_json,
    SchemaError, DEFAULT_TOP_K, MAX_ITEMS_PER_REQUEST,
};
pub use engine::{
    Engine, EngineError, EngineHandle, EngineOptions, EngineStats, IngestResponse, PauseGuard,
    Query, QueryKind, QueryResponse, SwapRequest, SwapResponse, TopK, WindowView,
};
pub use http::{
    error_body, read_request, write_json, write_json_response, write_text_response, HttpError,
    Request, RequestBuffer, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
pub use online::{DriftReport, OnlineOptions, OnlineStatus, TrainerState};
pub use retia_obs::slo::SloSpec;
pub use server::{ServeConfig, Server};
