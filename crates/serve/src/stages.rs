//! Canonical stage names for the serve request pipeline.
//!
//! Every constant here names one segment of a request's lifecycle and has a
//! matching emission site (a `span!` or `trace::record_stage` call) somewhere
//! in the workspace — `retia-lint` enforces the pairing, so the span taxonomy
//! documented in DESIGN.md §7 cannot drift from the code. Names are dotted:
//! the first segment groups them under the `serve` module in the flame
//! table, deeper segments mirror the pipeline diagram (§10).

/// Socket read: first byte of the request to a complete parsed head+body.
pub const RECV: &str = "serve.recv";
/// Time a job spent in the engine's bounded queue before service began.
pub const QUEUE_WAIT: &str = "serve.queue_wait";
/// Embedding-cache consultation (hit check, and the evolve on a miss).
pub const CACHE: &str = "serve.cache";
/// Window recurrence re-evolving the last-`k` embedding states.
pub const EVOLVE: &str = "serve.evolve";
/// The fused scoring decode over a batch of queries.
pub const DECODE: &str = "serve.decode";
/// Per-query top-k extraction.
pub const TOPK: &str = "serve.topk";
/// Writing the response bytes back to the socket.
pub const WRITE: &str = "serve.write";
/// Window advance: validation, durable append, the build of the snapshots
/// the batch changes, and the eager cache warm.
pub const INGEST: &str = "serve.ingest";
/// One continual-training round on the online trainer's thread.
pub const TRAIN: &str = "serve.train";
/// Atomic installation of a candidate model on the engine thread.
pub const SWAP: &str = "serve.swap";
/// Drift gate: candidate-vs-baseline scoring on the newest window.
pub const DRIFT: &str = "serve.drift";
