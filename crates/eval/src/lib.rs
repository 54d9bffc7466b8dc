#![warn(missing_docs)]

//! # retia-eval
//!
//! Link-prediction evaluation for TKG extrapolation, following the protocol
//! of RE-GCN/RETIA:
//!
//! * ranks are computed per query over the full candidate set; ties get the
//!   *average* rank (robust against constant-score degenerate models);
//! * the paper reports the **raw** setting (no filtering) — this crate also
//!   implements the **time-aware filtered** setting for completeness;
//! * entity metrics average the subject- and object-forecasting directions;
//! * relation forecasting reports MRR over the `M` original relations.
//!
//! [`Metrics`] accumulates MRR / Hits@{1,3,10}; [`format_duration`] prints
//! the paper's Table VIII units (the harness times runs with `Instant`).

mod metrics;
pub mod parallel;
mod ranking;
mod timing;

pub use metrics::Metrics;
pub use parallel::{collect_metrics, collect_paired_metrics};
pub use ranking::{rank_of, rank_of_filtered, top_k, FilterSet};
pub use timing::format_duration;
