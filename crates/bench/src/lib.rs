#![warn(missing_docs)]

//! # retia-bench
//!
//! Experiment harness regenerating every table and figure of the RETIA paper
//! (see DESIGN.md §3 for the index). The entry points are binaries:
//!
//! ```text
//! cargo run -p retia-bench --release --bin table3   # entity forecasting, ICEWS series
//! cargo run -p retia-bench --release --bin table4   # entity forecasting, YAGO/WIKI
//! cargo run -p retia-bench --release --bin table5   # dataset statistics
//! cargo run -p retia-bench --release --bin table6   # EAM/RAM ablation
//! cargo run -p retia-bench --release --bin table7   # relation forecasting
//! cargo run -p retia-bench --release --bin table8   # run-time comparison
//! cargo run -p retia-bench --release --bin table9   # TIM on/off
//! cargo run -p retia-bench --release --bin fig3_4   # loss curves w./wo. TIM
//! cargo run -p retia-bench --release --bin fig5     # hyperrelation ablation
//! cargo run -p retia-bench --release --bin fig6_7   # relation-modeling depth
//! cargo run -p retia-bench --release --bin fig8     # online-training gains
//! cargo run -p retia-bench --release --bin run_all  # populate the cache for everything
//! ```
//!
//! Every (dataset, model-variant) pair is trained at most once per
//! [`Settings`]; results are cached as JSON under `results/cache/` so the
//! table binaries are cheap re-renders. Each file records the settings that
//! wrote it, and a file written under other settings is a miss. Delete the
//! cache (or set `RETIA_REFRESH=1`) to re-run. `RETIA_FAST=1` switches to a
//! low-epoch smoke configuration.

pub mod paper;
pub mod report;
mod runner;
mod variants;

pub use runner::{run_experiment, BenchMetrics, ExpResult, Settings};
pub use variants::{dataset_context, retia_config_for, Variant};
