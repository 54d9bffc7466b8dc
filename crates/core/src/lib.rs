#![warn(missing_docs)]

//! # retia
//!
//! A pure-Rust implementation of **RETIA: Relation-Entity Twin-Interact
//! Aggregation for Temporal Knowledge Graph Extrapolation** (Liu, Zhao, Xu,
//! Wang, Jin — ICDE 2023).
//!
//! Given a history of dated fact snapshots, RETIA forecasts the facts of the
//! next timestamp: missing objects `(s, r, ?, t+1)`, missing subjects
//! `(?, r, o, t+1)` and missing relations `(s, ?, o, t+1)`. Three modules
//! cooperate along the snapshot sequence:
//!
//! * the **entity aggregation module (EAM)** — an entity-aggregating R-GCN
//!   plus residual GRU (Eq. 4–6), the RE-GCN backbone;
//! * the **relation aggregation module (RAM)** — a *twin hyperrelation
//!   subgraph* is derived from each snapshot (Algorithm 1) and a
//!   relation-aggregating R-GCN plus residual GRU runs on it (Eq. 1–3),
//!   bridging the "message islands" that entity-centric aggregation leaves
//!   between relations;
//! * the **twin-interact module (TIM)** — mean-pooling + LSTM channels that
//!   feed entity state into relation updates (Eq. 7–8) and relation state
//!   into hyperrelation updates (Eq. 9–10), modeling the positional
//!   association constraints between entities and relations.
//!
//! Decoding uses Conv-TransE score heads summed over the last `k` snapshot
//! states (the time-variability strategy, Eq. 11–14), and evaluation can run
//! with online continual training, as in the paper. [`evaluate`] is that
//! protocol, written once: it scores any [`Forecaster`], a [`Trainer`] or a
//! baseline.
//!
//! ## Quickstart
//!
//! ```
//! use retia::{Retia, RetiaConfig, TkgContext, Trainer};
//! use retia_data::SyntheticConfig;
//!
//! let ds = SyntheticConfig::tiny(1).generate();
//! let ctx = TkgContext::new(&ds);
//! let cfg = RetiaConfig { dim: 16, channels: 8, epochs: 1, k: 2, ..Default::default() };
//! let mut trainer = Trainer::new(Retia::new(&cfg, &ds), cfg);
//! trainer.fit(&ctx);
//! let report = trainer.evaluate(&ctx, retia::Split::Test);
//! assert!(report.entity_raw.mrr() > 0.0);
//! ```
//!
//! The ablation switches exercised by the paper's Tables VI/IX and Figures
//! 3–8 are all fields of [`RetiaConfig`]: [`RelationMode`], [`HyperrelMode`],
//! `use_tim`, `use_eam`, `online`.

mod audit;
mod checkpoint;
mod config;
mod context;
mod frozen;
mod model;
mod protocol;
mod trainer;

pub use audit::{audit_ablation_grid, audit_config};
pub use checkpoint::CheckpointPolicy;
pub use config::{HyperrelMode, RelationMode, RetiaConfig};
pub use context::{Past, Split, TkgContext};
pub use frozen::{FrozenModel, FrozenStates};
pub use model::{entity_queries, relation_queries, EvolvedState, Retia};
pub use protocol::{evaluate, EvalReport, Forecaster};
pub use retia_analyze::{AuditIssue, AuditReport};
pub use trainer::{DivergenceReport, EpochLoss, RecoveryPolicy, TrainError, Trainer};
