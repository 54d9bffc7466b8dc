#![warn(missing_docs)]

//! # retia-baselines
//!
//! The comparison models of the paper's Tables III, IV and VII, reimplemented
//! on the same tensor/autodiff substrate as RETIA so the comparison isolates
//! *modeling* differences rather than engineering ones.
//!
//! | family | models | notes |
//! |---|---|---|
//! | static | [`DistMult`], [`ComplEx`], [`ConvDecoder`] (ConvE-style and Conv-TransE), [`RotatE`], [`StaticRgcn`] | trained on the train split with the time dimension removed |
//! | interpolation | [`TTransE`], [`TaDistMult`], [`HyTE`] | timestamp embeddings; future timestamps clamp to the last seen one (interpolation methods cannot extrapolate, which the paper's tables demonstrate) |
//! | extrapolation | RE-GCN / CEN / RGCRN ([`RegcnFlavor`]), [`CyGNetCopy`], [`TirgnLite`], [`RenetLite`] | RE-GCN-family models are ablated RETIA configurations (RE-GCN *is* RETIA without the RAM/hyperrelation machinery), each a `retia::Trainer` over [`RegcnFlavor::config`] |
//!
//! Reinforcement-learning and rule-based baselines (CluSTeR, TITer, xERTE,
//! TLogic) are *not* reimplemented (each is a paper-sized system);
//! the table harness prints the paper's reported numbers for those rows,
//! marked `paper-reported`. See DESIGN.md §1.
//!
//! All models implement [`TkgBaseline`] (as does `retia::Trainer`), a
//! `retia::Forecaster` that can train itself; the harness scores every one
//! with `retia::evaluate`, the code `retia evaluate` runs. A model's score
//! methods read only the `retia::Past` that `evaluate` hands them: the
//! snapshots before the scored one, its timestamp and the vocabulary
//! sizes. The temporal models read the timestamp, RE-NET-lite its last `k`
//! snapshots, and the copy index absorbs them all. The `retia::TkgContext`
//! reaches a model only through its constructor and `fit`.
//!
//! Each static and interpolation baseline writes its score once, as a
//! function building it in an autodiff graph: `fit` trains a loss on it and
//! the score methods run it in a no-tape inference graph, so a model ranks
//! with exactly what it trained. RE-NET-lite scores in one too. They share one training loop (seeded
//! minibatches of the training facts and their inverses, one Adam step
//! each), and the distance models (RotatE, TTransE, HyTE) one margin loss.
//! CyGNet and TiRGN-lite share one index of historical answers.

mod conv;
mod copy_gen;
mod factorization;
mod hyte;
mod regcn;
mod renet;
mod rotate;
mod static_rgcn;
mod temporal;
mod tirgn;
mod train;
mod traits;

pub use conv::{ConvDecoder, ConvFlavor};
pub use copy_gen::CyGNetCopy;
pub use factorization::{ComplEx, DistMult};
pub use hyte::HyTE;
pub use regcn::RegcnFlavor;
pub use renet::RenetLite;
pub use rotate::RotatE;
pub use static_rgcn::StaticRgcn;
pub use temporal::{TTransE, TaDistMult};
pub use tirgn::TirgnLite;
pub use traits::{StaticTrainConfig, TkgBaseline};
