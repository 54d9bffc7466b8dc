#![warn(missing_docs)]

//! # retia-nn
//!
//! Neural building blocks of the RETIA reproduction, layered on
//! [`retia_tensor`]'s autodiff graph:
//!
//! * [`Linear`] — affine projection;
//! * [`GruCell`], [`LstmCell`] — the recurrent cells driving RETIA's
//!   residual GRUs (Eq. 3/6) and twin-interact LSTMs (Eq. 8/10);
//! * [`EntityRgcn`] — the entity-aggregating R-GCN of Eq. 4;
//! * [`RelationRgcn`] — the relation-aggregating R-GCN over hyperrelation
//!   subgraphs of Eq. 1;
//! * [`ConvTransE`] — the convolutional decoder of Eq. 11/12;
//! * [`mean_pool_segments`] — the (hyper) mean pooling of Eq. 7/9.
//!
//! Modules register their parameters under a prefix in a shared
//! [`retia_tensor::ParamStore`] at construction and are pure at forward time:
//! `forward(&self, &mut Graph, &ParamStore, ...)`.
//!
//! Every layer also exposes an `audit` twin — a replay of its forward op
//! sequence over shapes and intervals in a [`retia_analyze::AuditCtx`]. It
//! records shape and index-space mismatches instead of panicking and
//! declares the layer's trainable parameters by store name, so the
//! model-level audit (`retia audit`) can check the wiring, prove
//! finiteness and prove gradient-flow reachability before any training
//! step.

mod decoder;
mod linear;
mod pooling;
mod rgcn;
mod rnn;

pub use decoder::ConvTransE;
pub use linear::Linear;
pub use pooling::{audit_mean_pool_segments, mean_pool_segments};
pub use rgcn::{EntityRgcn, RelationRgcn, WeightMode};
pub use rnn::{GruCell, LstmCell};
