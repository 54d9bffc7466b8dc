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
//! `forward(&self, &mut O, &ParamStore, ...)`, generic over
//! [`retia_tensor::Ops`]. Each layer is written once: over a
//! [`retia_tensor::Graph`] it computes tensors, over the audit interpreter
//! (`retia_analyze::AuditCtx`) the same code checks shapes and intervals
//! for `retia audit`. A precondition stated with `Ops::check` panics on a
//! graph and is a shape finding, named after the layer, in the audit.

mod decoder;
mod linear;
mod pooling;
mod rgcn;
mod rnn;

pub use decoder::ConvTransE;
pub use linear::Linear;
pub use pooling::mean_pool_segments;
pub use rgcn::{EntityRgcn, RelationRgcn, WeightMode};
pub use rnn::{GruCell, LstmCell};

use retia_tensor::Ops;

/// A layer's width precondition: `x` has `width` columns.
fn check_width<O: Ops>(g: &mut O, op: &str, what: &str, x: O::Id, width: usize) {
    let cols = g.shape(x).1;
    g.check(op, cols == width, || {
        format!("{what} width mismatch: {cols} columns, expected {width}")
    });
}

/// A layer's row-count precondition: `x` has `rows` rows.
fn check_rows<O: Ops>(g: &mut O, op: &str, what: &str, x: O::Id, rows: usize) {
    let n = g.shape(x).0;
    g.check(op, n == rows, || format!("{what} count mismatch: {n} rows, expected {rows}"));
}
