#![warn(missing_docs)]

//! # retia-graph
//!
//! Temporal-knowledge-graph structures for the RETIA reproduction:
//!
//! * [`Quad`] — a dated fact `(s, r, o, t)`;
//! * [`Snapshot`] — one timestamp's facts with inverse-relation augmentation,
//!   the edge list grouped for R-GCN message passing (which derives each
//!   edge's degree normalization from it), and the relation→entity
//!   incidence sets used by the twin-interact module's mean pooling, all by
//!   sort + dedup;
//! * [`HyperSnapshot`] — the *twin hyperrelation subgraph* of a snapshot
//!   (Algorithm 1 of the paper): relation nodes joined by the four positional
//!   hyperrelations `o-s`, `s-o`, `o-o`, `s-s` (plus their inverses);
//! * [`Window`] — the last `k` snapshots of a forward-only fact stream under
//!   the stream's one rule (ids in range, timestamps never move backwards,
//!   same-timestamp facts merge into the newest group), which the store's
//!   unbounded fact history shares through [`check_facts`] and
//!   [`merge_groups`].
//!
//! The hyperrelation construction is the paper's sparse boolean products
//! `RO×RS`, `RS×RO`, `RO×RO`, `RS×RS` realized as joins on the shared
//! entity: candidate hyperedges packed into `u64` keys, then one sort and
//! dedup, which scales with the candidate pairs instead of `O(M²)`; a dense
//! reference implementation in the test suite validates the arrays in order.

mod hypergraph;
mod quad;
mod snapshot;
mod window;

pub use hypergraph::{HyperRel, HyperSnapshot, NUM_HYPERRELS, NUM_HYPERRELS_WITH_INV};
pub use quad::{group_by_timestamp, Quad};
pub use snapshot::Snapshot;
pub use window::{check_facts, merge_groups, Window, WindowError};
