#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! # retia-tensor
//!
//! The deep-learning substrate of the RETIA reproduction: a dense, row-major
//! `f32` matrix type ([`Tensor`]), a reverse-mode automatic-differentiation
//! engine ([`Graph`]), a named parameter store ([`ParamStore`]) and
//! first-order optimizers ([`optim::Adam`], [`optim::Sgd`]).
//!
//! The original paper trains on PyTorch/CUDA; no comparable Rust stack is
//! available offline, so this crate reimplements exactly the operator set the
//! RETIA model and its baselines require:
//!
//! * dense matmul (plain / transposed-right / transposed-left),
//! * elementwise arithmetic, activations (sigmoid, tanh, ReLU, leaky ReLU,
//!   randomized leaky ReLU matching PyTorch `RReLU` semantics),
//! * row gather and constant sparse row operators ([`Segments`], applied by
//!   [`Graph::segment_sum`]: scatter-adds, R-GCN message passing and
//!   segment mean pooling),
//! * row softmax, log, reductions, row L2-normalization, layer norm,
//! * 1-D convolution with channels (the kernel of Conv-TransE decoders),
//! * dropout and softmax cross-entropy.
//!
//! Every op's gradient is validated against central finite differences in the
//! test suite (see `autodiff::tests` and `tests/gradcheck.rs`).
//!
//! ## Example
//!
//! ```
//! use retia_tensor::{Graph, ParamStore, Tensor, optim::Adam};
//!
//! let mut store = ParamStore::new(7);
//! store.register("w", Tensor::from_vec(2, 1, vec![0.5, -0.5]));
//! let x = Tensor::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, -1.0]);
//! let y = Tensor::from_vec(4, 1, vec![1.0, 2.0, 3.0, 0.0]); // y = x @ [1, 2]^T
//!
//! let mut adam = Adam::new(0.1);
//! for _ in 0..200 {
//!     let mut g = Graph::new(true, 0);
//!     let w = g.param(&store, "w");
//!     let xs = g.constant(x.clone());
//!     let ys = g.constant(y.clone());
//!     let pred = g.matmul(xs, w);
//!     let diff = g.sub(pred, ys);
//!     let sq = g.mul(diff, diff);
//!     let loss = g.mean_all(sq);
//!     g.backward(loss, &mut store);
//!     adam.step(&mut store);
//!     store.zero_grad();
//! }
//! let w = store.value("w");
//! assert!((w.get(0, 0) - 1.0).abs() < 0.05);
//! assert!((w.get(1, 0) - 2.0).abs() < 0.05);
//! ```

mod autodiff;
pub mod init;
pub mod optim;
pub mod parallel;
mod param;
mod segments;
pub mod serialize;
mod tensor;
pub mod transfer;

pub use autodiff::{Graph, NodeId};
pub use param::{ParamId, ParamStore};
pub use segments::Segments;
pub use serialize::CheckpointError;
pub use tensor::Tensor;

/// Mean negative-slope used by the randomized leaky ReLU in evaluation mode,
/// matching PyTorch's `RReLU(1/8, 1/3)` (the activation RETIA uses).
pub const RRELU_EVAL_SLOPE: f32 = (1.0 / 8.0 + 1.0 / 3.0) / 2.0;
