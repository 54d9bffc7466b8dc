//! Static analysis and fault injection for the RETIA stack.
//!
//! - [`value`] + [`gradflow`] — the abstract interpreter behind `retia
//!   audit`. [`AuditCtx`] replays the model's op vocabulary over shapes and
//!   intervals (no tensor data): every op checks the dimension and
//!   index-space preconditions its real kernel asserts, an interval +
//!   finiteness domain is driven by the per-op transfer functions in
//!   `retia_tensor::transfer`, gradient-flow reachability is walked from
//!   the loss (declared-frozen parameters and detach boundaries included),
//!   and reduction-order declarations are checked. `AuditCtx` implements
//!   `retia_tensor::Ops`, so it runs the NN layers' and the model's own
//!   forward code; the `retia audit` subcommand, the trainer pre-flight,
//!   and the serve boot check surface the result, each finding named by
//!   module and paper equation.
//! - [`lint`] — the repo-specific source lint behind the `retia-lint` binary
//!   (`cargo run -p retia-analyze --bin retia-lint`), with an exact-count
//!   allowlist ratchet in `scripts/lint-allowlist.txt` and a drift check of
//!   the reduction-order map in `scripts/reduction-order.txt`.
//! - [`chaos`] — deterministic fault injection ([`ChaosPlan`]): NaN/inf
//!   gradient storms at scheduled steps, checkpoint bit-flips and
//!   truncation, crash-mid-write writers, and dataset-row corruption. The
//!   trainer consumes plans (via `RETIA_CHAOS` or the test API); the
//!   fault-tolerance integration suite uses the byte-level helpers.
//!
//! The parallel-plan race prover lives next to the kernels it checks, in
//! `retia_tensor::parallel`, because the plan type is private to that crate;
//! likewise the transfer functions and reduction-order map live in
//! `retia_tensor::transfer`, next to the op enum they describe.

pub mod chaos;
pub mod gradflow;
pub mod lint;
pub mod value;

pub use chaos::{ChaosPlan, GradFault};
pub use value::{AuditCtx, AuditIssue, AuditKind, AuditReport, FrozenParam};
