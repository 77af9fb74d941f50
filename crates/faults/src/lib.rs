//! Deterministic fault injection for the placement-advisory stack.
//!
//! The serving layer (PR 3) exposed the paper's models to untrusted
//! network input; this crate supplies the other half of that contract —
//! a way to *prove*, repeatably, that no malformed, truncated, slow, or
//! adversarial request can panic the process, hang a worker, or smuggle
//! an unflagged nonsense number past the API. Everything here is
//! seed-driven: a failing scenario is reproduced by re-running with the
//! seed printed in the failure message, never by luck.
//!
//! Three pieces:
//!
//! * [`FaultPlan`] / [`FaultKind`] — a deterministic schedule of fault
//!   scenarios expanded from one `u64` seed ([`plan`]).
//! * [`corpus::adversarial_json`] — a generated corpus of hostile JSON
//!   documents (truncated UTF-8, deep nesting, huge numbers, duplicate
//!   keys, NUL bytes) shared by the wire property tests and the chaos
//!   suite ([`corpus`]).
//! * [`FaultClient`] — a TCP client that *commits* each fault against a
//!   live server and classifies the observable outcome
//!   ([`client`]), with [`Client`] for the well-formed requests sent
//!   around the faults, plus [`backoff::retry_with_backoff`] for the
//!   benchmark client's retry loop ([`backoff`]).
//! * [`ResourceFaultPlan`] / [`FaultyFs`] — seed-replayable *resource*
//!   faults: disk corruption against the skeleton cache, worker-pool
//!   stalls, and deadline-clock skew ([`resource`]).
//!
//! The crate is std-only and is a dependency of tests and benches, not
//! of the server: with no `FaultClient` pointed at it (and no
//! [`FaultyFs`] injected), the serving path runs exactly the code it
//! runs in production.

pub mod backoff;
pub mod client;
pub mod corpus;
pub mod plan;
pub mod resource;

pub use backoff::{retry_with_backoff, BackoffPolicy};
pub use client::{read_response, Client, FaultClient, FaultOutcome};
pub use corpus::adversarial_json;
pub use plan::{FaultCase, FaultKind, FaultPlan};
pub use resource::{FaultyFs, FsFault, ResourceFaultCase, ResourceFaultKind, ResourceFaultPlan};
